//! LP-rounding machine minimization (Raghavan–Thompson flavor).
//!
//! The best known polynomial MM approximations (Raghavan & Thompson 1987;
//! Chuzhoy et al. 2004, cited by the paper as the black box behind its
//! concrete bounds) solve a *start-time* LP relaxation and round it. This
//! module implements that template:
//!
//! 1. **Candidate starts.** For each job, the release time, the latest
//!    start, and every other job's release/deadline-derived event clipped
//!    to the job's start window. (For integer instances this candidate set
//!    contains a left-shifted optimal schedule's start times: shift each
//!    job left until it hits its release or a predecessor's completion —
//!    completions land on `r + Σp` sums; we additionally densify with the
//!    event points, keeping the set `O(n²)`.)
//! 2. **The LP.** Variables `z_{j,s} >= 0` (job `j` starts at `s`) and the
//!    machine count `w`; minimize `w` subject to `Σ_s z_{j,s} = 1` and, at
//!    every event time `t`, `Σ_{(j,s): s <= t < s+p_j} z_{j,s} <= w`.
//!    A load row whose active set already has a row is left out, so the
//!    simplex sees no duplicate rows. The LP optimum lower-bounds the true
//!    optimum restricted to the candidate set.
//! 3. **Derandomized rounding.** Each job takes its maximum-mass start
//!    (ties to the earliest). The chosen starts are fixed intervals, so
//!    machines = maximum overlap, assigned by the interval sweep.
//!
//! This is a heuristic in our integer-tick setting (the candidate set and
//! the deterministic rounding lose the randomized guarantee's polylog
//! factor), so — like [`crate::GreedyMm`] — its quality is *measured*
//! against the exact solver in tests and experiments rather than assumed.

use crate::problem::{MachineMinimizer, MmError, MmPlacement, MmSchedule};
use ise_model::{Job, Time};
use ise_simplex::{solve, Cmp, LinearProgram, SolveOptions, SolveStatus};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// LP-rounding machine minimizer.
#[derive(Clone, Debug, Default)]
pub struct LpRoundMm {
    /// LP solver options.
    pub lp: SolveOptions,
}

impl MachineMinimizer for LpRoundMm {
    fn name(&self) -> &'static str {
        "lp-round"
    }

    fn minimize(&self, jobs: &[Job]) -> Result<MmSchedule, MmError> {
        if jobs.is_empty() {
            return Ok(MmSchedule::default());
        }
        // Event points: all releases and deadlines.
        let mut events: Vec<Time> = jobs.iter().flat_map(|j| [j.release, j.deadline]).collect();
        events.sort_unstable();
        events.dedup();

        // Candidate starts per job.
        let candidates: Vec<Vec<Time>> = jobs
            .iter()
            .map(|j| {
                let mut c: Vec<Time> = vec![j.release, j.latest_start()];
                for &e in &events {
                    if e >= j.release && e <= j.latest_start() {
                        c.push(e);
                    }
                    // Ending exactly at an event is also a useful start.
                    let back = e - j.proc;
                    if back >= j.release && back <= j.latest_start() {
                        c.push(back);
                    }
                }
                c.sort_unstable();
                c.dedup();
                c
            })
            .collect();

        let (lp, z) = start_time_lp(jobs, &events, &candidates);
        let sol = solve(&lp, &self.lp).map_err(|_| MmError::BudgetExceeded { budget: 0 })?;
        if sol.status != SolveStatus::Optimal {
            // The LP is always feasible (one job per machine), so anything
            // else is numerical trouble; fall back to the trivial schedule.
            return Ok(crate::problem::one_machine_per_job(jobs));
        }

        // Derandomized rounding: max-mass start per job.
        let starts: Vec<Time> = candidates
            .iter()
            .zip(&z)
            .map(|(cand, vars)| {
                let (mut best_s, mut best_v) = (cand[0], f64::NEG_INFINITY);
                for (&s, &v) in cand.iter().zip(vars) {
                    let mass = sol.x[v];
                    if mass > best_v + 1e-12 {
                        best_v = mass;
                        best_s = s;
                    }
                }
                best_s
            })
            .collect();

        // Interval sweep: machines = max overlap of the fixed executions.
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_unstable_by_key(|&j| (starts[j], jobs[j].id));
        let mut busy: BinaryHeap<Reverse<(Time, usize)>> = BinaryHeap::new();
        let mut free: Vec<usize> = Vec::new();
        let mut machines = 0usize;
        let mut placements = Vec::with_capacity(jobs.len());
        for j in order {
            while let Some(&Reverse((end, m))) = busy.peek() {
                if end <= starts[j] {
                    busy.pop();
                    free.push(m);
                } else {
                    break;
                }
            }
            let machine = free.pop().unwrap_or_else(|| {
                machines += 1;
                machines - 1
            });
            placements.push(MmPlacement {
                job: jobs[j].id,
                machine,
                start: starts[j],
            });
            busy.push(Reverse((starts[j] + jobs[j].proc, machine)));
        }
        placements.sort_unstable_by_key(|p| p.job);
        Ok(MmSchedule {
            machines,
            placements,
        })
    }
}

/// The start-time LP over `candidates`: variable 0 is the machine count
/// `w`, and `z[j][k]` is the LP variable of job `j` starting at
/// `candidates[j][k]`.
fn start_time_lp(
    jobs: &[Job],
    events: &[Time],
    candidates: &[Vec<Time>],
) -> (LinearProgram, Vec<Vec<usize>>) {
    let mut lp = LinearProgram::new();
    let w = lp.add_var(1.0);
    let z: Vec<Vec<usize>> = candidates
        .iter()
        .map(|starts| starts.iter().map(|_| lp.add_var(0.0)).collect())
        .collect();
    for vars in &z {
        lp.add_row(vars.iter().map(|&v| (v, 1.0)), Cmp::Eq, 1.0);
    }
    // Load constraint at every event time (loads change only there and
    // at candidate starts; include both). A load set that recurs — a job
    // entering and leaving between two checks — is emitted once, at its
    // first check.
    let mut checks: Vec<Time> = events.to_vec();
    checks.extend(candidates.iter().flatten().copied());
    checks.sort_unstable();
    checks.dedup();
    let mut emitted: HashSet<Vec<usize>> = HashSet::new();
    for &t in &checks {
        let mut active: Vec<usize> = Vec::new();
        for (j, starts) in candidates.iter().enumerate() {
            for (si, &s) in starts.iter().enumerate() {
                if s <= t && t < s + jobs[j].proc {
                    active.push(z[j][si]);
                }
            }
        }
        if active.is_empty() || emitted.contains(&active) {
            continue;
        }
        let coeffs = active.iter().map(|&v| (v, 1.0)).chain([(w, -1.0)]);
        lp.add_row(coeffs, Cmp::Le, 0.0);
        emitted.insert(active);
    }
    (lp, z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower_bound::preemptive_lower_bound;
    use crate::problem::validate_mm;
    use crate::ExactMm;

    #[test]
    fn empty_and_single() {
        assert_eq!(LpRoundMm::default().minimize(&[]).unwrap().machines, 0);
        let jobs = vec![Job::new(0, 0, 10, 5)];
        let s = LpRoundMm::default().minimize(&jobs).unwrap();
        assert_eq!(s.machines, 1);
        validate_mm(&jobs, &s).unwrap();
    }

    #[test]
    fn chainable_jobs_share_a_machine() {
        let jobs = vec![
            Job::new(0, 0, 6, 3),
            Job::new(1, 0, 10, 3),
            Job::new(2, 4, 14, 3),
        ];
        let s = LpRoundMm::default().minimize(&jobs).unwrap();
        validate_mm(&jobs, &s).unwrap();
        assert_eq!(s.machines, 1, "{s:?}");
    }

    #[test]
    fn tight_burst_forces_parallelism() {
        let jobs: Vec<Job> = (0..4).map(|i| Job::new(i, 0, 6, 3)).collect();
        let s = LpRoundMm::default().minimize(&jobs).unwrap();
        validate_mm(&jobs, &s).unwrap();
        assert_eq!(s.machines, 2);
    }

    #[test]
    fn stays_close_to_exact_on_random_instances() {
        let mut state = 0x1234_5678_9abc_def1u64;
        let mut rand = move |m: i64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as i64).rem_euclid(m)
        };
        let mut lp_total = 0usize;
        let mut exact_total = 0usize;
        for _ in 0..15 {
            let n = 4 + rand(5) as usize;
            let jobs: Vec<Job> = (0..n)
                .map(|i| {
                    let r = rand(12);
                    let p = 1 + rand(5);
                    Job::new(i as u32, r, r + p + rand(8), p)
                })
                .collect();
            let lp = LpRoundMm::default().minimize(&jobs).unwrap();
            let exact = ExactMm::default().minimize(&jobs).unwrap();
            validate_mm(&jobs, &lp).unwrap();
            assert!(lp.machines >= exact.machines);
            assert!(lp.machines >= preemptive_lower_bound(&jobs));
            lp_total += lp.machines;
            exact_total += exact.machines;
        }
        assert!(
            lp_total <= 2 * exact_total,
            "lp-round {lp_total} vs exact {exact_total}: more than 2x off"
        );
    }

    #[test]
    fn recurring_load_set_is_emitted_once() {
        // Job 1 starts and ends inside job 0's only execution, so the load
        // set {job 0} of t = 0 recurs at t = 5, after {job 0, job 1} at
        // t = 3; it is not adjacent to its first occurrence.
        let jobs = vec![Job::new(0, 0, 10, 10), Job::new(1, 3, 5, 2)];
        let events = [0, 3, 5, 10].map(Time);
        let candidates = vec![vec![Time(0)], vec![Time(3)]];
        let (lp, _) = start_time_lp(&jobs, &events, &candidates);
        // Two assignment rows, then the loads at t = 0 and t = 3.
        assert_eq!(lp.num_rows(), 4);
        let s = LpRoundMm::default().minimize(&jobs).unwrap();
        validate_mm(&jobs, &s).unwrap();
        assert_eq!(s.machines, 2);
    }

    #[test]
    fn respects_windows_always() {
        let jobs = vec![Job::new(0, 5, 11, 6), Job::new(1, 0, 30, 4)];
        let s = LpRoundMm::default().minimize(&jobs).unwrap();
        validate_mm(&jobs, &s).unwrap();
        let p0 = s
            .placements
            .iter()
            .find(|p| p.job == ise_model::JobId(0))
            .unwrap();
        assert_eq!(p0.start, Time(5), "zero-slack job start is forced");
    }
}
