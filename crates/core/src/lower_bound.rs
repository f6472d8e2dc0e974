//! Certified lower bounds on the optimal number of calibrations.
//!
//! Experiments report approximation ratios against these bounds (so every
//! reported ratio is an *upper bound* on the true ratio):
//!
//! * **work** — each calibration supplies at most `T` work, so at least
//!   `⌈Σ p_j / T⌉` calibrations are needed;
//! * **interval** (Lemma 17/18) — jobs nested in alternating disjoint
//!   length-`2γT` intervals cannot share calibrations, so summing the
//!   per-interval machine-minimization lower bounds and halving is a valid
//!   bound; we evaluate both offsets and take the better;
//! * **LP** — for the long-window subset, any ISE schedule on `m` machines
//!   induces (via Lemma 2) a TISE schedule on `3m` machines with at most
//!   `3×` the calibrations, and every TISE schedule is LP-feasible, so
//!   `⌈LP(3m)/3⌉` lower-bounds the ISE optimum.
//!
//! `LP(3m)` is exactly the LP the long-window pipeline solves: the same
//! long jobs, in the same order, on the same `3m` budget. So
//! [`solved_lower_bound`] takes the LP term from a finished solve.
//! [`lower_bound`] builds and solves the LP from cold. It serves callers
//! that have no solve, such as `ise bounds`, and the conformance oracles,
//! which use it to check the reused term.

use crate::lp::{relax_and_solve, FractionalSolution};
use crate::short_window::GAMMA;
use crate::solver::SolveOutcome;
use ise_mm::preemptive_lower_bound;
use ise_model::{Instance, Job, Time};
use ise_simplex::SolveOptions;

/// The individual bounds and their maximum.
#[derive(Clone, Debug, PartialEq)]
pub struct LowerBoundReport {
    /// `⌈total work / T⌉`.
    pub work: u64,
    /// Lemma 18 interval bound (best of the two offsets).
    pub interval: u64,
    /// LP-based bound from the long-window subset, if the LP solved.
    pub lp_long: Option<u64>,
    /// The maximum of all available bounds.
    pub best: u64,
}

/// Compute all calibration lower bounds for `instance`, solving the
/// long-window LP from cold.
pub fn lower_bound(instance: &Instance, lp_opts: &SolveOptions) -> LowerBoundReport {
    with_lp_term(instance, lp_bound(instance, lp_opts))
}

/// [`lower_bound`] for a finished solve of `instance`: the LP term comes
/// from the `LP(3m)` the long-window pipeline already solved, so no LP is
/// solved again. Outcomes that did not solve the instance's own `LP(3m)`
/// fall back to [`lower_bound`]: a speed-augmented solve ran on a refined
/// instance, and a decomposed solve keeps no long-window sub-result.
pub fn solved_lower_bound(instance: &Instance, outcome: &SolveOutcome) -> LowerBoundReport {
    match &outcome.long {
        Some(long) if outcome.schedule.speed == 1 => {
            with_lp_term(instance, Some(lp_term(&long.fractional)))
        }
        _ => lower_bound(instance, &Default::default()),
    }
}

/// The work and interval bounds of `instance` joined with a given LP term.
fn with_lp_term(instance: &Instance, lp_long: Option<u64>) -> LowerBoundReport {
    let work = instance.work_lower_bound();
    let interval = interval_bound(instance);
    let best = work.max(interval).max(lp_long.unwrap_or(0));
    LowerBoundReport {
        work,
        interval,
        lp_long,
        best,
    }
}

/// Lemma 17/18: for each offset `τ ∈ {0, γT}`, group jobs nested in
/// intervals `[τ + 2iγT, τ + 2(i+1)γT)` and sum the per-interval MM lower
/// bounds; half the sum bounds the calibration optimum.
fn interval_bound(instance: &Instance) -> u64 {
    let t_len = instance.calib_len();
    let interval_len = t_len * (2 * GAMMA);
    let mut best = 0u64;
    for offset_mult in [0, GAMMA] {
        let anchor = Time::ZERO + t_len * offset_mult;
        let mut groups: std::collections::BTreeMap<i64, Vec<Job>> =
            std::collections::BTreeMap::new();
        for &job in instance.jobs() {
            let k = (job.release - anchor)
                .ticks()
                .div_euclid(interval_len.ticks());
            let start = anchor + interval_len * k;
            if job.deadline <= start + interval_len {
                groups.entry(k).or_default().push(job);
            }
        }
        let total: u64 = groups
            .values()
            .map(|jobs| preemptive_lower_bound(jobs) as u64)
            .sum();
        best = best.max(total / 2 + total % 2); // ceil(total / 2)
    }
    best
}

/// LP bound on the long-window subset: `⌈LP(3m)/3⌉` (with a small float
/// guard). `None` if there are no long jobs or the LP failed.
fn lp_bound(instance: &Instance, lp_opts: &SolveOptions) -> Option<u64> {
    let (long_jobs, _) = instance.partition_long_short();
    if long_jobs.is_empty() {
        return None;
    }
    let sol = relax_and_solve(
        &long_jobs,
        instance.calib_len(),
        3 * instance.machines(),
        lp_opts,
    )
    .ok()?;
    Some(lp_term(&sol))
}

/// `⌈LP(3m)/3⌉` from a solved `LP(3m)`, with a small float guard.
fn lp_term(sol: &FractionalSolution) -> u64 {
    // Prefer the dual certificate (a true lower bound on the LP optimum by
    // weak duality, independent of solver behaviour); fall back to the
    // primal objective only when no certificate is available.
    let lp_value = sol.certified_dual_bound.unwrap_or(sol.objective);
    ((lp_value / 3.0) - 1e-6).ceil().max(0.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> SolveOptions {
        SolveOptions::default()
    }

    #[test]
    fn work_bound_dominates_tiny_cases() {
        let inst = Instance::new([(0, 40, 7), (0, 40, 7), (0, 40, 7)], 1, 10).unwrap();
        let report = lower_bound(&inst, &opts());
        assert_eq!(report.work, 3);
        assert!(report.best >= 3);
    }

    #[test]
    fn interval_bound_sees_separated_bursts() {
        // Two bursts of tight short jobs ~200 ticks apart (T = 10,
        // interval length 40): each needs 2 machines, so >= (2+2)/2 = 2.
        let inst = Instance::new(
            [(0, 10, 10), (0, 10, 10), (200, 210, 10), (200, 210, 10)],
            2,
            10,
        )
        .unwrap();
        let report = lower_bound(&inst, &opts());
        assert!(report.interval >= 2, "interval bound {}", report.interval);
        // Work bound alone already gives 4 here; check both.
        assert_eq!(report.work, 4);
        assert!(report.best >= 4);
    }

    #[test]
    fn lp_bound_counts_separated_long_bursts() {
        // Two single long jobs far apart: work bound is 1, but the LP knows
        // they cannot share a calibration... after division by 3 it only
        // certifies 1. Check it is present and consistent.
        let inst = Instance::new([(0, 30, 5), (500, 530, 5)], 1, 10).unwrap();
        let report = lower_bound(&inst, &opts());
        assert_eq!(report.lp_long, Some(1));
        assert!(report.best >= 1);
    }

    #[test]
    fn empty_instance_bounds_are_zero() {
        let inst = Instance::new([], 1, 10).unwrap();
        let report = lower_bound(&inst, &opts());
        assert_eq!(report.best, 0);
    }

    #[test]
    fn bounds_never_exceed_a_known_schedule() {
        // A hand-built feasible schedule with 2 calibrations caps every
        // bound at 2.
        let inst = Instance::new([(0, 30, 5), (0, 30, 5), (0, 30, 5), (0, 30, 5)], 2, 10).unwrap();
        // 20 work / T=10 => work bound 2; a 2-calibration schedule exists
        // (two machines, two jobs each).
        let report = lower_bound(&inst, &opts());
        assert!(
            report.best <= 2,
            "bound {} exceeds the known optimum 2",
            report.best
        );
    }
}
