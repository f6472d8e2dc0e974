//! The pinned incremental-session suite behind `ise bench`.
//!
//! A fixed 50-commit delta log (a pure function of the pinned spec, so it
//! is reproducible byte for byte) replays twice: once through
//! [`ise_session::Session`] with full reuse, and once as 50 independent
//! from-scratch solves of the same materialized instances. The report
//! records ns-per-commit for both paths, total LP iterations for both
//! paths, and the per-commit calibration fingerprint. Results serialize to
//! `BENCH_session.json` at the repo root; [`compare_session`] diffs a
//! fresh run against that committed baseline with the same generous
//! threshold the LP suite uses, and additionally gates two same-run
//! comparisons:
//!
//! * the *reuse ratio*: the incremental path must keep reporting at least
//!   [`MIN_ITER_RATIO`]× fewer total LP iterations than from-scratch;
//! * the *commit cost*: `ns_per_commit_incremental` must be below the same
//!   run's `ns_per_commit_scratch`. Both figures come from one run on one
//!   machine, so this gate does not depend on the hardware that pinned the
//!   baseline.
//!
//! Timing replays the whole log per rep (a commit cannot be re-measured in
//! isolation — reuse state is the point) and takes min-of-reps totals.
//! Iteration counts and calibration fingerprints are deterministic.

use ise_model::Instance;
use ise_sched::{solve, SolverOptions};
use ise_session::{Delta, Session, Verdict};
use ise_workloads::{uniform, WorkloadParams};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Schema version of [`SessionBenchReport`]; bump when fields change
/// meaning.
pub const SESSION_BENCH_VERSION: u32 = 1;

/// Minimum total-LP-iteration advantage the incremental path must keep
/// over from-scratch on the pinned log (`scratch / incremental`).
pub const MIN_ITER_RATIO: f64 = 2.0;

/// The pinned session workload: base-instance generator parameters plus
/// the commit count of the derived delta log.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq, Eq)]
pub struct SessionSpec {
    /// Stable name used to match runs against the baseline.
    pub name: String,
    /// Jobs in the base instance.
    pub jobs: usize,
    /// Machines in the base instance.
    pub machines: usize,
    /// Calibration length `T`.
    pub calib_len: i64,
    /// Release-time horizon of the base instance.
    pub horizon: i64,
    /// Generator seed for the base instance.
    pub seed: u64,
    /// Commits in the derived delta log (including the opening commit).
    pub commits: usize,
}

/// The pinned suite spec.
pub fn session_spec() -> SessionSpec {
    SessionSpec {
        name: "session_mixed".to_string(),
        jobs: 30,
        machines: 2,
        calib_len: 10,
        horizon: 200,
        seed: 23,
        commits: 50,
    }
}

impl SessionSpec {
    /// Materialize the base instance this spec pins.
    pub fn instance(&self) -> Instance {
        uniform(
            &WorkloadParams {
                jobs: self.jobs,
                machines: self.machines,
                calib_len: self.calib_len,
                horizon: self.horizon,
            },
            self.seed,
        )
    }

    /// The pinned delta log: one batch per commit after the opening one.
    ///
    /// The mix is reuse-heavy on purpose — machine-budget toggles (basis
    /// tier) and single-job add/remove churn (warm tier), with one
    /// structural window shift mid-log (cold tier) — because the suite
    /// exists to gate the reuse machinery, and a cold-dominated log would
    /// measure the plain solver twice.
    pub fn delta_log(&self) -> Vec<Delta> {
        let t = self.calib_len;
        let mut log = Vec::new();
        for i in 1..self.commits {
            log.push(match i % 5 {
                0 => Delta::SetMachines(self.machines + 1),
                1 => Delta::SetMachines(self.machines),
                2 => Delta::AddJobs(vec![(
                    (i as i64 * 7) % self.horizon,
                    (i as i64 * 7) % self.horizon + t + (i as i64 % t),
                    1 + (i as i64 % t),
                )]),
                3 => Delta::SetMachines(self.machines + 2),
                // One structural (cold) commit mid-log; this arm only sees
                // i % 5 == 4, so the index must too.
                _ if i == 24 => Delta::ShiftWindows(2 * t),
                _ => Delta::RemoveJobs(vec![(i * 13) % self.jobs]),
            });
        }
        log
    }
}

/// Deterministic per-commit record (no timing).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CommitRecord {
    /// Reuse tier the session reported (`basis`/`warm`/`cold`).
    pub tier: String,
    /// LP iterations the incremental commit spent.
    pub incremental_iters: usize,
    /// LP iterations the from-scratch solve of the same instance spent.
    pub scratch_iters: usize,
    /// Calibration count (`0` encodes an infeasible verdict — the wire
    /// format has no optional integers).
    pub calibrations: usize,
}

/// The full session suite result, serialized to `BENCH_session.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SessionBenchReport {
    /// Schema version ([`SESSION_BENCH_VERSION`]).
    pub version: u32,
    /// The pinned workload.
    pub spec: SessionSpec,
    /// Min-of-reps wall time per commit, incremental path.
    pub ns_per_commit_incremental: u64,
    /// Min-of-reps wall time per commit, from-scratch path.
    pub ns_per_commit_scratch: u64,
    /// Total LP iterations across the log, incremental path.
    pub total_incremental_iters: usize,
    /// Total LP iterations across the log, from-scratch path.
    pub total_scratch_iters: usize,
    /// `total_scratch_iters / total_incremental_iters`.
    pub iteration_ratio: f64,
    /// Commits per reuse tier, `[basis, warm, cold]`.
    pub tier_counts: Vec<u64>,
    /// Per-commit deterministic fingerprint.
    pub commits: Vec<CommitRecord>,
}

/// Replay the pinned log once, recording tiers, iterations, calibration
/// fingerprints, and the materialized instance at every commit.
fn audit_replay(spec: &SessionSpec) -> Result<(Vec<CommitRecord>, Vec<Instance>), String> {
    let mut session = Session::open(spec.instance());
    let log = spec.delta_log();
    let mut records = Vec::new();
    let mut instances = Vec::new();
    for i in 0..spec.commits {
        if i > 0 {
            session
                .apply(&log[i - 1])
                .map_err(|e| format!("commit {i}: pinned delta rejected: {e}"))?;
        }
        let materialized = session.instance().clone();
        let commit = session.commit().map_err(|e| format!("commit {i}: {e}"))?;
        let scratch = solve(&materialized, &SolverOptions::default());
        let scratch_iters = match &scratch {
            Ok(out) => out.long.as_ref().map_or(0, |l| l.fractional.iterations),
            Err(_) => 0,
        };
        let calibrations = match &commit.verdict {
            Verdict::Feasible { schedule, .. } => schedule.num_calibrations(),
            Verdict::Infeasible { .. } => 0,
        };
        records.push(CommitRecord {
            tier: commit.telemetry.tier.as_str().to_string(),
            incremental_iters: commit.telemetry.lp_iterations,
            scratch_iters,
            calibrations,
        });
        instances.push(materialized);
    }
    Ok((records, instances))
}

/// Min-of-reps total wall time of one full incremental replay.
fn time_incremental(spec: &SessionSpec, reps: usize) -> Result<u64, String> {
    let log = spec.delta_log();
    let mut best = u64::MAX;
    for _ in 0..reps.max(1) {
        let mut session = Session::open(spec.instance());
        let mut total = 0u64;
        for i in 0..spec.commits {
            if i > 0 {
                session
                    .apply(&log[i - 1])
                    .map_err(|e| format!("commit {i}: {e}"))?;
            }
            let started = Instant::now();
            session.commit().map_err(|e| format!("commit {i}: {e}"))?;
            total += started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        }
        best = best.min(total);
    }
    Ok(best)
}

/// Min-of-reps total wall time of solving every materialized instance
/// from scratch.
fn time_scratch(instances: &[Instance], reps: usize) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..reps.max(1) {
        let mut total = 0u64;
        for instance in instances {
            let started = Instant::now();
            let _ = solve(instance, &SolverOptions::default());
            total += started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        }
        best = best.min(total);
    }
    best
}

/// Run the session suite: audit replay for the deterministic fingerprint,
/// then timed replays of both paths.
pub fn run_session_suite(reps: usize) -> Result<SessionBenchReport, String> {
    let spec = session_spec();
    let (commits, instances) = audit_replay(&spec)?;
    let incremental_ns = time_incremental(&spec, reps)?;
    let scratch_ns = time_scratch(&instances, reps);
    let n = spec.commits.max(1) as u64;
    let total_incremental_iters: usize = commits.iter().map(|c| c.incremental_iters).sum();
    let total_scratch_iters: usize = commits.iter().map(|c| c.scratch_iters).sum();
    let mut tier_counts = vec![0u64; 3];
    for c in &commits {
        let slot = match c.tier.as_str() {
            "basis" => 0,
            "warm" => 1,
            _ => 2,
        };
        tier_counts[slot] += 1;
    }
    Ok(SessionBenchReport {
        version: SESSION_BENCH_VERSION,
        spec,
        ns_per_commit_incremental: incremental_ns / n,
        ns_per_commit_scratch: scratch_ns / n,
        total_incremental_iters,
        total_scratch_iters,
        iteration_ratio: total_scratch_iters as f64 / (total_incremental_iters.max(1) as f64),
        tier_counts,
        commits,
    })
}

/// Compare a fresh session run against the committed baseline. Returns
/// one message per regression, empty when clean.
pub fn compare_session(
    current: &SessionBenchReport,
    baseline: &SessionBenchReport,
    threshold: f64,
) -> Vec<String> {
    let mut problems = Vec::new();
    let name = current.spec.name.as_str();
    if current.spec != baseline.spec {
        problems.push(format!("{name}: spec differs from baseline"));
        return problems;
    }
    let time_limit = (baseline.ns_per_commit_incremental as f64) * threshold;
    if (current.ns_per_commit_incremental as f64) > time_limit {
        problems.push(format!(
            "{name}: {} ns/commit incremental exceeds {threshold}x baseline ({} ns)",
            current.ns_per_commit_incremental, baseline.ns_per_commit_incremental
        ));
    }
    if current.ns_per_commit_incremental >= current.ns_per_commit_scratch {
        problems.push(format!(
            "{name}: {} ns/commit incremental is not below the same run's {} ns/commit \
             from scratch",
            current.ns_per_commit_incremental, current.ns_per_commit_scratch
        ));
    }
    let iter_limit = (baseline.total_incremental_iters as f64) * threshold;
    if (current.total_incremental_iters as f64) > iter_limit {
        problems.push(format!(
            "{name}: {} incremental LP iterations exceeds {threshold}x baseline ({})",
            current.total_incremental_iters, baseline.total_incremental_iters
        ));
    }
    if current.iteration_ratio < MIN_ITER_RATIO {
        problems.push(format!(
            "{name}: reuse ratio {:.2}x fell below the required {MIN_ITER_RATIO}x \
             ({} incremental vs {} scratch LP iterations)",
            current.iteration_ratio, current.total_incremental_iters, current.total_scratch_iters
        ));
    }
    let fingerprint = |r: &SessionBenchReport| -> Vec<usize> {
        r.commits.iter().map(|c| c.calibrations).collect()
    };
    if fingerprint(current) != fingerprint(baseline) {
        problems.push(format!(
            "{name}: per-commit calibration fingerprint drifted from baseline \
             (deterministic output changed)"
        ));
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_suite_measures_and_roundtrips() {
        let report = run_session_suite(1).unwrap();
        assert_eq!(report.version, SESSION_BENCH_VERSION);
        assert_eq!(report.commits.len(), report.spec.commits);
        // The pinned log mix: 29 basis commits, 19 warm, 2 cold (the
        // opening commit plus the mid-log window shift).
        assert_eq!(report.tier_counts, vec![29, 19, 2]);
        let json = serde_json::to_string(&report).unwrap();
        let back: SessionBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.commits.len(), report.commits.len());
        assert!(compare_session(&report, &report, 2.0).is_empty());
    }

    #[test]
    fn incremental_replay_saves_at_least_2x_lp_iterations() {
        let report = run_session_suite(1).unwrap();
        assert!(
            report.iteration_ratio >= MIN_ITER_RATIO,
            "reuse ratio {:.2}x below {MIN_ITER_RATIO}x ({} incremental vs {} scratch)",
            report.iteration_ratio,
            report.total_incremental_iters,
            report.total_scratch_iters
        );
    }

    #[test]
    fn compare_session_flags_ratio_and_time_regressions() {
        let report = run_session_suite(1).unwrap();
        let mut bad = report.clone();
        bad.ns_per_commit_incremental = report.ns_per_commit_incremental * 10 + 1;
        bad.iteration_ratio = 1.0;
        // Ten times slower than the baseline is also slower than the same
        // run's from-scratch path, so the same-run gate trips too.
        let problems = compare_session(&bad, &report, 2.0);
        assert_eq!(problems.len(), 3, "{problems:?}");
    }

    #[test]
    fn same_run_gate_needs_incremental_below_scratch() {
        let timed = |incremental: u64, scratch: u64| SessionBenchReport {
            version: SESSION_BENCH_VERSION,
            spec: session_spec(),
            ns_per_commit_incremental: incremental,
            ns_per_commit_scratch: scratch,
            total_incremental_iters: 100,
            total_scratch_iters: 600,
            iteration_ratio: 6.0,
            tier_counts: vec![29, 19, 2],
            commits: Vec::new(),
        };
        // Each report is its own baseline, so only the same-run gate can
        // fire.
        let slow = timed(6_510_000, 4_430_000);
        let problems = compare_session(&slow, &slow, 2.0);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("not below"), "{problems:?}");
        let tie = timed(4_430_000, 4_430_000);
        assert_eq!(compare_session(&tie, &tie, 2.0).len(), 1);
        let fast = timed(1_690_000, 3_830_000);
        assert!(compare_session(&fast, &fast, 2.0).is_empty());
    }

    #[test]
    fn delta_log_is_pinned() {
        let spec = session_spec();
        assert_eq!(spec.delta_log(), spec.delta_log());
        assert_eq!(spec.delta_log().len(), spec.commits - 1);
        assert_eq!(spec.instance(), spec.instance());
    }
}
