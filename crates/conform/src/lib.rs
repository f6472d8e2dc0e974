//! # ise-conform — differential conformance harness
//!
//! The solver stack has many redundant ways to compute the same answer:
//! LU vs eta-file simplex, warm vs cold bases, the batch engine vs a
//! direct call, the approximation pipeline vs exhaustive search, plus the
//! paper's own budgets (Theorem 12, Lemma 2, the lower-bound lattice).
//! This crate turns that redundancy into a test oracle: generate seeded
//! adversarial instances, run every path, and flag any disagreement that
//! the theory says cannot happen.
//!
//! The pieces:
//!
//! * [`oracle`] — the cross-check stack ([`Oracle`], [`check_instance`]).
//! * [`shrink`] — greedy delta-debugging minimizer for failing instances.
//! * [`corpus`] — JSON repro emit + replay (`ise fuzz --replay`).
//! * [`fuzz`] — the driver loop tying generation, checking, and shrinking
//!   together; the `ise fuzz` CLI is a thin wrapper around it.
//!
//! Case generation lives in `ise_workloads::adversarial_case`, shared with
//! the property tests, so a seed printed by the fuzzer reproduces the same
//! instance everywhere.

pub mod corpus;
pub mod oracle;
pub mod shrink;

pub use corpus::{load_corpus, replay, write_repro, ReplayReport, Repro, REPRO_SCHEMA};
pub use oracle::{check_instance, Discrepancy, Oracle, OracleOptions};
pub use shrink::{shrink, ShrinkReport};

use ise_workloads::{adversarial_case, family_case, WorkloadFamily, WorkloadParams};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Per-case seed derivation: a splitmix64 step over (run seed, case index)
/// so neighbouring cases are uncorrelated and any single case can be
/// re-run in isolation from just the pair printed in the report.
pub fn case_seed(run_seed: u64, case: u64) -> u64 {
    let mut z = run_seed
        .wrapping_add(case.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Configuration for a fuzz run.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Run seed; every case seed derives from it via [`case_seed`].
    pub seed: u64,
    /// Number of cases to attempt (the run may stop earlier on a
    /// discrepancy or on the time budget).
    pub cases: u64,
    /// Upper bound on jobs per generated case.
    pub max_jobs: usize,
    /// Upper bound on machines per generated case.
    pub max_machines: usize,
    /// Upper bound on the calibration length `T`.
    pub max_calib_len: i64,
    /// Upper bound on the generator horizon.
    pub max_horizon: i64,
    /// Which oracles to run.
    pub oracles: Vec<Oracle>,
    /// Pin case generation to one workload family (`None` draws from the
    /// full adversarial mix, including the Partition-hard construction).
    pub family: Option<WorkloadFamily>,
    /// Wall-clock budget; `None` runs all `cases`.
    pub time_budget: Option<Duration>,
    /// Shrink discrepancies before reporting (disable for raw triage).
    pub shrink: bool,
    /// Max failure-closure evaluations the shrinker may spend.
    pub shrink_evals: usize,
    /// Write the minimized repro into this corpus directory.
    pub corpus_dir: Option<PathBuf>,
    /// Oracle tuning knobs.
    pub oracle_opts: OracleOptions,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            seed: 0,
            cases: 200,
            max_jobs: 12,
            max_machines: 4,
            max_calib_len: 12,
            max_horizon: 120,
            oracles: Oracle::ALL.to_vec(),
            family: None,
            time_budget: None,
            shrink: true,
            shrink_evals: 4_000,
            corpus_dir: None,
            oracle_opts: OracleOptions::default(),
        }
    }
}

/// A discrepancy found by [`fuzz`], with its minimized witness.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// The repro record (also written to the corpus when configured).
    pub repro: Repro,
    /// Path the repro was written to, when a corpus dir was configured.
    pub written_to: Option<PathBuf>,
    /// Shrinker evaluations spent minimizing the witness.
    pub shrink_evals: usize,
    /// Job count before shrinking.
    pub original_jobs: usize,
}

/// Summary of a fuzz run.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// Cases actually executed.
    pub cases_run: u64,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// The first discrepancy, if any (the run stops at the first).
    pub failure: Option<FuzzFailure>,
    /// True when the run stopped on the time budget.
    pub timed_out: bool,
}

impl FuzzReport {
    /// True when every executed case passed every oracle.
    pub fn all_clean(&self) -> bool {
        self.failure.is_none()
    }
}

/// Run the fuzz loop: generate, check, and on the first discrepancy
/// shrink + record. `progress` is called after every clean case (the CLI
/// uses it for a heartbeat; pass `|_| ()` to ignore).
pub fn fuzz(config: &FuzzConfig, mut progress: impl FnMut(u64)) -> FuzzReport {
    let start = Instant::now();
    let params = WorkloadParams {
        jobs: config.max_jobs,
        machines: config.max_machines,
        calib_len: config.max_calib_len,
        horizon: config.max_horizon,
    };
    let mut cases_run = 0u64;
    let mut timed_out = false;

    for case in 0..config.cases {
        if let Some(budget) = config.time_budget {
            if start.elapsed() >= budget {
                timed_out = true;
                break;
            }
        }
        let seed = case_seed(config.seed, case);
        let (instance, provenance) = match config.family {
            Some(family) => family_case(family, &params, seed),
            None => adversarial_case(&params, seed),
        };
        let mut opts = config.oracle_opts.clone();
        opts.meta_seed = seed;
        cases_run += 1;
        let Err(first) = check_instance(&instance, &config.oracles, &opts) else {
            progress(case);
            continue;
        };

        // Shrink against "the same oracle still reports a discrepancy".
        // Anchoring on the oracle (not the exact message) keeps the
        // failure class stable while the detail text changes with size.
        let (minimized, evals) = if config.shrink {
            let anchor = first.oracle;
            let report = shrink::shrink(
                &instance,
                |cand| {
                    check_instance(cand, std::slice::from_ref(&anchor), &opts)
                        .err()
                        .map(|d| d.oracle == anchor)
                        .unwrap_or(false)
                },
                config.shrink_evals,
            );
            (report.instance, report.evals)
        } else {
            (instance.clone(), 0)
        };

        // Re-derive the detail from the minimized instance so the repro
        // text matches its own contents.
        let final_detail = match check_instance(&minimized, &config.oracles, &opts) {
            Err(d) if d.oracle == first.oracle => d.detail,
            Err(d) => d.to_string(),
            Ok(()) => first.detail.clone(),
        };

        let repro = Repro {
            schema: REPRO_SCHEMA,
            oracle: first.oracle.name().to_string(),
            detail: final_detail,
            provenance,
            seed: config.seed,
            case,
            jobs: minimized.len(),
            instance: minimized,
        };
        let written_to = config
            .corpus_dir
            .as_deref()
            .and_then(|dir| write_repro(dir, &repro).ok());
        return FuzzReport {
            cases_run,
            elapsed: start.elapsed(),
            failure: Some(FuzzFailure {
                original_jobs: instance.len(),
                repro,
                written_to,
                shrink_evals: evals,
            }),
            timed_out: false,
        };
    }

    FuzzReport {
        cases_run,
        elapsed: start.elapsed(),
        failure: None,
        timed_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seed_is_deterministic_and_spreads() {
        assert_eq!(case_seed(1, 2), case_seed(1, 2));
        assert_ne!(case_seed(1, 2), case_seed(1, 3));
        assert_ne!(case_seed(1, 2), case_seed(2, 2));
    }

    #[test]
    fn small_clean_run_passes_all_oracles() {
        let config = FuzzConfig {
            seed: 0xC0FFEE,
            cases: 12,
            max_jobs: 6,
            max_machines: 2,
            max_calib_len: 8,
            max_horizon: 60,
            ..FuzzConfig::default()
        };
        let report = fuzz(&config, |_| ());
        assert_eq!(report.cases_run, 12);
        if let Some(f) = &report.failure {
            panic!(
                "unexpected discrepancy: {} ({:?})",
                f.repro.detail, f.repro.instance
            );
        }
    }

    #[test]
    fn family_pinned_run_passes_all_oracles() {
        let config = FuzzConfig {
            seed: 0xBAD_1C0,
            cases: 8,
            family: Some(WorkloadFamily::IllConditioned),
            ..FuzzConfig::default()
        };
        let report = fuzz(&config, |_| ());
        assert_eq!(report.cases_run, 8);
        if let Some(f) = &report.failure {
            panic!(
                "unexpected discrepancy: {} ({:?})",
                f.repro.detail, f.repro.instance
            );
        }
    }

    #[test]
    fn time_budget_stops_the_run() {
        let config = FuzzConfig {
            seed: 7,
            cases: u64::MAX,
            time_budget: Some(Duration::from_millis(50)),
            ..FuzzConfig::default()
        };
        let report = fuzz(&config, |_| ());
        assert!(report.timed_out);
        assert!(report.cases_run < u64::MAX);
    }
}
