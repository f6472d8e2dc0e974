//! Human-readable solve reports.
//!
//! Aggregates a [`crate::solver::SolveOutcome`] with schedule statistics,
//! certified lower bounds, and the per-pipeline breakdown into one
//! displayable summary — what the examples and the experiment harness
//! print, and what a deployment would log per scheduling run.

use crate::lower_bound::{solved_lower_bound, LowerBoundReport};
use crate::solver::SolveOutcome;
use ise_model::{Instance, ScheduleStats};
use ise_obs::PhaseTimings;
use serde::Serialize;
use std::fmt;

/// LP-solver telemetry for one solve, serialized into engine responses so
/// `ise serve` traffic carries per-request perf data.
///
/// (`PartialEq` only: the residual fields are `f64`.)
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct LpTelemetry {
    /// Simplex iterations across both phases.
    pub iterations: usize,
    /// Basis-representation rebuilds.
    pub refactorizations: usize,
    /// Microseconds spent building the TISE LP.
    pub build_us: u64,
    /// Microseconds spent in the simplex.
    pub solve_us: u64,
    /// Whether the solve was warm-started from a cached basis (phase 1
    /// skipped).
    pub warm_started: bool,
    /// Nonbasic columns whose reduced cost was computed across the solve —
    /// the deterministic measure of total pricing work.
    pub cols_scanned: u64,
    /// Iterations where the devex candidate window produced the entering
    /// column without a wider scan.
    pub window_hits: u64,
    /// Iterations that scanned past the candidate window (every Dantzig or
    /// Bland iteration counts here, as does the terminal optimality wrap).
    pub full_rescans: u64,
    /// Times the anti-cycling switch escalated to Bland's rule.
    pub bland_activations: u64,
    /// Average pivots between basis rebuilds
    /// (`iterations / max(1, refactorizations)`).
    pub pivots_per_refactor: u64,
    /// Residual-monitor checks (`‖B·x_B − b‖∞ / (1 + ‖b‖∞)`) that ran.
    pub residual_checks: u64,
    /// Worst relative residual observed across the solve.
    pub max_residual: f64,
    /// Relative residual of the final check.
    pub last_residual: f64,
    /// Recovery-ladder rung 1 activations (mid-solve refactorization).
    pub recoveries_refactor: u64,
    /// Recovery-ladder rung 2 activations (pivot tolerance raised 100x).
    pub recoveries_tighten: u64,
    /// Recovery-ladder rung 3 activations (Dantzig full pricing).
    pub recoveries_dantzig: u64,
    /// Recovery-ladder rung 4 activations (eta-kernel fallback).
    pub recoveries_eta: u64,
    /// Recovery-ladder rung 5 activations (dense-kernel fallback).
    pub recoveries_dense: u64,
    /// Harris ratio-test pass-2 picks beyond the strict minimum ratio.
    pub harris_relaxations: u64,
    /// Worst LU fill-in (stored `L`+`U` nonzeros) across refactorizations.
    pub lu_fill_nnz: u64,
    /// Forrest–Tomlin pivot updates applied in place of refactorizations.
    pub lu_ft_updates: u64,
    /// FTRAN/BTRAN solves that took the hyper-sparse (reach-walking) path.
    pub lu_sparse_solves: u64,
    /// FTRAN/BTRAN solves that fell back to the dense triangular kernels.
    pub lu_dense_solves: u64,
}

impl LpTelemetry {
    /// Extract telemetry from a solve outcome; `None` when the long-window
    /// pipeline (the only LP user) did not run.
    pub fn from_outcome(outcome: &SolveOutcome) -> Option<LpTelemetry> {
        outcome.long.as_ref().map(|l| LpTelemetry {
            iterations: l.fractional.iterations,
            refactorizations: l.fractional.refactorizations,
            build_us: l.fractional.build_us,
            solve_us: l.fractional.solve_us,
            warm_started: l.fractional.warm_used,
            cols_scanned: l.fractional.pricing.cols_scanned,
            window_hits: l.fractional.pricing.window_hits,
            full_rescans: l.fractional.pricing.full_rescans,
            bland_activations: l.fractional.pricing.bland_activations,
            pivots_per_refactor: l.fractional.iterations as u64
                / (l.fractional.refactorizations.max(1) as u64),
            residual_checks: l.fractional.numerics.residual_checks,
            max_residual: l.fractional.numerics.max_residual,
            last_residual: l.fractional.numerics.last_residual,
            recoveries_refactor: l.fractional.numerics.recoveries_refactor,
            recoveries_tighten: l.fractional.numerics.recoveries_tighten,
            recoveries_dantzig: l.fractional.numerics.recoveries_dantzig,
            recoveries_eta: l.fractional.numerics.recoveries_eta,
            recoveries_dense: l.fractional.numerics.recoveries_dense,
            harris_relaxations: l.fractional.numerics.harris_relaxations,
            lu_fill_nnz: l.fractional.numerics.lu_fill_nnz,
            lu_ft_updates: l.fractional.numerics.lu_ft_updates,
            lu_sparse_solves: l.fractional.numerics.lu_sparse_solves,
            lu_dense_solves: l.fractional.numerics.lu_dense_solves,
        })
    }

    /// Total recovery-ladder activations across all rungs.
    pub fn recoveries_total(&self) -> u64 {
        self.recoveries_refactor
            + self.recoveries_tighten
            + self.recoveries_dantzig
            + self.recoveries_eta
            + self.recoveries_dense
    }
}

/// A complete report on one solve.
#[derive(Clone, Debug)]
pub struct SolveReport {
    /// Schedule statistics (calibrations, machines, utilization, ...).
    pub stats: ScheduleStats,
    /// Certified lower bounds on the calibration optimum.
    pub bounds: LowerBoundReport,
    /// Number of long-window jobs handled by the LP pipeline.
    pub long_jobs: usize,
    /// Number of short-window jobs handled by the MM pipeline.
    pub short_jobs: usize,
    /// LP objective of the long-window relaxation, if that pipeline ran.
    pub lp_objective: Option<f64>,
    /// Total crossing jobs across short-window intervals.
    pub crossing_jobs: usize,
    /// `calibrations / max(1, lower bound)` — upper bound on the true
    /// approximation ratio of this run.
    pub ratio: f64,
    /// LP-solver telemetry, when the long-window pipeline ran.
    pub lp: Option<LpTelemetry>,
    /// Per-phase wall-time breakdown, when the solve ran under an
    /// installed [`ise_obs::Trace`] (see [`SolveReport::with_phases`]).
    pub phases: Option<PhaseTimings>,
}

impl SolveReport {
    /// Build a report for `outcome` on `instance`. The LP lower bound comes
    /// from the LP the solve already ran (see [`solved_lower_bound`]).
    pub fn new(instance: &Instance, outcome: &SolveOutcome) -> SolveReport {
        debug_assert_eq!(
            outcome.long_jobs,
            instance
                .jobs()
                .iter()
                .filter(|j| j.is_long(instance.calib_len()))
                .count(),
            "the outcome is not a solve of this instance"
        );
        let stats = ScheduleStats::compute(instance, &outcome.schedule);
        let bounds = solved_lower_bound(instance, outcome);
        let crossing = outcome
            .short
            .as_ref()
            .map(|s| s.intervals.iter().map(|i| i.crossing_jobs).sum())
            .unwrap_or(0);
        let ratio = stats.calibrations as f64 / bounds.best.max(1) as f64;
        SolveReport {
            stats,
            bounds,
            long_jobs: outcome.long_jobs,
            short_jobs: outcome.short_jobs,
            lp_objective: outcome.long.as_ref().map(|l| l.fractional.objective),
            crossing_jobs: crossing,
            ratio,
            lp: LpTelemetry::from_outcome(outcome),
            phases: None,
        }
    }

    /// Attach a per-phase timing breakdown (drained from the trace the
    /// solve ran under).
    pub fn with_phases(mut self, phases: PhaseTimings) -> SolveReport {
        self.phases = (!phases.is_empty()).then_some(phases);
        self
    }
}

impl fmt::Display for SolveReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "jobs: {} long + {} short; calibrations: {} (lower bound {}, ratio <= {:.2})",
            self.long_jobs, self.short_jobs, self.stats.calibrations, self.bounds.best, self.ratio
        )?;
        writeln!(
            f,
            "machines: {} at speed {}; utilization {:.1}%; makespan {}",
            self.stats.machines,
            self.stats.speed,
            self.stats.utilization * 100.0,
            self.stats.makespan
        )?;
        if let Some(lp) = self.lp_objective {
            writeln!(f, "long-window LP objective: {lp:.2}")?;
        }
        if let Some(t) = &self.lp {
            writeln!(
                f,
                "LP solver: {} iterations, {} refactorizations, build {}us, solve {}us{}",
                t.iterations,
                t.refactorizations,
                t.build_us,
                t.solve_us,
                if t.warm_started { ", warm-started" } else { "" }
            )?;
            writeln!(
                f,
                "LP pricing: {} cols scanned, {} window hits, {} full rescans, \
                 {} bland activations, {} pivots/refactor",
                t.cols_scanned,
                t.window_hits,
                t.full_rescans,
                t.bland_activations,
                t.pivots_per_refactor
            )?;
            writeln!(
                f,
                "LP numerics: {} residual checks, max residual {:.2e}, \
                 {} recoveries (refactor {} / tighten {} / dantzig {} / eta {} / dense {})",
                t.residual_checks,
                t.max_residual,
                t.recoveries_total(),
                t.recoveries_refactor,
                t.recoveries_tighten,
                t.recoveries_dantzig,
                t.recoveries_eta,
                t.recoveries_dense
            )?;
            writeln!(
                f,
                "LP basis: {} fill nnz, {} FT updates, {} sparse / {} dense triangular solves",
                t.lu_fill_nnz, t.lu_ft_updates, t.lu_sparse_solves, t.lu_dense_solves
            )?;
        }
        if self.short_jobs > 0 {
            writeln!(f, "crossing jobs: {}", self.crossing_jobs)?;
        }
        if let Some(phases) = &self.phases {
            let line = phases
                .phases
                .iter()
                .map(|p| format!("{} {}us", p.name, p.total_us))
                .collect::<Vec<_>>()
                .join(" | ");
            writeln!(f, "phases: {line}")?;
        }
        write!(
            f,
            "bounds: work {} / interval {} / LP {}",
            self.bounds.work,
            self.bounds.interval,
            self.bounds
                .lp_long
                .map_or("-".to_string(), |v| v.to_string())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::solve_decomposed;
    use crate::lower_bound::lower_bound;
    use crate::solver::{solve, solve_with_speed, SolverOptions};

    /// Build the report for `outcome` under a trace; return it with the
    /// names of the spans it recorded.
    fn traced_report(inst: &Instance, outcome: &SolveOutcome) -> (SolveReport, Vec<&'static str>) {
        let trace = ise_obs::Trace::new(1 << 12);
        let report = {
            let _guard = trace.install();
            SolveReport::new(inst, outcome)
        };
        let names = trace.drain().iter().map(|r| r.name).collect();
        (report, names)
    }

    fn mixed_instance() -> Instance {
        Instance::new([(0, 40, 7), (5, 50, 6), (0, 12, 6), (20, 33, 8)], 1, 10).unwrap()
    }

    #[test]
    fn report_for_mixed_instance() {
        let inst = Instance::new([(0, 40, 7), (0, 12, 6)], 1, 10).unwrap();
        let outcome = solve(&inst, &SolverOptions::default()).unwrap();
        let report = SolveReport::new(&inst, &outcome);
        assert_eq!(report.long_jobs, 1);
        assert_eq!(report.short_jobs, 1);
        assert!(report.ratio >= 1.0);
        assert!(report.lp_objective.is_some());
        let text = report.to_string();
        assert!(text.contains("calibrations"));
        assert!(text.contains("bounds: work"));
        assert!(text.contains("LP pricing:"), "pricing stats line: {text}");
        assert!(text.contains("LP numerics:"), "numerics line: {text}");
        assert!(text.contains("LP basis:"), "basis line: {text}");
        let lp = report.lp.expect("long pipeline ran");
        assert!(lp.lu_fill_nnz > 0, "default LU path reports fill-in");
        assert!(lp.cols_scanned > 0);
        assert!(lp.pivots_per_refactor > 0);
        assert!(lp.residual_checks >= 1);
        assert_eq!(lp.recoveries_total(), 0);
    }

    #[test]
    fn speed_one_report_reuses_the_solved_lp() {
        let inst = mixed_instance();
        let outcome = solve(&inst, &SolverOptions::default()).unwrap();
        let (report, spans) = traced_report(&inst, &outcome);
        assert!(
            !spans.iter().any(|n| *n == "lp.build" || *n == "lp.solve"),
            "the report solved an LP: {spans:?}"
        );
        assert!(report.bounds.lp_long.is_some());
        assert_eq!(report.bounds, lower_bound(&inst, &Default::default()));
    }

    #[test]
    fn speed_augmented_report_solves_the_instance_lp() {
        // The speed-2 solve ran the LP of the refined instance, which is not
        // LP(3m) of this one: the report must solve its own.
        let inst = mixed_instance();
        let outcome = solve_with_speed(&inst, &SolverOptions::default(), 2).unwrap();
        let (report, spans) = traced_report(&inst, &outcome);
        assert!(spans.contains(&"lp.build"), "{spans:?}");
        assert!(spans.contains(&"lp.solve"), "{spans:?}");
        assert_eq!(report.bounds, lower_bound(&inst, &Default::default()));
    }

    #[test]
    fn decomposed_report_solves_the_instance_lp() {
        // Two far-apart long bursts: two components, so the outcome keeps no
        // long-window sub-result and the report falls back to the cold LP.
        let inst = Instance::new([(0, 30, 5), (500, 530, 5)], 1, 10).unwrap();
        let outcome = solve_decomposed(&inst, &SolverOptions::default()).unwrap();
        assert!(outcome.long.is_none());
        let report = SolveReport::new(&inst, &outcome);
        assert_eq!(report.bounds.lp_long, Some(1));
        assert_eq!(report.bounds, lower_bound(&inst, &Default::default()));
    }

    #[test]
    fn report_without_short_jobs_hides_crossings() {
        let inst = Instance::new([(0, 40, 7)], 1, 10).unwrap();
        let outcome = solve(&inst, &SolverOptions::default()).unwrap();
        let report = SolveReport::new(&inst, &outcome);
        assert_eq!(report.short_jobs, 0);
        assert!(!report.to_string().contains("crossing"));
    }
}
