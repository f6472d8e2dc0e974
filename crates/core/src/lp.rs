//! The TISE linear-programming relaxation (Section 3 of the paper).
//!
//! Variables (indexed by the potential calibration points `𝒯` of Lemma 3):
//!
//! * `C_t >= 0` — (fractional) number of calibrations started at time `t`;
//! * `X_jt >= 0` — fraction of job `j` assigned to the calibrations at `t`,
//!   present only for TISE-feasible pairs (constraint (5) is enforced
//!   structurally by omitting the variable).
//!
//! Constraints (numbering follows the paper):
//!
//! 1. at most `m'` calibrations overlap any point in time:
//!    for every `t ∈ 𝒯`, `Σ_{t <= t' < t+T} C_{t'} <= m'`
//!    (the forward window; equivalent to the paper's backward form since
//!    both say "every length-`T` window contains at most `m'` starts");
//! 2. `X_jt <= C_t`;
//! 3. `Σ_j X_jt · p_j <= C_t · T`, emitted only at points whose candidate
//!    jobs total more than `T` work (elsewhere rows (2) imply it);
//! 4. `Σ_t X_jt = 1` for every job;
//! 6. nonnegativity (implicit: all LP variables are nonnegative).
//!
//! The objective minimizes `Σ_t C_t`. Any feasible TISE schedule on `m'`
//! machines induces a feasible LP solution of equal value, so the LP
//! optimum lower-bounds the TISE optimum; conversely the rounding steps
//! turn a fractional solution into an integer schedule with constant-factor
//! loss.

use crate::cancel::CancelToken;
use crate::error::SchedError;
use crate::points::{calibration_points, feasible_range};
use ise_model::{Dur, Job, Time};
use ise_simplex::{
    check_dual, check_solution, solve_warm, Basis, Cmp, LinearProgram, NumericsReport,
    PricingStats, SolveOptions, SolveStatus,
};
use std::time::Instant;

/// The TISE LP together with its variable layout.
#[derive(Clone, Debug)]
pub struct TiseLp {
    /// The underlying linear program.
    pub lp: LinearProgram,
    /// Sorted potential calibration points.
    pub points: Vec<Time>,
    /// `c_vars[i]` is the LP variable index of `C_{points[i]}`.
    pub c_vars: Vec<usize>,
    /// `x_vars[j]` lists `(point index, LP variable)` pairs for job `j`'s
    /// TISE-feasible points.
    pub x_vars: Vec<Vec<(usize, usize)>>,
    /// Machine budget `m'` used in constraint (1).
    pub machine_budget: usize,
}

/// A verified fractional solution of the TISE LP.
#[derive(Clone, Debug)]
pub struct FractionalSolution {
    /// Sorted potential calibration points.
    pub points: Vec<Time>,
    /// `c[i]` = fractional calibrations at `points[i]`.
    pub c: Vec<f64>,
    /// `x[j]` = `(point index, fraction)` pairs with positive fraction.
    pub x: Vec<Vec<(usize, f64)>>,
    /// LP objective `Σ C_t` — a lower bound on the TISE optimum on the
    /// given machine budget.
    pub objective: f64,
    /// A **certified** lower bound on the LP optimum: the objective of a
    /// verified feasible dual solution (weak duality). `None` when the
    /// dual failed its feasibility check — in that case only the primal
    /// objective (which upper-bounds the optimum) should be trusted.
    pub certified_dual_bound: Option<f64>,
    /// Simplex iterations spent.
    pub iterations: usize,
    /// Basis-representation rebuilds during the solve.
    pub refactorizations: usize,
    /// Whether a supplied warm-start basis was accepted (phase 1 skipped).
    pub warm_used: bool,
    /// Deterministic pricing-effort counters from the simplex (columns
    /// scanned, window hits, full rescans, Bland activations).
    pub pricing: PricingStats,
    /// Numerical-health telemetry from the simplex: residual-monitor
    /// readings, recovery-ladder activations, ratio-test statistics.
    pub numerics: NumericsReport,
    /// The optimal basis of the LP; feed it back via
    /// [`relax_and_solve_warm`] when re-solving the same jobs with a
    /// perturbed machine budget.
    pub basis: Option<Basis>,
    /// Wall-clock microseconds spent building the LP (0 when the caller
    /// built it separately via [`build`] + [`solve_lp`]).
    pub build_us: u64,
    /// Wall-clock microseconds spent in the simplex.
    pub solve_us: u64,
}

/// Build the TISE LP for `jobs` on `machine_budget` machines.
///
/// Every job must have a nonempty TISE-feasible point range; jobs with
/// windows shorter than `T` make the problem trivially infeasible, which is
/// reported as [`SchedError::Infeasible`] at solve time (constraint (4)
/// cannot hold).
pub fn build(jobs: &[Job], calib_len: Dur, machine_budget: usize) -> TiseLp {
    let _build_span = ise_obs::Span::enter("lp.build");
    let points = {
        let _span = ise_obs::Span::enter("lp.discretize");
        calibration_points(jobs, calib_len)
    };
    let mut lp = LinearProgram::new();

    // C_t variables, objective coefficient 1.
    let c_vars: Vec<usize> = points.iter().map(|_| lp.add_var(1.0)).collect();

    // X_jt variables for feasible pairs only (constraint (5) by omission):
    // this per-job restriction to fully-contained calibrations is the
    // Lemma 2 trim, hence the span name.
    let trim_span = ise_obs::Span::enter("lp.trim");
    let mut x_vars: Vec<Vec<(usize, usize)>> = Vec::with_capacity(jobs.len());
    for job in jobs {
        let range = feasible_range(job, &points, calib_len);
        let vars: Vec<(usize, usize)> = range.map(|pi| (pi, lp.add_var(0.0))).collect();
        x_vars.push(vars);
    }
    drop(trim_span);

    // (1) window capacity at every point.
    for (i, &t) in points.iter().enumerate() {
        let hi = points.partition_point(|&u| u < t + calib_len);
        let coeffs: Vec<(usize, f64)> = (i..hi).map(|k| (c_vars[k], 1.0)).collect();
        lp.add_row(coeffs, Cmp::Le, machine_budget as f64);
    }

    // (2) X_jt <= C_t.
    for vars in &x_vars {
        for &(pi, xv) in vars {
            lp.add_row([(xv, 1.0), (c_vars[pi], -1.0)], Cmp::Le, 0.0);
        }
    }

    // (3) per-point work capacity: Σ_j X_jt p_j - T·C_t <= 0, emitted
    // only where rows (2) do not already imply it. With `X_jt <= C_t`,
    // `Σ_j X_jt p_j <= C_t · Σ_j p_j`, so the row is redundant whenever
    // the point's candidate jobs total at most `T` work (this covers an
    // empty point and a lone `p = T` job). The work sum is exact: ticks
    // reach `MAX_INSTANCE_TICKS = i64::MAX / 36`, so 37 such jobs
    // overflow `i64`.
    let mut per_point: Vec<Vec<(usize, f64)>> = vec![Vec::new(); points.len()];
    let mut work = vec![0i128; points.len()];
    for (j, vars) in x_vars.iter().enumerate() {
        for &(pi, xv) in vars {
            per_point[pi].push((xv, jobs[j].proc.ticks() as f64));
            work[pi] += i128::from(jobs[j].proc.ticks());
        }
    }
    for (pi, mut coeffs) in per_point.into_iter().enumerate() {
        if work[pi] <= i128::from(calib_len.ticks()) {
            continue;
        }
        coeffs.push((c_vars[pi], -(calib_len.ticks() as f64)));
        lp.add_row(coeffs, Cmp::Le, 0.0);
    }

    // (4) every job fully assigned.
    for vars in &x_vars {
        let coeffs: Vec<(usize, f64)> = vars.iter().map(|&(_, xv)| (xv, 1.0)).collect();
        lp.add_row(coeffs, Cmp::Eq, 1.0);
    }

    TiseLp {
        lp,
        points,
        c_vars,
        x_vars,
        machine_budget,
    }
}

/// Solve the TISE LP and verify the solution against all constraints.
pub fn solve_lp(tise: &TiseLp, opts: &SolveOptions) -> Result<FractionalSolution, SchedError> {
    solve_lp_warm(tise, opts, None)
}

/// [`solve_lp`] with an optional warm-start basis from a previous solve of
/// a structurally identical LP (same jobs and calibration points; the
/// machine budget — a pure right-hand-side change — may differ).
pub fn solve_lp_warm(
    tise: &TiseLp,
    opts: &SolveOptions,
    warm: Option<&Basis>,
) -> Result<FractionalSolution, SchedError> {
    let solve_started = Instant::now();
    let lp_span = ise_obs::Span::enter("lp.solve");
    let sol = solve_warm(&tise.lp, opts, warm)?;
    drop(lp_span);
    let solve_us = solve_started.elapsed().as_micros() as u64;
    match sol.status {
        SolveStatus::Optimal => {}
        SolveStatus::Infeasible => {
            return Err(SchedError::Infeasible {
                reason: format!(
                    "TISE LP on {} machines has no fractional solution; by Lemma 2 the \
                     ISE instance is infeasible on {} machines",
                    tise.machine_budget,
                    tise.machine_budget / 3
                ),
            })
        }
        SolveStatus::Unbounded => {
            // Minimization of a nonnegative sum cannot be unbounded; treat
            // as numerical failure.
            return Err(SchedError::Internal {
                stage: "lp: unbounded minimization",
                jobs: vec![],
            });
        }
    }
    let violations = check_solution(&tise.lp, &sol.x, 1e-6);
    if !violations.is_empty() {
        return Err(SchedError::Internal {
            stage: "lp: solution fails verification",
            jobs: vec![],
        });
    }
    let c: Vec<f64> = tise.c_vars.iter().map(|&v| sol.x[v].max(0.0)).collect();
    let x: Vec<Vec<(usize, f64)>> = tise
        .x_vars
        .iter()
        .map(|vars| {
            vars.iter()
                .map(|&(pi, xv)| (pi, sol.x[xv].max(0.0)))
                .filter(|&(_, f)| f > 1e-12)
                .collect()
        })
        .collect();
    let certified_dual_bound = check_dual(&tise.lp, &sol.duals, 1e-6).ok();
    Ok(FractionalSolution {
        points: tise.points.clone(),
        c,
        x,
        objective: sol.objective,
        certified_dual_bound,
        iterations: sol.iterations,
        refactorizations: sol.refactorizations,
        warm_used: sol.warm_used,
        pricing: sol.pricing,
        numerics: sol.numerics,
        basis: sol.basis,
        build_us: 0,
        solve_us,
    })
}

/// Convenience: build and solve in one step.
pub fn relax_and_solve(
    jobs: &[Job],
    calib_len: Dur,
    machine_budget: usize,
    opts: &SolveOptions,
) -> Result<FractionalSolution, SchedError> {
    relax_and_solve_warm(
        jobs,
        calib_len,
        machine_budget,
        opts,
        &CancelToken::new(),
        None,
    )
}

/// The full-featured entry point: cancellable and warm-startable. The
/// token is polled before the (potentially large) LP is built and also
/// wired into the simplex pivot loop (via
/// [`CancelToken::interrupt_handle`]), so a deadline aborts a solve
/// mid-iteration. The warm basis must come from a previous solve of the
/// **same jobs and calibration length** — the machine budget may differ
/// (it only changes the right-hand side of rows (1); which rows [`build`]
/// emits depends only on the jobs and `T`, so the basis carries over and
/// phase 1 is skipped).
pub fn relax_and_solve_warm(
    jobs: &[Job],
    calib_len: Dur,
    machine_budget: usize,
    opts: &SolveOptions,
    cancel: &CancelToken,
    warm: Option<&Basis>,
) -> Result<FractionalSolution, SchedError> {
    // A job whose window cannot contain any calibration makes constraint
    // (4) unsatisfiable; report that crisply instead of via the LP.
    if let Some(job) = jobs.iter().find(|j| j.window() < calib_len) {
        return Err(SchedError::Infeasible {
            reason: format!(
                "job {} has window {} < T = {}: no TISE-feasible calibration exists",
                job.id,
                job.window(),
                calib_len
            ),
        });
    }
    cancel.check()?;
    let build_started = Instant::now();
    let tise = build(jobs, calib_len, machine_budget);
    let build_us = build_started.elapsed().as_micros() as u64;
    cancel.check()?;
    let mut lp_opts = opts.clone();
    if lp_opts.interrupt.is_none() {
        lp_opts.interrupt = Some(cancel.interrupt_handle());
    }
    let mut sol = solve_lp_warm(&tise, &lp_opts, warm)?;
    sol.build_us = build_us;
    Ok(sol)
}

/// Rough estimate of the simplex iterations a **cold** solve of the LP
/// behind `sol` would have spent: phase 1 plus phase 2 each cost on the
/// order of one pivot per structural row of the TISE LP (per point one
/// window-capacity row and at most one work-capacity row, both counted; one
/// assignment row per job; one coupling row per retained `X_jt` term).
/// Clamped from below by the actual iteration count so "iterations saved"
/// reported against this estimate is never negative. Used by the
/// incremental-session telemetry; the bench suite reports *measured* cold
/// iterations instead.
pub fn cold_iteration_estimate(sol: &FractionalSolution) -> usize {
    let x_terms: usize = sol.x.iter().map(Vec::len).sum();
    let rows = 2 * sol.points.len() + sol.x.len() + x_terms;
    rows.max(sol.iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_simplex::{Factorization, Pricing};

    fn opts() -> SolveOptions {
        SolveOptions::default()
    }

    #[test]
    fn single_long_job_needs_one_calibration() {
        let jobs = vec![Job::new(0, 0, 40, 5)];
        let sol = relax_and_solve(&jobs, Dur(10), 3, &opts()).unwrap();
        assert!(
            (sol.objective - 1.0).abs() < 1e-6,
            "objective {}",
            sol.objective
        );
        // The job is fully assigned.
        let total: f64 = sol.x[0].iter().map(|&(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-6);
    }

    #[test]
    fn two_jobs_share_one_calibration() {
        let jobs = vec![Job::new(0, 0, 40, 5), Job::new(1, 0, 40, 5)];
        let sol = relax_and_solve(&jobs, Dur(10), 3, &opts()).unwrap();
        assert!(
            (sol.objective - 1.0).abs() < 1e-6,
            "objective {}",
            sol.objective
        );
    }

    #[test]
    fn work_forces_more_calibrations() {
        // 3 jobs × 7 ticks = 21 work, T = 10 => at least 3 calibrations
        // (fractionally 2.1, but each X_jt <= C_t and jobs are large).
        let jobs = vec![
            Job::new(0, 0, 40, 7),
            Job::new(1, 0, 40, 7),
            Job::new(2, 0, 40, 7),
        ];
        let sol = relax_and_solve(&jobs, Dur(10), 3, &opts()).unwrap();
        assert!(sol.objective >= 2.1 - 1e-6, "objective {}", sol.objective);
    }

    #[test]
    fn machine_budget_binds() {
        // Ten 10-tick jobs with identical tight-ish windows [0, 20):
        // every calibration must start in [0, 10]; with machine budget 1,
        // at most ~2 calibration-mass fits any window... in fact all
        // calibrations fall within a 10-long range of each other, so
        // budget 1 allows only 1 simultaneous: infeasible fractionally.
        let jobs: Vec<Job> = (0..10).map(|i| Job::new(i, 0, 20, 10)).collect();
        let result = relax_and_solve(&jobs, Dur(10), 1, &opts());
        assert!(matches!(result, Err(SchedError::Infeasible { .. })));
        // With budget 5 it becomes feasible (5 at t=0, 5 at t=10).
        let sol = relax_and_solve(&jobs, Dur(10), 5, &opts()).unwrap();
        assert!(sol.objective >= 10.0 - 1e-6);
    }

    #[test]
    fn window_shorter_than_t_is_infeasible() {
        let jobs = vec![Job::new(0, 0, 8, 5)];
        assert!(matches!(
            relax_and_solve(&jobs, Dur(10), 3, &opts()),
            Err(SchedError::Infeasible { .. })
        ));
        // `build` + `solve_lp` skip that early window check: job 0 has no
        // TISE-feasible point, so its row (4) is the empty `0 = 1`, which
        // the simplex must reject on every kernel and pricing rule.
        let jobs = vec![Job::new(0, 0, 8, 5), Job::new(1, 0, 40, 5)];
        let tise = build(&jobs, Dur(10), 3);
        assert!(tise.x_vars[0].is_empty());
        for factorization in [Factorization::Lu, Factorization::Eta] {
            for pricing in [Pricing::Dantzig, Pricing::Devex] {
                let opts = SolveOptions {
                    factorization,
                    pricing,
                    ..SolveOptions::default()
                };
                assert!(
                    matches!(solve_lp(&tise, &opts), Err(SchedError::Infeasible { .. })),
                    "{factorization:?} / {pricing:?}"
                );
            }
        }
    }

    #[test]
    fn work_rows_only_where_coupling_rows_do_not_imply_them() {
        // Row (3) at a point is implied by rows (2) when the point's
        // candidate jobs total at most T work, so it is emitted exactly at
        // the points whose work exceeds T.
        let t = Dur(10);
        for jobs in [
            vec![Job::new(0, 0, 40, 5)],
            vec![Job::new(0, 0, 40, 10)],
            vec![Job::new(0, 0, 40, 5), Job::new(1, 0, 40, 5)],
            vec![Job::new(0, 0, 40, 7), Job::new(1, 5, 45, 6)],
            vec![
                Job::new(0, 0, 40, 7),
                Job::new(1, 0, 45, 6),
                Job::new(2, 5, 50, 7),
            ],
        ] {
            let tise = build(&jobs, t, 3);
            let mut work = vec![0; tise.points.len()];
            for (j, vars) in tise.x_vars.iter().enumerate() {
                for &(pi, _) in vars {
                    work[pi] += jobs[j].proc.ticks();
                }
            }
            let work_rows = work.iter().filter(|&&w| w > t.ticks()).count();
            let x_terms: usize = tise.x_vars.iter().map(Vec::len).sum();
            assert_eq!(
                tise.lp.num_rows(),
                tise.points.len() + x_terms + work_rows + jobs.len(),
                "{jobs:?}"
            );
        }
    }

    #[test]
    fn lp_value_lower_bounds_integer_schedules() {
        // Two well-separated job groups: integer optimum is 2; the LP must
        // not exceed it.
        let jobs = vec![
            Job::new(0, 0, 30, 5),
            Job::new(1, 0, 30, 5),
            Job::new(2, 100, 130, 5),
            Job::new(3, 100, 130, 5),
        ];
        let sol = relax_and_solve(&jobs, Dur(10), 3, &opts()).unwrap();
        assert!(sol.objective <= 2.0 + 1e-6);
        assert!(sol.objective >= 1.0 - 1e-6); // separated: can't share
    }

    #[test]
    fn dual_certificate_matches_primal_at_optimum() {
        let jobs = vec![
            Job::new(0, 0, 40, 7),
            Job::new(1, 0, 45, 6),
            Job::new(2, 5, 50, 7),
        ];
        let sol = relax_and_solve(&jobs, Dur(10), 3, &opts()).unwrap();
        let dual = sol
            .certified_dual_bound
            .expect("dual certificate available");
        // Strong duality at the optimum, so the certified bound is tight.
        assert!(
            (dual - sol.objective).abs() <= 1e-5 * (1.0 + sol.objective.abs()),
            "duality gap: primal {} vs dual {dual}",
            sol.objective
        );
    }

    #[test]
    fn warm_start_reuses_basis_across_budgets() {
        let jobs: Vec<Job> = vec![
            Job::new(0, 0, 40, 7),
            Job::new(1, 0, 45, 6),
            Job::new(2, 5, 50, 7),
        ];
        let cancel = CancelToken::new();
        let cold = relax_and_solve_warm(&jobs, Dur(10), 3, &opts(), &cancel, None).unwrap();
        assert!(!cold.warm_used);
        let basis = cold.basis.clone().expect("optimal solve yields a basis");
        // Same jobs, perturbed machine budget: the basis must carry over.
        let warm = relax_and_solve_warm(&jobs, Dur(10), 4, &opts(), &cancel, Some(&basis)).unwrap();
        assert!(
            warm.warm_used,
            "rhs-only perturbation must accept the basis"
        );
        assert!(warm.iterations <= cold.iterations);
        // Verified like any other solution: objective can only improve with
        // a bigger budget.
        assert!(warm.objective <= cold.objective + 1e-9);
        // The cold estimate never under-reports the actual work.
        assert!(cold_iteration_estimate(&cold) >= cold.iterations);
        assert!(cold_iteration_estimate(&warm) >= warm.iterations);
    }

    #[test]
    fn pricing_stats_flow_through() {
        let jobs = vec![Job::new(0, 0, 40, 7), Job::new(1, 0, 45, 6)];
        let sol = relax_and_solve(&jobs, Dur(10), 3, &opts()).unwrap();
        assert!(sol.pricing.cols_scanned > 0, "pricing effort must surface");
        // Deterministic: an identical solve reports identical counters.
        let again = relax_and_solve(&jobs, Dur(10), 3, &opts()).unwrap();
        assert_eq!(sol.pricing, again.pricing);
    }

    #[test]
    fn numerics_report_flows_through() {
        let jobs = vec![Job::new(0, 0, 40, 7), Job::new(1, 0, 45, 6)];
        let sol = relax_and_solve(&jobs, Dur(10), 3, &opts()).unwrap();
        assert!(
            sol.numerics.residual_checks >= 1,
            "every LP solve gets at least the exit residual check"
        );
        assert!(sol.numerics.max_residual <= ise_simplex::SolveOptions::default().residual_tol);
        assert_eq!(sol.numerics.recoveries_total(), 0);
    }

    #[test]
    fn empty_jobs_solve_trivially() {
        let sol = relax_and_solve(&[], Dur(10), 3, &opts()).unwrap();
        assert_eq!(sol.objective, 0.0);
    }

    #[test]
    fn x_fractions_respect_c() {
        let jobs = vec![Job::new(0, 0, 40, 5), Job::new(1, 5, 45, 6)];
        let sol = relax_and_solve(&jobs, Dur(10), 3, &opts()).unwrap();
        for (j, assignments) in sol.x.iter().enumerate() {
            for &(pi, f) in assignments {
                assert!(
                    f <= sol.c[pi] + 1e-6,
                    "job {j} fraction {f} exceeds C at point {pi} = {}",
                    sol.c[pi]
                );
            }
        }
    }
}
