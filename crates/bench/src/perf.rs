//! The pinned perf-regression suite behind `ise bench`.
//!
//! A fixed set of seeded workloads is measured on the LP hot path — the
//! LU (Markowitz + Forrest–Tomlin) simplex that production runs, the
//! eta-file cross-check kernel, Dantzig pricing, and a warm-started
//! re-solve at a perturbed machine budget — plus an end-to-end solve for
//! the calibration count. Results serialize to `BENCH_lp.json` at the repo
//! root; [`compare`] diffs a fresh run against that committed baseline and
//! reports regressions beyond a threshold, which is what the CI step
//! `ise bench --quick --check BENCH_lp.json` enforces.
//!
//! Timing uses min-of-reps (the usual noise-robust estimator for
//! single-threaded CPU-bound work). Iteration counts are deterministic per
//! workload, so they regress only when the algorithm itself changes —
//! cross-machine comparisons lean on them, with wall time as a generously
//! thresholded backstop.

use ise_model::{Instance, Job};
use ise_sched::lp::{build, solve_lp_warm, TiseLp};
use ise_sched::{solve, SolverOptions};
use ise_simplex::SolveOptions as LpOptions;
use ise_workloads::{ill_conditioned, long_only, uniform, WorkloadParams};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Schema version of [`BenchReport`]; bump when fields change meaning.
///
/// v2: pricing-aware measurements — [`PathMeasurement`] gained
/// `cols_scanned`, every workload additionally measures the sparse kernel
/// under Dantzig pricing (`dantzig`), the dense oracle became optional
/// (skipped on very wide LPs where explicit-inverse cost is prohibitive),
/// and wide workloads can pin a devex-vs-Dantzig pricing-work ratio floor.
///
/// v3: basis-kernel-aware measurements — the default path (`lu`) runs the
/// Markowitz/Forrest–Tomlin kernel and reports its fill-in, update count,
/// and hyper-sparse solve ratio ([`LuMeasurement`]); the former default
/// eta-file kernel is measured separately (`eta`); wide workloads can pin
/// an LU-vs-eta wall-time speedup floor and a hyper-sparse solve-ratio
/// floor.
///
/// v4: the dense-inverse kernel is gone, and with it the optional `dense`
/// measurement; the eta file is the one cross-check kernel.
pub const BENCH_VERSION: u32 = 4;

/// Default regression threshold for [`compare`]: fail when a measurement
/// exceeds `threshold ×` its baseline. Generous on purpose — wall time is
/// compared across unlike machines.
pub const DEFAULT_THRESHOLD: f64 = 2.0;

/// One pinned workload: a generator family plus its full parameterization,
/// so the instance is reproducible byte for byte.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Stable name used to match runs against the baseline.
    pub name: String,
    /// Generator family (`long_only`, `uniform`, or `ill_conditioned`).
    pub family: String,
    /// Job count.
    pub jobs: usize,
    /// Machine count.
    pub machines: usize,
    /// Calibration length `T`.
    pub calib_len: i64,
    /// Release-time horizon.
    pub horizon: i64,
    /// Generator seed.
    pub seed: u64,
    /// When set, [`compare`] requires Dantzig pricing to scan at least
    /// this many times more columns than devex on this workload — the
    /// pinned proof that partial pricing pays off at scale. `None` (the
    /// default for the small workloads) imposes no floor.
    pub pricing_ratio_floor: Option<u64>,
    /// When set, [`compare`] requires the LU kernel to solve at least
    /// `pct/100`x faster than the eta-file kernel on this workload
    /// (both timed within the same run, so the gate is machine-neutral) —
    /// the pinned proof that the sparse factorization pays off at scale.
    pub lu_speedup_floor_pct: Option<u64>,
    /// When set, [`compare`] requires at least `pct`% of the LU kernel's
    /// FTRAN/BTRAN calls on this workload to take the hyper-sparse
    /// (reach-walking) path rather than the dense triangular fallback.
    pub hypersparse_floor_pct: Option<u64>,
}

impl WorkloadSpec {
    fn params(&self) -> WorkloadParams {
        WorkloadParams {
            jobs: self.jobs,
            machines: self.machines,
            calib_len: self.calib_len,
            horizon: self.horizon,
        }
    }

    /// Materialize the instance this spec pins.
    pub fn instance(&self) -> Result<Instance, String> {
        match self.family.as_str() {
            "long_only" => Ok(long_only(&self.params(), self.seed)),
            "uniform" => Ok(uniform(&self.params(), self.seed)),
            "ill_conditioned" => Ok(ill_conditioned(&self.params(), self.seed)),
            other => Err(format!("unknown workload family {other:?}")),
        }
    }
}

fn spec(
    name: &str,
    family: &str,
    jobs: usize,
    machines: usize,
    t: i64,
    h: i64,
    seed: u64,
) -> WorkloadSpec {
    WorkloadSpec {
        name: name.to_string(),
        family: family.to_string(),
        jobs,
        machines,
        calib_len: t,
        horizon: h,
        seed,
        pricing_ratio_floor: None,
        lu_speedup_floor_pct: None,
        hypersparse_floor_pct: None,
    }
}

/// The large-column pricing workload: many jobs with wide windows, so the
/// LP has enough nonbasic columns per iteration for partial pricing to
/// matter. Pins a 3x floor on Dantzig-vs-devex columns scanned.
fn wide_spec() -> WorkloadSpec {
    WorkloadSpec {
        pricing_ratio_floor: Some(3),
        lu_speedup_floor_pct: Some(150),
        hypersparse_floor_pct: Some(50),
        ..spec("long_wide", "long_only", 200, 4, 12, 900, 23)
    }
}

/// The pinned suite. `quick` drops the largest workload so the CI check
/// stays fast; names are stable so [`compare`] matches on the
/// intersection. The wide pricing workload runs in both modes — it is
/// the one that gates the devex-vs-Dantzig scan ratio.
pub fn suite(quick: bool) -> Vec<WorkloadSpec> {
    let mut specs = vec![
        spec("long_small", "long_only", 24, 2, 10, 160, 7),
        spec("long_medium", "long_only", 48, 3, 12, 300, 11),
        spec("mixed_uniform", "uniform", 60, 3, 10, 300, 17),
    ];
    if !quick {
        specs.push(spec("long_large", "long_only", 72, 3, 12, 420, 13));
        // Numerics stressor: degenerate ties, nearly coincident windows,
        // and extreme tick magnitudes. Keeps the Harris ratio test and the
        // residual-recovery ladder on the measured path.
        specs.push(spec("ill_cond", "ill_conditioned", 48, 3, 10, 300, 29));
    }
    specs.push(wide_spec());
    specs
}

/// One measured solver configuration on one workload.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PathMeasurement {
    /// Min-of-reps wall time per LP solve (simplex plus solution checks).
    pub ns_per_solve: u64,
    /// Simplex iterations (deterministic per workload).
    pub iterations: usize,
    /// Basis refactorizations during the solve.
    pub refactorizations: usize,
    /// Nonbasic columns priced across the solve (deterministic) — the
    /// measure partial pricing exists to shrink.
    pub cols_scanned: u64,
}

/// The default (LU-kernel) path measurement plus the basis-kernel
/// telemetry the LU factorization adds.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LuMeasurement {
    /// Wall time, iterations, refactorizations, pricing work.
    pub path: PathMeasurement,
    /// Worst fill-in (stored `L`+`U` nonzeros) across refactorizations.
    pub fill_nnz: u64,
    /// Forrest–Tomlin pivot updates applied (deterministic).
    pub ft_updates: u64,
    /// FTRAN/BTRAN calls that took the hyper-sparse path (deterministic).
    pub sparse_solves: u64,
    /// FTRAN/BTRAN calls on the dense triangular fallback (deterministic).
    pub dense_solves: u64,
}

impl LuMeasurement {
    /// Fraction of triangular solves that ran hyper-sparse.
    pub fn hypersparse_solve_ratio(&self) -> f64 {
        let total = self.sparse_solves + self.dense_solves;
        if total == 0 {
            0.0
        } else {
            self.sparse_solves as f64 / total as f64
        }
    }
}

/// Everything measured for one workload.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// The pinned workload.
    pub spec: WorkloadSpec,
    /// TISE LP rows, as `lp::build` emits them.
    pub lp_rows: usize,
    /// TISE LP columns.
    pub lp_cols: usize,
    /// TISE LP nonzeros.
    pub lp_nnz: usize,
    /// Optimal LP objective (deterministic per workload).
    pub lp_objective: f64,
    /// Calibrations in the end-to-end schedule (deterministic).
    pub calibrations: usize,
    /// LU (Markowitz + Forrest–Tomlin) simplex under devex pricing, cold
    /// start — the default path, with its basis-kernel telemetry.
    pub lu: LuMeasurement,
    /// Eta-file simplex under devex pricing, cold start — the kernel
    /// baseline the LU speedup floor is gated against.
    pub eta: PathMeasurement,
    /// LU simplex under Dantzig (full-scan) pricing, cold start — the
    /// pricing baseline devex is compared against.
    pub dantzig: PathMeasurement,
    /// LU simplex warm-started from the cold solve's basis, at a machine
    /// budget perturbed by +1 (phase 1 skipped).
    pub warm: PathMeasurement,
}

/// The full suite result, serialized to `BENCH_lp.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchReport {
    /// Schema version ([`BENCH_VERSION`]).
    pub version: u32,
    /// Per-workload measurements.
    pub workloads: Vec<WorkloadResult>,
}

/// Long-window jobs of `instance` — the LP pipeline's input.
fn long_jobs(instance: &Instance) -> Vec<Job> {
    instance.partition_long_short().0
}

/// Min-of-reps timing of one LP solve configuration. Returns the
/// measurement and the last solution's objective/basis for reuse.
fn time_solves(
    tise: &TiseLp,
    opts: &LpOptions,
    warm: Option<&ise_simplex::Basis>,
    reps: usize,
) -> Result<(PathMeasurement, ise_sched::lp::FractionalSolution), String> {
    let mut best = u64::MAX;
    let mut last = None;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        let sol = solve_lp_warm(tise, opts, warm).map_err(|e| e.to_string())?;
        let ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        best = best.min(ns);
        last = Some(sol);
    }
    let sol = last.expect("reps >= 1");
    let m = PathMeasurement {
        ns_per_solve: best,
        iterations: sol.iterations,
        refactorizations: sol.refactorizations,
        cols_scanned: sol.pricing.cols_scanned,
    };
    Ok((m, sol))
}

/// Measure a single basis kernel (under devex pricing, cold start) on one
/// workload — the `ise bench --factorization` profiling path. The LU
/// telemetry fields are zero for the eta kernel.
pub fn measure_kernel(
    spec: &WorkloadSpec,
    kind: ise_simplex::Factorization,
    reps: usize,
) -> Result<LuMeasurement, String> {
    let instance = spec.instance()?;
    let jobs = long_jobs(&instance);
    if jobs.is_empty() {
        return Err(format!("workload {} has no long-window jobs", spec.name));
    }
    let tise = build(&jobs, instance.calib_len(), 3 * instance.machines());
    let opts = LpOptions {
        factorization: kind,
        ..LpOptions::default()
    };
    let (path, sol) = time_solves(&tise, &opts, None, reps)?;
    Ok(LuMeasurement {
        path,
        fill_nnz: sol.numerics.lu_fill_nnz,
        ft_updates: sol.numerics.lu_ft_updates,
        sparse_solves: sol.numerics.lu_sparse_solves,
        dense_solves: sol.numerics.lu_dense_solves,
    })
}

/// Measure one workload: LP shape, cold solves on each basis kernel, a
/// warm re-solve at budget `3m + 1`, and the end-to-end calibration count.
pub fn measure_workload(spec: &WorkloadSpec, reps: usize) -> Result<WorkloadResult, String> {
    let instance = spec.instance()?;
    let jobs = long_jobs(&instance);
    if jobs.is_empty() {
        return Err(format!("workload {} has no long-window jobs", spec.name));
    }
    let budget = 3 * instance.machines();
    let tise = build(&jobs, instance.calib_len(), budget);

    let lu_opts = LpOptions::default();
    let eta_opts = LpOptions {
        factorization: ise_simplex::Factorization::Eta,
        ..LpOptions::default()
    };
    let dantzig_opts = LpOptions {
        pricing: ise_simplex::Pricing::Dantzig,
        ..LpOptions::default()
    };

    let (lu_path, cold_sol) = time_solves(&tise, &lu_opts, None, reps)?;
    let lu = LuMeasurement {
        path: lu_path,
        fill_nnz: cold_sol.numerics.lu_fill_nnz,
        ft_updates: cold_sol.numerics.lu_ft_updates,
        sparse_solves: cold_sol.numerics.lu_sparse_solves,
        dense_solves: cold_sol.numerics.lu_dense_solves,
    };
    let (eta, eta_sol) = time_solves(&tise, &eta_opts, None, reps)?;
    if (cold_sol.objective - eta_sol.objective).abs() > 1e-6 * (1.0 + cold_sol.objective.abs()) {
        return Err(format!(
            "workload {}: lu/eta objectives disagree ({} vs {})",
            spec.name, cold_sol.objective, eta_sol.objective
        ));
    }
    let (dantzig, dantzig_sol) = time_solves(&tise, &dantzig_opts, None, reps)?;
    if (cold_sol.objective - dantzig_sol.objective).abs() > 1e-6 * (1.0 + cold_sol.objective.abs())
    {
        return Err(format!(
            "workload {}: devex/Dantzig objectives disagree ({} vs {})",
            spec.name, cold_sol.objective, dantzig_sol.objective
        ));
    }

    // Warm re-solve: same jobs, machine budget perturbed by +1 — the
    // rhs-only change the basis cache is built for.
    let basis = cold_sol
        .basis
        .as_ref()
        .ok_or_else(|| format!("workload {}: cold solve returned no basis", spec.name))?;
    let perturbed = build(&jobs, instance.calib_len(), budget + 1);
    let (warm, warm_sol) = time_solves(&perturbed, &lu_opts, Some(basis), reps)?;
    if !warm_sol.warm_used {
        return Err(format!(
            "workload {}: warm basis was rejected at budget {}",
            spec.name,
            budget + 1
        ));
    }

    let outcome = solve(&instance, &SolverOptions::default()).map_err(|e| e.to_string())?;

    Ok(WorkloadResult {
        spec: spec.clone(),
        lp_rows: tise.lp.num_rows(),
        lp_cols: tise.lp.num_vars(),
        lp_nnz: tise.lp.nnz(),
        lp_objective: cold_sol.objective,
        calibrations: outcome.schedule.num_calibrations(),
        lu,
        eta,
        dantzig,
        warm,
    })
}

/// Run the whole suite.
pub fn run_suite(quick: bool, reps: usize) -> Result<BenchReport, String> {
    let workloads = suite(quick)
        .iter()
        .map(|s| measure_workload(s, reps))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(BenchReport {
        version: BENCH_VERSION,
        workloads,
    })
}

fn check_path(
    problems: &mut Vec<String>,
    workload: &str,
    path: &str,
    current: &PathMeasurement,
    baseline: &PathMeasurement,
    threshold: f64,
) {
    let time_limit = (baseline.ns_per_solve as f64) * threshold;
    if (current.ns_per_solve as f64) > time_limit {
        problems.push(format!(
            "{workload}/{path}: {} ns/solve exceeds {threshold}x baseline ({} ns)",
            current.ns_per_solve, baseline.ns_per_solve
        ));
    }
    let iter_limit = (baseline.iterations as f64) * threshold;
    if (current.iterations as f64) > iter_limit {
        problems.push(format!(
            "{workload}/{path}: {} iterations exceeds {threshold}x baseline ({})",
            current.iterations, baseline.iterations
        ));
    }
}

/// Compare a fresh run against the committed baseline. Workloads are
/// matched by name (so `--quick` runs check against the full baseline);
/// returns one message per regression, empty when clean.
pub fn compare(current: &BenchReport, baseline: &BenchReport, threshold: f64) -> Vec<String> {
    let mut problems = Vec::new();
    for cur in &current.workloads {
        let Some(base) = baseline
            .workloads
            .iter()
            .find(|w| w.spec.name == cur.spec.name)
        else {
            continue;
        };
        let name = cur.spec.name.as_str();
        if cur.spec != base.spec {
            problems.push(format!("{name}: workload parameters differ from baseline"));
            continue;
        }
        check_path(
            &mut problems,
            name,
            "lu",
            &cur.lu.path,
            &base.lu.path,
            threshold,
        );
        check_path(&mut problems, name, "eta", &cur.eta, &base.eta, threshold);
        check_path(
            &mut problems,
            name,
            "dantzig",
            &cur.dantzig,
            &base.dantzig,
            threshold,
        );
        // Fill-in is deterministic per workload: letting it silently grow
        // past the regression threshold would erode the sparse kernel.
        let fill_limit = (base.lu.fill_nnz as f64) * threshold;
        if cur.lu.fill_nnz as f64 > fill_limit {
            problems.push(format!(
                "{name}/lu: fill-in {} nnz exceeds {threshold}x baseline ({} nnz)",
                cur.lu.fill_nnz, base.lu.fill_nnz
            ));
        }
        check_path(
            &mut problems,
            name,
            "warm",
            &cur.warm,
            &base.warm,
            threshold,
        );
        if let Some(floor) = cur.spec.pricing_ratio_floor {
            // Deterministic pricing-work gate: devex partial pricing must
            // keep scanning at least `floor`x fewer columns than Dantzig.
            if cur.dantzig.cols_scanned < floor * cur.lu.path.cols_scanned.max(1) {
                problems.push(format!(
                    "{name}: devex scanned {} cols vs Dantzig {} — below the {floor}x floor",
                    cur.lu.path.cols_scanned, cur.dantzig.cols_scanned
                ));
            }
        }
        if let Some(pct) = cur.spec.lu_speedup_floor_pct {
            // Machine-neutral kernel gate: both paths are timed within the
            // same run, so the ratio is insensitive to the host.
            if cur.eta.ns_per_solve * 100 < pct * cur.lu.path.ns_per_solve {
                problems.push(format!(
                    "{name}: lu {} ns/solve vs eta {} — below the {pct}% speedup floor",
                    cur.lu.path.ns_per_solve, cur.eta.ns_per_solve
                ));
            }
        }
        if let Some(pct) = cur.spec.hypersparse_floor_pct {
            let ratio = cur.lu.hypersparse_solve_ratio();
            if ratio * 100.0 < pct as f64 {
                problems.push(format!(
                    "{name}: hyper-sparse solve ratio {:.1}% ({} sparse / {} dense) \
                     below the {pct}% floor",
                    ratio * 100.0,
                    cur.lu.sparse_solves,
                    cur.lu.dense_solves
                ));
            }
        }
        if cur.calibrations != base.calibrations {
            problems.push(format!(
                "{name}: calibrations changed {} -> {} (deterministic output drifted)",
                base.calibrations, cur.calibrations
            ));
        }
        if (cur.lp_objective - base.lp_objective).abs() > 1e-6 * (1.0 + base.lp_objective.abs()) {
            problems.push(format!(
                "{name}: LP objective changed {} -> {}",
                base.lp_objective, cur.lp_objective
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_measures_and_roundtrips() {
        let report = run_suite(true, 1).unwrap();
        assert_eq!(report.version, BENCH_VERSION);
        assert_eq!(report.workloads.len(), suite(true).len());
        for w in &report.workloads {
            assert!(w.lp_rows > 0 && w.lp_cols > 0 && w.lp_nnz > 0);
            assert!(w.lu.path.iterations > 0);
            assert!(w.eta.iterations > 0);
            assert!(w.warm.iterations <= w.lu.path.iterations);
            assert!(w.lu.path.cols_scanned > 0);
            assert!(w.dantzig.cols_scanned > 0);
            assert!(w.lu.fill_nnz > 0, "{}: LU fill-in reported", w.spec.name);
            assert!(
                w.lu.sparse_solves + w.lu.dense_solves > 0,
                "{}: triangular solves counted",
                w.spec.name
            );
        }
        let json = serde_json::to_string(&report).unwrap();
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.workloads.len(), report.workloads.len());
        // A run compared against itself is clean.
        assert!(compare(&report, &report, DEFAULT_THRESHOLD).is_empty());
    }

    #[test]
    fn compare_flags_regressions() {
        let report = run_suite(true, 1).unwrap();
        let mut slow = report.clone();
        slow.workloads[0].lu.path.ns_per_solve = report.workloads[0].lu.path.ns_per_solve * 10 + 1;
        let problems = compare(&slow, &report, DEFAULT_THRESHOLD);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("lu"));
    }

    #[test]
    fn suite_specs_are_reproducible() {
        for s in suite(false) {
            assert_eq!(s.instance().unwrap(), s.instance().unwrap());
        }
    }

    #[test]
    fn wide_workload_meets_pricing_ratio_floor() {
        let spec = wide_spec();
        let w = measure_workload(&spec, 1).unwrap();
        let floor = spec.pricing_ratio_floor.unwrap();
        assert!(
            w.dantzig.cols_scanned >= floor * w.lu.path.cols_scanned,
            "devex scanned {} cols, Dantzig {} — below {floor}x",
            w.lu.path.cols_scanned,
            w.dantzig.cols_scanned
        );
        // The hyper-sparse floor holds on the wide workload: most
        // triangular solves walk the reach instead of the whole basis.
        let pct = spec.hypersparse_floor_pct.unwrap();
        assert!(
            w.lu.hypersparse_solve_ratio() * 100.0 >= pct as f64,
            "hyper-sparse ratio {:.1}% ({} sparse / {} dense) below {pct}%",
            w.lu.hypersparse_solve_ratio() * 100.0,
            w.lu.sparse_solves,
            w.lu.dense_solves
        );
        // A run containing the gates compares cleanly against itself.
        let report = BenchReport {
            version: BENCH_VERSION,
            workloads: vec![w],
        };
        assert!(compare(&report, &report, DEFAULT_THRESHOLD).is_empty());
    }

    #[test]
    fn compare_flags_lu_speedup_violation() {
        let spec = wide_spec();
        let w = measure_workload(&spec, 1).unwrap();
        let report = BenchReport {
            version: BENCH_VERSION,
            workloads: vec![w],
        };
        let mut bad = report.clone();
        // Pretend eta got as fast as LU: the speedup gate must fire.
        bad.workloads[0].eta.ns_per_solve = bad.workloads[0].lu.path.ns_per_solve;
        let problems = compare(&bad, &report, DEFAULT_THRESHOLD);
        assert!(
            problems.iter().any(|p| p.contains("speedup floor")),
            "{problems:?}"
        );
        let mut dense_heavy = report.clone();
        // Pretend every triangular solve went dense: the ratio gate fires.
        dense_heavy.workloads[0].lu.dense_solves += dense_heavy.workloads[0].lu.sparse_solves;
        dense_heavy.workloads[0].lu.sparse_solves = 0;
        let problems = compare(&dense_heavy, &report, DEFAULT_THRESHOLD);
        assert!(
            problems.iter().any(|p| p.contains("hyper-sparse")),
            "{problems:?}"
        );
    }

    #[test]
    fn compare_flags_pricing_ratio_violation() {
        let spec = wide_spec();
        let w = measure_workload(&spec, 1).unwrap();
        let report = BenchReport {
            version: BENCH_VERSION,
            workloads: vec![w],
        };
        let mut bad = report.clone();
        bad.workloads[0].lu.path.cols_scanned = bad.workloads[0].dantzig.cols_scanned;
        let problems = compare(&bad, &report, DEFAULT_THRESHOLD);
        assert!(problems.iter().any(|p| p.contains("floor")), "{problems:?}");
    }
}
