//! The oracle stack: independent recomputations of the same quantity that
//! must agree on every instance.
//!
//! Each oracle compares two execution paths (or one path against a proved
//! invariant) and reports the first [`Discrepancy`] it finds. The checks
//! are deliberately *sound*: every inequality asserted here is a theorem
//! of the paper or a mathematical identity, so a reported discrepancy is a
//! real bug (in one of the two paths, the validator, or the theory
//! bindings) — never fuzzer noise.
//!
//! Covered pairs:
//!
//! * [`Oracle::Budgets`] — `validate`, `audit`, the lower-bound lattice
//!   (`calibrations >= lower_bound.best`), the solve report's bounds
//!   equal to the cold `lower_bound`, and the Lemma 2 trimming factor
//!   (TISE transform is valid and costs exactly 3×) on long-only inputs.
//! * [`Oracle::Exact`] — full `solve` vs `exact::optimal` on small
//!   instances: the optimum never exceeds the heuristic, a feasible
//!   witness contradicts exhaustive infeasibility and vice versa, and
//!   Theorem 12's `12·C*` calibration budget holds on long-only inputs.
//! * [`Oracle::Dense`] — the default LP configuration (LU basis, devex,
//!   Harris) vs an independently implemented path pinned to the eta-file
//!   kernel, Dantzig pricing, and the baseline ratio test, end to end:
//!   same feasibility verdict, agreeing LP objectives, both schedules
//!   valid and within budget.
//! * [`Oracle::Warm`] — warm-started re-solve of the same instance must
//!   reproduce the cold result exactly (same objective, same calibration
//!   count): warm starts only skip phase 1.
//! * [`Oracle::Engine`] — the batch engine (fresh, single worker) vs a
//!   direct call: first response equals the direct solve, duplicate
//!   submission is served from cache and is bit-identical.
//! * [`Oracle::Metamorphic`] — calibration count is invariant under
//!   time-shifts by multiples of the Algorithm 4 period `2γT` and under
//!   machine relabeling; widening one window never loses feasibility and
//!   never raises the exact optimum.
//! * [`Oracle::Session`] — incremental vs from-scratch: a deterministic
//!   delta log derived from `(instance, meta_seed)` replays through
//!   [`ise_session::Session`], and every commit must match a cold solve
//!   of the materialized instance: same verdict, same calibration count,
//!   agreeing LP objectives, report bounds equal to the cold
//!   `lower_bound`, schedule validated. Cold-tier commits must
//!   reproduce the cold schedule bit-for-bit (identical code path);
//!   basis/warm tiers may land on a different optimal LP vertex — the
//!   same caveat the dense and warm oracles document — so their
//!   schedules are compared by count, not bytes. Because the log is a
//!   pure function of the instance, shrinking the instance shrinks the
//!   delta log for free.

use ise_engine::{Engine, EngineConfig, EngineRequest};
use ise_model::{shift_time, validate, validate_tise, Dur, Instance};
use ise_sched::exact::{optimal, ExactOptions};
use ise_sched::lower_bound::lower_bound;
use ise_sched::short_window::GAMMA;
use ise_sched::tise::to_tise;
use ise_sched::{audit, solve, SchedError, SolveOutcome, SolveReport, SolverOptions};
use std::fmt;

/// One member of the oracle stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Oracle {
    /// Validator + theorem-budget audit + lower-bound lattice + Lemma 2.
    Budgets,
    /// `solve` vs brute-force `exact::optimal` (small instances only).
    Exact,
    /// LU/devex/Harris vs eta/Dantzig/baseline through the full pipeline.
    Dense,
    /// Warm-started vs cold LP basis.
    Warm,
    /// Engine-cached vs direct solve.
    Engine,
    /// Metamorphic invariances (time shift, relabeling, widening).
    Metamorphic,
    /// Incremental session replay vs from-scratch solves.
    Session,
}

impl Oracle {
    /// Every oracle, in the order they run.
    pub const ALL: [Oracle; 7] = [
        Oracle::Budgets,
        Oracle::Exact,
        Oracle::Dense,
        Oracle::Warm,
        Oracle::Engine,
        Oracle::Metamorphic,
        Oracle::Session,
    ];

    /// Stable CLI / corpus name.
    pub fn name(self) -> &'static str {
        match self {
            Oracle::Budgets => "budgets",
            Oracle::Exact => "exact",
            Oracle::Dense => "dense",
            Oracle::Warm => "warm",
            Oracle::Engine => "engine",
            Oracle::Metamorphic => "metamorphic",
            Oracle::Session => "session",
        }
    }

    /// Parse a comma-separated oracle list (`"all"` selects every oracle).
    pub fn parse_list(s: &str) -> Result<Vec<Oracle>, String> {
        if s == "all" {
            return Ok(Oracle::ALL.to_vec());
        }
        s.split(',')
            .map(|part| {
                let part = part.trim();
                Oracle::ALL
                    .into_iter()
                    .find(|o| o.name() == part)
                    .ok_or_else(|| {
                        format!(
                            "unknown oracle `{part}` (expected one of {}, or `all`)",
                            Oracle::ALL.map(|o| o.name()).join(", ")
                        )
                    })
            })
            .collect()
    }
}

impl fmt::Display for Oracle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Tuning knobs for the oracle stack.
#[derive(Clone, Debug)]
pub struct OracleOptions {
    /// Run the exact oracle only on instances with at most this many jobs.
    pub exact_job_cap: usize,
    /// `max_calibrations` ceiling for the exhaustive search.
    pub exact_calib_cap: usize,
    /// Node budget for the exhaustive search; overruns skip the oracle.
    pub exact_node_budget: u64,
    /// Seed for the metamorphic widening mutation (varied per case).
    pub meta_seed: u64,
}

impl Default for OracleOptions {
    fn default() -> OracleOptions {
        OracleOptions {
            exact_job_cap: 7,
            exact_calib_cap: 8,
            exact_node_budget: 2_000_000,
            meta_seed: 0,
        }
    }
}

/// A disagreement between two oracle paths — a bug witness.
#[derive(Clone, Debug)]
pub struct Discrepancy {
    /// Which oracle pair disagreed.
    pub oracle: Oracle,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

impl fmt::Display for Discrepancy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

/// Relative LP-objective agreement tolerance (matches the equivalence
/// property tests).
const OBJ_TOL: f64 = 1e-6;

fn disc(oracle: Oracle, detail: impl Into<String>) -> Discrepancy {
    Discrepancy {
        oracle,
        detail: detail.into(),
    }
}

/// The base verdict every oracle compares against.
enum Base {
    Feasible(Box<SolveOutcome>),
    Infeasible(String),
}

/// Run the base solve and its always-on sanity checks.
fn base_solve(instance: &Instance) -> Result<Base, Discrepancy> {
    match solve(instance, &SolverOptions::default()) {
        Ok(out) => Ok(Base::Feasible(Box::new(out))),
        Err(SchedError::Infeasible { reason }) => Ok(Base::Infeasible(reason)),
        Err(e) => Err(disc(
            Oracle::Budgets,
            format!("solve failed with a non-verdict error: {e}"),
        )),
    }
}

/// Run `oracles` against `instance`; `Err` carries the first discrepancy.
///
/// This is the single entry point the fuzz loop, the shrinker, and corpus
/// replay all share, so a shrunk repro keeps failing for the same reason
/// the original did.
pub fn check_instance(
    instance: &Instance,
    oracles: &[Oracle],
    opts: &OracleOptions,
) -> Result<(), Discrepancy> {
    let base = base_solve(instance)?;

    for &oracle in oracles {
        match oracle {
            Oracle::Budgets => check_budgets(instance, &base)?,
            Oracle::Exact => check_exact(instance, &base, opts)?,
            Oracle::Dense => check_dense(instance, &base)?,
            Oracle::Warm => check_warm(instance, &base)?,
            Oracle::Engine => check_engine(instance, &base)?,
            Oracle::Metamorphic => check_metamorphic(instance, &base, opts)?,
            Oracle::Session => check_session(instance, opts)?,
        }
    }
    Ok(())
}

fn check_budgets(instance: &Instance, base: &Base) -> Result<(), Discrepancy> {
    let o = Oracle::Budgets;
    let Base::Feasible(out) = base else {
        return Ok(());
    };
    validate(instance, &out.schedule)
        .map_err(|e| disc(o, format!("solve produced an invalid schedule: {e}")))?;
    let report = audit(instance, out);
    if !report.all_ok() {
        let failed: Vec<String> = report
            .failures()
            .iter()
            .map(|c| format!("{} ({} > {})", c.name, c.actual, c.budget))
            .collect();
        return Err(disc(
            o,
            format!("theorem audit failed: {}", failed.join("; ")),
        ));
    }
    let lb = lower_bound(instance, &Default::default());
    let cals = out.schedule.num_calibrations() as u64;
    if cals < lb.best {
        return Err(disc(
            o,
            format!(
                "schedule with {cals} calibrations beats the certified lower bound {} \
                 (work {}, interval {}, lp {:?})",
                lb.best, lb.work, lb.interval, lb.lp_long
            ),
        ));
    }
    // The report takes its LP term from the solve's own LP; the cold
    // recomputation is the arbiter.
    let reported = SolveReport::new(instance, out).bounds;
    if reported != lb {
        return Err(disc(
            o,
            format!("solve report bounds {reported:?} differ from the cold bounds {lb:?}"),
        ));
    }
    // Algorithm 1 identity: at threshold 1/2, rounding the fractional
    // masses emits exactly floor(2 · Σ c_t) calibrations (before the
    // Lemma 9 mirror). Both sides come from the same solve, so any drift
    // is a rounding-implementation bug, not LP nondeterminism.
    if let Some(long) = &out.long {
        let mass: f64 = long.fractional.c.iter().sum();
        let expected = (2.0 * mass + 1e-6).floor() as usize;
        if long.rounded_calibrations != expected {
            return Err(disc(
                o,
                format!(
                    "Algorithm 1 rounding emitted {} calibrations from LP mass {mass} \
                     (expected exactly {expected})",
                    long.rounded_calibrations
                ),
            ));
        }
    }
    // Numerics: the simplex residual monitor must have run on every LP
    // solve and left the basis residual under the solver's own tolerance —
    // otherwise the rounding above consumed fractional masses the basis
    // cannot reproduce.
    if let Some(long) = &out.long {
        let numerics = &long.fractional.numerics;
        if numerics.residual_checks == 0 {
            return Err(disc(
                o,
                "LP solve finished without a single residual check".to_string(),
            ));
        }
        let tol = ise_simplex::SolveOptions::default().residual_tol;
        if numerics.max_residual > tol {
            return Err(disc(
                o,
                format!(
                    "LP basis residual {:.3e} exceeds the solver tolerance {tol:.1e} \
                     after {} recoveries",
                    numerics.max_residual,
                    numerics.recoveries_total()
                ),
            ));
        }
    }
    // Lemma 2: the TISE transform of the long-window schedule is valid and
    // costs exactly 3x.
    if instance.all_long() && !instance.is_empty() {
        if let Some(long) = &out.long {
            let transformed = to_tise(instance, &long.schedule)
                .map_err(|e| disc(o, format!("Lemma 2 transform failed: {e}")))?;
            validate_tise(instance, &transformed)
                .map_err(|e| disc(o, format!("Lemma 2 transform is invalid: {e}")))?;
            let (got, want) = (
                transformed.num_calibrations(),
                3 * long.schedule.num_calibrations(),
            );
            if got != want {
                return Err(disc(
                    o,
                    format!("Lemma 2 trim factor violated: {got} calibrations, expected {want}"),
                ));
            }
        }
    }
    Ok(())
}

fn check_exact(instance: &Instance, base: &Base, opts: &OracleOptions) -> Result<(), Discrepancy> {
    let o = Oracle::Exact;
    if instance.len() > opts.exact_job_cap {
        return Ok(());
    }
    match base {
        Base::Feasible(out) => {
            let cals = out.schedule.num_calibrations();
            // Theorem 12's pipeline is resource-augmented: the witness may
            // use up to 18m machines, while `exact` searches exactly the
            // instance's m. Count comparisons against the witness are only
            // sound when the witness itself fits within m machines.
            let witness_fits = out.schedule.machines_used() <= instance.machines();
            let cap = if witness_fits {
                // An m-machine witness with `cals` calibrations exists, so
                // a search capped at `cals` MUST find something.
                cals.min(opts.exact_calib_cap)
            } else {
                opts.exact_calib_cap
            };
            if witness_fits && cap < cals {
                return Ok(()); // optimum may genuinely exceed the search cap
            }
            let exact = match optimal(
                instance,
                &ExactOptions {
                    max_calibrations: cap,
                    node_budget: opts.exact_node_budget,
                    ..ExactOptions::default()
                },
            ) {
                Ok(r) => r,
                Err(SchedError::BudgetExceeded) => return Ok(()), // too hard; skip
                Err(e) => return Err(disc(o, format!("exact search errored: {e}"))),
            };
            let Some(exact) = exact else {
                if witness_fits {
                    return Err(disc(
                        o,
                        format!(
                            "exact search says no schedule with <= {cals} calibrations exists, \
                             but solve produced a valid {}-machine witness with {cals}",
                            out.schedule.machines_used()
                        ),
                    ));
                }
                // The augmented witness needed extra machines; the m-machine
                // problem may genuinely need more than `cap` calibrations.
                return Ok(());
            };
            if witness_fits && exact.calibrations > cals {
                return Err(disc(
                    o,
                    format!(
                        "exact optimum {} exceeds the heuristic's {cals} calibrations \
                         on the same machine count",
                        exact.calibrations
                    ),
                ));
            }
            let lb = lower_bound(instance, &Default::default());
            if (exact.calibrations as u64) < lb.best {
                return Err(disc(
                    o,
                    format!(
                        "exact optimum {} beats the certified lower bound {}",
                        exact.calibrations, lb.best
                    ),
                ));
            }
            // Theorem 12 ratio on long-only inputs (the combined solver is
            // exactly the long pipeline there): <= 12 C*, with the same
            // small-value guard the theorem-bound tests use.
            if instance.all_long() && cals > (12 * exact.calibrations).max(4) {
                return Err(disc(
                    o,
                    format!(
                        "Theorem 12 ratio blown: {cals} calibrations vs exact optimum {} \
                         (budget {})",
                        exact.calibrations,
                        (12 * exact.calibrations).max(4)
                    ),
                ));
            }
        }
        Base::Infeasible(reason) => {
            // `solve`'s infeasibility is *certified*; an exhaustive witness
            // on the same machine count contradicts the certificate.
            let exact = match optimal(
                instance,
                &ExactOptions {
                    max_calibrations: opts.exact_calib_cap,
                    node_budget: opts.exact_node_budget,
                    ..ExactOptions::default()
                },
            ) {
                Ok(r) => r,
                Err(SchedError::BudgetExceeded) => return Ok(()),
                Err(e) => return Err(disc(o, format!("exact search errored: {e}"))),
            };
            if let Some(exact) = exact {
                return Err(disc(
                    o,
                    format!(
                        "solve certified infeasibility ({reason}) but an exhaustive search \
                         found a {}-calibration schedule",
                        exact.calibrations
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// Solve with the product-form eta-file kernel under Dantzig pricing and
/// the pre-Harris baseline ratio test — the oracle differs from the base
/// solve (LU / devex / Harris) on the basis-factorization axis, the
/// pricing-rule axis, and the ratio-test axis, so agreement cross-checks
/// the Markowitz/Forrest–Tomlin kernel, devex partial pricing, and the
/// Harris two-pass rule in one shot.
fn dense_options() -> SolverOptions {
    let mut opts = SolverOptions::default();
    opts.long.lp = ise_simplex::SolveOptions {
        factorization: ise_simplex::Factorization::Eta,
        pricing: ise_simplex::Pricing::Dantzig,
        ratio_test: ise_simplex::RatioTest::Baseline,
        ..ise_simplex::SolveOptions::default()
    };
    opts
}

fn objectives_agree(a: f64, b: f64) -> bool {
    (a - b).abs() <= OBJ_TOL * (1.0 + a.abs())
}

fn check_dense(instance: &Instance, base: &Base) -> Result<(), Discrepancy> {
    let o = Oracle::Dense;
    let oracle = solve(instance, &dense_options());
    match (base, oracle) {
        (Base::Feasible(s), Ok(d)) => {
            validate(instance, &d.schedule).map_err(|e| {
                disc(
                    o,
                    format!("oracle-path (eta/Dantzig/baseline) schedule is invalid: {e}"),
                )
            })?;
            if !audit(instance, &d).all_ok() {
                return Err(disc(
                    o,
                    "oracle-path (eta/Dantzig/baseline) outcome fails the theorem audit",
                ));
            }
            if let (Some(sl), Some(dl)) = (&s.long, &d.long) {
                if !objectives_agree(sl.fractional.objective, dl.fractional.objective) {
                    return Err(disc(
                        o,
                        format!(
                            "LP objectives diverge: default {} vs oracle {}",
                            sl.fractional.objective, dl.fractional.objective
                        ),
                    ));
                }
            }
        }
        (Base::Infeasible(_), Err(SchedError::Infeasible { .. })) => {}
        (Base::Feasible(_), Err(e)) => {
            return Err(disc(
                o,
                format!("default path solved but the oracle path failed: {e}"),
            ));
        }
        (Base::Infeasible(reason), Ok(d)) => {
            return Err(disc(
                o,
                format!(
                    "default path certified infeasibility ({reason}) but the oracle path \
                     found {} calibrations",
                    d.schedule.num_calibrations()
                ),
            ));
        }
        (Base::Infeasible(_), Err(e)) => {
            return Err(disc(
                o,
                format!("oracle path failed with a non-verdict error: {e}"),
            ));
        }
    }
    Ok(())
}

fn check_warm(instance: &Instance, base: &Base) -> Result<(), Discrepancy> {
    let o = Oracle::Warm;
    let Base::Feasible(out) = base else {
        return Ok(());
    };
    let Some(long) = &out.long else {
        return Ok(()); // no LP ran; nothing to warm-start
    };
    let Some(basis) = &long.fractional.basis else {
        return Ok(());
    };
    let mut opts = SolverOptions::default();
    opts.long.warm_basis = Some(basis.clone());
    let warm = match solve(instance, &opts) {
        Ok(w) => w,
        Err(e) => {
            return Err(disc(
                o,
                format!("cold solve succeeded but the warm-started re-solve failed: {e}"),
            ));
        }
    };
    validate(instance, &warm.schedule)
        .map_err(|e| disc(o, format!("warm-started schedule is invalid: {e}")))?;
    let wl = warm
        .long
        .as_ref()
        .expect("warm solve kept the long pipeline");
    if !objectives_agree(long.fractional.objective, wl.fractional.objective) {
        return Err(disc(
            o,
            format!(
                "warm-start changed the LP optimum: cold {} vs warm {}",
                long.fractional.objective, wl.fractional.objective
            ),
        ));
    }
    // Same instance, same rhs: the warm path must land on the same vertex
    // and hence the same rounded schedule size.
    let (cold_cals, warm_cals) = (
        out.schedule.num_calibrations(),
        warm.schedule.num_calibrations(),
    );
    if cold_cals != warm_cals {
        return Err(disc(
            o,
            format!(
                "warm-start changed the result: cold {cold_cals} vs warm {warm_cals} calibrations"
            ),
        ));
    }
    Ok(())
}

fn check_engine(instance: &Instance, base: &Base) -> Result<(), Discrepancy> {
    let o = Oracle::Engine;
    // A fresh single-worker engine per check: no cross-instance warm-basis
    // or cache contamination, so the first response must reproduce the
    // direct solve exactly.
    let engine = Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let submit = |label: &str| -> Result<ise_engine::EngineResponse, Discrepancy> {
        engine
            .submit(EngineRequest::new(instance.clone()))
            .map(|slot| slot.wait())
            .map_err(|e| disc(o, format!("{label} submit refused: {e}")))
    };
    let first = submit("first")?;
    let second = submit("second")?;
    match base {
        Base::Feasible(out) => {
            if first.status != "ok" {
                return Err(disc(
                    o,
                    format!(
                        "direct solve succeeded but the engine returned status {:?} ({:?})",
                        first.status, first.error
                    ),
                ));
            }
            let engine_schedule = first
                .schedule
                .as_ref()
                .ok_or_else(|| disc(o, "ok response carried no schedule"))?;
            if *engine_schedule != out.schedule {
                return Err(disc(
                    o,
                    format!(
                        "engine schedule diverges from the direct solve \
                         ({} vs {} calibrations)",
                        engine_schedule.num_calibrations(),
                        out.schedule.num_calibrations()
                    ),
                ));
            }
        }
        Base::Infeasible(_) => {
            if first.status != "error" {
                return Err(disc(
                    o,
                    format!(
                        "direct solve certified infeasibility but the engine returned \
                         status {:?}",
                        first.status
                    ),
                ));
            }
        }
    }
    // The duplicate must be served from cache, bit-identical (errors are
    // not cached, so only expect a hit on success).
    if first.status == "ok" {
        if !second.cached {
            return Err(disc(o, "duplicate submission missed the result cache"));
        }
        if second.schedule != first.schedule {
            return Err(disc(o, "cached response differs from the original"));
        }
    }
    Ok(())
}

fn check_metamorphic(
    instance: &Instance,
    base: &Base,
    opts: &OracleOptions,
) -> Result<(), Discrepancy> {
    let o = Oracle::Metamorphic;
    let period = 2 * GAMMA * instance.calib_len().ticks();

    // Time-shift invariance: shifting all windows by a multiple of the
    // Algorithm 4 period 2γT translates both pipelines' structures
    // (calibration points r_j + kT, both interval partitions), so the
    // verdict and the calibration count must not change.
    for k in [1i64, 3] {
        let shifted = shift_time(instance, Dur(k * period));
        let shifted_verdict = solve(&shifted, &SolverOptions::default());
        match (base, shifted_verdict) {
            (Base::Feasible(out), Ok(s)) => {
                validate(&shifted, &s.schedule)
                    .map_err(|e| disc(o, format!("shifted schedule invalid: {e}")))?;
                let (a, b) = (
                    out.schedule.num_calibrations(),
                    s.schedule.num_calibrations(),
                );
                if a != b {
                    return Err(disc(
                        o,
                        format!(
                            "time-shift by {}·2γT changed the calibration count: {a} vs {b}",
                            k
                        ),
                    ));
                }
            }
            (Base::Infeasible(_), Err(SchedError::Infeasible { .. })) => {}
            (Base::Feasible(_), Err(e)) => {
                return Err(disc(o, format!("shifted copy failed: {e}")));
            }
            (Base::Infeasible(_), Ok(_)) => {
                return Err(disc(
                    o,
                    format!("infeasible instance became feasible under a {k}·2γT shift"),
                ));
            }
            (Base::Infeasible(_), Err(e)) => {
                return Err(disc(o, format!("shifted copy errored: {e}")));
            }
        }
    }

    if let Base::Feasible(out) = base {
        // Machine relabeling: reversing machine ids is a bijection, so the
        // relabeled schedule must stay valid with the same count.
        let mut relabeled = out.schedule.clone();
        let span = relabeled
            .calibrations
            .iter()
            .map(|c| c.machine)
            .chain(relabeled.placements.iter().map(|p| p.machine))
            .max()
            .unwrap_or(0);
        for c in &mut relabeled.calibrations {
            c.machine = span - c.machine;
        }
        for p in &mut relabeled.placements {
            p.machine = span - p.machine;
        }
        validate(instance, &relabeled)
            .map_err(|e| disc(o, format!("machine relabeling broke validity: {e}")))?;
        if relabeled.num_calibrations() != out.schedule.num_calibrations() {
            return Err(disc(o, "machine relabeling changed the calibration count"));
        }
    }

    // Widening one window enlarges the feasible set: a feasible instance
    // must stay feasible, and on exact-oracle-sized inputs the optimum
    // must not increase.
    if !instance.is_empty() {
        let widened = ise_workloads::widen_one_window(instance, opts.meta_seed);
        let widened_verdict = solve(&widened, &SolverOptions::default());
        if matches!(base, Base::Feasible(_)) {
            match widened_verdict {
                Ok(w) => {
                    validate(&widened, &w.schedule)
                        .map_err(|e| disc(o, format!("widened schedule invalid: {e}")))?;
                }
                Err(SchedError::Infeasible { reason }) => {
                    return Err(disc(
                        o,
                        format!(
                            "widening a window turned a feasible instance infeasible ({reason})"
                        ),
                    ));
                }
                Err(e) => return Err(disc(o, format!("widened copy errored: {e}"))),
            }
        }
        if instance.len() <= opts.exact_job_cap {
            let search = |inst: &Instance| {
                optimal(
                    inst,
                    &ExactOptions {
                        max_calibrations: opts.exact_calib_cap,
                        node_budget: opts.exact_node_budget,
                        ..ExactOptions::default()
                    },
                )
            };
            if let (Ok(Some(orig)), Ok(Some(wide))) = (search(instance), search(&widened)) {
                if wide.calibrations > orig.calibrations {
                    return Err(disc(
                        o,
                        format!(
                            "widening a window raised the exact optimum: {} -> {}",
                            orig.calibrations, wide.calibrations
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Derive a deterministic delta log from `(instance, seed)`.
///
/// The log is a pure function of the instance contents and the seed, so
/// the shrinker never has to manipulate it: shrinking the instance
/// re-derives a correspondingly smaller log, and a corpus repro replays
/// the exact same session it failed on.
///
/// The batches deliberately cover all three reuse tiers: a
/// machine-budget change (basis), a job addition (warm), and a
/// remove + window-shift batch (cold).
fn session_delta_log(instance: &Instance, seed: u64) -> Vec<Vec<ise_session::Delta>> {
    use ise_session::Delta;
    let r = |i: u64| crate::case_seed(seed ^ 0x5e55_1099, i);
    let t = instance.calib_len().ticks().max(1) as u64;
    let mut log = Vec::new();

    let machines = 1 + (r(0) as usize) % (instance.machines() + 2);
    log.push(vec![Delta::SetMachines(machines)]);

    let mut added = Vec::new();
    for i in 0..1 + r(1) % 2 {
        let proc = (1 + r(2 + i) % t) as i64;
        let release = (r(4 + i) % (4 * t)) as i64;
        let slack = (r(6 + i) % (2 * t)) as i64;
        added.push((release, release + proc + slack, proc));
    }
    let jobs_after_add = instance.len() + added.len();
    log.push(vec![Delta::AddJobs(added)]);

    let mut batch = vec![Delta::RemoveJobs(vec![(r(8) as usize) % jobs_after_add])];
    batch.push(Delta::ShiftWindows((1 + r(9) % 3) as i64 * t as i64));
    log.push(batch);
    log
}

/// Commit the session's staged deltas and compare the commit against a
/// from-scratch solve of the materialized instance.
fn verify_session_commit(
    session: &mut ise_session::Session,
    commit_idx: usize,
) -> Result<(), Discrepancy> {
    let o = Oracle::Session;
    let materialized = session.instance().clone();
    let commit = match session.commit() {
        Ok(c) => c,
        Err(ise_session::SessionError::Solve(e)) => {
            // A non-verdict error (budget, cancellation, ...) is only a
            // session bug if the cold path does NOT fail the same way.
            return match solve(&materialized, &SolverOptions::default()) {
                Err(cold) if cold.to_string() == e.to_string() => Ok(()),
                other => Err(disc(
                    o,
                    format!(
                        "commit {commit_idx} failed with `{e}` but the cold solve \
                         returned {other:?}"
                    ),
                )),
            };
        }
        Err(e) => return Err(disc(o, format!("commit {commit_idx} failed: {e}"))),
    };
    let tier = commit.telemetry.tier;
    match (
        &commit.verdict,
        solve(&materialized, &SolverOptions::default()),
    ) {
        (ise_session::Verdict::Feasible { report, schedule }, Ok(cold)) => {
            validate(&materialized, schedule).map_err(|e| {
                disc(
                    o,
                    format!("commit {commit_idx} ({tier} tier) schedule is invalid: {e}"),
                )
            })?;
            // The commit's report reuses the LP it solved (warm or not);
            // the cold recomputation is the arbiter.
            let cold_bounds = lower_bound(&materialized, &Default::default());
            if report.bounds != cold_bounds {
                return Err(disc(
                    o,
                    format!(
                        "commit {commit_idx} ({tier} tier) report bounds {:?} differ from \
                         the cold bounds {cold_bounds:?}",
                        report.bounds
                    ),
                ));
            }
            // Cold commits run the exact pipeline `solve` runs, so the
            // schedule must be bit-identical. Basis/warm commits start the
            // simplex from a cached basis and may stop at a different
            // optimal vertex, which permutes calibration placement without
            // changing the count — compare the vertex-independent outputs.
            if tier == ise_session::ReuseTier::Cold && *schedule != cold.schedule {
                return Err(disc(
                    o,
                    format!(
                        "commit {commit_idx} (cold tier) schedule differs from the \
                         from-scratch solve despite an identical code path"
                    ),
                ));
            }
            if schedule.num_calibrations() != cold.schedule.num_calibrations() {
                return Err(disc(
                    o,
                    format!(
                        "commit {commit_idx} ({tier} tier) diverges from the cold solve: \
                         {} vs {} calibrations",
                        schedule.num_calibrations(),
                        cold.schedule.num_calibrations()
                    ),
                ));
            }
            let cold_obj = cold.long.as_ref().map(|l| l.fractional.objective);
            match (report.lp_objective, cold_obj) {
                (Some(inc), Some(base)) if !objectives_agree(inc, base) => {
                    return Err(disc(
                        o,
                        format!(
                            "commit {commit_idx} ({tier} tier) LP objective {inc} diverges \
                             from the cold solve's {base}"
                        ),
                    ));
                }
                (Some(_), Some(_)) | (None, None) => {}
                (inc, base) => {
                    return Err(disc(
                        o,
                        format!(
                            "commit {commit_idx} ({tier} tier) ran a different pipeline \
                             than the cold solve: LP objective {inc:?} vs {base:?}"
                        ),
                    ));
                }
            }
        }
        (ise_session::Verdict::Infeasible { .. }, Err(SchedError::Infeasible { .. })) => {}
        (ise_session::Verdict::Feasible { schedule, .. }, Err(e)) => {
            return Err(disc(
                o,
                format!(
                    "commit {commit_idx} ({tier} tier) found {} calibrations but the \
                     cold solve failed: {e}",
                    schedule.num_calibrations()
                ),
            ));
        }
        (ise_session::Verdict::Infeasible { reason }, Ok(cold)) => {
            return Err(disc(
                o,
                format!(
                    "commit {commit_idx} ({tier} tier) certified infeasibility ({reason}) \
                     but the cold solve found {} calibrations",
                    cold.schedule.num_calibrations()
                ),
            ));
        }
        (ise_session::Verdict::Infeasible { reason }, Err(e)) => {
            return Err(disc(
                o,
                format!(
                    "commit {commit_idx} certified infeasibility ({reason}) but the cold \
                     solve failed differently: {e}"
                ),
            ));
        }
    }
    Ok(())
}

fn check_session(instance: &Instance, opts: &OracleOptions) -> Result<(), Discrepancy> {
    let mut session = ise_session::Session::open(instance.clone());

    // Commit 0 is the opened instance itself: the session's cold path must
    // reproduce the from-scratch verdict bit for bit.
    verify_session_commit(&mut session, 0)?;

    for (i, batch) in session_delta_log(instance, opts.meta_seed)
        .iter()
        .enumerate()
    {
        for delta in batch {
            session.apply(delta).map_err(|e| {
                disc(
                    Oracle::Session,
                    format!(
                        "derived delta {delta:?} was rejected at commit {}: {e}",
                        i + 1
                    ),
                )
            })?;
        }
        verify_session_commit(&mut session, i + 1)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_workloads::{uniform, WorkloadParams};

    #[test]
    fn oracle_names_round_trip() {
        let all = Oracle::parse_list("all").unwrap();
        assert_eq!(all, Oracle::ALL.to_vec());
        let two = Oracle::parse_list("exact,warm").unwrap();
        assert_eq!(two, vec![Oracle::Exact, Oracle::Warm]);
        assert!(Oracle::parse_list("frobnicate").is_err());
    }

    #[test]
    fn clean_workloads_pass_every_oracle() {
        for seed in 0..4u64 {
            let inst = uniform(
                &WorkloadParams {
                    jobs: 6,
                    machines: 2,
                    calib_len: 8,
                    horizon: 60,
                },
                seed,
            );
            let opts = OracleOptions {
                meta_seed: seed,
                ..OracleOptions::default()
            };
            if let Err(d) = check_instance(&inst, &Oracle::ALL, &opts) {
                panic!("seed {seed}: unexpected discrepancy: {d}");
            }
        }
    }
}
