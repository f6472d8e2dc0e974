//! Two-phase revised primal simplex.
//!
//! The basis is represented by a [`Factor`](crate::factor::Factor): by
//! default a sparse **LU factorization** with Markowitz-pivoting
//! reinversion every [`SolveOptions::refactor_every`] pivots,
//! Forrest–Tomlin updates in between, and hyper-sparse FTRAN/BTRAN whose
//! cost scales with the reach of the input support rather than the row
//! count. [`SolveOptions::factorization`] switches to the product-form
//! eta file or the original explicit dense `B⁻¹`, both retained as
//! cross-check oracles and as the last two rungs of the recovery ladder.
//!
//! Pricing is **devex partial pricing** by default
//! ([`Pricing::Devex`]): reference weights `γ_j` approximate the steepest-
//! edge norms, a rotating candidate window prices only a slice of the
//! nonbasic columns per iteration, and the entering variable maximizes
//! `d_j² / γ_j` among the improving candidates. When the window yields no
//! improving column the scan keeps extending — a wrap over every column
//! with nothing found certifies optimality. [`Pricing::Dantzig`] keeps the
//! original full most-negative-reduced-cost scan as a cross-check oracle.
//! Either rule switches to Bland's least-index rule while the iteration is
//! stuck on degenerate pivots, which guarantees termination; the
//! degenerate-pivot streak and the devex weights reset on refactorization
//! and at phase transitions.
//!
//! All per-iteration scratch (multipliers, pivot direction, candidate
//! list, devex weights, factorization staging) belongs to the solve: it is
//! allocated when the solve starts and reused across its iterations,
//! phases and refactorizations.
//!
//! Phase 1 minimizes the sum of artificial variables; artificial variables
//! that remain basic at level zero afterwards are driven out by zero-ratio
//! pivots, and rows where that is impossible are redundant and harmless
//! (their artificial is barred from re-entering and evicted by the
//! zero-ratio rule if it ever threatens to move).
//!
//! A solve can be **warm-started** from the [`Basis`] of a previous optimal
//! solution via [`solve_warm`]: if the basis still matches the program's
//! standard-form structure and is primal feasible for the (possibly
//! perturbed) right-hand side, phase 1 is skipped entirely.

// The pivot kernels index several parallel arrays (`w`, `xb`, `basis`) by
// row; iterator rewrites obscure the numerics for no gain.
#![allow(clippy::needless_range_loop)]

use crate::factor::{Factor, FactorScratch, Factorization, SpVec};
use crate::lu::reset_to;
use crate::problem::{Cmp, LinearProgram};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome classification of a solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveStatus {
    /// An optimal solution was found.
    Optimal,
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
}

/// An opaque snapshot of an optimal basis, reusable to warm-start a later
/// solve of a structurally identical program (same rows, variables, and
/// constraint senses — only the right-hand side and costs may differ).
///
/// Obtained from [`Solution::basis`]; consumed by [`solve_warm`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Basis {
    /// Basic variable per row, in standard-form indexing.
    pub(crate) vars: Vec<usize>,
    /// Fingerprint of the standard-form shape this basis belongs to.
    pub(crate) structure: u64,
}

/// Cooperative interruption hook for long solves. Implementations are
/// polled from inside the pivot loop every few dozen iterations; returning
/// `true` aborts the solve with [`SolverError::Interrupted`].
pub trait Interrupt: Send + Sync {
    /// Whether the solve should stop now.
    fn interrupted(&self) -> bool;
}

/// A cloneable, type-erased handle to an [`Interrupt`] source, carried by
/// [`SolveOptions::interrupt`].
#[derive(Clone)]
pub struct InterruptHandle(Arc<dyn Interrupt>);

impl InterruptHandle {
    /// Wrap an interrupt source.
    pub fn new(source: Arc<dyn Interrupt>) -> InterruptHandle {
        InterruptHandle(source)
    }

    /// Poll the underlying source.
    pub fn interrupted(&self) -> bool {
        self.0.interrupted()
    }
}

impl std::fmt::Debug for InterruptHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("InterruptHandle(..)")
    }
}

/// A solved LP.
#[derive(Clone, Debug)]
pub struct Solution {
    /// Status of the solve. `x`/`objective` are meaningful only for
    /// [`SolveStatus::Optimal`].
    pub status: SolveStatus,
    /// Optimal objective value.
    pub objective: f64,
    /// Optimal primal point (length = `lp.num_vars()`).
    pub x: Vec<f64>,
    /// Row duals (simplex multipliers) in the *original* row order and
    /// orientation, one per constraint; empty unless the status is
    /// [`SolveStatus::Optimal`]. A feasible dual vector certifies a lower
    /// bound on the optimum by weak duality — see
    /// [`crate::verify::check_dual`].
    pub duals: Vec<f64>,
    /// Total simplex iterations across both phases.
    pub iterations: usize,
    /// How many times the basis representation was rebuilt from scratch.
    pub refactorizations: usize,
    /// The optimal basis, present when the status is
    /// [`SolveStatus::Optimal`]; feed it back via [`solve_warm`] to skip
    /// phase 1 on a re-solve of the same structure.
    pub basis: Option<Basis>,
    /// Whether a supplied warm basis was accepted (phase 1 skipped).
    pub warm_used: bool,
    /// How pricing spent its effort across both phases.
    pub pricing: PricingStats,
    /// Numerical-health telemetry: residual-monitor readings, recovery
    /// activations, ratio-test statistics — accumulated across every
    /// attempt the recovery ladder made.
    pub numerics: NumericsReport,
}

/// Hard solver failures (distinct from infeasible/unbounded outcomes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolverError {
    /// The iteration limit was exceeded.
    IterationLimit { limit: usize },
    /// The basis matrix became numerically singular.
    SingularBasis,
    /// The solve was interrupted via [`SolveOptions::interrupt`].
    Interrupted,
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::IterationLimit { limit } => {
                write!(f, "simplex iteration limit {limit} exceeded")
            }
            SolverError::SingularBasis => write!(f, "basis matrix is numerically singular"),
            SolverError::Interrupted => write!(f, "solve interrupted"),
        }
    }
}

impl std::error::Error for SolverError {}

/// Entering-variable selection rule.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Pricing {
    /// Full scan, most negative reduced cost. The original rule, kept as a
    /// cross-check oracle.
    Dantzig,
    /// Devex partial pricing: rotating candidate window, entering variable
    /// by `d_j² / γ_j` against reference weights `γ`.
    #[default]
    Devex,
}

/// Deterministic counters describing how pricing spent its effort during a
/// solve. Reported on [`Solution::pricing`] and surfaced through the LP
/// telemetry layers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PricingStats {
    /// Total nonbasic columns whose reduced cost was computed.
    pub cols_scanned: u64,
    /// Iterations where the candidate window produced the entering column.
    pub window_hits: u64,
    /// Iterations that scanned past the window (including the terminal
    /// full wrap that certifies optimality, and every Dantzig/Bland scan).
    pub full_rescans: u64,
    /// Times the anti-cycling switch flipped from normal pricing to
    /// Bland's rule.
    pub bland_activations: u64,
}

/// Leaving-variable (ratio-test) selection rule.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RatioTest {
    /// Single-pass minimum-ratio rule with a largest-pivot tie-break. The
    /// original rule, kept as a cross-check baseline.
    Baseline,
    /// Harris-style two-pass rule: the first pass computes the loosest
    /// step permitted when every basic value may dip into a scale-aware
    /// feasibility band, the second pass picks the largest-magnitude pivot
    /// among the rows whose strict ratio fits under that bound. Trades a
    /// bounded feasibility violation for much better-conditioned pivots on
    /// degenerate and badly scaled programs.
    #[default]
    Harris,
}

/// Numerical-health telemetry for one solve: residual-monitor readings,
/// recovery-ladder activations, and ratio-test statistics. Reported on
/// [`Solution::numerics`] and surfaced through the LP telemetry layers.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NumericsReport {
    /// How many residual checks (`‖B·x_B − b‖∞ / (1 + ‖b‖∞)`) ran.
    pub residual_checks: u64,
    /// Largest relative residual observed across the whole solve,
    /// including failed attempts that the recovery ladder retried.
    pub max_residual: f64,
    /// Relative residual of the most recent check.
    pub last_residual: f64,
    /// Rung 1 activations: immediate mid-solve refactorizations forced by
    /// a residual above [`SolveOptions::residual_tol`].
    pub recoveries_refactor: u64,
    /// Rung 2 activations: full re-solves with the pivot tolerance raised
    /// 100x, so the ratio test and the pivot guard reject the small pivots
    /// a residual failure points to.
    pub recoveries_tighten: u64,
    /// Rung 3 activations: full re-solves under Dantzig full pricing.
    pub recoveries_dantzig: u64,
    /// Rung 4 activations: full re-solves on the product-form eta kernel
    /// (the first factorization fallback below the LU default).
    pub recoveries_eta: u64,
    /// Rung 5 activations: full re-solves on the dense explicit-inverse
    /// kernel (best effort — residual failures there are recorded, never
    /// escalated).
    pub recoveries_dense: u64,
    /// How many ratio tests ran (one per pivot selection).
    pub ratio_tests: u64,
    /// Harris pass-2 selections whose ratio strictly exceeded the
    /// single-pass minimum — pivots the baseline rule would have rejected.
    pub harris_relaxations: u64,
    /// Largest `nnz(L) + nnz(U)` any LU reinversion produced (zero when
    /// the solve never ran on the LU kernel).
    pub lu_fill_nnz: u64,
    /// Forrest–Tomlin updates applied by the LU kernel.
    pub lu_ft_updates: u64,
    /// FTRAN/BTRAN calls that ran entirely on the hyper-sparse path.
    pub lu_sparse_solves: u64,
    /// FTRAN/BTRAN calls that fell back to a dense pass.
    pub lu_dense_solves: u64,
}

impl NumericsReport {
    /// Total recovery-ladder activations across all rungs.
    pub fn recoveries_total(&self) -> u64 {
        self.recoveries_refactor
            + self.recoveries_tighten
            + self.recoveries_dantzig
            + self.recoveries_eta
            + self.recoveries_dense
    }

    /// Fold the report of one solve attempt into the accumulated report of
    /// the whole recovery ladder: counters add, the max residual keeps the
    /// worst reading, and the last residual tracks the newest attempt.
    fn absorb(&mut self, attempt: &NumericsReport) {
        self.residual_checks += attempt.residual_checks;
        self.max_residual = self.max_residual.max(attempt.max_residual);
        if attempt.residual_checks > 0 {
            self.last_residual = attempt.last_residual;
        }
        self.recoveries_refactor += attempt.recoveries_refactor;
        self.recoveries_tighten += attempt.recoveries_tighten;
        self.recoveries_dantzig += attempt.recoveries_dantzig;
        self.recoveries_eta += attempt.recoveries_eta;
        self.recoveries_dense += attempt.recoveries_dense;
        self.ratio_tests += attempt.ratio_tests;
        self.harris_relaxations += attempt.harris_relaxations;
        self.lu_fill_nnz = self.lu_fill_nnz.max(attempt.lu_fill_nnz);
        self.lu_ft_updates += attempt.lu_ft_updates;
        self.lu_sparse_solves += attempt.lu_sparse_solves;
        self.lu_dense_solves += attempt.lu_dense_solves;
    }
}

/// Test-only residual fault injection: force the next `n` residual checks
/// to report a failure, driving the recovery ladder without having to
/// construct a genuinely ill-conditioned basis. Thread-local, so parallel
/// tests cannot interfere with each other.
#[cfg(feature = "fault-inject")]
#[doc(hidden)]
pub mod fault {
    use std::cell::Cell;

    thread_local! {
        static FORCED_FAILURES: Cell<u32> = const { Cell::new(0) };
    }

    /// Arm the next `n` residual checks on this thread to fail.
    pub fn force_residual_failures(n: u32) {
        FORCED_FAILURES.with(|c| c.set(n));
    }

    /// Consume one armed failure, if any.
    pub(crate) fn take_forced_failure() -> bool {
        FORCED_FAILURES.with(|c| {
            let n = c.get();
            if n > 0 {
                c.set(n - 1);
                true
            } else {
                false
            }
        })
    }
}

/// Tunable solver parameters. The defaults suit the LPs in this workspace.
#[derive(Clone, Debug)]
pub struct SolveOptions {
    /// Primal feasibility tolerance.
    pub feas_tol: f64,
    /// Reduced-cost optimality tolerance.
    pub opt_tol: f64,
    /// Minimum acceptable pivot magnitude.
    pub pivot_tol: f64,
    /// Iteration limit; `0` selects `200 * (rows + cols) + 20_000`.
    pub max_iters: usize,
    /// Rebuild the basis representation after this many pivots.
    pub refactor_every: usize,
    /// Which basis kernel to run on: sparse LU with Forrest–Tomlin updates
    /// (the default), the product-form eta file, or the dense explicit
    /// inverse. The oracles must agree with LU on status and objective;
    /// the recovery ladder also falls back through them in that order.
    pub factorization: Factorization,
    /// Entering-variable selection rule.
    pub pricing: Pricing,
    /// Leaving-variable (ratio-test) selection rule.
    pub ratio_test: RatioTest,
    /// Residual-monitor cadence: on top of the check after every
    /// refactorization and the one on optimal exit, verify the basic
    /// system every `check_every` pivots. `0` disables the periodic
    /// checks (the refactorization and exit checks still run).
    pub check_every: usize,
    /// Relative-residual threshold (`‖B·x_B − b‖∞ / (1 + ‖b‖∞)`) above
    /// which the recovery ladder engages.
    pub residual_tol: f64,
    /// Candidate-window size for [`Pricing::Devex`]: how many eligible
    /// columns are priced per iteration before the best candidate is
    /// taken. `0` selects `clamp(cols / 8, 32, 256)`.
    pub pricing_window: usize,
    /// Optional cooperative-interruption hook polled inside the pivot loop.
    pub interrupt: Option<InterruptHandle>,
}

impl Default for SolveOptions {
    fn default() -> SolveOptions {
        SolveOptions {
            feas_tol: 1e-7,
            opt_tol: 1e-9,
            pivot_tol: 1e-8,
            max_iters: 0,
            refactor_every: 512,
            factorization: Factorization::default(),
            pricing: Pricing::default(),
            ratio_test: RatioTest::default(),
            check_every: 128,
            residual_tol: 1e-6,
            pricing_window: 0,
            interrupt: None,
        }
    }
}

/// How many pivot iterations pass between interrupt polls. Polling is a
/// virtual call plus an atomic load; amortizing it keeps the pivot loop
/// tight while still bounding interrupt latency to a few dozen pivots.
const INTERRUPT_POLL_MASK: usize = 31;

/// Solve `lp` to optimality (or detect infeasibility/unboundedness).
///
/// ```
/// use ise_simplex::{solve, Cmp, LinearProgram, SolveOptions, SolveStatus};
/// // min x + 2y  s.t.  x + y >= 3,  x <= 2.
/// let mut lp = LinearProgram::new();
/// let x = lp.add_var(1.0);
/// let y = lp.add_var(2.0);
/// lp.add_row([(x, 1.0), (y, 1.0)], Cmp::Ge, 3.0);
/// lp.add_row([(x, 1.0)], Cmp::Le, 2.0);
/// let sol = solve(&lp, &SolveOptions::default()).unwrap();
/// assert_eq!(sol.status, SolveStatus::Optimal);
/// assert!((sol.objective - 4.0).abs() < 1e-6);
/// ```
pub fn solve(lp: &LinearProgram, opts: &SolveOptions) -> Result<Solution, SolverError> {
    solve_warm(lp, opts, None)
}

/// Like [`solve`], optionally warm-starting from a previous optimal
/// [`Basis`]. A basis that no longer matches the program's structure or is
/// infeasible for the current right-hand side is silently ignored and the
/// solve falls back to a cold start; [`Solution::warm_used`] reports which
/// path ran.
pub fn solve_warm(
    lp: &LinearProgram,
    opts: &SolveOptions,
    warm: Option<&Basis>,
) -> Result<Solution, SolverError> {
    // Recovery ladder: attempt 0 runs with the caller's options; when the
    // residual monitor declares the attempt unstable (or the basis turns
    // out singular), each further attempt re-solves from scratch with a
    // progressively more conservative configuration. The final (dense)
    // rung never escalates, so the ladder always terminates.
    let mut carry = NumericsReport::default();
    for escalation in 0u8..=4 {
        if escalation > 0 {
            let _span = ise_obs::Span::enter("simplex.recovery");
            match escalation {
                1 => carry.recoveries_tighten += 1,
                2 => carry.recoveries_dantzig += 1,
                3 => carry.recoveries_eta += 1,
                _ => carry.recoveries_dense += 1,
            }
        }
        let mut tableau = Tableau::build(lp, rung_options(opts, escalation));
        tableau.escalation = escalation;
        let out = tableau.run(warm);
        let climb = tableau.unstable || matches!(out, Err(SolverError::SingularBasis));
        let fs = tableau.factor.stats();
        tableau.numerics.lu_fill_nnz = tableau.numerics.lu_fill_nnz.max(fs.fill_nnz);
        tableau.numerics.lu_ft_updates += fs.ft_updates;
        tableau.numerics.lu_sparse_solves += fs.sparse_solves;
        tableau.numerics.lu_dense_solves += fs.dense_solves;
        if tableau.lu_update_time > Duration::ZERO {
            ise_obs::Span::record("simplex.lu_update", tableau.lu_update_time);
        }
        carry.absorb(&tableau.numerics);
        if climb && escalation < 4 {
            continue;
        }
        return out.map(|mut sol| {
            sol.numerics = carry;
            sol
        });
    }
    unreachable!("the dense rung of the recovery ladder always returns")
}

/// Options for attempt `escalation` of the recovery ladder (0 = the
/// caller's own; attempt `k > 0` runs rung `k + 1`, since rung 1 is the
/// in-loop refactorization). Each rung keeps the earlier rungs' changes.
fn rung_options(opts: &SolveOptions, escalation: u8) -> SolveOptions {
    let mut eff = opts.clone();
    if escalation >= 1 {
        eff.pivot_tol = opts.pivot_tol * 1e2;
    }
    if escalation >= 2 {
        eff.pricing = Pricing::Dantzig;
    }
    if escalation >= 3 {
        eff.factorization = Factorization::Eta;
    }
    if escalation >= 4 {
        eff.factorization = Factorization::Dense;
    }
    eff
}

/// Variable classes in the standard-form program.
#[derive(Clone, Copy, PartialEq, Eq)]
enum VarKind {
    Structural,
    Slack,
    Artificial,
}

struct Tableau {
    opts: SolveOptions,
    m: usize,
    /// Sparse columns of the standard-form matrix (structural, then
    /// slack/surplus, then artificial).
    cols: Vec<Vec<(usize, f64)>>,
    kind: Vec<VarKind>,
    /// Phase-2 costs per standard-form variable.
    cost2: Vec<f64>,
    /// Normalized right-hand side (`>= 0`).
    b: Vec<f64>,
    /// Basic variable of each row.
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    /// Basis representation (sparse LU, eta file, or dense inverse).
    factor: Factor,
    /// Current basic solution values.
    xb: Vec<f64>,
    iterations: usize,
    refactorizations: usize,
    pivots_since_refactor: usize,
    num_structural: usize,
    has_artificials: bool,
    /// +1 per row, or -1 where normalization multiplied the row by -1.
    row_sign: Vec<f64>,
    /// Basic-cost vector (BTRAN input).
    cb: Vec<f64>,
    /// Simplex multipliers (BTRAN output; sparse-mode under the LU kernel
    /// when the basic costs are sparse).
    y: SpVec,
    /// Pivot direction (FTRAN output) with tracked nonzero support, so the
    /// ratio test, the basic-value update, and the eta/FT append walk only
    /// actual nonzeros instead of the full row range.
    w: SpVec,
    /// Row of `B⁻¹` for devex updates and driving out artificials
    /// (partial-BTRAN output under the LU kernel).
    rho: SpVec,
    /// `B·x_B` accumulator for the residual monitor.
    resid: Vec<f64>,
    /// Devex reference weights, indexed by standard-form column.
    weights: Vec<f64>,
    /// Improving candidates of the current pricing pass: `(column, d_j)`.
    candidates: Vec<(usize, f64)>,
    /// Refactorization staging buffers (see [`FactorScratch`]).
    factor_scratch: FactorScratch,
    stats: PricingStats,
    /// Rotating start of the devex candidate window.
    cursor: usize,
    /// Consecutive zero-step pivots; resets on progress, refactorization,
    /// and phase transitions.
    degenerate_streak: usize,
    /// Whether the anti-cycling least-index rule is active.
    bland: bool,
    /// Numerics telemetry for this attempt.
    numerics: NumericsReport,
    /// `1 + ‖b‖∞`: the scale of the right-hand side, shared by the
    /// residual monitor and the scale-aware degenerate-step gate.
    rhs_scale: f64,
    /// Which rung of the recovery ladder this attempt runs on (0 = the
    /// caller's configuration, 4 = the dense last resort).
    escalation: u8,
    /// Accumulated Forrest–Tomlin update time (recorded as the
    /// `simplex.lu_update` span when the LU kernel ran).
    lu_update_time: Duration,
    /// Set when a residual failure could not be repaired in-loop; tells
    /// the recovery ladder in [`solve_warm`] to climb to the next rung.
    unstable: bool,
}

impl Tableau {
    fn build(lp: &LinearProgram, opts: SolveOptions) -> Tableau {
        let m = lp.num_rows();
        let n = lp.num_vars();
        let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let mut kind = vec![VarKind::Structural; n];
        let mut cost2 = lp.objective().to_vec();
        let mut b = vec![0.0; m];
        let mut basis = vec![usize::MAX; m];

        // Normalize rows to rhs >= 0 and scatter coefficients into columns.
        let mut needs_artificial = Vec::with_capacity(m);
        let mut row_sign = Vec::with_capacity(m);
        for (i, row) in lp.rows().iter().enumerate() {
            let flip = row.rhs < 0.0;
            let sign = if flip { -1.0 } else { 1.0 };
            row_sign.push(sign);
            b[i] = row.rhs * sign;
            for &(v, a) in &row.coeffs {
                cols[v].push((i, a * sign));
            }
            let cmp = match (row.cmp, flip) {
                (Cmp::Eq, _) => Cmp::Eq,
                (Cmp::Le, false) | (Cmp::Ge, true) => Cmp::Le,
                (Cmp::Ge, false) | (Cmp::Le, true) => Cmp::Ge,
            };
            match cmp {
                Cmp::Le => {
                    // Slack enters the initial basis.
                    let s = cols.len();
                    cols.push(vec![(i, 1.0)]);
                    kind.push(VarKind::Slack);
                    cost2.push(0.0);
                    basis[i] = s;
                    needs_artificial.push(false);
                }
                Cmp::Ge => {
                    // Surplus column; basis seat filled by an artificial.
                    cols.push(vec![(i, -1.0)]);
                    kind.push(VarKind::Slack);
                    cost2.push(0.0);
                    needs_artificial.push(true);
                }
                Cmp::Eq => needs_artificial.push(true),
            }
        }
        let mut has_artificials = false;
        for (i, &needed) in needs_artificial.iter().enumerate() {
            if needed {
                let a = cols.len();
                cols.push(vec![(i, 1.0)]);
                kind.push(VarKind::Artificial);
                cost2.push(0.0);
                basis[i] = a;
                has_artificials = true;
            }
        }

        let total = cols.len();
        let mut in_basis = vec![false; total];
        for &v in &basis {
            in_basis[v] = true;
        }
        // Initial basis is the identity (slacks + artificials), so the
        // factor is the identity and xb = b.
        let factor = Factor::identity(m, opts.factorization);
        let rhs_scale = 1.0 + b.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
        Tableau {
            opts,
            m,
            cols,
            kind,
            cost2,
            b: b.clone(),
            basis,
            in_basis,
            factor,
            xb: b,
            iterations: 0,
            refactorizations: 0,
            pivots_since_refactor: 0,
            num_structural: n,
            has_artificials,
            row_sign,
            cb: Vec::new(),
            y: SpVec::default(),
            w: SpVec::default(),
            rho: SpVec::default(),
            resid: Vec::new(),
            weights: Vec::new(),
            candidates: Vec::new(),
            factor_scratch: FactorScratch::default(),
            stats: PricingStats::default(),
            cursor: 0,
            degenerate_streak: 0,
            bland: false,
            numerics: NumericsReport::default(),
            rhs_scale,
            escalation: 0,
            unstable: false,
            lu_update_time: Duration::ZERO,
        }
    }

    fn iter_limit(&self) -> usize {
        if self.opts.max_iters > 0 {
            self.opts.max_iters
        } else {
            200 * (self.m + self.cols.len()) + 20_000
        }
    }

    /// Fingerprint of the standard-form shape: row count plus the kind
    /// sequence of every column. Two programs share a fingerprint exactly
    /// when a basis (a set of standard-form column indices) from one is
    /// structurally meaningful in the other — rhs and costs may differ.
    fn structure_fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.m.hash(&mut h);
        self.cols.len().hash(&mut h);
        for k in &self.kind {
            let tag: u8 = match k {
                VarKind::Structural => 0,
                VarKind::Slack => 1,
                VarKind::Artificial => 2,
            };
            tag.hash(&mut h);
        }
        h.finish()
    }

    /// Try to install a warm-start basis: structure must match, the basis
    /// must be a valid set of distinct columns, it must factorize, and the
    /// resulting point must be primal feasible (with any basic artificials
    /// at level zero). On any failure the tableau is restored to its cold
    /// initial state and `false` is returned.
    fn try_install_warm(&mut self, warm: &Basis) -> bool {
        if self.m == 0
            || warm.vars.len() != self.m
            || warm.structure != self.structure_fingerprint()
        {
            return false;
        }
        let mut seen = vec![false; self.cols.len()];
        for &v in &warm.vars {
            if v >= self.cols.len() || seen[v] {
                return false;
            }
            seen[v] = true;
        }
        let cold_basis = self.basis.clone();
        self.basis.copy_from_slice(&warm.vars);
        let installed =
            self.factor
                .refactor_with(
                    &self.cols,
                    &mut self.basis,
                    &self.b,
                    &mut self.xb,
                    &mut self.factor_scratch,
                )
                .is_ok()
                && {
                    let scale = 1.0 + self.b.iter().map(|v| v.abs()).sum::<f64>();
                    let tol = self.opts.feas_tol * scale;
                    self.basis.iter().zip(&self.xb).all(|(&v, &x)| {
                        x >= -tol && (self.kind[v] != VarKind::Artificial || x <= tol)
                    })
                };
        if installed {
            self.refactorizations += 1;
            self.pivots_since_refactor = 0;
            for x in self.xb.iter_mut() {
                if *x < 0.0 {
                    *x = 0.0;
                }
            }
        } else {
            // Cold restart: identity factor over the slack/artificial basis,
            // reset in place to keep the factor's capacity.
            self.basis = cold_basis;
            self.factor.reset_identity();
            self.xb.copy_from_slice(&self.b);
            self.pivots_since_refactor = 0;
        }
        self.in_basis.iter_mut().for_each(|f| *f = false);
        for &v in &self.basis {
            self.in_basis[v] = true;
        }
        installed
    }

    fn run(&mut self, warm: Option<&Basis>) -> Result<Solution, SolverError> {
        let warm_used = match warm {
            Some(basis) => {
                let _span = ise_obs::Span::enter("simplex.warm_install");
                self.try_install_warm(basis)
            }
            None => false,
        };
        if self.m > 0 && self.has_artificials && !warm_used {
            let _phase1_span = ise_obs::Span::enter("simplex.phase1");
            let phase1_cost: Vec<f64> = self
                .kind
                .iter()
                .map(|k| if *k == VarKind::Artificial { 1.0 } else { 0.0 })
                .collect();
            let status = self.optimize(&phase1_cost, /*phase1=*/ true)?;
            debug_assert_eq!(status, SolveStatus::Optimal, "phase 1 is always bounded");
            let infeas: f64 = self
                .basis
                .iter()
                .zip(&self.xb)
                .filter(|&(&v, _)| self.kind[v] == VarKind::Artificial)
                .map(|(_, &x)| x)
                .sum();
            let scale = 1.0 + self.b.iter().map(|v| v.abs()).sum::<f64>();
            if infeas > self.opts.feas_tol * scale {
                return Ok(Solution {
                    status: SolveStatus::Infeasible,
                    objective: f64::NAN,
                    x: vec![0.0; self.num_structural],
                    duals: Vec::new(),
                    iterations: self.iterations,
                    refactorizations: self.refactorizations,
                    basis: None,
                    warm_used,
                    pricing: self.stats,
                    numerics: self.numerics,
                });
            }
            self.drive_out_artificials()?;
            if matches!(self.factor, Factor::Lu(_)) {
                // Phase 1 may have stacked many Forrest–Tomlin etas on top
                // of the initial factorization; start phase 2 from a fresh
                // Markowitz reinversion so its solves stay hyper-sparse.
                self.refactorize()?;
            }
        }

        let cost2 = self.cost2.clone();
        let phase2_span = ise_obs::Span::enter("simplex.phase2");
        let status = self.optimize(&cost2, /*phase1=*/ false)?;
        drop(phase2_span);
        // Guaranteed exit check: every solve with rows verifies its final
        // basic system at least once, however few pivots it took.
        if self.m > 0 && status == SolveStatus::Optimal {
            self.residual_guard()?;
        }
        let x = self.extract();
        let objective = cost2[..]
            .iter()
            .zip(&x_full(self, &x))
            .map(|(c, v)| c * v)
            .sum();
        let (duals, basis) = if status == SolveStatus::Optimal {
            let basis = Basis {
                vars: self.basis.clone(),
                structure: self.structure_fingerprint(),
            };
            (self.duals(&cost2), Some(basis))
        } else {
            (Vec::new(), None)
        };
        Ok(Solution {
            status,
            objective,
            x,
            duals,
            iterations: self.iterations,
            refactorizations: self.refactorizations,
            basis,
            warm_used,
            pricing: self.stats,
            numerics: self.numerics,
        })
    }

    /// Simplex multipliers `y = c_B B⁻¹` via BTRAN, mapped back to the
    /// original row orientation (rows normalized by `-1` get their dual
    /// negated).
    fn duals(&mut self, cost: &[f64]) -> Vec<f64> {
        let mut cb = vec![0.0; self.m];
        for (k, &bv) in self.basis.iter().enumerate() {
            cb[k] = cost[bv];
        }
        let mut y = self.factor.btran(self.m, cb);
        for (yi, &sign) in y.iter_mut().zip(&self.row_sign) {
            *yi *= sign;
        }
        y
    }

    #[inline]
    fn poll_interrupt(&self) -> Result<(), SolverError> {
        if self.iterations & INTERRUPT_POLL_MASK == 0 {
            if let Some(h) = &self.opts.interrupt {
                if h.interrupted() {
                    return Err(SolverError::Interrupted);
                }
            }
        }
        Ok(())
    }

    /// The main simplex loop for a given cost vector. Returns `Optimal` or
    /// `Unbounded`.
    fn optimize(&mut self, cost: &[f64], phase1: bool) -> Result<SolveStatus, SolverError> {
        // Phase transition: pricing state from the previous phase is
        // meaningless against the new objective — reset the degenerate
        // streak, the Bland switch, the window cursor, and the devex
        // reference weights together.
        self.reset_pricing_state();
        let mut pricing_time = Duration::ZERO;
        let result = self.optimize_inner(cost, phase1, &mut pricing_time);
        ise_obs::Span::record("simplex.pricing", pricing_time);
        result
    }

    fn optimize_inner(
        &mut self,
        cost: &[f64],
        phase1: bool,
        pricing_time: &mut Duration,
    ) -> Result<SolveStatus, SolverError> {
        let limit = self.iter_limit();
        loop {
            if self.iterations >= limit {
                return Err(SolverError::IterationLimit { limit });
            }
            self.iterations += 1;
            self.poll_interrupt()?;
            if self.pivots_since_refactor >= self.opts.refactor_every {
                self.refactorize()?;
                self.residual_guard()?;
            } else if self.opts.check_every > 0
                && self.pivots_since_refactor > 0
                && self
                    .pivots_since_refactor
                    .is_multiple_of(self.opts.check_every)
            {
                self.residual_guard()?;
            }

            // Simplex multipliers y = c_Bᵀ B⁻¹ via BTRAN.
            reset_to(&mut self.cb, self.m, 0.0);
            for (i, &bv) in self.basis.iter().enumerate() {
                self.cb[i] = cost[bv];
            }
            self.factor.btran_into(self.m, &self.cb, &mut self.y);

            // Pricing.
            let pricing_start = Instant::now();
            let entering = self.price(cost, phase1);
            *pricing_time += pricing_start.elapsed();
            let Some(entering) = entering else {
                return Ok(SolveStatus::Optimal);
            };

            // Direction w = B⁻¹ A_j via FTRAN.
            self.factor
                .ftran_col_into(self.m, &self.cols[entering], &mut self.w);

            let (leaving, theta) = self.select_leaving();
            if leaving == usize::MAX {
                if phase1 {
                    // Phase 1 is bounded below by 0; an unbounded ray means
                    // numerical trouble. Refactorize and retry once per
                    // refactor window.
                    self.refactorize()?;
                    continue;
                }
                return Ok(SolveStatus::Unbounded);
            }

            // Anti-cycling: long runs of zero-step pivots switch to Bland.
            // The gate is relative to the right-hand-side scale — on a
            // program with ‖b‖∞ ~ 1e6 a step of 1e-9 is still degenerate.
            if theta <= 1e-12 * self.rhs_scale {
                self.degenerate_streak += 1;
                if self.degenerate_streak > 64 && !self.bland {
                    self.bland = true;
                    self.stats.bland_activations += 1;
                }
            } else {
                self.degenerate_streak = 0;
                self.bland = false;
            }

            if !self.bland && self.opts.pricing == Pricing::Devex {
                self.update_devex_weights(entering, leaving);
            }
            self.pivot(entering, leaving, theta)?;
        }
    }

    /// Strict minimum-ratio contribution of row `i` for the direction in
    /// `w`, or `None` when the row does not limit the step. Artificial
    /// basics at level ~0 leave at ratio 0 on any significant movement
    /// (either direction) so they can never become positive.
    #[inline]
    fn row_ratio(&self, i: usize) -> Option<f64> {
        let wi = self.w.vals()[i];
        let basic_is_artificial = self.kind[self.basis[i]] == VarKind::Artificial;
        let artificial_at_zero = basic_is_artificial && self.xb[i] <= self.opts.feas_tol;
        if artificial_at_zero && wi.abs() > self.opts.pivot_tol {
            Some(0.0)
        } else if wi > self.opts.pivot_tol {
            Some((self.xb[i].max(0.0)) / wi)
        } else {
            None
        }
    }

    /// Scale-aware tie tolerance for ratio comparisons: absolute `1e-12`
    /// near the origin, relative far from it.
    #[inline]
    fn ratio_tie_tol(theta: f64) -> f64 {
        1e-12 * (1.0 + theta.abs())
    }

    /// Select the leaving row and step length for the direction in `w`;
    /// `(usize::MAX, ∞)` means no row limits the step. Dispatches on
    /// [`SolveOptions::ratio_test`]; while Bland's anti-cycling rule is
    /// active the baseline least-index variant is used regardless, because
    /// the termination proof needs it.
    fn select_leaving(&mut self) -> (usize, f64) {
        self.numerics.ratio_tests += 1;
        if self.opts.ratio_test == RatioTest::Harris && !self.bland {
            self.select_leaving_harris()
        } else {
            self.select_leaving_baseline()
        }
    }

    /// Single-pass minimum-ratio rule. Ties (within the scale-aware band)
    /// break toward the largest pivot magnitude, or toward the least basis
    /// index under Bland's rule.
    fn select_leaving_baseline(&mut self) -> (usize, f64) {
        let mut leaving = usize::MAX;
        let mut theta = f64::INFINITY;
        let mut best_piv = 0.0f64;
        // Rows outside the direction's support have w_i = 0 and can never
        // limit the step, so the scan walks the tracked nonzeros only.
        for i in self.w.support() {
            let Some(ratio) = self.row_ratio(i) else {
                continue;
            };
            let wi = self.w.vals()[i];
            let better = if leaving == usize::MAX {
                true
            } else {
                let tie = Tableau::ratio_tie_tol(theta);
                if self.bland {
                    ratio < theta - tie
                        || (ratio < theta + tie && self.basis[i] < self.basis[leaving])
                } else {
                    ratio < theta - tie || (ratio < theta + tie && wi.abs() > best_piv)
                }
            };
            if better {
                theta = ratio;
                leaving = i;
                best_piv = wi.abs();
            }
        }
        (leaving, theta)
    }

    /// Harris two-pass ratio test. Pass 1 finds the loosest step `Θ` such
    /// that every basic value stays above its scale-aware feasibility band
    /// `−δ_i`, `δ_i = feas_tol · (1 + |x_i|)`; pass 2 picks the
    /// largest-magnitude pivot among the rows whose strict ratio is at
    /// most `Θ`. The chosen row's own (strict, clamped to ≥ 0) ratio is
    /// the step, so feasibility drift stays inside the band.
    fn select_leaving_harris(&mut self) -> (usize, f64) {
        let mut theta_max = f64::INFINITY;
        let mut any = false;
        for i in self.w.support() {
            let wi = self.w.vals()[i];
            let basic_is_artificial = self.kind[self.basis[i]] == VarKind::Artificial;
            let artificial_at_zero = basic_is_artificial && self.xb[i] <= self.opts.feas_tol;
            let delta = self.opts.feas_tol * (1.0 + self.xb[i].abs());
            if artificial_at_zero && wi.abs() > self.opts.pivot_tol {
                any = true;
                theta_max = theta_max.min(delta / wi.abs());
            } else if wi > self.opts.pivot_tol {
                any = true;
                theta_max = theta_max.min((self.xb[i].max(0.0) + delta) / wi);
            }
        }
        if !any {
            return (usize::MAX, f64::INFINITY);
        }
        let mut leaving = usize::MAX;
        let mut theta = f64::INFINITY;
        let mut strict = f64::INFINITY;
        let mut best_piv = 0.0f64;
        for i in self.w.support() {
            let Some(ratio) = self.row_ratio(i) else {
                continue;
            };
            strict = strict.min(ratio);
            let wi = self.w.vals()[i];
            if ratio <= theta_max && wi.abs() > best_piv {
                best_piv = wi.abs();
                leaving = i;
                theta = ratio;
            }
        }
        if leaving == usize::MAX {
            // Every limiting row's strict ratio exceeded the expanded
            // bound (possible only through rounding at the margin); fall
            // back to the strict rule rather than return an empty pick.
            return self.select_leaving_baseline();
        }
        if theta > strict + Tableau::ratio_tie_tol(strict) {
            self.numerics.harris_relaxations += 1;
        }
        (leaving, theta.max(0.0))
    }

    /// One residual-monitor reading: `‖B·x_B − b‖∞ / (1 + ‖b‖∞)`, the
    /// backward error of the basic system, computed by scattering the
    /// basis columns against the current basic values (FTRAN-shaped cost).
    fn observe_residual(&mut self) -> f64 {
        reset_to(&mut self.resid, self.m, 0.0);
        let resid = &mut self.resid[..self.m];
        resid.iter_mut().for_each(|v| *v = 0.0);
        for (k, &bv) in self.basis.iter().enumerate() {
            let x = self.xb[k];
            if x != 0.0 {
                for &(r, a) in &self.cols[bv] {
                    resid[r] += a * x;
                }
            }
        }
        let mut err = 0.0f64;
        for (ri, bi) in resid.iter().zip(&self.b) {
            err = err.max((ri - bi).abs());
        }
        let rel = err / self.rhs_scale;
        #[cfg(feature = "fault-inject")]
        let rel = if crate::solver::fault::take_forced_failure() {
            rel + 10.0 * self.opts.residual_tol.max(1e-3)
        } else {
            rel
        };
        self.numerics.residual_checks += 1;
        self.numerics.last_residual = rel;
        self.numerics.max_residual = self.numerics.max_residual.max(rel);
        rel
    }

    /// Run one residual check (span `simplex.residual_check`). On failure,
    /// rung 1 of the recovery ladder refactorizes in place and re-checks
    /// (span `simplex.recovery`); a failure that survives — or any failure
    /// on an already-escalated attempt — marks the solve unstable so the
    /// recovery ladder in [`solve_warm`] climbs to the next rung. The
    /// dense last rung records the failure and carries on: it has no
    /// better kernel to hand over to.
    fn residual_guard(&mut self) -> Result<(), SolverError> {
        let rel = {
            let _span = ise_obs::Span::enter("simplex.residual_check");
            self.observe_residual()
        };
        if rel <= self.opts.residual_tol {
            return Ok(());
        }
        if self.escalation == 0 {
            let _span = ise_obs::Span::enter("simplex.recovery");
            self.numerics.recoveries_refactor += 1;
            self.refactorize()?;
            let rel = {
                let _span = ise_obs::Span::enter("simplex.residual_check");
                self.observe_residual()
            };
            if rel <= self.opts.residual_tol {
                return Ok(());
            }
        }
        if self.escalation >= 4 {
            return Ok(());
        }
        self.unstable = true;
        // Carrier error: solve_warm consumes it (together with the
        // `unstable` flag) and re-solves on the next rung; it is never
        // surfaced to callers.
        Err(SolverError::SingularBasis)
    }

    /// Reset the anti-cycling state and the devex reference framework
    /// (all weights back to 1). Called at phase transitions; the weight
    /// and streak portion also runs on every refactorization.
    fn reset_pricing_state(&mut self) {
        self.degenerate_streak = 0;
        self.bland = false;
        self.cursor = 0;
        reset_to(&mut self.weights, self.cols.len(), 1.0);
    }

    /// Effective devex candidate-window size for this program.
    fn effective_window(&self) -> usize {
        let n = self.cols.len();
        let w = if self.opts.pricing_window > 0 {
            self.opts.pricing_window
        } else {
            (n / 8).clamp(32, 256)
        };
        w.min(n.max(1))
    }

    /// Whether column `j` may be priced: nonbasic, and artificials may
    /// never (re-)enter once costed out.
    #[inline]
    fn eligible(&self, j: usize, cost: &[f64], phase1: bool) -> bool {
        !self.in_basis[j] && !(self.kind[j] == VarKind::Artificial && (!phase1 || cost[j] == 0.0))
    }

    /// Reduced cost `d_j = c_j - yᵀ A_j` against the current multipliers.
    #[inline]
    fn reduced_cost(&self, j: usize, cost: &[f64]) -> f64 {
        let mut d = cost[j];
        let y = self.y.vals();
        for &(r, a) in &self.cols[j] {
            d -= y[r] * a;
        }
        d
    }

    /// Select the entering column, or `None` when the current point is
    /// optimal. Counts pricing effort in [`Tableau::stats`].
    fn price(&mut self, cost: &[f64], phase1: bool) -> Option<usize> {
        let n = self.cols.len();
        if n == 0 {
            return None;
        }
        if self.bland {
            // Least-index rule: the first improving column, scanned from 0.
            let mut scanned = 0u64;
            for j in 0..n {
                if !self.eligible(j, cost, phase1) {
                    continue;
                }
                scanned += 1;
                if self.reduced_cost(j, cost) < -self.opts.opt_tol {
                    self.stats.cols_scanned += scanned;
                    return Some(j);
                }
            }
            self.stats.cols_scanned += scanned;
            self.stats.full_rescans += 1;
            return None;
        }
        match self.opts.pricing {
            Pricing::Dantzig => {
                let mut entering = None;
                let mut best = -self.opts.opt_tol;
                let mut scanned = 0u64;
                for j in 0..n {
                    if !self.eligible(j, cost, phase1) {
                        continue;
                    }
                    scanned += 1;
                    let d = self.reduced_cost(j, cost);
                    if d < best {
                        best = d;
                        entering = Some(j);
                    }
                }
                self.stats.cols_scanned += scanned;
                self.stats.full_rescans += 1;
                entering
            }
            Pricing::Devex => {
                let window = self.effective_window();
                self.candidates.clear();
                let start = if self.cursor >= n { 0 } else { self.cursor };
                let mut examined = 0usize;
                let mut last = start;
                for k in 0..n {
                    let mut j = start + k;
                    if j >= n {
                        j -= n;
                    }
                    last = j;
                    if !self.eligible(j, cost, phase1) {
                        continue;
                    }
                    examined += 1;
                    let d = self.reduced_cost(j, cost);
                    if d < -self.opts.opt_tol {
                        self.candidates.push((j, d));
                    }
                    // Keep scanning past the window until at least one
                    // improving candidate has been found; a full wrap with
                    // none certifies optimality.
                    if examined >= window && !self.candidates.is_empty() {
                        break;
                    }
                }
                self.stats.cols_scanned += examined as u64;
                self.cursor = if last + 1 >= n { 0 } else { last + 1 };
                if self.candidates.is_empty() {
                    self.stats.full_rescans += 1;
                    return None;
                }
                if examined <= window {
                    self.stats.window_hits += 1;
                } else {
                    self.stats.full_rescans += 1;
                }
                let mut entering = usize::MAX;
                let mut best_score = 0.0f64;
                for &(j, d) in &self.candidates {
                    let score = d * d / self.weights[j];
                    if score > best_score {
                        best_score = score;
                        entering = j;
                    }
                }
                Some(entering)
            }
        }
    }

    /// Devex reference-weight update for the pivot `entering` ↔ basis row
    /// `leaving_row` (Forrest–Goldfarb): with `ρ = e_rᵀ B⁻¹`,
    /// `α_j = ρ · A_j`, and `α_q` the pivot element,
    /// `γ_j ← max(γ_j, (α_j/α_q)² γ_q)` for the priced candidates, and the
    /// leaving variable inherits `γ_t ← max(γ_q/α_q², 1)`. Only the
    /// columns actually priced this iteration are updated — the classic
    /// partial-pricing compromise.
    fn update_devex_weights(&mut self, entering: usize, leaving_row: usize) {
        let alpha_q = self.w.vals()[leaving_row];
        if alpha_q.abs() <= self.opts.pivot_tol {
            // pivot() will refactorize instead of pivoting; the weights
            // reset there.
            return;
        }
        let gamma_q = self.weights[entering].max(1.0);
        self.factor
            .row_of_inverse_into(self.m, leaving_row, &mut self.rho);
        for &(j, _) in &self.candidates {
            if j == entering {
                continue;
            }
            let mut alpha_j = 0.0;
            let rho = self.rho.vals();
            for &(r, a) in &self.cols[j] {
                alpha_j += rho[r] * a;
            }
            let ratio = alpha_j / alpha_q;
            let cand = ratio * ratio * gamma_q;
            if cand > self.weights[j] {
                self.weights[j] = cand;
            }
        }
        let leaving_var = self.basis[leaving_row];
        self.weights[leaving_var] = (gamma_q / (alpha_q * alpha_q)).max(1.0);
    }

    /// Pivot on the direction currently held in `w`.
    fn pivot(
        &mut self,
        entering: usize,
        leaving_row: usize,
        theta: f64,
    ) -> Result<(), SolverError> {
        let piv = self.w.vals()[leaving_row];
        if piv.abs() < self.opts.pivot_tol {
            // Extremely small pivot: rebuild and hope pricing picks a better
            // column next round.
            return self.refactorize();
        }
        // Update basic values over the direction's tracked support — rows
        // outside it move by exactly zero (the clamp to the feasibility
        // floor only matters for rows the step actually touched).
        for i in self.w.support() {
            if i != leaving_row {
                self.xb[i] = (self.xb[i] - theta * self.w.vals()[i]).max(-self.opts.feas_tol);
            }
        }
        self.xb[leaving_row] = theta;

        let timed = matches!(self.factor, Factor::Lu(_));
        let start = timed.then(Instant::now);
        let applied = self.factor.update(leaving_row, &self.w);
        if let Some(start) = start {
            self.lu_update_time += start.elapsed();
        }

        let old = self.basis[leaving_row];
        self.in_basis[old] = false;
        self.in_basis[entering] = true;
        self.basis[leaving_row] = entering;
        self.pivots_since_refactor += 1;
        if !applied {
            // The Forrest–Tomlin update refused the pivot on stability
            // grounds; the factor is stale until rebuilt from the (already
            // swapped) basis columns.
            self.refactorize()?;
        }
        Ok(())
    }

    /// Rebuild the basis representation from scratch and recompute the
    /// basic values from it. The devex reference framework and the
    /// degenerate-pivot streak are tied to the replaced factorization, so
    /// both reset here (the Bland switch itself only clears on a nonzero
    /// step).
    fn refactorize(&mut self) -> Result<(), SolverError> {
        let _span = ise_obs::Span::enter("simplex.refactor");
        let _lu_span =
            matches!(self.factor, Factor::Lu(_)).then(|| ise_obs::Span::enter("simplex.lu_factor"));
        self.factor.refactor_with(
            &self.cols,
            &mut self.basis,
            &self.b,
            &mut self.xb,
            &mut self.factor_scratch,
        )?;
        self.pivots_since_refactor = 0;
        self.refactorizations += 1;
        self.degenerate_streak = 0;
        reset_to(&mut self.weights, self.cols.len(), 1.0);
        Ok(())
    }

    /// After phase 1: pivot still-basic artificials out wherever a
    /// non-artificial column has a usable pivot element in their row.
    fn drive_out_artificials(&mut self) -> Result<(), SolverError> {
        for row in 0..self.m {
            if self.kind[self.basis[row]] != VarKind::Artificial {
                continue;
            }
            self.factor.row_of_inverse_into(self.m, row, &mut self.rho);
            let mut found = None;
            'search: for j in 0..self.cols.len() {
                if self.in_basis[j] || self.kind[j] == VarKind::Artificial {
                    continue;
                }
                // w_row = (B⁻¹ A_j)[row]
                let mut w_row = 0.0;
                let rho = self.rho.vals();
                for &(r, a) in &self.cols[j] {
                    w_row += a * rho[r];
                }
                if w_row.abs() > 1e-6 {
                    found = Some(j);
                    break 'search;
                }
            }
            if let Some(j) = found {
                self.factor
                    .ftran_col_into(self.m, &self.cols[j], &mut self.w);
                self.pivot(j, row, 0.0)?;
            }
            // If no pivot exists the row is linearly dependent; the
            // artificial stays basic at zero and is evicted by the
            // zero-ratio rule if anything tries to move it.
        }
        Ok(())
    }

    /// Read the structural part of the current basic solution.
    fn extract(&self) -> Vec<f64> {
        let mut x = vec![0.0; self.num_structural];
        for (i, &bv) in self.basis.iter().enumerate() {
            if bv < self.num_structural {
                x[bv] = self.xb[i].max(0.0);
            }
        }
        x
    }
}

/// Expand a structural solution to the standard-form length for objective
/// evaluation (slacks contribute zero cost, so their values are irrelevant).
fn x_full(t: &Tableau, x: &[f64]) -> Vec<f64> {
    let mut full = vec![0.0; t.cols.len()];
    full[..x.len()].copy_from_slice(x);
    full
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Cmp, LinearProgram};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "expected {b}, got {a}");
    }

    const ALL_KERNELS: [Factorization; 3] =
        [Factorization::Lu, Factorization::Eta, Factorization::Dense];

    /// Run a test body against every basis representation.
    fn both_paths(f: impl Fn(SolveOptions)) {
        for factorization in ALL_KERNELS {
            f(SolveOptions {
                factorization,
                ..SolveOptions::default()
            });
        }
    }

    /// Run a test body against every (basis representation × pricing rule)
    /// combination.
    fn all_modes(f: impl Fn(SolveOptions)) {
        for factorization in ALL_KERNELS {
            for pricing in [Pricing::Dantzig, Pricing::Devex] {
                f(SolveOptions {
                    factorization,
                    pricing,
                    ..SolveOptions::default()
                });
            }
        }
    }

    #[test]
    fn simple_2d_minimization() {
        // min x + 2y  s.t.  x + y >= 3, x <= 2  => x=2, y=1, obj=4.
        both_paths(|opts| {
            let mut lp = LinearProgram::new();
            let x = lp.add_var(1.0);
            let y = lp.add_var(2.0);
            lp.add_row([(x, 1.0), (y, 1.0)], Cmp::Ge, 3.0);
            lp.add_row([(x, 1.0)], Cmp::Le, 2.0);
            let sol = solve(&lp, &opts).unwrap();
            assert_eq!(sol.status, SolveStatus::Optimal);
            assert_close(sol.objective, 4.0, 1e-6);
            assert_close(sol.x[x], 2.0, 1e-6);
            assert_close(sol.x[y], 1.0, 1e-6);
        });
    }

    #[test]
    fn equality_constraints() {
        // min 3x + y  s.t.  x + y = 4, x - y = 2  => x=3, y=1, obj=10.
        both_paths(|opts| {
            let mut lp = LinearProgram::new();
            let x = lp.add_var(3.0);
            let y = lp.add_var(1.0);
            lp.add_row([(x, 1.0), (y, 1.0)], Cmp::Eq, 4.0);
            lp.add_row([(x, 1.0), (y, -1.0)], Cmp::Eq, 2.0);
            let sol = solve(&lp, &opts).unwrap();
            assert_eq!(sol.status, SolveStatus::Optimal);
            assert_close(sol.objective, 10.0, 1e-6);
        });
    }

    #[test]
    fn detects_infeasible() {
        // x <= 1 and x >= 2 cannot both hold.
        both_paths(|opts| {
            let mut lp = LinearProgram::new();
            let x = lp.add_var(1.0);
            lp.add_row([(x, 1.0)], Cmp::Le, 1.0);
            lp.add_row([(x, 1.0)], Cmp::Ge, 2.0);
            let sol = solve(&lp, &opts).unwrap();
            assert_eq!(sol.status, SolveStatus::Infeasible);
            assert!(sol.basis.is_none());
        });
    }

    #[test]
    fn detects_unbounded() {
        // min -x  s.t.  x >= 1: x can grow forever.
        both_paths(|opts| {
            let mut lp = LinearProgram::new();
            let x = lp.add_var(-1.0);
            lp.add_row([(x, 1.0)], Cmp::Ge, 1.0);
            let sol = solve(&lp, &opts).unwrap();
            assert_eq!(sol.status, SolveStatus::Unbounded);
        });
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // min x  s.t.  -x <= -5  (i.e. x >= 5).
        both_paths(|opts| {
            let mut lp = LinearProgram::new();
            let x = lp.add_var(1.0);
            lp.add_row([(x, -1.0)], Cmp::Le, -5.0);
            let sol = solve(&lp, &opts).unwrap();
            assert_eq!(sol.status, SolveStatus::Optimal);
            assert_close(sol.x[x], 5.0, 1e-6);
        });
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic degeneracy: many redundant constraints through the origin.
        // Runs under every (factor × pricing) mode — the Beale example is
        // the regression test for the anti-cycling bookkeeping (the
        // degenerate streak and devex weights reset on refactorization and
        // phase transitions; Bland clears only on a nonzero step).
        all_modes(|opts| {
            let mut lp = LinearProgram::new();
            let x = lp.add_var(-0.75);
            let y = lp.add_var(150.0);
            let z = lp.add_var(-0.02);
            let w = lp.add_var(6.0);
            // Beale's cycling example (with Dantzig pricing it cycles without
            // anti-cycling safeguards).
            lp.add_row([(x, 0.25), (y, -60.0), (z, -0.04), (w, 9.0)], Cmp::Le, 0.0);
            lp.add_row([(x, 0.5), (y, -90.0), (z, -0.02), (w, 3.0)], Cmp::Le, 0.0);
            lp.add_row([(z, 1.0)], Cmp::Le, 1.0);
            let sol = solve(&lp, &opts).unwrap();
            assert_eq!(sol.status, SolveStatus::Optimal);
            assert_close(sol.objective, -0.05, 1e-6);
        });
    }

    #[test]
    fn empty_lp_is_trivially_optimal() {
        let lp = LinearProgram::new();
        let sol = solve(&lp, &SolveOptions::default()).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert_eq!(sol.objective, 0.0);
    }

    #[test]
    fn no_rows_negative_cost_is_unbounded() {
        // A variable in no row: a negative cost is an unbounded ray,
        // with or without other rows; a nonnegative cost leaves it at 0.
        all_modes(|opts| {
            let mut lp = LinearProgram::new();
            lp.add_var(-1.0);
            let sol = solve(&lp, &opts).unwrap();
            assert_eq!(sol.status, SolveStatus::Unbounded);

            let mut lp = LinearProgram::new();
            lp.add_var(-1.0);
            let y = lp.add_var(1.0);
            lp.add_row([(y, 1.0)], Cmp::Ge, 1.0);
            let sol = solve(&lp, &opts).unwrap();
            assert_eq!(sol.status, SolveStatus::Unbounded);

            let mut lp = LinearProgram::new();
            let x = lp.add_var(0.5);
            let y = lp.add_var(1.0);
            lp.add_row([(y, 1.0)], Cmp::Ge, 1.0);
            let sol = solve(&lp, &opts).unwrap();
            assert_eq!(sol.status, SolveStatus::Optimal);
            assert_close(sol.objective, 1.0, 1e-6);
            assert_close(sol.x[x], 0.0, 1e-9);
        });
    }

    #[test]
    fn empty_rows_decide_only_when_violated() {
        all_modes(|opts| {
            // `0 >= 3` cannot hold.
            let mut lp = LinearProgram::new();
            let x = lp.add_var(1.0);
            lp.add_row([(x, 0.0)], Cmp::Ge, 3.0);
            lp.add_row([(x, 1.0)], Cmp::Ge, 2.0);
            let sol = solve(&lp, &opts).unwrap();
            assert_eq!(sol.status, SolveStatus::Infeasible);

            // `0 <= 5` always holds and changes nothing.
            let mut lp = LinearProgram::new();
            let x = lp.add_var(1.0);
            lp.add_row([(x, 0.0)], Cmp::Le, 5.0);
            lp.add_row([(x, 1.0)], Cmp::Ge, 2.0);
            let sol = solve(&lp, &opts).unwrap();
            assert_eq!(sol.status, SolveStatus::Optimal);
            assert_close(sol.objective, 2.0, 1e-6);
            assert_eq!(sol.duals.len(), 2);
        });
    }

    #[test]
    fn redundant_rows_are_handled() {
        all_modes(|opts| {
            // Duplicate equality rows leave an artificial basic at zero.
            let mut lp = LinearProgram::new();
            let x = lp.add_var(1.0);
            let y = lp.add_var(1.0);
            lp.add_row([(x, 1.0), (y, 1.0)], Cmp::Eq, 2.0);
            lp.add_row([(x, 1.0), (y, 1.0)], Cmp::Eq, 2.0);
            lp.add_row([(x, 1.0)], Cmp::Le, 1.5);
            let sol = solve(&lp, &opts).unwrap();
            assert_eq!(sol.status, SolveStatus::Optimal);
            assert_close(sol.objective, 2.0, 1e-6);

            // Conflicting equalities `x = 2`, `x = 3`.
            let mut lp = LinearProgram::new();
            let x = lp.add_var(1.0);
            lp.add_row([(x, 1.0)], Cmp::Eq, 2.0);
            lp.add_row([(x, 1.0)], Cmp::Eq, 3.0);
            let sol = solve(&lp, &opts).unwrap();
            assert_eq!(sol.status, SolveStatus::Infeasible);

            // Scaled duplicate inequalities: the tightest binds.
            let mut lp = LinearProgram::new();
            let x = lp.add_var(-1.0);
            lp.add_row([(x, 1.0)], Cmp::Le, 9.0);
            lp.add_row([(x, 1.0)], Cmp::Le, 4.0);
            lp.add_row([(x, 2.0)], Cmp::Le, 20.0);
            let sol = solve(&lp, &opts).unwrap();
            assert_eq!(sol.status, SolveStatus::Optimal);
            assert_close(sol.x[x], 4.0, 1e-6);
        });
    }

    #[test]
    fn transportation_style_lp() {
        // 2 suppliers (cap 10, 15) x 2 consumers (demand 8, 12), costs:
        //   c11=1 c12=4 c21=2 c22=1. Optimal: x11=8, x22=12, cost 20.
        both_paths(|opts| {
            let mut lp = LinearProgram::new();
            let x11 = lp.add_var(1.0);
            let x12 = lp.add_var(4.0);
            let x21 = lp.add_var(2.0);
            let x22 = lp.add_var(1.0);
            lp.add_row([(x11, 1.0), (x12, 1.0)], Cmp::Le, 10.0);
            lp.add_row([(x21, 1.0), (x22, 1.0)], Cmp::Le, 15.0);
            lp.add_row([(x11, 1.0), (x21, 1.0)], Cmp::Ge, 8.0);
            lp.add_row([(x12, 1.0), (x22, 1.0)], Cmp::Ge, 12.0);
            let sol = solve(&lp, &opts).unwrap();
            assert_eq!(sol.status, SolveStatus::Optimal);
            assert_close(sol.objective, 20.0, 1e-6);
        });
    }

    fn budget_lp(budget: f64) -> LinearProgram {
        // min x + 2y  s.t.  x + y >= budget, x <= 2: warm-start target
        // where only the rhs varies between solves.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0);
        let y = lp.add_var(2.0);
        lp.add_row([(x, 1.0), (y, 1.0)], Cmp::Ge, budget);
        lp.add_row([(x, 1.0)], Cmp::Le, 2.0);
        lp
    }

    #[test]
    fn warm_start_skips_phase1_on_rhs_perturbation() {
        both_paths(|opts| {
            let cold = solve(&budget_lp(3.0), &opts).unwrap();
            assert_eq!(cold.status, SolveStatus::Optimal);
            let basis = cold.basis.clone().expect("optimal solve returns a basis");

            let warm = solve_warm(&budget_lp(4.0), &opts, Some(&basis)).unwrap();
            assert_eq!(warm.status, SolveStatus::Optimal);
            assert!(warm.warm_used, "structurally identical basis must install");
            assert_close(warm.objective, 6.0, 1e-6);
            assert!(
                warm.iterations <= cold.iterations,
                "warm ({}) should not exceed cold ({})",
                warm.iterations,
                cold.iterations
            );
        });
    }

    #[test]
    fn warm_resolve_traces_install() {
        let opts = SolveOptions::default();
        let cold = solve(&budget_lp(3.0), &opts).unwrap();
        let basis = cold.basis.expect("optimal solve returns a basis");
        let trace = ise_obs::Trace::new(256);
        let warm = {
            let _guard = trace.install();
            solve_warm(&budget_lp(4.0), &opts, Some(&basis)).unwrap()
        };
        assert!(warm.warm_used);
        let names: Vec<&str> = trace.drain().iter().map(|r| r.name).collect();
        assert!(names.contains(&"simplex.warm_install"), "{names:?}");
        assert!(!names.contains(&"simplex.phase1"), "{names:?}");
    }

    #[test]
    fn warm_start_rejects_structure_mismatch() {
        both_paths(|opts| {
            let cold = solve(&budget_lp(3.0), &opts).unwrap();
            let basis = cold.basis.clone().unwrap();
            // A different program shape: extra variable.
            let mut other = budget_lp(3.0);
            other.add_var(1.0);
            let warm = solve_warm(&other, &opts, Some(&basis)).unwrap();
            assert_eq!(warm.status, SolveStatus::Optimal);
            assert!(!warm.warm_used, "mismatched structure must fall back cold");
            assert_close(warm.objective, 4.0, 1e-6);
        });
    }

    #[test]
    fn warm_start_falls_back_when_basis_infeasible_for_new_rhs() {
        both_paths(|opts| {
            // Cold-solve with a slack basis optimal at budget 0 (x=y=0),
            // then jump the budget so that basis is infeasible.
            let cold = solve(&budget_lp(0.0), &opts).unwrap();
            assert_eq!(cold.status, SolveStatus::Optimal);
            let basis = cold.basis.clone().unwrap();
            let warm = solve_warm(&budget_lp(3.0), &opts, Some(&basis)).unwrap();
            assert_eq!(warm.status, SolveStatus::Optimal);
            assert_close(warm.objective, 4.0, 1e-6);
        });
    }

    struct FlagInterrupt(AtomicBool);
    impl Interrupt for FlagInterrupt {
        fn interrupted(&self) -> bool {
            self.0.load(Ordering::Relaxed)
        }
    }

    /// Counts polls; always reports interrupted. Proves the pivot loop
    /// actually polls (and aborts) rather than only checking up front.
    struct CountingInterrupt(AtomicUsize);
    impl Interrupt for CountingInterrupt {
        fn interrupted(&self) -> bool {
            self.0.fetch_add(1, Ordering::Relaxed);
            true
        }
    }

    #[test]
    fn interrupt_flag_clear_solves_normally() {
        let flag = Arc::new(FlagInterrupt(AtomicBool::new(false)));
        let opts = SolveOptions {
            interrupt: Some(InterruptHandle::new(flag)),
            ..SolveOptions::default()
        };
        let sol = solve(&budget_lp(3.0), &opts).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
    }

    #[test]
    fn interrupt_aborts_solve() {
        // An LP needing more than one poll window (polls happen every 32
        // iterations) so the abort provably comes from inside the loop.
        let mut lp = LinearProgram::new();
        let n = 40;
        let vars: Vec<usize> = (0..n).map(|i| lp.add_var(1.0 + (i % 7) as f64)).collect();
        for i in 0..n {
            lp.add_row(
                [(vars[i], 1.0), (vars[(i + 1) % n], 2.0)],
                Cmp::Ge,
                3.0 + (i % 5) as f64,
            );
        }
        let hook = Arc::new(CountingInterrupt(AtomicUsize::new(0)));
        let opts = SolveOptions {
            interrupt: Some(InterruptHandle::new(Arc::clone(&hook) as Arc<dyn Interrupt>)),
            ..SolveOptions::default()
        };
        assert_eq!(solve(&lp, &opts).unwrap_err(), SolverError::Interrupted);
        assert!(hook.0.load(Ordering::Relaxed) >= 1, "hook must be polled");
    }

    /// A ring of `n` coupled `>=` rows: enough pivots to exercise phase 1,
    /// pricing rotation, and the eta file.
    fn ring_lp(n: usize) -> LinearProgram {
        let mut lp = LinearProgram::new();
        let vars: Vec<usize> = (0..n).map(|i| lp.add_var(1.0 + (i % 7) as f64)).collect();
        for i in 0..n {
            lp.add_row(
                [(vars[i], 1.0), (vars[(i + 1) % n], 2.0)],
                Cmp::Ge,
                3.0 + (i % 5) as f64,
            );
        }
        lp
    }

    #[test]
    fn beale_terminates_with_forced_refactorizations() {
        // refactor_every = 1 forces the devex weights and the degenerate
        // streak through their refactorization reset on every single pivot;
        // the solve must still terminate at Beale's optimum.
        for pricing in [Pricing::Dantzig, Pricing::Devex] {
            let opts = SolveOptions {
                pricing,
                refactor_every: 1,
                ..SolveOptions::default()
            };
            let mut lp = LinearProgram::new();
            let x = lp.add_var(-0.75);
            let y = lp.add_var(150.0);
            let z = lp.add_var(-0.02);
            let w = lp.add_var(6.0);
            lp.add_row([(x, 0.25), (y, -60.0), (z, -0.04), (w, 9.0)], Cmp::Le, 0.0);
            lp.add_row([(x, 0.5), (y, -90.0), (z, -0.02), (w, 3.0)], Cmp::Le, 0.0);
            lp.add_row([(z, 1.0)], Cmp::Le, 1.0);
            let sol = solve(&lp, &opts).unwrap();
            assert_eq!(sol.status, SolveStatus::Optimal);
            assert_close(sol.objective, -0.05, 1e-6);
        }
    }

    #[test]
    fn tiny_pricing_window_still_reaches_optimum() {
        // A one-column window degenerates devex into pure rotation; the
        // full-wrap fallback must still certify the true optimum.
        let opts = SolveOptions {
            pricing_window: 1,
            ..SolveOptions::default()
        };
        let sol = solve(&ring_lp(24), &opts).unwrap();
        let reference = solve(&ring_lp(24), &SolveOptions::default()).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert_close(sol.objective, reference.objective, 1e-6);
        assert!(sol.pricing.window_hits > 0 || sol.pricing.full_rescans > 0);
    }

    #[test]
    fn devex_scans_fewer_columns_than_dantzig() {
        let lp = ring_lp(120);
        let devex = solve(&lp, &SolveOptions::default()).unwrap();
        let dantzig = solve(
            &lp,
            &SolveOptions {
                pricing: Pricing::Dantzig,
                ..SolveOptions::default()
            },
        )
        .unwrap();
        assert_eq!(devex.status, SolveStatus::Optimal);
        assert_eq!(dantzig.status, SolveStatus::Optimal);
        assert_close(devex.objective, dantzig.objective, 1e-6);
        assert!(
            devex.pricing.cols_scanned < dantzig.pricing.cols_scanned,
            "devex ({}) must price fewer columns than dantzig ({})",
            devex.pricing.cols_scanned,
            dantzig.pricing.cols_scanned
        );
        assert!(devex.pricing.window_hits > 0, "window must produce pivots");
        assert!(dantzig.pricing.window_hits == 0);
        assert!(dantzig.pricing.full_rescans as usize >= dantzig.iterations - 1);
    }

    #[test]
    fn pricing_stats_are_deterministic() {
        let lp = ring_lp(60);
        let a = solve(&lp, &SolveOptions::default()).unwrap();
        let b = solve(&lp, &SolveOptions::default()).unwrap();
        assert_eq!(a.pricing, b.pricing);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn harris_and_baseline_agree_on_verdict_and_objective() {
        // The two ratio tests may walk different pivot sequences but must
        // land on the same optimum — on well-behaved and on degenerate
        // programs alike.
        for factorization in ALL_KERNELS {
            for n in [8, 24, 60] {
                let mk = |ratio_test| SolveOptions {
                    factorization,
                    ratio_test,
                    ..SolveOptions::default()
                };
                let h = solve(&ring_lp(n), &mk(RatioTest::Harris)).unwrap();
                let b = solve(&ring_lp(n), &mk(RatioTest::Baseline)).unwrap();
                assert_eq!(h.status, b.status);
                assert_close(h.objective, b.objective, 1e-6 * (1.0 + b.objective.abs()));
                assert!(h.numerics.ratio_tests > 0);
                assert!(b.numerics.harris_relaxations == 0);
            }
        }
    }

    #[test]
    fn every_solve_reports_at_least_one_residual_check() {
        // Even an LP solved in a handful of pivots — far fewer than
        // check_every or refactor_every — gets the guaranteed exit check.
        both_paths(|opts| {
            let sol = solve(&budget_lp(3.0), &opts).unwrap();
            assert_eq!(sol.status, SolveStatus::Optimal);
            assert!(sol.numerics.residual_checks >= 1);
            assert!(sol.numerics.max_residual <= opts.residual_tol);
            assert_eq!(sol.numerics.recoveries_total(), 0);
        });
    }

    #[test]
    fn periodic_residual_checks_fire_between_refactorizations() {
        let opts = SolveOptions {
            check_every: 4,
            ..SolveOptions::default()
        };
        let sol = solve(&ring_lp(60), &opts).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!(
            sol.numerics.residual_checks > 1,
            "a 60-row ring takes well over 4 pivots, so periodic checks \
             must fire (got {})",
            sol.numerics.residual_checks
        );
        assert!(sol.numerics.max_residual <= opts.residual_tol);
    }

    #[test]
    fn stability_rung_raises_the_pivot_tolerance() {
        let opts = SolveOptions::default();
        assert_eq!(rung_options(&opts, 0).pivot_tol, opts.pivot_tol);
        for escalation in 1..=4 {
            let rung = rung_options(&opts, escalation);
            assert!(
                rung.pivot_tol > opts.pivot_tol,
                "attempt {escalation} admits smaller pivots: {} vs {}",
                rung.pivot_tol,
                opts.pivot_tol
            );
        }
        assert_eq!(rung_options(&opts, 1).pricing, opts.pricing);
        assert_eq!(rung_options(&opts, 2).pricing, Pricing::Dantzig);
        assert_eq!(rung_options(&opts, 3).factorization, Factorization::Eta);
        assert_eq!(rung_options(&opts, 4).factorization, Factorization::Dense);
    }

    #[test]
    fn numerics_report_is_deterministic() {
        let lp = ring_lp(60);
        let a = solve(&lp, &SolveOptions::default()).unwrap();
        let b = solve(&lp, &SolveOptions::default()).unwrap();
        assert_eq!(a.numerics, b.numerics);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn recovery_ladder_climbs_every_rung_exactly_once() {
        // Five armed failures walk the ladder end to end: attempt 0 fails
        // its first check, refactorizes (rung 1), fails the re-check and
        // escalates; the tightened (rung 2), Dantzig (rung 3), and eta
        // (rung 4) attempts each burn one more failure; the dense attempt
        // (rung 5) runs with the hook exhausted and lands on the true
        // optimum.
        fault::force_residual_failures(5);
        let sol = solve(&ring_lp(24), &SolveOptions::default()).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        let n = sol.numerics;
        assert_eq!(
            (
                n.recoveries_refactor,
                n.recoveries_tighten,
                n.recoveries_dantzig,
                n.recoveries_eta,
                n.recoveries_dense,
            ),
            (1, 1, 1, 1, 1),
            "each rung must fire exactly once: {n:?}"
        );
        let clean = solve(&ring_lp(24), &SolveOptions::default()).unwrap();
        assert_close(sol.objective, clean.objective, 1e-9);
        assert_eq!(clean.numerics.recoveries_total(), 0);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn single_fault_is_repaired_by_the_refactor_rung() {
        fault::force_residual_failures(1);
        let sol = solve(&ring_lp(24), &SolveOptions::default()).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert_eq!(sol.numerics.recoveries_refactor, 1);
        assert_eq!(sol.numerics.recoveries_tighten, 0);
        assert_eq!(sol.numerics.recoveries_dantzig, 0);
        assert_eq!(sol.numerics.recoveries_eta, 0);
        assert_eq!(sol.numerics.recoveries_dense, 0);
    }
}
