//! # ise-simplex — a self-contained linear-programming solver
//!
//! The long-window algorithm of Fineman & Sheridan (SPAA 2015) solves an LP
//! relaxation of the *trimmed ISE* problem and rounds it. No LP solver crate
//! is available in this build environment, so this crate implements one from
//! scratch: a **two-phase revised primal simplex** with
//!
//! * sparse column storage of the constraint matrix,
//! * a **sparse LU basis factorization** ([`Factorization::Lu`], the
//!   default): Markowitz-pivoting reinversion every
//!   [`SolveOptions::refactor_every`] pivots, Forrest–Tomlin pivot
//!   updates in between, and hyper-sparse (Gilbert–Peierls) FTRAN/BTRAN
//!   that walk only the reach of the input support — with the
//!   product-form eta file ([`Factorization::Eta`]) retained behind
//!   [`SolveOptions::factorization`] as the independently implemented
//!   cross-check kernel,
//! * **warm starts**: an optimal [`Basis`] can be fed back into
//!   [`solve_warm`] to skip phase 1 when re-solving the same structure
//!   with a perturbed right-hand side,
//! * cooperative interruption ([`Interrupt`]/[`InterruptHandle`]) polled
//!   inside the pivot loop, so deadlines can abort a long solve
//!   mid-iteration,
//! * **devex partial pricing** ([`Pricing::Devex`], the default): reference
//!   weights plus a rotating candidate window, falling back to a full
//!   rescan only when the window yields nothing — with the original full
//!   Dantzig scan behind [`Pricing::Dantzig`] as a cross-check oracle, and
//!   an automatic switch to Bland's rule under either when the iteration
//!   stalls on degenerate pivots (anti-cycling),
//! * per-solve scratch buffers that the pivot loop reuses across
//!   iterations, phases, and refactorizations; pricing effort is reported
//!   per solve in [`PricingStats`],
//! * a zero-ratio leaving rule that immediately evicts artificial variables
//!   at level zero (one evicted on a negative pivot may not re-enter),
//! * a **numerics layer**: a Harris-style two-pass ratio test
//!   ([`RatioTest::Harris`], the default, with the original single-pass
//!   rule behind [`RatioTest::Baseline`] as a cross-check), scale-aware
//!   relative tolerances, a residual monitor that re-verifies the basic
//!   system `‖B·x_B − b‖∞ / (1 + ‖b‖∞)` after refactorizations, every
//!   [`SolveOptions::check_every`] pivots, and on optimal exit, and an
//!   automatic four-rung recovery ladder (refactorize → raise the pivot
//!   tolerance 100x → Dantzig pricing → eta kernel) when the residual
//!   exceeds [`SolveOptions::residual_tol`] — all reported per solve in
//!   [`NumericsReport`].
//!
//! The solver is deterministic. Solutions carry the achieved objective and
//! primal vector; [`verify::check_solution`] re-checks every constraint with
//! explicit tolerances so downstream consumers never trust the solver
//! blindly.
//!
//! A program goes to the simplex exactly as built, with no reduction pass
//! first; the two phases settle its empty rows, duplicates, and unused
//! variables.
//!
//! This is a general-purpose small/medium LP solver: it is sized for the
//! TISE relaxation (thousands of rows/columns), not for industrial LPs with
//! millions of nonzeros.

pub mod factor;
mod lu;
pub mod problem;
pub mod solver;
pub mod verify;

pub use factor::{FactorStats, Factorization, SpVec};
pub use problem::{Cmp, LinearProgram, Row};
pub use solver::{
    solve, solve_warm, Basis, Interrupt, InterruptHandle, NumericsReport, Pricing, PricingStats,
    RatioTest, Solution, SolveOptions, SolveStatus, SolverError,
};
pub use verify::{check_dual, check_solution, Violation};
