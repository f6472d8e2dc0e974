//! Presolve: cheap reductions applied before the simplex.
//!
//! The TISE LP contains many structurally trivial pieces — empty rows from
//! points no job can use, duplicate window-capacity rows when calibration
//! points cluster, and variables that appear in no constraint. Removing
//! them up front shrinks the basis (factorization work is the solver's
//! dominant cost) without changing the optimum:
//!
//! * **empty rows** are dropped when trivially satisfiable and flagged as
//!   infeasible otherwise;
//! * **duplicate rows** (identical coefficients/comparison, after
//!   normalization) keep only their tightest right-hand side;
//! * **unconstrained variables** (appearing in no row) are fixed at 0 when
//!   their cost is nonnegative and certify unboundedness otherwise.
//!
//! The reduced LP uses the same variable indexing, so solutions map back
//! verbatim.

use crate::problem::{Cmp, LinearProgram, Row};
use crate::solver::{solve_warm, Basis, Solution, SolveOptions, SolveStatus, SolverError};
use std::collections::HashMap;

/// Deduplication key: quantized normalized coefficients plus a comparison
/// tag.
type RowKey = (Vec<(usize, i64)>, u8);

/// Outcome of presolving.
#[derive(Clone, Debug)]
pub struct Presolved {
    /// The reduced LP (same variable space).
    pub lp: LinearProgram,
    /// Rows dropped (empty or duplicates).
    pub dropped_rows: usize,
    /// Variables fixed at zero (absent from all rows, nonnegative cost).
    pub fixed_vars: usize,
    /// Early verdict, when presolve alone decides the instance.
    pub verdict: Option<SolveStatus>,
    /// For each reduced row, the index of the original row it came from
    /// (used to map duals back; dropped rows get dual 0).
    pub kept_original: Vec<usize>,
}

/// Apply presolve reductions to `lp`.
pub fn presolve(lp: &LinearProgram) -> Presolved {
    let tol = 1e-12;
    let mut used = vec![false; lp.num_vars()];
    // Deduplicate rows by (normalized coefficients, cmp); keep tightest rhs.
    let mut kept: HashMap<RowKey, (Row, f64, usize)> = HashMap::new();
    let mut order: Vec<RowKey> = Vec::new();
    let mut dropped = 0usize;
    let mut verdict = None;

    for (orig_idx, row) in lp.rows().iter().enumerate() {
        if row.coeffs.is_empty() {
            let ok = match row.cmp {
                Cmp::Le => row.rhs >= -tol,
                Cmp::Ge => row.rhs <= tol,
                Cmp::Eq => row.rhs.abs() <= tol,
            };
            if ok {
                dropped += 1;
                continue;
            }
            verdict = Some(SolveStatus::Infeasible);
            continue;
        }
        for &(v, _) in &row.coeffs {
            used[v] = true;
        }
        // Normalize by the first coefficient's magnitude so that scaled
        // duplicates also collapse; quantize to make the key hashable.
        let scale = row.coeffs[0].1.abs().max(tol);
        let key_coeffs: Vec<(usize, i64)> = row
            .coeffs
            .iter()
            .map(|&(v, a)| (v, (a / scale * 1e9).round() as i64))
            .collect();
        // A scaled Le with a negative leading coefficient is not the same
        // constraint as its positively-scaled twin; fold the sign into the
        // comparison for Le/Ge.
        let sign = if row.coeffs[0].1 < 0.0 { -1.0 } else { 1.0 };
        let (cmp, folded_coeffs, rhs) = match (row.cmp, sign < 0.0) {
            (Cmp::Eq, _) => (Cmp::Eq, key_coeffs, row.rhs / scale * sign),
            (c, false) => (c, key_coeffs, row.rhs / scale),
            (Cmp::Le, true) => (
                Cmp::Ge,
                key_coeffs.iter().map(|&(v, a)| (v, -a)).collect(),
                -row.rhs / scale,
            ),
            (Cmp::Ge, true) => (
                Cmp::Le,
                key_coeffs.iter().map(|&(v, a)| (v, -a)).collect(),
                -row.rhs / scale,
            ),
        };
        let cmp_tag = match cmp {
            Cmp::Le => 0u8,
            Cmp::Ge => 1,
            Cmp::Eq => 2,
        };
        let key = (folded_coeffs, cmp_tag);
        match kept.get_mut(&key) {
            None => {
                order.push(key.clone());
                kept.insert(key, (row.clone(), rhs, orig_idx));
            }
            Some((existing, existing_rhs, existing_idx)) => {
                // Keep the tighter constraint.
                let tighter = match cmp {
                    Cmp::Le => rhs < *existing_rhs,
                    Cmp::Ge => rhs > *existing_rhs,
                    Cmp::Eq => {
                        if (rhs - *existing_rhs).abs() > 1e-7 {
                            verdict = Some(SolveStatus::Infeasible);
                        }
                        false
                    }
                };
                if tighter {
                    *existing = row.clone();
                    *existing_rhs = rhs;
                    *existing_idx = orig_idx;
                }
                dropped += 1;
            }
        }
    }

    // Unconstrained variables.
    let mut fixed = 0usize;
    for (v, &u) in used.iter().enumerate() {
        if !u {
            if lp.objective()[v] < -tol {
                verdict = Some(SolveStatus::Unbounded);
            } else {
                fixed += 1;
            }
        }
    }

    let mut reduced = LinearProgram::new();
    let mut kept_original = Vec::with_capacity(order.len());
    for &cost in lp.objective() {
        reduced.add_var(cost);
    }
    for key in &order {
        let (row, _, orig_idx) = &kept[key];
        reduced.add_row(row.coeffs.iter().copied(), row.cmp, row.rhs);
        kept_original.push(*orig_idx);
    }
    Presolved {
        lp: reduced,
        dropped_rows: dropped,
        fixed_vars: fixed,
        verdict,
        kept_original,
    }
}

/// Presolve then solve; the returned solution is in the original variable
/// space (presolve never renumbers variables).
pub fn solve_with_presolve(
    lp: &LinearProgram,
    opts: &SolveOptions,
) -> Result<Solution, SolverError> {
    solve_with_presolve_warm(lp, opts, None)
}

/// Like [`solve_with_presolve`], optionally warm-starting the reduced LP
/// from a [`Basis`] returned by a previous call on a structurally identical
/// program. Presolve's row deduplication keys on coefficients and
/// comparison only (not the right-hand side), so a pure rhs perturbation —
/// e.g. a changed machine budget — yields the same reduced structure and
/// the basis carries over.
pub fn solve_with_presolve_warm(
    lp: &LinearProgram,
    opts: &SolveOptions,
    warm: Option<&Basis>,
) -> Result<Solution, SolverError> {
    let pre = {
        let _span = ise_obs::Span::enter("simplex.presolve");
        presolve(lp)
    };
    if let Some(status) = pre.verdict {
        return Ok(Solution {
            status,
            objective: f64::NAN,
            x: vec![0.0; lp.num_vars()],
            duals: Vec::new(),
            iterations: 0,
            refactorizations: 0,
            basis: None,
            warm_used: false,
            pricing: crate::solver::PricingStats::default(),
            numerics: crate::solver::NumericsReport::default(),
        });
    }
    let mut sol = solve_warm(&pre.lp, opts, warm)?;
    // Map the reduced duals back to the original rows (dropped rows are
    // implied by kept ones, so dual 0 keeps the certificate feasible).
    if !sol.duals.is_empty() {
        let mut duals = vec![0.0; lp.num_rows()];
        for (reduced_idx, &orig_idx) in pre.kept_original.iter().enumerate() {
            duals[orig_idx] = sol.duals[reduced_idx];
        }
        sol.duals = duals;
    }
    Ok(sol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Cmp;
    use crate::solver::solve;

    #[test]
    fn drops_empty_rows() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0);
        lp.add_row([(x, 0.0)], Cmp::Le, 5.0); // becomes empty after zero-drop
        lp.add_row([(x, 1.0)], Cmp::Ge, 2.0);
        let pre = presolve(&lp);
        assert_eq!(pre.dropped_rows, 1);
        assert_eq!(pre.lp.num_rows(), 1);
        assert!(pre.verdict.is_none());
    }

    #[test]
    fn empty_infeasible_row_is_detected() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0);
        lp.add_row([(x, 0.0)], Cmp::Ge, 3.0); // 0 >= 3
        let pre = presolve(&lp);
        assert_eq!(pre.verdict, Some(SolveStatus::Infeasible));
    }

    #[test]
    fn duplicate_rows_keep_tightest() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(-1.0);
        lp.add_row([(x, 1.0)], Cmp::Le, 9.0);
        lp.add_row([(x, 1.0)], Cmp::Le, 4.0);
        lp.add_row([(x, 2.0)], Cmp::Le, 20.0); // scaled duplicate of row 0
        let pre = presolve(&lp);
        assert_eq!(pre.lp.num_rows(), 1);
        let sol = solve(&pre.lp, &SolveOptions::default()).unwrap();
        assert!(
            (sol.x[x] - 4.0).abs() < 1e-6,
            "tightest bound must win: {}",
            sol.x[x]
        );
    }

    #[test]
    fn unconstrained_negative_cost_is_unbounded() {
        let mut lp = LinearProgram::new();
        lp.add_var(-1.0);
        let pre = presolve(&lp);
        assert_eq!(pre.verdict, Some(SolveStatus::Unbounded));
    }

    #[test]
    fn unconstrained_nonnegative_cost_is_fixed() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.5);
        let y = lp.add_var(1.0);
        lp.add_row([(y, 1.0)], Cmp::Ge, 1.0);
        let pre = presolve(&lp);
        assert_eq!(pre.fixed_vars, 1);
        let sol = solve_with_presolve(&lp, &SolveOptions::default()).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!(sol.x[x].abs() < 1e-9);
        assert!((sol.x[y] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn presolve_preserves_optimum() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0);
        let y = lp.add_var(2.0);
        lp.add_row([(x, 1.0), (y, 1.0)], Cmp::Ge, 3.0);
        lp.add_row([(x, 2.0), (y, 2.0)], Cmp::Ge, 6.0); // scaled duplicate
        lp.add_row([(x, 1.0)], Cmp::Le, 2.0);
        let plain = solve(&lp, &SolveOptions::default()).unwrap();
        let pre = solve_with_presolve(&lp, &SolveOptions::default()).unwrap();
        assert!((plain.objective - pre.objective).abs() < 1e-6);
    }

    #[test]
    fn conflicting_equalities_are_infeasible() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0);
        lp.add_row([(x, 1.0)], Cmp::Eq, 2.0);
        lp.add_row([(x, 1.0)], Cmp::Eq, 3.0);
        let pre = presolve(&lp);
        assert_eq!(pre.verdict, Some(SolveStatus::Infeasible));
    }
}
