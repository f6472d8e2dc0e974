//! Randomized correctness stress tests for the simplex solver.
//!
//! Strategy: build LPs with a *known* optimum by strong duality. Pick a
//! target point `x* >= 0`; emit `Ge` constraints `aᵢᵀx >= aᵢᵀx*` (all tight
//! at `x*`); choose the objective `c = Σ λᵢ aᵢ + μ` with `λᵢ >= 0` and
//! `μ_j >= 0` only where `x*_j = 0`. Then `x*` is primal feasible, `(λ, μ)`
//! is a feasible dual certificate with zero complementary slackness gap, so
//! the optimum value is exactly `cᵀx*`. Loose redundant constraints are
//! sprinkled in to exercise redundant rows; the solver must recover the
//! optimal value to tolerance.

use ise_simplex::{check_solution, solve, Cmp, LinearProgram, SolveOptions, SolveStatus};
use proptest::prelude::*;

/// Sparse row under construction: coefficients, comparison, rhs.
type RawRow = (Vec<(usize, f64)>, Cmp, f64);

#[derive(Debug, Clone)]
struct KnownLp {
    lp: LinearProgram,
    optimum: f64,
}

fn known_lp() -> impl Strategy<Value = KnownLp> {
    let n_vars = 2usize..5;
    let n_tight = 1usize..5;
    let n_loose = 0usize..4;
    (n_vars, n_tight, n_loose, any::<u64>()).prop_map(|(nv, nt, nl, seed)| {
        // Simple deterministic PRNG from the seed so the strategy shrinks.
        let mut state = seed | 1;
        let mut next = move |m: i64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as i64).rem_euclid(m)
        };
        let x_star: Vec<f64> = (0..nv).map(|_| next(6) as f64).collect();
        let mut lp = LinearProgram::new();
        let mut c = vec![0.0f64; nv];
        for _ in 0..nv {
            lp.add_var(0.0); // costs assigned below via a rebuild
        }
        let mut rows: Vec<RawRow> = Vec::new();
        for _ in 0..nt {
            let a: Vec<f64> = (0..nv).map(|_| (next(7) - 3) as f64).collect();
            if a.iter().all(|&v| v == 0.0) {
                continue;
            }
            let lambda = next(4) as f64; // >= 0
            for (cj, &aj) in c.iter_mut().zip(&a) {
                *cj += lambda * aj;
            }
            let rhs: f64 = a.iter().zip(&x_star).map(|(ai, xi)| ai * xi).sum();
            rows.push((a.iter().cloned().enumerate().collect(), Cmp::Ge, rhs));
        }
        // Bound duals on zero coordinates keep c - Σλa >= 0 there.
        for (j, &xj) in x_star.iter().enumerate() {
            if xj == 0.0 {
                c[j] += next(3) as f64;
            }
        }
        // Loose constraints that do not cut off x*.
        for _ in 0..nl {
            let a: Vec<f64> = (0..nv).map(|_| (next(7) - 3) as f64).collect();
            let val: f64 = a.iter().zip(&x_star).map(|(ai, xi)| ai * xi).sum();
            let slack = 1.0 + next(5) as f64;
            if next(2) == 0 {
                rows.push((
                    a.iter().cloned().enumerate().collect(),
                    Cmp::Le,
                    val + slack,
                ));
            } else {
                rows.push((
                    a.iter().cloned().enumerate().collect(),
                    Cmp::Ge,
                    val - slack,
                ));
            }
        }
        // Rebuild with the final costs.
        let mut built = LinearProgram::new();
        for &cost in &c {
            built.add_var(cost);
        }
        for (coeffs, cmp, rhs) in rows {
            built.add_row(coeffs, cmp, rhs);
        }
        let optimum = c.iter().zip(&x_star).map(|(ci, xi)| ci * xi).sum();
        let _ = lp;
        KnownLp { lp: built, optimum }
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, .. ProptestConfig::default() })]

    #[test]
    fn solver_finds_the_constructed_optimum(known in known_lp()) {
        let sol = solve(&known.lp, &SolveOptions::default()).expect("no numerical failure");
        prop_assert_eq!(sol.status, SolveStatus::Optimal);
        let scale = 1.0 + known.optimum.abs();
        prop_assert!(
            (sol.objective - known.optimum).abs() <= 1e-6 * scale,
            "objective {} != constructed optimum {}", sol.objective, known.optimum
        );
        prop_assert!(check_solution(&known.lp, &sol.x, 1e-6).is_empty());
    }

    #[test]
    fn duals_certify_every_constructed_optimum(known in known_lp()) {
        let sol = solve(&known.lp, &SolveOptions::default()).expect("solve");
        prop_assert_eq!(sol.status, SolveStatus::Optimal);
        let dual_obj = ise_simplex::check_dual(&known.lp, &sol.duals, 1e-5)
            .map_err(|v| TestCaseError::fail(format!("dual infeasible: {v:?}")))?;
        let scale = 1.0 + sol.objective.abs();
        // Strong duality at the solver's claimed optimum.
        prop_assert!(
            (dual_obj - sol.objective).abs() <= 1e-5 * scale,
            "duality gap: primal {} dual {}", sol.objective, dual_obj
        );
        // And weak duality against the known optimum.
        prop_assert!(dual_obj <= known.optimum + 1e-5 * scale);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Forcing a refactorization after every pivot must not change any
    /// outcome — the dense-inverse update and the from-scratch inverse are
    /// interchangeable.
    #[test]
    fn per_pivot_refactorization_is_equivalent(known in known_lp()) {
        let fast = solve(&known.lp, &SolveOptions::default()).expect("solve");
        let careful = solve(
            &known.lp,
            &SolveOptions { refactor_every: 1, ..SolveOptions::default() },
        )
        .expect("solve with constant refactorization");
        prop_assert_eq!(fast.status, careful.status);
        let scale = 1.0 + known.optimum.abs();
        prop_assert!((fast.objective - careful.objective).abs() <= 1e-6 * scale);
    }
}

/// The iteration limit surfaces as a hard error, not a wrong answer.
#[test]
fn iteration_limit_is_reported() {
    use ise_simplex::SolverError;
    let mut lp = LinearProgram::new();
    let vars: Vec<usize> = (0..6).map(|_| lp.add_var(1.0)).collect();
    for (i, &v) in vars.iter().enumerate() {
        lp.add_row(
            [(v, 1.0), (vars[(i + 1) % vars.len()], 0.5)],
            Cmp::Ge,
            3.0 + i as f64,
        );
    }
    let out = solve(
        &lp,
        &SolveOptions {
            max_iters: 1,
            ..SolveOptions::default()
        },
    );
    assert!(
        matches!(out, Err(SolverError::IterationLimit { limit: 1 })),
        "{out:?}"
    );
}

/// Deterministic regression: a larger assignment-flavoured LP whose optimum
/// is known by construction (a permutation matrix).
#[test]
fn assignment_lp_regression() {
    // 4x4 assignment relaxation: min Σ c_ij x_ij, rows/cols sum to 1.
    // The LP relaxation of assignment is integral, so the optimum equals
    // the best permutation, computable by brute force.
    let costs = [
        [4.0, 1.0, 3.0, 2.0],
        [2.0, 0.0, 5.0, 3.0],
        [3.0, 2.0, 2.0, 1.0],
        [1.0, 3.0, 2.0, 2.0],
    ];
    let mut lp = LinearProgram::new();
    let mut var = [[0usize; 4]; 4];
    for (i, row) in costs.iter().enumerate() {
        for (j, &cost) in row.iter().enumerate() {
            var[i][j] = lp.add_var(cost);
        }
    }
    #[allow(clippy::needless_range_loop)] // i indexes rows and columns symmetrically
    for i in 0..4 {
        lp.add_row((0..4).map(|j| (var[i][j], 1.0)), Cmp::Eq, 1.0);
        lp.add_row((0..4).map(|j| (var[j][i], 1.0)), Cmp::Eq, 1.0);
    }
    // Brute force over permutations.
    let mut best = f64::INFINITY;
    let mut perm = [0usize, 1, 2, 3];
    permutohedron_heap(&mut perm, &mut |p: &[usize; 4]| {
        let v: f64 = (0..4).map(|i| costs[i][p[i]]).sum();
        if v < best {
            best = v;
        }
    });
    let sol = solve(&lp, &SolveOptions::default()).unwrap();
    assert_eq!(sol.status, SolveStatus::Optimal);
    assert!(
        (sol.objective - best).abs() < 1e-6,
        "lp {} vs brute {best}",
        sol.objective
    );
}

/// Tiny Heap's-algorithm permutation enumerator (no external crates).
fn permutohedron_heap(perm: &mut [usize; 4], visit: &mut impl FnMut(&[usize; 4])) {
    fn inner(k: usize, arr: &mut [usize; 4], visit: &mut impl FnMut(&[usize; 4])) {
        if k == 1 {
            visit(arr);
            return;
        }
        for i in 0..k {
            inner(k - 1, arr, visit);
            if k.is_multiple_of(2) {
                arr.swap(i, k - 1);
            } else {
                arr.swap(0, k - 1);
            }
        }
    }
    inner(4, perm, visit);
}
