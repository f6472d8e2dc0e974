//! Property tests: the LU and eta-file kernels are observationally
//! equivalent.
//!
//! Fully random programs — any status (optimal, infeasible, or
//! unbounded) can come out. Both factorizations must agree on the
//! status; on optimal programs every solution must verify against the
//! original constraints ([`check_solution`]), every dual must certify the
//! same objective ([`check_dual`]), and the objectives must match to
//! tolerance. (`stress.rs` separately drives the default path over
//! programs with a constructed known optimum; `crates/core`'s
//! `lp_equivalence.rs` covers the TISE LP family.)

use ise_simplex::{
    check_dual, check_solution, solve, Cmp, Factorization, LinearProgram, Pricing, SolveOptions,
    SolveStatus,
};
use proptest::prelude::*;

fn kernel_opts(factorization: Factorization) -> SolveOptions {
    SolveOptions {
        factorization,
        ..SolveOptions::default()
    }
}

fn dantzig_opts() -> SolveOptions {
    SolveOptions {
        pricing: Pricing::Dantzig,
        ..SolveOptions::default()
    }
}

/// Fully random LP: small integer data, mixed row senses, no structure —
/// any of the three statuses can come out.
fn random_lp() -> impl Strategy<Value = LinearProgram> {
    let n_vars = 1usize..6;
    let n_rows = 1usize..8;
    (n_vars, n_rows, any::<u64>()).prop_map(|(nv, nr, seed)| {
        let mut state = seed | 1;
        let mut next = move |m: i64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as i64).rem_euclid(m)
        };
        let mut lp = LinearProgram::new();
        for _ in 0..nv {
            lp.add_var((next(9) - 4) as f64);
        }
        for _ in 0..nr {
            let coeffs: Vec<(usize, f64)> = (0..nv)
                .filter_map(|j| {
                    let a = next(7) - 3;
                    (a != 0).then_some((j, a as f64))
                })
                .collect();
            if coeffs.is_empty() {
                continue;
            }
            let cmp = match next(3) {
                0 => Cmp::Le,
                1 => Cmp::Ge,
                _ => Cmp::Eq,
            };
            lp.add_row(coeffs, cmp, (next(11) - 3) as f64);
        }
        lp
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 300, .. ProptestConfig::default() })]

    #[test]
    fn lu_and_eta_agree_on_random_lps(lp in random_lp()) {
        let lu = solve(&lp, &kernel_opts(Factorization::Lu)).expect("lu solve");
        let eta = solve(&lp, &kernel_opts(Factorization::Eta)).expect("eta solve");
        prop_assert_eq!(lu.status, eta.status);
        if lu.status != SolveStatus::Optimal {
            return Ok(());
        }
        let scale = 1.0 + lu.objective.abs();
        prop_assert!(
            (lu.objective - eta.objective).abs() <= 1e-6 * scale,
            "objectives diverge: lu {} eta {}", lu.objective, eta.objective
        );
        prop_assert!(check_solution(&lp, &lu.x, 1e-6).is_empty());
        prop_assert!(check_solution(&lp, &eta.x, 1e-6).is_empty());
        let lu_dual = check_dual(&lp, &lu.duals, 1e-5)
            .map_err(|v| TestCaseError::fail(format!("lu dual infeasible: {v:?}")))?;
        let eta_dual = check_dual(&lp, &eta.duals, 1e-5)
            .map_err(|v| TestCaseError::fail(format!("eta dual infeasible: {v:?}")))?;
        prop_assert!((lu_dual - lu.objective).abs() <= 1e-5 * scale);
        prop_assert!((eta_dual - eta.objective).abs() <= 1e-5 * scale);
    }

    /// Forrest–Tomlin consistency: solving entirely on FT updates
    /// (refactor_every high enough to never trigger) and solving with a
    /// fresh Markowitz reinversion after every pivot must agree — the
    /// update formula and the from-scratch factorization describe the same
    /// basis.
    #[test]
    fn ft_updates_agree_with_per_pivot_refactorization(lp in random_lp()) {
        let updates = solve(&lp, &SolveOptions {
            refactor_every: 100_000,
            ..SolveOptions::default()
        }).expect("ft solve");
        let refactors = solve(&lp, &SolveOptions {
            refactor_every: 1,
            ..SolveOptions::default()
        }).expect("refactor solve");
        prop_assert_eq!(updates.status, refactors.status);
        if updates.status == SolveStatus::Optimal {
            let scale = 1.0 + updates.objective.abs();
            prop_assert!(
                (updates.objective - refactors.objective).abs() <= 1e-6 * scale,
                "objectives diverge: ft {} refactor {}",
                updates.objective, refactors.objective
            );
            prop_assert!(check_solution(&lp, &updates.x, 1e-6).is_empty());
            prop_assert!(check_solution(&lp, &refactors.x, 1e-6).is_empty());
        }
    }

    /// Devex partial pricing and Dantzig full pricing choose different
    /// pivot sequences but must agree on the verdict, and on optimal
    /// programs both solutions must verify and reach the same objective.
    #[test]
    fn devex_and_dantzig_agree_on_random_lps(lp in random_lp()) {
        let devex = solve(&lp, &SolveOptions::default()).expect("devex solve");
        let dantzig = solve(&lp, &dantzig_opts()).expect("dantzig solve");
        prop_assert_eq!(devex.status, dantzig.status);
        if devex.status != SolveStatus::Optimal {
            return Ok(());
        }
        let scale = 1.0 + devex.objective.abs();
        prop_assert!(
            (devex.objective - dantzig.objective).abs() <= 1e-6 * scale,
            "objectives diverge: devex {} dantzig {}", devex.objective, dantzig.objective
        );
        prop_assert!(check_solution(&lp, &devex.x, 1e-6).is_empty());
        prop_assert!(check_solution(&lp, &dantzig.x, 1e-6).is_empty());
        // Dantzig's full scan never uses the candidate window, so it can
        // never record a window hit.
        prop_assert_eq!(dantzig.pricing.window_hits, 0);
    }
}
