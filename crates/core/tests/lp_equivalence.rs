//! Property tests: on TISE LPs of random workloads, the two basis
//! kernels (LU and eta file) agree.
//!
//! [`solve_lp`] already verifies every returned solution against the
//! original constraints (`check_solution`) and certifies the dual
//! (`check_dual`), so a successful return *is* the verification — these
//! tests add the cross-kernel agreement on status, objective, and dual
//! certificate, on the exact LP family the production pipeline solves
//! (including the `ill_conditioned` generator, whose wide magnitude
//! spread is what the Markowitz threshold-pivoting rule exists for).

use ise_sched::lp::{build, solve_lp};
use ise_simplex::{Factorization, Pricing, SolveOptions};
use ise_workloads::{ill_conditioned, long_only, uniform, WorkloadParams};
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

fn params() -> impl Strategy<Value = (WorkloadParams, u64, u8)> {
    (
        3usize..10,
        1usize..3,
        5i64..12,
        40i64..120,
        any::<u64>(),
        0u8..3,
    )
        .prop_map(|(jobs, machines, calib_len, horizon, seed, family)| {
            (
                WorkloadParams {
                    jobs,
                    machines,
                    calib_len,
                    horizon,
                },
                seed,
                family,
            )
        })
}

/// `uniform` leaves sparser LPs (short jobs are filtered out here, so many
/// points carry at most `T` work and get no work row (3)); `long_only` keeps every job in the
/// LP; `ill_conditioned` mixes magnitudes across many orders.
fn make_instance(p: &WorkloadParams, seed: u64, family: u8) -> ise_model::Instance {
    match family {
        0 => long_only(p, seed),
        1 => uniform(p, seed),
        _ => ill_conditioned(p, seed),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, .. ProptestConfig::default() })]

    #[test]
    fn tise_lp_kernels_agree((p, seed, family) in params()) {
        let instance = make_instance(&p, seed, family);
        let jobs = instance.partition_long_short().0;
        if jobs.is_empty() {
            return Ok(());
        }
        let tise = build(&jobs, instance.calib_len(), 3 * instance.machines());

        let lu = solve_lp(&tise, &SolveOptions::default());
        let eta = solve_lp(&tise, &kernel_opts(Factorization::Eta));
        match (&lu, &eta) {
            (Ok(s), Ok(d)) => {
                let scale = 1.0 + s.objective.abs();
                prop_assert!(
                    (s.objective - d.objective).abs() <= 1e-6 * scale,
                    "objectives diverge: lu {} eta {}", s.objective, d.objective
                );
                // Both kernels must certify their optimum via the dual.
                let sd = s.certified_dual_bound.expect("lu dual certificate");
                let dd = d.certified_dual_bound.expect("eta dual certificate");
                prop_assert!((sd - s.objective).abs() <= 1e-5 * scale);
                prop_assert!((dd - d.objective).abs() <= 1e-5 * scale);
            }
            // Same verdict required: both infeasible is fine, a split
            // verdict is a factorization bug.
            (Err(s), Err(d)) => {
                prop_assert_eq!(
                    std::mem::discriminant(s),
                    std::mem::discriminant(d),
                    "error kinds diverge: lu {:?} eta {:?}", s, d
                );
            }
            (s, d) => {
                return Err(TestCaseError::fail(format!(
                    "verdicts diverge: lu {s:?} eta {d:?}"
                )));
            }
        }
    }

    #[test]
    fn tise_lp_warm_start_matches_cold_across_kernels((p, seed, _) in params()) {
        // Warm-starting at a perturbed machine budget must reproduce the
        // cold optimum at that budget — it only skips phase 1. Checked
        // per kernel: the warm path drives Forrest–Tomlin updates from a
        // non-identity starting basis under LU.
        let instance = long_only(&p, seed);
        let jobs = instance.partition_long_short().0;
        if jobs.is_empty() {
            return Ok(());
        }
        let budget = 3 * instance.machines();
        for kind in [Factorization::Lu, Factorization::Eta] {
            let opts = kernel_opts(kind);
            let Ok(cold_a) = solve_lp(&build(&jobs, instance.calib_len(), budget), &opts) else {
                return Ok(());
            };
            let basis = cold_a.basis.expect("optimal solve carries a basis");
            let perturbed = build(&jobs, instance.calib_len(), budget + 1);
            let cold_b = solve_lp(&perturbed, &opts).expect("feasible at larger budget");
            let warm_b = ise_sched::lp::solve_lp_warm(&perturbed, &opts, Some(&basis))
                .expect("feasible at larger budget");
            let scale = 1.0 + cold_b.objective.abs();
            prop_assert!(
                (warm_b.objective - cold_b.objective).abs() <= 1e-6 * scale,
                "{kind:?}: warm {} != cold {}", warm_b.objective, cold_b.objective
            );
            prop_assert!(warm_b.iterations <= cold_b.iterations + 5);
        }
    }

    /// Devex partial pricing must reproduce the Dantzig optimum on the
    /// production LP family — same feasibility verdict, same objective,
    /// both dual-certified.
    #[test]
    fn tise_lp_devex_matches_dantzig((p, seed, family) in params()) {
        let instance = make_instance(&p, seed, family);
        let jobs = instance.partition_long_short().0;
        if jobs.is_empty() {
            return Ok(());
        }
        let tise = build(&jobs, instance.calib_len(), 3 * instance.machines());

        let devex = solve_lp(&tise, &SolveOptions::default());
        let dantzig = solve_lp(&tise, &dantzig_opts());
        match (devex, dantzig) {
            (Ok(s), Ok(d)) => {
                let scale = 1.0 + s.objective.abs();
                prop_assert!(
                    (s.objective - d.objective).abs() <= 1e-6 * scale,
                    "objectives diverge: devex {} dantzig {}", s.objective, d.objective
                );
                let sd = s.certified_dual_bound.expect("devex dual certificate");
                let dd = d.certified_dual_bound.expect("dantzig dual certificate");
                prop_assert!((sd - s.objective).abs() <= 1e-5 * scale);
                prop_assert!((dd - d.objective).abs() <= 1e-5 * scale);
                prop_assert_eq!(d.pricing.window_hits, 0);
            }
            (Err(s), Err(d)) => {
                prop_assert_eq!(
                    std::mem::discriminant(&s),
                    std::mem::discriminant(&d),
                    "error kinds diverge: devex {:?} dantzig {:?}", s, d
                );
            }
            (s, d) => {
                return Err(TestCaseError::fail(format!(
                    "verdicts diverge: devex {s:?} dantzig {d:?}"
                )));
            }
        }
    }

    /// A warm re-solve under each pricing rule reaches the same optimum —
    /// pricing choice cannot interact with warm-start correctness.
    #[test]
    fn tise_lp_warm_resolve_agrees_across_pricing((p, seed, _) in params()) {
        let instance = long_only(&p, seed);
        let jobs = instance.partition_long_short().0;
        if jobs.is_empty() {
            return Ok(());
        }
        let budget = 3 * instance.machines();
        let Ok(cold) = solve_lp(&build(&jobs, instance.calib_len(), budget), &SolveOptions::default())
        else {
            return Ok(());
        };
        let basis = cold.basis.expect("optimal solve carries a basis");
        let perturbed = build(&jobs, instance.calib_len(), budget + 1);
        let warm_devex = ise_sched::lp::solve_lp_warm(&perturbed, &SolveOptions::default(), Some(&basis))
            .expect("feasible at larger budget");
        let warm_dantzig = ise_sched::lp::solve_lp_warm(&perturbed, &dantzig_opts(), Some(&basis))
            .expect("feasible at larger budget");
        let scale = 1.0 + warm_devex.objective.abs();
        prop_assert!(
            (warm_devex.objective - warm_dantzig.objective).abs() <= 1e-6 * scale,
            "warm devex {} != warm dantzig {}", warm_devex.objective, warm_dantzig.objective
        );
        // Both rules see the same basis: warm acceptance is a property of
        // the basis/LP pair, not of the pricing rule.
        prop_assert_eq!(warm_devex.warm_used, warm_dantzig.warm_used);
    }
}
