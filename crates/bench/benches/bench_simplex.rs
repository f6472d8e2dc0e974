//! Criterion bench: the LP hot path in isolation — LU versus eta-file
//! versus dense-inverse factorization, devex versus Dantzig pricing, and
//! cold versus warm-started solves.
//! The `ise bench` CLI suite (`BENCH_lp.json`) is the pinned regression
//! gate; this bench is for interactive profiling of the same
//! configurations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ise_bench::perf::{suite, DENSE_COL_CAP};
use ise_sched::lp::{build, solve_lp_warm};
use ise_simplex::{Factorization, Pricing, SolveOptions};

fn bench_cold(c: &mut Criterion) {
    let mut group = c.benchmark_group("tise_lp_cold");
    group.sample_size(10);
    for spec in suite(true) {
        let instance = spec.instance().unwrap();
        let jobs = instance.partition_long_short().0;
        let tise = build(&jobs, instance.calib_len(), 3 * instance.machines());
        let paths = [
            ("lu_devex", Factorization::Lu, Pricing::Devex),
            ("eta_devex", Factorization::Eta, Pricing::Devex),
            ("lu_dantzig", Factorization::Lu, Pricing::Dantzig),
            ("dense", Factorization::Dense, Pricing::Dantzig),
        ];
        for (path, factorization, pricing) in paths {
            if factorization == Factorization::Dense && tise.lp.num_vars() > DENSE_COL_CAP {
                continue;
            }
            let opts = SolveOptions {
                factorization,
                pricing,
                ..SolveOptions::default()
            };
            group.bench_with_input(BenchmarkId::new(path, &spec.name), &tise, |b, tise| {
                b.iter(|| solve_lp_warm(tise, &opts, None).unwrap())
            });
        }
    }
    group.finish();
}

fn bench_warm(c: &mut Criterion) {
    let mut group = c.benchmark_group("tise_lp_warm");
    group.sample_size(10);
    for spec in suite(true) {
        let instance = spec.instance().unwrap();
        let jobs = instance.partition_long_short().0;
        let budget = 3 * instance.machines();
        // Basis from the cold solve; the benched solves re-target the same
        // LP at budget + 1 (an rhs-only perturbation) so phase 1 is
        // skipped.
        let cold = solve_lp_warm(
            &build(&jobs, instance.calib_len(), budget),
            &SolveOptions::default(),
            None,
        )
        .unwrap();
        let basis = cold.basis.expect("optimal solve carries a basis");
        let perturbed = build(&jobs, instance.calib_len(), budget + 1);
        for (path, pricing) in [("devex", Pricing::Devex), ("dantzig", Pricing::Dantzig)] {
            let opts = SolveOptions {
                pricing,
                ..SolveOptions::default()
            };
            group.bench_with_input(BenchmarkId::new(path, &spec.name), &perturbed, |b, tise| {
                b.iter(|| solve_lp_warm(tise, &opts, Some(&basis)).unwrap())
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_cold, bench_warm);
criterion_main!(benches);
