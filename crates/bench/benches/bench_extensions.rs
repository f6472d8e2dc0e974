//! Criterion bench: the engineering extensions — decomposition vs the
//! monolithic solver on bursty workloads (the D1 experiment's runtime
//! counterpart).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ise_sched::decompose::solve_decomposed;
use ise_sched::{solve, SolverOptions};
use ise_workloads::{stockpile, WorkloadParams};

fn bench_decompose(c: &mut Criterion) {
    let mut group = c.benchmark_group("decompose_vs_monolithic");
    group.sample_size(10);
    for &n in &[12usize, 24] {
        let params = WorkloadParams {
            jobs: n,
            machines: 2,
            calib_len: 10,
            horizon: 1,
        };
        let inst = stockpile(&params, 400, 6, 7);
        group.bench_with_input(BenchmarkId::new("monolithic", n), &inst, |b, inst| {
            b.iter(|| solve(inst, &SolverOptions::default()).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("decomposed", n), &inst, |b, inst| {
            b.iter(|| solve_decomposed(inst, &SolverOptions::default()).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_decompose);
criterion_main!(benches);
