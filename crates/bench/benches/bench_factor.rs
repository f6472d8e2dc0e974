//! Criterion bench: the basis-factorization kernels in isolation —
//! FTRAN/BTRAN on each kernel at right-hand-side densities of 1%, 5%,
//! 25%, and 100% of the basis dimension, plus a refactorize/update
//! comparison. This is where the hyper-sparse (Gilbert–Peierls) paths
//! show their payoff: at low densities the LU kernel touches only the
//! reach of the input support, while the eta and dense kernels always
//! walk the full dimension.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ise_simplex::factor::Factor;
use ise_simplex::{Factorization, SpVec};

const M: usize = 600;
const DENSITIES_PCT: [usize; 4] = [1, 5, 25, 100];

/// Deterministic sparse, diagonally dominant basis columns: column `j`
/// holds a strong diagonal plus a few off-diagonal entries.
fn random_cols(m: usize, seed: u64) -> Vec<Vec<(usize, f64)>> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    (0..m)
        .map(|j| {
            let mut col = vec![(j, 8.0 + (next() % 5) as f64)];
            for _ in 0..3 {
                let r = next() % m;
                if col.iter().all(|e| e.0 != r) {
                    col.push((r, ((next() % 9) as f64) - 4.0));
                }
            }
            col
        })
        .collect()
}

/// A right-hand-side column with `nnz` deterministic entries.
fn rhs(m: usize, nnz: usize, seed: u64) -> Vec<(usize, f64)> {
    let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let mut col: Vec<(usize, f64)> = Vec::new();
    while col.len() < nnz.max(1) {
        let r = next() % m;
        if col.iter().all(|e| e.0 != r) {
            col.push((r, 1.0 + (next() % 7) as f64));
        }
    }
    col
}

fn factored(kind: Factorization, cols: &[Vec<(usize, f64)>]) -> (Factor, Vec<usize>) {
    let m = cols.len();
    let mut basis: Vec<usize> = (0..m).collect();
    let b = vec![1.0; m];
    let mut xb = vec![0.0; m];
    let mut f = Factor::identity(m, kind);
    f.refactor(cols, &mut basis, &b, &mut xb)
        .expect("nonsingular");
    (f, basis)
}

fn bench_ftran(c: &mut Criterion) {
    let cols = random_cols(M, 41);
    let mut group = c.benchmark_group("factor_ftran");
    for kind in [Factorization::Lu, Factorization::Eta, Factorization::Dense] {
        let (mut f, _) = factored(kind, &cols);
        for pct in DENSITIES_PCT {
            let col = rhs(M, (M * pct).div_ceil(100), 7 + pct as u64);
            let mut out = SpVec::default();
            let id = BenchmarkId::new(format!("{kind:?}").to_lowercase(), format!("{pct}pct"));
            group.bench_with_input(id, &col, |bench, col| {
                bench.iter(|| {
                    f.ftran_col_into(M, col, &mut out);
                    out.nnz()
                })
            });
        }
    }
    group.finish();
}

fn bench_btran(c: &mut Criterion) {
    let cols = random_cols(M, 43);
    let mut group = c.benchmark_group("factor_btran");
    for kind in [Factorization::Lu, Factorization::Eta, Factorization::Dense] {
        let (mut f, _) = factored(kind, &cols);
        for pct in DENSITIES_PCT {
            let mut y = vec![0.0; M];
            for (r, a) in rhs(M, (M * pct).div_ceil(100), 19 + pct as u64) {
                y[r] = a;
            }
            let mut out = SpVec::default();
            let id = BenchmarkId::new(format!("{kind:?}").to_lowercase(), format!("{pct}pct"));
            group.bench_with_input(id, &y, |bench, y| {
                bench.iter(|| {
                    f.btran_into(M, y, &mut out);
                    out.nnz()
                })
            });
        }
    }
    group.finish();
}

fn bench_update(c: &mut Criterion) {
    // One Forrest–Tomlin update versus a full Markowitz reinversion, the
    // trade `refactor_every` balances.
    let cols = random_cols(M, 47);
    let mut group = c.benchmark_group("factor_update");
    group.bench_function("ft_update", |bench| {
        let (mut f, _) = factored(Factorization::Lu, &cols);
        let mut w = SpVec::default();
        // Dominant mass at the replaced row keeps the factor
        // well-conditioned (and the update accepted) across iterations.
        let probe = vec![(0, 10.0), (17, 1.0), (93, -2.0), (241, 0.5)];
        bench.iter(|| {
            f.ftran_col_into(M, &probe, &mut w);
            f.update(0, &w)
        })
    });
    group.bench_function("markowitz_refactor", |bench| {
        let (mut f, mut basis) = factored(Factorization::Lu, &cols);
        let b = vec![1.0; M];
        let mut xb = vec![0.0; M];
        bench.iter(|| f.refactor(&cols, &mut basis, &b, &mut xb))
    });
    group.finish();
}

criterion_group!(benches, bench_ftran, bench_btran, bench_update);
criterion_main!(benches);
