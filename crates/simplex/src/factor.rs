//! Basis representations for the revised simplex.
//!
//! The solver needs four operations against the basis matrix `B`:
//!
//! * **FTRAN** — `w = B⁻¹ a` for a sparse column `a` (the pivot direction);
//! * **BTRAN** — `y = cᵀ B⁻¹` for a dense row vector `c` (the simplex
//!   multipliers used in pricing);
//! * **update** — replace one basis column after a pivot;
//! * **refactor** — rebuild the representation from the basis columns when
//!   the update sequence grows long or looks numerically unsafe.
//!
//! Three implementations live behind the [`Factor`] enum, selected by
//! [`Factorization`]:
//!
//! * [`LuFactor`] (the default) keeps a sparse `B = L·U` factorization:
//!   Markowitz-pivoting reinversion, Forrest–Tomlin pivot updates, and
//!   hyper-sparse (Gilbert–Peierls) FTRAN/BTRAN that traverse only the
//!   reach of the input support. Its outputs are **indexed sparse
//!   vectors** ([`SpVec`]) whose tracked support lets the pivot loop skip
//!   the dense `O(m)` scans entirely. See [`crate::lu`] for the kernel.
//! * [`EtaFile`] keeps the **product form of the inverse**:
//!   `B⁻¹ = E_k ⋯ E_1` where each eta matrix `E_i` differs from the
//!   identity in one column. A pivot appends one eta (`O(nnz(w))`), FTRAN
//!   applies the etas oldest-first and BTRAN newest-first, each in
//!   `O(Σ nnz(eta))`. Retained as the first-line cross-check oracle (the
//!   conformance differential runs LU-vs-Eta) and as the first fallback
//!   rung of the recovery ladder. Its outputs are dense-mode [`SpVec`]s,
//!   preserving the historical iteration order bit for bit.
//! * [`DenseInverse`] maintains `B⁻¹` explicitly (row major). Every update
//!   is an `O(m²)` elimination and BTRAN/FTRAN are `O(m²)`/`O(m·nnz)`.
//!   This is the original kernel, kept as the last-resort oracle.
//!
//! All hot-path operations come in `_into` form writing into
//! caller-provided buffers, which the solver keeps for the whole solve, so
//! the pivot loop reuses them instead of allocating per iteration. The eta
//! file and the LU arenas are truncated rather than freed on
//! refactorization, so later pivots reuse their capacity too.

use crate::lu::reset_to;
use crate::solver::SolverError;

pub use crate::lu::{FactorStats, LuFactor, SpVec, Support};

/// Pivot threshold below which a refactorization declares the basis
/// singular. Matches the dense Gauss–Jordan kernel's historical value.
const SINGULAR_TOL: f64 = 1e-12;

/// Which basis kernel a solve runs on. `Lu` is the production default;
/// `Eta` and `Dense` survive as independently implemented cross-check
/// oracles and as the last two rungs of the recovery ladder.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Factorization {
    /// Sparse LU with Forrest–Tomlin updates and hyper-sparse solves.
    #[default]
    Lu,
    /// Product-form-of-the-inverse eta file.
    Eta,
    /// Explicit dense inverse.
    Dense,
}

/// One eta matrix header: identity except column `row`, with the pivot
/// element `diag` and off-diagonal entries stored in the shared arena at
/// `data[start..start + len]`.
struct EtaHdr {
    row: usize,
    /// `w_row` — the pivot element.
    diag: f64,
    start: usize,
    len: usize,
}

/// Product-form (eta-file) representation of `B⁻¹`, stored as an arena:
/// headers plus one shared off-diagonal vec. Clearing truncates both vecs
/// in place, so repeated refactorizations reuse capacity.
#[derive(Default)]
pub struct EtaFile {
    hdr: Vec<EtaHdr>,
    /// `(i, w_i)` entries for all etas, concatenated.
    data: Vec<(usize, f64)>,
}

impl EtaFile {
    /// Append the eta derived from pivot direction `w` leaving at `row`
    /// (`E[row][row] = 1/w_row`, `E[i][row] = -w_i/w_row`).
    fn push_direction(&mut self, row: usize, w: &[f64]) {
        let start = self.data.len();
        for (i, &wi) in w.iter().enumerate() {
            if i != row && wi.abs() > SINGULAR_TOL {
                self.data.push((i, wi));
            }
        }
        self.hdr.push(EtaHdr {
            row,
            diag: w[row],
            start,
            len: self.data.len() - start,
        });
    }

    fn clear(&mut self) {
        self.hdr.clear();
        self.data.clear();
    }

    fn apply_all_ftran(&self, v: &mut [f64]) {
        for eta in &self.hdr {
            let t = v[eta.row];
            if t == 0.0 {
                continue;
            }
            let f = t / eta.diag;
            v[eta.row] = f;
            for &(i, wi) in &self.data[eta.start..eta.start + eta.len] {
                v[i] -= wi * f;
            }
        }
    }

    fn apply_all_btran(&self, y: &mut [f64]) {
        for eta in self.hdr.iter().rev() {
            let mut s = y[eta.row];
            for &(i, wi) in &self.data[eta.start..eta.start + eta.len] {
                s -= y[i] * wi;
            }
            y[eta.row] = s / eta.diag;
        }
    }

    /// Number of eta terms currently in the file (diagnostic).
    pub fn len(&self) -> usize {
        self.hdr.len()
    }

    /// Whether the file is empty (represents the identity).
    pub fn is_empty(&self) -> bool {
        self.hdr.is_empty()
    }
}

/// Explicit dense `B⁻¹`, row major — the original kernel.
pub struct DenseInverse {
    m: usize,
    binv: Vec<f64>,
}

/// Reusable scratch for [`Factor::refactor_with`]: the reinversion order,
/// permutation bookkeeping, one dense column buffer, and the dense kernel's
/// working matrix. The solver keeps one for the whole solve, so repeated
/// refactorizations reuse its buffers. (The LU kernel carries its own
/// scratch inside [`LuFactor`].)
#[derive(Default)]
pub struct FactorScratch {
    dense_a: Vec<f64>,
    order: Vec<usize>,
    new_basis: Vec<usize>,
    assigned: Vec<bool>,
    col: Vec<f64>,
}

/// A basis representation: sparse LU, product-form eta file, or dense
/// explicit inverse.
pub enum Factor {
    /// Sparse LU with Forrest–Tomlin updates (default). Boxed: the LU
    /// factor holds ~1 KiB of inline arena headers and scratch vectors,
    /// against a few dozen bytes for the other variants, and an unboxed
    /// variant would make every `Factor` that large.
    Lu(Box<LuFactor>),
    /// Dense explicit inverse (last-resort oracle).
    Dense(DenseInverse),
    /// Product-form inverse (first-line oracle).
    Eta(EtaFile),
}

impl Factor {
    /// The identity factorization for an `m`-row basis.
    pub fn identity(m: usize, kind: Factorization) -> Factor {
        match kind {
            Factorization::Lu => {
                let mut lu = Box::<LuFactor>::default();
                lu.reset_identity(m);
                Factor::Lu(lu)
            }
            Factorization::Eta => Factor::Eta(EtaFile::default()),
            Factorization::Dense => {
                let mut binv = vec![0.0; m * m];
                for i in 0..m {
                    binv[i * m + i] = 1.0;
                }
                Factor::Dense(DenseInverse { m, binv })
            }
        }
    }

    /// Reset to the identity in place, keeping all capacity.
    pub fn reset_identity(&mut self) {
        match self {
            Factor::Lu(lu) => lu.reset_to_identity(),
            Factor::Dense(d) => {
                d.binv.fill(0.0);
                for i in 0..d.m {
                    d.binv[i * d.m + i] = 1.0;
                }
            }
            Factor::Eta(e) => e.clear(),
        }
    }

    /// Effort counters for the LU kernel (zeroes for the oracle kernels).
    pub fn stats(&self) -> FactorStats {
        match self {
            Factor::Lu(lu) => lu.stats,
            _ => FactorStats::default(),
        }
    }

    /// FTRAN against a sparse column: `out = B⁻¹ a`. The LU kernel leaves
    /// `out` in sparse mode when the hyper-sparse path ran; the oracle
    /// kernels always produce dense-mode vectors.
    pub fn ftran_col_into(&mut self, m: usize, col: &[(usize, f64)], out: &mut SpVec) {
        match self {
            Factor::Lu(lu) => lu.ftran(col, out),
            Factor::Dense(d) => {
                out.reset(m);
                out.make_dense();
                let vals = out.vals_mut();
                for &(r, a) in col {
                    for (i, wi) in vals.iter_mut().enumerate() {
                        *wi += a * d.binv[i * m + r];
                    }
                }
            }
            Factor::Eta(e) => {
                out.reset(m);
                out.make_dense();
                let vals = out.vals_mut();
                for &(r, a) in col {
                    vals[r] = a;
                }
                e.apply_all_ftran(vals);
            }
        }
    }

    /// Allocating convenience wrapper around [`Factor::ftran_col_into`].
    pub fn ftran_col(&mut self, m: usize, col: &[(usize, f64)]) -> Vec<f64> {
        let mut out = SpVec::default();
        self.ftran_col_into(m, col, &mut out);
        out.vals().to_vec()
    }

    /// BTRAN against a dense row vector: `out = vᵀ B⁻¹`.
    pub fn btran_into(&mut self, m: usize, v: &[f64], out: &mut SpVec) {
        match self {
            Factor::Lu(lu) => lu.btran(v, out),
            Factor::Dense(d) => {
                out.reset(m);
                out.make_dense();
                let vals = out.vals_mut();
                for (i, &vi) in v.iter().enumerate() {
                    if vi != 0.0 {
                        let row = &d.binv[i * m..(i + 1) * m];
                        for (yk, &bk) in vals.iter_mut().zip(row) {
                            *yk += vi * bk;
                        }
                    }
                }
            }
            Factor::Eta(e) => {
                out.load_dense(v);
                e.apply_all_btran(out.vals_mut());
            }
        }
    }

    /// Allocating convenience wrapper around [`Factor::btran_into`]:
    /// returns `yᵀ = vᵀ B⁻¹`.
    pub fn btran(&mut self, m: usize, v: Vec<f64>) -> Vec<f64> {
        let mut out = SpVec::default();
        self.btran_into(m, &v, &mut out);
        out.vals().to_vec()
    }

    /// Row `row` of `B⁻¹` (`e_rowᵀ B⁻¹`), used to probe pivot elements when
    /// driving artificials out of the basis and for devex weight updates.
    /// Under LU this is the *partial* BTRAN: the unit seed is maximally
    /// sparse, so only the reach of `row` is materialized and the caller's
    /// pricing loop can skip everything outside `out`'s tracked support.
    pub fn row_of_inverse_into(&mut self, m: usize, row: usize, out: &mut SpVec) {
        match self {
            Factor::Lu(lu) => lu.btran_unit(row, out),
            Factor::Dense(d) => {
                out.reset(m);
                out.make_dense();
                out.vals_mut()
                    .copy_from_slice(&d.binv[row * m..(row + 1) * m]);
            }
            Factor::Eta(e) => {
                out.reset(m);
                out.make_dense();
                let vals = out.vals_mut();
                vals[row] = 1.0;
                e.apply_all_btran(vals);
            }
        }
    }

    /// Allocating convenience wrapper around [`Factor::row_of_inverse_into`].
    pub fn row_of_inverse(&mut self, m: usize, row: usize) -> Vec<f64> {
        let mut out = SpVec::default();
        self.row_of_inverse_into(m, row, &mut out);
        out.vals().to_vec()
    }

    /// Account for a pivot with direction `w` leaving at `leaving_row`.
    /// The caller guarantees `|w[leaving_row]|` is above its pivot
    /// tolerance. Returns `false` when the update was *refused* on
    /// stability grounds (Forrest–Tomlin only) — the factor is then stale
    /// and the caller must refactorize before the next solve operation.
    pub fn update(&mut self, leaving_row: usize, w: &SpVec) -> bool {
        match self {
            Factor::Lu(lu) => lu.update(leaving_row, w),
            Factor::Dense(d) => {
                let m = d.m;
                let w = w.vals();
                let piv = w[leaving_row];
                let inv_piv = 1.0 / piv;
                let (before, rest) = d.binv.split_at_mut(leaving_row * m);
                let (prow, after) = rest.split_at_mut(m);
                for v in prow.iter_mut() {
                    *v *= inv_piv;
                }
                for (i, chunk) in before.chunks_exact_mut(m).enumerate() {
                    let f = w[i];
                    if f != 0.0 {
                        for (c, p) in chunk.iter_mut().zip(prow.iter()) {
                            *c -= f * p;
                        }
                    }
                }
                for (k, chunk) in after.chunks_exact_mut(m).enumerate() {
                    let f = w[leaving_row + 1 + k];
                    if f != 0.0 {
                        for (c, p) in chunk.iter_mut().zip(prow.iter()) {
                            *c -= f * p;
                        }
                    }
                }
                true
            }
            Factor::Eta(e) => {
                e.push_direction(leaving_row, w.vals());
                true
            }
        }
    }

    /// Rebuild the representation from the basis columns and recompute
    /// `xb = B⁻¹ b`, using `scratch` for every intermediate buffer. The
    /// LU and eta reinversions may permute which row position each basic
    /// variable occupies; `basis` is updated accordingly so the caller's
    /// row-indexed state stays consistent.
    pub fn refactor_with(
        &mut self,
        cols: &[Vec<(usize, f64)>],
        basis: &mut [usize],
        b: &[f64],
        xb: &mut [f64],
        scratch: &mut FactorScratch,
    ) -> Result<(), SolverError> {
        let m = basis.len();
        match self {
            Factor::Lu(lu) => lu.refactor(cols, basis, b, xb),
            Factor::Dense(d) => {
                debug_assert_eq!(d.m, m);
                let a = &mut scratch.dense_a;
                reset_to(a, m * m, 0.0);
                for (col, &bv) in basis.iter().enumerate() {
                    for &(r, v) in &cols[bv] {
                        a[r * m + col] = v;
                    }
                }
                let inv = &mut d.binv;
                inv.fill(0.0);
                for i in 0..m {
                    inv[i * m + i] = 1.0;
                }
                for col in 0..m {
                    let mut best = col;
                    let mut best_val = a[col * m + col].abs();
                    for r in (col + 1)..m {
                        let v = a[r * m + col].abs();
                        if v > best_val {
                            best_val = v;
                            best = r;
                        }
                    }
                    if best_val < SINGULAR_TOL {
                        return Err(SolverError::SingularBasis);
                    }
                    if best != col {
                        for k in 0..m {
                            a.swap(col * m + k, best * m + k);
                            inv.swap(col * m + k, best * m + k);
                        }
                    }
                    let inv_piv = 1.0 / a[col * m + col];
                    for k in 0..m {
                        a[col * m + k] *= inv_piv;
                        inv[col * m + k] *= inv_piv;
                    }
                    for r in 0..m {
                        if r != col {
                            let f = a[r * m + col];
                            if f != 0.0 {
                                for k in 0..m {
                                    a[r * m + k] -= f * a[col * m + k];
                                    inv[r * m + k] -= f * inv[col * m + k];
                                }
                            }
                        }
                    }
                }
                for (i, x) in xb.iter_mut().enumerate().take(m) {
                    let row = &d.binv[i * m..(i + 1) * m];
                    *x = row.iter().zip(b).map(|(v, bi)| v * bi).sum();
                }
                Ok(())
            }
            Factor::Eta(e) => {
                e.clear();
                // Reinversion sweep: process the sparsest columns first so
                // early etas stay short, assign each column the unpivoted
                // row where its transformed value is largest. Keys are
                // distinct (basis entries are distinct), so the unstable
                // sort is deterministic.
                let order = &mut scratch.order;
                order.clear();
                order.extend(0..m);
                order.sort_unstable_by_key(|&i| (cols[basis[i]].len(), basis[i]));
                let new_basis = &mut scratch.new_basis;
                reset_to(new_basis, m, usize::MAX);
                let assigned = &mut scratch.assigned;
                reset_to(assigned, m, false);
                let v = &mut scratch.col;
                reset_to(v, m, 0.0);
                for &pos in order.iter() {
                    let var = basis[pos];
                    v.fill(0.0);
                    for &(r, a) in &cols[var] {
                        v[r] = a;
                    }
                    e.apply_all_ftran(v);
                    let mut best = usize::MAX;
                    let mut best_val = SINGULAR_TOL;
                    for (r, &vr) in v.iter().enumerate() {
                        if !assigned[r] && vr.abs() > best_val {
                            best_val = vr.abs();
                            best = r;
                        }
                    }
                    if best == usize::MAX {
                        return Err(SolverError::SingularBasis);
                    }
                    e.push_direction(best, v);
                    assigned[best] = true;
                    new_basis[best] = var;
                }
                basis.copy_from_slice(new_basis);
                v.copy_from_slice(b);
                e.apply_all_ftran(v);
                xb.copy_from_slice(v);
                Ok(())
            }
        }
    }

    /// [`Factor::refactor_with`] against throwaway scratch — the original
    /// allocating entry point, kept for tests and one-shot callers.
    pub fn refactor(
        &mut self,
        cols: &[Vec<(usize, f64)>],
        basis: &mut [usize],
        b: &[f64],
        xb: &mut [f64],
    ) -> Result<(), SolverError> {
        let mut scratch = FactorScratch::default();
        self.refactor_with(cols, basis, b, xb, &mut scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [Factorization; 3] = [Factorization::Lu, Factorization::Eta, Factorization::Dense];

    /// Columns of a 3×3 matrix B = [[2,0,1],[0,3,0],[1,0,1]].
    fn cols3() -> Vec<Vec<(usize, f64)>> {
        vec![
            vec![(0, 2.0), (2, 1.0)],
            vec![(1, 3.0)],
            vec![(0, 1.0), (2, 1.0)],
        ]
    }

    fn check_inverse(f: &mut Factor, cols: &[Vec<(usize, f64)>], basis: &[usize]) {
        let m = basis.len();
        // B⁻¹ B should be the permutation mapping basis position -> row.
        for (pos, &var) in basis.iter().enumerate() {
            let w = f.ftran_col(m, &cols[var]);
            for (i, &wi) in w.iter().enumerate() {
                let expect = if i == pos { 1.0 } else { 0.0 };
                assert!(
                    (wi - expect).abs() < 1e-9,
                    "ftran(col {var})[{i}] = {wi}, expected {expect}"
                );
            }
        }
    }

    #[test]
    fn refactor_inverts_every_kind() {
        for kind in KINDS {
            let cols = cols3();
            let mut basis = vec![0, 1, 2];
            let b = vec![1.0, 2.0, 3.0];
            let mut xb = vec![0.0; 3];
            let mut f = Factor::identity(3, kind);
            f.refactor(&cols, &mut basis, &b, &mut xb).unwrap();
            check_inverse(&mut f, &cols, &basis);
            // xb solves B xb(perm) = b: verify by multiplying back.
            let mut back = vec![0.0; 3];
            for (pos, &var) in basis.iter().enumerate() {
                for &(r, a) in &cols[var] {
                    back[r] += a * xb[pos];
                }
            }
            for (bi, &gi) in b.iter().zip(&back) {
                assert!(
                    (bi - gi).abs() < 1e-9,
                    "B xb = {back:?} vs b = {b:?} ({kind:?})"
                );
            }
        }
    }

    #[test]
    fn all_kinds_btran_agree() {
        let cols = cols3();
        let b = vec![0.0; 3];
        let mut xb = vec![0.0; 3];

        // Compare y = vᵀ B⁻¹ after mapping the (possibly permuted) basis
        // position of each variable: v is indexed by position, so build v
        // per representation assigning cost 1.0 to variable 0.
        let cost = |basis: &[usize]| {
            let mut v = vec![0.0; 3];
            for (pos, &var) in basis.iter().enumerate() {
                if var == 0 {
                    v[pos] = 1.0;
                }
            }
            v
        };
        let mut results = Vec::new();
        for kind in KINDS {
            let mut f = Factor::identity(3, kind);
            let mut basis = vec![0usize, 1, 2];
            f.refactor(&cols, &mut basis, &b, &mut xb).unwrap();
            results.push(f.btran(3, cost(&basis)));
        }
        for y in &results[1..] {
            for (a, b) in results[0].iter().zip(y) {
                assert!((a - b).abs() < 1e-9, "{results:?}");
            }
        }
    }

    #[test]
    fn singular_basis_detected() {
        // Two copies of the same column.
        let cols = vec![vec![(0, 1.0), (1, 1.0)], vec![(0, 1.0), (1, 1.0)]];
        let b = vec![0.0; 2];
        let mut xb = vec![0.0; 2];
        for kind in KINDS {
            let mut f = Factor::identity(2, kind);
            let mut basis = vec![0usize, 1];
            assert_eq!(
                f.refactor(&cols, &mut basis, &b, &mut xb).unwrap_err(),
                SolverError::SingularBasis,
                "{kind:?}"
            );
        }
    }

    #[test]
    fn update_tracks_column_swap() {
        // Start from identity basis {slack-like unit columns}, bring in a
        // new column, and verify FTRAN of that column is a unit vector.
        let cols = vec![
            vec![(0, 1.0)],
            vec![(1, 1.0)],
            vec![(0, 2.0), (1, 1.0)], // entering column
        ];
        for kind in KINDS {
            let mut f = Factor::identity(2, kind);
            let mut w = SpVec::default();
            f.ftran_col_into(2, &cols[2], &mut w);
            assert_eq!(w.vals(), &[2.0, 1.0]);
            assert!(f.update(0, &w)); // column 2 replaces position 0
            let basis = vec![2usize, 1];
            check_inverse(&mut f, &cols, &basis);
        }
    }

    #[test]
    fn reset_identity_keeps_capacity_and_semantics() {
        let cols = cols3();
        let b = vec![1.0, 2.0, 3.0];
        let mut xb = vec![0.0; 3];
        for kind in KINDS {
            let mut f = Factor::identity(3, kind);
            let mut basis = vec![0usize, 1, 2];
            f.refactor(&cols, &mut basis, &b, &mut xb).unwrap();
            f.reset_identity();
            // Identity: FTRAN of a unit column is that unit column.
            let w = f.ftran_col(3, &[(1, 1.0)]);
            assert_eq!(w, vec![0.0, 1.0, 0.0]);
        }
    }

    #[test]
    fn into_ops_match_allocating_ops() {
        let cols = cols3();
        let b = vec![1.0, 2.0, 3.0];
        let mut xb = vec![0.0; 3];
        for kind in KINDS {
            let mut f = Factor::identity(3, kind);
            let mut basis = vec![0usize, 1, 2];
            let mut scratch = FactorScratch::default();
            f.refactor_with(&cols, &mut basis, &b, &mut xb, &mut scratch)
                .unwrap();

            let mut w = SpVec::default();
            let mut y = SpVec::default();
            let mut r0 = SpVec::default();
            f.ftran_col_into(3, &cols[0], &mut w);
            f.btran_into(3, &[1.0, 0.0, 0.5], &mut y);
            f.row_of_inverse_into(3, 1, &mut r0);
            assert_eq!(w.vals(), f.ftran_col(3, &cols[0]).as_slice());
            assert_eq!(y.vals(), f.btran(3, vec![1.0, 0.0, 0.5]).as_slice());
            assert_eq!(r0.vals(), f.row_of_inverse(3, 1).as_slice());
        }
    }

    #[test]
    fn lu_stats_count_kernel_effort() {
        let cols = cols3();
        let b = vec![1.0, 2.0, 3.0];
        let mut xb = vec![0.0; 3];
        let mut f = Factor::identity(3, Factorization::Lu);
        let mut basis = vec![0usize, 1, 2];
        f.refactor(&cols, &mut basis, &b, &mut xb).unwrap();
        let stats = f.stats();
        assert_eq!(stats.lu_refactors, 1);
        assert!(stats.fill_nnz >= 3, "diagonal alone is m entries");
        // Oracle kernels report no LU effort.
        let eta = Factor::identity(3, Factorization::Eta);
        assert_eq!(eta.stats(), FactorStats::default());
    }
}
