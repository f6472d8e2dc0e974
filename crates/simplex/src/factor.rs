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
//! Two implementations live behind the [`Factor`] enum, selected by
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
//!   `O(Σ nnz(eta))`. Retained as the independent cross-check kernel (the
//!   conformance differential runs LU-vs-Eta) and as the last rung of the
//!   recovery ladder. Its outputs are dense-mode [`SpVec`]s, preserving
//!   the historical iteration order bit for bit.
//!
//! All hot-path operations come in `_into` form writing into
//! caller-provided buffers, which the solver keeps for the whole solve, so
//! the pivot loop reuses them instead of allocating per iteration. Each
//! kernel owns its reinversion scratch, and the eta file and the LU arenas
//! are truncated rather than freed on refactorization, so later pivots and
//! reinversions reuse their capacity too.

use crate::lu::reset_to;
use crate::solver::SolverError;

pub use crate::lu::{FactorStats, LuFactor, SpVec, Support};

/// Pivot magnitude below which the eta reinversion declares the basis
/// singular; eta entries below it are dropped as zeros.
const SINGULAR_TOL: f64 = 1e-12;

/// Which basis kernel a solve runs on. `Lu` is the production default;
/// `Eta` survives as the independently implemented cross-check kernel and
/// as the last rung of the recovery ladder.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Factorization {
    /// Sparse LU with Forrest–Tomlin updates and hyper-sparse solves.
    #[default]
    Lu,
    /// Product-form-of-the-inverse eta file.
    Eta,
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

/// The eta matrices themselves, stored as an arena: headers plus one
/// shared off-diagonal vec. Clearing truncates both vecs in place.
#[derive(Default)]
struct Etas {
    hdr: Vec<EtaHdr>,
    /// `(i, w_i)` entries for all etas, concatenated.
    data: Vec<(usize, f64)>,
}

impl Etas {
    /// Append the eta derived from pivot direction `w` leaving at `row`
    /// (`E[row][row] = 1/w_row`, `E[i][row] = -w_i/w_row`).
    fn push(&mut self, row: usize, w: &[f64]) {
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

    fn ftran(&self, v: &mut [f64]) {
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

    fn btran(&self, y: &mut [f64]) {
        for eta in self.hdr.iter().rev() {
            let mut s = y[eta.row];
            for &(i, wi) in &self.data[eta.start..eta.start + eta.len] {
                s -= y[i] * wi;
            }
            y[eta.row] = s / eta.diag;
        }
    }
}

/// Product-form (eta-file) representation of `B⁻¹`: the eta arena plus
/// the reinversion sweep's scratch, all reused across refactorizations.
#[derive(Default)]
pub struct EtaFile {
    etas: Etas,
    /// Reinversion order over basis positions (sparsest column first).
    order: Vec<usize>,
    /// Basic variable per pivot row, as the reinversion assigns them.
    new_basis: Vec<usize>,
    /// Rows the reinversion has already pivoted on.
    assigned: Vec<bool>,
    /// Dense column being transformed by the reinversion.
    col: Vec<f64>,
}

impl EtaFile {
    /// Reinversion sweep: process the sparsest columns first so early etas
    /// stay short, and assign each column the unpivoted row where its
    /// transformed value is largest. Keys are distinct (basis entries are
    /// distinct), so the unstable sort is deterministic.
    fn refactor(
        &mut self,
        cols: &[Vec<(usize, f64)>],
        basis: &mut [usize],
        b: &[f64],
        xb: &mut [f64],
    ) -> Result<(), SolverError> {
        let m = basis.len();
        let EtaFile {
            etas,
            order,
            new_basis,
            assigned,
            col: v,
        } = self;
        etas.clear();
        order.clear();
        order.extend(0..m);
        order.sort_unstable_by_key(|&i| (cols[basis[i]].len(), basis[i]));
        reset_to(new_basis, m, usize::MAX);
        reset_to(assigned, m, false);
        reset_to(v, m, 0.0);
        for &pos in order.iter() {
            let var = basis[pos];
            v.fill(0.0);
            for &(r, a) in &cols[var] {
                v[r] = a;
            }
            etas.ftran(v);
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
            etas.push(best, v);
            assigned[best] = true;
            new_basis[best] = var;
        }
        basis.copy_from_slice(new_basis);
        v.copy_from_slice(b);
        etas.ftran(v);
        xb.copy_from_slice(v);
        Ok(())
    }

    /// Number of eta terms currently in the file (diagnostic).
    pub fn len(&self) -> usize {
        self.etas.hdr.len()
    }

    /// Whether the file is empty (represents the identity).
    pub fn is_empty(&self) -> bool {
        self.etas.hdr.is_empty()
    }
}

/// A basis representation: sparse LU or product-form eta file.
pub enum Factor {
    /// Sparse LU with Forrest–Tomlin updates (default). Boxed: the LU
    /// factor holds ~1 KiB of inline arena headers and scratch vectors,
    /// against a few vec headers for the eta file, and an unboxed variant
    /// would make every `Factor` that large.
    Lu(Box<LuFactor>),
    /// Product-form inverse (cross-check kernel and last recovery rung).
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
        }
    }

    /// Reset to the identity in place, keeping all capacity.
    pub fn reset_identity(&mut self) {
        match self {
            Factor::Lu(lu) => lu.reset_to_identity(),
            Factor::Eta(e) => e.etas.clear(),
        }
    }

    /// Effort counters for the LU kernel (zeroes for the eta file).
    pub fn stats(&self) -> FactorStats {
        match self {
            Factor::Lu(lu) => lu.stats,
            Factor::Eta(_) => FactorStats::default(),
        }
    }

    /// FTRAN against a sparse column: `out = B⁻¹ a`. The LU kernel leaves
    /// `out` in sparse mode when the hyper-sparse path ran; the eta file
    /// always produces dense-mode vectors.
    pub fn ftran_col_into(&mut self, m: usize, col: &[(usize, f64)], out: &mut SpVec) {
        match self {
            Factor::Lu(lu) => lu.ftran(col, out),
            Factor::Eta(e) => {
                out.reset(m);
                out.make_dense();
                let vals = out.vals_mut();
                for &(r, a) in col {
                    vals[r] = a;
                }
                e.etas.ftran(vals);
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
    pub fn btran_into(&mut self, v: &[f64], out: &mut SpVec) {
        match self {
            Factor::Lu(lu) => lu.btran(v, out),
            Factor::Eta(e) => {
                out.load_dense(v);
                e.etas.btran(out.vals_mut());
            }
        }
    }

    /// Allocating convenience wrapper around [`Factor::btran_into`]:
    /// returns `yᵀ = vᵀ B⁻¹`.
    pub fn btran(&mut self, v: Vec<f64>) -> Vec<f64> {
        let mut out = SpVec::default();
        self.btran_into(&v, &mut out);
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
            Factor::Eta(e) => {
                out.reset(m);
                out.make_dense();
                let vals = out.vals_mut();
                vals[row] = 1.0;
                e.etas.btran(vals);
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
            Factor::Eta(e) => {
                e.etas.push(leaving_row, w.vals());
                true
            }
        }
    }

    /// Rebuild the representation from the basis columns and recompute
    /// `xb = B⁻¹ b`, reusing the kernel's own scratch. Both reinversions
    /// may permute which row position each basic variable occupies;
    /// `basis` is updated accordingly so the caller's row-indexed state
    /// stays consistent.
    pub fn refactor(
        &mut self,
        cols: &[Vec<(usize, f64)>],
        basis: &mut [usize],
        b: &[f64],
        xb: &mut [f64],
    ) -> Result<(), SolverError> {
        match self {
            Factor::Lu(lu) => lu.refactor(cols, basis, b, xb),
            Factor::Eta(e) => e.refactor(cols, basis, b, xb),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [Factorization; 2] = [Factorization::Lu, Factorization::Eta];

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
            results.push(f.btran(cost(&basis)));
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
            f.refactor(&cols, &mut basis, &b, &mut xb).unwrap();

            let mut w = SpVec::default();
            let mut y = SpVec::default();
            let mut r0 = SpVec::default();
            f.ftran_col_into(3, &cols[0], &mut w);
            f.btran_into(&[1.0, 0.0, 0.5], &mut y);
            f.row_of_inverse_into(3, 1, &mut r0);
            assert_eq!(w.vals(), f.ftran_col(3, &cols[0]).as_slice());
            assert_eq!(y.vals(), f.btran(vec![1.0, 0.0, 0.5]).as_slice());
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
        // The eta file reports no LU effort.
        let eta = Factor::identity(3, Factorization::Eta);
        assert_eq!(eta.stats(), FactorStats::default());
    }
}
