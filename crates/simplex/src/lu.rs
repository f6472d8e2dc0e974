//! Sparse LU basis factorization with Forrest–Tomlin updates and
//! hyper-sparse (Gilbert–Peierls) triangular solves.
//!
//! This is the default basis kernel behind
//! [`Factorization::Lu`](crate::factor::Factorization). Three ideas carry
//! it:
//!
//! * **Markowitz-pivoting reinversion.** [`LuFactor::refactor`] runs a
//!   right-looking sparse elimination over the basis columns, choosing each
//!   pivot to minimize the Markowitz fill score `(r−1)(c−1)` among a small
//!   set of lowest-count candidate columns (MA48-style limited search),
//!   subject to a threshold stability test within the candidate column.
//!   The result is a unit lower factor `L` (a sequence of column etas), an
//!   upper factor `U` stored both row-wise and column-wise in segment
//!   arenas, and a pivot ordering that doubles as the triangular order.
//!   As with the eta reinversion, the sweep permutes which basis position
//!   each variable occupies so that *basis position == pivot row*.
//!
//! * **Forrest–Tomlin updates.** [`LuFactor::update`] replaces one column
//!   of `U` by the spike `s = U·w` (where `w = B⁻¹a` is the pivot
//!   direction the solver already computed), cyclically permutes the pivot
//!   to the end of the triangular order, and eliminates the now
//!   out-of-place row with one appended **row eta**. `U` stays genuinely
//!   triangular across updates — unlike the product-form file, whose etas
//!   accumulate without bound — so refactorization frequency is governed
//!   by fill and stability, not by representation decay. An update whose
//!   new diagonal would be numerically tiny is *refused* and the caller
//!   refactorizes instead.
//!
//! * **Hyper-sparse FTRAN/BTRAN.** Right-hand sides in the TISE LP carry a
//!   handful of nonzeros against thousands of rows. Solves work on an
//!   indexed sparse vector ([`SpVec`]: dense value array + nonzero index
//!   stack) and run a Gilbert–Peierls-style symbolic DFS over the factor's
//!   nonzero graph to find the *reach* of the input support; the numeric
//!   pass then touches only reached rows, in a topological order the DFS
//!   postorder provides for free. Above [`DENSITY_THRESHOLD`] the solve
//!   falls back to the plain dense pass — the DFS bookkeeping only pays
//!   for itself while the reach is small. Each call is counted as a
//!   sparse or dense solve in [`FactorStats`], which is how the
//!   hyper-sparse hit rate is pinned in the benchmark suite.
//!
//! Every vector and arena in the factor survives refactorizations (arenas
//! truncate, never free), so pivots after a reinversion reuse the capacity
//! the earlier ones grew. The factor belongs to one solve.

use crate::solver::SolverError;

/// Pivot magnitude below which a reinversion declares the basis singular.
/// Matches the historical dense/eta kernels.
const SINGULAR_TOL: f64 = 1e-12;

/// Relative stability threshold for Markowitz pivoting: within a candidate
/// column, only entries with `|a| >= TAU * max|column|` may pivot.
const STABILITY_TAU: f64 = 0.01;

/// How many lowest-count candidate columns the Markowitz search examines
/// per pivot (MA48-style limited search).
const CANDIDATE_COLS: usize = 4;

/// A Forrest–Tomlin update is refused (forcing a refactorization) when the
/// new diagonal is below this, relative to the spike's magnitude.
const FT_DIAG_TOL: f64 = 1e-10;

/// Input support above `m / DENSITY_DIVISOR` routes a solve through the
/// plain dense pass instead of the symbolic DFS — i.e. the hyper-sparse
/// path engages below 25% density, where the reach is expected to stay
/// small enough that output-sensitive traversal beats a full sweep.
const DENSITY_DIVISOR: usize = 4;

/// Sentinel for "no entry" in `u32` index maps.
const NONE: u32 = u32::MAX;

/// Deterministic counters describing how the LU kernel spent its effort
/// during one solve. Read via
/// [`Factor::stats`](crate::factor::Factor::stats) and surfaced through
/// [`NumericsReport`](crate::solver::NumericsReport).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FactorStats {
    /// Largest `nnz(L) + nnz(U)` (diagonal included) produced by any
    /// reinversion of this solve.
    pub fill_nnz: u64,
    /// Forrest–Tomlin column updates applied (refused updates are not
    /// counted — they turn into refactorizations).
    pub ft_updates: u64,
    /// FTRAN/BTRAN calls that ran entirely on the hyper-sparse path.
    pub sparse_solves: u64,
    /// FTRAN/BTRAN calls that fell back to a dense pass at any stage.
    pub dense_solves: u64,
    /// Markowitz reinversions performed.
    pub lu_refactors: u64,
}

/// An indexed sparse vector: a dense value array plus a stack of nonzero
/// indices with membership marks. `vals` is *always* the true dense value
/// array, so consumers free to pay `O(m)` may read it blindly; the index
/// stack is an overlay that makes `O(nnz)` iteration and `O(nnz)` reset
/// possible. A vector can be switched to **dense mode**, where the overlay
/// is abandoned and the support is taken to be every position — the shape
/// the eta/dense oracle kernels produce.
#[derive(Default)]
pub struct SpVec {
    vals: Vec<f64>,
    idx: Vec<u32>,
    mark: Vec<bool>,
    dense: bool,
}

impl SpVec {
    /// Reset to the all-zero vector of length `m`, in `O(nnz)` when the
    /// overlay is live and `O(m)` otherwise.
    pub fn reset(&mut self, m: usize) {
        if self.vals.len() != m {
            self.vals.clear();
            self.vals.resize(m, 0.0);
            self.mark.clear();
            self.mark.resize(m, false);
            self.idx.clear();
            self.dense = false;
            return;
        }
        if self.dense {
            self.vals.fill(0.0);
            self.dense = false;
        } else {
            for &i in &self.idx {
                self.vals[i as usize] = 0.0;
                self.mark[i as usize] = false;
            }
            self.idx.clear();
        }
    }

    /// Abandon the overlay: the support becomes every position.
    pub fn make_dense(&mut self) {
        if !self.dense {
            for &i in &self.idx {
                self.mark[i as usize] = false;
            }
            self.idx.clear();
            self.dense = true;
        }
    }

    /// Reset to length `m` and copy `src` in, entering dense mode.
    pub fn load_dense(&mut self, src: &[f64]) {
        self.reset(src.len());
        self.vals.copy_from_slice(src);
        self.dense = true;
    }

    /// Whether the overlay has been abandoned.
    pub fn is_dense(&self) -> bool {
        self.dense
    }

    /// `vals[i] = v`, tracking `i` in the overlay.
    #[inline]
    pub fn insert(&mut self, i: usize, v: f64) {
        self.vals[i] = v;
        if !self.dense && !self.mark[i] {
            self.mark[i] = true;
            self.idx.push(i as u32);
        }
    }

    /// `vals[i] += dv`, tracking `i` in the overlay.
    #[inline]
    pub fn add(&mut self, i: usize, dv: f64) {
        self.vals[i] += dv;
        if !self.dense && !self.mark[i] {
            self.mark[i] = true;
            self.idx.push(i as u32);
        }
    }

    /// The dense value array.
    #[inline]
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Mutable dense value array — for dense-mode kernels writing in bulk.
    pub fn vals_mut(&mut self) -> &mut [f64] {
        debug_assert!(self.dense, "bulk writes require dense mode");
        &mut self.vals
    }

    /// Tracked support size (the full length in dense mode).
    pub fn nnz(&self) -> usize {
        if self.dense {
            self.vals.len()
        } else {
            self.idx.len()
        }
    }

    /// Iterate the support: the tracked indices, or `0..m` in dense mode.
    /// Tracked indices are *potential* nonzeros — numerical cancellation
    /// may have left exact zeros behind, so consumers that care must still
    /// test the value.
    pub fn support(&self) -> Support<'_> {
        if self.dense {
            Support::Dense(0..self.vals.len())
        } else {
            Support::Sparse(self.idx.iter())
        }
    }
}

/// Support iterator of a [`SpVec`] — tracked indices or the full range.
pub enum Support<'a> {
    /// Dense mode: every position.
    Dense(std::ops::Range<usize>),
    /// Sparse mode: the tracked index stack.
    Sparse(std::slice::Iter<'a, u32>),
}

impl Iterator for Support<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self {
            Support::Dense(r) => r.next(),
            Support::Sparse(it) => it.next().map(|&i| i as usize),
        }
    }
}

/// One segment of a [`SegList`] arena: `data[start..start+len]`, with
/// `cap - len` spare slots before a relocation is needed.
#[derive(Clone, Copy, Default)]
struct Seg {
    start: u32,
    len: u32,
    cap: u32,
}

/// A per-id list arena: one shared entry vec plus `(start, len, cap)`
/// segments. Appending past a segment's capacity relocates that segment to
/// the end of the arena (leaving a hole that the next rebuild reclaims);
/// removal swap-deletes within the segment. Rebuilt — with capacity reuse —
/// at every refactorization.
#[derive(Default)]
struct SegList {
    seg: Vec<Seg>,
    data: Vec<(u32, f64)>,
}

impl SegList {
    /// Start a rebuild for `n` ids: every segment empty, arena truncated.
    fn reset(&mut self, n: usize) {
        self.seg.clear();
        self.seg.resize(n, Seg::default());
        self.data.clear();
    }

    /// Allocate segment `id` with room for `cap` entries. Only valid
    /// during a rebuild (segments laid out in call order).
    fn alloc(&mut self, id: usize, cap: u32) {
        let start = self.data.len() as u32;
        self.data
            .resize(self.data.len() + cap as usize, (NONE, 0.0));
        self.seg[id] = Seg { start, len: 0, cap };
    }

    #[inline]
    fn entries(&self, id: usize) -> &[(u32, f64)] {
        let s = self.seg[id];
        &self.data[s.start as usize..(s.start + s.len) as usize]
    }

    fn push(&mut self, id: usize, key: u32, val: f64) {
        let s = self.seg[id];
        if s.len == s.cap {
            // Relocate to the end of the arena with doubled headroom.
            let new_cap = (s.cap * 2).max(4);
            let new_start = self.data.len() as u32;
            self.data
                .resize(self.data.len() + new_cap as usize, (NONE, 0.0));
            self.data.copy_within(
                s.start as usize..(s.start + s.len) as usize,
                new_start as usize,
            );
            self.seg[id] = Seg {
                start: new_start,
                len: s.len,
                cap: new_cap,
            };
        }
        let s = self.seg[id];
        self.data[(s.start + s.len) as usize] = (key, val);
        self.seg[id].len += 1;
    }

    /// Remove the entry with `key`, returning its value. The caller
    /// guarantees the entry exists (mirrored structures stay consistent).
    fn remove_key(&mut self, id: usize, key: u32) -> f64 {
        let s = self.seg[id];
        let range = s.start as usize..(s.start + s.len) as usize;
        for k in range.clone() {
            if self.data[k].0 == key {
                let val = self.data[k].1;
                self.data[k] = self.data[range.end - 1];
                self.seg[id].len -= 1;
                return val;
            }
        }
        debug_assert!(false, "SegList::remove_key: missing entry {key} in {id}");
        0.0
    }

    fn clear_seg(&mut self, id: usize) {
        self.seg[id].len = 0;
    }
}

/// Iterative symbolic DFS over a [`SegList`]-shaped adjacency: visit the
/// closure of `seeds`, recording finished nodes in `post` (postorder).
/// `visited` marks must be false on entry for all reachable nodes; the
/// caller clears them afterwards by iterating `post`.
fn symbolic_dfs(
    seeds: &[u32],
    adj: &SegList,
    visited: &mut [bool],
    stack: &mut Vec<(u32, u32)>,
    post: &mut Vec<u32>,
) {
    post.clear();
    stack.clear();
    for &s in seeds {
        if visited[s as usize] {
            continue;
        }
        visited[s as usize] = true;
        stack.push((s, 0));
        while let Some(top) = stack.last_mut() {
            let (node, edge) = *top;
            let entries = adj.entries(node as usize);
            if (edge as usize) < entries.len() {
                top.1 += 1;
                let child = entries[edge as usize].0;
                if !visited[child as usize] {
                    visited[child as usize] = true;
                    stack.push((child, 0));
                }
            } else {
                post.push(node);
                stack.pop();
            }
        }
    }
}

/// Markowitz reinversion scratch: the working rows/columns of the active
/// submatrix, count-bucket bookkeeping for the candidate search, and the
/// row-merge accumulator. All storage is reused across refactorizations.
#[derive(Default)]
struct MkScratch {
    /// Active row -> `(col position, value)` entries.
    rows: Vec<Vec<(u32, f64)>>,
    /// Col position -> candidate rows (lazily maintained; entries may be
    /// stale once a row has been pivoted).
    cols: Vec<Vec<u32>>,
    row_cnt: Vec<u32>,
    col_cnt: Vec<u32>,
    row_active: Vec<bool>,
    col_done: Vec<bool>,
    /// Doubly-linked count buckets over columns: `head[c]` is the first
    /// column with active count `c`.
    head: Vec<u32>,
    next: Vec<u32>,
    prev: Vec<u32>,
    /// Dense row-merge accumulator over column positions.
    acc_val: Vec<f64>,
    acc_mark: Vec<bool>,
    acc_idx: Vec<u32>,
    /// Built U rows (keys are column *positions* until the final remap).
    urows: Vec<Vec<(u32, f64)>>,
    /// Column position -> the pivot row assigned to it.
    pos2row: Vec<u32>,
    new_basis: Vec<usize>,
}

impl MkScratch {
    /// Unlink column `c` from its count bucket.
    fn bucket_remove(&mut self, c: u32) {
        let (p, n) = (self.prev[c as usize], self.next[c as usize]);
        if p == NONE {
            self.head[self.col_cnt[c as usize] as usize] = n;
        } else {
            self.next[p as usize] = n;
        }
        if n != NONE {
            self.prev[n as usize] = p;
        }
    }

    /// Link column `c` at the head of the bucket for its current count.
    fn bucket_insert(&mut self, c: u32) {
        let cnt = self.col_cnt[c as usize] as usize;
        let h = self.head[cnt];
        self.prev[c as usize] = NONE;
        self.next[c as usize] = h;
        if h != NONE {
            self.prev[h as usize] = c;
        }
        self.head[cnt] = c;
    }

    /// Move column `c` between buckets after its count changed by `delta`.
    fn bucket_shift(&mut self, c: u32, delta: i32) {
        self.bucket_remove(c);
        let cnt = self.col_cnt[c as usize] as i64 + delta as i64;
        self.col_cnt[c as usize] = cnt as u32;
        self.bucket_insert(c);
    }
}

/// Sparse LU representation of the basis: `B = L · R₁ ⋯ R_k · U` where `L`
/// is the unit lower factor from the last reinversion (column etas in
/// elimination order), each `R_i` is a Forrest–Tomlin row eta, and `U` is
/// upper triangular in the (mutable) pivot order `seq`.
#[derive(Default)]
pub struct LuFactor {
    m: usize,
    /// L column etas: `l_fwd[r]` holds the multipliers of the eta pivoted
    /// on row `r`; `l_order` is the (static) elimination order.
    l_fwd: SegList,
    l_trans: SegList,
    l_order: Vec<u32>,
    /// Forrest–Tomlin row etas, applied after `L` in append order.
    ft_row: Vec<u32>,
    ft_seg: Vec<(u32, u32)>,
    ft_data: Vec<(u32, f64)>,
    /// U: diagonal by row, off-diagonals row-wise and column-wise
    /// (mirrored), and the pivot order.
    diag: Vec<f64>,
    urows: SegList,
    ucols: SegList,
    seq: Vec<u32>,
    rank_of: Vec<u32>,
    // Solve/update scratch.
    visited: Vec<bool>,
    stack: Vec<(u32, u32)>,
    post: Vec<u32>,
    spike: SpVec,
    acc: SpVec,
    heap: Vec<u32>,
    mk: MkScratch,
    /// Effort counters for this solve.
    pub stats: FactorStats,
}

impl LuFactor {
    /// Reset to the identity factorization for `m` rows, keeping capacity.
    pub(crate) fn reset_identity(&mut self, m: usize) {
        self.m = m;
        self.l_fwd.reset(m);
        self.l_trans.reset(m);
        self.l_order.clear();
        self.ft_row.clear();
        self.ft_seg.clear();
        self.ft_data.clear();
        self.diag.clear();
        self.diag.resize(m, 1.0);
        self.urows.reset(m);
        self.ucols.reset(m);
        self.seq.clear();
        self.seq.extend(0..m as u32);
        self.rank_of.clear();
        self.rank_of.extend(0..m as u32);
        self.visited.clear();
        self.visited.resize(m, false);
    }

    /// [`Self::reset_identity`] at the current dimension (capacity kept).
    pub(crate) fn reset_to_identity(&mut self) {
        self.reset_identity(self.m);
    }

    /// Whether `nnz` seeds against `m` rows should take the sparse path.
    #[inline]
    fn sparse_worthwhile(&self, nnz: usize) -> bool {
        nnz * DENSITY_DIVISOR <= self.m
    }

    // ----- FTRAN -----------------------------------------------------

    /// `v = B⁻¹ a` for a sparse column `a`.
    pub(crate) fn ftran(&mut self, col: &[(usize, f64)], v: &mut SpVec) {
        v.reset(self.m);
        for &(r, a) in col {
            v.insert(r, a);
        }
        if self.m == 0 {
            return;
        }
        if self.sparse_worthwhile(v.nnz()) {
            self.ftran_l_sparse(v);
            self.ftran_ft(v);
            if self.sparse_worthwhile(v.nnz()) {
                self.ftran_u_sparse(v);
                self.stats.sparse_solves += 1;
                return;
            }
            v.make_dense();
            self.ftran_u_dense(&mut v.vals);
        } else {
            v.make_dense();
            self.ftran_l_dense(&mut v.vals);
            self.ftran_ft(v);
            self.ftran_u_dense(&mut v.vals);
        }
        self.stats.dense_solves += 1;
    }

    /// Recompute a dense right-hand side in place: `v <- B⁻¹ v`. Used for
    /// the basic-values refresh after a reinversion.
    pub(crate) fn ftran_dense_inplace(&mut self, v: &mut [f64]) {
        self.ftran_l_dense(v);
        for k in 0..self.ft_row.len() {
            let p = self.ft_row[k] as usize;
            let (start, len) = self.ft_seg[k];
            let mut s = 0.0;
            for &(q, mu) in &self.ft_data[start as usize..(start + len) as usize] {
                s += mu * v[q as usize];
            }
            v[p] -= s;
        }
        self.ftran_u_dense(v);
    }

    fn ftran_l_dense(&self, v: &mut [f64]) {
        for &r in &self.l_order {
            let t = v[r as usize];
            if t != 0.0 {
                for &(i, l) in self.l_fwd.entries(r as usize) {
                    v[i as usize] -= l * t;
                }
            }
        }
    }

    /// Hyper-sparse L pass: DFS the closure of the support through the L
    /// eta graph (edges pivot row -> entry rows, which always point later
    /// in the elimination order), then apply the reached etas in reverse
    /// postorder — a topological order consistent with `l_order`.
    fn ftran_l_sparse(&mut self, v: &mut SpVec) {
        symbolic_dfs(
            &v.idx,
            &self.l_fwd,
            &mut self.visited,
            &mut self.stack,
            &mut self.post,
        );
        for k in (0..self.post.len()).rev() {
            let r = self.post[k];
            self.visited[r as usize] = false;
            let t = v.vals[r as usize];
            if t != 0.0 {
                for &(i, l) in self.l_fwd.entries(r as usize) {
                    v.add(i as usize, -l * t);
                }
            }
        }
    }

    /// Forrest–Tomlin row etas, in append order: `v[p] -= Σ μ_q v[q]`.
    /// Each eta is a short scan either way, so there is no symbolic phase.
    fn ftran_ft(&self, v: &mut SpVec) {
        for k in 0..self.ft_row.len() {
            let p = self.ft_row[k] as usize;
            let (start, len) = self.ft_seg[k];
            let mut s = 0.0;
            for &(q, mu) in &self.ft_data[start as usize..(start + len) as usize] {
                s += mu * v.vals[q as usize];
            }
            if s != 0.0 {
                v.add(p, -s);
            }
        }
    }

    fn ftran_u_dense(&self, v: &mut [f64]) {
        for k in (0..self.m).rev() {
            let r = self.seq[k] as usize;
            let mut s = v[r];
            for &(j, u) in self.urows.entries(r) {
                s -= u * v[j as usize];
            }
            v[r] = s / self.diag[r];
        }
    }

    /// Hyper-sparse back-substitution `U x = v`. A nonzero `x_j` spreads
    /// to every row `r` with `U[r][j] ≠ 0`, i.e. along column-wise U
    /// toward lower ranks — so the reach is the DFS closure of the seeds
    /// over `ucols`, and reverse postorder (a topological order on those
    /// influence edges) resolves each row after the higher-ranked entries
    /// it gathers via `urows`.
    fn ftran_u_sparse(&mut self, v: &mut SpVec) {
        symbolic_dfs(
            &v.idx,
            &self.ucols,
            &mut self.visited,
            &mut self.stack,
            &mut self.post,
        );
        for k in (0..self.post.len()).rev() {
            let r = self.post[k] as usize;
            self.visited[r] = false;
            let mut s = v.vals[r];
            for &(j, u) in self.urows.entries(r) {
                s -= u * v.vals[j as usize];
            }
            v.insert(r, s / self.diag[r]);
        }
    }

    // ----- BTRAN -----------------------------------------------------

    /// `v = (yᵀ B⁻¹)ᵀ` for a dense input row `y`, choosing the sparse or
    /// dense path from the input support.
    pub(crate) fn btran(&mut self, y: &[f64], v: &mut SpVec) {
        let nnz = y.iter().filter(|&&x| x != 0.0).count();
        if self.m > 0 && self.sparse_worthwhile(nnz) {
            v.reset(self.m);
            for (i, &x) in y.iter().enumerate() {
                if x != 0.0 {
                    v.insert(i, x);
                }
            }
            self.btran_sparse(v);
        } else {
            v.load_dense(y);
            if self.m > 0 {
                self.btran_dense(v);
            }
        }
    }

    /// `v = (e_rowᵀ B⁻¹)ᵀ` — a maximally sparse seed. This is the partial
    /// BTRAN behind devex weight updates: the reference row is
    /// materialized only on its reach, and the pricing loop then reads
    /// just the rows its candidate columns touch.
    pub(crate) fn btran_unit(&mut self, row: usize, v: &mut SpVec) {
        v.reset(self.m);
        v.insert(row, 1.0);
        if self.m == 0 {
            return;
        }
        if self.sparse_worthwhile(1) {
            self.btran_sparse(v);
        } else {
            v.make_dense();
            self.btran_dense(v);
        }
    }

    fn btran_sparse(&mut self, v: &mut SpVec) {
        // Uᵀ forward solve: influence flows along row-wise U (rank
        // increasing), so DFS urows and process in *reverse* postorder
        // (increasing-rank topological order), gathering via ucols.
        symbolic_dfs(
            &v.idx,
            &self.urows,
            &mut self.visited,
            &mut self.stack,
            &mut self.post,
        );
        for k in (0..self.post.len()).rev() {
            let j = self.post[k] as usize;
            self.visited[j] = false;
            let mut s = v.vals[j];
            for &(r, u) in self.ucols.entries(j) {
                s -= u * v.vals[r as usize];
            }
            v.insert(j, s / self.diag[j]);
        }
        // FT row etas, transposed, newest first: v[q] -= μ_q v[p].
        for k in (0..self.ft_row.len()).rev() {
            let p = self.ft_row[k] as usize;
            let t = v.vals[p];
            if t != 0.0 {
                let (start, len) = self.ft_seg[k];
                for e in start as usize..(start + len) as usize {
                    let (q, mu) = self.ft_data[e];
                    v.add(q as usize, -mu * t);
                }
            }
        }
        // Lᵀ: influence flows along the transpose adjacency toward
        // earlier pivots; reverse postorder again yields a valid
        // (reverse-elimination-consistent) order.
        symbolic_dfs(
            &v.idx,
            &self.l_trans,
            &mut self.visited,
            &mut self.stack,
            &mut self.post,
        );
        for k in (0..self.post.len()).rev() {
            let r = self.post[k] as usize;
            self.visited[r] = false;
            let mut s = 0.0;
            for &(i, l) in self.l_fwd.entries(r) {
                s += l * v.vals[i as usize];
            }
            if s != 0.0 {
                v.add(r, -s);
            }
        }
        self.stats.sparse_solves += 1;
    }

    fn btran_dense(&mut self, v: &mut SpVec) {
        let vals = &mut v.vals;
        for k in 0..self.m {
            let j = self.seq[k] as usize;
            let mut s = vals[j];
            for &(r, u) in self.ucols.entries(j) {
                s -= u * vals[r as usize];
            }
            vals[j] = s / self.diag[j];
        }
        for k in (0..self.ft_row.len()).rev() {
            let p = self.ft_row[k] as usize;
            let t = vals[p];
            if t != 0.0 {
                let (start, len) = self.ft_seg[k];
                for &(q, mu) in &self.ft_data[start as usize..(start + len) as usize] {
                    vals[q as usize] -= mu * t;
                }
            }
        }
        for k in (0..self.l_order.len()).rev() {
            let r = self.l_order[k] as usize;
            let mut s = 0.0;
            for &(i, l) in self.l_fwd.entries(r) {
                s += l * vals[i as usize];
            }
            vals[r] -= s;
        }
        self.stats.dense_solves += 1;
    }

    // ----- Forrest–Tomlin update -------------------------------------

    /// Replace the basis column at position/row `p` given the pivot
    /// direction `w = B⁻¹ a`. Returns `false` when the update is refused
    /// on stability grounds — the caller must refactorize (which rebuilds
    /// everything, so the partially mutated state is harmless).
    pub(crate) fn update(&mut self, p: usize, w: &SpVec) -> bool {
        let m = self.m;
        // Spike s = U·w, assembled column-wise from w's support.
        let mut spike = std::mem::take(&mut self.spike);
        spike.reset(m);
        for i in w.support() {
            let wi = w.vals[i];
            if wi == 0.0 {
                continue;
            }
            spike.add(i, self.diag[i] * wi);
            for &(r, u) in self.ucols.entries(i) {
                spike.add(r as usize, u * wi);
            }
        }
        let s_p = spike.vals[p];
        let mut s_max = 0.0f64;
        for i in spike.support() {
            s_max = s_max.max(spike.vals[i].abs());
        }

        // Delete column p (and its row-wise mirror entries).
        for k in 0..self.ucols.seg[p].len as usize {
            let start = self.ucols.seg[p].start as usize;
            let (r, _) = self.ucols.data[start + k];
            self.urows.remove_key(r as usize, p as u32);
        }
        self.ucols.clear_seg(p);

        // Lift row p out: stash its off-diagonals in the accumulator and
        // drop the column-wise mirrors.
        let mut acc = std::mem::take(&mut self.acc);
        acc.reset(m);
        self.heap.clear();
        for k in 0..self.urows.seg[p].len as usize {
            let start = self.urows.seg[p].start as usize;
            let (j, u) = self.urows.data[start + k];
            self.ucols.remove_key(j as usize, p as u32);
            acc.insert(j as usize, u);
        }
        self.urows.clear_seg(p);

        // Cyclic permutation: p moves to the end of the pivot order.
        let rp = self.rank_of[p] as usize;
        for k in rp..m - 1 {
            self.seq[k] = self.seq[k + 1];
            self.rank_of[self.seq[k] as usize] = k as u32;
        }
        self.seq[m - 1] = p as u32;
        self.rank_of[p] = (m - 1) as u32;

        // Eliminate the lifted row against U in rank order, collecting the
        // row-eta multipliers μ_q = acc[q] / U_qq. Fill lands strictly
        // later in rank, so a min-heap over ranks visits each column once.
        for &j in &acc.idx {
            heap_push(&mut self.heap, self.rank_of[j as usize]);
        }
        let ft_start = self.ft_data.len() as u32;
        let mut d = s_p;
        while let Some(rank) = heap_pop(&mut self.heap) {
            let q = self.seq[rank as usize] as usize;
            let a = acc.vals[q];
            if a == 0.0 {
                continue;
            }
            let mu = a / self.diag[q];
            self.ft_data.push((q as u32, mu));
            d -= mu * spike.vals[q];
            for &(j, u) in self.urows.entries(q) {
                let j = j as usize;
                if !acc.mark[j] {
                    heap_push(&mut self.heap, self.rank_of[j]);
                }
                acc.add(j, -mu * u);
            }
        }
        self.acc = acc;

        if d.abs() <= FT_DIAG_TOL * (1.0 + s_max) {
            // Refuse: leave the (now inconsistent) factor to the
            // refactorization the caller is obliged to run.
            self.ft_data.truncate(ft_start as usize);
            self.spike = spike;
            return false;
        }
        let ft_len = self.ft_data.len() as u32 - ft_start;
        if ft_len > 0 {
            self.ft_row.push(p as u32);
            self.ft_seg.push((ft_start, ft_len));
        }

        // Install the spike as the new (last-ranked) column p.
        self.diag[p] = d;
        for i in 0..spike.idx.len() {
            let r = spike.idx[i] as usize;
            let s = spike.vals[r];
            if r != p && s != 0.0 {
                self.ucols.push(p, r as u32, s);
                self.urows.push(r, p as u32, s);
            }
        }
        self.spike = spike;
        self.stats.ft_updates += 1;
        true
    }

    // ----- Markowitz reinversion -------------------------------------

    /// Rebuild `L`/`U` from the basis columns by right-looking elimination
    /// with Markowitz pivoting, permute `basis` so basis position == pivot
    /// row, and recompute `xb = B⁻¹ b`.
    pub(crate) fn refactor(
        &mut self,
        cols: &[Vec<(usize, f64)>],
        basis: &mut [usize],
        b: &[f64],
        xb: &mut [f64],
    ) -> Result<(), SolverError> {
        let m = basis.len();
        self.reset_identity(m);
        if m == 0 {
            return Ok(());
        }
        let mut mk = std::mem::take(&mut self.mk);
        let r = self.refactor_inner(&mut mk, cols, basis, b, xb);
        self.mk = mk;
        r
    }

    fn refactor_inner(
        &mut self,
        mk: &mut MkScratch,
        cols: &[Vec<(usize, f64)>],
        basis: &mut [usize],
        b: &[f64],
        xb: &mut [f64],
    ) -> Result<(), SolverError> {
        let m = basis.len();
        // Stage the active submatrix: rows keyed by row index, entries
        // keyed by column *position* in the basis.
        if mk.rows.len() < m {
            mk.rows.resize_with(m, Vec::new);
            mk.cols.resize_with(m, Vec::new);
            mk.urows.resize_with(m, Vec::new);
        }
        for r in 0..m {
            mk.rows[r].clear();
            mk.cols[r].clear();
            mk.urows[r].clear();
        }
        reset_to(&mut mk.row_cnt, m, 0u32);
        reset_to(&mut mk.col_cnt, m, 0u32);
        reset_to(&mut mk.row_active, m, true);
        reset_to(&mut mk.col_done, m, false);
        reset_to(&mut mk.head, m + 1, NONE);
        reset_to(&mut mk.next, m, NONE);
        reset_to(&mut mk.prev, m, NONE);
        reset_to(&mut mk.acc_val, m, 0.0);
        reset_to(&mut mk.acc_mark, m, false);
        mk.acc_idx.clear();
        reset_to(&mut mk.pos2row, m, NONE);
        reset_to(&mut mk.new_basis, m, usize::MAX);
        for (pos, &var) in basis.iter().enumerate() {
            for &(r, a) in &cols[var] {
                if a != 0.0 {
                    mk.rows[r].push((pos as u32, a));
                }
            }
        }
        for r in 0..m {
            mk.row_cnt[r] = mk.rows[r].len() as u32;
            for k in 0..mk.rows[r].len() {
                let pos = mk.rows[r][k].0;
                mk.cols[pos as usize].push(r as u32);
                mk.col_cnt[pos as usize] += 1;
            }
        }
        for c in 0..m as u32 {
            mk.bucket_insert(c);
        }

        self.l_order.clear();
        self.seq.clear();
        let mut l_data_len = 0usize;
        // l_fwd is built via (pivot row, entries) appends in elimination
        // order; SegList::alloc lays segments out in call order, which is
        // exactly the append order here.
        self.l_fwd.reset(m);
        for _ in 0..m {
            // Candidate search: up to CANDIDATE_COLS columns from the
            // lowest non-empty count buckets.
            let mut best: Option<(u64, f64, u32, u32)> = None; // (score, |a|, row, col)
            let mut seen = 0usize;
            'buckets: for cnt in 1..=m {
                let mut c = mk.head[cnt];
                while c != NONE {
                    // Score this column: stability threshold within the
                    // column, then the Markowitz count product.
                    let mut col_max = 0.0f64;
                    for k in 0..mk.cols[c as usize].len() {
                        let r = mk.cols[c as usize][k] as usize;
                        if mk.row_active[r] {
                            if let Some(a) = row_lookup(&mk.rows[r], c) {
                                col_max = col_max.max(a.abs());
                            }
                        }
                    }
                    if col_max >= SINGULAR_TOL {
                        for k in 0..mk.cols[c as usize].len() {
                            let r = mk.cols[c as usize][k] as usize;
                            if !mk.row_active[r] {
                                continue;
                            }
                            let Some(a) = row_lookup(&mk.rows[r], c) else {
                                continue;
                            };
                            if a.abs() < STABILITY_TAU * col_max || a.abs() < SINGULAR_TOL {
                                continue;
                            }
                            let score = (mk.row_cnt[r] as u64 - 1) * (cnt as u64 - 1);
                            let better = match best {
                                None => true,
                                Some((bs, ba, br, _)) => {
                                    score < bs
                                        || (score == bs
                                            && (a.abs() > ba || (a.abs() == ba && (r as u32) < br)))
                                }
                            };
                            if better {
                                best = Some((score, a.abs(), r as u32, c));
                            }
                        }
                        seen += 1;
                    }
                    if seen >= CANDIDATE_COLS {
                        break 'buckets;
                    }
                    c = mk.next[c as usize];
                }
            }
            let Some((_, _, prow, pcol)) = best else {
                return Err(SolverError::SingularBasis);
            };
            let prow = prow as usize;
            let pv = row_lookup(&mk.rows[prow], pcol).expect("chosen pivot exists");

            // Retire the pivot row and column.
            mk.col_done[pcol as usize] = true;
            mk.bucket_remove(pcol);
            mk.row_active[prow] = false;
            mk.pos2row[pcol as usize] = prow as u32;
            self.seq.push(prow as u32);
            self.diag[prow] = pv;
            for k in 0..mk.rows[prow].len() {
                let (pos, val) = mk.rows[prow][k];
                if pos != pcol {
                    mk.urows[prow].push((pos, val));
                    mk.bucket_shift(pos, -1);
                }
            }

            // Eliminate the remaining rows of the pivot column; each
            // yields one L multiplier and a sparse row merge.
            self.l_fwd.alloc(prow, 0);
            self.l_order.push(prow as u32);
            for k in 0..mk.cols[pcol as usize].len() {
                let rr = mk.cols[pcol as usize][k] as usize;
                if !mk.row_active[rr] {
                    continue;
                }
                let Some(arc) = row_take(&mut mk.rows[rr], pcol) else {
                    continue;
                };
                let l = arc / pv;
                self.l_fwd.push(prow, rr as u32, l);
                l_data_len += 1;
                // rows[rr] <- rows[rr] - l * rows[prow] over the still
                // active columns, via the dense accumulator.
                mk.acc_idx.clear();
                for k2 in 0..mk.rows[rr].len() {
                    let (pos, val) = mk.rows[rr][k2];
                    mk.acc_val[pos as usize] = val;
                    mk.acc_mark[pos as usize] = true;
                    mk.acc_idx.push(pos);
                }
                if l != 0.0 {
                    for k2 in 0..mk.rows[prow].len() {
                        let (pos, val) = mk.rows[prow][k2];
                        if pos == pcol || mk.col_done[pos as usize] {
                            continue;
                        }
                        if mk.acc_mark[pos as usize] {
                            mk.acc_val[pos as usize] -= l * val;
                        } else {
                            mk.acc_mark[pos as usize] = true;
                            mk.acc_val[pos as usize] = -l * val;
                            mk.acc_idx.push(pos);
                            // Fill-in: register row rr under column pos.
                            mk.cols[pos as usize].push(rr as u32);
                            mk.bucket_shift(pos, 1);
                        }
                    }
                }
                mk.rows[rr].clear();
                for k2 in 0..mk.acc_idx.len() {
                    let pos = mk.acc_idx[k2];
                    mk.rows[rr].push((pos, mk.acc_val[pos as usize]));
                    mk.acc_val[pos as usize] = 0.0;
                    mk.acc_mark[pos as usize] = false;
                }
                mk.row_cnt[rr] = mk.rows[rr].len() as u32;
            }
        }

        // Assemble U: remap column positions to their pivot rows, then
        // mirror row-wise storage into column-wise.
        self.rank_of.clear();
        self.rank_of.resize(m, NONE);
        for (k, &r) in self.seq.iter().enumerate() {
            self.rank_of[r as usize] = k as u32;
        }
        let mut u_nnz = 0usize;
        self.urows.reset(m);
        for &r in &self.seq {
            let list = &mut mk.urows[r as usize];
            for e in list.iter_mut() {
                e.0 = mk.pos2row[e.0 as usize];
            }
            self.urows.alloc(r as usize, list.len() as u32 + 2);
            for &(j, u) in list.iter() {
                self.urows.push(r as usize, j, u);
            }
            u_nnz += list.len();
        }
        self.ucols.reset(m);
        // Column capacities: count first so every segment gets headroom.
        reset_to(&mut mk.col_cnt, m, 0u32);
        for r in 0..m {
            for &(j, _) in self.urows.entries(r) {
                mk.col_cnt[j as usize] += 1;
            }
        }
        for j in 0..m {
            self.ucols.alloc(j, mk.col_cnt[j] + 2);
        }
        for ri in 0..m {
            let s = self.urows.seg[ri];
            for k in s.start as usize..(s.start + s.len) as usize {
                let (j, u) = self.urows.data[k];
                self.ucols.push(j as usize, ri as u32, u);
            }
        }

        // Lᵀ adjacency for hyper-sparse BTRAN.
        self.l_trans.reset(m);
        reset_to(&mut mk.col_cnt, m, 0u32);
        for &r in &self.l_order {
            for &(i, _) in self.l_fwd.entries(r as usize) {
                mk.col_cnt[i as usize] += 1;
            }
        }
        for i in 0..m {
            self.l_trans.alloc(i, mk.col_cnt[i]);
        }
        for &r in &self.l_order {
            let s = self.l_fwd.seg[r as usize];
            for k in s.start as usize..(s.start + s.len) as usize {
                let (i, l) = self.l_fwd.data[k];
                self.l_trans.push(i as usize, r, l);
            }
        }

        // Align basis position with pivot row.
        for (pos, &var) in basis.iter().enumerate() {
            mk.new_basis[mk.pos2row[pos] as usize] = var;
        }
        basis.copy_from_slice(&mk.new_basis);

        self.stats.lu_refactors += 1;
        self.stats.fill_nnz = self.stats.fill_nnz.max((l_data_len + u_nnz + m) as u64);

        xb.copy_from_slice(b);
        self.ftran_dense_inplace(xb);
        Ok(())
    }
}

/// `v.clear(); v.resize(n, fill)` — shared shape for the scratch resets.
pub(crate) fn reset_to<T: Copy>(v: &mut Vec<T>, n: usize, fill: T) {
    v.clear();
    v.resize(n, fill);
}

fn row_lookup(row: &[(u32, f64)], col: u32) -> Option<f64> {
    row.iter().find(|e| e.0 == col).map(|e| e.1)
}

fn row_take(row: &mut Vec<(u32, f64)>, col: u32) -> Option<f64> {
    let k = row.iter().position(|e| e.0 == col)?;
    Some(row.swap_remove(k).1)
}

// Minimal binary min-heap over u32 ranks (std's BinaryHeap would
// allocate through its Drop/peek plumbing and is a max-heap besides).
fn heap_push(h: &mut Vec<u32>, v: u32) {
    h.push(v);
    let mut k = h.len() - 1;
    while k > 0 {
        let parent = (k - 1) / 2;
        if h[parent] <= h[k] {
            break;
        }
        h.swap(parent, k);
        k = parent;
    }
}

fn heap_pop(h: &mut Vec<u32>) -> Option<u32> {
    if h.is_empty() {
        return None;
    }
    let top = h.swap_remove(0);
    let mut k = 0;
    loop {
        let (l, r) = (2 * k + 1, 2 * k + 2);
        let mut small = k;
        if l < h.len() && h[l] < h[small] {
            small = l;
        }
        if r < h.len() && h[r] < h[small] {
            small = r;
        }
        if small == k {
            break;
        }
        h.swap(k, small);
        k = small;
    }
    Some(top)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic LCG over sparse nonsingular matrices: strong diagonal
    /// plus a few off-diagonal entries per column.
    fn random_cols(m: usize, seed: u64, extra: usize) -> Vec<Vec<(usize, f64)>> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        (0..m)
            .map(|j| {
                let mut col = vec![(j, 4.0 + (next() % 5) as f64)];
                for _ in 0..extra {
                    let r = next() % m;
                    if col.iter().all(|e| e.0 != r) {
                        col.push((r, ((next() % 9) as f64) - 4.0));
                    }
                }
                col
            })
            .collect()
    }

    fn mat_vec(cols: &[Vec<(usize, f64)>], basis: &[usize], x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; basis.len()];
        for (pos, &var) in basis.iter().enumerate() {
            for &(r, a) in &cols[var] {
                out[r] += a * x[pos];
            }
        }
        out
    }

    fn assert_vec_close(a: &[f64], b: &[f64], tol: f64) {
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() <= tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn refactor_solves_ftran_and_btran() {
        for (m, seed, extra) in [(1, 1, 0), (5, 2, 2), (23, 3, 3), (60, 4, 4)] {
            let cols = random_cols(m, seed, extra);
            let mut basis: Vec<usize> = (0..m).collect();
            let b: Vec<f64> = (0..m).map(|i| (i % 7) as f64 - 2.0).collect();
            let mut xb = vec![0.0; m];
            let mut f = LuFactor::default();
            f.refactor(&cols, &mut basis, &b, &mut xb).unwrap();
            // xb really solves B xb = b (position-aligned).
            assert_vec_close(&mat_vec(&cols, &basis, &xb), &b, 1e-8);
            // FTRAN of each basis column is the corresponding unit vector.
            let mut v = SpVec::default();
            for (pos, &var) in basis.iter().enumerate() {
                f.ftran(&cols[var], &mut v);
                for i in 0..m {
                    let want = if i == pos { 1.0 } else { 0.0 };
                    assert!((v.vals()[i] - want).abs() < 1e-8);
                }
            }
            // BTRAN: (yᵀ B⁻¹)·A_basis[pos] == y[pos] for a dense probe.
            let y: Vec<f64> = (0..m).map(|i| ((i * 13) % 5) as f64 - 1.0).collect();
            f.btran(&y, &mut v);
            for (pos, &var) in basis.iter().enumerate() {
                let dot: f64 = cols[var].iter().map(|&(r, a)| v.vals()[r] * a).sum();
                assert!((dot - y[pos]).abs() < 1e-8, "pos {pos}");
            }
        }
    }

    #[test]
    fn ft_updates_match_fresh_refactor() {
        let m = 24;
        let cols = random_cols(m, 9, 3);
        // Extra candidate columns to swap in.
        let mut all = cols.clone();
        all.extend(random_cols(m, 77, 3).into_iter().map(|mut c| {
            for e in c.iter_mut() {
                e.1 += 0.5;
            }
            c
        }));
        let mut basis: Vec<usize> = (0..m).collect();
        let b: Vec<f64> = (0..m).map(|i| 1.0 + (i % 3) as f64).collect();
        let mut xb = vec![0.0; m];
        let mut f = LuFactor::default();
        f.refactor(&all, &mut basis, &b, &mut xb).unwrap();

        // Each replacement installs the extra column whose dominant entry
        // sits on the replaced pivot row (`refactor` aligns basis position
        // with pivot row), so every intermediate basis stays
        // well-conditioned and no update is refused.
        let mut v = SpVec::default();
        for step in 0..8 {
            let p = (5 + step * 3) % m;
            let enter = m + p;
            f.ftran(&all[enter], &mut v);
            assert!(f.update(p, &v), "update {step} unexpectedly refused");
            basis[p] = enter;
        }
        assert!(f.stats.ft_updates == 8);

        let mut fresh = LuFactor::default();
        let mut fresh_basis = basis.clone();
        let mut fresh_xb = vec![0.0; m];
        fresh
            .refactor(&all, &mut fresh_basis, &b, &mut fresh_xb)
            .unwrap();
        // The two factors may order pivots differently, but both must
        // invert the same basis: compare solves through position
        // alignment (updated factor keeps `basis`; fresh one permuted).
        let probe: Vec<(usize, f64)> = vec![(2, 1.0), (11, -3.0), (17, 0.5)];
        let mut a = SpVec::default();
        let mut c = SpVec::default();
        f.ftran(&probe, &mut a);
        fresh.ftran(&probe, &mut c);
        // Map position-space results back to variable space.
        let mut by_var_a = vec![0.0; all.len()];
        let mut by_var_c = vec![0.0; all.len()];
        for pos in 0..m {
            by_var_a[basis[pos]] = a.vals()[pos];
            by_var_c[fresh_basis[pos]] = c.vals()[pos];
        }
        assert_vec_close(&by_var_a, &by_var_c, 1e-8);

        // BTRAN consistency: duals of a cost vector indexed by variable.
        let cost_of = |basis: &[usize]| -> Vec<f64> {
            basis
                .iter()
                .map(|&v| if v % 3 == 0 { 1.0 } else { 0.0 })
                .collect()
        };
        f.btran(&cost_of(&basis), &mut a);
        fresh.btran(&cost_of(&fresh_basis), &mut c);
        assert_vec_close(a.vals(), c.vals(), 1e-8);
    }

    #[test]
    fn update_refuses_singular_replacement() {
        let m = 6;
        let cols = random_cols(m, 5, 2);
        let mut basis: Vec<usize> = (0..m).collect();
        let b = vec![1.0; m];
        let mut xb = vec![0.0; m];
        let mut f = LuFactor::default();
        f.refactor(&cols, &mut basis, &b, &mut xb).unwrap();
        // Re-introduce the column already basic at position 2 into
        // position 4: the resulting basis is singular, so w = e_2 and the
        // spike's new diagonal is ~0.
        let var = basis[2];
        let mut v = SpVec::default();
        f.ftran(&cols[var], &mut v);
        assert!(!f.update(4, &v), "singular update must be refused");
    }

    #[test]
    fn sparse_and_dense_paths_agree() {
        let m = 40;
        let cols = random_cols(m, 13, 3);
        let mut basis: Vec<usize> = (0..m).collect();
        let b = vec![0.0; m];
        let mut xb = vec![0.0; m];
        let mut f = LuFactor::default();
        f.refactor(&cols, &mut basis, &b, &mut xb).unwrap();
        let mut v = SpVec::default();
        // Sweep input densities across the threshold; verify against
        // B·x = a by multiplying back, which is path-independent.
        for nnz in [1usize, 2, 10, 20, 40] {
            let probe: Vec<(usize, f64)> =
                (0..nnz).map(|k| (k * (m / nnz), 1.0 + k as f64)).collect();
            f.ftran(&probe, &mut v);
            let back = mat_vec(&cols, &basis, v.vals());
            let mut want = vec![0.0; m];
            for &(r, a) in &probe {
                want[r] = a;
            }
            assert_vec_close(&back, &want, 1e-8);
        }
        assert!(f.stats.sparse_solves > 0 && f.stats.dense_solves > 0);
    }

    #[test]
    fn identity_start_supports_updates() {
        // Phase-1 style: updates against the identity factor before any
        // refactorization has happened.
        let m = 8;
        let mut unit_cols: Vec<Vec<(usize, f64)>> = (0..m).map(|i| vec![(i, 1.0)]).collect();
        unit_cols.push(vec![(0, 2.0), (3, 1.0)]);
        let mut f = LuFactor::default();
        f.reset_identity(m);
        let mut v = SpVec::default();
        f.ftran(&unit_cols[m], &mut v);
        assert!((v.vals()[0] - 2.0).abs() < 1e-12);
        assert!(f.update(0, &v));
        // New basis: col m at position 0. FTRAN of it must be e_0.
        f.ftran(&unit_cols[m], &mut v);
        for i in 0..m {
            let want = if i == 0 { 1.0 } else { 0.0 };
            assert!((v.vals()[i] - want).abs() < 1e-12);
        }
    }

    #[test]
    fn spvec_reset_is_support_bounded_and_modes_convert() {
        let mut v = SpVec::default();
        v.reset(10);
        v.insert(3, 1.5);
        v.add(3, 0.5);
        v.add(7, -1.0);
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.support().collect::<Vec<_>>(), vec![3, 7]);
        assert_eq!(v.vals()[3], 2.0);
        v.make_dense();
        assert_eq!(v.nnz(), 10);
        assert_eq!(v.vals()[7], -1.0);
        v.reset(10);
        assert!(v.vals().iter().all(|&x| x == 0.0));
        assert_eq!(v.nnz(), 0);
    }
}
