//! Sparse linear algebra: CSR-backed LU with a cached symbolic structure.
//!
//! The dense solver in [`matrix`](crate::matrix) refactors an `n × n`
//! matrix in O(n³) per Newton iteration, which stops being viable for the
//! clock-distribution workloads (H-trees of hundreds of RC nodes) this
//! workspace targets. MNA matrices of such circuits are overwhelmingly
//! sparse — a few entries per row — and, crucially, their *structure* never
//! changes during an analysis: every Newton iteration and every transient
//! step stamps the same set of `(row, col)` positions with different
//! values.
//!
//! This module splits the solve accordingly:
//!
//! * [`Symbolic`] — the one-time **symbolic analysis**: a fill-reducing
//!   (minimum-degree) elimination ordering, the symbolic factorisation
//!   that predicts the complete fill-in pattern, and the CSR slot layout
//!   shared by every numeric factorisation. Built once per circuit
//!   topology and shared via `Arc` across Newton iterations, timesteps
//!   and whole simulation variants.
//! * [`SparseMatrix`] — the per-solve numeric state: one `f64` per slot of
//!   the symbolic pattern, with the same `set`/`add`/`solve_into` surface
//!   as [`DenseMatrix`](crate::DenseMatrix). Each
//!   [`solve_into`](SparseMatrix::solve_into) is a **numeric-refactor
//!   only**: Gaussian elimination over the fixed pattern in the fixed
//!   order, no searching, no allocation.
//! * `lane_factor` / `lane_substitute` — the one numeric LU kernel,
//!   generic over a lane width `W`: `W` value planes interleave so slot
//!   `s` of lane `l` lives at `vals[s * W + l]`. At `W = 1` that is the
//!   plain CSR plane of a [`SparseMatrix`], whose solve is the width-1
//!   call; the batched kernel runs the same code at
//!   [`LANE_WIDTH`](crate::LANE_WIDTH).
//! * [`SymbolicCache`] — a thread-safe topology-keyed cache so batched
//!   campaigns (fault variants, Monte-Carlo samples) analyse each
//!   topology once and clone only numeric state per variant.
//!
//! # Pivoting
//!
//! The elimination order is *static*: minimum degree over the node rows,
//! with the voltage-source branch rows (structurally zero diagonal until
//! fill from their terminal nodes arrives) constrained to the end of the
//! order. MNA node rows carry `gmin` on the diagonal and are near
//! diagonally dominant, so no numeric pivoting is needed in practice; a
//! pivot that still falls below the norm-relative threshold (the same
//! `ε · ‖A‖_∞ · √n` rule as the dense solver), or is not finite, reports
//! [`SpiceError::SingularMatrix`] rather than dividing through roundoff.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use clocksense_spice::{SparseMatrix, Symbolic};
//!
//! // 2x2 pattern with every position present; no tail rows.
//! let pattern = [(0, 0), (0, 1), (1, 0), (1, 1)];
//! let sym = Arc::new(Symbolic::analyze(2, &pattern, 0));
//! let mut m = SparseMatrix::new(sym);
//! m.add(0, 0, 2.0);
//! m.add(0, 1, 1.0);
//! m.add(1, 0, 1.0);
//! m.add(1, 1, 3.0);
//! let x = m.solve(&[5.0, 10.0]).expect("non-singular");
//! assert!((x[0] - 1.0).abs() < 1e-12);
//! assert!((x[1] - 3.0).abs() < 1e-12);
//! ```

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::error::SpiceError;
use crate::matrix::LuScratch;

/// Locally accumulated factorisation counts, flushed to the global
/// telemetry atomics in one `add` per counter. Hot solver loops (the
/// Newton iteration, the batched lane sweeps) tally into one of these
/// and flush once per solve or accepted step, so no shared cache line is
/// touched per iteration; the flushed totals are identical to the old
/// per-call `incr`s, keeping clean-report snapshots byte-identical.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct LuTally {
    /// Numeric refactorisations performed (`spice.numeric_refactors`).
    pub(crate) refactors: u64,
    /// Refactorisations that reused an existing symbolic structure
    /// (`spice.symbolic_reuse_hits`).
    pub(crate) reuse_hits: u64,
}

impl LuTally {
    /// Adds the tallied counts to the global metrics and resets them.
    pub(crate) fn flush(&mut self) {
        let tm = crate::metrics::metrics();
        tm.numeric_refactors.add(self.refactors);
        tm.symbolic_reuse_hits.add(self.reuse_hits);
        *self = LuTally::default();
    }
}

/// One-time symbolic analysis of a sparse system: fill-reducing ordering
/// plus the complete LU fill-in pattern, reused by every numeric
/// factorisation of matrices with this structure.
///
/// The pattern is symmetrised (LU fill of an unsymmetric-pattern matrix is
/// bounded by the fill of its symmetrised pattern) and a structural
/// diagonal is always included, so every stamped position and every fill
/// position has a fixed slot in the CSR arrays.
#[derive(Debug)]
pub struct Symbolic {
    pub(crate) n: usize,
    /// Elimination position → original row index.
    pub(crate) perm: Vec<usize>,
    /// Original row index → elimination position.
    inv_perm: Vec<usize>,
    /// CSR row pointers over the *permuted* LU pattern (`n + 1` entries).
    pub(crate) row_start: Vec<usize>,
    /// Permuted column indices, ascending within each row.
    pub(crate) cols: Vec<usize>,
    /// Slot of the diagonal entry of each permuted row.
    pub(crate) diag: Vec<usize>,
    /// Column lists for the factorisation: for permuted column `k`,
    /// `col_rows/col_slots[col_start[k]..col_start[k+1]]` enumerate the
    /// sub-diagonal entries `(i, k)`, `i > k`, in ascending row order.
    pub(crate) col_start: Vec<usize>,
    pub(crate) col_rows: Vec<usize>,
    pub(crate) col_slots: Vec<usize>,
    /// Precomputed elimination schedule: for sub-diagonal entry `idx`
    /// (an `(i, k)` of the column lists), the target slots in row `i`
    /// hit by `row_i -= factor * row_k` over row `k`'s columns past the
    /// diagonal, in that order. `upd_targets[upd_start[idx] + j]` pairs
    /// with source slot `diag[k] + 1 + j`. Replaces the per-operation
    /// merge walk (and its per-slot `debug_assert_eq!`) in the numeric
    /// sweeps; the pattern is audited once, at analysis time.
    pub(crate) upd_start: Vec<usize>,
    pub(crate) upd_targets: Vec<u32>,
    /// Nonzeros of the symmetrised stamp pattern (before fill).
    nnz_pattern: usize,
}

impl Symbolic {
    /// Analyses the structure of an `n × n` system whose stamped positions
    /// are `pattern` (duplicates are fine; the diagonal is always added
    /// structurally).
    ///
    /// The final `n_tail` indices (`n - n_tail ..= n - 1`) are constrained
    /// to the *end* of the elimination order, in their original relative
    /// order. MNA callers pass the voltage-source branch rows here: their
    /// diagonal is structurally zero until elimination of their terminal
    /// node rows fills it in, so they must never be pivoted early.
    ///
    /// # Panics
    ///
    /// Panics if `n_tail > n` or any pattern index is out of bounds.
    pub fn analyze(n: usize, pattern: &[(usize, usize)], n_tail: usize) -> Symbolic {
        assert!(n_tail <= n, "n_tail exceeds dimension");
        for &(r, c) in pattern {
            assert!(r < n && c < n, "pattern index ({r},{c}) out of bounds");
        }
        let head = n - n_tail;

        // Symmetrised adjacency (no self loops).
        let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        for &(r, c) in pattern {
            if r != c {
                adj[r].insert(c);
                adj[c].insert(r);
            }
        }
        let nnz_pattern = n + adj.iter().map(BTreeSet::len).sum::<usize>();

        // Minimum-degree ordering over the head rows; elimination of a row
        // cliques its remaining neighbours, mirroring the fill the numeric
        // factorisation will create.
        let mut md = adj.clone();
        let mut eliminated = vec![false; n];
        let mut perm = Vec::with_capacity(n);
        for _ in 0..head {
            let v = (0..head)
                .filter(|&v| !eliminated[v])
                .min_by_key(|&v| (md[v].len(), v))
                .expect("head row available");
            eliminated[v] = true;
            perm.push(v);
            let neighbours: Vec<usize> =
                md[v].iter().copied().filter(|&u| !eliminated[u]).collect();
            for &a in &neighbours {
                md[a].remove(&v);
                for &b in &neighbours {
                    if b != a {
                        md[a].insert(b);
                    }
                }
            }
        }
        perm.extend(head..n);
        let mut inv_perm = vec![0usize; n];
        for (pos, &orig) in perm.iter().enumerate() {
            inv_perm[orig] = pos;
        }

        // Symbolic factorisation in the permuted order: `upper[k]` holds
        // the columns `> k` of permuted row `k`; eliminating `k` unions its
        // remaining pattern into every row it updates. The pattern is kept
        // structurally symmetric, so `(i, k)` is nonzero iff `i ∈ upper[k]`.
        let mut upper: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        for (orig, neighbours) in adj.iter().enumerate() {
            let pr = inv_perm[orig];
            for &c in neighbours {
                let pc = inv_perm[c];
                let (lo, hi) = if pr < pc { (pr, pc) } else { (pc, pr) };
                upper[lo].insert(hi);
            }
        }
        for k in 0..n {
            let reach: Vec<usize> = upper[k].iter().copied().collect();
            for (idx, &i) in reach.iter().enumerate() {
                for &c in &reach[idx + 1..] {
                    upper[i].insert(c);
                }
            }
        }

        // CSR layout of L + U: row k gets its lower entries (cols c < k
        // with k in upper[c]), the diagonal, and its upper entries.
        let mut rows: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (c, ups) in upper.iter().enumerate() {
            for &i in ups {
                rows[i].push(c); // lower entry (i, c)
            }
        }
        let mut row_start = Vec::with_capacity(n + 1);
        let mut cols = Vec::new();
        let mut diag = Vec::with_capacity(n);
        row_start.push(0);
        for (k, lower) in rows.iter().enumerate() {
            debug_assert!(lower.windows(2).all(|w| w[0] < w[1]));
            cols.extend_from_slice(lower);
            diag.push(cols.len());
            cols.push(k);
            cols.extend(upper[k].iter().copied());
            row_start.push(cols.len());
        }

        // Column lists over the lower triangle, rows ascending per column.
        let mut per_col: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for i in 0..n {
            for slot in row_start[i]..diag[i] {
                per_col[cols[slot]].push((i, slot));
            }
        }
        let mut col_start = Vec::with_capacity(n + 1);
        let mut col_rows = Vec::new();
        let mut col_slots = Vec::new();
        col_start.push(0);
        for entries in &per_col {
            for &(i, slot) in entries {
                col_rows.push(i);
                col_slots.push(slot);
            }
            col_start.push(col_rows.len());
        }

        // Elimination schedule: resolve every `row_i -= factor * row_k`
        // target slot once, with the same merge walk the numeric sweeps
        // used to repeat per factorisation. Row i's columns past (i, k)
        // are a superset of row k's columns past the diagonal, so the
        // walk never falls off the row.
        let mut upd_start = Vec::with_capacity(col_slots.len() + 1);
        let mut upd_targets: Vec<u32> = Vec::new();
        upd_start.push(0);
        for k in 0..n {
            for &slot in &col_slots[col_start[k]..col_start[k + 1]] {
                let mut t = slot + 1;
                for a in diag[k] + 1..row_start[k + 1] {
                    let c = cols[a];
                    while cols[t] < c {
                        t += 1;
                    }
                    assert_eq!(cols[t], c, "fill slot predicted by symbolic");
                    upd_targets.push(u32::try_from(t).expect("slot fits u32"));
                    t += 1;
                }
                upd_start.push(upd_targets.len());
            }
        }

        let sym = Symbolic {
            n,
            perm,
            inv_perm,
            row_start,
            cols,
            diag,
            col_start,
            col_rows,
            col_slots,
            upd_start,
            upd_targets,
            nnz_pattern,
        };
        debug_assert!(sym.audit_update_targets(), "elimination schedule drift");
        let tm = crate::metrics::metrics();
        tm.symbolic_analyses.incr();
        tm.fill_in.add(sym.fill_in() as u64);
        sym
    }

    /// Debug-mode audit of the precomputed elimination schedule against
    /// the CSR pattern: every target slot must live in the updated row
    /// and carry exactly the source entry's column. Run once per
    /// analysis (`debug_assert!`), so the numeric sweeps carry no
    /// per-operation bounds logic in release builds while debug builds
    /// still catch symbolic drift.
    fn audit_update_targets(&self) -> bool {
        if self.upd_start.len() != self.col_slots.len() + 1 {
            return false;
        }
        for k in 0..self.n {
            for idx in self.col_start[k]..self.col_start[k + 1] {
                let i = self.col_rows[idx];
                let targets = &self.upd_targets[self.upd_start[idx]..self.upd_start[idx + 1]];
                let sources = self.diag[k] + 1..self.row_start[k + 1];
                if targets.len() != sources.len() {
                    return false;
                }
                for (a, &t) in sources.zip(targets) {
                    let t = t as usize;
                    let in_row = self.row_start[i] <= t && t < self.row_start[i + 1];
                    if !in_row || self.cols[t] != self.cols[a] {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Nonzero slots of the full LU pattern (stamp pattern plus fill).
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Slots the symbolic factorisation added beyond the (symmetrised)
    /// stamp pattern.
    pub fn fill_in(&self) -> usize {
        self.cols.len() - self.nnz_pattern
    }

    /// Slot of original position `(row, col)`, if it is in the pattern.
    pub fn slot(&self, row: usize, col: usize) -> Option<usize> {
        if row >= self.n || col >= self.n {
            return None;
        }
        let pr = self.inv_perm[row];
        let pc = self.inv_perm[col];
        let range = &self.cols[self.row_start[pr]..self.row_start[pr + 1]];
        range
            .binary_search(&pc)
            .ok()
            .map(|off| self.row_start[pr] + off)
    }
}

/// A sparse square matrix over a shared [`Symbolic`] structure, with the
/// same `set`/`add`/`solve_into` surface as
/// [`DenseMatrix`](crate::DenseMatrix).
///
/// Cloning a `SparseMatrix` clones only the numeric values; the symbolic
/// structure stays shared.
#[derive(Debug, Clone)]
pub struct SparseMatrix {
    sym: Arc<Symbolic>,
    vals: Vec<f64>,
    /// Whether the next factorisation counts as a symbolic *reuse*: true
    /// once this matrix has factored before, or from construction when the
    /// structure came out of a [`SymbolicCache`].
    reused: bool,
}

impl SparseMatrix {
    /// A zero matrix over `sym`'s pattern.
    pub fn new(sym: Arc<Symbolic>) -> SparseMatrix {
        let vals = vec![0.0; sym.nnz()];
        SparseMatrix {
            sym,
            vals,
            reused: false,
        }
    }

    /// A zero matrix over a structure that was retrieved from a cache, so
    /// even its first factorisation counts as a symbolic reuse.
    pub fn new_cached(sym: Arc<Symbolic>) -> SparseMatrix {
        SparseMatrix {
            reused: true,
            ..SparseMatrix::new(sym)
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.sym.n
    }

    /// The shared symbolic structure.
    pub fn symbolic(&self) -> &Arc<Symbolic> {
        &self.sym
    }

    /// Resets all values to zero, keeping the structure and allocation.
    pub fn clear(&mut self) {
        self.vals.fill(0.0);
    }

    /// Reads entry `(row, col)`; positions outside the pattern read 0.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.sym.n && col < self.sym.n, "index out of bounds");
        self.sym.slot(row, col).map_or(0.0, |s| self.vals[s])
    }

    /// Sets entry `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the position is outside the symbolic pattern.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        let slot = self
            .sym
            .slot(row, col)
            .unwrap_or_else(|| panic!("({row},{col}) not in the symbolic pattern"));
        self.vals[slot] = value;
    }

    /// Adds `value` to entry `(row, col)` — the MNA stamping primitive.
    ///
    /// # Panics
    ///
    /// Panics if the position is outside the symbolic pattern.
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        let slot = self
            .sym
            .slot(row, col)
            .unwrap_or_else(|| panic!("({row},{col}) not in the symbolic pattern"));
        self.vals[slot] += value;
    }

    /// Adds `value` at a precomputed `slot` (from [`Symbolic::slot`]) —
    /// the zero-lookup path the compiled stamp plans use.
    #[inline]
    pub fn add_slot(&mut self, slot: usize, value: f64) {
        self.vals[slot] += value;
    }

    /// Mutable view of the value plane — the batched kernel's delta-stamp
    /// target.
    pub(crate) fn values_mut(&mut self) -> &mut [f64] {
        &mut self.vals
    }

    /// Read-only view of the value plane — the source the batched lane
    /// kernel broadcasts its baseline stamp from.
    pub(crate) fn values(&self) -> &[f64] {
        &self.vals
    }

    /// Solves `A x = b`, allocating the scratch and output buffers.
    ///
    /// # Errors
    ///
    /// See [`solve_into`](SparseMatrix::solve_into).
    pub fn solve(&mut self, b: &[f64]) -> Result<Vec<f64>, SpiceError> {
        let mut scratch = LuScratch::new();
        let mut out = Vec::new();
        self.solve_into(b, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Solves `A x = b` by numeric LU refactorisation over the fixed
    /// symbolic pattern, writing the solution into `out`. The elimination
    /// order and fill pattern come from the shared [`Symbolic`]; this call
    /// performs no searching and no allocation (the scratch buffers are
    /// reused). The factorisation consumes the matrix values — callers
    /// re-stamp every Newton iteration anyway.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularMatrix`] when a pivot drops below the
    /// norm-relative threshold `ε · ‖A‖_∞ · √n` (same rule as the dense
    /// solver) or is not finite, or when the solution is non-finite.
    pub fn solve_into(
        &mut self,
        b: &[f64],
        scratch: &mut LuScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), SpiceError> {
        let mut tally = LuTally::default();
        let result = self.solve_into_tallied(b, scratch, out, &mut tally);
        tally.flush();
        result
    }

    /// [`solve_into`](SparseMatrix::solve_into) with the telemetry
    /// counts accumulated into `tally` instead of the global atomics —
    /// the Newton inner loop calls this and flushes once per solve, so
    /// the per-iteration hot path touches no shared cache lines.
    ///
    /// The value plane is the width-1 case of the lane layout, so this is
    /// [`lane_factor`] and [`lane_substitute`] at `W = 1`.
    pub(crate) fn solve_into_tallied(
        &mut self,
        b: &[f64],
        scratch: &mut LuScratch,
        out: &mut Vec<f64>,
        tally: &mut LuTally,
    ) -> Result<(), SpiceError> {
        let sym = &*self.sym;
        let n = sym.n;
        assert_eq!(b.len(), n, "rhs length mismatch");
        tally.refactors += 1;
        if self.reused {
            tally.reuse_hits += 1;
        }
        self.reused = true;

        let [singular] = lane_factor::<1>(sym, &mut self.vals, &mut scratch.row_buf);
        if singular {
            return Err(SpiceError::SingularMatrix);
        }
        scratch.rhs.resize(n, 0.0);
        out.clear();
        out.resize(n, 0.0);
        lane_substitute::<1>(sym, &self.vals, b, &mut scratch.rhs, out);
        if out.iter().any(|v| !v.is_finite()) {
            return Err(SpiceError::SingularMatrix);
        }
        Ok(())
    }
}

/// The sparse LU elimination sweep over `W` interleaved value planes:
/// slot `s` of lane `l` lives at `vals[s * W + l]`, so every per-slot
/// operation is one contiguous `W`-wide loop the compiler autovectorizes.
/// Factors all planes in place and returns a per-lane singularity flag.
///
/// Per lane: infinity norm accumulated in row/slot order, the pivot
/// threshold `ε · ‖A‖_∞ · √n`, and the elimination schedule through
/// `upd_targets`. A sub-threshold or non-finite pivot flags its lane and
/// is overwritten with `1.0`, keeping the remaining lanes' arithmetic
/// finite without branching in the inner loop.
///
/// At `W = 1` (the scalar [`SparseMatrix`]) a zero multiplier skips its
/// row update; lane blocks drop the skip to stay branch-free, which can
/// only change the sign of a zero (`x - 0·y`). The batched kernel runs
/// this at [`LANE_WIDTH`](crate::LANE_WIDTH).
#[inline(always)]
fn lane_factor_body<const W: usize>(
    sym: &Symbolic,
    vals: &mut [f64],
    row_buf: &mut Vec<f64>,
) -> [bool; W] {
    let n = sym.n;

    // One amortised infinity-norm pass over the whole block (fill slots
    // are still zero), anchoring the pivot threshold to the system scale.
    let mut norm = [0.0f64; W];
    for k in 0..n {
        let mut row = [0.0f64; W];
        for slot in sym.row_start[k]..sym.row_start[k + 1] {
            for (acc, v) in row.iter_mut().zip(&vals[slot * W..slot * W + W]) {
                *acc += v.abs();
            }
        }
        for (nl, rl) in norm.iter_mut().zip(&row) {
            *nl = nl.max(*rl);
        }
    }
    let scale = (n as f64).sqrt();
    let mut threshold = [0.0f64; W];
    for (th, nl) in threshold.iter_mut().zip(&norm) {
        *th = (f64::EPSILON * nl * scale).max(f64::MIN_POSITIVE);
    }

    let mut singular = [false; W];
    for k in 0..n {
        let dk = sym.diag[k] * W;
        let mut pivots = [0.0f64; W];
        for l in 0..W {
            let p = vals[dk + l];
            // `!(>=)` also catches a NaN pivot.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(p.abs() >= threshold[l]) {
                singular[l] = true;
                vals[dk + l] = 1.0;
                pivots[l] = 1.0;
            } else {
                pivots[l] = p;
            }
        }
        // Row k is never modified while column k eliminates, so snapshot
        // its upper-triangle lanes once: the update loop then reads an
        // L1-hot local and writes disjoint target rows.
        let upper = sym.diag[k] + 1..sym.row_start[k + 1];
        row_buf.clear();
        row_buf.extend_from_slice(&vals[upper.start * W..upper.end * W]);
        for idx in sym.col_start[k]..sym.col_start[k + 1] {
            let s = sym.col_slots[idx] * W;
            let mut factor = [0.0f64; W];
            for ((f, v), p) in factor.iter_mut().zip(&mut vals[s..s + W]).zip(&pivots) {
                *f = *v / p;
                *v = *f;
            }
            if W == 1 && factor[0] == 0.0 {
                continue;
            }
            // row_i -= factor * row_k over columns > k, through the
            // precomputed elimination schedule (audited at analysis time).
            let targets = &sym.upd_targets[sym.upd_start[idx]..sym.upd_start[idx + 1]];
            for (j, &tslot) in targets.iter().enumerate() {
                let src = &row_buf[j * W..j * W + W];
                let dst = &mut vals[tslot as usize * W..tslot as usize * W + W];
                for (d, (f, sv)) in dst.iter_mut().zip(factor.iter().zip(src)) {
                    *d -= f * sv;
                }
            }
        }
    }
    singular
}

/// Forward/back substitution with the factors [`lane_factor`] left in
/// `vals`: solves all `W` planes against their interleaved right-hand
/// sides `rhs` (original row order) into `out`, using `y` as the
/// permuted scratch. At `W = 1` a zero multiplier skips its update, as in
/// [`lane_factor_body`].
#[inline(always)]
fn lane_substitute_body<const W: usize>(
    sym: &Symbolic,
    vals: &[f64],
    rhs: &[f64],
    y: &mut [f64],
    out: &mut [f64],
) {
    let n = sym.n;
    for (k, &orig) in sym.perm.iter().enumerate() {
        y[k * W..k * W + W].copy_from_slice(&rhs[orig * W..orig * W + W]);
    }
    // Forward substitution, column-major: y[k] has received every update
    // from columns < k by the time column k reads it.
    for k in 0..n {
        let mut yk = [0.0f64; W];
        yk.copy_from_slice(&y[k * W..k * W + W]);
        for idx in sym.col_start[k]..sym.col_start[k + 1] {
            let i = sym.col_rows[idx] * W;
            let s = sym.col_slots[idx] * W;
            let vs = &vals[s..s + W];
            if W == 1 && vs[0] == 0.0 {
                continue;
            }
            for (yi, (v, ykl)) in y[i..i + W].iter_mut().zip(vs.iter().zip(&yk)) {
                *yi -= v * ykl;
            }
        }
    }
    for k in (0..n).rev() {
        let mut sum = [0.0f64; W];
        sum.copy_from_slice(&y[k * W..k * W + W]);
        for slot in sym.diag[k] + 1..sym.row_start[k + 1] {
            let c = sym.cols[slot] * W;
            let vs = &vals[slot * W..slot * W + W];
            let yc = &y[c..c + W];
            for (s, (v, ycl)) in sum.iter_mut().zip(vs.iter().zip(yc)) {
                *s -= v * ycl;
            }
        }
        let d = sym.diag[k] * W;
        let dv = &vals[d..d + W];
        for ((ykl, s), v) in y[k * W..k * W + W].iter_mut().zip(&sum).zip(dv) {
            *ykl = s / v;
        }
    }
    for (k, &orig) in sym.perm.iter().enumerate() {
        out[orig * W..orig * W + W].copy_from_slice(&y[k * W..k * W + W]);
    }
}

// SIMD dispatch: the generic bodies above are `#[inline(always)]` and the
// `#[target_feature]` wrappers below give the compiler permission to use
// the wider vector units when the CPU has them. No global codegen flag
// changes (which would perturb the archived scalar goldens); the lanes
// are independent streams, so vectorisation needs no FP reassociation
// and every dispatch target computes identical results.

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn lane_factor_avx512<const W: usize>(
    sym: &Symbolic,
    vals: &mut [f64],
    row_buf: &mut Vec<f64>,
) -> [bool; W] {
    lane_factor_body(sym, vals, row_buf)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lane_factor_avx2<const W: usize>(
    sym: &Symbolic,
    vals: &mut [f64],
    row_buf: &mut Vec<f64>,
) -> [bool; W] {
    lane_factor_body(sym, vals, row_buf)
}

/// Factors the `W` interleaved planes of `vals` in place; see
/// [`lane_factor_body`]. Returns the per-lane singularity flags.
pub(crate) fn lane_factor<const W: usize>(
    sym: &Symbolic,
    vals: &mut [f64],
    row_buf: &mut Vec<f64>,
) -> [bool; W] {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: the feature is detected at runtime just before the
        // call; the bodies contain no ISA-specific intrinsics beyond
        // what codegen emits for the detected feature.
        if std::arch::is_x86_feature_detected!("avx512f") {
            return unsafe { lane_factor_avx512(sym, vals, row_buf) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return unsafe { lane_factor_avx2(sym, vals, row_buf) };
        }
    }
    lane_factor_body(sym, vals, row_buf)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn lane_substitute_avx512<const W: usize>(
    sym: &Symbolic,
    vals: &[f64],
    rhs: &[f64],
    y: &mut [f64],
    out: &mut [f64],
) {
    lane_substitute_body::<W>(sym, vals, rhs, y, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lane_substitute_avx2<const W: usize>(
    sym: &Symbolic,
    vals: &[f64],
    rhs: &[f64],
    y: &mut [f64],
    out: &mut [f64],
) {
    lane_substitute_body::<W>(sym, vals, rhs, y, out);
}

/// Solves the `W` planes factored by [`lane_factor`]; see
/// [`lane_substitute_body`].
pub(crate) fn lane_substitute<const W: usize>(
    sym: &Symbolic,
    vals: &[f64],
    rhs: &[f64],
    y: &mut [f64],
    out: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: as in `lane_factor`.
        if std::arch::is_x86_feature_detected!("avx512f") {
            return unsafe { lane_substitute_avx512::<W>(sym, vals, rhs, y, out) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return unsafe { lane_substitute_avx2::<W>(sym, vals, rhs, y, out) };
        }
    }
    lane_substitute_body::<W>(sym, vals, rhs, y, out);
}

/// Cache key: the full canonical structure, so equal keys really are equal
/// topologies (no hash-collision risk).
type CacheKey = (usize, usize, Vec<(u32, u32)>);

/// Thread-safe cache of [`Symbolic`] structures keyed by topology.
///
/// Batched drivers (fault campaigns, Monte-Carlo sweeps) simulate
/// thousands of circuit *variants* that share a handful of topologies:
/// parameter perturbation changes device values, never the stamp pattern.
/// One `SymbolicCache` per batch makes the symbolic analysis a once-per-
/// topology cost; every variant clones only numeric state. Hits and
/// misses are also recorded on the global telemetry registry as
/// `spice.symbolic_cache_hits` / `spice.symbolic_cache_misses`.
#[derive(Debug, Default)]
pub struct SymbolicCache {
    /// Every update is one insert of a finished analysis, so the map stays
    /// valid when a holder panics: a poisoned lock is recovered, not fatal.
    map: Mutex<std::collections::HashMap<CacheKey, Arc<Symbolic>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SymbolicCache {
    /// An empty cache.
    pub fn new() -> SymbolicCache {
        SymbolicCache::default()
    }

    /// Returns the cached structure for `(n, pattern, n_tail)`, analysing
    /// and inserting it on first sight. The boolean is `true` on a hit.
    pub fn get_or_analyze(
        &self,
        n: usize,
        pattern: &[(usize, usize)],
        n_tail: usize,
    ) -> (Arc<Symbolic>, bool) {
        let key: CacheKey = (
            n,
            n_tail,
            pattern.iter().map(|&(r, c)| (r as u32, c as u32)).collect(),
        );
        let tm = crate::metrics::metrics();
        {
            let map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(sym) = map.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                tm.symbolic_cache_hits.incr();
                return (Arc::clone(sym), true);
            }
        }
        // Analyse outside the lock; a racing analysis of the same topology
        // wastes work but stays correct (first insert wins).
        let sym = Arc::new(Symbolic::analyze(n, pattern, n_tail));
        self.misses.fetch_add(1, Ordering::Relaxed);
        tm.symbolic_cache_misses.incr();
        let mut map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
        let entry = map.entry(key).or_insert_with(|| Arc::clone(&sym));
        (Arc::clone(entry), false)
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of distinct topologies analysed.
    pub fn len(&self) -> usize {
        self.map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// `true` when no topology has been analysed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::DenseMatrix;
    use crate::{dc_operating_point, transient_batch, transient_cached};
    use crate::{SimOptions, SolverKind};
    use clocksense_netlist::{Circuit, SourceWave, GROUND};

    fn full_pattern(n: usize) -> Vec<(usize, usize)> {
        (0..n).flat_map(|r| (0..n).map(move |c| (r, c))).collect()
    }

    #[test]
    fn poisoned_cache_still_serves() {
        // The map holds only finished analyses, so a panic while the lock
        // is held leaves it consistent: later callers keep using it.
        let cache = SymbolicCache::new();
        let pattern = full_pattern(2);
        cache.get_or_analyze(2, &pattern, 0);
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _guard = cache.map.lock().unwrap();
                panic!("poison the cache lock");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(cache.map.is_poisoned());
        let (_, hit) = cache.get_or_analyze(2, &pattern, 0);
        assert!(hit);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn identity_solve() {
        let pattern: Vec<(usize, usize)> = (0..3).map(|i| (i, i)).collect();
        let sym = Arc::new(Symbolic::analyze(3, &pattern, 0));
        assert_eq!(sym.fill_in(), 0);
        let mut m = SparseMatrix::new(sym);
        for i in 0..3 {
            m.set(i, i, 1.0);
        }
        let x = m.solve(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn tridiagonal_matches_dense() {
        let n = 8;
        let mut pattern = Vec::new();
        for i in 0..n {
            pattern.push((i, i));
            if i + 1 < n {
                pattern.push((i, i + 1));
                pattern.push((i + 1, i));
            }
        }
        let sym = Arc::new(Symbolic::analyze(n, &pattern, 0));
        // A chain ordered by minimum degree generates no fill.
        assert_eq!(sym.fill_in(), 0);
        let mut sp = SparseMatrix::new(Arc::clone(&sym));
        let mut de = DenseMatrix::new(n);
        for i in 0..n {
            sp.add(i, i, 2.5 + i as f64 * 0.1);
            de.add(i, i, 2.5 + i as f64 * 0.1);
            if i + 1 < n {
                sp.add(i, i + 1, -1.0);
                sp.add(i + 1, i, -1.0);
                de.add(i, i + 1, -1.0);
                de.add(i + 1, i, -1.0);
            }
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64) - 3.0).collect();
        let xs = sp.solve(&b).unwrap();
        let xd = de.solve(&b).unwrap();
        for (a, b) in xs.iter().zip(&xd) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn tail_rows_with_zero_diagonal_solve() {
        // MNA shape: node row 0 with a conductance, voltage-source branch
        // row 1 with a structurally/numerically zero diagonal. A naive
        // static order that pivots row 1 first would divide by zero; the
        // tail constraint defers it until fill arrives.
        let pattern = [(0, 0), (0, 1), (1, 0)];
        let sym = Arc::new(Symbolic::analyze(2, &pattern, 1));
        let mut m = SparseMatrix::new(sym);
        // [g 1; 1 0] x = [0; v]  -> x = [v, -g v]
        m.add(0, 0, 1e-3);
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        let x = m.solve(&[0.0, 2.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] + 2e-3).abs() < 1e-15);
    }

    #[test]
    fn scaled_down_singular_is_reported() {
        // Same regression as the dense solver: rank-1 at ~1e-6 S scale
        // must be caught by the norm-relative pivot threshold.
        let sym = Arc::new(Symbolic::analyze(2, &full_pattern(2), 0));
        let mut m = SparseMatrix::new(sym);
        m.set(0, 0, 1.1e-6);
        m.set(0, 1, 0.7e-6);
        m.set(1, 0, 1.1e-6 / 3.0);
        m.set(1, 1, 0.7e-6 / 3.0);
        assert_eq!(
            m.solve(&[1.0e-6, 2.0e-6]).unwrap_err(),
            SpiceError::SingularMatrix
        );
    }

    #[test]
    fn random_sparse_system_matches_dense() {
        // Deterministic pseudo-random diagonally dominant system over a
        // random sparsity pattern.
        let n = 24;
        let mut seed = 0x2545f4914f6cdd1du64;
        let mut rnd = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as f64 / u64::MAX as f64) - 0.5
        };
        let mut pattern: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
        let mut entries = Vec::new();
        for i in 0..n {
            for _ in 0..3 {
                let j = ((rnd() + 0.5) * n as f64) as usize % n;
                if i != j {
                    let v = rnd();
                    pattern.push((i, j));
                    entries.push((i, j, v));
                }
            }
        }
        let sym = Arc::new(Symbolic::analyze(n, &pattern, 0));
        let mut sp = SparseMatrix::new(Arc::clone(&sym));
        let mut de = DenseMatrix::new(n);
        for i in 0..n {
            sp.add(i, i, 6.0);
            de.add(i, i, 6.0);
        }
        for &(i, j, v) in &entries {
            sp.add(i, j, v);
            de.add(i, j, v);
        }
        let b: Vec<f64> = (0..n).map(|_| rnd()).collect();
        let xs = sp.solve(&b).unwrap();
        let xd = de.solve(&b).unwrap();
        for (k, (a, bb)) in xs.iter().zip(&xd).enumerate() {
            assert!((a - bb).abs() < 1e-10, "x[{k}]: {a} vs {bb}");
        }
    }

    #[test]
    fn non_finite_entry_is_singular() {
        let sym = Arc::new(Symbolic::analyze(2, &full_pattern(2), 0));
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for (r, c) in full_pattern(2) {
                let mut m = SparseMatrix::new(Arc::clone(&sym));
                m.set(0, 0, 2.0);
                m.set(0, 1, 1.0);
                m.set(1, 0, 1.0);
                m.set(1, 1, 3.0);
                m.set(r, c, poison);
                let mut out = Vec::new();
                assert_eq!(
                    m.solve_into(&[1.0, 2.0], &mut LuScratch::new(), &mut out),
                    Err(SpiceError::SingularMatrix),
                    "{poison} at ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn scalar_solve_skips_zero_multipliers() {
        // The (1, 0) multiplier is an exact zero and y[1] is -0.0: an
        // unskipped update would compute -0.0 - (0 * -1) = +0.0.
        let sym = Arc::new(Symbolic::analyze(2, &full_pattern(2), 0));
        let mut m = SparseMatrix::new(sym);
        m.set(0, 0, 2.0);
        m.set(0, 1, 1.0);
        m.set(1, 1, 3.0);
        let x = m.solve(&[-1.0, -0.0]).unwrap();
        assert_eq!(x[0], -0.5);
        assert!(x[1] == 0.0 && x[1].is_sign_negative(), "x[1] = {}", x[1]);
    }

    #[test]
    fn add_outside_pattern_panics() {
        let sym = Arc::new(Symbolic::analyze(3, &[(0, 0), (1, 1), (2, 2)], 0));
        let mut m = SparseMatrix::new(sym);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.add(0, 2, 1.0);
        }));
        assert!(err.is_err());
    }

    #[test]
    fn clear_resets_values_and_reuse_flag_persists() {
        let sym = Arc::new(Symbolic::analyze(2, &full_pattern(2), 0));
        let mut m = SparseMatrix::new(sym);
        m.add(0, 0, 5.0);
        m.clear();
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.dim(), 2);
    }

    #[test]
    fn cache_hits_and_misses() {
        let cache = SymbolicCache::new();
        let pattern = full_pattern(3);
        let (a, hit_a) = cache.get_or_analyze(3, &pattern, 0);
        let (b, hit_b) = cache.get_or_analyze(3, &pattern, 0);
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        let (_, hit_c) = cache.get_or_analyze(3, &pattern, 1);
        assert!(!hit_c, "different tail split is a different key");
        assert_eq!(cache.stats(), (1, 2));
        assert_eq!(cache.len(), 2);

        // Through the circuit-level entry points: value-only variants of
        // one topology share a single analysis.
        let rc_bench = |r: f64| {
            let mut ckt = Circuit::new();
            let inp = ckt.node("in");
            let out = ckt.node("out");
            ckt.add_vsource("vin", inp, GROUND, SourceWave::step(0.0, 1.0, 0.0, 1e-12))
                .unwrap();
            ckt.add_resistor("r", inp, out, r).unwrap();
            ckt.add_capacitor("c", out, GROUND, 1e-12).unwrap();
            ckt
        };
        let sparse = SimOptions {
            solver: SolverKind::Sparse,
            ..SimOptions::default()
        };
        let cache = SymbolicCache::new();
        for r in [1e3, 2e3, 5e3] {
            transient_cached(&rc_bench(r), 1e-10, &sparse, &cache).unwrap();
        }
        let (hits, misses) = cache.stats();
        assert_eq!(misses, 1, "one distinct topology");
        assert!(hits >= 2, "later variants must reuse the structure");
        assert_eq!(cache.len(), 1);
        // A resistor to ground on an existing node adds no new stamp
        // positions, so the structure is legitimately shared.
        let mut grounded = rc_bench(1e3);
        let out = grounded.node("out");
        grounded.add_resistor("rb", out, GROUND, 1e6).unwrap();
        transient_cached(&grounded, 1e-10, &sparse, &cache).unwrap();
        assert_eq!(cache.len(), 1, "same pattern, same structure");
        // An extra internal node changes the pattern: a miss and a
        // fresh analysis.
        let mut extended = rc_bench(1e3);
        let out = extended.node("out");
        let mid = extended.node("mid");
        extended.add_resistor("r2", out, mid, 1e3).unwrap();
        extended.add_capacitor("c2", mid, GROUND, 1e-13).unwrap();
        transient_cached(&extended, 1e-10, &sparse, &cache).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().1, 2);

        // The dense backend never touches the cache, batched or not, and
        // its operating point matches the sparse one.
        let dense = SimOptions {
            batch: 4,
            ..SimOptions::default()
        };
        let cache = SymbolicCache::new();
        let variants: Vec<Circuit> = [1e3, 2e3, 5e3].iter().map(|&r| rc_bench(r)).collect();
        assert!(transient_batch(&variants, 1e-9, &dense, &cache)
            .iter()
            .all(Result::is_ok));
        transient_cached(&variants[0], 1e-9, &dense, &cache).unwrap();
        let d = dc_operating_point(&variants[0], &dense, &cache).unwrap();
        assert_eq!(cache.stats(), (0, 0));
        assert!(cache.is_empty());
        let s = dc_operating_point(&variants[0], &sparse, &cache).unwrap();
        for (dv, sv) in d.as_vector().iter().zip(s.as_vector()) {
            assert!((dv - sv).abs() < 1e-9, "dense {dv} vs sparse {sv}");
        }
    }

    #[test]
    fn min_degree_reduces_fill_on_a_star() {
        // Star graph: hub 0 connected to 15 leaves. Natural order (hub
        // first) fills the whole leaf clique; min degree eliminates the
        // leaves first and creates no fill at all.
        let n = 16;
        let mut pattern: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
        for leaf in 1..n {
            pattern.push((0, leaf));
            pattern.push((leaf, 0));
        }
        let sym = Symbolic::analyze(n, &pattern, 0);
        assert_eq!(sym.fill_in(), 0, "min-degree must not fill a star");
    }
}
