//! Dense linear algebra: LU factorisation with partial pivoting.
//!
//! The circuits this simulator targets (the sensing circuit plus a handful
//! of parasitics, small fault-injected variants, modest RC networks) have at
//! most a few hundred unknowns, where a cache-friendly dense solver beats a
//! sparse one. Large clock trees use the dedicated O(n) tree solver in
//! `clocksense-clocktree` instead.

use crate::error::SpiceError;

/// A dense row-major square matrix with an LU solve.
///
/// # Examples
///
/// ```
/// use clocksense_spice::DenseMatrix;
///
/// let mut m = DenseMatrix::new(2);
/// m.add(0, 0, 2.0);
/// m.add(0, 1, 1.0);
/// m.add(1, 0, 1.0);
/// m.add(1, 1, 3.0);
/// let x = m.solve(&[5.0, 10.0]).expect("non-singular");
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates an `n × n` zero matrix.
    pub fn new(n: usize) -> Self {
        DenseMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Resets all entries to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Reads entry `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.n && col < self.n, "index out of bounds");
        self.data[row * self.n + col]
    }

    /// Sets entry `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.n && col < self.n, "index out of bounds");
        self.data[row * self.n + col] = value;
    }

    /// Adds `value` to entry `(row, col)` — the MNA stamping primitive.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.n && col < self.n, "index out of bounds");
        self.data[row * self.n + col] += value;
    }

    /// Adds `value` at a precomputed row-major `slot` (`row * dim + col`)
    /// — the zero-lookup path the compiled stamp plans use.
    #[inline]
    pub fn add_slot(&mut self, slot: usize, value: f64) {
        self.data[slot] += value;
    }

    /// Solves `A x = b`, allocating the scratch and output buffers.
    ///
    /// Convenience wrapper over [`solve_into`](DenseMatrix::solve_into)
    /// for one-shot solves (DC sweeps, tests); the transient hot path
    /// reuses buffers through a [`LuScratch`] instead.
    ///
    /// # Errors
    ///
    /// See [`solve_into`](DenseMatrix::solve_into).
    pub fn solve(&mut self, b: &[f64]) -> Result<Vec<f64>, SpiceError> {
        let mut scratch = LuScratch::new();
        let mut out = Vec::new();
        self.solve_into(b, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Solves `A x = b` by LU factorisation with partial pivoting, writing
    /// the solution into `out` and reusing `scratch` for the permutation
    /// and forward-eliminated RHS (no allocation after the first call with
    /// a given dimension). The factorisation is done in place, consuming
    /// the matrix contents — callers re-stamp every Newton iteration
    /// anyway.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularMatrix`] when a pivot drops below a
    /// threshold *relative to the matrix's infinity norm*
    /// (`ε · ‖A‖_∞ · √n`), which for MNA systems means a floating node or
    /// an inconsistent source loop. The relative test matters: a
    /// rank-deficient system whose entries are all ~1e-6 S eliminates to
    /// roundoff pivots ~1e-22 that an absolute cutoff (the old `1e-300`)
    /// happily divides by, yielding garbage finite "solutions".
    pub fn solve_into(
        &mut self,
        b: &[f64],
        scratch: &mut LuScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), SpiceError> {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        let n = self.n;
        // Infinity norm of the un-factorised matrix anchors the pivot
        // threshold to the system's scale.
        let norm = self
            .data
            .chunks(n.max(1))
            .map(|row| row.iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0f64, f64::max);
        let threshold = (f64::EPSILON * norm * (n as f64).sqrt()).max(f64::MIN_POSITIVE);

        let a = &mut self.data;
        scratch.rhs.clear();
        scratch.rhs.extend_from_slice(b);
        scratch.perm.clear();
        scratch.perm.extend(0..n);
        let x = &mut scratch.rhs;
        let perm = &mut scratch.perm;

        for k in 0..n {
            // Partial pivot: largest magnitude in column k at or below row k.
            let mut pivot_row = k;
            let mut pivot_val = a[perm[k] * n + k].abs();
            for (r, &pr) in perm.iter().enumerate().skip(k + 1) {
                let v = a[pr * n + k].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < threshold {
                return Err(SpiceError::SingularMatrix);
            }
            perm.swap(k, pivot_row);
            let pk = perm[k];
            let diag = a[pk * n + k];
            for &pr in perm.iter().skip(k + 1) {
                let factor = a[pr * n + k] / diag;
                if factor != 0.0 {
                    a[pr * n + k] = factor;
                    for c in (k + 1)..n {
                        a[pr * n + c] -= factor * a[pk * n + c];
                    }
                    x[pr] -= factor * x[pk];
                }
            }
        }
        // Back substitution.
        out.clear();
        out.resize(n, 0.0);
        for k in (0..n).rev() {
            let pk = perm[k];
            let mut sum = x[pk];
            for c in (k + 1)..n {
                sum -= a[pk * n + c] * out[c];
            }
            out[k] = sum / a[pk * n + k];
        }
        if out.iter().any(|v| !v.is_finite()) {
            return Err(SpiceError::SingularMatrix);
        }
        Ok(())
    }
}

/// Reusable scratch buffers for [`DenseMatrix::solve_into`] and
/// [`SparseMatrix::solve_into`](crate::SparseMatrix::solve_into): the row
/// permutation, the forward-eliminated RHS and the sparse sweep's pivot
/// row snapshot. One scratch serves solves of any dimension; buffers grow
/// to the largest system seen and stay.
#[derive(Debug, Clone, Default)]
pub struct LuScratch {
    perm: Vec<usize>,
    pub(crate) rhs: Vec<f64>,
    pub(crate) row_buf: Vec<f64>,
}

impl LuScratch {
    /// An empty scratch; buffers are sized lazily by the first solve.
    pub fn new() -> Self {
        LuScratch::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve() {
        let mut m = DenseMatrix::new(3);
        for i in 0..3 {
            m.set(i, i, 1.0);
        }
        let x = m.solve(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn requires_pivoting() {
        // Zero on the initial diagonal forces a row swap.
        let mut m = DenseMatrix::new(2);
        m.set(0, 1, 1.0);
        m.set(1, 0, 1.0);
        let x = m.solve(&[3.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn singular_is_reported() {
        let mut m = DenseMatrix::new(2);
        m.set(0, 0, 1.0);
        m.set(0, 1, 2.0);
        m.set(1, 0, 2.0);
        m.set(1, 1, 4.0);
        assert_eq!(
            m.solve(&[1.0, 2.0]).unwrap_err(),
            SpiceError::SingularMatrix
        );
    }

    #[test]
    fn scaled_down_singular_is_reported() {
        // Rank-1 system at MNA conductance scale (~1e-6 S). Elimination
        // leaves a roundoff pivot ~1e-22 — far above the old absolute
        // cutoff of 1e-300, so this used to "solve" to garbage. The
        // norm-relative threshold (~1e-21 here) catches it.
        let mut m = DenseMatrix::new(2);
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
    fn solve_into_reuses_buffers_and_matches_solve() {
        let mut scratch = LuScratch::new();
        let mut out = Vec::new();
        for scale in [1.0, 2.0, 3.0] {
            let mut m = DenseMatrix::new(2);
            m.set(0, 0, 2.0 * scale);
            m.set(0, 1, 1.0);
            m.set(1, 0, 1.0);
            m.set(1, 1, 3.0 * scale);
            let mut m2 = m.clone();
            m.solve_into(&[5.0, 10.0], &mut scratch, &mut out).unwrap();
            assert_eq!(out, m2.solve(&[5.0, 10.0]).unwrap());
        }
    }

    #[test]
    fn random_system_roundtrip() {
        // Deterministic pseudo-random SPD-ish system; verify A x = b.
        let n = 12;
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut rnd = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as f64 / u64::MAX as f64) - 0.5
        };
        let mut a = DenseMatrix::new(n);
        for i in 0..n {
            for j in 0..n {
                a.set(i, j, rnd());
            }
            a.add(i, i, 4.0); // diagonally dominant
        }
        let b: Vec<f64> = (0..n).map(|_| rnd()).collect();
        let a_copy = a.clone();
        let x = a.solve(&b).unwrap();
        for (i, &bi) in b.iter().enumerate() {
            let sum: f64 = x
                .iter()
                .enumerate()
                .map(|(j, &xj)| a_copy.get(i, j) * xj)
                .sum();
            assert!((sum - bi).abs() < 1e-10, "row {i}: {sum} vs {bi}");
        }
    }

    #[test]
    fn clear_resets_entries() {
        let mut m = DenseMatrix::new(2);
        m.add(0, 0, 5.0);
        m.clear();
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.dim(), 2);
    }
}
