//! Sparse matrices in CSR form and the NPB-CG-style random symmetric
//! positive-definite generator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A sparse matrix in compressed-sparse-row format.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from per-row `(column, value)` lists.
    ///
    /// # Panics
    ///
    /// Panics if any column index is out of range or a row's columns are
    /// not strictly increasing.
    pub fn from_rows(n: usize, rows: &[Vec<(usize, f64)>]) -> Self {
        assert_eq!(rows.len(), n, "need exactly n rows");
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for row in rows {
            let mut last: Option<usize> = None;
            for &(c, v) in row {
                assert!(c < n, "column {c} out of range");
                assert!(last.is_none_or(|l| c > l), "columns must be strictly increasing");
                last = Some(c);
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix { n, row_ptr, col_idx, values }
    }

    /// Dimension `n` (square matrices only).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The `(columns, values)` of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Dense `y = A·x` for the row range `[row_lo, row_hi)` only (the
    /// row-block matvec a rank performs). `x` must be the full vector, in
    /// its wire encoding: one little-endian `f64` per 8-byte word, read in
    /// place from the allgather's broadcast frame (see
    /// `redcr_mpi::datatype::words`).
    ///
    /// Returns the local block `y[row_lo..row_hi]` and the flop count.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n` or the range is invalid.
    pub fn matvec_block(&self, x: &[[u8; 8]], row_lo: usize, row_hi: usize) -> (Vec<f64>, u64) {
        assert_eq!(x.len(), self.n);
        assert!(row_lo <= row_hi && row_hi <= self.n);
        let mut y = Vec::with_capacity(row_hi - row_lo);
        let mut flops = 0u64;
        for i in row_lo..row_hi {
            let (cols, vals) = self.row(i);
            let mut acc = 0.0;
            for (c, v) in cols.iter().zip(vals) {
                acc += v * f64::from_le_bytes(x[*c]);
            }
            flops += 2 * cols.len() as u64;
            y.push(acc);
        }
        (y, flops)
    }

    /// Whether the matrix is symmetric (structurally and numerically).
    pub fn is_symmetric(&self) -> bool {
        for i in 0..self.n {
            let (cols, vals) = self.row(i);
            for (c, v) in cols.iter().zip(vals) {
                let (rc, rv) = self.row(*c);
                match rc.binary_search(&i) {
                    Ok(pos) => {
                        if (rv[pos] - v).abs() > 1e-12 {
                            return false;
                        }
                    }
                    Err(_) => return false,
                }
            }
        }
        true
    }

    /// Whether the matrix is strictly diagonally dominant (a sufficient
    /// condition for positive definiteness of a symmetric matrix with
    /// positive diagonal).
    pub fn is_diagonally_dominant(&self) -> bool {
        for i in 0..self.n {
            let (cols, vals) = self.row(i);
            let mut diag = 0.0;
            let mut off = 0.0;
            for (c, v) in cols.iter().zip(vals) {
                if *c == i {
                    diag = *v;
                } else {
                    off += v.abs();
                }
            }
            if diag <= off {
                return false;
            }
        }
        true
    }

    /// Generates a random sparse symmetric strictly-diagonally-dominant
    /// (hence SPD) matrix in the spirit of the NPB CG input: `n` rows,
    /// about `offdiag_per_row` random off-diagonal entries per row placed
    /// irregularly across the full column space (this irregularity is what
    /// makes CG's communication "long distance").
    ///
    /// Deterministic for a given `(n, offdiag_per_row, seed)`, so every
    /// replica builds bitwise the same matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn random_spd(n: usize, offdiag_per_row: usize, seed: u64) -> Self {
        assert!(n > 0, "matrix dimension must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        // Collect symmetric off-diagonal entries per row.
        let mut entries: Vec<std::collections::BTreeMap<usize, f64>> =
            vec![std::collections::BTreeMap::new(); n];
        for i in 0..n {
            for _ in 0..offdiag_per_row {
                let j = rng.gen_range(0..n);
                if j == i {
                    continue;
                }
                let v = rng.gen_range(-1.0..1.0);
                entries[i].insert(j, v);
                entries[j].insert(i, v);
            }
        }
        // Diagonal = 1 + sum of |off-diagonal| in the row: strict dominance.
        let mut rows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
        for (i, row) in entries.into_iter().enumerate() {
            let off_sum: f64 = row.values().map(|v| v.abs()).sum();
            let mut r: Vec<(usize, f64)> = row.into_iter().collect();
            let diag = 1.0 + off_sum;
            let pos = r.iter().position(|(c, _)| *c >= i).unwrap_or(r.len());
            r.insert(pos, (i, diag));
            rows.push(r);
        }
        CsrMatrix::from_rows(n, &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_and_access() {
        let m = CsrMatrix::from_rows(
            3,
            &[vec![(0, 2.0), (2, 1.0)], vec![(1, 3.0)], vec![(0, 1.0), (2, 4.0)]],
        );
        assert_eq!(m.n(), 3);
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.row(0), (&[0usize, 2][..], &[2.0, 1.0][..]));
        assert_eq!(m.row(1), (&[1usize][..], &[3.0][..]));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_columns() {
        let _ = CsrMatrix::from_rows(2, &[vec![(1, 1.0), (0, 1.0)], vec![]]);
    }

    #[test]
    fn matvec_matches_dense() {
        let m = CsrMatrix::from_rows(
            3,
            &[vec![(0, 2.0), (2, 1.0)], vec![(1, 3.0)], vec![(0, 1.0), (2, 4.0)]],
        );
        let x = [1.0f64, 2.0, 3.0].map(f64::to_le_bytes);
        let (y, flops) = m.matvec_block(&x, 0, 3);
        assert_eq!(y, vec![2.0 + 3.0, 6.0, 1.0 + 12.0]);
        assert_eq!(flops, 10);
        // Block extraction.
        let (y1, _) = m.matvec_block(&x, 1, 2);
        assert_eq!(y1, vec![6.0]);
    }

    #[test]
    fn random_spd_properties() {
        let m = CsrMatrix::random_spd(100, 4, 12345);
        assert!(m.is_symmetric());
        assert!(m.is_diagonally_dominant());
        assert!(m.nnz() >= 100, "at least the diagonal");
    }

    #[test]
    fn random_spd_deterministic() {
        let a = CsrMatrix::random_spd(64, 3, 9);
        let b = CsrMatrix::random_spd(64, 3, 9);
        assert_eq!(a, b);
        let c = CsrMatrix::random_spd(64, 3, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn single_row_matrix() {
        let m = CsrMatrix::random_spd(1, 3, 0);
        assert_eq!(m.n(), 1);
        let (y, _) = m.matvec_block(&[2.0f64.to_le_bytes()], 0, 1);
        assert_eq!(y.len(), 1);
    }
}
