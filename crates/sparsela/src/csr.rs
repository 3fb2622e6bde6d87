//! Compressed sparse row matrices and SpMV.

use densela::Work;

const F64B: u64 = 8;
const IDXB: u64 = 4;

/// A square-or-rectangular sparse matrix in CSR format with `u32` column
/// indices (the index width matters: SpMV traffic is 12 bytes/nnz, which is
/// what the roofline model charges).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Build from raw CSR arrays.
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent (wrong lengths, out-of-range or
    /// unsorted column indices).
    pub fn from_raw(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(row_ptr.len(), rows + 1, "row_ptr length must be rows+1");
        assert_eq!(col_idx.len(), values.len(), "col_idx and values must align");
        assert_eq!(
            *row_ptr.last().unwrap(),
            col_idx.len(),
            "row_ptr must end at nnz"
        );
        assert_eq!(row_ptr[0], 0, "row_ptr must start at 0");
        for r in 0..rows {
            assert!(
                row_ptr[r] <= row_ptr[r + 1],
                "row_ptr must be non-decreasing"
            );
            let row = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            for w in row.windows(2) {
                assert!(
                    w[0] < w[1],
                    "columns within a row must be strictly increasing"
                );
            }
            if let Some(&last) = row.last() {
                assert!((last as usize) < cols, "column index out of range");
            }
        }
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Build from (row, col, value) triplets; duplicates are summed.
    pub fn from_coo(rows: usize, cols: usize, mut entries: Vec<(usize, usize, f64)>) -> Self {
        entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx: Vec<u32> = Vec::with_capacity(entries.len());
        let mut values: Vec<f64> = Vec::with_capacity(entries.len());
        for (r, c, v) in entries {
            assert!(r < rows && c < cols, "entry ({r},{c}) out of bounds");
            // If the last pushed entry is this same (r, c), accumulate into
            // it; row_ptr[r+1] equals the nnz count only while row r is the
            // one currently being filled.
            if !col_idx.is_empty()
                && row_ptr[r + 1] == col_idx.len()
                && *col_idx.last().unwrap() as usize == c
            {
                *values.last_mut().unwrap() += v;
            } else {
                col_idx.push(c as u32);
                values.push(v);
                row_ptr[r + 1] = col_idx.len();
            }
        }
        // Rows with no entries inherit the previous row's end pointer.
        for r in 0..rows {
            if row_ptr[r + 1] == 0 {
                row_ptr[r + 1] = row_ptr[r];
            }
        }
        CsrMatrix::from_raw(rows, cols, row_ptr, col_idx, values)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterate over `(col, value)` of one row.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.col_idx[lo..hi]
            .iter()
            .map(|&c| c as usize)
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Raw column-index and value slices of one row. The slice form lets
    /// blocked kernels run the inner loop without per-element bounds checks
    /// or iterator adapters (same data the [`CsrMatrix::row`] iterator
    /// yields, in the same order).
    pub fn row_parts(&self, r: usize) -> (&[u32], &[f64]) {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// The diagonal entry of row `r` (0 if absent).
    pub fn diag(&self, r: usize) -> f64 {
        self.row(r)
            .find(|&(c, _)| c == r)
            .map(|(_, v)| v)
            .unwrap_or(0.0)
    }

    /// Sparse matrix–vector product `y = A x`. Returns the work performed:
    /// 2 flops per nnz; traffic of values (8 B) + indices (4 B) per nnz plus
    /// the streamed x and y vectors.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) -> Work {
        assert_eq!(x.len(), self.cols, "spmv: x length mismatch");
        assert_eq!(y.len(), self.rows, "spmv: y length mismatch");
        for r in 0..self.rows {
            let lo = self.row_ptr[r];
            let hi = self.row_ptr[r + 1];
            let mut acc = 0.0;
            for i in lo..hi {
                acc += self.values[i] * x[self.col_idx[i] as usize];
            }
            y[r] = acc;
        }
        self.spmv_work()
    }

    /// Closed-form SpMV work model (validated against `spmv` in tests).
    pub fn spmv_work(&self) -> Work {
        let nnz = self.nnz() as u64;
        let rows = self.rows as u64;
        let cols = self.cols as u64;
        Work::new(
            2 * nnz,
            nnz * (F64B + IDXB) + cols * F64B + rows * F64B,
            rows * F64B,
        )
    }

    /// Frobenius norm of the matrix.
    pub fn fro_norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Whether the sparsity pattern and values are numerically symmetric
    /// (only sensible for square matrices; O(nnz log nnz)).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        use std::collections::HashMap;
        let mut map: HashMap<(usize, usize), f64> = HashMap::with_capacity(self.nnz());
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                map.insert((r, c), v);
            }
        }
        for (&(r, c), &v) in &map {
            let vt = map.get(&(c, r)).copied().unwrap_or(0.0);
            if (v - vt).abs() > tol {
                return false;
            }
        }
        true
    }

    /// Memory footprint of the CSR structure in bytes (values + indices +
    /// row pointers), used by the apps' per-rank memory models.
    pub fn memory_bytes(&self) -> u64 {
        self.nnz() as u64 * (F64B + IDXB) + (self.rows as u64 + 1) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        // [[2, 0, 1], [0, 3, 0], [1, 0, 4]]
        CsrMatrix::from_coo(
            3,
            3,
            vec![
                (0, 0, 2.0),
                (0, 2, 1.0),
                (1, 1, 3.0),
                (2, 0, 1.0),
                (2, 2, 4.0),
            ],
        )
    }

    #[test]
    fn spmv_matches_manual() {
        let a = small();
        let mut y = vec![0.0; 3];
        a.spmv(&[1.0, 2.0, 3.0], &mut y);
        assert_eq!(y, vec![5.0, 6.0, 13.0]);
    }

    #[test]
    fn coo_duplicates_sum() {
        let a = CsrMatrix::from_coo(2, 2, vec![(0, 0, 1.0), (0, 0, 2.0), (1, 1, 1.0)]);
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.diag(0), 3.0);
    }

    #[test]
    fn empty_rows_are_legal() {
        let a = CsrMatrix::from_coo(3, 3, vec![(0, 0, 1.0), (2, 2, 1.0)]);
        assert_eq!(a.nnz(), 2);
        let mut y = vec![9.0; 3];
        a.spmv(&[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, vec![1.0, 0.0, 1.0]);
    }

    #[test]
    fn symmetry_check() {
        assert!(small().is_symmetric(1e-12));
        let asym = CsrMatrix::from_coo(2, 2, vec![(0, 1, 1.0), (1, 1, 1.0)]);
        assert!(!asym.is_symmetric(1e-12));
    }

    #[test]
    fn work_counts_nnz() {
        let a = small();
        let mut y = vec![0.0; 3];
        let w = a.spmv(&[1.0; 3], &mut y);
        assert_eq!(w.flops, 2 * 5);
        assert_eq!(w, a.spmv_work());
        // SpMV AI is ~0.16 flops/byte: firmly memory-bound on every system.
        assert!(w.arithmetic_intensity() < 0.25);
    }

    #[test]
    fn memory_footprint() {
        let a = small();
        assert_eq!(a.memory_bytes(), 5 * 12 + 4 * 8);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_entry_panics() {
        let _ = CsrMatrix::from_coo(2, 2, vec![(0, 5, 1.0)]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_matrix() -> impl Strategy<Value = CsrMatrix> {
        (2usize..20).prop_flat_map(|n| {
            proptest::collection::vec((0..n, 0..n, -5.0f64..5.0), 1..n * 3)
                .prop_map(move |entries| CsrMatrix::from_coo(n, n, entries))
        })
    }

    proptest! {
        #[test]
        fn spmv_is_linear(a in arb_matrix(), alpha in -3.0f64..3.0) {
            let n = a.cols();
            let x: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 1.0).collect();
            let xs: Vec<f64> = x.iter().map(|v| alpha * v).collect();
            let mut y1 = vec![0.0; a.rows()];
            let mut y2 = vec![0.0; a.rows()];
            a.spmv(&x, &mut y1);
            a.spmv(&xs, &mut y2);
            for (u, v) in y1.iter().zip(&y2) {
                prop_assert!((v - alpha * u).abs() < 1e-9 * (1.0 + u.abs()));
            }
        }

        #[test]
        fn coo_round_trip_preserves_row_sums(a in arb_matrix()) {
            // Rebuild via COO triplets and compare SpMV against ones.
            let n = a.cols();
            let mut triplets = Vec::new();
            for r in 0..a.rows() {
                for (c, v) in a.row(r) {
                    triplets.push((r, c, v));
                }
            }
            let b = CsrMatrix::from_coo(a.rows(), n, triplets);
            let ones = vec![1.0; n];
            let mut ya = vec![0.0; a.rows()];
            let mut yb = vec![0.0; a.rows()];
            a.spmv(&ones, &mut ya);
            b.spmv(&ones, &mut yb);
            prop_assert_eq!(ya, yb);
        }
    }
}
