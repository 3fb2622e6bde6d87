//! A small column-major dense matrix.

/// Column-major dense matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DMatrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = DMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a closure over (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = DMatrix::zeros(rows, cols);
        for c in 0..cols {
            for r in 0..rows {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Build from column-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        DMatrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Raw column-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Transposed copy.
    pub fn transpose(&self) -> DMatrix {
        DMatrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Matrix–vector product `A x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for c in 0..self.cols {
            let xc = x[c];
            let col = &self.data[c * self.rows..(c + 1) * self.rows];
            for (r, v) in col.iter().enumerate() {
                y[r] += v * xc;
            }
        }
        y
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry difference to another matrix.
    pub fn max_abs_diff(&self, other: &DMatrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl std::ops::Index<(usize, usize)> for DMatrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[c * self.rows + r]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DMatrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[c * self.rows + r]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matvec_is_identity() {
        let i = DMatrix::identity(4);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(i.matvec(&x), x);
    }

    #[test]
    fn index_and_transpose() {
        let m = DMatrix::from_fn(2, 3, |r, c| (r * 10 + c) as f64);
        assert_eq!(m[(1, 2)], 12.0);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t[(2, 1)], 12.0);
    }

    #[test]
    fn matvec_matches_manual() {
        // [[1,3],[2,4]] (column-major [1,2,3,4]) times [1,1] = [4,6].
        let m = DMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.matvec(&[1.0, 1.0]), vec![4.0, 6.0]);
    }

    #[test]
    fn norms_and_diffs() {
        let m = DMatrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((m.fro_norm() - 5.0).abs() < 1e-15);
        let z = DMatrix::zeros(1, 2);
        assert_eq!(m.max_abs_diff(&z), 4.0);
    }
}
