//! SELL-C-σ / ELLPACK sparse formats — the storage the vendor-optimised
//! HPCG variants use.
//!
//! The paper's Table III shows Intel's and Arm's optimised HPCG gaining
//! ~43% over the reference code. Much of that gain is exactly this: CSR's
//! row-by-row gather defeats wide vector units, while ELLPACK-style slices
//! (rows padded to equal length, stored column-major within a slice) let
//! SVE/AVX-512 process C rows per instruction. [`SellMatrix`] implements
//! SELL-C-σ (slice height C, sorting window σ) with a CSR round-trip and an
//! SpMV whose results match CSR bit-for-bit reorderings aside.

use crate::csr::CsrMatrix;
use densela::block::CHUNK;
use densela::pool::SharedSlice;
use densela::Work;

const F64B: u64 = 8;
const IDXB: u64 = 4;

/// A SELL-C-σ matrix: rows grouped into slices of height `c`; within each
/// slice rows are padded to the slice's maximum length and stored
/// column-major (so lane `l` of a vector unit walks row `slice*c + l`).
#[derive(Debug, Clone, PartialEq)]
pub struct SellMatrix {
    rows: usize,
    cols: usize,
    c: usize,
    /// Row permutation applied before slicing (σ-sorting): `perm[new] = old`.
    perm: Vec<usize>,
    /// Per-slice width (padded row length).
    slice_width: Vec<usize>,
    /// Per-slice offset into `col_idx`/`values`.
    slice_ptr: Vec<usize>,
    /// Column indices, slice-by-slice, column-major inside a slice;
    /// padding entries repeat the row's own index with value 0.
    col_idx: Vec<u32>,
    values: Vec<f64>,
    nnz: usize,
    /// The σ-sorting window the matrix was built with.
    sigma: usize,
}

impl SellMatrix {
    /// Convert from CSR with slice height `c` and sorting window `sigma`
    /// (a multiple of `c`; `sigma == c` disables sorting, plain ELLPACK
    /// slices; larger σ sorts rows by length inside each window to cut
    /// padding).
    pub fn from_csr(a: &CsrMatrix, c: usize, sigma: usize) -> Self {
        Self::from_rows(a.rows(), a.cols(), |r| a.row_parts(r), c, sigma)
    }

    /// Build from any row store: `row(r)` returns row `r`'s column indices
    /// (strictly increasing, below `cols`) and values as slices. Reading
    /// whole rows as slices makes the build O(stored entries), and both
    /// arrays are sized exactly from the slice widths before filling.
    /// Gives the same matrix as [`SellMatrix::from_csr`] on a CSR holding
    /// the same rows.
    pub fn from_rows<'a>(
        rows: usize,
        cols: usize,
        row: impl Fn(usize) -> (&'a [u32], &'a [f64]),
        c: usize,
        sigma: usize,
    ) -> Self {
        assert!(c >= 1, "slice height must be at least 1");
        assert!(
            sigma >= c && sigma.is_multiple_of(c),
            "sigma must be a multiple of c"
        );
        let row_len = |r: usize| row(r).0.len();

        // σ-sort: within each window of `sigma` rows, order by descending
        // row length to homogenise slices.
        let mut perm: Vec<usize> = (0..rows).collect();
        for window in perm.chunks_mut(sigma) {
            window.sort_by_key(|&r| std::cmp::Reverse(row_len(r)));
        }

        let slice_width: Vec<usize> = perm
            .chunks(c)
            .map(|slice| slice.iter().map(|&r| row_len(r)).max().unwrap_or(0))
            .collect();
        let mut slice_ptr = Vec::with_capacity(slice_width.len() + 1);
        slice_ptr.push(0);
        for w in &slice_width {
            slice_ptr.push(slice_ptr.last().unwrap() + w * c);
        }
        // Lanes past the last row of a short final slice keep the zeroed
        // column 0 / value 0 they start with.
        let stored = *slice_ptr.last().unwrap();
        let mut col_idx = vec![0u32; stored];
        let mut values = vec![0.0f64; stored];
        let mut nnz = 0;
        for (s, slice) in perm.chunks(c).enumerate() {
            let (base, width) = (slice_ptr[s], slice_width[s]);
            for (lane, &old) in slice.iter().enumerate() {
                // Column-major within the slice: entry j of the lane's row
                // sits at `base + j * c + lane`.
                let (ci, vi) = row(old);
                nnz += ci.len();
                let at = |j: usize| base + j * c + lane;
                for (j, (&col, &val)) in ci.iter().zip(vi).enumerate() {
                    col_idx[at(j)] = col;
                    values[at(j)] = val;
                }
                // Padding: self-referential zero keeps SpMV branch-free.
                for j in ci.len()..width {
                    col_idx[at(j)] = old as u32;
                }
            }
        }
        SellMatrix {
            rows,
            cols,
            c,
            perm,
            slice_width,
            slice_ptr,
            col_idx,
            values,
            nnz,
            sigma,
        }
    }

    /// Convert from CSR with slice height `c`, picking the σ-sorting window
    /// from the row-length variance so callers don't have to guess:
    ///
    /// * near-regular matrices (coefficient of variation < 5%, e.g. interior
    ///   stencils) skip sorting entirely (σ = c — sorting buys nothing and
    ///   perturbs row order);
    /// * mildly ragged matrices (CV < 50%) sort within 4c windows;
    /// * heavily ragged matrices sort within 8c windows.
    ///
    /// The decision is a pure function of the row-length histogram, so the
    /// chosen window (see [`SellMatrix::sigma`]) is deterministic.
    pub fn from_csr_auto(a: &CsrMatrix, c: usize) -> Self {
        let rows = a.rows();
        let mut mean = 0.0f64;
        let mut m2 = 0.0f64;
        for r in 0..rows {
            let len = a.row_parts(r).0.len() as f64;
            // Welford's running mean/variance.
            let delta = len - mean;
            mean += delta / (r + 1) as f64;
            m2 += delta * (len - mean);
        }
        let var = if rows > 0 { m2 / rows as f64 } else { 0.0 };
        let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
        let sigma = if cv < 0.05 {
            c
        } else if cv < 0.5 {
            4 * c
        } else {
            8 * c
        };
        Self::from_csr(a, c, sigma)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of slices (each covering up to `c` rows). Slices own disjoint
    /// sets of output rows, which is what makes slice-parallel SpMV safe.
    pub fn num_slices(&self) -> usize {
        self.slice_width.len()
    }

    /// Stored entries including padding.
    pub fn stored(&self) -> usize {
        self.values.len()
    }

    /// True non-zeros (excluding padding).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Padding overhead: stored / nnz (1.0 = no padding).
    pub fn padding_factor(&self) -> f64 {
        self.stored() as f64 / self.nnz as f64
    }

    /// Fraction of stored entries that are true non-zeros: nnz / stored in
    /// (0, 1]. 1.0 means zero padding; low values explain SELL losses to
    /// CSR in the bench output.
    pub fn fill_ratio(&self) -> f64 {
        if self.stored() == 0 {
            1.0
        } else {
            self.nnz as f64 / self.stored() as f64
        }
    }

    /// Slice height C.
    pub fn c(&self) -> usize {
        self.c
    }

    /// The σ-sorting window this matrix was built with (equals `c` when
    /// sorting was disabled; see [`SellMatrix::from_csr_auto`]).
    pub fn sigma(&self) -> usize {
        self.sigma
    }

    /// SpMV `y = A x` in SELL order. The output is in *original* row order
    /// (the permutation is applied on the way out).
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) -> Work {
        assert_eq!(x.len(), self.cols, "spmv: x length mismatch");
        assert_eq!(y.len(), self.rows, "spmv: y length mismatch");
        let out = SharedSlice::new(y);
        // SAFETY: single caller covers every slice exactly once.
        unsafe { self.spmv_slices(0, self.num_slices(), x, &out) };
        self.spmv_work()
    }

    /// The SpMV kernel over slices `s_lo..s_hi`, writing through a shared
    /// view. This one code path serves both the serial [`SellMatrix::spmv`]
    /// and the slice-parallel `Team::sell_spmv`, so their per-row results
    /// are bit-identical by construction.
    ///
    /// # Safety
    /// No other thread may concurrently touch the output rows of slices
    /// `s_lo..s_hi` (i.e. `perm[s_lo * c .. min(s_hi * c, rows)]`).
    pub(crate) unsafe fn spmv_slices(
        &self,
        s_lo: usize,
        s_hi: usize,
        x: &[f64],
        y: &SharedSlice<f64>,
    ) {
        let c = self.c;
        let mut acc = vec![0.0f64; c];
        for s in s_lo..s_hi {
            let lo = s * c;
            let hi = ((s + 1) * c).min(self.rows);
            let lanes = hi - lo;
            acc[..lanes].fill(0.0);
            let width = self.slice_width[s];
            let base = self.slice_ptr[s];
            for j in 0..width {
                let off = base + j * c;
                // The lane loop is the vectorisable inner loop.
                for lane in 0..lanes {
                    let idx = off + lane;
                    acc[lane] += self.values[idx] * x[self.col_idx[idx] as usize];
                }
            }
            for lane in 0..lanes {
                y.set(self.perm[lo + lane], acc[lane]);
            }
        }
    }

    /// Chunked SpMV `y = A x`: the unrolled SELL kernel (fixed-width lane
    /// chunks, no per-element bounds checks). Bit-identical to the naive
    /// [`SellMatrix::spmv`] — each lane's accumulation order over `j` is
    /// unchanged; only the lane loop is restructured.
    pub fn spmv_chunked(&self, x: &[f64], y: &mut [f64]) -> Work {
        assert_eq!(x.len(), self.cols, "spmv: x length mismatch");
        assert_eq!(y.len(), self.rows, "spmv: y length mismatch");
        let out = SharedSlice::new(y);
        // SAFETY: single caller covers every slice exactly once.
        unsafe { self.spmv_slices_chunked(0, self.num_slices(), x, &out) };
        self.spmv_work()
    }

    /// The unrolled SpMV kernel over slices `s_lo..s_hi`. Full slices of
    /// height [`CHUNK`] run through a fixed-size accumulator array whose
    /// lane loop the compiler can keep in one vector register; other slice
    /// heights take a sliced (still bounds-check-free) generic path.
    /// Serves `Team::sell_spmv` lanes and the serial
    /// [`SellMatrix::spmv_chunked`] — one code path, bit-identical results.
    ///
    /// # Safety
    /// Same contract as [`SellMatrix::spmv_slices`]: no other thread may
    /// concurrently touch the output rows of slices `s_lo..s_hi`.
    pub(crate) unsafe fn spmv_slices_chunked(
        &self,
        s_lo: usize,
        s_hi: usize,
        x: &[f64],
        y: &SharedSlice<f64>,
    ) {
        let c = self.c;
        let mut accbuf = vec![0.0f64; c];
        for s in s_lo..s_hi {
            let lo = s * c;
            let hi = ((s + 1) * c).min(self.rows);
            let lanes = hi - lo;
            let width = self.slice_width[s];
            let base = self.slice_ptr[s];
            if lanes == CHUNK {
                // Fixed-width fast path: CHUNK accumulators live in
                // registers across the whole width loop.
                let mut acc = [0.0f64; CHUNK];
                for j in 0..width {
                    let off = base + j * c;
                    let vals: &[f64; CHUNK] = self.values[off..off + CHUNK].try_into().unwrap();
                    let cols: &[u32; CHUNK] = self.col_idx[off..off + CHUNK].try_into().unwrap();
                    for lane in 0..CHUNK {
                        acc[lane] += vals[lane] * x[cols[lane] as usize];
                    }
                }
                for lane in 0..CHUNK {
                    y.set(self.perm[lo + lane], acc[lane]);
                }
            } else {
                // Remainder slice / non-CHUNK heights: same arithmetic
                // through subslices (one bounds check per row of the slice,
                // not per element).
                let acc = &mut accbuf[..lanes];
                acc.fill(0.0);
                for j in 0..width {
                    let off = base + j * c;
                    let vals = &self.values[off..off + lanes];
                    let cols = &self.col_idx[off..off + lanes];
                    for lane in 0..lanes {
                        acc[lane] += vals[lane] * x[cols[lane] as usize];
                    }
                }
                for lane in 0..lanes {
                    y.set(self.perm[lo + lane], acc[lane]);
                }
            }
        }
    }

    /// Work model: padded entries still move through the vector unit.
    pub fn spmv_work(&self) -> Work {
        let stored = self.stored() as u64;
        let n = self.rows as u64;
        Work::new(2 * stored, stored * (F64B + IDXB) + 2 * n * F64B, n * F64B)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{poisson7, stencil27, structural3d};

    #[test]
    fn slice_layout_is_column_major_with_self_padding() {
        // Rows of length 2, 1, 3 in slices of height 2, σ-sorted in pairs:
        // the window [0, 1] keeps its order, row 2 fills a short slice.
        let a = CsrMatrix::from_coo(
            3,
            3,
            vec![
                (0, 0, 2.0),
                (0, 2, 1.0),
                (1, 1, 3.0),
                (2, 0, 1.0),
                (2, 1, 5.0),
                (2, 2, 4.0),
            ],
        );
        let s = SellMatrix::from_csr(&a, 2, 2);
        assert_eq!(s.perm, [0, 1, 2]);
        assert_eq!(s.slice_width, [2, 3]);
        assert_eq!(s.slice_ptr, [0, 4, 10]);
        // Row 1 pads with its own index; the missing lane of the last
        // slice holds column 0, value 0.
        assert_eq!(s.col_idx, [0, 1, 2, 1, 0, 0, 1, 0, 2, 0]);
        assert_eq!(s.values, [2.0, 3.0, 1.0, 0.0, 1.0, 0.0, 5.0, 0.0, 4.0, 0.0]);
        assert_eq!(s.nnz(), 6);
    }

    fn spmv_matches(a: &CsrMatrix, c: usize, sigma: usize) {
        let sell = SellMatrix::from_csr(a, c, sigma);
        let x: Vec<f64> = (0..a.cols()).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let mut y_csr = vec![0.0; a.rows()];
        let mut y_sell = vec![0.0; a.rows()];
        a.spmv(&x, &mut y_csr);
        sell.spmv(&x, &mut y_sell);
        for (i, (u, v)) in y_csr.iter().zip(&y_sell).enumerate() {
            assert!(
                (u - v).abs() < 1e-12,
                "row {i}: {u} vs {v} (c={c}, sigma={sigma})"
            );
        }
    }

    #[test]
    fn sell_spmv_matches_csr_on_stencil() {
        let a = stencil27(5, 4, 3);
        for (c, sigma) in [(1, 1), (4, 4), (8, 8), (8, 32), (16, 64)] {
            spmv_matches(&a, c, sigma);
        }
    }

    #[test]
    fn sell_spmv_matches_csr_on_irregular_matrices() {
        spmv_matches(&poisson7(4, 3, 2), 8, 16);
        spmv_matches(&structural3d(2, 2, 3), 8, 32);
        // A deliberately ragged matrix.
        let ragged = CsrMatrix::from_coo(
            7,
            7,
            vec![
                (0, 0, 1.0),
                (1, 0, 2.0),
                (1, 1, 3.0),
                (1, 6, 4.0),
                (3, 2, 5.0),
                (6, 0, 6.0),
                (6, 1, 7.0),
                (6, 2, 8.0),
                (6, 3, 9.0),
                (6, 6, 10.0),
            ],
        );
        spmv_matches(&ragged, 4, 8);
    }

    #[test]
    fn sigma_sorting_reduces_padding() {
        // Ragged rows: sorting within a window should cut padding.
        let mut entries = Vec::new();
        for r in 0..64usize {
            let len = if r % 8 == 0 { 20 } else { 2 };
            for j in 0..len {
                entries.push((r, (r + j) % 64, 1.0));
            }
        }
        let a = CsrMatrix::from_coo(64, 64, entries);
        let unsorted = SellMatrix::from_csr(&a, 8, 8);
        let sorted = SellMatrix::from_csr(&a, 8, 64);
        assert!(
            sorted.padding_factor() < unsorted.padding_factor(),
            "sigma sorting must reduce padding: {} vs {}",
            sorted.padding_factor(),
            unsorted.padding_factor()
        );
        assert_eq!(sorted.nnz(), a.nnz());
    }

    #[test]
    fn stencil_matrix_has_low_padding() {
        // The HPCG operator is nearly regular: padding should be small.
        let a = stencil27(8, 8, 8);
        let sell = SellMatrix::from_csr(&a, 8, 32);
        assert!(
            sell.padding_factor() < 1.3,
            "padding {}",
            sell.padding_factor()
        );
    }

    #[test]
    fn chunked_spmv_is_bit_identical_to_naive() {
        // Slice heights {1, 3, 8, 16} hit the fixed-width fast path, the
        // generic path, and ragged trailing slices.
        for (nx, ny, nz) in [(5, 4, 3), (3, 3, 3), (4, 4, 5)] {
            let a = stencil27(nx, ny, nz);
            for (c, sigma) in [(1, 1), (3, 6), (8, 8), (8, 32), (16, 64)] {
                let sell = SellMatrix::from_csr(&a, c, sigma);
                let x: Vec<f64> = (0..a.cols())
                    .map(|i| ((i * 11) % 17) as f64 / 3.0 - 2.0)
                    .collect();
                let mut y_ref = vec![0.0; a.rows()];
                let mut y_chk = vec![0.0; a.rows()];
                let w1 = sell.spmv(&x, &mut y_ref);
                let w2 = sell.spmv_chunked(&x, &mut y_chk);
                assert_eq!(w1, w2);
                for (u, v) in y_ref.iter().zip(&y_chk) {
                    assert_eq!(u.to_bits(), v.to_bits(), "c={c} sigma={sigma}");
                }
            }
        }
    }

    #[test]
    fn auto_sigma_follows_row_length_variance() {
        // Perfectly regular: every row has the same length → CV = 0, no
        // sorting.
        let mut band = Vec::new();
        for r in 0..64usize {
            for j in 0..3 {
                band.push((r, (r + j) % 64, 1.0));
            }
        }
        let regular = CsrMatrix::from_coo(64, 64, band);
        let s = SellMatrix::from_csr_auto(&regular, 8);
        assert_eq!(s.sigma(), 8, "regular matrix should skip sorting");
        // The HPCG stencil's boundary rows give mild raggedness → 4c — the
        // same σ=32 the benchmarks hand-picked for c=8.
        let stencil = stencil27(8, 8, 8);
        let s = SellMatrix::from_csr_auto(&stencil, 8);
        assert_eq!(s.sigma(), 32, "stencil should sort in 4c windows");
        // Heavily ragged: 1-vs-20 row lengths → 8c window.
        let mut entries = Vec::new();
        for r in 0..64usize {
            let len = if r % 8 == 0 { 20 } else { 1 };
            for j in 0..len {
                entries.push((r, (r + j) % 64, 1.0));
            }
        }
        let ragged = CsrMatrix::from_coo(64, 64, entries);
        let s = SellMatrix::from_csr_auto(&ragged, 8);
        assert_eq!(s.sigma(), 64, "ragged matrix should sort in 8c windows");
        // The auto pick should not pad worse than the unsorted layout.
        let unsorted = SellMatrix::from_csr(&ragged, 8, 8);
        assert!(s.padding_factor() <= unsorted.padding_factor());
    }

    #[test]
    fn fill_ratio_is_inverse_padding() {
        let a = stencil27(4, 4, 4);
        let sell = SellMatrix::from_csr(&a, 8, 8);
        assert!((sell.fill_ratio() * sell.padding_factor() - 1.0).abs() < 1e-12);
        assert!(sell.fill_ratio() > 0.0 && sell.fill_ratio() <= 1.0);
        assert_eq!(sell.c(), 8);
    }

    #[test]
    fn work_model_counts_padding() {
        let a = stencil27(4, 4, 4);
        let sell = SellMatrix::from_csr(&a, 8, 8);
        assert_eq!(sell.spmv_work().flops, 2 * sell.stored() as u64);
        assert!(sell.stored() >= a.nnz());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn sell_csr_equivalence(
            n in 2usize..24,
            entries in proptest::collection::vec((0usize..24, 0usize..24, -4.0f64..4.0), 1..80),
            c_pick in 0usize..3,
            sigma_mult in 1usize..4,
        ) {
            let entries: Vec<_> = entries
                .into_iter()
                .map(|(r, col, v)| (r % n, col % n, v))
                .collect();
            let a = CsrMatrix::from_coo(n, n, entries);
            let c = [1usize, 4, 8][c_pick];
            let sell = SellMatrix::from_csr(&a, c, c * sigma_mult);
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
            let mut y1 = vec![0.0; n];
            let mut y2 = vec![0.0; n];
            a.spmv(&x, &mut y1);
            sell.spmv(&x, &mut y2);
            for (u, v) in y1.iter().zip(&y2) {
                prop_assert!((u - v).abs() < 1e-10);
            }
        }
    }
}
