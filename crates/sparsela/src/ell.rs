//! SELL-C-σ / ELLPACK sparse formats — the storage the vendor-optimised
//! HPCG variants use.
//!
//! The paper's Table III shows Intel's and Arm's optimised HPCG gaining
//! ~43% over the reference code. Much of that gain is exactly this: CSR's
//! row-by-row gather defeats wide vector units, while ELLPACK-style slices
//! (rows padded to equal length, stored column-major within a slice) let
//! SVE/AVX-512 process C rows per instruction. [`SellMatrix`] implements
//! SELL-C-σ (slice height C, sorting window σ) with an SpMV whose results
//! match CSR bit-for-bit reorderings aside.
//!
//! The other rewrite, multicolour Gauss–Seidel, runs on the same storage.
//! [`SellMatrix::from_colored_rows`] stores the rows colour by colour —
//! σ-sorting and slicing stay inside one colour, so no slice mixes colours —
//! and [`SellMatrix::mc_symgs_sweep`] relaxes one slice of mutually
//! independent rows at a time. One copy of the operator then serves both
//! kernels, as in Alappat et al.'s SELL-C-σ kernels for A64FX.

use crate::coloring::{mc_symgs_work, Coloring};
use crate::csr::CsrMatrix;
use densela::block::CHUNK;
use densela::pool::SharedSlice;
use densela::Work;
use std::ops::Range;

const F64B: u64 = 8;
const IDXB: u64 = 4;

/// A SELL-C-σ matrix: rows grouped into slices of height `c`; within each
/// slice rows are padded to the slice's maximum length and stored
/// column-major (so lane `l` of a vector unit walks the slice's `l`-th row).
#[derive(Debug, Clone, PartialEq)]
pub struct SellMatrix {
    rows: usize,
    cols: usize,
    c: usize,
    /// Storage order: `perm[k]` is the row stored at position `k` (rows
    /// grouped by colour when there is a colouring, then σ-sorted inside
    /// each group).
    perm: Vec<u32>,
    /// Slice `s` holds the rows stored at `slice_row[s]..slice_row[s + 1]`:
    /// `c` of them, fewer only in the last slice of a group.
    slice_row: Vec<usize>,
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
    /// The colour groups of a matrix built by
    /// [`SellMatrix::from_colored_rows`]; `None` for one built from CSR.
    colors: Option<ColorSlices>,
}

/// What the multicolour sweep reads besides the slices themselves.
#[derive(Debug, Clone, PartialEq)]
struct ColorSlices {
    /// Colour `k` owns slices `first[k]..first[k + 1]`.
    first: Vec<usize>,
    /// Diagonal of the row stored at each position (0.0 when it has none).
    diag: Vec<f64>,
}

impl SellMatrix {
    /// Convert from CSR with slice height `c` and sorting window `sigma`
    /// (a multiple of `c`; `sigma == c` disables sorting, plain ELLPACK
    /// slices; larger σ sorts rows by length inside each window to cut
    /// padding). Rows keep their natural order apart from the σ-sort.
    pub fn from_csr(a: &CsrMatrix, c: usize, sigma: usize) -> Self {
        let order = (0..to_u32(a.rows())).collect();
        Self::build(
            a.cols(),
            c,
            sigma,
            order,
            &[0, a.rows()],
            None,
            |r, cols, vals| {
                let (ci, vi) = a.row_parts(r);
                cols.extend_from_slice(ci);
                vals.extend_from_slice(vi);
            },
        )
    }

    /// Build a square matrix colour by colour, straight from a row
    /// generator: `row(r, cols, vals)` appends row `r`'s column indices
    /// (strictly increasing) and values. Colour 0's rows are stored first,
    /// then colour 1's, each colour in ascending row id before its σ-sort;
    /// slices of `c` rows never cross a colour boundary. The generator runs
    /// twice per row (lengths, then fill), so no other copy of the matrix
    /// is ever held.
    ///
    /// # Panics
    /// Panics on a colour outside `0..num_colors`, on a row whose columns
    /// are not strictly increasing and below the row count, on a generator
    /// that gives a row two different lengths, and when a stored entry
    /// couples two rows of one colour — even an explicit zero, since the
    /// pooled sweep reads every stored column and relies on no lane
    /// writing it.
    pub fn from_colored_rows(
        coloring: &Coloring,
        c: usize,
        sigma: usize,
        row: impl FnMut(usize, &mut Vec<u32>, &mut Vec<f64>),
    ) -> Self {
        let color = &coloring.color;
        let n = color.len();
        let k = coloring.num_colors as usize;
        // Counting sort of the rows by colour; ascending row id within
        // each colour, the order of `Coloring::groups`.
        let mut group_ptr = vec![0usize; k + 1];
        for &col in color {
            assert!((col as usize) < k, "colour {col} out of range 0..{k}");
            group_ptr[col as usize + 1] += 1;
        }
        for g in 0..k {
            group_ptr[g + 1] += group_ptr[g];
        }
        let mut next = group_ptr[..k].to_vec();
        let mut order = vec![0u32; n];
        for (r, &col) in (0..to_u32(n)).zip(color) {
            order[next[col as usize]] = r;
            next[col as usize] += 1;
        }
        Self::build(n, c, sigma, order, &group_ptr, Some(color), row)
    }

    /// The one builder: `order` lists the rows group by group (`group_ptr`
    /// bounds each group), and each group is σ-sorted and sliced on its
    /// own. With a `color`, couplings inside a colour are refused and the
    /// diagonal is kept for the sweep.
    fn build(
        cols: usize,
        c: usize,
        sigma: usize,
        mut perm: Vec<u32>,
        group_ptr: &[usize],
        color: Option<&[u32]>,
        mut row: impl FnMut(usize, &mut Vec<u32>, &mut Vec<f64>),
    ) -> Self {
        assert!(c >= 1, "slice height must be at least 1");
        assert!(
            sigma >= c && sigma.is_multiple_of(c),
            "sigma must be a multiple of c"
        );
        assert!(
            u32::try_from(cols).is_ok(),
            "column count exceeds the u32 index range"
        );
        let rows = perm.len();
        let (mut ci, mut vi) = (Vec::new(), Vec::new());
        let mut fetch = |r: usize, ci: &mut Vec<u32>, vi: &mut Vec<f64>| {
            ci.clear();
            vi.clear();
            row(r, ci, vi);
            assert_eq!(ci.len(), vi.len(), "row {r}: columns and values must align");
        };

        // Pass 1: row lengths.
        let mut len = vec![0u32; rows];
        for (r, l) in len.iter_mut().enumerate() {
            fetch(r, &mut ci, &mut vi);
            *l = to_u32(ci.len());
        }

        // σ-sort: within each window of `sigma` rows of a group, order by
        // descending row length to homogenise slices. Then cut each group
        // into slices of `c` rows.
        let num_slices = group_ptr
            .windows(2)
            .map(|g| (g[1] - g[0]).div_ceil(c))
            .sum::<usize>();
        let mut slice_row = Vec::with_capacity(num_slices + 1);
        let mut first = Vec::with_capacity(group_ptr.len());
        slice_row.push(0);
        first.push(0);
        for g in group_ptr.windows(2) {
            for window in perm[g[0]..g[1]].chunks_mut(sigma) {
                window.sort_by_key(|&r| std::cmp::Reverse(len[r as usize]));
            }
            let mut lo = g[0];
            while lo < g[1] {
                lo = (lo + c).min(g[1]);
                slice_row.push(lo);
            }
            first.push(slice_row.len() - 1);
        }
        let slice_width: Vec<usize> = slice_row
            .windows(2)
            .map(|s| {
                let slice = &perm[s[0]..s[1]];
                slice
                    .iter()
                    .map(|&r| len[r as usize] as usize)
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let mut slice_ptr = Vec::with_capacity(num_slices + 1);
        slice_ptr.push(0);
        for w in &slice_width {
            slice_ptr.push(slice_ptr.last().unwrap() + w * c);
        }

        // Pass 2: fill. Lanes past the last row of a short slice keep the
        // zeroed column 0 / value 0 they start with.
        let stored = *slice_ptr.last().unwrap();
        let mut col_idx = vec![0u32; stored];
        let mut values = vec![0.0f64; stored];
        let mut diag = vec![0.0f64; if color.is_some() { rows } else { 0 }];
        let mut nnz = 0;
        for s in 0..num_slices {
            let (base, width) = (slice_ptr[s], slice_width[s]);
            for (lane, k) in (slice_row[s]..slice_row[s + 1]).enumerate() {
                let r = perm[k] as usize;
                fetch(r, &mut ci, &mut vi);
                assert_eq!(
                    ci.len(),
                    len[r] as usize,
                    "row {r} changed length between the passes"
                );
                assert!(
                    ci.windows(2).all(|w| w[0] < w[1]),
                    "row {r}: columns must be strictly increasing"
                );
                if let Some(&last) = ci.last() {
                    assert!((last as usize) < cols, "row {r}: column index out of range");
                }
                if let Some(color) = color {
                    let own = color[r];
                    for (&col, &val) in ci.iter().zip(&vi) {
                        if col as usize == r {
                            diag[k] = val;
                        } else {
                            assert!(
                                color[col as usize] != own,
                                "invalid colouring: row {r} is coupled to a row of its colour {own}"
                            );
                        }
                    }
                }
                nnz += ci.len();
                // Column-major within the slice: entry j of the lane's row
                // sits at `base + j * c + lane`.
                let at = |j: usize| base + j * c + lane;
                for (j, (&col, &val)) in ci.iter().zip(&vi).enumerate() {
                    col_idx[at(j)] = col;
                    values[at(j)] = val;
                }
                // Padding: self-referential zero keeps SpMV branch-free.
                for j in ci.len()..width {
                    col_idx[at(j)] = r as u32;
                }
            }
        }
        SellMatrix {
            rows,
            cols,
            c,
            perm,
            slice_row,
            slice_width,
            slice_ptr,
            col_idx,
            values,
            nnz,
            sigma,
            colors: color.map(|_| ColorSlices { first, diag }),
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

    /// Number of colours: 0 for a matrix built from CSR, which has no
    /// colour groups and cannot run the multicolour sweep.
    pub fn num_colors(&self) -> usize {
        self.colors.as_ref().map_or(0, |k| k.first.len() - 1)
    }

    /// Heap bytes held by the matrix's arrays (their capacities).
    pub fn memory_bytes(&self) -> u64 {
        fn bytes<T>(v: &Vec<T>) -> u64 {
            (v.capacity() * std::mem::size_of::<T>()) as u64
        }
        let colors = self
            .colors
            .as_ref()
            .map_or(0, |k| bytes(&k.first) + bytes(&k.diag));
        bytes(&self.perm)
            + bytes(&self.slice_row)
            + bytes(&self.slice_width)
            + bytes(&self.slice_ptr)
            + bytes(&self.col_idx)
            + bytes(&self.values)
            + colors
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
    /// view. The reference for [`SellMatrix::spmv_slices_chunked`].
    ///
    /// # Safety
    /// No other thread may concurrently touch the output rows of slices
    /// `s_lo..s_hi` (i.e. `perm[slice_row[s_lo]..slice_row[s_hi]]`), and
    /// `y` must hold [`SellMatrix::rows`] elements.
    unsafe fn spmv_slices(&self, s_lo: usize, s_hi: usize, x: &[f64], y: &SharedSlice<f64>) {
        let c = self.c;
        let mut acc = vec![0.0f64; c];
        for s in s_lo..s_hi {
            let (lo, hi) = (self.slice_row[s], self.slice_row[s + 1]);
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
                y.set(self.perm[lo + lane] as usize, acc[lane]);
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
            let (lo, hi) = (self.slice_row[s], self.slice_row[s + 1]);
            let lanes = hi - lo;
            let width = self.slice_width[s];
            let base = self.slice_ptr[s];
            if lanes == CHUNK && c == CHUNK {
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
                    y.set(self.perm[lo + lane] as usize, acc[lane]);
                }
            } else {
                // Short slices / non-CHUNK heights: same arithmetic
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
                    y.set(self.perm[lo + lane] as usize, acc[lane]);
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

    /// One symmetric multicolour Gauss–Seidel sweep, forward over the
    /// colours then backward; bit-identical to
    /// [`crate::coloring::mc_symgs_sweep`] on the matrix and colouring this
    /// was built from. `b` and `x` are in natural row order.
    ///
    /// # Panics
    /// Panics if the matrix was built from CSR (it has no colour groups),
    /// or on vectors of the wrong length.
    pub fn mc_symgs_sweep(&self, b: &[f64], x: &mut [f64]) -> Work {
        assert_eq!(b.len(), self.rows, "mc_symgs_sweep: b length mismatch");
        assert_eq!(x.len(), self.rows, "mc_symgs_sweep: x length mismatch");
        let xs = SharedSlice::new(x);
        let k = self.sweep_colors();
        for color in (0..k).chain((0..k).rev()) {
            let slices = self.slices_of(color);
            // SAFETY: lengths checked above; this thread is the only one
            // touching `x`, and the slices lie inside one colour.
            unsafe { self.relax_slices(slices.start, slices.end, b, &xs) };
        }
        self.mc_symgs_work()
    }

    /// Work of one [`SellMatrix::mc_symgs_sweep`]: the naive sweep's on the
    /// unpadded matrix (padding and the diagonal add nothing to a row).
    pub(crate) fn mc_symgs_work(&self) -> Work {
        mc_symgs_work(self.nnz, self.rows)
    }

    fn color_slices(&self) -> &ColorSlices {
        self.colors
            .as_ref()
            .expect("multicolour SymGS needs a matrix built by from_colored_rows")
    }

    /// Number of colours a sweep passes over; panics on a matrix built
    /// from CSR, where [`SellMatrix::num_colors`] reads 0.
    pub(crate) fn sweep_colors(&self) -> usize {
        self.color_slices().first.len() - 1
    }

    /// The slices of colour `color`.
    pub(crate) fn slices_of(&self, color: usize) -> Range<usize> {
        let first = &self.color_slices().first;
        first[color]..first[color + 1]
    }

    /// Stored entries, padding included, of slices `slices`.
    pub(crate) fn stored_in(&self, slices: Range<usize>) -> usize {
        self.slice_ptr[slices.end] - self.slice_ptr[slices.start]
    }

    /// Relax the rows of slices `s_lo..s_hi`, all lanes of a slice at once.
    /// Each lane starts from `b` at its row and subtracts `v * x[col]` for
    /// every stored entry in column order, except that the diagonal and the
    /// padding (both with `col == row`) subtract 0.0. `a - 0.0 == a` for
    /// every `a`, so this is the naive sweep's arithmetic bit for bit; the
    /// division by the diagonal is kept, and a row with a zero diagonal is
    /// left alone. Rows of one colour never read each other, so the order
    /// of rows inside a colour cannot move a bit. This one code path serves
    /// both [`SellMatrix::mc_symgs_sweep`] and the pooled
    /// `Team::mc_symgs_sweep`.
    ///
    /// # Safety
    /// `b` and `x` must hold [`SellMatrix::rows`] elements, slices
    /// `s_lo..s_hi` must lie inside one colour, and while this runs no
    /// other thread may touch `x` at those slices' rows or write `x` at any
    /// row of another colour. [`SellMatrix::from_colored_rows`] guarantees
    /// a row reads only its own and other colours' entries of `x`, and that
    /// every column is below `rows()`.
    pub(crate) unsafe fn relax_slices(
        &self,
        s_lo: usize,
        s_hi: usize,
        b: &[f64],
        x: &SharedSlice<f64>,
    ) {
        let diag = &self.color_slices().diag;
        let c = self.c;
        let mut accbuf = vec![0.0f64; c];
        for s in s_lo..s_hi {
            let (lo, hi) = (self.slice_row[s], self.slice_row[s + 1]);
            let (me, d) = (&self.perm[lo..hi], &diag[lo..hi]);
            let width = self.slice_width[s];
            let base = self.slice_ptr[s];
            if hi - lo == CHUNK && c == CHUNK {
                // Fixed-width fast path, as in the chunked SpMV.
                let me: &[u32; CHUNK] = me.try_into().unwrap();
                let mut acc = [0.0f64; CHUNK];
                for lane in 0..CHUNK {
                    acc[lane] = b[me[lane] as usize];
                }
                for j in 0..width {
                    let off = base + j * c;
                    let vals: &[f64; CHUNK] = self.values[off..off + CHUNK].try_into().unwrap();
                    let cols: &[u32; CHUNK] = self.col_idx[off..off + CHUNK].try_into().unwrap();
                    for lane in 0..CHUNK {
                        let col = cols[lane];
                        acc[lane] -= if col == me[lane] {
                            0.0
                        } else {
                            vals[lane] * x.get(col as usize)
                        };
                    }
                }
                for lane in 0..CHUNK {
                    if d[lane] != 0.0 {
                        x.set(me[lane] as usize, acc[lane] / d[lane]);
                    }
                }
            } else {
                let acc = &mut accbuf[..hi - lo];
                for (a, &r) in acc.iter_mut().zip(me) {
                    *a = b[r as usize];
                }
                for j in 0..width {
                    let off = base + j * c;
                    let vals = &self.values[off..off + acc.len()];
                    let cols = &self.col_idx[off..off + acc.len()];
                    for lane in 0..acc.len() {
                        let col = cols[lane];
                        acc[lane] -= if col == me[lane] {
                            0.0
                        } else {
                            vals[lane] * x.get(col as usize)
                        };
                    }
                }
                for lane in 0..acc.len() {
                    if d[lane] != 0.0 {
                        x.set(me[lane] as usize, acc[lane] / d[lane]);
                    }
                }
            }
        }
    }
}

/// A row or column count as a `u32` index.
fn to_u32(n: usize) -> u32 {
    u32::try_from(n).expect("SELL row and column indices are u32")
}

#[cfg(test)]
impl SellMatrix {
    /// [`SellMatrix::from_colored_rows`] over the rows of a CSR matrix.
    pub(crate) fn from_colored_csr(
        a: &CsrMatrix,
        coloring: &Coloring,
        c: usize,
        sigma: usize,
    ) -> Self {
        assert_eq!(a.rows(), coloring.color.len());
        Self::from_colored_rows(coloring, c, sigma, |r, cols, vals| {
            let (ci, vi) = a.row_parts(r);
            cols.extend_from_slice(ci);
            vals.extend_from_slice(vi);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coloring::mc_symgs_sweep;
    use crate::gen::{poisson7, stencil27, stencil27_row, structural3d};

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

    /// Every slice holds rows of one colour, `c` of them except the last
    /// slice of a colour; each colour stores exactly its rows; every row
    /// holds its CSR entries in order, then padding of its own column and
    /// value 0; the kept diagonal is the CSR's.
    fn check_colored_layout(m: &SellMatrix, a: &CsrMatrix, coloring: &Coloring) {
        let c = m.c();
        assert_eq!(m.num_colors(), coloring.num_colors as usize);
        assert_eq!(m.nnz(), a.nnz());
        let diag = &m.colors.as_ref().unwrap().diag;
        for (k, group) in coloring.groups().iter().enumerate() {
            let slices = m.slices_of(k);
            let rows = m.slice_row[slices.start]..m.slice_row[slices.end];
            let mut stored: Vec<usize> = m.perm[rows].iter().map(|&r| r as usize).collect();
            stored.sort_unstable();
            assert_eq!(&stored, group, "colour {k} stores exactly its rows");
            for s in slices.clone() {
                let lanes = m.slice_row[s + 1] - m.slice_row[s];
                assert!(lanes == c || (s + 1 == slices.end && lanes < c));
                for (lane, pos) in (m.slice_row[s]..m.slice_row[s + 1]).enumerate() {
                    let r = m.perm[pos] as usize;
                    assert_eq!(coloring.color[r] as usize, k, "no slice mixes colours");
                    assert_eq!(diag[pos].to_bits(), a.diag(r).to_bits(), "row {r}");
                    let (ci, vi) = a.row_parts(r);
                    for j in 0..m.slice_width[s] {
                        let at = m.slice_ptr[s] + j * c + lane;
                        let want = if j < ci.len() {
                            (ci[j], vi[j])
                        } else {
                            (r as u32, 0.0)
                        };
                        assert_eq!((m.col_idx[at], m.values[at]), want, "row {r} entry {j}");
                    }
                }
            }
        }
    }

    #[test]
    fn colored_layout_keeps_colours_apart() {
        for (a, coloring, c, sigma) in [
            (stencil27(5, 3, 3), Coloring::stencil8(5, 3, 3), 8, 32),
            (stencil27(3, 3, 1), Coloring::stencil8(3, 3, 1), 2, 4),
            (
                poisson7(4, 3, 2),
                Coloring::greedy(&poisson7(4, 3, 2)),
                4,
                8,
            ),
            (
                structural3d(2, 2, 3),
                Coloring::greedy(&structural3d(2, 2, 3)),
                8,
                16,
            ),
        ] {
            let m = SellMatrix::from_colored_csr(&a, &coloring, c, sigma);
            check_colored_layout(&m, &a, &coloring);
        }
    }

    #[test]
    fn colored_layout_of_a_small_grid_by_hand() {
        // A 3x3x1 grid: colour 0 holds the corners 0, 2, 6, 8 (4 entries
        // each), colour 1 the edges 1, 7 and colour 2 the edges 3, 5 (6
        // each), colour 3 the centre 4 (9 entries); colours 4-7 are empty.
        let m =
            SellMatrix::from_colored_rows(&Coloring::stencil8(3, 3, 1), 2, 2, |r, cols, vals| {
                stencil27_row(3, 3, 1, r, cols, vals)
            });
        assert_eq!(m.perm, [0, 2, 6, 8, 1, 7, 3, 5, 4]);
        assert_eq!(m.slice_row, [0, 2, 4, 6, 8, 9]);
        assert_eq!(m.slice_width, [4, 4, 6, 6, 9]);
        assert_eq!(
            m.colors.as_ref().unwrap().first,
            [0, 2, 3, 4, 5, 5, 5, 5, 5]
        );
        // The centre's short slice: lane 1 keeps column 0, value 0.
        let last = m.slice_ptr[4];
        assert_eq!(&m.col_idx[last..last + 4], [0, 0, 1, 0]);
        assert_eq!(m.stored(), 2 * (4 + 4 + 6 + 6 + 9));
        assert_eq!(m.nnz(), 4 * 4 + 4 * 6 + 9);
    }

    #[test]
    fn generator_rows_build_the_csr_rows_matrix() {
        let (nx, ny, nz) = (7, 5, 3);
        let coloring = Coloring::stencil8(nx, ny, nz);
        let from_generator = SellMatrix::from_colored_rows(&coloring, 8, 32, |r, cols, vals| {
            stencil27_row(nx, ny, nz, r, cols, vals)
        });
        let from_csr = SellMatrix::from_colored_csr(&stencil27(nx, ny, nz), &coloring, 8, 32);
        assert_eq!(from_generator, from_csr);
    }

    #[test]
    fn explicit_zero_diagonal_leaves_its_row_alone() {
        // Row 2 stores its diagonal as an explicit 0.0: the naive sweep
        // skips it, and so must the slice kernel.
        let mut entries = Vec::new();
        for r in 0..6usize {
            entries.push((r, r, if r == 2 { 0.0 } else { 4.0 }));
            if r + 1 < 6 {
                entries.push((r, r + 1, -1.0));
                entries.push((r + 1, r, -1.0));
            }
        }
        let a = CsrMatrix::from_coo(6, 6, entries);
        assert_eq!(a.row_parts(2).0, [1, 2, 3], "the zero is stored");
        let coloring = Coloring::greedy(&a);
        let b: Vec<f64> = (0..6).map(|i| i as f64 - 2.5).collect();
        for c in [1, 2, 8] {
            let m = SellMatrix::from_colored_csr(&a, &coloring, c, c);
            let mut x_naive = vec![0.75; 6];
            let mut x_sell = x_naive.clone();
            let w1 = mc_symgs_sweep(&a, &coloring, &b, &mut x_naive);
            let w2 = m.mc_symgs_sweep(&b, &mut x_sell);
            assert_eq!(w1, w2);
            assert_eq!(x_sell[2], 0.75, "c={c}");
            for (u, v) in x_naive.iter().zip(&x_sell) {
                assert_eq!(u.to_bits(), v.to_bits(), "c={c}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid colouring")]
    fn colored_build_rejects_a_coupled_colour() {
        let a = poisson7(3, 1, 1);
        let one_colour = Coloring {
            color: vec![0; 3],
            num_colors: 1,
        };
        let _ = SellMatrix::from_colored_csr(&a, &one_colour, 8, 8);
    }

    #[test]
    #[should_panic(expected = "from_colored_rows")]
    fn mc_sweep_needs_colour_groups() {
        let a = stencil27(3, 3, 3);
        let m = SellMatrix::from_csr(&a, 8, 8);
        let b = vec![1.0; a.rows()];
        let mut x = vec![0.0; a.rows()];
        m.mc_symgs_sweep(&b, &mut x);
    }

    #[test]
    fn colored_operator_is_one_copy_of_the_matrix() {
        // Values and columns (12 B per stored entry), the storage order and
        // the diagonal (12 B per row) and per-slice metadata: no second
        // copy of the operator hides in the layout.
        let (nx, ny, nz) = (20, 18, 16);
        let m = SellMatrix::from_colored_rows(
            &Coloring::stencil8(nx, ny, nz),
            8,
            32,
            |r, cols, vals| stencil27_row(nx, ny, nz, r, cols, vals),
        );
        let metadata = 3 * 8 * (m.num_slices() + 1) + 8 * (m.num_colors() + 1);
        let bound = 12 * m.stored() + 12 * m.rows() + metadata;
        assert!(
            m.memory_bytes() <= bound as u64,
            "{} bytes against a bound of {bound}",
            m.memory_bytes()
        );
        assert!(m.memory_bytes() < stencil27(nx, ny, nz).memory_bytes() * 11 / 10);
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
    use crate::coloring::mc_symgs_sweep;
    use crate::gen::{poisson7, stencil27, structural3d};
    use proptest::prelude::*;

    /// Three sweeps and one SpMV of the colour-grouped matrix against the
    /// naive sweep and CSR SpMV, bit for bit, work included.
    fn assert_colored_matches_naive(
        a: &CsrMatrix,
        coloring: &Coloring,
        c: usize,
        sigma: usize,
        seed: u64,
    ) {
        let n = a.rows();
        let mix = |i: usize, k: u64| {
            let h = (i as u64 ^ seed.wrapping_mul(k)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            (h >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
        };
        let b: Vec<f64> = (0..n).map(|i| mix(i, 3)).collect();
        let mut x_naive: Vec<f64> = (0..n).map(|i| mix(i, 7)).collect();
        let mut x_sell = x_naive.clone();
        let m = SellMatrix::from_colored_csr(a, coloring, c, sigma);
        let (mut w_naive, mut w_sell) = (Work::ZERO, Work::ZERO);
        for _ in 0..3 {
            w_naive += mc_symgs_sweep(a, coloring, &b, &mut x_naive);
            w_sell += m.mc_symgs_sweep(&b, &mut x_sell);
        }
        assert_eq!(w_naive, w_sell);
        for (i, (u, v)) in x_naive.iter().zip(&x_sell).enumerate() {
            assert_eq!(
                u.to_bits(),
                v.to_bits(),
                "sweep row {i} (c={c}, sigma={sigma})"
            );
        }
        let (mut y_csr, mut y_sell) = (vec![0.0; n], vec![0.0; n]);
        a.spmv(&b, &mut y_csr);
        m.spmv_chunked(&b, &mut y_sell);
        for (i, (u, v)) in y_csr.iter().zip(&y_sell).enumerate() {
            assert_eq!(
                u.to_bits(),
                v.to_bits(),
                "spmv row {i} (c={c}, sigma={sigma})"
            );
        }
    }

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

        #[test]
        fn colored_sell_matches_naive_on_odd_stencil8_grids(
            hx in 0usize..5, hy in 0usize..5, hz in 0usize..5,
            c_pick in 0usize..2,
            sigma_mult in 1usize..5,
            seed in 0u64..1 << 32,
        ) {
            // Odd edges make colour groups that are not multiples of 8,
            // so most colours end in a short slice.
            let (nx, ny, nz) = (2 * hx + 1, 2 * hy + 1, 2 * hz + 1);
            let c = [8usize, 3][c_pick];
            let coloring = Coloring::stencil8(nx, ny, nz);
            assert_colored_matches_naive(&stencil27(nx, ny, nz), &coloring, c, c * sigma_mult, seed);
        }

        #[test]
        fn colored_sell_matches_naive_on_greedy_colourings(
            nx in 1usize..=5, ny in 1usize..=5, nz in 1usize..=5,
            structural in 0usize..2,
            seed in 0u64..1 << 32,
        ) {
            let a = if structural == 1 {
                structural3d(nx.min(3), ny.min(3), nz.min(3))
            } else {
                poisson7(nx, ny, nz)
            };
            let coloring = Coloring::greedy(&a);
            assert_colored_matches_naive(&a, &coloring, 8, 32, seed);
        }
    }
}
