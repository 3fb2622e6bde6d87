//! Multi-colour Gauss–Seidel — the vectorisable smoother of the optimised
//! HPCG variants.
//!
//! Plain symmetric Gauss–Seidel carries a serial dependency row to row,
//! which is why the reference HPCG achieves so little of peak (the paper's
//! Table III: 1–3%). The vendor-optimised variants recolour the grid so
//! rows of one colour have no couplings to each other and can be relaxed
//! in parallel / with vectors. For the 27-point stencil an 8-colouring by
//! coordinate parity `(x%2, y%2, z%2)` is exact; for general matrices a
//! greedy colouring is provided.
//!
//! A colour pass over natural-order CSR storage jumps through the matrix
//! (a stencil8 colour takes every other row of every other line of every
//! other plane), so each of the 16 passes of a sweep drags whole cache
//! lines of `a` in for one eighth of their rows. The optimised HPCG path
//! therefore sweeps a [`crate::ell::SellMatrix`] built colour by colour
//! ([`crate::ell::SellMatrix::from_colored_rows`]): each half-sweep streams
//! the matrix once, and the same copy serves the SpMV. Its sweep is
//! bit-identical to the naive [`mc_symgs_sweep`], which stays as the
//! reference.

use crate::csr::CsrMatrix;
use densela::block::SYMGS_TILE;
use densela::Work;

const F64B: u64 = 8;
const IDXB: u64 = 4;

/// A colouring of the rows of a matrix: rows of equal colour are mutually
/// independent (no non-zero couples two rows of one colour).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coloring {
    /// `color[r]` in `0..num_colors`.
    pub color: Vec<u32>,
    /// Number of colours used.
    pub num_colors: u32,
}

impl Coloring {
    /// The exact 8-colouring of a `nx × ny × nz` grid's 27-point stencil:
    /// colour = parity bits of (x, y, z).
    pub fn stencil8(nx: usize, ny: usize, nz: usize) -> Self {
        let mut color = Vec::with_capacity(nx * ny * nz);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    color.push(((x % 2) + 2 * (y % 2) + 4 * (z % 2)) as u32);
                }
            }
        }
        Coloring {
            color,
            num_colors: 8,
        }
    }

    /// Greedy first-fit colouring of an arbitrary symmetric sparsity
    /// pattern.
    pub fn greedy(a: &CsrMatrix) -> Self {
        let n = a.rows();
        let mut color = vec![u32::MAX; n];
        let mut max_color = 0u32;
        let mut forbidden: Vec<u32> = Vec::new();
        for r in 0..n {
            forbidden.clear();
            for (c, _) in a.row(r) {
                if c != r && color[c] != u32::MAX {
                    forbidden.push(color[c]);
                }
            }
            let mut pick = 0u32;
            while forbidden.contains(&pick) {
                pick += 1;
            }
            color[r] = pick;
            max_color = max_color.max(pick);
        }
        Coloring {
            color,
            num_colors: max_color + 1,
        }
    }

    /// Validate against a matrix: no two coupled rows share a colour.
    pub fn is_valid_for(&self, a: &CsrMatrix) -> bool {
        for r in 0..a.rows() {
            for (c, v) in a.row(r) {
                if c != r && v != 0.0 && self.color[c] == self.color[r] {
                    return false;
                }
            }
        }
        true
    }

    /// Rows grouped by colour (ascending colour order).
    pub fn groups(&self) -> Vec<Vec<usize>> {
        let mut g = vec![Vec::new(); self.num_colors as usize];
        for (r, &c) in self.color.iter().enumerate() {
            g[c as usize].push(r);
        }
        g
    }
}

/// One symmetric multi-colour Gauss–Seidel sweep: forward over colours
/// 0..k, backward over k..0. Rows inside a colour are independent, so each
/// colour's loop is embarrassingly parallel — the optimised-HPCG property.
///
/// Reference kernel for [`mc_symgs_sweep_blocked`] — pinned to library
/// codegen so blocked-vs-naive comparisons measure the shipped kernel.
#[inline(never)]
pub fn mc_symgs_sweep(a: &CsrMatrix, coloring: &Coloring, b: &[f64], x: &mut [f64]) -> Work {
    assert_eq!(a.rows(), a.cols());
    assert_eq!(b.len(), a.rows());
    assert_eq!(x.len(), a.rows());
    debug_assert!(coloring.is_valid_for(a), "invalid colouring");
    let groups = coloring.groups();
    let relax = |rows: &[usize], x: &mut [f64]| {
        for &r in rows {
            let d = a.diag(r);
            if d == 0.0 {
                continue;
            }
            let mut acc = b[r];
            for (c, v) in a.row(r) {
                if c != r {
                    acc -= v * x[c];
                }
            }
            x[r] = acc / d;
        }
    };
    for g in &groups {
        relax(g, x);
    }
    for g in groups.iter().rev() {
        relax(g, x);
    }
    mc_symgs_work(a.nnz(), a.rows())
}

/// Cache-blocked symmetric multi-colour sweep with caller-chosen tile
/// height; [`mc_symgs_sweep_blocked`] uses the default
/// [`SYMGS_TILE`]. Bit-identical to [`mc_symgs_sweep`] for every tile size
/// (parity tests sweep {1, 3, 8, 16} plus the default).
///
/// Three data-level changes over the naive sweep, none touching the
/// arithmetic:
/// * each row is walked once — the diagonal is captured during the
///   off-diagonal accumulation instead of a separate diag-finding scan
///   before the relax loop;
/// * rows relax through [`CsrMatrix::row_parts`] slices — one bounds check
///   per row, not per non-zero;
/// * each colour's rows are processed in tiles of `tile` rows so the
///   touched band of `a` and `x` stays L2-resident across the tile.
pub fn mc_symgs_sweep_blocked_with(
    a: &CsrMatrix,
    coloring: &Coloring,
    b: &[f64],
    x: &mut [f64],
    tile: usize,
) -> Work {
    assert!(tile > 0, "tile height must be positive");
    assert_eq!(a.rows(), a.cols());
    assert_eq!(b.len(), a.rows());
    assert_eq!(x.len(), a.rows());
    debug_assert!(coloring.is_valid_for(a), "invalid colouring");
    let groups = coloring.groups();
    let relax = |rows: &[usize], x: &mut [f64]| {
        for trows in rows.chunks(tile) {
            for &r in trows {
                // Single pass per row: the diagonal is captured while the
                // off-diagonal terms accumulate (CSR rows carry unique
                // column indices), where the naive sweep walks each row
                // twice — a diag-finding scan, then the relax loop. The
                // off-diagonal accumulation order is identical, so results
                // stay bit-identical.
                let (cols, vals) = a.row_parts(r);
                let mut acc = b[r];
                let mut d = 0.0;
                for (cc, v) in cols.iter().zip(vals) {
                    let c = *cc as usize;
                    if c == r {
                        d = *v;
                    } else {
                        acc -= v * x[c];
                    }
                }
                if d == 0.0 {
                    continue;
                }
                // Division kept (not multiply-by-reciprocal): bit-identity
                // with the naive sweep requires the same operation.
                x[r] = acc / d;
            }
        }
    };
    for g in &groups {
        relax(g, x);
    }
    for g in groups.iter().rev() {
        relax(g, x);
    }
    mc_symgs_work(a.nnz(), a.rows())
}

/// Cache-blocked sweep at the default [`SYMGS_TILE`]; bit-identical to
/// [`mc_symgs_sweep`]. No solver uses it (the optimised HPCG path sweeps a
/// colour-grouped [`crate::ell::SellMatrix`]); it stays for the benchmark harness's
/// `sparsela.mc_symgs_blocked` kernel row.
pub fn mc_symgs_sweep_blocked(
    a: &CsrMatrix,
    coloring: &Coloring,
    b: &[f64],
    x: &mut [f64],
) -> Work {
    mc_symgs_sweep_blocked_with(a, coloring, b, x, SYMGS_TILE)
}

/// Work of one symmetric multi-colour sweep over a matrix with `nnz`
/// non-zeros and `n` rows (shared by every sweep above, which all perform
/// the identical arithmetic).
pub(crate) fn mc_symgs_work(nnz: usize, n: usize) -> Work {
    let (nnz, n) = (nnz as u64, n as u64);
    Work::new(
        4 * nnz + 2 * n,
        2 * (nnz * (F64B + IDXB) + 2 * n * F64B),
        2 * n * F64B,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{poisson7, stencil27, structural3d};
    use crate::symgs::residual_norm;

    #[test]
    fn stencil8_is_valid_for_the_27_point_operator() {
        for dims in [(4usize, 4usize, 4usize), (5, 3, 2), (6, 6, 6)] {
            let a = stencil27(dims.0, dims.1, dims.2);
            let c = Coloring::stencil8(dims.0, dims.1, dims.2);
            assert!(c.is_valid_for(&a), "{dims:?}");
            assert_eq!(c.num_colors, 8);
        }
    }

    #[test]
    fn greedy_coloring_is_valid_on_everything() {
        for a in [poisson7(4, 3, 2), stencil27(4, 4, 4), structural3d(2, 2, 2)] {
            let c = Coloring::greedy(&a);
            assert!(c.is_valid_for(&a));
            assert!(c.num_colors >= 2);
        }
    }

    #[test]
    fn greedy_poisson_uses_two_colors() {
        // The 7-point Laplacian is bipartite (red-black).
        let a = poisson7(4, 4, 4);
        let c = Coloring::greedy(&a);
        assert_eq!(c.num_colors, 2, "red-black suffices for 7-point");
    }

    #[test]
    fn mc_sweep_reduces_residual_like_plain_symgs() {
        let a = stencil27(6, 6, 6);
        let coloring = Coloring::stencil8(6, 6, 6);
        let b = vec![1.0; a.rows()];
        let mut x = vec![0.0; a.rows()];
        let r0 = residual_norm(&a, &b, &x);
        mc_symgs_sweep(&a, &coloring, &b, &mut x);
        let r1 = residual_norm(&a, &b, &x);
        assert!(r1 < r0, "{r1} vs {r0}");
        mc_symgs_sweep(&a, &coloring, &b, &mut x);
        assert!(residual_norm(&a, &b, &x) < r1);
    }

    #[test]
    fn mc_sweep_converges_to_the_solution() {
        let a = stencil27(4, 4, 4);
        let coloring = Coloring::stencil8(4, 4, 4);
        let x_true: Vec<f64> = (0..a.rows()).map(|i| ((i % 6) as f64) - 2.5).collect();
        let mut b = vec![0.0; a.rows()];
        a.spmv(&x_true, &mut b);
        let mut x = vec![0.0; a.rows()];
        for _ in 0..200 {
            mc_symgs_sweep(&a, &coloring, &b, &mut x);
        }
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-8);
        }
    }

    #[test]
    fn blocked_sweep_is_bit_identical_to_naive() {
        for (a, coloring) in [
            (stencil27(6, 5, 4), Coloring::stencil8(6, 5, 4)),
            (poisson7(4, 4, 4), Coloring::greedy(&poisson7(4, 4, 4))),
            (
                structural3d(2, 2, 3),
                Coloring::greedy(&structural3d(2, 2, 3)),
            ),
        ] {
            let b: Vec<f64> = (0..a.rows())
                .map(|i| ((i * 13) % 29) as f64 / 7.0 - 2.0)
                .collect();
            for tile in [1usize, 3, 8, 16, SYMGS_TILE] {
                let mut x_ref: Vec<f64> = (0..a.rows()).map(|i| (i % 5) as f64 * 0.1).collect();
                let mut x_blk = x_ref.clone();
                let w1 = mc_symgs_sweep(&a, &coloring, &b, &mut x_ref);
                let w2 = mc_symgs_sweep_blocked_with(&a, &coloring, &b, &mut x_blk, tile);
                assert_eq!(w1, w2);
                for (u, v) in x_ref.iter().zip(&x_blk) {
                    assert_eq!(u.to_bits(), v.to_bits(), "tile={tile}");
                }
            }
        }
    }

    #[test]
    fn groups_partition_all_rows() {
        let c = Coloring::stencil8(3, 3, 3);
        let total: usize = c.groups().iter().map(|g| g.len()).sum();
        assert_eq!(total, 27);
    }

    #[test]
    fn colors_within_group_are_truly_independent() {
        // No entry of the matrix couples two rows of one colour group, so
        // relaxing a group in any order gives the same result — bit for
        // bit, which the pooled sweep's lane split depends on.
        let a = stencil27(4, 4, 4);
        let coloring = Coloring::stencil8(4, 4, 4);
        let b: Vec<f64> = (0..a.rows()).map(|i| (i as f64 * 0.31).cos()).collect();
        let mut x_fwd = vec![0.0; a.rows()];
        mc_symgs_sweep(&a, &coloring, &b, &mut x_fwd);
        // Reverse the row order inside every group and sweep again.
        let groups: Vec<Vec<usize>> = coloring
            .groups()
            .into_iter()
            .map(|mut g| {
                g.reverse();
                g
            })
            .collect();
        let mut x_rev = vec![0.0; a.rows()];
        let relax = |rows: &[usize], x: &mut Vec<f64>| {
            for &r in rows {
                let d = a.diag(r);
                let mut acc = b[r];
                for (c, v) in a.row(r) {
                    if c != r {
                        acc -= v * x[c];
                    }
                }
                x[r] = acc / d;
            }
        };
        for g in &groups {
            relax(g, &mut x_rev);
        }
        for g in groups.iter().rev() {
            relax(g, &mut x_rev);
        }
        for (u, v) in x_fwd.iter().zip(&x_rev) {
            assert_eq!(
                u.to_bits(),
                v.to_bits(),
                "order inside a colour must not matter"
            );
        }
    }
}
