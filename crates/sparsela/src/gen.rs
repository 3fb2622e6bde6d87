//! Sparse matrix generators for the paper's workloads.
//!
//! * [`stencil27`] — the HPCG operator: a 27-point stencil on an
//!   nx×ny×nz grid, diagonal 26, off-diagonals −1 (symmetric positive
//!   definite), generated row by row by [`stencil27_row`]. The paper runs
//!   HPCG with a local grid of 80×80×80 per process
//!   (`--nx=80 --ny=80 --nz=80`).
//! * [`poisson7`] — a 7-point Laplacian, used as a lighter test operator.
//! * [`structural3d`] — a synthetic substitute for minikab's proprietary
//!   `Benchmark1` structural matrix: nodes on a 3-D grid, 3 degrees of
//!   freedom per node, 27-node coupling, SPD by diagonal dominance. At
//!   the paper's scale (`benchmark1_shape`) the real matrix has 9,573,984
//!   DoF and 696,096,138 non-zeros (≈72.7 nnz/row); our generator's density
//!   (≈81 nnz/row interior) matches it closely, and CG on either is
//!   bandwidth-bound in exactly the same way.

use crate::csr::CsrMatrix;

/// DoF count and non-zero count of minikab's `Benchmark1` matrix, from the
/// paper (§VI.A): a large structural problem.
pub const BENCHMARK1_DOF: u64 = 9_573_984;
/// Non-zeros of `Benchmark1`.
pub const BENCHMARK1_NNZ: u64 = 696_096_138;

/// HPCG's 27-point stencil operator on an `nx × ny × nz` grid: row diagonal
/// 26.0, all existing neighbours −1.0. SPD and weakly diagonally dominant,
/// exactly as the reference HPCG `GenerateProblem`. Built row by row from
/// [`stencil27_row`].
pub fn stencil27(nx: usize, ny: usize, nz: usize) -> CsrMatrix {
    assert!(nx > 0 && ny > 0 && nz > 0);
    let n = nx * ny * nz;
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col_idx: Vec<u32> = Vec::with_capacity(n * 27);
    let mut values: Vec<f64> = Vec::with_capacity(n * 27);
    row_ptr.push(0);
    for r in 0..n {
        stencil27_row(nx, ny, nz, r, &mut col_idx, &mut values);
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_raw(n, n, row_ptr, col_idx, values)
}

/// Append row `r` of [`stencil27`]`(nx, ny, nz)` to `cols` and `vals`: the
/// columns of the point and its existing neighbours in increasing order,
/// 26.0 on the diagonal and −1.0 elsewhere. The one generator of the HPCG
/// operator, so a matrix built straight from it (such as
/// [`crate::ell::SellMatrix::from_colored_rows`]) holds exactly the CSR's
/// rows.
pub fn stencil27_row(
    nx: usize,
    ny: usize,
    nz: usize,
    r: usize,
    cols: &mut Vec<u32>,
    vals: &mut Vec<f64>,
) {
    debug_assert!(r < nx * ny * nz, "row {r} outside the grid");
    let idx = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
    let (x, y, z) = (r % nx, (r / nx) % ny, r / (nx * ny));
    for dz in -1i64..=1 {
        let zz = z as i64 + dz;
        if zz < 0 || zz >= nz as i64 {
            continue;
        }
        for dy in -1i64..=1 {
            let yy = y as i64 + dy;
            if yy < 0 || yy >= ny as i64 {
                continue;
            }
            for dx in -1i64..=1 {
                let xx = x as i64 + dx;
                if xx < 0 || xx >= nx as i64 {
                    continue;
                }
                let j = idx(xx as usize, yy as usize, zz as usize);
                cols.push(j as u32);
                vals.push(if j == r { 26.0 } else { -1.0 });
            }
        }
    }
}

/// A 7-point Laplacian (diagonal 6, face neighbours −1) on an
/// `nx × ny × nz` grid.
pub fn poisson7(nx: usize, ny: usize, nz: usize) -> CsrMatrix {
    let n = nx * ny * nz;
    let idx = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
    let mut entries = Vec::with_capacity(n * 7);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let me = idx(x, y, z);
                entries.push((me, me, 6.0));
                let mut nb = |cond: bool, j: usize| {
                    if cond {
                        entries.push((me, j, -1.0));
                    }
                };
                nb(x > 0, me.wrapping_sub(1));
                nb(x + 1 < nx, me + 1);
                nb(y > 0, me.wrapping_sub(nx));
                nb(y + 1 < ny, me + nx);
                nb(z > 0, me.wrapping_sub(nx * ny));
                nb(z + 1 < nz, me + nx * ny);
            }
        }
    }
    CsrMatrix::from_coo(n, n, entries)
}

/// Synthetic structural-FEM matrix with the `Benchmark1` shape: nodes on an
/// `nx × ny × nz` grid, `DOF_PER_NODE = 3` displacement components per node,
/// full 3×3 coupling blocks to each of the 27 neighbouring nodes. Entries
/// are deterministic pseudo-random but symmetric, and the diagonal is lifted
/// to make the matrix strictly diagonally dominant (hence SPD).
pub fn structural3d(nx: usize, ny: usize, nz: usize) -> CsrMatrix {
    const DOF: usize = 3;
    let nodes = nx * ny * nz;
    let n = nodes * DOF;
    let node_idx = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
    // Deterministic symmetric coupling weight for an (node a, node b) pair.
    let coupling = |a: usize, b: usize, da: usize, db: usize| -> f64 {
        let (lo, hi) = if (a, da) <= (b, db) {
            ((a, da), (b, db))
        } else {
            ((b, db), (a, da))
        };
        let h = (lo.0 as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(hi.0 as u64)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add((lo.1 * 3 + hi.1) as u64 + 1);
        let r = ((h >> 11) % 1000) as f64 / 1000.0; // [0, 1)
        -(0.2 + 0.8 * r) // negative off-diagonal couplings
    };
    let mut entries: Vec<(usize, usize, f64)> = Vec::new();
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let a = node_idx(x, y, z);
                for dz in -1i64..=1 {
                    let zz = z as i64 + dz;
                    if zz < 0 || zz >= nz as i64 {
                        continue;
                    }
                    for dy in -1i64..=1 {
                        let yy = y as i64 + dy;
                        if yy < 0 || yy >= ny as i64 {
                            continue;
                        }
                        for dx in -1i64..=1 {
                            let xx = x as i64 + dx;
                            if xx < 0 || xx >= nx as i64 {
                                continue;
                            }
                            let b = node_idx(xx as usize, yy as usize, zz as usize);
                            for da in 0..DOF {
                                for db in 0..DOF {
                                    if a == b && da == db {
                                        continue; // diagonal handled below
                                    }
                                    entries.push((
                                        a * DOF + da,
                                        b * DOF + db,
                                        coupling(a, b, da, db),
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    // Strict diagonal dominance: diag = 1 + sum |off-diagonals in row|.
    let mut rowsum = vec![0.0f64; n];
    for &(r, _, v) in &entries {
        rowsum[r] += v.abs();
    }
    for (r, s) in rowsum.iter().enumerate() {
        entries.push((r, r, 1.0 + s));
    }
    CsrMatrix::from_coo(n, n, entries)
}

/// Average non-zeros per row of the `structural3d` family at large scale
/// (interior nodes: 27 neighbour nodes × 3 DoF couplings per DoF = 81).
pub fn structural3d_nnz_per_row_interior() -> f64 {
    81.0
}

/// A grid shape whose `structural3d` matrix approximates `Benchmark1`'s DoF
/// count: 147×147×147 nodes × 3 DoF = 9,529,569 ≈ 9,573,984.
pub fn benchmark1_equivalent_grid() -> (usize, usize, usize) {
    (147, 147, 147)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stencil27_interior_row_has_27_entries() {
        let a = stencil27(5, 5, 5);
        assert_eq!(a.rows(), 125);
        // Centre point (2,2,2) = index 62.
        let nnz_row: usize = a.row(62).count();
        assert_eq!(nnz_row, 27);
        assert_eq!(a.diag(62), 26.0);
        // Corner has 8 entries.
        assert_eq!(a.row(0).count(), 8);
    }

    #[test]
    fn stencil27_is_symmetric_and_weakly_dominant() {
        let a = stencil27(4, 3, 2);
        assert!(a.is_symmetric(1e-15));
        for r in 0..a.rows() {
            let off: f64 = a
                .row(r)
                .filter(|&(c, _)| c != r)
                .map(|(_, v)| v.abs())
                .sum();
            assert!(a.diag(r) >= off, "row {r} not diagonally dominant");
        }
    }

    #[test]
    fn stencil27_row_sums_are_nonnegative() {
        // Interior row sum is 26 - 26 = 0; boundary rows are positive.
        let a = stencil27(3, 3, 3);
        for r in 0..a.rows() {
            let s: f64 = a.row(r).map(|(_, v)| v).sum();
            assert!(s >= -1e-12);
        }
    }

    #[test]
    fn poisson7_matches_expectations() {
        let a = poisson7(3, 3, 3);
        assert_eq!(a.rows(), 27);
        assert!(a.is_symmetric(1e-15));
        assert_eq!(a.row(13).count(), 7); // centre
        assert_eq!(a.diag(13), 6.0);
    }

    #[test]
    fn structural3d_is_spd_shaped() {
        let a = structural3d(3, 3, 3);
        assert_eq!(a.rows(), 81);
        assert!(a.is_symmetric(1e-12), "structural matrix must be symmetric");
        for r in 0..a.rows() {
            let off: f64 = a
                .row(r)
                .filter(|&(c, _)| c != r)
                .map(|(_, v)| v.abs())
                .sum();
            assert!(a.diag(r) > off, "row {r} must be strictly dominant");
        }
    }

    #[test]
    fn structural3d_interior_density_matches_benchmark1() {
        let a = structural3d(5, 5, 5);
        // Interior node (2,2,2): 27 nodes x 3 dof = 81 per row.
        let node = (2 * 5 + 2) * 5 + 2;
        assert_eq!(a.row(node * 3).count(), 81);
        // Paper's Benchmark1 averages 72.7 nnz/row (boundary nodes bring the
        // interior 81 down); same order.
        let avg = BENCHMARK1_NNZ as f64 / BENCHMARK1_DOF as f64;
        assert!((avg - 72.71).abs() < 0.1);
    }

    #[test]
    fn benchmark1_grid_dof_close_to_paper() {
        let (x, y, z) = benchmark1_equivalent_grid();
        let dof = (x * y * z * 3) as f64;
        let rel = (dof - BENCHMARK1_DOF as f64).abs() / BENCHMARK1_DOF as f64;
        assert!(rel < 0.01, "grid within 1% of Benchmark1 DoF: {rel}");
    }
}
