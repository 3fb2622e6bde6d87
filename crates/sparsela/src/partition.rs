//! Domain decomposition helpers.
//!
//! * [`Partition3d`] — HPCG/OpenSBLI-style 3-D block decomposition: factor
//!   the rank count into a px×py×pz grid, give each rank a sub-box, and
//!   account face-neighbour halo traffic.
//! * [`RowPartition`] — minikab-style contiguous row partition of a sparse
//!   matrix with halo volume derived from the matrix's actual coupling
//!   pattern.
//! * [`BlockPartition`] — COSA-style distribution of `b` grid blocks over
//!   `p` ranks: block `i` goes to rank `i % p` (round-robin), giving the
//!   paper's exact load-imbalance arithmetic (800 blocks on 768 ranks ⇒ 32
//!   ranks carry 2 blocks).

/// Factor `p` into three factors (px, py, pz) as close to a cube as
/// possible, preferring px ≥ py ≥ pz (the HPCG `GenerateGeometry` approach).
pub fn factor3(p: usize) -> (usize, usize, usize) {
    assert!(p > 0);
    let mut best = (p, 1, 1);
    let mut best_score = usize::MAX;
    for pz in 1..=p {
        if !p.is_multiple_of(pz) {
            continue;
        }
        let rem = p / pz;
        for py in 1..=rem {
            if !rem.is_multiple_of(py) {
                continue;
            }
            let px = rem / py;
            let score = px.max(py).max(pz) - px.min(py).min(pz);
            if score < best_score {
                best_score = score;
                best = (px, py, pz);
            }
        }
    }
    best
}

/// One rank's sub-box in a 3-D decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block3d {
    /// Rank coordinates in the process grid.
    pub coords: (usize, usize, usize),
    /// Local box dimensions (cells).
    pub dims: (usize, usize, usize),
}

impl Block3d {
    /// Cells in the block.
    pub fn cells(&self) -> usize {
        self.dims.0 * self.dims.1 * self.dims.2
    }

    /// Areas of the six faces, in cells: (x-, x+, y-, y+, z-, z+ are pairs).
    pub fn face_areas(&self) -> [usize; 3] {
        [
            self.dims.1 * self.dims.2,
            self.dims.0 * self.dims.2,
            self.dims.0 * self.dims.1,
        ]
    }
}

/// A 3-D block decomposition of a global `nx × ny × nz` grid over `p` ranks.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition3d {
    /// Process-grid shape.
    pub pgrid: (usize, usize, usize),
    /// Global grid shape.
    pub global: (usize, usize, usize),
    ranks: usize,
}

impl Partition3d {
    /// Decompose a global grid over `p` ranks. Dimensions need not divide
    /// exactly; leftover cells go to the low-coordinate ranks.
    pub fn new(global: (usize, usize, usize), p: usize) -> Self {
        let pgrid = factor3(p);
        Partition3d {
            pgrid,
            global,
            ranks: p,
        }
    }

    /// HPCG-style weak partition: every rank owns exactly `local` cells and
    /// the global grid is `local × pgrid`.
    pub fn weak(local: (usize, usize, usize), p: usize) -> Self {
        let pgrid = factor3(p);
        Partition3d {
            pgrid,
            global: (local.0 * pgrid.0, local.1 * pgrid.1, local.2 * pgrid.2),
            ranks: p,
        }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Rank coordinates in the process grid.
    pub fn coords_of(&self, rank: usize) -> (usize, usize, usize) {
        let (px, py, _) = self.pgrid;
        (rank % px, (rank / px) % py, rank / (px * py))
    }

    /// Rank id of process-grid coordinates.
    pub fn rank_of(&self, c: (usize, usize, usize)) -> usize {
        let (px, py, _) = self.pgrid;
        (c.2 * py + c.1) * px + c.0
    }

    fn split(n: usize, parts: usize, idx: usize) -> usize {
        // First (n % parts) parts get one extra cell.
        n / parts + usize::from(idx < n % parts)
    }

    /// The sub-box of `rank`.
    pub fn block(&self, rank: usize) -> Block3d {
        let c = self.coords_of(rank);
        Block3d {
            coords: c,
            dims: (
                Self::split(self.global.0, self.pgrid.0, c.0),
                Self::split(self.global.1, self.pgrid.1, c.1),
                Self::split(self.global.2, self.pgrid.2, c.2),
            ),
        }
    }

    /// Face-neighbour ranks of `rank` (up to 6).
    pub fn face_neighbours(&self, rank: usize) -> Vec<usize> {
        let (cx, cy, cz) = self.coords_of(rank);
        let (px, py, pz) = self.pgrid;
        let mut out = Vec::with_capacity(6);
        if cx > 0 {
            out.push(self.rank_of((cx - 1, cy, cz)));
        }
        if cx + 1 < px {
            out.push(self.rank_of((cx + 1, cy, cz)));
        }
        if cy > 0 {
            out.push(self.rank_of((cx, cy - 1, cz)));
        }
        if cy + 1 < py {
            out.push(self.rank_of((cx, cy + 1, cz)));
        }
        if cz > 0 {
            out.push(self.rank_of((cx, cy, cz - 1)));
        }
        if cz + 1 < pz {
            out.push(self.rank_of((cx, cy, cz + 1)));
        }
        out
    }

    /// Halo exchange pairs `(a, b, bytes)` for one ghost layer of width
    /// `halo_width` cells with `bytes_per_cell` payload. Each unordered
    /// neighbour pair appears once (symmetric exchange).
    pub fn halo_pairs(&self, halo_width: usize, bytes_per_cell: u64) -> Vec<(u32, u32, u64)> {
        let mut pairs = Vec::new();
        for r in 0..self.ranks {
            let blk = self.block(r);
            let (cx, cy, cz) = blk.coords;
            let areas = blk.face_areas();
            let mut push = |other: (usize, usize, usize), area: usize| {
                let o = self.rank_of(other);
                pairs.push((
                    r as u32,
                    o as u32,
                    (area * halo_width) as u64 * bytes_per_cell,
                ));
            };
            // Only the +x/+y/+z directions so each pair appears once.
            if cx + 1 < self.pgrid.0 {
                push((cx + 1, cy, cz), areas[0]);
            }
            if cy + 1 < self.pgrid.1 {
                push((cx, cy + 1, cz), areas[1]);
            }
            if cz + 1 < self.pgrid.2 {
                push((cx, cy, cz + 1), areas[2]);
            }
        }
        pairs
    }

    /// Maximum cells owned by any rank (load-balance metric).
    pub fn max_cells(&self) -> usize {
        (0..self.ranks)
            .map(|r| self.block(r).cells())
            .max()
            .unwrap_or(0)
    }

    /// Mean cells per rank.
    pub fn mean_cells(&self) -> f64 {
        (self.global.0 * self.global.1 * self.global.2) as f64 / self.ranks as f64
    }
}

/// Contiguous row partition of an `n`-row matrix over `p` ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowPartition {
    n: usize,
    p: usize,
}

impl RowPartition {
    /// Partition `n` rows over `p` ranks (first `n % p` ranks get one more).
    pub fn new(n: usize, p: usize) -> Self {
        assert!(p > 0 && n > 0);
        RowPartition { n, p }
    }

    /// Row range `[lo, hi)` of `rank`.
    pub fn range(&self, rank: usize) -> (usize, usize) {
        let base = self.n / self.p;
        let extra = self.n % self.p;
        let lo = rank * base + rank.min(extra);
        let hi = lo + base + usize::from(rank < extra);
        (lo, hi)
    }

    /// Rows owned by `rank`.
    pub fn count(&self, rank: usize) -> usize {
        let (lo, hi) = self.range(rank);
        hi - lo
    }

    /// Owner of row `r`.
    pub fn owner(&self, r: usize) -> usize {
        // Invert the `range` arithmetic.
        let base = self.n / self.p;
        let extra = self.n % self.p;
        let cut = extra * (base + 1);
        if r < cut {
            r / (base + 1)
        } else {
            extra + (r - cut) / base.max(1)
        }
    }
}

/// Round-robin distribution of `blocks` equally sized grid blocks over `p`
/// ranks — COSA's decomposition. Exposes the exact imbalance the paper
/// discusses for 800 blocks on 768 or 1024 ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockPartition {
    /// Total number of blocks in the simulation.
    pub blocks: usize,
    /// MPI ranks available.
    pub ranks: usize,
}

impl BlockPartition {
    /// Create a distribution.
    pub fn new(blocks: usize, ranks: usize) -> Self {
        assert!(blocks > 0 && ranks > 0);
        BlockPartition { blocks, ranks }
    }

    /// Blocks assigned to `rank`.
    pub fn blocks_of(&self, rank: usize) -> usize {
        let base = self.blocks / self.ranks;
        let extra = self.blocks % self.ranks;
        base + usize::from(rank < extra)
    }

    /// Number of ranks that receive at least one block ("active" ranks —
    /// on Fulhame at 16 nodes the paper notes only 800 of 1024 ranks work).
    pub fn active_ranks(&self) -> usize {
        self.ranks.min(self.blocks)
    }

    /// Maximum blocks on any rank.
    pub fn max_blocks(&self) -> usize {
        self.blocks_of(0)
    }

    /// Load imbalance factor: max blocks / mean blocks (≥ 1).
    pub fn imbalance(&self) -> f64 {
        self.max_blocks() as f64 * self.ranks as f64 / self.blocks as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor3_prefers_cubes() {
        assert_eq!(factor3(8), (2, 2, 2));
        assert_eq!(factor3(27), (3, 3, 3));
        let (a, b, c) = factor3(48);
        assert_eq!(a * b * c, 48);
        assert!(
            a.max(b).max(c) <= 4,
            "48 should factor as 4x4x3: got {a}x{b}x{c}"
        );
    }

    #[test]
    fn partition_covers_grid_exactly() {
        let p = Partition3d::new((80, 80, 80), 48);
        let total: usize = (0..48).map(|r| p.block(r).cells()).sum();
        assert_eq!(total, 80 * 80 * 80);
    }

    #[test]
    fn weak_partition_gives_uniform_blocks() {
        let p = Partition3d::weak((80, 80, 80), 16);
        for r in 0..16 {
            assert_eq!(p.block(r).cells(), 80 * 80 * 80);
        }
        assert_eq!(p.max_cells() as f64, p.mean_cells());
    }

    #[test]
    fn rank_coords_round_trip() {
        let p = Partition3d::new((64, 64, 64), 24);
        for r in 0..24 {
            assert_eq!(p.rank_of(p.coords_of(r)), r);
        }
    }

    #[test]
    fn face_neighbours_are_mutual() {
        let p = Partition3d::new((32, 32, 32), 12);
        for r in 0..12 {
            for n in p.face_neighbours(r) {
                assert!(p.face_neighbours(n).contains(&r), "{r} <-> {n}");
            }
        }
    }

    #[test]
    fn halo_pairs_unique_and_positive() {
        let p = Partition3d::weak((16, 16, 16), 8);
        let pairs = p.halo_pairs(1, 8);
        // 2x2x2 process grid: 12 internal faces.
        assert_eq!(pairs.len(), 12);
        for &(a, b, bytes) in &pairs {
            assert_ne!(a, b);
            assert_eq!(bytes, 16 * 16 * 8);
        }
    }

    #[test]
    fn row_partition_covers_all_rows() {
        let rp = RowPartition::new(103, 7);
        let total: usize = (0..7).map(|r| rp.count(r)).sum();
        assert_eq!(total, 103);
        for r in 0..103 {
            let o = rp.owner(r);
            let (lo, hi) = rp.range(o);
            assert!(lo <= r && r < hi, "row {r} owner {o} range {lo}..{hi}");
        }
    }

    #[test]
    fn cosa_800_blocks_on_768_ranks_matches_paper() {
        // Paper §VII.A: "800 blocks to be distributed amongst 768 processes,
        // leaving 32 processes with 2 blocks and the rest with 1 block".
        let bp = BlockPartition::new(800, 768);
        let with_two = (0..768).filter(|&r| bp.blocks_of(r) == 2).count();
        let with_one = (0..768).filter(|&r| bp.blocks_of(r) == 1).count();
        assert_eq!(with_two, 32);
        assert_eq!(with_one, 736);
        assert_eq!(bp.max_blocks(), 2);
        assert!((bp.imbalance() - 2.0 * 768.0 / 800.0).abs() < 1e-12);
    }

    #[test]
    fn cosa_1024_ranks_leaves_idle_ranks() {
        // Paper: on Fulhame at 16 nodes, 1024 ranks but only 800 blocks.
        let bp = BlockPartition::new(800, 1024);
        assert_eq!(bp.active_ranks(), 800);
        assert_eq!((0..1024).filter(|&r| bp.blocks_of(r) == 0).count(), 224);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn factor3_always_multiplies_back(p in 1usize..2000) {
            let (a, b, c) = factor3(p);
            prop_assert_eq!(a * b * c, p);
        }

        #[test]
        fn partition_cell_conservation(
            nx in 4usize..40, ny in 4usize..40, nz in 4usize..40, p in 1usize..64,
        ) {
            let part = Partition3d::new((nx, ny, nz), p);
            let total: usize = (0..p).map(|r| part.block(r).cells()).sum();
            prop_assert_eq!(total, nx * ny * nz);
            prop_assert!(part.max_cells() as f64 >= part.mean_cells());
        }

        #[test]
        fn row_partition_owner_consistent(n in 1usize..500, p in 1usize..32) {
            if n == 0 { return Ok(()); }
            let rp = RowPartition::new(n, p);
            let mut covered = 0;
            for rank in 0..p {
                covered += rp.count(rank);
            }
            prop_assert_eq!(covered, n);
            for r in (0..n).step_by((n / 17).max(1)) {
                let o = rp.owner(r);
                prop_assert!(o < p);
                let (lo, hi) = rp.range(o);
                prop_assert!(lo <= r && r < hi);
            }
        }

        #[test]
        fn block_partition_conserves_blocks(blocks in 1usize..2000, ranks in 1usize..1200) {
            let bp = BlockPartition::new(blocks, ranks);
            let total: usize = (0..ranks).map(|r| bp.blocks_of(r)).sum();
            prop_assert_eq!(total, blocks);
            prop_assert!(bp.imbalance() >= 1.0 - 1e-12);
        }
    }
}
