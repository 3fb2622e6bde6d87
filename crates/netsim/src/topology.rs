//! Interconnect topologies: TofuD 6-D torus, Aries dragonfly, and fat trees.
//!
//! A topology maps compute-node indices to switch-hop counts between them.
//! Hop counts feed the per-hop latency term of the LogGP link model; the
//! bisection-bandwidth factor derates large collective operations that cross
//! the network's narrowest cut.

use archsim::InterconnectKind;

/// A network topology over `num_nodes` compute nodes.
pub trait Topology: Send + Sync + std::fmt::Debug {
    /// Number of compute nodes the topology connects.
    fn num_nodes(&self) -> usize;

    /// Number of switch/router hops on the route between two nodes.
    /// `hops(a, a) == 0`.
    fn hops(&self, a: usize, b: usize) -> u32;

    /// The worst-case hop count (network diameter).
    fn diameter(&self) -> u32;

    /// Ratio of bisection bandwidth to full injection bandwidth, in (0, 1].
    /// 1.0 means non-blocking (full bisection, e.g. Fulhame's fat tree).
    fn bisection_factor(&self) -> f64;

    /// Human-readable topology name.
    fn name(&self) -> &'static str;

    /// Assign `node` to one of `shards` spatially coherent regions for the
    /// sharded DES engine. Implementations should keep topological
    /// neighbours together (axis slabs on a torus, leaf pods on a fat tree)
    /// so most event traffic stays shard-local; the default is a
    /// deterministic hash spread for topologies with no exploitable
    /// locality. The returned shard is always `< shards`.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    fn shard_of(&self, node: usize, shards: usize) -> usize {
        assert!(shards > 0, "need at least one shard");
        // splitmix64 finalizer: deterministic, well-spread hash fallback.
        let mut h = node as u64;
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        (h % shards as u64) as usize
    }
}

/// A 6-dimensional torus as used by Fujitsu's TofuD (coordinates
/// (x, y, z, a, b, c) with the (a, b, c) sub-torus of shape 2×3×2 forming
/// the 12-node unit group, as on Fugaku).
#[derive(Debug, Clone)]
pub struct Torus6d {
    dims: [usize; 6],
    /// Per axis, the multiplier `ceil(2^64 / d)` that divides a node id by
    /// the axis length `d` without a division instruction (see `coords`);
    /// 0 for a 1-long axis, whose multiplier 2^64 does not fit.
    inverse: [u64; 6],
}

impl Torus6d {
    /// Build a torus with the given per-dimension sizes.
    ///
    /// # Panics
    /// Panics if any dimension is zero, or if the node count does not fit
    /// `u32` (the range on which `coords` decodes exactly).
    pub fn new(dims: [usize; 6]) -> Self {
        assert!(
            dims.iter().all(|&d| d > 0),
            "torus dimensions must be positive"
        );
        let nodes = dims.iter().try_fold(1u64, |n, &d| n.checked_mul(d as u64));
        assert!(
            nodes.is_some_and(|n| n <= u64::from(u32::MAX)),
            "a {dims:?} torus has more nodes than fit u32"
        );
        let inverse = dims.map(|d| if d == 1 { 0 } else { u64::MAX / d as u64 + 1 });
        Torus6d { dims, inverse }
    }

    /// The TofuD layout for an `n`-node system: `ceil(n / 12)` unit groups
    /// of shape (a, b, c) = 2×3×2, with the group count factored exactly
    /// into x·y·z as close to a cube as its divisors allow (a prime count
    /// becomes a ring). Node ids vary x fastest (see `coords`), so
    /// consecutive ids step across unit groups and the unit-group axes
    /// vary slowest. The 48-node A64FX test system becomes a 1×2×2
    /// arrangement of unit groups.
    pub fn tofu_d(n: usize) -> Self {
        assert!(n > 0, "need at least one node");
        let group = 12; // 2*3*2 unit group
        let groups = n.div_ceil(group);
        // Factor `groups` into x*y*z as close to a cube as possible.
        let mut best = (groups, 1, 1);
        let mut best_score = usize::MAX;
        for x in 1..=groups {
            if groups % x != 0 {
                continue;
            }
            let yz = groups / x;
            for y in 1..=yz {
                if yz % y != 0 {
                    continue;
                }
                let z = yz / y;
                let score = x.max(y).max(z) - x.min(y).min(z);
                if score < best_score {
                    best_score = score;
                    best = (x, y, z);
                }
            }
        }
        Torus6d::new([best.0, best.1, best.2, 2, 3, 2])
    }

    /// Coordinates of node `idx`, x fastest: `idx % d` per axis, dividing
    /// `idx` by each axis length `d` in turn. Each quotient is the high
    /// word of `idx * ceil(2^64 / d)`, which is exact whenever `idx` and `d`
    /// fit `u32` (Lemire, Kaser and Kurz, "Faster remainder by direct
    /// computation", 2019). D1's leader flights call `hops` millions of
    /// times, and a per-node coordinate table would cost 48 bytes a node.
    ///
    /// # Panics
    /// Panics if `idx` does not fit `u32`.
    fn coords(&self, idx: usize) -> [usize; 6] {
        let mut idx = u64::from(u32::try_from(idx).expect("torus node ids fit u32"));
        let mut c = [0usize; 6];
        for ((c, &d), &inverse) in c.iter_mut().zip(&self.dims).zip(&self.inverse) {
            if inverse != 0 {
                let q = ((u128::from(inverse) * u128::from(idx)) >> 64) as u64;
                *c = (idx - q * d as u64) as usize;
                idx = q;
            }
        }
        c
    }

    fn ring_dist(len: usize, a: usize, b: usize) -> u32 {
        let d = a.abs_diff(b);
        d.min(len - d) as u32
    }
}

impl Topology for Torus6d {
    fn num_nodes(&self) -> usize {
        self.dims.iter().product()
    }

    fn hops(&self, a: usize, b: usize) -> u32 {
        let ca = self.coords(a);
        let cb = self.coords(b);
        (0..6)
            .map(|i| Self::ring_dist(self.dims[i], ca[i], cb[i]))
            .sum()
    }

    fn diameter(&self) -> u32 {
        (0..6).map(|i| (self.dims[i] / 2) as u32).sum()
    }

    fn bisection_factor(&self) -> f64 {
        // A torus halves; the cut in the largest dimension carries
        // 2 * (product of other dims) links for N/2 nodes each side.
        let max_dim = *self.dims.iter().max().unwrap();
        if max_dim <= 2 {
            1.0
        } else {
            (4.0 / max_dim as f64).min(1.0)
        }
    }

    fn name(&self) -> &'static str {
        "TofuD 6-D torus"
    }

    fn shard_of(&self, node: usize, shards: usize) -> usize {
        assert!(shards > 0, "need at least one shard");
        // Slab-partition along the largest of the extensible x/y/z axes:
        // contiguous coordinate slabs keep each shard a spatially compact
        // block of the torus, so nearest-neighbour and tree traffic is
        // mostly shard-local. Empty shards (shards > axis length) are fine —
        // the engine just sees idle queues.
        let axis = (0..3).max_by_key(|&i| self.dims[i]).unwrap();
        let len = self.dims[axis];
        let c = self.coords(node)[axis];
        (c * shards / len).min(shards - 1)
    }
}

/// A dragonfly topology (Cray Aries): all-to-all connected groups of
/// routers, each router hosting a few nodes.
#[derive(Debug, Clone)]
pub struct Dragonfly {
    nodes_per_router: usize,
    routers_per_group: usize,
    num_nodes: usize,
}

impl Dragonfly {
    /// Build a dragonfly for `n` nodes with the Aries-like shape of 4 nodes
    /// per router and 96 routers per group.
    pub fn aries(n: usize) -> Self {
        assert!(n > 0);
        Dragonfly {
            nodes_per_router: 4,
            routers_per_group: 96,
            num_nodes: n,
        }
    }

    /// Build with explicit shape (used by tests and ablations).
    pub fn new(n: usize, nodes_per_router: usize, routers_per_group: usize) -> Self {
        assert!(n > 0 && nodes_per_router > 0 && routers_per_group > 0);
        Dragonfly {
            nodes_per_router,
            routers_per_group,
            num_nodes: n,
        }
    }

    fn router_of(&self, node: usize) -> usize {
        node / self.nodes_per_router
    }

    fn group_of(&self, node: usize) -> usize {
        self.router_of(node) / self.routers_per_group
    }
}

impl Topology for Dragonfly {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn hops(&self, a: usize, b: usize) -> u32 {
        if a == b {
            0
        } else if self.router_of(a) == self.router_of(b) {
            1 // through the shared router
        } else if self.group_of(a) == self.group_of(b) {
            2 // router -> router inside the group (all-to-all in 2 tiers)
        } else {
            // router -> group gateway -> remote group -> router: minimal
            // global route is 3–5 hops; Aries adaptive routing averages ~4.
            4
        }
    }

    fn diameter(&self) -> u32 {
        if self.num_nodes <= self.nodes_per_router {
            1
        } else if self.num_nodes <= self.nodes_per_router * self.routers_per_group {
            2
        } else {
            5
        }
    }

    fn bisection_factor(&self) -> f64 {
        // Aries dragonfly is provisioned at roughly half bisection.
        0.5
    }

    fn name(&self) -> &'static str {
        "Aries dragonfly"
    }
}

/// A two-level fat tree (leaf + spine), as used by the InfiniBand and
/// OmniPath systems. `oversubscription` of 1.0 is non-blocking.
#[derive(Debug, Clone)]
pub struct FatTree {
    nodes_per_leaf: usize,
    num_nodes: usize,
    oversubscription: f64,
}

impl FatTree {
    /// A non-blocking fat tree with 32-port leaf switches (Fulhame EDR).
    pub fn nonblocking(n: usize) -> Self {
        FatTree {
            nodes_per_leaf: 32,
            num_nodes: n,
            oversubscription: 1.0,
        }
    }

    /// A fat tree with explicit leaf size and oversubscription ratio
    /// (Cirrus FDR and NGIO OmniPath are mildly oversubscribed).
    pub fn with_oversubscription(n: usize, nodes_per_leaf: usize, ratio: f64) -> Self {
        assert!(n > 0 && nodes_per_leaf > 0 && ratio >= 1.0);
        FatTree {
            nodes_per_leaf,
            num_nodes: n,
            oversubscription: ratio,
        }
    }

    fn leaf_of(&self, node: usize) -> usize {
        node / self.nodes_per_leaf
    }

    /// Switch levels in the tree: 1 when every node hangs off one leaf
    /// switch, 2 (leaf + spine) otherwise. Any up-down route traverses at
    /// most `2 * levels - 1` switches, so `hops <= 2 * levels` is the
    /// structural bound the conformance property tests assert.
    pub fn levels(&self) -> u32 {
        if self.num_nodes <= self.nodes_per_leaf {
            1
        } else {
            2
        }
    }
}

impl Topology for FatTree {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn hops(&self, a: usize, b: usize) -> u32 {
        if a == b {
            0
        } else if self.leaf_of(a) == self.leaf_of(b) {
            1 // up-down through the leaf switch
        } else {
            3 // leaf -> spine -> leaf
        }
    }

    fn diameter(&self) -> u32 {
        if self.num_nodes <= self.nodes_per_leaf {
            1
        } else {
            3
        }
    }

    fn bisection_factor(&self) -> f64 {
        1.0 / self.oversubscription
    }

    fn name(&self) -> &'static str {
        "fat tree"
    }

    fn shard_of(&self, node: usize, shards: usize) -> usize {
        assert!(shards > 0, "need at least one shard");
        // Pod partitioning: whole leaf switches go to one shard, and
        // consecutive leaves form contiguous pods, so intra-leaf (1-hop)
        // traffic never crosses a shard boundary.
        let num_leaves = self.num_nodes.div_ceil(self.nodes_per_leaf);
        (self.leaf_of(node) * shards / num_leaves).min(shards - 1)
    }
}

/// Build the topology appropriate to an interconnect family, sized for
/// `n` nodes. This is how `simmpi` instantiates networks for the five paper
/// systems.
pub fn build_topology(kind: InterconnectKind, n: usize) -> Box<dyn Topology> {
    match kind {
        InterconnectKind::TofuD => Box::new(Torus6d::tofu_d(n)),
        InterconnectKind::Aries => Box::new(Dragonfly::aries(n)),
        // Cirrus FDR: 36-port leafs, ~2:1 blocking above the rack.
        InterconnectKind::FdrInfiniband => Box::new(FatTree::with_oversubscription(n, 36, 2.0)),
        InterconnectKind::EdrInfiniband => Box::new(FatTree::nonblocking(n)),
        // OmniPath on NGIO: 48-port edge, mild oversubscription.
        InterconnectKind::OmniPath => Box::new(FatTree::with_oversubscription(n, 48, 1.5)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torus_self_distance_zero() {
        let t = Torus6d::new([2, 2, 1, 2, 3, 2]);
        for i in 0..t.num_nodes() {
            assert_eq!(t.hops(i, i), 0);
        }
    }

    /// `coords` by division, as the torus decoded node ids before the
    /// multiply-shift decode.
    pub(super) fn coords_by_division(t: &Torus6d, mut idx: usize) -> [usize; 6] {
        t.dims.map(|d| {
            let c = idx % d;
            idx /= d;
            c
        })
    }

    #[test]
    fn multiply_shift_decode_matches_division_on_every_node() {
        let tori = [
            Torus6d::tofu_d(48),
            Torus6d::tofu_d(8192),
            Torus6d::tofu_d(131_072),
            Torus6d::new([1, 1, 1, 1, 1, 1]),
            Torus6d::new([7, 1, 5, 1, 1, 3]),
            Torus6d::new([1, 64, 1, 1, 3, 1]),
            Torus6d::new([2, 3, 2, 4, 8, 16]),
            Torus6d::new([331, 11, 3, 2, 3, 2]),
        ];
        for t in &tori {
            for idx in 0..t.num_nodes() {
                assert_eq!(
                    t.coords(idx),
                    coords_by_division(t, idx),
                    "{:?} node {idx}",
                    t.dims
                );
            }
        }
        assert_eq!(Torus6d::tofu_d(48).dims, [1, 2, 2, 2, 3, 2]);
        assert_eq!(Torus6d::tofu_d(8192).dims, [1, 1, 683, 2, 3, 2]);
    }

    #[test]
    fn multiply_shift_decode_is_exact_up_to_the_largest_u32_torus() {
        // 65535 * 65537 = u32::MAX: the largest node count `new` takes.
        let t = Torus6d::new([65_535, 1, 65_537, 1, 1, 1]);
        assert_eq!(t.num_nodes(), u32::MAX as usize);
        let edges = (0..4096).chain(u32::MAX as usize - 4096..u32::MAX as usize);
        let strided = (0..u32::MAX as usize).step_by(65_521);
        for idx in edges.chain(strided) {
            assert_eq!(t.coords(idx), coords_by_division(&t, idx), "node {idx}");
        }
    }

    #[test]
    #[should_panic(expected = "more nodes than fit u32")]
    fn torus_beyond_u32_nodes_is_refused() {
        Torus6d::new([65_536, 1, 1, 1, 1, 65_536]);
    }

    #[test]
    #[should_panic(expected = "more nodes than fit u32")]
    fn torus_whose_node_count_overflows_is_refused() {
        Torus6d::new([usize::MAX, 2, 1, 1, 1, 1]);
    }

    #[test]
    fn tofu_d_48_nodes() {
        let t = Torus6d::tofu_d(48);
        assert!(t.num_nodes() >= 48);
        assert!(t.diameter() <= 6);
    }

    #[test]
    fn torus_wraparound_shortens_routes() {
        let t = Torus6d::new([8, 1, 1, 1, 1, 1]);
        // 0 -> 7 is 1 hop via wraparound, not 7.
        assert_eq!(t.hops(0, 7), 1);
        assert_eq!(t.hops(0, 4), 4);
    }

    #[test]
    fn dragonfly_hop_tiers() {
        let d = Dragonfly::new(2000, 4, 96);
        assert_eq!(d.hops(0, 0), 0);
        assert_eq!(d.hops(0, 1), 1); // same router
        assert_eq!(d.hops(0, 5), 2); // same group, different router
        assert_eq!(d.hops(0, 4 * 96), 4); // different group
    }

    #[test]
    fn fat_tree_hop_tiers() {
        let f = FatTree::nonblocking(128);
        assert_eq!(f.hops(3, 3), 0);
        assert_eq!(f.hops(0, 31), 1);
        assert_eq!(f.hops(0, 32), 3);
        assert_eq!(f.bisection_factor(), 1.0);
    }

    #[test]
    fn oversubscribed_tree_derates_bisection() {
        let f = FatTree::with_oversubscription(128, 36, 2.0);
        assert!((f.bisection_factor() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn build_topology_round_trips_each_paper_system() {
        // Rebuilding every paper system's interconnect at its benchmarked
        // node count must cover the system, respect its own diameter, and
        // keep the published bisection behaviour (only the A64FX TofuD and
        // Fulhame EDR installations are non-blocking at paper scale).
        use archsim::{system, SystemId};
        for id in SystemId::all() {
            let spec = system(id);
            let n = spec.total_nodes as usize;
            let topo = build_topology(spec.interconnect, n);
            assert!(topo.num_nodes() >= n, "{:?}: topology too small", id);
            assert_eq!(topo.hops(0, 0), 0, "{id:?}");
            for node in [1, n / 2, n - 1] {
                let h = topo.hops(0, node);
                assert!(h <= topo.diameter(), "{id:?}: hops(0,{node}) > diameter");
                assert_eq!(topo.hops(0, node), topo.hops(node, 0), "{id:?}");
            }
            let b = topo.bisection_factor();
            assert!(b > 0.0 && b <= 1.0, "{id:?}");
            match id {
                SystemId::A64fx | SystemId::Fulhame => {
                    assert_eq!(b, 1.0, "{id:?} is non-blocking at paper scale")
                }
                _ => assert!(b < 1.0, "{id:?} is oversubscribed or tapered"),
            }
        }
    }

    #[test]
    fn torus_shards_are_contiguous_axis_slabs() {
        let t = Torus6d::new([8, 2, 1, 2, 3, 2]);
        let n = t.num_nodes();
        for shards in [1, 2, 4, 8] {
            // Every node lands in range, and the shard index is monotone in
            // the slab coordinate (x here, the largest axis).
            let mut seen = vec![false; shards];
            for node in 0..n {
                let s = t.shard_of(node, shards);
                assert!(s < shards);
                seen[s] = true;
            }
            assert!(seen.iter().all(|&b| b), "no empty shard at {shards} slabs");
        }
        // Nodes sharing all coords but x=0 vs x=7 sit in first/last shard.
        assert_eq!(t.shard_of(0, 4), 0);
        assert_eq!(t.shard_of(7, 4), 3);
    }

    #[test]
    fn fat_tree_shards_keep_leaves_whole() {
        let f = FatTree::nonblocking(128); // 4 leaves of 32
        for shards in [2, 4] {
            for node in 0..128 {
                let leaf_first = (node / 32) * 32;
                assert_eq!(
                    f.shard_of(node, shards),
                    f.shard_of(leaf_first, shards),
                    "leaf split across shards at node {node}"
                );
            }
        }
        // 4 leaves over 4 shards: one pod per shard.
        assert_eq!(f.shard_of(0, 4), 0);
        assert_eq!(f.shard_of(127, 4), 3);
    }

    #[test]
    fn hash_fallback_is_deterministic_and_in_range() {
        let d = Dragonfly::aries(2000);
        for shards in [1, 3, 7] {
            for node in [0, 1, 999, 1999] {
                let s = d.shard_of(node, shards);
                assert!(s < shards);
                assert_eq!(s, d.shard_of(node, shards), "hash must be stable");
            }
        }
        // The spread actually uses more than one shard on a real system.
        let used: std::collections::HashSet<_> = (0..2000).map(|n| d.shard_of(n, 4)).collect();
        assert_eq!(used.len(), 4);
    }

    #[test]
    fn build_topology_covers_all_kinds() {
        for kind in [
            InterconnectKind::TofuD,
            InterconnectKind::Aries,
            InterconnectKind::FdrInfiniband,
            InterconnectKind::EdrInfiniband,
            InterconnectKind::OmniPath,
        ] {
            let t = build_topology(kind, 16);
            assert!(t.num_nodes() >= 16);
            assert!(t.hops(0, 15) >= 1);
            assert!(t.hops(0, 15) <= t.diameter());
            assert!(t.bisection_factor() > 0.0 && t.bisection_factor() <= 1.0);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_topo() -> impl Strategy<Value = (Box<dyn Topology>, usize)> {
        (1usize..5, 1usize..5, 1usize..4, 0usize..3).prop_map(|(x, y, z, kind)| {
            let topo: Box<dyn Topology> = match kind {
                0 => Box::new(Torus6d::new([x, y, z, 2, 3, 2])),
                1 => Box::new(Dragonfly::new(x * y * z * 12, 4, 8)),
                _ => Box::new(FatTree::nonblocking(x * y * z * 12)),
            };
            let n = topo.num_nodes();
            (topo, n)
        })
    }

    proptest! {
        #[test]
        fn hops_symmetric_and_bounded((topo, n) in arb_topo(), a_s in 0usize..1000, b_s in 0usize..1000) {
            let a = a_s % n;
            let b = b_s % n;
            prop_assert_eq!(topo.hops(a, b), topo.hops(b, a));
            prop_assert!(topo.hops(a, b) <= topo.diameter());
            prop_assert_eq!(topo.hops(a, a), 0);
            if a != b {
                prop_assert!(topo.hops(a, b) >= 1);
            }
        }

        #[test]
        fn torus6d_hops_symmetric(
            dims in proptest::array::uniform6(1usize..5),
            a_s in 0usize..100_000,
            b_s in 0usize..100_000,
        ) {
            let t = Torus6d::new(dims);
            let n = t.num_nodes();
            let (a, b) = (a_s % n, b_s % n);
            prop_assert_eq!(t.hops(a, b), t.hops(b, a));
            prop_assert_eq!(t.hops(a, a), 0);
            prop_assert!(t.hops(a, b) <= t.diameter());
        }

        #[test]
        fn fat_tree_paths_bounded_by_twice_levels(
            n in 1usize..300,
            per_leaf in 1usize..64,
            ratio_pct in 100u32..400,
            a_s in 0usize..1000,
            b_s in 0usize..1000,
        ) {
            let f = FatTree::with_oversubscription(n, per_leaf, f64::from(ratio_pct) / 100.0);
            let (a, b) = (a_s % n, b_s % n);
            prop_assert!(f.hops(a, b) <= 2 * f.levels());
            prop_assert!(f.diameter() <= 2 * f.levels());
            if f.leaf_of(a) != f.leaf_of(b) {
                prop_assert_eq!(f.levels(), 2, "cross-leaf traffic implies a spine");
            }
        }

        #[test]
        fn multiply_shift_decode_matches_division(
            dims in proptest::array::uniform6(1usize..41),
            seeds in proptest::array::uniform4(0usize..usize::MAX),
        ) {
            // Up to 40^6, about 4.1e9 nodes: the decode's whole u32 range.
            let t = Torus6d::new(dims);
            let n = t.num_nodes();
            for idx in seeds.map(|s| s % n).into_iter().chain([0, n - 1]) {
                prop_assert_eq!(t.coords(idx), tests::coords_by_division(&t, idx));
            }
        }

        #[test]
        fn torus_triangle_inequality(
            dims in proptest::array::uniform6(1usize..4),
            seeds in proptest::array::uniform3(0usize..10_000),
        ) {
            let t = Torus6d::new(dims);
            let n = t.num_nodes();
            let (a, b, c) = (seeds[0] % n, seeds[1] % n, seeds[2] % n);
            prop_assert!(t.hops(a, c) <= t.hops(a, b) + t.hops(b, c));
        }
    }
}
