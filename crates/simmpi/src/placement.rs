//! Rank and thread placement over nodes, memory domains and cores.
//!
//! The paper's methodology pins processes and threads to cores
//! ("Reproducibility", §III) and explores process/thread mixes explicitly
//! (Figure 1: 2 A64FX nodes running 96×1, 48×2, 16×6, 8×12 or 4×24
//! ranks×threads). `Placement` captures such a configuration and answers the
//! questions the cost model needs: which node and memory domain a rank lives
//! on, how many cores it owns, and how many ranks share each domain.

use archsim::Node;

/// How ranks are distributed over a node's memory domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Fill domain 0's cores to capacity, then domain 1's, etc. (block
    /// placement; what you get without pinning on some MPI launchers).
    Packed,
    /// Deal ranks round-robin across domains (cyclic placement) — the usual
    /// best choice on the A64FX, giving each rank its own CMG slice.
    RoundRobinDomain,
}

/// A concrete layout of an MPI(+OpenMP) job on a system.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    ranks: u32,
    ranks_per_node: u32,
    threads_per_rank: u32,
    nodes_used: u32,
    domains_per_node: u32,
    cores_per_node: u32,
    policy: PlacementPolicy,
}

impl Placement {
    /// Lay out `ranks` MPI ranks, `ranks_per_node` to a node, each owning
    /// `threads_per_rank` cores, over nodes shaped like `node`.
    ///
    /// # Errors
    /// Returns a descriptive error if the layout oversubscribes cores
    /// (ranks×threads per node exceeding the hardware threads available) or
    /// is degenerate.
    pub fn new(
        ranks: u32,
        ranks_per_node: u32,
        threads_per_rank: u32,
        node: &Node,
        policy: PlacementPolicy,
    ) -> Result<Self, String> {
        if ranks == 0 || ranks_per_node == 0 || threads_per_rank == 0 {
            return Err("ranks, ranks_per_node and threads_per_rank must be positive".into());
        }
        let hw_threads = node.cores() * node.processor.smt.max_threads();
        let per_node = ranks_per_node * threads_per_rank;
        if per_node > hw_threads {
            return Err(format!(
                "oversubscribed: {ranks_per_node} ranks x {threads_per_rank} threads = {per_node} \
                 > {hw_threads} hardware threads per node"
            ));
        }
        let nodes_used = ranks.div_ceil(ranks_per_node);
        Ok(Placement {
            ranks,
            ranks_per_node,
            threads_per_rank,
            nodes_used,
            domains_per_node: node.memory.num_domains() as u32,
            cores_per_node: node.cores(),
            policy,
        })
    }

    /// Fully-populated MPI-only layout: one rank per core, all cores used.
    pub fn mpi_only_full_node(nodes: u32, node: &Node) -> Self {
        Placement::new(
            nodes * node.cores(),
            node.cores(),
            1,
            node,
            PlacementPolicy::RoundRobinDomain,
        )
        .expect("full-node MPI layout is always valid")
    }

    /// The paper's preferred A64FX hybrid layout: one rank per memory domain
    /// (CMG), threads filling the domain's cores.
    pub fn one_rank_per_domain(nodes: u32, node: &Node) -> Self {
        let dpn = node.memory.num_domains() as u32;
        Placement::new(
            nodes * dpn,
            dpn,
            node.cores() / dpn,
            node,
            PlacementPolicy::RoundRobinDomain,
        )
        .expect("one-rank-per-domain layout is always valid")
    }

    /// Total MPI ranks.
    pub fn ranks(&self) -> u32 {
        self.ranks
    }

    /// Ranks resident on each (full) node.
    pub fn ranks_per_node(&self) -> u32 {
        self.ranks_per_node
    }

    /// OpenMP threads (cores) owned by each rank.
    pub fn threads_per_rank(&self) -> u32 {
        self.threads_per_rank
    }

    /// Nodes the job occupies.
    pub fn nodes_used(&self) -> u32 {
        self.nodes_used
    }

    /// Total cores in use across the job.
    pub fn cores_used(&self) -> u32 {
        self.ranks * self.threads_per_rank
    }

    /// The node a rank runs on.
    pub fn node_of(&self, rank: u32) -> usize {
        (rank / self.ranks_per_node) as usize
    }

    /// The memory domain (NUMA node / CMG) a rank's first-touch memory is in.
    pub fn domain_of(&self, rank: u32) -> usize {
        let local = rank % self.ranks_per_node;
        match self.policy {
            PlacementPolicy::RoundRobinDomain => (local % self.domains_per_node) as usize,
            PlacementPolicy::Packed => {
                // Fill each domain's cores before moving to the next.
                let cores_per_domain = self.cores_per_node / self.domains_per_node;
                let capacity = (cores_per_domain / self.threads_per_rank).max(1);
                ((local / capacity) as usize).min(self.domains_per_node as usize - 1)
            }
        }
    }

    /// Number of ranks sharing the same memory domain as `rank` on its node.
    pub fn ranks_in_domain(&self, rank: u32) -> u32 {
        let node = self.node_of(rank);
        let dom = self.domain_of(rank);
        let lo = node as u32 * self.ranks_per_node;
        let hi = (lo + self.ranks_per_node).min(self.ranks);
        (lo..hi).filter(|&r| self.domain_of(r) == dom).count() as u32
    }

    /// Cores active in `rank`'s memory domain (its ranks × their threads).
    pub fn cores_active_in_domain(&self, rank: u32) -> u32 {
        self.ranks_in_domain(rank) * self.threads_per_rank
    }

    /// Per-node vector mapping each rank to its node, for the collectives'
    /// hierarchical decomposition.
    pub fn node_map(&self) -> Vec<usize> {
        (0..self.ranks).map(|r| self.node_of(r)).collect()
    }

    /// Ranks resident on the same node as `rank` (including itself).
    pub fn ranks_on_node(&self, rank: u32) -> u32 {
        let node = self.node_of(rank) as u32;
        let lo = node * self.ranks_per_node;
        let hi = (lo + self.ranks_per_node).min(self.ranks);
        hi - lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archsim::{system, SystemId};

    fn a64fx_node() -> Node {
        system(SystemId::A64fx).node
    }

    #[test]
    fn full_node_mpi_on_a64fx() {
        let p = Placement::mpi_only_full_node(2, &a64fx_node());
        assert_eq!(p.ranks(), 96);
        assert_eq!(p.nodes_used(), 2);
        assert_eq!(p.cores_used(), 96);
        assert_eq!(p.node_of(0), 0);
        assert_eq!(p.node_of(48), 1);
        assert_eq!(p.node_of(95), 1);
    }

    #[test]
    fn one_rank_per_cmg_is_the_paper_hybrid_config() {
        // Figure 1: 8 ranks x 12 threads on 2 A64FX nodes is fastest.
        let p = Placement::one_rank_per_domain(2, &a64fx_node());
        assert_eq!(p.ranks(), 8);
        assert_eq!(p.threads_per_rank(), 12);
        assert_eq!(p.ranks_per_node(), 4);
        for r in 0..8 {
            assert_eq!(p.ranks_in_domain(r), 1, "each CMG hosts exactly one rank");
            assert_eq!(p.cores_active_in_domain(r), 12);
        }
    }

    #[test]
    fn round_robin_spreads_across_domains() {
        let p = Placement::new(8, 4, 1, &a64fx_node(), PlacementPolicy::RoundRobinDomain).unwrap();
        // 4 ranks on node 0 land in domains 0,1,2,3.
        let doms: Vec<_> = (0..4).map(|r| p.domain_of(r)).collect();
        assert_eq!(doms, vec![0, 1, 2, 3]);
    }

    #[test]
    fn packed_fills_domains_to_core_capacity() {
        // 24 single-thread ranks on an A64FX node: packed placement fills
        // CMG 0's 12 cores, then CMG 1's.
        let p = Placement::new(24, 24, 1, &a64fx_node(), PlacementPolicy::Packed).unwrap();
        assert_eq!(p.domain_of(0), 0);
        assert_eq!(p.domain_of(11), 0);
        assert_eq!(p.domain_of(12), 1);
        assert_eq!(p.domain_of(23), 1);
        // An underpopulated packed job starves: all 4 ranks share CMG 0.
        let q = Placement::new(4, 4, 1, &a64fx_node(), PlacementPolicy::Packed).unwrap();
        for r in 0..4 {
            assert_eq!(q.domain_of(r), 0);
        }
        assert_eq!(q.ranks_in_domain(0), 4);
    }

    #[test]
    fn oversubscription_rejected_on_a64fx() {
        // A64FX has no SMT: 49 ranks x 1 thread per node must fail.
        let err = Placement::new(49, 49, 1, &a64fx_node(), PlacementPolicy::Packed);
        assert!(err.is_err());
        // ... and 48 ranks x 2 threads likewise.
        assert!(Placement::new(48, 48, 2, &a64fx_node(), PlacementPolicy::Packed).is_err());
    }

    #[test]
    fn smt_allows_oversubscription_on_thunderx2() {
        let node = system(SystemId::Fulhame).node;
        // 64 cores, SMT4: 128 ranks per node is legal.
        assert!(Placement::new(128, 128, 1, &node, PlacementPolicy::Packed).is_ok());
        assert!(Placement::new(257, 257, 1, &node, PlacementPolicy::Packed).is_err());
    }

    #[test]
    fn partial_last_node() {
        let p = Placement::new(100, 48, 1, &a64fx_node(), PlacementPolicy::Packed).unwrap();
        assert_eq!(p.nodes_used(), 3);
        assert_eq!(p.ranks_on_node(99), 4); // 100 - 96 on the last node
    }

    #[test]
    fn node_map_length_and_monotonicity() {
        let p = Placement::mpi_only_full_node(4, &a64fx_node());
        let m = p.node_map();
        assert_eq!(m.len(), 192);
        assert!(m.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*m.last().unwrap(), 3);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use archsim::{system, SystemId};
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn every_rank_has_consistent_domain(
            sys_pick in 0usize..5,
            nodes in 1u32..8,
            rpn_seed in 1u32..65,
            tpr in 1u32..4,
            policy_pick in 0u8..2,
        ) {
            let id = SystemId::all()[sys_pick];
            let node = system(id).node;
            let rpn = (rpn_seed % node.cores()).max(1);
            let policy = if policy_pick == 0 { PlacementPolicy::Packed } else { PlacementPolicy::RoundRobinDomain };
            if let Ok(p) = Placement::new(nodes * rpn, rpn, tpr, &node, policy) {
                for r in 0..p.ranks() {
                    prop_assert!(p.domain_of(r) < node.memory.num_domains());
                    prop_assert!(p.node_of(r) < p.nodes_used() as usize);
                    prop_assert!(p.ranks_in_domain(r) >= 1);
                    prop_assert!(p.ranks_in_domain(r) <= p.ranks_per_node());
                }
                // Sum of ranks per domain on node 0 equals ranks on node 0.
                let on0: u32 = (0..p.ranks()).filter(|&r| p.node_of(r) == 0).count() as u32;
                prop_assert_eq!(on0, p.ranks_on_node(0));
            }
        }
    }
}
