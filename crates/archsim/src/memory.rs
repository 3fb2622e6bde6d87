//! Memory system models: capacity, NUMA/CMG domains, sustained bandwidth,
//! and the cache hierarchy.
//!
//! The A64FX is the interesting case: it has four Core Memory Groups (CMGs),
//! each with 12 user cores, an 8 MiB slice of L2, and 8 GiB of directly
//! attached HBM2 delivering 256 GB/s — about 1 TB/s peak for the package.
//! The x86 and ThunderX2 systems are conventional dual-socket NUMA nodes with
//! DDR3/DDR4 channels.
//!
//! Sustained (STREAM-triad-like) bandwidth is carried separately from peak:
//! the cost model always uses sustained numbers, because that is what bounds
//! the memory-bound kernels that dominate the paper's benchmarks.

/// The memory technology attached to a domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryKind {
    /// High Bandwidth Memory, 2nd generation (A64FX).
    Hbm2,
    /// DDR3 SDRAM (ARCHER / Cray XC30).
    Ddr3,
    /// DDR4 SDRAM (Cirrus, EPCC NGIO, Fulhame).
    Ddr4,
}

impl MemoryKind {
    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            MemoryKind::Hbm2 => "HBM2",
            MemoryKind::Ddr3 => "DDR3",
            MemoryKind::Ddr4 => "DDR4",
        }
    }
}

/// One level of the on-chip cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheLevel {
    /// Cache level (1, 2, 3).
    pub level: u8,
    /// Capacity in KiB. For shared caches this is the capacity of the shared
    /// slice (e.g. 8 MiB per A64FX CMG).
    pub capacity_kib: u64,
    /// Cache line size in bytes.
    pub line_bytes: u32,
    /// Number of cores sharing this cache instance.
    pub shared_by_cores: u32,
}

impl CacheLevel {
    /// Capacity of one cache instance in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_kib * 1024
    }

    /// Capacity available to one core in bytes: private caches give a core
    /// the whole instance, shared caches an even slice.
    pub fn capacity_bytes_per_core(&self) -> u64 {
        self.capacity_bytes() / u64::from(self.shared_by_cores.max(1))
    }

    /// Sustained per-core transfer bandwidth of this level in bytes/cycle.
    ///
    /// Derived from the level and line size rather than stored per system:
    /// the 256 B-line levels are the A64FX's (Snippet 1/3: L1 streams two
    /// 512-bit SVE loads per cycle = 128 B/cy, L2 sustains ~42 B/cy per
    /// core), while 64 B-line levels get conventional x86/Arm figures
    /// (one-to-two cache lines per cycle at L1, roughly half that at L2,
    /// and a ring/mesh-limited L3).
    pub fn sustained_bytes_per_cycle_per_core(&self) -> f64 {
        match (self.level, self.line_bytes) {
            (1, 256) => 128.0,
            (1, _) => 64.0,
            (2, 256) => 42.0,
            (2, _) => 32.0,
            _ => 16.0,
        }
    }

    /// Load-use latency of this level in core cycles (Snippet 1/3 for the
    /// 256 B-line A64FX hierarchy; typical published figures elsewhere).
    pub fn latency_cycles(&self) -> f64 {
        match (self.level, self.line_bytes) {
            (1, 256) => 5.0,
            (1, _) => 4.0,
            (2, 256) => 40.0,
            (2, _) => 14.0,
            _ => 40.0,
        }
    }
}

/// A memory locality domain: a NUMA node on x86/ThunderX2 or a CMG on the
/// A64FX. Bandwidth is *per domain*; a node's total sustained bandwidth is
/// the sum over its domains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryDomain {
    /// Memory technology backing the domain.
    pub kind: MemoryKind,
    /// Capacity of this domain in GiB.
    pub capacity_gib: f64,
    /// Peak (spec-sheet) bandwidth in GB/s.
    pub peak_bw_gbs: f64,
    /// Sustained STREAM-triad bandwidth in GB/s, as measurable by a full
    /// complement of cores in the domain.
    pub sustained_bw_gbs: f64,
    /// Idle-load latency to this domain in nanoseconds.
    pub latency_ns: f64,
    /// Number of cores whose first-touch allocations land here.
    pub cores: u32,
}

/// The full per-node memory system: a set of identical locality domains plus
/// the cache hierarchy description of the constituent processor(s).
#[derive(Debug, Clone, PartialEq)]
pub struct MemorySystem {
    /// Identical locality domains (4 CMGs on A64FX, 2 sockets elsewhere).
    pub domains: Vec<MemoryDomain>,
    /// Cache hierarchy, innermost first.
    pub caches: Vec<CacheLevel>,
}

impl MemorySystem {
    /// Build a memory system of `n` identical domains.
    pub fn uniform(domain: MemoryDomain, n: usize, caches: Vec<CacheLevel>) -> Self {
        MemorySystem {
            domains: vec![domain; n],
            caches,
        }
    }

    /// Total node capacity in GiB.
    pub fn total_capacity_gib(&self) -> f64 {
        self.domains.iter().map(|d| d.capacity_gib).sum()
    }

    /// Total node capacity in bytes.
    pub fn total_capacity_bytes(&self) -> u64 {
        (self.total_capacity_gib() * 1024.0 * 1024.0 * 1024.0) as u64
    }

    /// Total sustained node bandwidth in GB/s (all domains driven together).
    pub fn sustained_bw_gbs(&self) -> f64 {
        self.domains.iter().map(|d| d.sustained_bw_gbs).sum()
    }

    /// Total peak node bandwidth in GB/s.
    pub fn peak_bw_gbs(&self) -> f64 {
        self.domains.iter().map(|d| d.peak_bw_gbs).sum()
    }

    /// Number of locality domains.
    pub fn num_domains(&self) -> usize {
        self.domains.len()
    }

    /// Total cores covered by the domains.
    pub fn total_cores(&self) -> u32 {
        self.domains.iter().map(|d| d.cores).sum()
    }

    /// Sustained bandwidth available to a single process that is pinned to
    /// one domain and uses `cores_used` of its cores. A single core cannot
    /// saturate a domain; saturation is modelled as linear up to
    /// `saturation_cores` and flat beyond.
    ///
    /// `saturation_cores` is the number of cores needed to reach the domain's
    /// sustained bandwidth — about 4 for DDR sockets and 8–10 for an HBM CMG.
    pub fn domain_bw_for_cores(
        &self,
        domain: usize,
        cores_used: u32,
        saturation_cores: u32,
    ) -> f64 {
        let d = &self.domains[domain.min(self.domains.len() - 1)];
        let frac = f64::from(cores_used.min(saturation_cores)) / f64::from(saturation_cores.max(1));
        d.sustained_bw_gbs * frac.min(1.0)
    }

    /// The bandwidth share seen by each of `ranks` processes spread evenly
    /// across all domains with all cores active (the fully-populated node
    /// case used for the paper's per-node benchmarks).
    pub fn bw_share_fully_populated(&self, ranks: u32) -> f64 {
        if ranks == 0 {
            return 0.0;
        }
        self.sustained_bw_gbs() / f64::from(ranks)
    }

    /// Capacity of the last-level cache summed across the node, in bytes.
    pub fn llc_total_bytes(&self) -> u64 {
        self.caches
            .iter()
            .max_by_key(|c| c.level)
            .map(|c| {
                let instances =
                    (f64::from(self.total_cores()) / f64::from(c.shared_by_cores)).ceil() as u64;
                c.capacity_kib * 1024 * instances
            })
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a64fx_like() -> MemorySystem {
        MemorySystem::uniform(
            MemoryDomain {
                kind: MemoryKind::Hbm2,
                capacity_gib: 8.0,
                peak_bw_gbs: 256.0,
                sustained_bw_gbs: 210.0,
                latency_ns: 120.0,
                cores: 12,
            },
            4,
            vec![
                CacheLevel {
                    level: 1,
                    capacity_kib: 64,
                    line_bytes: 256,
                    shared_by_cores: 1,
                },
                CacheLevel {
                    level: 2,
                    capacity_kib: 8 * 1024,
                    line_bytes: 256,
                    shared_by_cores: 12,
                },
            ],
        )
    }

    #[test]
    fn a64fx_capacity_and_bandwidth_sum_over_cmgs() {
        let m = a64fx_like();
        assert!((m.total_capacity_gib() - 32.0).abs() < 1e-12);
        assert!((m.peak_bw_gbs() - 1024.0).abs() < 1e-12);
        assert!((m.sustained_bw_gbs() - 840.0).abs() < 1e-12);
        assert_eq!(m.total_cores(), 48);
        assert_eq!(m.num_domains(), 4);
    }

    #[test]
    fn llc_counts_all_cmg_slices() {
        let m = a64fx_like();
        // 4 CMGs x 8 MiB = 32 MiB.
        assert_eq!(m.llc_total_bytes(), 32 * 1024 * 1024);
    }

    #[test]
    fn single_core_cannot_saturate_domain() {
        let m = a64fx_like();
        let one = m.domain_bw_for_cores(0, 1, 10);
        let full = m.domain_bw_for_cores(0, 12, 10);
        assert!(one < full);
        assert!((full - 210.0).abs() < 1e-12);
        assert!((one - 21.0).abs() < 1e-12);
    }

    #[test]
    fn per_level_throughput_matches_a64fx_snippets() {
        let m = a64fx_like();
        let l1 = &m.caches[0];
        let l2 = &m.caches[1];
        // Snippet 3: L1 128 B/cy @ ~5 cy, L2 ~42 B/cy @ ~40 cy.
        assert_eq!(l1.sustained_bytes_per_cycle_per_core(), 128.0);
        assert_eq!(l1.latency_cycles(), 5.0);
        assert_eq!(l2.sustained_bytes_per_cycle_per_core(), 42.0);
        assert_eq!(l2.latency_cycles(), 40.0);
        // Private L1: whole 64 KiB; shared L2: an even 1/12 slice per core.
        assert_eq!(l1.capacity_bytes_per_core(), 64 * 1024);
        assert_eq!(l2.capacity_bytes_per_core(), 8 * 1024 * 1024 / 12);
    }

    #[test]
    fn bw_share_divides_evenly() {
        let m = a64fx_like();
        assert!((m.bw_share_fully_populated(48) - 840.0 / 48.0).abs() < 1e-12);
        assert_eq!(m.bw_share_fully_populated(0), 0.0);
    }
}
