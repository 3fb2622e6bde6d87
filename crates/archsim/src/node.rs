//! Compute node models: one or two processor packages plus a memory system.

use crate::memory::MemorySystem;
use crate::processor::Processor;

/// A compute node: `sockets` identical processor packages sharing a
/// `MemorySystem`.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Number of processor packages (1 on the A64FX system, 2 elsewhere).
    pub sockets: u32,
    /// The processor in each socket.
    pub processor: Processor,
    /// Node memory system (domains cover all sockets).
    pub memory: MemorySystem,
}

impl Node {
    /// User-visible cores per node (Table I "Cores per node").
    pub fn cores(&self) -> u32 {
        self.sockets * self.processor.cores
    }

    /// Peak node double-precision GFLOP/s (Table I "Maximum node DP GFLOP/s").
    pub fn peak_dp_gflops(&self) -> f64 {
        f64::from(self.sockets) * self.processor.peak_dp_gflops()
    }

    /// Memory per node in GiB (Table I "Memory per node").
    pub fn memory_gib(&self) -> f64 {
        self.memory.total_capacity_gib()
    }

    /// Memory per core in GiB (Table I "Memory per core").
    pub fn memory_per_core_gib(&self) -> f64 {
        self.memory_gib() / f64::from(self.cores())
    }

    /// Sustained node memory bandwidth in GB/s.
    pub fn sustained_bw_gbs(&self) -> f64 {
        self.memory.sustained_bw_gbs()
    }

    /// Machine balance in bytes/flop at peak: sustained bandwidth over peak
    /// flops. Higher means memory-bound kernels run closer to peak.
    pub fn balance_bytes_per_flop(&self) -> f64 {
        self.sustained_bw_gbs() / self.peak_dp_gflops()
    }

    /// Whether a per-node working set of `bytes` fits in node memory, after
    /// reserving `reserve_frac` (OS, MPI buffers, page tables).
    pub fn fits_in_memory(&self, bytes: u64, reserve_frac: f64) -> bool {
        let usable = self.memory.total_capacity_bytes() as f64 * (1.0 - reserve_frac);
        (bytes as f64) <= usable
    }

    /// Cores per memory locality domain.
    pub fn cores_per_domain(&self) -> u32 {
        self.cores() / self.memory.num_domains() as u32
    }
}

#[cfg(test)]
mod tests {
    use crate::systems::{system, SystemId};

    #[test]
    fn table1_cores_per_node() {
        assert_eq!(system(SystemId::A64fx).node.cores(), 48);
        assert_eq!(system(SystemId::Archer).node.cores(), 24);
        assert_eq!(system(SystemId::Cirrus).node.cores(), 36);
        assert_eq!(system(SystemId::Ngio).node.cores(), 48);
        assert_eq!(system(SystemId::Fulhame).node.cores(), 64);
    }

    #[test]
    fn table1_peak_gflops() {
        let cases = [
            (SystemId::A64fx, 3379.2),
            (SystemId::Archer, 518.4),
            (SystemId::Cirrus, 1209.6),
            (SystemId::Ngio, 2662.4),
            (SystemId::Fulhame, 1126.4),
        ];
        for (id, want) in cases {
            let got = system(id).node.peak_dp_gflops();
            assert!(
                (got - want).abs() / want < 5e-3,
                "{id:?}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn table1_memory_per_node_and_core() {
        let a = system(SystemId::A64fx).node;
        assert!((a.memory_gib() - 32.0).abs() < 1e-9);
        assert!((a.memory_per_core_gib() - 0.666).abs() < 1e-2);
        let f = system(SystemId::Fulhame).node;
        assert!((f.memory_gib() - 256.0).abs() < 1e-9);
        assert!((f.memory_per_core_gib() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn a64fx_has_best_machine_balance() {
        // The paper's central observation: HBM2 gives the A64FX by far the
        // best bandwidth, which is why memory-bound codes win there.
        let a64fx = system(SystemId::A64fx).node.balance_bytes_per_flop();
        for id in [
            SystemId::Archer,
            SystemId::Cirrus,
            SystemId::Ngio,
            SystemId::Fulhame,
        ] {
            let other = system(id).node;
            assert!(
                system(SystemId::A64fx).node.sustained_bw_gbs() > 2.0 * other.sustained_bw_gbs(),
                "A64FX should have >2x the sustained bandwidth of {id:?}"
            );
            let _ = a64fx;
        }
    }

    #[test]
    fn memory_fit_check_reserves_headroom() {
        let a = system(SystemId::A64fx).node;
        let gib = 1024u64 * 1024 * 1024;
        assert!(a.fits_in_memory(20 * gib, 0.1));
        assert!(!a.fits_in_memory(31 * gib, 0.1));
    }
}
