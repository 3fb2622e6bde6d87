//! ECM-style memory-hierarchy kernel pricing.
//!
//! The flat roofline prices a kernel from one number — sustained memory
//! bandwidth times a per-(system, kernel-class) efficiency factor. That
//! reproduces the paper's tables but cannot explain *why* SpMV or SymGS
//! prices change with working-set size. This module prices the memory side
//! of a kernel from the hierarchy instead, in the style of the
//! Execution-Cache-Memory model (Alappat et al., "ECM modeling and
//! performance tuning of SpMV and Lattice QCD on A64FX", PAPERS.md):
//!
//! 1. The working set determines which levels the kernel's traffic streams
//!    through: a boundary below a cache that holds the whole working set
//!    carries (almost) nothing; a boundary below a cache far smaller than
//!    the working set carries the full volume.
//! 2. Each boundary moves its volume at the serving level's sustained
//!    per-core throughput ([`CacheLevel::sustained_bytes_per_cycle_per_core`],
//!    Snippet-1/3 A64FX figures: 256 B lines, 128 B/cy L1, ~42 B/cy L2),
//!    plus a latency term for the fraction of line fetches the hardware
//!    prefetcher fails to hide — which depends on the access pattern
//!    (Snippet 3: sequential streams prefetch nearly perfectly, gathers
//!    barely at all).
//! 3. The *memory* boundary is priced with the same calibrated sustained
//!    bandwidth the flat roofline uses, and the flat price is an explicit
//!    upper envelope ([`EcmModel::mem_time_us`]), so in the memory-bound
//!    limit (working set far beyond the last-level cache) the two backends
//!    agree — the ECM model converges to the flat model from below.
//!
//! The kernel's memory time is the slowest boundary (full overlap between
//! levels — the optimistic ECM variant, which matches the A64FX's combined
//! load/store pipelines better than the serial-sum variant). The compute
//! side is unchanged: `core::costmodel` takes `max(t_flop, t_mem)` exactly
//! as the flat backend does.

use crate::memory::{CacheLevel, MemorySystem};

/// How a kernel walks its working set — decides how well the hardware
/// prefetcher hides line-fetch latency (Snippet 3's pattern sweep).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPattern {
    /// Contiguous unit-stride streams (vector ops, dot products, axpy).
    Streaming,
    /// Constant non-unit strides (stencil sweeps, FFT butterflies and
    /// transposes).
    Strided,
    /// Data-dependent indirection (SpMV column gathers, SymGS).
    Gather,
}

impl AccessPattern {
    /// Fraction of line-fetch latency the hardware prefetcher hides for
    /// this pattern, in `[0, 1]`. Snippet 3's benchmark shape: sequential
    /// reads prefetch almost perfectly, fixed strides are tracked but
    /// with imperfect distance, indexed gathers defeat the stream
    /// detector almost entirely.
    pub fn prefetch_effectiveness(self) -> f64 {
        match self {
            AccessPattern::Streaming => 0.95,
            AccessPattern::Strided => 0.60,
            AccessPattern::Gather => 0.15,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            AccessPattern::Streaming => "streaming",
            AccessPattern::Strided => "strided",
            AccessPattern::Gather => "gather",
        }
    }

    /// All patterns, for sweeps.
    pub fn all() -> [AccessPattern; 3] {
        [
            AccessPattern::Streaming,
            AccessPattern::Strided,
            AccessPattern::Gather,
        ]
    }
}

/// One level of the ECM hierarchy: a cache with per-core capacity and
/// sustained throughput, and the latency a prefetch miss into it costs.
#[derive(Debug, Clone, PartialEq)]
pub struct EcmLevel {
    /// Display name ("L1", "L2", ...).
    pub name: String,
    /// Capacity available to one core, in bytes.
    pub capacity_bytes_per_core: u64,
    /// Sustained transfer throughput per core, bytes per cycle.
    pub bytes_per_cycle_per_core: f64,
    /// Load-use latency in core cycles.
    pub latency_cycles: f64,
    /// Line (transfer granule) size in bytes.
    pub line_bytes: u32,
}

/// The per-system ECM hierarchy: cache levels innermost first, plus the
/// core clock that converts cycles to time. The main-memory boundary is
/// *not* a level here — its bandwidth is supplied by the caller (the
/// calibrated roofline bandwidth), which is what makes the model collapse
/// onto the flat backend in the memory-bound limit.
#[derive(Debug, Clone, PartialEq)]
pub struct EcmModel {
    /// Cache levels, innermost first.
    pub levels: Vec<EcmLevel>,
    /// Core clock in GHz.
    pub clock_ghz: f64,
}

impl EcmModel {
    /// Derive the ECM hierarchy from a node's memory system description.
    pub fn for_system(mem: &MemorySystem, clock_ghz: f64) -> Self {
        let levels = mem
            .caches
            .iter()
            .map(|c: &CacheLevel| EcmLevel {
                name: format!("L{}", c.level),
                capacity_bytes_per_core: c.capacity_bytes_per_core(),
                bytes_per_cycle_per_core: c.sustained_bytes_per_cycle_per_core(),
                latency_cycles: c.latency_cycles(),
                line_bytes: c.line_bytes,
            })
            .collect();
        EcmModel { levels, clock_ghz }
    }

    /// Fraction of a rank's traffic that misses cache level `i` (0-based),
    /// for a per-rank working set of `ws_bytes` spread over `threads`
    /// cores. An unknown working set (0) is treated as unbounded — all
    /// traffic streams from below, which reproduces the flat model.
    ///
    /// The capacity model is the simple inclusive one: a cache of
    /// aggregate capacity `C` holding a working set `ws` serves `C/ws` of
    /// the traffic and misses the rest.
    fn miss_fraction(&self, level: usize, ws_bytes: u64, threads: u32) -> f64 {
        if ws_bytes == 0 {
            return 1.0;
        }
        let cap = self.levels[level].capacity_bytes_per_core as f64 * f64::from(threads.max(1));
        (1.0 - cap / ws_bytes as f64).clamp(0.0, 1.0)
    }

    /// Bytes crossing each hierarchy boundary for a kernel moving `bytes`
    /// with per-rank working set `ws_bytes` on `threads` cores.
    ///
    /// The result has `levels.len() + 1` entries: entry 0 is the
    /// core ↔ L1 boundary (always the full volume), entry `i` is the
    /// traffic missing cache level `i` (served by the level below), and
    /// the last entry is the main-memory boundary.
    pub fn transfer_volumes(&self, bytes: f64, ws_bytes: u64, threads: u32) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.levels.len() + 1);
        v.push(bytes);
        for i in 0..self.levels.len() {
            v.push(bytes * self.miss_fraction(i, ws_bytes, threads));
        }
        v
    }

    /// Bytes *served* by each level (caches innermost first, then main
    /// memory): the difference between what a level receives and what it
    /// passes down. Non-negative, and sums to `bytes`.
    pub fn level_served_bytes(&self, bytes: f64, ws_bytes: u64, threads: u32) -> Vec<f64> {
        let v = self.transfer_volumes(bytes, ws_bytes, threads);
        let mut served: Vec<f64> = v.windows(2).map(|w| (w[0] - w[1]).max(0.0)).collect();
        served.push(*v.last().unwrap());
        served
    }

    /// Time in µs to move the *cache* boundary volumes (every entry of
    /// [`Self::transfer_volumes`] except the last) on `threads` cores:
    /// each boundary's volume at its serving level's sustained throughput,
    /// plus the latency of the line fetches the prefetcher fails to hide.
    /// Full overlap between boundaries — the slowest one is the cost.
    pub fn cache_time_us(
        &self,
        bytes: f64,
        ws_bytes: u64,
        pattern: AccessPattern,
        threads: u32,
    ) -> f64 {
        let volumes = self.transfer_volumes(bytes, ws_bytes, threads);
        let unhidden = 1.0 - pattern.prefetch_effectiveness();
        let cycles_to_us = 1.0 / (f64::from(threads.max(1)) * self.clock_ghz * 1e3);
        let mut worst: f64 = 0.0;
        for (lvl, &v) in self.levels.iter().zip(&volumes) {
            let stream_cy = v / lvl.bytes_per_cycle_per_core;
            let lines = v / f64::from(lvl.line_bytes);
            let latency_cy = unhidden * lvl.latency_cycles * lines;
            worst = worst.max((stream_cy + latency_cy) * cycles_to_us);
        }
        worst
    }

    /// Memory-side kernel time in µs: the slowest of the cache boundaries
    /// and the main-memory boundary, capped at the flat roofline price.
    /// `mem_bw_gbs` is the rank's calibrated sustained memory bandwidth —
    /// the same figure the flat roofline divides by, so when the working
    /// set dwarfs every cache (all volumes → `bytes`) this returns
    /// (asymptotically) the flat answer.
    ///
    /// The flat price `bytes / mem_bw_gbs` is an explicit *upper envelope*:
    /// the calibration behind `mem_bw_gbs` was fitted against kernels whose
    /// latency and pattern costs are already folded into the sustained
    /// figure, so the hierarchy refines the price only downward — cache
    /// residency can make a kernel cheaper than its memory-streaming
    /// price, never dearer. Without the cap, a gather's unhidden in-cache
    /// latency could overshoot the calibrated bandwidth price on
    /// low-clocked cache levels and break convergence from below.
    pub fn mem_time_us(
        &self,
        bytes: f64,
        ws_bytes: u64,
        pattern: AccessPattern,
        threads: u32,
        mem_bw_gbs: f64,
    ) -> f64 {
        let t_flat = bytes / (mem_bw_gbs * 1e3);
        let v_mem = *self
            .transfer_volumes(bytes, ws_bytes, threads)
            .last()
            .unwrap();
        let t_mem = v_mem / (mem_bw_gbs * 1e3);
        self.cache_time_us(bytes, ws_bytes, pattern, threads)
            .max(t_mem)
            .min(t_flat)
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::systems::{system, SystemId};
    use proptest::prelude::*;

    fn model() -> EcmModel {
        let spec = system(SystemId::A64fx);
        EcmModel::for_system(&spec.node.memory, spec.node.processor.clock_ghz)
    }

    proptest! {
        #[test]
        fn time_monotone_in_working_set(
            bytes in 1.0f64..1e9,
            ws_lo in 1u64..(1 << 30),
            ws_hi in 1u64..(1 << 30),
            threads in 1u32..48,
        ) {
            let (lo, hi) = (ws_lo.min(ws_hi), ws_lo.max(ws_hi));
            let m = model();
            let t_lo = m.mem_time_us(bytes, lo, AccessPattern::Gather, threads, 5.4);
            let t_hi = m.mem_time_us(bytes, hi, AccessPattern::Gather, threads, 5.4);
            prop_assert!(t_hi >= t_lo, "ws {lo}->{hi}: {t_lo} -> {t_hi}");
        }

        #[test]
        fn time_monotone_in_bytes(
            b_lo in 1.0f64..1e9,
            b_hi in 1.0f64..1e9,
            ws in 1u64..(1 << 30),
        ) {
            let (lo, hi) = (b_lo.min(b_hi), b_lo.max(b_hi));
            let m = model();
            let t_lo = m.mem_time_us(lo, ws, AccessPattern::Strided, 4, 17.5);
            let t_hi = m.mem_time_us(hi, ws, AccessPattern::Strided, 4, 17.5);
            prop_assert!(t_hi >= t_lo);
        }

        #[test]
        fn collapses_to_flat_when_levels_run_at_memory_bandwidth(
            bytes in 1.0f64..1e9,
            ws in 0u64..(1 << 30),
            threads in 1u32..48,
            bw in 1.0f64..1000.0,
        ) {
            // Give every cache level exactly the memory bandwidth and no
            // latency: the hierarchy becomes invisible and the model must
            // return the flat roofline time bytes / bw.
            let mut m = model();
            for lvl in &mut m.levels {
                lvl.bytes_per_cycle_per_core = bw / (m.clock_ghz * f64::from(threads));
                lvl.latency_cycles = 0.0;
            }
            let flat = bytes / (bw * 1e3);
            for pattern in AccessPattern::all() {
                let ecm = m.mem_time_us(bytes, ws, pattern, threads, bw);
                prop_assert!((ecm - flat).abs() <= 1e-9 * flat.max(1.0),
                    "{pattern:?}: ecm {ecm} flat {flat}");
            }
        }

        #[test]
        fn served_volumes_sum_to_traffic(
            bytes in 0.0f64..1e9,
            ws in 0u64..(1 << 34),
            threads in 1u32..48,
        ) {
            let m = model();
            let served = m.level_served_bytes(bytes, ws, threads);
            prop_assert_eq!(served.len(), m.levels.len() + 1);
            prop_assert!(served.iter().all(|&s| s >= 0.0));
            let sum: f64 = served.iter().sum();
            prop_assert!((sum - bytes).abs() <= 1e-9 * bytes.max(1.0));
        }

        #[test]
        fn volumes_never_grow_downward(
            bytes in 0.0f64..1e9,
            ws in 0u64..(1 << 34),
            threads in 1u32..48,
        ) {
            let m = model();
            let v = m.transfer_volumes(bytes, ws, threads);
            for w in v.windows(2) {
                prop_assert!(w[1] <= w[0] + 1e-9, "{v:?}");
            }
        }
    }

    #[test]
    fn prefetch_effectiveness_in_unit_interval() {
        for p in AccessPattern::all() {
            let e = p.prefetch_effectiveness();
            assert!((0.0..=1.0).contains(&e), "{p:?}: {e}");
        }
        // Ordering is the model's content: streams prefetch best, gathers worst.
        assert!(
            AccessPattern::Streaming.prefetch_effectiveness()
                > AccessPattern::Strided.prefetch_effectiveness()
        );
        assert!(
            AccessPattern::Strided.prefetch_effectiveness()
                > AccessPattern::Gather.prefetch_effectiveness()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems::{system, SystemId};

    fn a64fx_model() -> EcmModel {
        let spec = system(SystemId::A64fx);
        EcmModel::for_system(&spec.node.memory, spec.node.processor.clock_ghz)
    }

    #[test]
    fn a64fx_hierarchy_derives_from_tables() {
        let m = a64fx_model();
        assert_eq!(m.levels.len(), 2);
        assert_eq!(m.levels[0].name, "L1");
        assert_eq!(m.levels[0].capacity_bytes_per_core, 64 * 1024);
        assert_eq!(m.levels[0].bytes_per_cycle_per_core, 128.0);
        assert_eq!(m.levels[1].bytes_per_cycle_per_core, 42.0);
        assert_eq!(m.levels[1].line_bytes, 256);
        assert!((m.clock_ghz - 2.2).abs() < 1e-12);
    }

    #[test]
    fn volumes_shrink_inside_cache() {
        let m = a64fx_model();
        let bytes = 1e6;
        // Working set inside L1: nothing reaches L2 or memory.
        let v = m.transfer_volumes(bytes, 32 * 1024, 1);
        assert_eq!(v[0], bytes);
        assert_eq!(v[1], 0.0);
        assert_eq!(v[2], 0.0);
        // Working set far beyond L2: everything streams from memory.
        let v = m.transfer_volumes(bytes, 1 << 30, 1);
        assert!(v[2] / bytes > 0.99, "{v:?}");
        // Unknown working set behaves like the flat model.
        let v = m.transfer_volumes(bytes, 0, 1);
        assert_eq!(v[2], bytes);
    }

    #[test]
    fn served_bytes_sum_to_total() {
        let m = a64fx_model();
        for ws in [0u64, 16 * 1024, 512 * 1024, 4 << 20, 1 << 28] {
            let served = m.level_served_bytes(1e7, ws, 4);
            assert_eq!(served.len(), 3);
            let sum: f64 = served.iter().sum();
            assert!((sum - 1e7).abs() < 1e-3, "ws={ws}: {served:?}");
            assert!(served.iter().all(|&s| s >= 0.0), "ws={ws}: {served:?}");
        }
    }

    #[test]
    fn ecm_converges_to_flat_in_memory_bound_limit() {
        let m = a64fx_model();
        let bytes = 1e9;
        let bw = 5.4; // calibrated per-rank SpMV bandwidth, GB/s
        let flat = bytes / (bw * 1e3);
        let ecm = m.mem_time_us(bytes, 1 << 32, AccessPattern::Gather, 1, bw);
        assert!((ecm - flat).abs() / flat < 0.01, "ecm {ecm} flat {flat}");
    }

    #[test]
    fn ecm_is_cheaper_inside_cache() {
        let m = a64fx_model();
        let bytes = 1e6;
        let bw = 5.4;
        let flat = bytes / (bw * 1e3);
        let ecm = m.mem_time_us(bytes, 32 * 1024, AccessPattern::Streaming, 1, bw);
        assert!(ecm < 0.5 * flat, "ecm {ecm} should beat flat {flat} in L1");
    }

    #[test]
    fn gather_pays_more_latency_than_streaming() {
        let m = a64fx_model();
        let bytes = 1e7;
        let ws = 4 << 20; // L2-resident: latency terms are live
        let g = m.cache_time_us(bytes, ws, AccessPattern::Gather, 1);
        let s = m.cache_time_us(bytes, ws, AccessPattern::Streaming, 1);
        assert!(g > s, "gather {g} vs streaming {s}");
    }

    #[test]
    fn flat_price_is_an_upper_envelope_on_every_system() {
        // The convergence-from-below guarantee: no working set, pattern or
        // thread count may price above the calibrated flat roofline.
        let bw = 10.0;
        for sys in SystemId::all() {
            let spec = system(sys);
            let m = EcmModel::for_system(&spec.node.memory, spec.node.processor.clock_ghz);
            let bytes = 1e8;
            let flat = bytes / (bw * 1e3);
            for pattern in AccessPattern::all() {
                for ws in [0u64, 1 << 15, 1 << 21, 1 << 24, 1 << 30] {
                    for threads in [1u32, 4, 12] {
                        let t = m.mem_time_us(bytes, ws, pattern, threads, bw);
                        assert!(
                            t <= flat * (1.0 + 1e-12),
                            "{sys:?} {pattern:?} ws={ws} threads={threads}: {t} > {flat}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_system_yields_a_model() {
        for sys in SystemId::all() {
            let spec = system(sys);
            let m = EcmModel::for_system(&spec.node.memory, spec.node.processor.clock_ghz);
            assert!(!m.levels.is_empty(), "{sys:?}");
            assert!(m.levels.iter().all(|l| l.bytes_per_cycle_per_core > 0.0));
        }
    }
}
