//! Vector (SIMD) unit models.
//!
//! Peak double-precision throughput per core is
//! `lanes_f64 × flops_per_lane_per_cycle × pipes`, where `flops_per_lane` is 2
//! for fused multiply-add capable units and 1 otherwise. This reproduces the
//! "Maximum node DP GFLOP/s" row of Table I in the paper.

/// A per-core SIMD/vector execution unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VectorUnit {
    /// Vector register width in bits (Table I "Vector width").
    pub width_bits: u32,
    /// Number of vector pipelines that can issue per cycle.
    pub pipes: u32,
    /// Whether the unit supports fused multiply-add (2 flops/lane/cycle).
    pub fma: bool,
    /// Whether this is the Arm Scalable Vector Extension (SVE).
    pub sve: bool,
    /// Frequency in GHz at which the vector unit actually runs. On AVX-512
    /// parts this is lower than the nominal core clock (downclocking); on the
    /// A64FX and ThunderX2 it equals the core clock.
    pub vector_clock_ghz: f64,
}

impl VectorUnit {
    /// 512-bit SVE as implemented by the A64FX: two FMA pipes, no
    /// downclocking. 32 DP flops/cycle/core.
    pub fn sve_512(clock_ghz: f64) -> Self {
        VectorUnit {
            width_bits: 512,
            pipes: 2,
            fma: true,
            sve: true,
            vector_clock_ghz: clock_ghz,
        }
    }

    /// 256-bit AVX without FMA (Ivy Bridge): separate multiply and add pipes
    /// give 8 DP flops/cycle/core.
    pub fn avx_256_no_fma(clock_ghz: f64) -> Self {
        VectorUnit {
            width_bits: 256,
            pipes: 2,
            fma: false,
            sve: false,
            vector_clock_ghz: clock_ghz,
        }
    }

    /// 256-bit AVX2 with FMA (Broadwell): two FMA pipes, 16 DP
    /// flops/cycle/core.
    pub fn avx2_256(clock_ghz: f64) -> Self {
        VectorUnit {
            width_bits: 256,
            pipes: 2,
            fma: true,
            sve: false,
            vector_clock_ghz: clock_ghz,
        }
    }

    /// 512-bit AVX-512 with two FMA units (Cascade Lake), running at the
    /// (lower) AVX-512 turbo clock. 32 DP flops/cycle/core at `avx_clock`.
    pub fn avx512(avx_clock_ghz: f64) -> Self {
        VectorUnit {
            width_bits: 512,
            pipes: 2,
            fma: true,
            sve: false,
            vector_clock_ghz: avx_clock_ghz,
        }
    }

    /// 128-bit NEON with two FMA pipes (ThunderX2): 8 DP flops/cycle/core.
    pub fn neon_128(clock_ghz: f64) -> Self {
        VectorUnit {
            width_bits: 128,
            pipes: 2,
            fma: true,
            sve: false,
            vector_clock_ghz: clock_ghz,
        }
    }

    /// Number of double-precision (64-bit) lanes per vector register.
    pub fn lanes_f64(&self) -> u32 {
        self.width_bits / 64
    }

    /// Peak double-precision flops per cycle for one core.
    pub fn dp_flops_per_cycle(&self) -> u32 {
        let per_lane = if self.fma { 2 } else { 1 };
        self.lanes_f64() * per_lane * self.pipes
    }

    /// Peak double-precision GFLOP/s for one core.
    pub fn dp_gflops_per_core(&self) -> f64 {
        f64::from(self.dp_flops_per_cycle()) * self.vector_clock_ghz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a64fx_core_peak_is_70_4_gflops() {
        let v = VectorUnit::sve_512(2.2);
        assert_eq!(v.lanes_f64(), 8);
        assert_eq!(v.dp_flops_per_cycle(), 32);
        assert!((v.dp_gflops_per_core() - 70.4).abs() < 1e-9);
    }

    #[test]
    fn ivy_bridge_core_peak_is_21_6_gflops() {
        // ARCHER: 24 cores x 21.6 = 518.4 GFLOP/s/node (Table I).
        let v = VectorUnit::avx_256_no_fma(2.7);
        assert_eq!(v.dp_flops_per_cycle(), 8);
        assert!((v.dp_gflops_per_core() - 21.6).abs() < 1e-9);
    }

    #[test]
    fn broadwell_core_peak_is_33_6_gflops() {
        // Cirrus: 36 cores x 33.6 = 1209.6 GFLOP/s/node (Table I).
        let v = VectorUnit::avx2_256(2.1);
        assert_eq!(v.dp_flops_per_cycle(), 16);
        assert!((v.dp_gflops_per_core() - 33.6).abs() < 1e-9);
    }

    #[test]
    fn thunderx2_core_peak_is_17_6_gflops() {
        // Fulhame: 64 cores x 17.6 = 1126.4 GFLOP/s/node (Table I).
        let v = VectorUnit::neon_128(2.2);
        assert_eq!(v.dp_flops_per_cycle(), 8);
        assert!((v.dp_gflops_per_core() - 17.6).abs() < 1e-9);
    }

    #[test]
    fn cascade_lake_avx512_downclock_matches_table1() {
        // Table I gives 2662.4 GFLOP/s for the 48-core node, which implies a
        // 1.7333.. GHz AVX-512 clock rather than the 2.4 GHz base clock.
        let v = VectorUnit::avx512(2662.4 / (48.0 * 32.0));
        assert_eq!(v.dp_flops_per_cycle(), 32);
        assert!((48.0 * v.dp_gflops_per_core() - 2662.4).abs() < 1e-6);
    }
}
