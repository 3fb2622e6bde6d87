//! Compiler toolchain models (Table II of the paper).
//!
//! The paper compiles each benchmark with the system vendor's toolchain
//! (Fujitsu, Intel, Cray, GCC, Arm Clang) and observes two first-order
//! effects that we carry in the model:
//!
//! 1. **Vectorisation efficiency** — how much of the core's SIMD peak the
//!    compiler extracts for a given kernel shape. The Fujitsu compiler with
//!    `-KSVE` vectorises the regular kernels well; GCC on NEON less so.
//! 2. **Fast-math** (`-Kfast` / `-ffast-math`) — re-association and FMA
//!    contraction. The paper's Nekbone runs show a dramatic ×1.8 speed-up on
//!    the A64FX from `-Kfast` and little effect elsewhere (Table VI), because
//!    only on the A64FX does the extra instruction-level parallelism convert
//!    into flops not already blocked on memory.

/// Compiler family used on a system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ToolchainFamily {
    /// Fujitsu compiler (A64FX), `-Kfast -KSVE ...`.
    Fujitsu,
    /// Intel classic compilers (ARCHER, Cirrus, EPCC NGIO).
    Intel,
    /// GNU GCC/GFortran (ARCHER GCC builds, Fulhame).
    Gnu,
    /// Arm Clang / Arm Fortran (Fulhame minikab/OpenSBLI builds).
    ArmClang,
    /// Cray CCE (ARCHER OpenSBLI build).
    Cray,
}

impl ToolchainFamily {
    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            ToolchainFamily::Fujitsu => "Fujitsu",
            ToolchainFamily::Intel => "Intel",
            ToolchainFamily::Gnu => "GNU",
            ToolchainFamily::ArmClang => "Arm Clang",
            ToolchainFamily::Cray => "Cray CCE",
        }
    }
}

/// The modelled effect of a compiler flag set on kernel throughput.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlagEffect {
    /// Multiplier on achievable flop rate for compute-bound vectorisable
    /// kernels when fast-math-style flags are enabled (e.g. `-Kfast`).
    pub fastmath_flop_gain: f64,
    /// Fraction of SIMD peak the compiler typically reaches on clean,
    /// unit-stride vectorisable loops.
    pub vector_efficiency: f64,
    /// Fraction of scalar issue rate reached on irregular, branchy code.
    pub scalar_efficiency: f64,
}

/// A toolchain as configured for one benchmark on one system: family,
/// version string and flags (verbatim from Table II), plus the modelled
/// throughput effects.
#[derive(Debug, Clone, PartialEq)]
pub struct Toolchain {
    /// Compiler family.
    pub family: ToolchainFamily,
    /// Version string as reported in Table II, e.g. "Fujitsu 1.2.24".
    pub version: String,
    /// Compile flags, verbatim from Table II.
    pub flags: String,
    /// Libraries used (MPI, BLAS/LAPACK, FFT), verbatim from Table II.
    pub libraries: String,
    /// Whether fast-math-style flags (`-Kfast`, `-ffast-math`) are active.
    pub fastmath: bool,
    /// Modelled flag effects.
    pub effect: FlagEffect,
}

impl Toolchain {
    /// Construct the default toolchain used for compute kernels on a given
    /// family, with the paper's flags attached.
    pub fn for_family(
        family: ToolchainFamily,
        version: &str,
        flags: &str,
        libraries: &str,
    ) -> Self {
        let fastmath = flags.contains("-Kfast")
            || flags.contains("-ffast-math")
            || flags.contains("fp-contract=fast");
        let effect = match family {
            // The Fujitsu compiler with -Kfast unlocks software pipelining and
            // SVE FMA contraction; without it SVE utilisation is mediocre.
            ToolchainFamily::Fujitsu => FlagEffect {
                fastmath_flop_gain: 1.78,
                vector_efficiency: 0.80,
                scalar_efficiency: 0.55,
            },
            ToolchainFamily::Intel => FlagEffect {
                fastmath_flop_gain: 1.05,
                vector_efficiency: 0.85,
                scalar_efficiency: 0.75,
            },
            ToolchainFamily::Gnu => FlagEffect {
                fastmath_flop_gain: 1.09,
                vector_efficiency: 0.70,
                scalar_efficiency: 0.70,
            },
            ToolchainFamily::ArmClang => FlagEffect {
                fastmath_flop_gain: 1.08,
                vector_efficiency: 0.75,
                scalar_efficiency: 0.72,
            },
            ToolchainFamily::Cray => FlagEffect {
                fastmath_flop_gain: 1.06,
                vector_efficiency: 0.80,
                scalar_efficiency: 0.72,
            },
        };
        Toolchain {
            family,
            version: version.to_string(),
            flags: flags.to_string(),
            libraries: libraries.to_string(),
            fastmath,
            effect,
        }
    }

    /// Effective multiplier on compute-bound throughput from the flag set.
    pub fn flop_multiplier(&self) -> f64 {
        if self.fastmath {
            self.effect.fastmath_flop_gain
        } else {
            1.0
        }
    }

    /// Return a copy of this toolchain with fast-math toggled, used by the
    /// Nekbone fast-math ablation (Table VI).
    pub fn with_fastmath(&self, on: bool) -> Self {
        let mut t = self.clone();
        t.fastmath = on;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastmath_detected_from_flags() {
        let t = Toolchain::for_family(
            ToolchainFamily::Fujitsu,
            "1.2.24",
            "-O3 -Kfast",
            "Fujitsu MPI",
        );
        assert!(t.fastmath);
        assert!(t.flop_multiplier() > 1.5);
        let t2 = Toolchain::for_family(ToolchainFamily::Intel, "19", "-O3", "Intel MPI");
        assert!(!t2.fastmath);
        assert_eq!(t2.flop_multiplier(), 1.0);
    }

    #[test]
    fn fastmath_gain_is_large_only_on_fujitsu() {
        // Table VI: -Kfast gives ~1.78x on A64FX; -ffast-math moves others <10%.
        let fj = Toolchain::for_family(ToolchainFamily::Fujitsu, "1.2.24", "-Kfast", "");
        let gnu = Toolchain::for_family(ToolchainFamily::Gnu, "8.2", "-ffast-math", "");
        assert!(fj.flop_multiplier() > 1.7);
        assert!(gnu.flop_multiplier() < 1.15);
    }

    #[test]
    fn with_fastmath_toggles() {
        let t = Toolchain::for_family(ToolchainFamily::Fujitsu, "1.2.24", "-O3", "");
        assert!(!t.fastmath);
        assert!(t.with_fastmath(true).fastmath);
        assert!((t.with_fastmath(true).flop_multiplier() - 1.78).abs() < 1e-12);
    }
}
