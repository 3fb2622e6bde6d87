//! Execution traces: the interface between applications and the cost model.
//!
//! An application, given a problem size and an MPI placement, emits a
//! [`Trace`]: the phases of one (representative) iteration plus how many
//! iterations the benchmark runs. The `a64fx-core` executor replays the
//! phases onto a `simmpi::World`, pricing every compute phase with the
//! per-system roofline for its [`KernelClass`].

use archsim::AccessPattern;
use densela::Work;

/// The kernel taxonomy used by the cost model. Each class carries its own
/// per-architecture efficiency calibration, because the paper's core finding
/// is precisely that different kernel shapes land very differently on the
/// A64FX (HPCG/Nekbone excel; OpenSBLI's small stencil sweeps suffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelClass {
    /// Sparse matrix–vector products (HPCG, minikab). Memory-bound,
    /// indirect addressing, vectorises moderately.
    SpMV,
    /// Symmetric Gauss–Seidel sweeps (HPCG smoother). Memory-bound and
    /// dependency-chained: barely vectorises anywhere.
    SymGS,
    /// Generated finite-difference stencil sweeps (OpenSBLI/OPS): many
    /// small loop bodies; front-end/L2-sensitive on the A64FX.
    StencilFD,
    /// Hand-written finite-volume CFD flux sweeps (COSA): long vectorisable
    /// Fortran loops, bandwidth-bound, where the A64FX's HBM shines.
    CfdFlux,
    /// Batched small dense tensor contractions (Nekbone `ax`). Mostly
    /// cache-resident: compute-bound where the compiler pipelines well.
    SmallGemm,
    /// Large dense BLAS3 (CASTEP subspace rotation via vendor libraries).
    Blas3,
    /// Fast Fourier transforms (CASTEP).
    Fft,
    /// Long-vector streaming ops: AXPY/WAXPBY/copies.
    VectorOp,
    /// Local part of dot products / reductions (paired with allreduces).
    Dot,
}

impl KernelClass {
    /// All classes (used by calibration tables and ablations).
    pub fn all() -> [KernelClass; 9] {
        [
            KernelClass::SpMV,
            KernelClass::SymGS,
            KernelClass::StencilFD,
            KernelClass::CfdFlux,
            KernelClass::SmallGemm,
            KernelClass::Blas3,
            KernelClass::Fft,
            KernelClass::VectorOp,
            KernelClass::Dot,
        ]
    }

    /// How kernels of this class walk memory — drives the ECM backend's
    /// hardware-prefetch effectiveness. Sparse solvers gather through
    /// column indices, stencils and FFT butterflies stride, everything
    /// else streams.
    pub fn access_pattern(&self) -> AccessPattern {
        match self {
            KernelClass::SpMV | KernelClass::SymGS => AccessPattern::Gather,
            KernelClass::StencilFD | KernelClass::Fft => AccessPattern::Strided,
            KernelClass::CfdFlux
            | KernelClass::SmallGemm
            | KernelClass::Blas3
            | KernelClass::VectorOp
            | KernelClass::Dot => AccessPattern::Streaming,
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            KernelClass::SpMV => "SpMV",
            KernelClass::SymGS => "SymGS",
            KernelClass::StencilFD => "StencilFD",
            KernelClass::CfdFlux => "CfdFlux",
            KernelClass::SmallGemm => "SmallGemm",
            KernelClass::Blas3 => "BLAS3",
            KernelClass::Fft => "FFT",
            KernelClass::VectorOp => "VectorOp",
            KernelClass::Dot => "Dot",
        }
    }
}

/// Per-rank distribution of a compute phase's work.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkDist {
    /// Every rank performs the same work (weak scaling, balanced strong
    /// scaling).
    Uniform(Work),
    /// Explicit per-rank work (COSA's uneven block distribution).
    PerRank(Vec<Work>),
}

impl WorkDist {
    /// Work of a given rank.
    pub fn of_rank(&self, rank: usize) -> Work {
        match self {
            WorkDist::Uniform(w) => *w,
            WorkDist::PerRank(v) => v[rank],
        }
    }

    /// Total across `ranks` ranks.
    pub fn total(&self, ranks: usize) -> Work {
        match self {
            WorkDist::Uniform(w) => *w * ranks as u64,
            WorkDist::PerRank(v) => {
                assert_eq!(v.len(), ranks);
                v.iter().fold(Work::ZERO, |acc, w| acc + *w)
            }
        }
    }
}

/// One phase of an iteration.
#[derive(Debug, Clone, PartialEq)]
pub enum Phase {
    /// A compute phase of the given kernel class.
    Compute {
        /// Kernel class for roofline calibration.
        class: KernelClass,
        /// Work per rank.
        work: WorkDist,
        /// Per-rank working-set size in bytes — the data the kernel
        /// revisits across its sweep, which decides what cache level it
        /// runs from under the ECM pricing backend. Zero means unknown:
        /// the ECM backend then streams everything from memory, matching
        /// the flat roofline. The flat backend ignores this field.
        ws_bytes: u64,
    },
    /// An `MPI_Allreduce` of `bytes` per rank.
    Allreduce {
        /// Payload bytes.
        bytes: u64,
    },
    /// A symmetric point-to-point halo exchange; each `(a, b, bytes)` pair
    /// exchanges `bytes` in both directions.
    Halo {
        /// Neighbour pairs with payload sizes.
        pairs: Vec<(u32, u32, u64)>,
    },
    /// An `MPI_Alltoall` with `bytes` per (src, dst) pair.
    Alltoall {
        /// Per-pair payload bytes.
        bytes_per_pair: u64,
    },
    /// An `MPI_Allgather` with `bytes` contributed per rank.
    Allgather {
        /// Per-rank contribution bytes.
        bytes: u64,
    },
    /// An explicit barrier.
    Barrier,
    /// Fixed per-rank runtime overhead (kernel-launch and MPI-progression
    /// costs of frameworks like OPS), microseconds.
    Overhead {
        /// Overhead in microseconds, charged to every rank.
        us: f64,
    },
}

impl Phase {
    /// Human-readable label, e.g. `compute:SymGS (52.4 Mflop)` or
    /// `allreduce(8B)`. Compute phases report rank 0's work — the same
    /// rank-0 view the timeline and trace spans present. The timeline
    /// renderer and the executor's span instrumentation share this label,
    /// which is what lets the conformance tests equate the two views.
    pub fn label(&self) -> String {
        match self {
            Phase::Compute { class, work, .. } => {
                let w = work.of_rank(0);
                format!(
                    "compute:{} ({:.1} Mflop)",
                    class.name(),
                    w.flops as f64 / 1e6
                )
            }
            Phase::Allreduce { bytes } => format!("allreduce({bytes}B)"),
            Phase::Halo { pairs } => format!("halo({} pairs)", pairs.len()),
            Phase::Alltoall { bytes_per_pair } => format!("alltoall({bytes_per_pair}B/pair)"),
            Phase::Allgather { bytes } => format!("allgather({bytes}B)"),
            Phase::Barrier => "barrier".to_string(),
            Phase::Overhead { us } => format!("runtime overhead ({us}us)"),
        }
    }

    /// The phase kind as a stable machine token — the `phase` attribute on
    /// `app.phase` spans, which the `obs::analyze` attribution keys on
    /// (compute/overhead vs. the communication kinds) without parsing the
    /// human label.
    pub fn kind(&self) -> &'static str {
        match self {
            Phase::Compute { .. } => "compute",
            Phase::Allreduce { .. } => "allreduce",
            Phase::Halo { .. } => "halo",
            Phase::Alltoall { .. } => "alltoall",
            Phase::Allgather { .. } => "allgather",
            Phase::Barrier => "barrier",
            Phase::Overhead { .. } => "overhead",
        }
    }
}

/// What a coordinated checkpoint of this application must persist, and how
/// often the app's iteration structure naturally allows one. Apps that
/// cannot meaningfully checkpoint (or whose solver state we do not model)
/// leave [`Trace::checkpoint`] as `None`; the resilient executor then falls
/// back to restarting the job from the top on failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointSpec {
    /// Bytes each rank writes to stable storage per checkpoint (the
    /// solver's live vectors — for a CG solve: x, r, p and the scratch
    /// operand).
    pub bytes_per_rank: u64,
    /// The interval, in body iterations, the app suggests between
    /// checkpoints (always `>= 1`). Callers may override it, e.g. with
    /// Young's optimum for a given MTBF.
    pub suggested_interval_iters: u32,
}

/// The execution trace of a benchmark: a prologue (run once), a body (run
/// `iterations` times) and the flops that the benchmark's own figure of
/// merit counts (HPCG and Nekbone report GFLOP/s over *counted* flops, not
/// all flops executed).
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Number of MPI ranks the trace is built for.
    pub ranks: u32,
    /// Phases run once at the start (setup, first residual, ...).
    pub prologue: Vec<Phase>,
    /// Phases of one iteration of the main loop.
    pub body: Vec<Phase>,
    /// Times the body executes.
    pub iterations: u32,
    /// Total flops the benchmark's figure of merit counts (across all ranks
    /// and all iterations). Zero if the benchmark reports runtime only.
    pub fom_flops: f64,
    /// Checkpointable solver state, if the app supports it.
    pub checkpoint: Option<CheckpointSpec>,
}

impl Trace {
    /// Total compute work across all ranks, prologue + all iterations.
    pub fn total_work(&self) -> Work {
        let ranks = self.ranks as usize;
        let sum = |phases: &[Phase]| -> Work {
            phases.iter().fold(Work::ZERO, |acc, p| match p {
                Phase::Compute { work, .. } => acc + work.total(ranks),
                _ => acc,
            })
        };
        sum(&self.prologue) + sum(&self.body) * u64::from(self.iterations)
    }

    /// Total bytes exchanged point-to-point per iteration of the body.
    pub fn body_halo_bytes(&self) -> u64 {
        self.body
            .iter()
            .map(|p| match p {
                Phase::Halo { pairs } => 2 * pairs.iter().map(|&(_, _, b)| b).sum::<u64>(),
                _ => 0,
            })
            .sum()
    }

    /// Approximate heap footprint of this trace in bytes — the cost the
    /// bounded trace cache charges against its capacity. Counts the
    /// variable-length payloads (per-rank work vectors, halo pair lists)
    /// at their in-memory size plus a fixed per-phase overhead; exactness
    /// doesn't matter, monotonicity with actual footprint does.
    pub fn approx_bytes(&self) -> u64 {
        const FIXED: u64 = 128; // Trace header + Vec headers + checkpoint
        const PER_PHASE: u64 = 64; // enum discriminant + inline fields
        let phase = |p: &Phase| -> u64 {
            PER_PHASE
                + match p {
                    Phase::Compute {
                        work: WorkDist::PerRank(v),
                        ..
                    } => 24 * v.len() as u64,
                    Phase::Halo { pairs } => 24 * pairs.len() as u64,
                    _ => 0,
                }
        };
        FIXED
            + self.prologue.iter().map(phase).sum::<u64>()
            + self.body.iter().map(phase).sum::<u64>()
    }

    /// Number of collective operations per iteration of the body.
    pub fn body_collectives(&self) -> usize {
        self.body
            .iter()
            .filter(|p| {
                matches!(
                    p,
                    Phase::Allreduce { .. }
                        | Phase::Alltoall { .. }
                        | Phase::Allgather { .. }
                        | Phase::Barrier
                )
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workdist_totals() {
        let u = WorkDist::Uniform(Work::new(10, 20, 30));
        assert_eq!(u.total(4).flops, 40);
        assert_eq!(u.of_rank(3).flops, 10);
        let p = WorkDist::PerRank(vec![Work::new(1, 0, 0), Work::new(5, 0, 0)]);
        assert_eq!(p.total(2).flops, 6);
        assert_eq!(p.of_rank(1).flops, 5);
    }

    #[test]
    fn trace_totals_scale_with_iterations() {
        let t = Trace {
            ranks: 2,
            prologue: vec![Phase::Compute {
                class: KernelClass::VectorOp,
                work: WorkDist::Uniform(Work::new(100, 0, 0)),
                ws_bytes: 0,
            }],
            body: vec![
                Phase::Compute {
                    class: KernelClass::SpMV,
                    work: WorkDist::Uniform(Work::new(10, 0, 0)),
                    ws_bytes: 0,
                },
                Phase::Allreduce { bytes: 8 },
                Phase::Halo {
                    pairs: vec![(0, 1, 50)],
                },
            ],
            iterations: 5,
            fom_flops: 0.0,
            checkpoint: None,
        };
        assert_eq!(t.total_work().flops, 200 + 5 * 20);
        assert_eq!(t.body_halo_bytes(), 100);
        assert_eq!(t.body_collectives(), 1);
    }

    #[test]
    fn approx_bytes_tracks_payload_sizes() {
        let small = Trace {
            ranks: 2,
            prologue: vec![],
            body: vec![Phase::Barrier],
            iterations: 1,
            fom_flops: 0.0,
            checkpoint: None,
        };
        let big = Trace {
            ranks: 2,
            prologue: vec![Phase::Halo {
                pairs: vec![(0, 1, 8); 100],
            }],
            body: vec![
                Phase::Compute {
                    class: KernelClass::SpMV,
                    work: WorkDist::PerRank(vec![Work::ZERO; 64]),
                    ws_bytes: 0,
                },
                Phase::Barrier,
            ],
            iterations: 1,
            fom_flops: 0.0,
            checkpoint: None,
        };
        assert!(small.approx_bytes() > 0);
        assert!(
            big.approx_bytes() > small.approx_bytes() + 100 * 24,
            "cost must grow with payload: {} vs {}",
            big.approx_bytes(),
            small.approx_bytes()
        );
    }

    #[test]
    fn phase_labels_render() {
        let c = Phase::Compute {
            class: KernelClass::SymGS,
            work: WorkDist::Uniform(Work::new(52_400_000, 0, 0)),
            ws_bytes: 0,
        };
        assert_eq!(c.label(), "compute:SymGS (52.4 Mflop)");
        assert_eq!(Phase::Allreduce { bytes: 8 }.label(), "allreduce(8B)");
        assert_eq!(
            Phase::Halo {
                pairs: vec![(0, 1, 10), (1, 2, 10)]
            }
            .label(),
            "halo(2 pairs)"
        );
        assert_eq!(Phase::Barrier.label(), "barrier");
        assert_eq!(
            Phase::Overhead { us: 3.5 }.label(),
            "runtime overhead (3.5us)"
        );
    }

    #[test]
    fn kernel_classes_enumerate() {
        assert_eq!(KernelClass::all().len(), 9);
        let names: std::collections::HashSet<_> =
            KernelClass::all().iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 9, "names must be unique");
    }

    #[test]
    fn access_patterns_follow_kernel_shape() {
        assert_eq!(KernelClass::SpMV.access_pattern(), AccessPattern::Gather);
        assert_eq!(KernelClass::SymGS.access_pattern(), AccessPattern::Gather);
        assert_eq!(
            KernelClass::StencilFD.access_pattern(),
            AccessPattern::Strided
        );
        assert_eq!(KernelClass::Fft.access_pattern(), AccessPattern::Strided);
        assert_eq!(
            KernelClass::VectorOp.access_pattern(),
            AccessPattern::Streaming
        );
        for class in KernelClass::all() {
            let p = class.access_pattern().prefetch_effectiveness();
            assert!((0.0..=1.0).contains(&p), "{class:?}");
        }
    }

    #[test]
    #[should_panic]
    fn per_rank_total_checks_length() {
        let p = WorkDist::PerRank(vec![Work::ZERO; 3]);
        let _ = p.total(4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::{cosa, hpcg, minikab, nekbone, opensbli};
    use proptest::prelude::*;

    /// Every app's trace must be well-formed for any rank count: halo pairs
    /// within range, per-rank work vectors of the right length, and at
    /// least one compute phase.
    fn check_trace(t: &Trace) {
        assert!(t.iterations >= 1);
        let mut has_compute = false;
        for p in &t.body {
            match p {
                Phase::Compute { work, ws_bytes, .. } => {
                    has_compute = true;
                    if let WorkDist::PerRank(v) = work {
                        assert_eq!(v.len(), t.ranks as usize);
                    }
                    assert!(
                        *ws_bytes > 0,
                        "app compute phases must declare a working set"
                    );
                }
                Phase::Halo { pairs } => {
                    for &(a, b, bytes) in pairs {
                        assert!(a < t.ranks && b < t.ranks, "pair ({a},{b}) out of range");
                        assert!(a != b);
                        assert!(bytes > 0);
                    }
                }
                _ => {}
            }
        }
        assert!(has_compute, "a benchmark iteration must compute something");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn hpcg_traces_well_formed(ranks in 1u32..128) {
            check_trace(&hpcg::trace(hpcg::HpcgConfig::paper(), ranks));
        }

        #[test]
        fn minikab_traces_well_formed(ranks in 1u32..128) {
            check_trace(&minikab::trace(minikab::MinikabConfig::paper(), ranks));
        }

        #[test]
        fn nekbone_traces_well_formed(ranks in 1u32..128) {
            check_trace(&nekbone::trace(nekbone::NekboneConfig::paper(), ranks));
        }

        #[test]
        fn cosa_traces_well_formed(ranks in 1u32..1100) {
            check_trace(&cosa::trace(cosa::CosaConfig::paper(), ranks));
        }

        #[test]
        fn opensbli_traces_well_formed(ranks in 1u32..128) {
            check_trace(&opensbli::trace(opensbli::OpensbliConfig::paper(), ranks));
        }

        #[test]
        fn strong_scaled_apps_conserve_total_flops(r1 in 1u32..64, r2 in 1u32..64) {
            let a = minikab::trace(minikab::MinikabConfig::paper(), r1).total_work().flops as f64;
            let b = minikab::trace(minikab::MinikabConfig::paper(), r2).total_work().flops as f64;
            prop_assert!((a - b).abs() / a < 0.02, "minikab: {a} vs {b}");
            let a = cosa::trace(cosa::CosaConfig::paper(), r1).total_work().flops;
            let b = cosa::trace(cosa::CosaConfig::paper(), r2).total_work().flops;
            prop_assert_eq!(a, b);
        }
    }
}
