//! HPCG — the High Performance Conjugate Gradients benchmark (paper §V).
//!
//! The paper runs HPCG in MPI-only mode, one rank per core, with a local
//! grid of `--nx=80 --ny=80 --nz=80` per process, and compares single-node
//! (Table III) and 1–8 node (Table IV) GFLOP/s across the five systems,
//! including vendor-optimised variants on NGIO and Fulhame.
//!
//! Our implementation mirrors the reference benchmark's structure: a
//! 27-point stencil operator, CG iterations preconditioned by a 4-level
//! geometric multigrid V-cycle with symmetric Gauss–Seidel smoothing, halo
//! exchanges at every level, and two allreduce-coupled dot products per
//! iteration. [`run_real`] executes it; [`trace`] emits the same structure
//! as a work-model trace at paper scale.

use crate::trace::{CheckpointSpec, KernelClass, Phase, Trace, WorkDist};
use densela::Work;
use sparsela::cg::{cg_matfree, pcg_solve};
use sparsela::coloring::Coloring;
use sparsela::ell::SellMatrix;
use sparsela::gen::stencil27_row;
use sparsela::mg::MgHierarchy;
use sparsela::parallel::Team;
use sparsela::partition::Partition3d;

const F64B: u64 = 8;
const IDXB: u64 = 4;

/// HPCG configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HpcgConfig {
    /// Local grid dimensions per MPI rank (the paper uses 80×80×80).
    pub local: (usize, usize, usize),
    /// Multigrid levels (reference HPCG: 4).
    pub mg_levels: usize,
    /// CG iterations per set (reference HPCG: 50).
    pub iterations: u32,
}

impl HpcgConfig {
    /// The paper's configuration: 80³ local grid, 4 MG levels, 50-iteration
    /// CG sets.
    pub fn paper() -> Self {
        HpcgConfig {
            local: (80, 80, 80),
            mg_levels: 4,
            iterations: 50,
        }
    }

    /// A reduced configuration for tests and examples.
    pub fn test(n: usize) -> Self {
        HpcgConfig {
            local: (n, n, n),
            mg_levels: 3,
            iterations: 25,
        }
    }
}

/// Result of a real (executing) HPCG run.
#[derive(Debug, Clone)]
pub struct HpcgRealResult {
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative residual.
    pub rel_residual: f64,
    /// Whether the run converged below 1e-6 (informational — reference HPCG
    /// always runs its full iteration count).
    pub converged: bool,
    /// Total counted work.
    pub work: Work,
}

/// Execute HPCG for real on a single in-memory grid (the per-rank problem).
/// This is the code path the correctness tests exercise.
pub fn run_real(cfg: HpcgConfig) -> HpcgRealResult {
    let (nx, ny, nz) = cfg.local;
    let mg = MgHierarchy::new(nx, ny, nz, cfg.mg_levels);
    let a = mg.fine_operator();
    let n = a.rows();
    // Reference HPCG uses b = A * ones, x0 = 0.
    let ones = vec![1.0; n];
    let mut b = vec![0.0; n];
    let mut w = a.spmv(&ones, &mut b);
    let mut x = vec![0.0; n];
    let res = pcg_solve(a, &b, &mut x, cfg.iterations as usize, 1e-12, |r, z| {
        mg.vcycle(r, z)
    });
    w += res.work;
    HpcgRealResult {
        iterations: res.iterations,
        rel_residual: res.rel_residual,
        converged: res.rel_residual < 1e-6,
        work: w,
    }
}

/// Execute the *optimised* HPCG kernel path for real: the operator in
/// SELL-C-σ storage (vector-friendly SpMV) and a multi-colour symmetric
/// Gauss–Seidel preconditioner (parallelisable smoothing) — the two kernel
/// rewrites behind the vendor variants in the paper's Table III. As vendor
/// HPCG's `OptimizeProblem` does, set-up reorders the operator: its rows
/// are stored colour by colour, so each smoother pass streams one
/// contiguous run of slices, and that one copy serves the SpMV too.
/// Solves the same problem as [`run_real`]; the tests check both agree.
pub fn run_real_optimised(cfg: HpcgConfig) -> HpcgRealResult {
    run_real_optimised_threaded(cfg, 1)
}

/// The optimised kernel path on a `threads`-wide persistent kernel-pool
/// [`Team`]: slice-parallel SELL-C-σ SpMV and colour-parallel multicolour
/// SymGS, both bit-identical to their serial counterparts, so the result is
/// exactly [`run_real_optimised`]'s for any thread count.
///
/// The operator is built straight from the 27-point generator into one
/// colour-grouped [`SellMatrix`]; no natural-order CSR is ever held.
/// `b = A·1` comes from the SELL SpMV, whose per-row sums run in the CSR's
/// order, so `b` is bit for bit the CSR product.
pub fn run_real_optimised_threaded(cfg: HpcgConfig, threads: usize) -> HpcgRealResult {
    let (nx, ny, nz) = cfg.local;
    let a =
        SellMatrix::from_colored_rows(&Coloring::stencil8(nx, ny, nz), 8, 32, |r, cols, vals| {
            stencil27_row(nx, ny, nz, r, cols, vals)
        });
    let n = a.rows();
    let team = Team::new(threads);
    let ones = vec![1.0; n];
    let mut b = vec![0.0; n];
    let mut w = team.sell_spmv(&a, &ones, &mut b);
    drop(ones);
    let mut x = vec![0.0; n];
    let res = cg_matfree(
        |p, out| team.sell_spmv(&a, p, out),
        &b,
        &mut x,
        cfg.iterations as usize,
        1e-12,
        Some(|r: &[f64], z: &mut [f64]| {
            z.fill(0.0);
            team.mc_symgs_sweep(&a, r, z)
        }),
    );
    w += res.work;
    HpcgRealResult {
        iterations: res.iterations,
        rel_residual: res.rel_residual,
        converged: res.rel_residual < 1e-6,
        work: w,
    }
}

/// Non-zero count of the 27-point operator on an `nx×ny×nz` grid: per-axis
/// neighbour counts (3 interior, 2 at each boundary) multiply, so the total
/// is `(3nx−2)(3ny−2)(3nz−2)`.
pub fn stencil27_nnz(nx: usize, ny: usize, nz: usize) -> u64 {
    ((3 * nx - 2) * (3 * ny - 2) * (3 * nz - 2)) as u64
}

/// Analytic SpMV work on the level grid (mirrors `CsrMatrix::spmv_work`).
pub fn spmv_work_analytic(dims: (usize, usize, usize)) -> Work {
    let nnz = stencil27_nnz(dims.0, dims.1, dims.2);
    let n = (dims.0 * dims.1 * dims.2) as u64;
    Work::new(2 * nnz, nnz * (F64B + IDXB) + 2 * n * F64B, n * F64B)
}

/// Analytic symmetric Gauss–Seidel work (mirrors `symgs::symgs_work`).
pub fn symgs_work_analytic(dims: (usize, usize, usize)) -> Work {
    let nnz = stencil27_nnz(dims.0, dims.1, dims.2);
    let n = (dims.0 * dims.1 * dims.2) as u64;
    Work::new(
        4 * nnz + 2 * n,
        2 * (nnz * (F64B + IDXB) + 2 * n * F64B),
        2 * n * F64B,
    )
}

/// Per-rank memory footprint of the HPCG problem in bytes: all MG level
/// matrices (12 B/nnz + row pointers) plus the CG vector set.
pub fn memory_bytes_per_rank(cfg: HpcgConfig) -> u64 {
    let (mut nx, mut ny, mut nz) = cfg.local;
    let mut total = 0u64;
    for _ in 0..cfg.mg_levels {
        let n = (nx * ny * nz) as u64;
        total += stencil27_nnz(nx, ny, nz) * (F64B + IDXB) + (n + 1) * 8;
        total += 4 * n * F64B; // level vectors (r, z, Ax, scratch)
        nx /= 2;
        ny /= 2;
        nz /= 2;
    }
    let n = (cfg.local.0 * cfg.local.1 * cfg.local.2) as u64;
    total + 6 * n * F64B // x, b, r, z, p, Ap
}

fn level_dims(cfg: HpcgConfig, level: usize) -> (usize, usize, usize) {
    (
        cfg.local.0 >> level,
        cfg.local.1 >> level,
        cfg.local.2 >> level,
    )
}

/// Per-rank working set of one MG level's sparse kernels (SpMV/SymGS): the
/// level matrix (values, column indices, row pointers) plus the vector set
/// the sweep revisits. This is what decides whether the coarse levels run
/// from cache under the ECM pricing backend.
pub fn level_ws_bytes(dims: (usize, usize, usize)) -> u64 {
    let n = (dims.0 * dims.1 * dims.2) as u64;
    stencil27_nnz(dims.0, dims.1, dims.2) * (F64B + IDXB) + (n + 1) * 8 + 4 * n * F64B
}

/// Halo pairs for one MG level: face exchange of one ghost layer over the
/// rank partition (each face cell carries one f64).
fn level_halo(part: &Partition3d, cfg: HpcgConfig, level: usize) -> Vec<(u32, u32, u64)> {
    let d = level_dims(cfg, level);
    // In the weak layout neighbours differ in exactly one process-grid axis;
    // the shared face area is the product of the other two local dims at
    // this level.
    let mut pairs = Vec::new();
    for r in 0..part.ranks() {
        let (cx, cy, cz) = part.coords_of(r);
        let (px, py, pz) = part.pgrid;
        if cx + 1 < px {
            pairs.push((
                r as u32,
                part.rank_of((cx + 1, cy, cz)) as u32,
                (d.1 * d.2) as u64 * F64B,
            ));
        }
        if cy + 1 < py {
            pairs.push((
                r as u32,
                part.rank_of((cx, cy + 1, cz)) as u32,
                (d.0 * d.2) as u64 * F64B,
            ));
        }
        if cz + 1 < pz {
            pairs.push((
                r as u32,
                part.rank_of((cx, cy, cz + 1)) as u32,
                (d.0 * d.1) as u64 * F64B,
            ));
        }
    }
    pairs
}

/// Build the HPCG execution trace for `ranks` MPI ranks (weak layout: every
/// rank owns a `cfg.local` box, as the benchmark prescribes).
pub fn trace(cfg: HpcgConfig, ranks: u32) -> Trace {
    let part = Partition3d::weak(cfg.local, ranks as usize);
    let n_local = (cfg.local.0 * cfg.local.1 * cfg.local.2) as u64;
    let vec_bytes = n_local * F64B;

    let mut body: Vec<Phase> = Vec::new();

    // --- Multigrid V-cycle preconditioner (z = M^-1 r) ---
    for level in 0..cfg.mg_levels {
        let d = level_dims(cfg, level);
        let halo = level_halo(&part, cfg, level);
        if level + 1 < cfg.mg_levels {
            // Pre-smooth + post-smooth + residual SpMV.
            body.push(Phase::Halo {
                pairs: halo.clone(),
            });
            body.push(Phase::Compute {
                class: KernelClass::SymGS,
                work: WorkDist::Uniform(symgs_work_analytic(d) * 2),
                ws_bytes: level_ws_bytes(d),
            });
            body.push(Phase::Halo { pairs: halo });
            body.push(Phase::Compute {
                class: KernelClass::SpMV,
                work: WorkDist::Uniform(spmv_work_analytic(d)),
                ws_bytes: level_ws_bytes(d),
            });
            // Restrict + prolong vector traffic.
            let nc = ((d.0 / 2) * (d.1 / 2) * (d.2 / 2)) as u64;
            body.push(Phase::Compute {
                class: KernelClass::VectorOp,
                work: WorkDist::Uniform(Work::new(nc, 3 * nc * F64B, 2 * nc * F64B)),
                ws_bytes: 5 * nc * F64B,
            });
        } else {
            body.push(Phase::Halo { pairs: halo });
            body.push(Phase::Compute {
                class: KernelClass::SymGS,
                work: WorkDist::Uniform(symgs_work_analytic(d)),
                ws_bytes: level_ws_bytes(d),
            });
        }
    }

    // --- CG iteration proper ---
    // dot(r, z) -> allreduce
    body.push(Phase::Compute {
        class: KernelClass::Dot,
        work: WorkDist::Uniform(Work::new(2 * n_local, 2 * vec_bytes, 0)),
        ws_bytes: 2 * vec_bytes,
    });
    body.push(Phase::Allreduce { bytes: 8 });
    // p update (waxpby)
    body.push(Phase::Compute {
        class: KernelClass::VectorOp,
        work: WorkDist::Uniform(Work::new(3 * n_local, 2 * vec_bytes, vec_bytes)),
        ws_bytes: 3 * vec_bytes,
    });
    // SpMV(A, p) with halo
    body.push(Phase::Halo {
        pairs: level_halo(&part, cfg, 0),
    });
    body.push(Phase::Compute {
        class: KernelClass::SpMV,
        work: WorkDist::Uniform(spmv_work_analytic(cfg.local)),
        ws_bytes: level_ws_bytes(cfg.local),
    });
    // dot(p, Ap) -> allreduce
    body.push(Phase::Compute {
        class: KernelClass::Dot,
        work: WorkDist::Uniform(Work::new(2 * n_local, 2 * vec_bytes, 0)),
        ws_bytes: 2 * vec_bytes,
    });
    body.push(Phase::Allreduce { bytes: 8 });
    // x, r updates (2 waxpby) + residual norm (dot + allreduce)
    body.push(Phase::Compute {
        class: KernelClass::VectorOp,
        work: WorkDist::Uniform(Work::new(6 * n_local, 4 * vec_bytes, 2 * vec_bytes)),
        ws_bytes: 6 * vec_bytes,
    });
    body.push(Phase::Compute {
        class: KernelClass::Dot,
        work: WorkDist::Uniform(Work::new(2 * n_local, vec_bytes, 0)),
        ws_bytes: vec_bytes,
    });
    body.push(Phase::Allreduce { bytes: 8 });

    // Prologue: b = A*ones, initial residual.
    let prologue = vec![
        Phase::Halo {
            pairs: level_halo(&part, cfg, 0),
        },
        Phase::Compute {
            class: KernelClass::SpMV,
            work: WorkDist::Uniform(spmv_work_analytic(cfg.local)),
            ws_bytes: level_ws_bytes(cfg.local),
        },
        Phase::Compute {
            class: KernelClass::VectorOp,
            work: WorkDist::Uniform(Work::new(n_local, 2 * vec_bytes, vec_bytes)),
            ws_bytes: 3 * vec_bytes,
        },
        Phase::Allreduce { bytes: 8 },
    ];

    let mut t = Trace {
        ranks,
        prologue,
        body,
        iterations: cfg.iterations,
        fom_flops: 0.0,
        // CG live vectors (x, r, p, z) — what a coordinated checkpoint of
        // an HPCG-like solve has to persist per rank.
        checkpoint: Some(CheckpointSpec {
            bytes_per_rank: 4 * vec_bytes,
            suggested_interval_iters: cfg.iterations.div_ceil(10).max(1),
        }),
    };
    // HPCG's figure of merit counts the flops of the phases above.
    t.fom_flops = t.total_work().flops as f64;
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsela::gen::stencil27;
    use sparsela::symgs::symgs_work;

    #[test]
    fn real_run_converges() {
        let res = run_real(HpcgConfig::test(8));
        assert!(res.rel_residual < 1e-6, "residual {res:?}");
        assert!(res.work.flops > 0);
    }

    #[test]
    fn optimised_path_converges_like_reference() {
        let cfg = HpcgConfig::test(8);
        let reference = run_real(cfg);
        let optimised = run_real_optimised(cfg);
        assert!(optimised.rel_residual < 1e-6, "optimised: {optimised:?}");
        assert!(reference.rel_residual < 1e-6);
        // Both kernel paths solve the same linear system.
        assert!(optimised.converged && reference.converged);
    }

    #[test]
    fn threaded_optimised_path_is_bit_identical_to_serial() {
        // Slice-parallel SELL SpMV and colour-parallel MC-SymGS both match
        // their serial kernels bit-for-bit, so the whole solve must too.
        let cfg = HpcgConfig::test(6);
        let serial = run_real_optimised(cfg);
        let threaded = run_real_optimised_threaded(cfg, 4);
        assert_eq!(serial.iterations, threaded.iterations);
        assert_eq!(
            serial.rel_residual.to_bits(),
            threaded.rel_residual.to_bits()
        );
        assert_eq!(serial.work, threaded.work);
    }

    #[test]
    fn optimised_path_is_pinned_to_its_natural_order_result() {
        // Residual bits of the optimised solve as it ran over natural-order
        // CSR, before the operator was stored colour by colour: the
        // reordering must not move a bit. The counted work differs from
        // that run's only because `b = A·1` is now a SELL SpMV, which also
        // counts its padding: 101,568 stored entries against 97,336
        // non-zeros, 4,232 × (2 flops, 12 bytes) more. (Colour-grouped
        // slicing happens to store as many entries as natural-order SELL
        // at 16³.)
        let res = run_real_optimised(HpcgConfig::test(16));
        assert_eq!(res.iterations, 25);
        assert_eq!(res.rel_residual.to_bits(), 0x3d90_ae4d_a6fc_16b1);
        assert_eq!(res.work, Work::new(17_069_888, 107_998_080, 5_079_040));
    }

    #[test]
    fn nnz_formula_matches_generator() {
        for (nx, ny, nz) in [(3, 4, 5), (8, 8, 8), (5, 5, 5), (2, 2, 2)] {
            let a = stencil27(nx, ny, nz);
            assert_eq!(a.nnz() as u64, stencil27_nnz(nx, ny, nz), "{nx}x{ny}x{nz}");
        }
    }

    #[test]
    fn analytic_work_matches_kernels() {
        let dims = (6, 6, 6);
        let a = stencil27(dims.0, dims.1, dims.2);
        assert_eq!(spmv_work_analytic(dims), a.spmv_work());
        assert_eq!(symgs_work_analytic(dims), symgs_work(&a));
    }

    #[test]
    fn paper_config_fits_a64fx_memory() {
        // 48 ranks x 80^3 must fit in 32 GB (the paper chose 80^3 for this).
        let per_rank = memory_bytes_per_rank(HpcgConfig::paper());
        let node_total = 48 * per_rank;
        assert!(
            node_total < 30 * (1u64 << 30),
            "total {} GiB",
            node_total >> 30
        );
        // ... while 128^3 would not fit.
        let big = HpcgConfig {
            local: (128, 128, 128),
            mg_levels: 4,
            iterations: 50,
        };
        assert!(48 * memory_bytes_per_rank(big) > 32 * (1u64 << 30));
    }

    #[test]
    fn trace_structure() {
        let t = trace(HpcgConfig::paper(), 48);
        assert_eq!(t.ranks, 48);
        assert_eq!(t.iterations, 50);
        // 3 allreduces per CG iteration (2 dots + residual norm).
        let allreduces = t
            .body
            .iter()
            .filter(|p| matches!(p, Phase::Allreduce { .. }))
            .count();
        assert_eq!(allreduces, 3);
        assert!(t.fom_flops > 0.0);
    }

    #[test]
    fn trace_work_dominated_by_symgs_and_spmv() {
        let t = trace(HpcgConfig::paper(), 1);
        let mut by_class = std::collections::HashMap::new();
        for p in &t.body {
            if let Phase::Compute { class, work, .. } = p {
                *by_class.entry(class.name()).or_insert(0u64) += work.total(1).flops;
            }
        }
        let symgs = by_class["SymGS"];
        let spmv = by_class["SpMV"];
        let vec = by_class["VectorOp"] + by_class["Dot"];
        assert!(symgs > vec, "SymGS must dominate vector work");
        assert!(symgs + spmv > 2 * vec, "matrix kernels dominate HPCG");
    }

    #[test]
    fn multi_rank_trace_has_halo_traffic() {
        let t1 = trace(HpcgConfig::paper(), 1);
        let t8 = trace(HpcgConfig::paper(), 8);
        assert_eq!(t1.body_halo_bytes(), 0, "single rank has no neighbours");
        assert!(t8.body_halo_bytes() > 0);
        // Weak scaling: per-rank work identical regardless of rank count.
        assert_eq!(t8.total_work().flops, 8 * t1.total_work().flops);
    }

    #[test]
    fn single_node_48_rank_fom_near_reference_shape() {
        // The counted flops per iteration per rank for 80^3 should be
        // dominated by the V-cycle: sanity-check the magnitude (reference
        // HPCG: ~0.3 GFLOP per iteration per 80^3 rank... order of 1e8-1e9).
        let t = trace(HpcgConfig::paper(), 1);
        let per_iter = t.total_work().flops as f64 / f64::from(t.iterations);
        assert!(
            per_iter > 1e8 && per_iter < 2e9,
            "per-iteration flops {per_iter}"
        );
    }
}
