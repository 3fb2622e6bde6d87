//! Microbenchmarks of the real numerical kernels underneath the apps: the
//! same kernel classes the cost model calibrates (SpMV, SymGS, MG V-cycle,
//! spectral-element `ax`, FFT, CG, compressible stencils, vector ops).

use a64fx_apps::opensbli::{OpensbliConfig, TgvSolver};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use densela::tensor::{gll_derivative_matrix, local_ax, AxScratch};
use densela::vecops;
use fftsim::complex::Complex64;
use fftsim::fft3d::fft3_inplace;
use sparsela::cg::cg_solve;
use sparsela::coloring::{mc_symgs_sweep, ColoredCsr, Coloring};
use sparsela::ell::SellMatrix;
use sparsela::gen::{stencil27, structural3d};
use sparsela::mg::MgHierarchy;
use sparsela::parallel::{SpawnTeam, Team};
use sparsela::symgs::symgs_sweep;
use std::hint::black_box;

fn bench_sparse(c: &mut Criterion) {
    let mut g = c.benchmark_group("sparse");
    g.sample_size(20);

    let a = stencil27(32, 32, 32);
    let x = vec![1.0; a.cols()];
    let mut y = vec![0.0; a.rows()];
    g.throughput(Throughput::Elements(a.nnz() as u64));
    g.bench_function("spmv_stencil27_32cubed", |b| {
        b.iter(|| black_box(a.spmv(&x, &mut y)))
    });

    let bvec = vec![1.0; a.rows()];
    let mut xg = vec![0.0; a.rows()];
    g.bench_function("symgs_sweep_32cubed", |b| {
        b.iter(|| black_box(symgs_sweep(&a, &bvec, &mut xg)))
    });

    // The optimised-HPCG kernel path: SELL-C-sigma SpMV and multi-colour
    // Gauss-Seidel, vs the reference CSR kernels above.
    let sell = SellMatrix::from_csr(&a, 8, 32);
    g.bench_function("spmv_sell8_32cubed", |b| {
        b.iter(|| black_box(sell.spmv(&x, &mut y)))
    });
    let coloring = Coloring::stencil8(32, 32, 32);
    let mut xc = vec![0.0; a.rows()];
    g.bench_function("mc_symgs_sweep_32cubed", |b| {
        b.iter(|| black_box(mc_symgs_sweep(&a, &coloring, &bvec, &mut xc)))
    });
    let colored = ColoredCsr::new(a.clone(), &coloring);
    g.bench_function("mc_symgs_colored_32cubed", |b| {
        b.iter(|| black_box(colored.sweep(&bvec, &mut xc)))
    });

    // The hybrid-rank thread team on the same SpMV: the persistent kernel
    // pool (threads spawned once) against the old spawn-per-call scheme.
    let team = Team::new(4);
    let spawn_team = SpawnTeam::new(4);
    let mut yt = vec![0.0; a.rows()];
    g.bench_function("spmv_pool4_32cubed", |b| {
        b.iter(|| black_box(team.spmv(&a, &x, &mut yt)))
    });
    g.bench_function("spmv_spawn4_32cubed", |b| {
        b.iter(|| black_box(spawn_team.spmv(&a, &x, &mut yt)))
    });
    // The pooled optimised-HPCG kernels.
    let mut ysell = vec![0.0; a.rows()];
    g.bench_function("spmv_sell8_pool4_32cubed", |b| {
        b.iter(|| black_box(team.sell_spmv(&sell, &x, &mut ysell)))
    });
    let mut xmc = vec![0.0; a.rows()];
    g.bench_function("mc_symgs_pool4_32cubed", |b| {
        b.iter(|| black_box(team.mc_symgs_sweep(&colored, &bvec, &mut xmc)))
    });

    let s = structural3d(8, 8, 8);
    let xs = vec![1.0; s.cols()];
    let mut ys = vec![0.0; s.rows()];
    g.throughput(Throughput::Elements(s.nnz() as u64));
    g.bench_function("spmv_structural_8cubed", |b| {
        b.iter(|| black_box(s.spmv(&xs, &mut ys)))
    });
    g.finish();

    let mut g = c.benchmark_group("multigrid");
    g.sample_size(10);
    let mg = MgHierarchy::new(32, 32, 32, 4);
    let r = vec![1.0; mg.fine_operator().rows()];
    let mut z = vec![0.0; mg.fine_operator().rows()];
    g.bench_function("vcycle_32cubed_4level", |b| {
        b.iter(|| black_box(mg.vcycle(&r, &mut z)))
    });
    g.bench_function("cg_poisson_16cubed", |b| {
        let a = stencil27(16, 16, 16);
        let rhs = vec![1.0; a.rows()];
        b.iter(|| {
            let mut x0 = vec![0.0; a.rows()];
            black_box(cg_solve(&a, &rhs, &mut x0, 25, 1e-9))
        })
    });
    // Serial vs spawn-per-call vs persistent-pool CG: the spawn overhead a
    // pooled solve amortises is 4 spawn/join cycles per iteration.
    g.bench_function("cg_pool4_16cubed", |b| {
        let a = stencil27(16, 16, 16);
        let rhs = vec![1.0; a.rows()];
        let team = Team::new(4);
        b.iter(|| {
            let mut x0 = vec![0.0; a.rows()];
            black_box(team.cg_solve(&a, &rhs, &mut x0, 25, 1e-9))
        })
    });
    g.bench_function("cg_spawn4_16cubed", |b| {
        let a = stencil27(16, 16, 16);
        let rhs = vec![1.0; a.rows()];
        let team = SpawnTeam::new(4);
        b.iter(|| {
            let mut x0 = vec![0.0; a.rows()];
            black_box(team.cg_solve(&a, &rhs, &mut x0, 25, 1e-9))
        })
    });
    g.finish();
}

fn bench_dense(c: &mut Criterion) {
    let mut g = c.benchmark_group("dense");
    g.sample_size(20);

    // The Nekbone ax kernel at the paper's polynomial order.
    let n = 16;
    let d = gll_derivative_matrix(n);
    let dt = d.transpose();
    let geo = vec![1.0; n * n * n];
    let u = vec![0.5; n * n * n];
    let mut w = vec![0.0; n * n * n];
    let mut scratch = AxScratch::new(n);
    g.bench_function("nekbone_ax_order16", |b| {
        b.iter(|| black_box(local_ax(&d, &dt, n, &geo, &u, &mut w, &mut scratch)))
    });

    let x: Vec<f64> = (0..1_000_000).map(|i| i as f64 * 0.001).collect();
    let yv: Vec<f64> = x.iter().map(|v| v + 1.0).collect();
    g.throughput(Throughput::Bytes(16_000_000));
    g.bench_function("dot_1m", |b| b.iter(|| black_box(vecops::dot(&x, &yv))));
    let mut acc = yv.clone();
    g.bench_function("axpy_1m", |b| {
        b.iter(|| black_box(vecops::axpy(1.0001, &x, &mut acc)))
    });
    g.finish();
}

fn bench_fft(c: &mut Criterion) {
    let mut g = c.benchmark_group("fft");
    g.sample_size(10);
    for n in [16usize, 32] {
        let mut data: Vec<Complex64> = (0..n * n * n)
            .map(|i| Complex64::new((i as f64).sin(), 0.0))
            .collect();
        g.bench_function(format!("fft3_{n}cubed"), |b| {
            b.iter(|| black_box(fft3_inplace(n, &mut data)))
        });
    }
    g.finish();
}

fn bench_cfd(c: &mut Criterion) {
    let mut g = c.benchmark_group("cfd");
    g.sample_size(10);
    let cfg = OpensbliConfig {
        grid: 16,
        steps: 1,
        viscosity: 0.01,
        dt: 1e-4,
    };
    let mut solver = TgvSolver::new(cfg);
    g.bench_function("tgv_rk3_step_16cubed", |b| {
        b.iter(|| solver.step(black_box(1e-4)))
    });
    g.finish();
}

criterion_group!(benches, bench_sparse, bench_dense, bench_fft, bench_cfd);
criterion_main!(benches);
