//! The host roofline and the kernel rows measured against it.
//!
//! Peaks are measured on the machine running the benchmark, with the same
//! compiler settings as the kernels. The memory roof is the better of two
//! streams over arrays each four times the last-level cache: a STREAM-style
//! triad `a = b + s*c`, whose stores also pay a write-allocate read, and an
//! in-place update `a += s*b`, which does not. Both count 24 bytes per
//! element. The flop roof is a multiply-add loop with enough independent
//! chains to saturate the floating-point units. Kernel rows divide by
//! these measured peaks, never by A64FX figures.

use std::hint::black_box;

use densela::Work;
use sparsela::coloring::Coloring;
use sparsela::ell::SellMatrix;

use crate::layers::median_time;
use crate::spans::Tracer;
use crate::stats::{num, Metrics};

/// The measured host peaks.
struct HostPeaks {
    /// Elements per stream array.
    stream_elems: usize,
    /// Best triad bandwidth, GB/s (24 computed bytes per element).
    triad_gbs: f64,
    /// Best in-place update bandwidth, GB/s (24 computed bytes per element).
    update_gbs: f64,
    /// Best multiply-add rate, GF/s.
    fma_gflops: f64,
}

impl HostPeaks {
    /// Attainable GF/s at arithmetic intensity `ai` flops per byte.
    fn roof_gflops(&self, ai: f64) -> f64 {
        self.fma_gflops
            .min(ai * self.triad_gbs.max(self.update_gbs))
    }

    fn json(&self) -> String {
        format!(
            "{{\"stream_elems_per_array\": {}, \"stream_bytes_per_array\": {}, \"triad_arrays\": 3, \"triad_gbs\": {}, \"update_arrays\": 2, \"update_gbs\": {}, \"fma_chains\": {FMA_CHAINS}, \"fma_gflops\": {}}}",
            self.stream_elems,
            self.stream_elems * 8,
            num(self.triad_gbs),
            num(self.update_gbs),
            num(self.fma_gflops)
        )
    }
}

/// Measure the host peaks. `l3_bytes` sizes the streams: arrays of four
/// times the L3 each.
fn host_peaks(tr: &mut Tracer, l3_bytes: u64) -> HostPeaks {
    let n = usize::try_from(4 * l3_bytes / 8).expect("array size fits usize");
    let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let c: Vec<f64> = vec![0.5; n];
    let mut a = vec![0.0; n];
    let s = black_box(3.0);
    let triad_s = tr.span("host.triad", |_| {
        best_time(5, || {
            for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
                *a = b + s * c;
            }
            a[n / 2]
        })
    });
    let update_s = tr.span("host.update", |_| {
        best_time(5, || {
            for (a, b) in a.iter_mut().zip(&b) {
                *a += s * b;
            }
            a[n / 2]
        })
    });
    drop((a, b, c));
    let fma_s = tr.span("host.fma", |_| {
        best_time(5, || {
            let (m, add) = (black_box(0.999_999), black_box(1e-9));
            let mut acc = [1.0f64; FMA_CHAINS];
            for _ in 0..FMA_ITERS {
                for x in acc.iter_mut() {
                    *x = *x * m + add;
                }
            }
            acc.iter().sum::<f64>()
        })
    });
    HostPeaks {
        stream_elems: n,
        triad_gbs: 24.0 * n as f64 / triad_s / 1e9,
        update_gbs: 24.0 * n as f64 / update_s / 1e9,
        fma_gflops: (2 * FMA_CHAINS * FMA_ITERS) as f64 / fma_s / 1e9,
    }
}

/// Independent multiply-add chains. Sixteen fill eight SSE registers and
/// hide the multiply-then-add latency; more spill, fewer stall.
const FMA_CHAINS: usize = 16;
const FMA_ITERS: usize = 5_000_000;

fn best_time<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = std::time::Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// One kernel row: median seconds of a call and its `Work` counts.
struct Row {
    name: &'static str,
    secs: f64,
    work: Work,
}

/// Repetitions per kernel row.
const REPS: usize = 7;

/// The HPCG operator edge the sparse rows run on (the miniapps solve's).
const GRID: usize = 56;

fn kernel_rows(tr: &mut Tracer, l3_bytes: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    let mut row = |tr: &mut Tracer, name: &'static str, work: Work, f: &mut dyn FnMut()| {
        let secs = tr.span(&format!("kernel.{name}"), |_| median_time(REPS, &mut *f));
        rows.push(Row { name, secs, work });
    };

    // sparsela on the miniapps HPCG operator.
    let a = sparsela::gen::stencil27(GRID, GRID, GRID);
    let sell = SellMatrix::from_csr(&a, 8, 32);
    let coloring = Coloring::stencil8(GRID, GRID, GRID);
    let n = a.rows();
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.017).cos()).collect();
    let mut y = vec![0.0; n];
    row(tr, "sparsela.spmv_csr", a.spmv_work(), &mut || {
        a.spmv(&x, &mut y);
    });
    row(tr, "sparsela.spmv_sell8", sell.spmv_work(), &mut || {
        sell.spmv(&x, &mut y);
    });
    let mut xs = vec![0.0; n];
    let w = sparsela::symgs::symgs_sweep(&a, &b, &mut xs);
    row(tr, "sparsela.symgs", w, &mut || {
        sparsela::symgs::symgs_sweep(&a, &b, &mut xs);
    });
    let w = sparsela::coloring::mc_symgs_sweep_blocked(&a, &coloring, &b, &mut xs);
    row(tr, "sparsela.mc_symgs_blocked", w, &mut || {
        sparsela::coloring::mc_symgs_sweep_blocked(&a, &coloring, &b, &mut xs);
    });

    drop((a, sell, coloring, x, b, y, xs));

    // densela: CG's vector kernels on vectors of four times the L3 each,
    // so they stream from memory like the roofline's streams.
    let n = usize::try_from(4 * l3_bytes / 8).expect("vector length fits usize");
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();
    let mut y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.017).cos()).collect();
    let (_, w) = densela::vecops::dot(&x, &y);
    row(tr, "densela.dot", w, &mut || {
        black_box(densela::vecops::dot(&x, &y));
    });
    let w = densela::vecops::axpy(1e-9, &x, &mut y);
    row(tr, "densela.axpy", w, &mut || {
        densela::vecops::axpy(1e-9, &x, &mut y);
    });
    drop((x, y));

    const M: usize = 256;
    let am: Vec<f64> = (0..M * M).map(|i| (i as f64 * 0.013).sin()).collect();
    let bm: Vec<f64> = (0..M * M).map(|i| (i as f64 * 0.029).cos()).collect();
    let mut cm = vec![0.0; M * M];
    let w = densela::gemm::gemm_blocked(M, M, M, 1.0, &am, &bm, 0.0, &mut cm);
    row(tr, "densela.gemm_blocked256", w, &mut || {
        densela::gemm::gemm_blocked(M, M, M, 1.0, &am, &bm, 0.0, &mut cm);
        black_box(&cm);
    });

    const P: usize = 16;
    const NEL: usize = 2048;
    let ap: Vec<f64> = (0..P * P).map(|i| (i as f64 * 0.017).sin()).collect();
    let bb: Vec<f64> = (0..NEL * P * P).map(|i| (i as f64 * 0.003).cos()).collect();
    let mut cb = vec![0.0; NEL * P * P];
    let w = densela::gemm::small_gemm_batch(P, P, P, 1.0, &ap, &bb, 0.0, &mut cb);
    row(tr, "densela.small_gemm_batch16", w, &mut || {
        densela::gemm::small_gemm_batch(P, P, P, 1.0, &ap, &bb, 0.0, &mut cb);
        black_box(&cb);
    });

    // All three GLL tensor axes over a batch of order-16 elements, each
    // into its own buffer so no apply is a dead store.
    const TEL: usize = 128;
    let p3 = P * P * P;
    let d = densela::DMatrix::from_fn(P, P, |r, c| ((r * P + c) as f64 * 0.011).sin());
    let u: Vec<f64> = (0..TEL * p3).map(|i| (i as f64 * 0.0007).cos()).collect();
    let (mut ur, mut us, mut ut) = (vec![0.0; p3], vec![0.0; p3], vec![0.0; p3]);
    let tensor = |ur: &mut [f64], us: &mut [f64], ut: &mut [f64]| {
        let mut w = Work::ZERO;
        for e in u.chunks_exact(p3) {
            w += densela::tensor::apply_dim0_tiled(&d, P, e, ur);
            w += densela::tensor::apply_dim1_tiled(&d, P, e, us);
            w += densela::tensor::apply_dim2_tiled(&d, P, e, ut);
            black_box((&ur, &us, &ut));
        }
        w
    };
    let w = tensor(&mut ur, &mut us, &mut ut);
    row(tr, "densela.tensor_apply16", w, &mut || {
        tensor(&mut ur, &mut us, &mut ut);
    });

    // fftsim: the blocked 3-D transform, in place on one buffer (eight
    // forward transforms grow its values by at most 512^8, far from
    // overflow).
    const NF: usize = 64;
    let mut data: Vec<fftsim::Complex64> = (0..NF * NF * NF)
        .map(|i| fftsim::Complex64::new((i as f64 * 0.001).sin(), (i as f64 * 0.002).cos()))
        .collect();
    let w = fftsim::fft3d::fft3_inplace_blocked(NF, &mut data);
    row(tr, "fftsim.fft3_blocked64", w, &mut || {
        fftsim::fft3d::fft3_inplace_blocked(NF, &mut data);
        black_box(&data);
    });
    rows
}

/// Measure the host peaks and every kernel row; record the per-layer
/// metrics and return the full rows as JSON for the layer report.
pub fn kernels(tr: &mut Tracer, l3_bytes: u64, out: &mut Metrics) -> String {
    let peaks = host_peaks(tr, l3_bytes);
    out.set("host.triad_gbs", peaks.triad_gbs, "GB/s");
    out.set("host.update_gbs", peaks.update_gbs, "GB/s");
    out.set("host.fma_gflops", peaks.fma_gflops, "GF/s");
    let rows: Vec<String> = kernel_rows(tr, l3_bytes)
        .iter()
        .map(|r| {
            let gflops = r.work.flops as f64 / r.secs / 1e9;
            let gbs = r.work.bytes() as f64 / r.secs / 1e9;
            let ai = r.work.flops as f64 / r.work.bytes().max(1) as f64;
            let frac = gflops / peaks.roof_gflops(ai);
            out.set(format!("{}.s", r.name), r.secs, "s");
            out.set(format!("{}.gflops", r.name), gflops, "GF/s");
            out.set(format!("{}.gbs", r.name), gbs, "GB/s");
            out.set(format!("{}.roofline_frac", r.name), frac, "frac");
            format!(
                "{{\"name\": \"{}\", \"s\": {}, \"flops\": {}, \"computed_bytes\": {}, \"gflops\": {}, \"gbs\": {}, \"host_roofline_frac\": {}}}",
                r.name,
                num(r.secs),
                r.work.flops,
                r.work.bytes(),
                num(gflops),
                num(gbs),
                num(frac)
            )
        })
        .collect();
    format!(
        "{{\"host_peaks\": {}, \"rows\": [\n{}\n]}}",
        peaks.json(),
        rows.join(",\n")
    )
}
