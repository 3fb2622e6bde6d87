//! `bench_json` — machine-readable kernel and repro-suite timings.
//!
//! Times the shared-memory kernel runtime two ways — serial and the
//! persistent kernel pool — on the paper-shaped kernels (CSR SpMV, SELL-C-σ SpMV, multicolour SymGS,
//! dot, AXPY, and a full CG solve on the 48³ 27-point stencil), plus every
//! data-level-optimised kernel against its naive reference (register-tiled
//! GEMM, the packed Nekbone batch, tiled tensor contractions, the
//! cache-blocked and colour-ordered MC-SymGS sweeps, and the tile-gathered
//! 3-D FFT — outputs
//! asserted byte-identical before either variant is timed), plus the
//! pool's own dispatch latency (nanoseconds per `KernelPool::run` of an
//! empty job at 1, 2 and 4 lanes), and writes the results as JSON to `BENCH_kernels.json` (or the path given as the first
//! argument). Every row carries roofline fields: modelled flops and bytes
//! from the kernel's `Work` counters, the achieved GFLOP/s and GB/s at the
//! row's best time, and those rates as fractions of one A64FX core's DP
//! peak and one CMG's sustained bandwidth (`flop_eff`, `bw_eff`). The
//! config header stamps the compiled-in tiling id so `obsctl diff` refuses
//! baselines taken under different block/chunk parameters.
//!
//! It then times one full repro run — every experiment through the
//! campaign pool, trace cache on — and writes `BENCH_repro.json` (or the
//! path given as the second argument): wall seconds, per-experiment
//! seconds, trace-cache counters (hits, misses, inserts, LRU
//! evictions), collective-cache counters (hits, misses), campaign counters (journal records, resumes, retries), and a DES
//! drain microbench (events popped per second through a pre-sized
//! [`netsim::des::EventQueue`]).
//!
//! Finally it times the backend-routed DES allreduce (serial queue vs the
//! sharded conservative-lookahead engine at 2 and 4 shards) at 1k/16k/131k
//! simulated nodes, writing events/sec and engine statistics to
//! `BENCH_des.json` (or the path given as the third argument).
//! `bench_json --des [path]` runs only this part — the fast mode CI's
//! `des` job uses.
//!
//! It also prices one representative kernel of every app kernel class
//! under both pricing backends (flat roofline vs cache-hierarchy ECM) on
//! the A64FX, asserting the flat path bit-identical across independently
//! built executors, and writes predicted times and roofline efficiencies
//! to `BENCH_ecm.json` (or the path given as the fourth argument).
//! `bench_json --ecm [path]` runs only this part — the fast mode CI's
//! `ecm` job uses.
//!
//! Each timing is the best of a few repetitions of `std::time::Instant`
//! around the kernel. Every file opens with a `"config"` header (git
//! revision, DES backend, pricing backend, worker threads) so `obsctl
//! diff` can refuse comparisons across mismatched configurations, and
//! records `available_parallelism` so readers can judge the numbers: on a
//! host with fewer cores than lanes the pooled kernels cannot beat serial,
//! and the dispatch rows are the steadier signal. The kernel file also
//! records the team's `serial_cutover_ops` — kernels below it run inline
//! (the small-kernel regression fix), so their pooled and serial columns
//! should read within noise of each other.

use sparsela::coloring::{ColoredCsr, Coloring};
use sparsela::ell::SellMatrix;
use sparsela::gen::stencil27;
use sparsela::parallel::Team;
use std::hint::black_box;
use std::time::Instant;

const GRID: (usize, usize, usize) = (48, 48, 48);
const THREADS: usize = 4;
const CG_ITERS: usize = 30;
const VEC_REPS: u32 = 11;
const CG_REPS: u32 = 3;

/// Best-of-`reps` wall time of `f`, in seconds.
fn time<O>(reps: u32, mut f: impl FnMut() -> O) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Best-of-`reps` wall times of two variants of the same kernel, reps
/// interleaved A/B/A/B so a noisy-neighbour burst on a shared host hits
/// both variants instead of biasing whichever happened to be timed second.
fn time_pair<O, P>(reps: u32, mut fa: impl FnMut() -> O, mut fb: impl FnMut() -> P) -> (f64, f64) {
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let t0 = Instant::now();
        black_box(fa());
        best_a = best_a.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        black_box(fb());
        best_b = best_b.min(t0.elapsed().as_secs_f64());
    }
    (best_a, best_b)
}

/// Roofline fields for one kernel row: the kernel's modelled work (flops
/// and bytes from the [`densela::Work`] counters) and the rates it achieved
/// at the row's best time, as fractions of one A64FX core's DP peak and
/// one CMG's sustained memory bandwidth (the most a single-threaded kernel
/// could achieve — the honest denominator on this host, where the pooled
/// columns are oversubscribed lanes, not extra cores). `*_per_s` and
/// `*_eff` keys are higher-is-better under `obsctl diff`.
fn roofline_json(work: densela::Work, best_s: f64) -> String {
    use archsim::{system, SystemId};
    let spec = system(SystemId::A64fx);
    let peak_gflops = spec.node.processor.peak_dp_gflops_per_core();
    let cmg_bw_gbs = spec.node.sustained_bw_gbs() / spec.node.memory.num_domains() as f64;
    let gflops = work.flops as f64 / best_s / 1e9;
    let gbs = work.bytes() as f64 / best_s / 1e9;
    format!(
        "\"flops\": {}, \"bytes\": {}, \"gflops_per_s\": {:.4}, \"gbytes_per_s\": {:.4}, \"flop_eff\": {:.6}, \"bw_eff\": {:.6}",
        work.flops,
        work.bytes(),
        gflops,
        gbs,
        gflops / peak_gflops,
        gbs / cmg_bw_gbs,
    )
}

struct Row {
    name: &'static str,
    serial_s: f64,
    pooled_s: f64,
    work: densela::Work,
}

impl Row {
    fn json(&self) -> String {
        format!(
            "    {{\"name\": \"{}\", \"serial_s\": {:.6e}, \"pooled_s\": {:.6e}, \"pooled_vs_serial\": {:.3}, {}}}",
            self.name,
            self.serial_s,
            self.pooled_s,
            self.serial_s / self.pooled_s,
            roofline_json(self.work, self.serial_s.min(self.pooled_s)),
        )
    }
}

/// Nanoseconds per [`densela::KernelPool::run`] of an empty job on a pool
/// of `lanes` lanes: the fixed cost every pooled kernel pays before doing
/// any work, best of `VEC_REPS` batches of `DISPATCHES` runs. A one-lane
/// pool runs the job inline, so its row is the call overhead alone.
fn dispatch_row(lanes: usize) -> String {
    const DISPATCHES: u32 = 10_000;
    let pool = densela::KernelPool::new(lanes);
    let best = time(VEC_REPS, || {
        for _ in 0..DISPATCHES {
            pool.run(|lane| {
                black_box(lane);
            });
        }
    });
    format!(
        "    {{\"name\": \"pool_run_lanes{lanes}\", \"lanes\": {lanes}, \"run_ns\": {:.1}}}",
        best * 1e9 / f64::from(DISPATCHES)
    )
}

/// A blocked-vs-naive comparison row: the same kernel with and without the
/// data-level optimisation (register tiling, chunked inner loops, cache
/// tiling), outputs asserted byte-identical before either variant is
/// timed. `blocked_vs_naive` is higher-is-better under `obsctl diff`.
struct BlockedRow {
    name: &'static str,
    naive_s: f64,
    blocked_s: f64,
    work: densela::Work,
}

impl BlockedRow {
    fn json(&self) -> String {
        format!(
            "    {{\"name\": \"{}\", \"naive_s\": {:.6e}, \"blocked_s\": {:.6e}, \"blocked_vs_naive\": {:.3}, {}}}",
            self.name,
            self.naive_s,
            self.blocked_s,
            self.naive_s / self.blocked_s,
            roofline_json(self.work, self.naive_s.min(self.blocked_s)),
        )
    }
}

/// Assert two f64 buffers byte-identical — the in-bench parity gate every
/// blocked row passes before its timings mean anything.
fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: blocked kernel diverged from naive at element {i}"
        );
    }
}

/// Time one full repro run (every experiment through the campaign pool
/// `repro --all` uses, trace cache on) and write the result as JSON to
/// `path`.
fn bench_repro(path: &str) {
    use a64fx_core::{campaign, runner, tracecache};
    use simmpi::collcache;

    let threads = runner::resolve_threads(None);
    eprintln!("timing full repro suite ({threads} worker threads)...");
    let trace0 = tracecache::stats();
    let coll0 = collcache::stats();
    let camp0 = campaign::stats();
    let t0 = Instant::now();
    let cfg = campaign::CampaignConfig::new(threads, runner::resolve_deadline(None));
    let outcomes = campaign::run_campaign(&cfg, None, false)
        .expect("a campaign without a journal does no I/O")
        .outcomes;
    let wall_s = t0.elapsed().as_secs_f64();
    let trace1 = tracecache::stats();
    let coll1 = collcache::stats();
    let camp1 = campaign::stats();
    let failed = outcomes.iter().filter(|o| !o.ok).count();
    let per_exp: Vec<String> = outcomes
        .iter()
        .map(|o| {
            format!(
                "    {{\"id\": \"{}\", \"wall_s\": {:.3}, \"failed\": {}}}",
                o.id,
                o.elapsed.as_secs_f64(),
                !o.ok,
            )
        })
        .collect();

    // DES drain microbench: schedule-then-drain through a pre-sized queue,
    // the pattern the simulator's validation path uses. `popped_total()`
    // gives the event count without needing an obs recorder around the
    // timed region.
    const DES_EVENTS: usize = 100_000;
    let mut q = netsim::des::EventQueue::with_capacity(DES_EVENTS);
    let d0 = Instant::now();
    for i in 0..DES_EVENTS {
        q.schedule_at(i as f64 * 0.5, i);
    }
    while q.pop().is_some() {}
    let des_s = d0.elapsed().as_secs_f64();
    let des_popped = q.popped_total();

    let json = format!(
        "{{\n  \"config\": {cfg},\n  \"threads\": {threads},\n  \"available_parallelism\": {ap},\n  \"wall_s\": {wall_s:.3},\n  \"experiments\": {nexp},\n  \"failed\": {failed},\n  \"trace_cache\": {{\"hits\": {th}, \"misses\": {tm}, \"inserts\": {ti}, \"evictions\": {te}}},\n  \"collective_cache\": {{\"hits\": {ch}, \"misses\": {cm}}},\n  \"campaign\": {{\"resumed\": {cr}, \"retries\": {crt}, \"journal_records\": {cjr}}},\n  \"des_drain\": {{\"events_popped\": {des_popped}, \"wall_s\": {des_s:.6}}},\n  \"per_experiment\": [\n{per}\n  ]\n}}\n",
        cfg = a64fx_bench::config::header_json(threads),
        ap = densela::pool::available_parallelism(),
        nexp = outcomes.len(),
        th = trace1.hits - trace0.hits,
        tm = trace1.misses - trace0.misses,
        ti = trace1.inserts - trace0.inserts,
        te = trace1.evictions - trace0.evictions,
        ch = coll1.hits - coll0.hits,
        cm = coll1.misses - coll0.misses,
        cr = camp1.resumed - camp0.resumed,
        crt = camp1.retries - camp0.retries,
        cjr = camp1.journal_records - camp0.journal_records,
        per = per_exp.join(",\n"),
    );
    std::fs::write(path, &json).expect("writing the repro benchmark file failed");
    eprintln!("wrote {path}");
    println!("{json}");
}

/// Time the backend-routed DES allreduce (serial queue vs the sharded
/// conservative-lookahead engine at 2 and 4 shards) at several simulated
/// node scales, and write the results as JSON to `path`. Simulated times,
/// event counts and window counts are backend-invariant (the engine's
/// determinism guarantee, asserted here); events/sec is the figure of
/// merit. On a single-core host the sharded lanes are oversubscribed —
/// `available_parallelism` is recorded so readers can judge the numbers.
fn bench_des(path: &str) {
    use netsim::{DesBackend, Network};
    use simmpi::desval::allreduce_des_stats;

    const SCALES: [usize; 3] = [1024, 16_384, 131_072];
    const DES_BYTES: u64 = 8;
    const DES_REPS: u32 = 3;
    let backends = [
        DesBackend::Serial,
        DesBackend::Sharded { shards: 2 },
        DesBackend::Sharded { shards: 4 },
    ];
    let mut entries = Vec::new();
    for nodes in SCALES {
        eprintln!("timing DES allreduce at {nodes} simulated nodes...");
        let placement: Vec<usize> = (0..nodes).collect();
        let net = Network::new(archsim::InterconnectKind::TofuD, nodes);
        let mut serial_wall = f64::NAN;
        let mut serial_bits = 0u64;
        for backend in backends {
            let mut best = f64::INFINITY;
            let mut sim_us = 0.0;
            let mut stats = netsim::RunStats::default();
            for _ in 0..DES_REPS {
                let t0 = Instant::now();
                let (t, s) = black_box(allreduce_des_stats(&net, &placement, DES_BYTES, backend));
                best = best.min(t0.elapsed().as_secs_f64());
                (sim_us, stats) = (t, s);
            }
            match backend {
                DesBackend::Serial => {
                    serial_wall = best;
                    serial_bits = sim_us.to_bits();
                }
                DesBackend::Sharded { .. } => assert_eq!(
                    sim_us.to_bits(),
                    serial_bits,
                    "sharded result drifted from serial at {nodes} nodes"
                ),
            }
            entries.push(format!(
                "    {{\"nodes\": {nodes}, \"backend\": \"{backend}\", \"shards\": {shards}, \
                 \"wall_s\": {best:.6e}, \"events\": {events}, \"events_per_s\": {eps:.3e}, \
                 \"windows\": {windows}, \"stalls\": {stalls}, \"cross_msgs\": {cross}, \
                 \"sim_us\": {sim_us:.3}, \"vs_serial\": {ratio:.3}}}",
                shards = backend.shards(),
                events = stats.events,
                eps = stats.events as f64 / best,
                windows = stats.windows,
                stalls = stats.stalls,
                cross = stats.cross_msgs,
                ratio = serial_wall / best,
            ));
        }
    }
    let json = format!(
        "{{\n  \"config\": {cfg},\n  \"bytes\": {DES_BYTES},\n  \"available_parallelism\": {ap},\n  \"runs\": [\n{rows}\n  ]\n}}\n",
        cfg = a64fx_bench::config::header_json(a64fx_core::runner::resolve_threads(None)),
        ap = densela::pool::available_parallelism(),
        rows = entries.join(",\n"),
    );
    std::fs::write(path, &json).expect("writing the DES benchmark file failed");
    eprintln!("wrote {path}");
    println!("{json}");
}

/// Price one representative kernel of every class the paper's apps emit
/// under both pricing backends on the A64FX, and write flat-vs-ECM
/// predicted times plus achieved-vs-peak roofline efficiencies as JSON to
/// `path`. The flat path is priced twice through independently built
/// executors and asserted bit-identical — the byte-stability guarantee
/// the goldens (and CI's double-run diffs) lean on. `bench_json --ecm
/// [path]` runs only this part — the fast mode CI's ecm job uses.
fn bench_ecm(path: &str) {
    use a64fx_apps::trace::{Phase, Trace};
    use a64fx_apps::{castep, cosa, hpcg, nekbone, opensbli, KernelClass};
    use a64fx_core::costmodel::{Executor, JobLayout, PricingBackend};
    use archsim::{paper_toolchain, system, SystemId};

    eprintln!("pricing app kernels under flat and ECM backends (A64FX)...");
    const RANKS: u32 = 4;
    let traces: Vec<(&str, Trace)> = vec![
        ("hpcg", hpcg::trace(hpcg::HpcgConfig::paper(), RANKS)),
        (
            "nekbone",
            nekbone::trace(nekbone::NekboneConfig::paper(), RANKS),
        ),
        (
            "castep",
            castep::trace(castep::CastepConfig::paper(), RANKS),
        ),
        ("cosa", cosa::trace(cosa::CosaConfig::paper(), RANKS)),
        (
            "opensbli",
            opensbli::trace(opensbli::OpensbliConfig::paper(), RANKS),
        ),
    ];
    // First occurrence of each kernel class across the app traces, in
    // trace order: (app, class, rank-0 work, working set).
    let mut kernels: Vec<(&str, KernelClass, densela::Work, u64)> = Vec::new();
    for (app, trace) in &traces {
        for phase in trace.prologue.iter().chain(&trace.body) {
            if let Phase::Compute {
                class,
                work,
                ws_bytes,
            } = phase
            {
                if kernels.iter().all(|(_, c, _, _)| c != class) {
                    kernels.push((app, *class, work.of_rank(0), *ws_bytes));
                }
            }
        }
    }

    let spec = system(SystemId::A64fx);
    let tc = paper_toolchain(SystemId::A64fx, "hpcg").unwrap();
    // One rank on a full CMG: the per-kernel shape the paper discusses.
    let threads = spec.node.cores_per_domain();
    let layout = JobLayout {
        ranks: 1,
        ranks_per_node: 1,
        threads_per_rank: threads,
    };
    let flat = Executor::with_pricing(&spec, &tc, PricingBackend::Flat);
    let ecm = Executor::with_pricing(&spec, &tc, PricingBackend::Ecm);
    let peak_gflops = f64::from(threads) * spec.node.processor.peak_dp_gflops_per_core();

    let mut entries = Vec::new();
    for (app, class, work, ws) in kernels {
        let flat_us = flat.kernel_time_us(layout, class, work, ws);
        // Bit-identity pin: a freshly built flat executor must reproduce
        // the price exactly — the flat path has no hidden state.
        let again = Executor::with_pricing(&spec, &tc, PricingBackend::Flat)
            .kernel_time_us(layout, class, work, ws);
        assert_eq!(
            flat_us.to_bits(),
            again.to_bits(),
            "flat pricing drifted for {app}/{class:?}"
        );
        let ecm_us = ecm.kernel_time_us(layout, class, work, ws);
        let gflops = |us: f64| {
            if us > 0.0 {
                work.flops as f64 / (us * 1e3)
            } else {
                0.0
            }
        };
        entries.push(format!(
            "    {{\"app\": \"{app}\", \"class\": \"{class:?}\", \"pattern\": \"{pattern}\", \
             \"flops\": {flops}, \"bytes\": {bytes}, \"ws_bytes\": {ws}, \
             \"flat_us\": {flat_us:.6}, \"ecm_us\": {ecm_us:.6}, \"ecm_vs_flat\": {ratio:.4}, \
             \"flat_roofline_eff\": {feff:.4}, \"ecm_roofline_eff\": {eeff:.4}}}",
            pattern = class.access_pattern().name(),
            flops = work.flops,
            bytes = work.bytes(),
            ratio = ecm_us / flat_us,
            feff = gflops(flat_us) / peak_gflops,
            eeff = gflops(ecm_us) / peak_gflops,
        ));
    }
    let json = format!(
        "{{\n  \"config\": {cfg},\n  \"system\": \"A64FX\",\n  \"threads_per_rank\": {threads},\n  \"peak_gflops\": {peak_gflops:.2},\n  \"kernels\": [\n{rows}\n  ]\n}}\n",
        cfg = a64fx_bench::config::header_json(a64fx_core::runner::resolve_threads(None)),
        rows = entries.join(",\n"),
    );
    std::fs::write(path, &json).expect("writing the ECM benchmark file failed");
    eprintln!("wrote {path}");
    println!("{json}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `--des [path]`: only the DES engine benchmark — the fast mode CI's
    // des job uses (no kernel timings, no full repro run).
    if let Some(i) = args.iter().position(|a| a == "--des") {
        let des_path = args
            .get(i + 1)
            .cloned()
            .unwrap_or_else(|| "BENCH_des.json".to_string());
        bench_des(&des_path);
        return;
    }
    // `--ecm [path]`: only the flat-vs-ECM kernel pricing comparison —
    // the fast mode CI's ecm job uses.
    if let Some(i) = args.iter().position(|a| a == "--ecm") {
        let ecm_path = args
            .get(i + 1)
            .cloned()
            .unwrap_or_else(|| "BENCH_ecm.json".to_string());
        bench_ecm(&ecm_path);
        return;
    }
    let path = args
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_kernels.json".to_string());
    let repro_path = args
        .get(1)
        .cloned()
        .unwrap_or_else(|| "BENCH_repro.json".to_string());
    let des_path = args
        .get(2)
        .cloned()
        .unwrap_or_else(|| "BENCH_des.json".to_string());
    let (nx, ny, nz) = GRID;
    eprintln!("building {nx}x{ny}x{nz} stencil27 operator...");
    let a = stencil27(nx, ny, nz);
    // Auto-σ: the sorting window follows the row-length variance of the
    // operator (boundary rows of a 27-point stencil are shorter than
    // interior ones) instead of a hand-picked constant.
    let sell = SellMatrix::from_csr_auto(&a, 8);
    let coloring = Coloring::stencil8(nx, ny, nz);
    // The optimised HPCG smoother's storage: the operator's rows colour by
    // colour. The pooled MC-SymGS column and the `mc_symgs_colored` row
    // sweep it.
    let colored = ColoredCsr::new(a.clone(), &coloring);
    let n = a.rows();
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.017).cos()).collect();
    let mut y = vec![0.0; n];

    let team = Team::new(THREADS);
    let serial_team = Team::new(1);

    // Warm the matrix, vectors, and pool before any timed region so the
    // first-timed variant doesn't pay the page-fault bill.
    a.spmv(&x, &mut y);
    team.spmv(&a, &x, &mut y);

    eprintln!("timing kernels ({THREADS} threads)...");
    let mut rows = Vec::new();

    rows.push(Row {
        name: "spmv_csr",
        serial_s: time(VEC_REPS, || a.spmv(&x, &mut y)),
        pooled_s: time(VEC_REPS, || team.spmv(&a, &x, &mut y)),
        work: a.spmv_work(),
    });
    {
        // In-bench parity: the pooled SELL path (the chunked kernel) must
        // reproduce the naive SELL SpMV bit for bit before it is timed.
        let mut y_naive = vec![0.0; n];
        let mut y_chunked = vec![0.0; n];
        sell.spmv(&x, &mut y_naive);
        team.sell_spmv(&sell, &x, &mut y_chunked);
        assert_bits_eq(&y_naive, &y_chunked, "spmv_sell8");
    }
    rows.push(Row {
        name: "spmv_sell8",
        serial_s: time(VEC_REPS, || sell.spmv(&x, &mut y)),
        pooled_s: time(VEC_REPS, || team.sell_spmv(&sell, &x, &mut y)),
        work: sell.spmv_work(),
    });
    {
        let mut xs = vec![0.0; n];
        let mut xp = vec![0.0; n];
        let symgs_work = sparsela::coloring::mc_symgs_sweep(&a, &coloring, &b, &mut xs);
        rows.push(Row {
            name: "mc_symgs_sweep",
            serial_s: time(VEC_REPS, || {
                sparsela::coloring::mc_symgs_sweep(&a, &coloring, &b, &mut xs)
            }),
            pooled_s: time(VEC_REPS, || team.mc_symgs_sweep(&colored, &b, &mut xp)),
            work: symgs_work,
        });
    }
    rows.push(Row {
        name: "dot",
        serial_s: time(VEC_REPS, || densela::vecops::dot(&x, &b)),
        pooled_s: time(VEC_REPS, || team.dot(&x, &b)),
        work: densela::vecops::dot(&x, &b).1,
    });
    {
        let mut acc = b.clone();
        let axpy_work = densela::vecops::axpy(1.0001, &x, &mut acc);
        rows.push(Row {
            name: "axpy",
            serial_s: time(VEC_REPS, || densela::vecops::axpy(1.0001, &x, &mut acc)),
            pooled_s: time(VEC_REPS, || team.axpy(1.0001, &x, &mut acc)),
            work: axpy_work,
        });
    }

    eprintln!("timing CG ({CG_ITERS} fixed iterations)...");
    let cg_work = {
        let mut x0 = vec![0.0; n];
        serial_team.cg_solve(&a, &b, &mut x0, CG_ITERS, 0.0).2
    };
    let cg = Row {
        name: "cg_stencil27_48cubed",
        serial_s: time(CG_REPS, || {
            let mut x0 = vec![0.0; n];
            serial_team.cg_solve(&a, &b, &mut x0, CG_ITERS, 0.0)
        }),
        pooled_s: time(CG_REPS, || {
            let mut x0 = vec![0.0; n];
            team.cg_solve(&a, &b, &mut x0, CG_ITERS, 0.0)
        }),
        work: cg_work,
    };

    // A strong-scaling-limit CG: per-rank grids shrink as jobs scale out,
    // and at small per-rank sizes each kernel's dispatch cost is a large
    // share of its time.
    let a_small = stencil27(16, 16, 16);
    let ns = a_small.rows();
    let bs: Vec<f64> = (0..ns).map(|i| (i as f64 * 0.017).cos()).collect();
    {
        let mut x0 = vec![0.0; ns];
        a_small.spmv(&bs, &mut x0);
    }
    let cg_small_work = {
        let mut x0 = vec![0.0; ns];
        serial_team
            .cg_solve(&a_small, &bs, &mut x0, CG_ITERS, 0.0)
            .2
    };
    rows.push(Row {
        name: "cg_stencil27_16cubed",
        serial_s: time(VEC_REPS, || {
            let mut x0 = vec![0.0; ns];
            serial_team.cg_solve(&a_small, &bs, &mut x0, CG_ITERS, 0.0)
        }),
        pooled_s: time(VEC_REPS, || {
            let mut x0 = vec![0.0; ns];
            team.cg_solve(&a_small, &bs, &mut x0, CG_ITERS, 0.0)
        }),
        work: cg_small_work,
    });

    // --- Blocked-vs-naive rows: every data-level-optimised kernel against
    // its naive reference, outputs byte-matched before timing. ---
    eprintln!("timing blocked-vs-naive kernels...");
    let mut blocked_rows = Vec::new();

    {
        // Register-tiled GEMM at a dense L2-straddling shape.
        const M: usize = 256;
        let am: Vec<f64> = (0..M * M).map(|i| (i as f64 * 0.013).sin()).collect();
        let bm: Vec<f64> = (0..M * M).map(|i| (i as f64 * 0.029).cos()).collect();
        let mut c_naive = vec![0.0; M * M];
        let mut c_blocked = vec![0.0; M * M];
        densela::gemm::gemm(M, M, M, 1.0, &am, &bm, 0.0, &mut c_naive);
        let w = densela::gemm::gemm_blocked(M, M, M, 1.0, &am, &bm, 0.0, &mut c_blocked);
        assert_bits_eq(&c_naive, &c_blocked, "gemm_256");
        // With beta = 0 the C buffer is write-only; the closures return one
        // element (black_boxed by the timer) so the stores stay live.
        let (naive_s, blocked_s) = time_pair(
            VEC_REPS,
            || {
                densela::gemm::gemm(M, M, M, 1.0, &am, &bm, 0.0, &mut c_naive);
                c_naive[M]
            },
            || {
                densela::gemm::gemm_blocked(M, M, M, 1.0, &am, &bm, 0.0, &mut c_blocked);
                c_blocked[M]
            },
        );
        blocked_rows.push(BlockedRow {
            name: "gemm_256",
            naive_s,
            blocked_s,
            work: w,
        });
    }
    {
        // The Nekbone shape: one small A applied to a batch of elements,
        // packed once for the whole batch. The batch is sized so one timed
        // rep spans a few milliseconds — long enough that a noisy-neighbour
        // burst on a shared host cannot cover every interleaved rep.
        const P: usize = 16;
        const NEL: usize = 2048;
        let am: Vec<f64> = (0..P * P).map(|i| (i as f64 * 0.017).sin()).collect();
        let bb: Vec<f64> = (0..NEL * P * P).map(|i| (i as f64 * 0.003).cos()).collect();
        let mut c_naive = vec![0.0; NEL * P * P];
        let mut c_blocked = vec![0.0; NEL * P * P];
        densela::gemm::small_gemm_batch_ref(P, P, P, 1.0, &am, &bb, 0.0, &mut c_naive);
        let w = densela::gemm::small_gemm_batch(P, P, P, 1.0, &am, &bb, 0.0, &mut c_blocked);
        assert_bits_eq(&c_naive, &c_blocked, "small_gemm_batch16");
        let (naive_s, blocked_s) = time_pair(
            VEC_REPS,
            || {
                densela::gemm::small_gemm_batch_ref(P, P, P, 1.0, &am, &bb, 0.0, &mut c_naive);
                c_naive[P]
            },
            || {
                densela::gemm::small_gemm_batch(P, P, P, 1.0, &am, &bb, 0.0, &mut c_blocked);
                c_blocked[P]
            },
        );
        blocked_rows.push(BlockedRow {
            name: "small_gemm_batch16",
            naive_s,
            blocked_s,
            work: w,
        });
    }
    {
        // Spectral-element tensor contractions: all three axes over a batch
        // of elements, naive vs i-chunked/row-chunked tiled passes.
        use densela::tensor;
        const P: usize = 16;
        const NEL: usize = 128;
        let d = densela::DMatrix::from_fn(P, P, |r, c| ((r * P + c) as f64 * 0.011).sin());
        let u: Vec<f64> = (0..NEL * P * P * P)
            .map(|i| (i as f64 * 0.0007).cos())
            .collect();
        let p3 = P * P * P;
        let mut out_naive = vec![0.0; p3];
        let mut out_blocked = vec![0.0; p3];
        let mut w = densela::Work::ZERO;
        type Apply = fn(&densela::DMatrix, usize, &[f64], &mut [f64]) -> densela::Work;
        for (apply, tiled) in [
            (
                tensor::apply_dim0 as Apply,
                tensor::apply_dim0_tiled as Apply,
            ),
            (
                tensor::apply_dim1 as Apply,
                tensor::apply_dim1_tiled as Apply,
            ),
            (
                tensor::apply_dim2 as Apply,
                tensor::apply_dim2_tiled as Apply,
            ),
        ] {
            apply(&d, P, &u[..p3], &mut out_naive);
            w += tiled(&d, P, &u[..p3], &mut out_blocked);
            assert_bits_eq(&out_naive, &out_blocked, "tensor_apply16");
        }
        let w = w * NEL as u64;
        // Each axis writes its own buffer (the Nekbone ur/us/ut shape) and
        // the timed closure folds one element of each into its return value
        // (black_boxed by `time`): with a single shared output the first two
        // naive applies are dead stores the optimiser deletes wholesale,
        // which made the naive column look 3x faster than it is.
        let (mut ur_n, mut us_n, mut ut_n) = (vec![0.0; p3], vec![0.0; p3], vec![0.0; p3]);
        let (mut ur_b, mut us_b, mut ut_b) = (vec![0.0; p3], vec![0.0; p3], vec![0.0; p3]);
        let (naive_s, blocked_s) = time_pair(
            VEC_REPS,
            || {
                let mut acc = 0.0;
                for e in 0..NEL {
                    let ue = &u[e * p3..(e + 1) * p3];
                    tensor::apply_dim0(&d, P, ue, &mut ur_n);
                    tensor::apply_dim1(&d, P, ue, &mut us_n);
                    tensor::apply_dim2(&d, P, ue, &mut ut_n);
                    acc += ur_n[e % p3] + us_n[e % p3] + ut_n[e % p3];
                }
                acc
            },
            || {
                let mut acc = 0.0;
                for e in 0..NEL {
                    let ue = &u[e * p3..(e + 1) * p3];
                    tensor::apply_dim0_tiled(&d, P, ue, &mut ur_b);
                    tensor::apply_dim1_tiled(&d, P, ue, &mut us_b);
                    tensor::apply_dim2_tiled(&d, P, ue, &mut ut_b);
                    acc += ur_b[e % p3] + us_b[e % p3] + ut_b[e % p3];
                }
                acc
            },
        );
        blocked_rows.push(BlockedRow {
            name: "tensor_apply16",
            naive_s,
            blocked_s,
            work: w,
        });
    }
    {
        // Cache-blocked MC-SymGS (tiled colour rows + single-pass diagonal)
        // against the naive per-row sweep on the same 48³ operator.
        let mut x_naive = vec![0.0; n];
        let mut x_blocked = vec![0.0; n];
        sparsela::coloring::mc_symgs_sweep(&a, &coloring, &b, &mut x_naive);
        let w = sparsela::coloring::mc_symgs_sweep_blocked(&a, &coloring, &b, &mut x_blocked);
        assert_bits_eq(&x_naive, &x_blocked, "mc_symgs_blocked");
        let (naive_s, blocked_s) = time_pair(
            VEC_REPS,
            || sparsela::coloring::mc_symgs_sweep(&a, &coloring, &b, &mut x_naive),
            || sparsela::coloring::mc_symgs_sweep_blocked(&a, &coloring, &b, &mut x_blocked),
        );
        blocked_rows.push(BlockedRow {
            name: "mc_symgs_blocked",
            naive_s,
            blocked_s,
            work: w,
        });
    }
    {
        // Colour-ordered storage: every colour pass streams one contiguous
        // range of rows instead of striding through natural-order CSR.
        let mut x_naive = vec![0.0; n];
        let mut x_colored = vec![0.0; n];
        sparsela::coloring::mc_symgs_sweep(&a, &coloring, &b, &mut x_naive);
        let w = colored.sweep(&b, &mut x_colored);
        assert_bits_eq(&x_naive, &x_colored, "mc_symgs_colored");
        let (naive_s, blocked_s) = time_pair(
            VEC_REPS,
            || sparsela::coloring::mc_symgs_sweep(&a, &coloring, &b, &mut x_naive),
            || colored.sweep(&b, &mut x_colored),
        );
        blocked_rows.push(BlockedRow {
            name: "mc_symgs_colored",
            naive_s,
            blocked_s,
            work: w,
        });
    }
    {
        // 3-D FFT with tile-gathered strided passes vs pencil-at-a-time.
        const NF: usize = 64;
        let mk = || -> Vec<fftsim::Complex64> {
            (0..NF * NF * NF)
                .map(|i| fftsim::Complex64::new((i as f64 * 0.001).sin(), (i as f64 * 0.002).cos()))
                .collect()
        };
        let mut d_naive = mk();
        let mut d_blocked = mk();
        fftsim::fft3_inplace(NF, &mut d_naive);
        let w = fftsim::fft3d::fft3_inplace_blocked(NF, &mut d_blocked);
        for (i, (p, q)) in d_naive.iter().zip(&d_blocked).enumerate() {
            assert!(
                p.re.to_bits() == q.re.to_bits() && p.im.to_bits() == q.im.to_bits(),
                "fft3_64: blocked kernel diverged from naive at element {i}"
            );
        }
        let (naive_s, blocked_s) = time_pair(
            VEC_REPS,
            || fftsim::fft3_inplace(NF, &mut d_naive),
            || fftsim::fft3d::fft3_inplace_blocked(NF, &mut d_blocked),
        );
        blocked_rows.push(BlockedRow {
            name: "fft3_64",
            naive_s,
            blocked_s,
            work: w,
        });
    }

    eprintln!("timing pool dispatch latency...");
    let dispatch_lines: Vec<String> = [1, 2, 4].into_iter().map(dispatch_row).collect();

    let kernel_lines: Vec<String> = rows.iter().map(Row::json).collect();
    let blocked_lines: Vec<String> = blocked_rows.iter().map(BlockedRow::json).collect();
    let json = format!(
        "{{\n  \"config\": {cfg},\n  \"grid\": [{nx}, {ny}, {nz}],\n  \"rows\": {n},\n  \"threads\": {THREADS},\n  \"available_parallelism\": {ap},\n  \"serial_cutover_ops\": {cutover},\n  \"sell\": {{\"c\": {sc}, \"sigma\": {ssig}, \"fill_ratio\": {sfill:.4}}},\n  \"cg_iterations\": {CG_ITERS},\n  \"cg\":\n{cg_line},\n  \"kernels\": [\n{kernels}\n  ],\n  \"blocked\": [\n{blocked}\n  ],\n  \"dispatch\": [\n{dispatch}\n  ]\n}}\n",
        cfg = a64fx_bench::config::header_json(THREADS),
        ap = densela::pool::available_parallelism(),
        cutover = team.serial_cutover_ops(),
        sc = sell.c(),
        ssig = sell.sigma(),
        sfill = sell.fill_ratio(),
        cg_line = cg.json(),
        kernels = kernel_lines.join(",\n"),
        blocked = blocked_lines.join(",\n"),
        dispatch = dispatch_lines.join(",\n"),
    );
    std::fs::write(&path, &json).expect("writing the benchmark file failed");
    eprintln!("wrote {path}");
    println!("{json}");

    bench_repro(&repro_path);
    bench_des(&des_path);
    bench_ecm(
        &args
            .get(3)
            .cloned()
            .unwrap_or_else(|| "BENCH_ecm.json".to_string()),
    );
}
