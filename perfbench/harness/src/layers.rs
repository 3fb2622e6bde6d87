//! Layer probes that need no workload: pricing and replay through the
//! public `Executor` API, the DES event queue at D1's peak depth, and the
//! kernel pool's dispatch latency.

use std::hint::black_box;
use std::time::Instant;

use a64fx_apps::trace::Trace;
use a64fx_apps::{castep, cosa, hpcg, minikab, nekbone, opensbli};
use a64fx_core::costmodel::{Executor, JobLayout, PricingBackend};
use archsim::{paper_toolchain, system, SystemId};

use crate::spans::Tracer;
use crate::stats::{median, Metrics};

/// Median of `reps` timings of `f`, in seconds.
pub fn median_time<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&v)
}

/// Each application's paper trace on one full node of `sys`.
fn paper_traces(sys: SystemId) -> Vec<(&'static str, Trace, JobLayout)> {
    let spec = system(sys);
    let layout = JobLayout::mpi_full(1, &spec);
    let r = layout.ranks;
    vec![
        ("hpcg", hpcg::trace(hpcg::HpcgConfig::paper(), r), layout),
        (
            "minikab",
            minikab::trace(minikab::MinikabConfig::paper(), r),
            layout,
        ),
        (
            "nekbone",
            nekbone::trace(nekbone::NekboneConfig::paper(), r),
            layout,
        ),
        (
            "castep",
            castep::trace(castep::CastepConfig::paper(), r),
            layout,
        ),
        ("cosa", cosa::trace(cosa::CosaConfig::paper(), r), layout),
        (
            "opensbli",
            opensbli::trace(opensbli::OpensbliConfig::paper(), r),
            layout,
        ),
    ]
}

/// `core.costmodel.price_s`, `simmpi.world.build_s` and
/// `simmpi.world.replay_s`: every application's paper trace on one node of
/// each of the five systems, built, priced and replayed through the public
/// `Executor` API with flat pricing. Each figure is the median over three
/// passes of the pass total.
pub fn executor(tr: &mut Tracer, out: &mut Metrics) {
    let jobs: Vec<_> = SystemId::all()
        .into_iter()
        .flat_map(|sys| {
            paper_traces(sys)
                .into_iter()
                .map(move |(app, trace, layout)| (sys, app, trace, layout))
        })
        .collect();
    let mut passes = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..3 {
        let (mut build, mut price, mut replay) = (0.0, 0.0, 0.0);
        for (sys, app, trace, layout) in &jobs {
            let spec = system(*sys);
            // Where the paper ran no build of an app on a system, its HPCG
            // toolchain stands in (every system ran HPCG).
            let tc = paper_toolchain(*sys, app)
                .or_else(|| paper_toolchain(*sys, "hpcg"))
                .expect("every system has an HPCG toolchain");
            let ex = Executor::with_pricing(&spec, &tc, PricingBackend::Flat);
            let t0 = Instant::now();
            let mut world = tr.span("simmpi.world.build", |_| ex.build_world(trace, *layout));
            let t1 = Instant::now();
            let priced = tr.span("core.costmodel.price", |_| ex.price(trace, &world));
            let t2 = Instant::now();
            tr.span("simmpi.world.replay", |_| {
                ex.replay_priced_prologue(&priced, &mut world);
                for _ in 0..trace.iterations {
                    ex.replay_priced_iteration(&priced, &mut world);
                }
            });
            let t3 = Instant::now();
            black_box(world.elapsed_s());
            build += (t1 - t0).as_secs_f64();
            price += (t2 - t1).as_secs_f64();
            replay += (t3 - t2).as_secs_f64();
        }
        passes[0].push(build);
        passes[1].push(price);
        passes[2].push(replay);
    }
    out.set("simmpi.world.build_s", median(&passes[0]), "s");
    out.set("core.costmodel.price_s", median(&passes[1]), "s");
    out.set("simmpi.world.replay_s", median(&passes[2]), "s");
}

/// D1's peak queue depth: one start event per simulated node of its
/// largest row.
const QUEUE_DEPTH: usize = 131_072;

/// `netsim.queue.ns_per_event`: fill an `EventQueue` to D1's peak depth,
/// run as many hold operations (pop one, schedule one a pseudo-random
/// delay later), then drain; nanoseconds per scheduled event, median of
/// five runs.
pub fn queue(tr: &mut Tracer, out: &mut Metrics) {
    let delays: Vec<f64> = (0..QUEUE_DEPTH as u64)
        .map(|i| {
            let h = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            0.05 + (h % 4096) as f64 * 1e-3
        })
        .collect();
    let mut per_event = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        let scheduled = tr.span("netsim.queue.hold", |_| {
            let mut q = netsim::EventQueue::with_capacity(QUEUE_DEPTH);
            for (i, d) in delays.iter().enumerate() {
                q.schedule_at(*d, i as u32);
            }
            for d in &delays {
                let e = q.pop().expect("queue holds its depth");
                q.schedule_at(e.time_us + d, e.payload);
            }
            while let Some(e) = q.pop() {
                black_box(e.payload);
            }
            q.scheduled_total()
        });
        per_event.push(t0.elapsed().as_secs_f64() * 1e9 / scheduled as f64);
    }
    out.set("netsim.queue.ns_per_event", median(&per_event), "ns");
}

/// `densela.pool.dispatch_ns.lanes{1,2}`: nanoseconds per `KernelPool::run`
/// of an empty job, median of five batches.
pub fn pool(tr: &mut Tracer, out: &mut Metrics) {
    const DISPATCHES: u32 = 20_000;
    for lanes in [1usize, 2] {
        let pool = densela::KernelPool::new(lanes);
        let per = tr.span(&format!("densela.pool.lanes{lanes}"), |_| {
            median_time(5, || {
                for _ in 0..DISPATCHES {
                    pool.run(|lane| {
                        black_box(lane);
                    });
                }
            })
        });
        out.set(
            format!("densela.pool.dispatch_ns.lanes{lanes}"),
            per * 1e9 / f64::from(DISPATCHES),
            "ns",
        );
    }
}
