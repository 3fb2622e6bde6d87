//! `perfbench-harness` — the in-process half of the repository benchmark.
//!
//! ```text
//! perfbench-harness --workload <tables|fugaku_des|des_small|miniapps>
//!                   --seed <n> --seconds <s> --trace <0|1>
//!                   [--setup-only]
//! ```
//!
//! One process runs one workload on one thread. It pins the run
//! configuration (serial DES, flat pricing, memory-only trace cache, one
//! thread) and refuses to start if any `A64FX_*` variable could override
//! it. Set-up is timed from process start to the end of the first op,
//! which is checked but not timed as an op. Then ops run back to back for
//! `--seconds`; each is timed, then checked.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics.
//! With `--trace 1` the run times untraced and traced ops of its workload
//! (their ratio is the tracing overhead), then profiles every layer of
//! every workload, and writes the spans as a Chrome trace plus a layer
//! report (with the full kernel rows) under `.bench_out`. `perfbench/run.py`
//! builds this binary and adds the process-level figures (peak RSS, the
//! median set-up time over several processes).

mod layers;
mod roofline;
mod spans;
mod stats;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use spans::Tracer;
use stats::{median, median_index, num, Metrics};
use workloads::Workload;

/// The seven environment variables that override the run configuration.
const PINNED_ENV: [&str; 7] = [
    "A64FX_REPRO_THREADS",
    "A64FX_DES_BACKEND",
    "A64FX_PRICING",
    "A64FX_DEADLINE_SECS",
    "A64FX_TRACE_CACHE",
    "A64FX_TRACE_CACHE_CAP",
    "A64FX_TRACE_CACHE_DIR",
];

/// Where a traced run writes its Chrome trace and layer report.
const OUT_DIR: &str = ".bench_out";

/// The L3 size the operating system reports for CPU 0; 32 MiB when it
/// reports none.
fn l3_bytes() -> u64 {
    let raw = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .unwrap_or_default();
    let raw = raw.trim();
    let (digits, scale) = match raw.strip_suffix('K') {
        Some(d) => (d, 1 << 10),
        None => (raw, 1),
    };
    digits.parse::<u64>().map_or(32 << 20, |n| n * scale)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
    l3_bytes: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        setup_only: false,
        l3_bytes: l3_bytes(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} needs {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("a positive number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, got {:?}",
            workloads::NAMES,
            args.workload
        ));
    }
    Ok(args)
}

/// Pin every knob the output depends on, so no process-global default or
/// environment fallback can change what is measured.
fn pin_config() -> Result<(), String> {
    let set: Vec<&str> = PINNED_ENV
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        return Err(format!(
            "refusing to run with {} set: the benchmark pins the run configuration",
            set.join(", ")
        ));
    }
    netsim::shard::set_default_backend(netsim::DesBackend::Serial);
    a64fx_core::costmodel::set_default_pricing(a64fx_core::costmodel::PricingBackend::Flat);
    a64fx_core::tracecache::set_enabled(true);
    a64fx_core::tracecache::set_disk_dir(Some(None));
    a64fx_core::tracecache::set_capacity(Some(a64fx_core::tracecache::DEFAULT_CAPACITY_BYTES));
    Ok(())
}

/// Attempted and failed op counts.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Run one op with `tr`, check it, and return its seconds. A panic or
    /// failed check counts the op as failed.
    fn op(&mut self, w: &mut dyn Workload, tr: &mut Tracer) -> f64 {
        self.attempted += 1;
        let t0 = Instant::now();
        let ran = catch_unwind(AssertUnwindSafe(|| tr.span("perfbench.op", |tr| w.op(tr))));
        let secs = t0.elapsed().as_secs_f64();
        let verdict = match ran {
            Ok(()) => catch_unwind(AssertUnwindSafe(|| w.check()))
                .unwrap_or_else(|_| Err("the check panicked".to_string())),
            Err(_) => Err("the op panicked".to_string()),
        };
        if let Err(why) = verdict {
            self.failed += 1;
            eprintln!("op {} failed: {why}", self.attempted);
        }
        secs
    }

    /// Run ops back to back until `seconds` have passed (at least one).
    fn ops_for(&mut self, w: &mut dyn Workload, tr: &mut Tracer, seconds: f64) -> Vec<(u32, f64)> {
        let start = Instant::now();
        let mut out = Vec::new();
        while out.is_empty() || start.elapsed().as_secs_f64() < seconds {
            let id = tr.next_op();
            out.push((id, self.op(w, tr)));
        }
        out
    }

    fn result_json(&self, metrics: &Metrics) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.json()
        )
    }
}

fn config_json(args: &Args) -> String {
    format!(
        "{{\"config\": {}, \"nproc\": {}, \"l3_bytes\": {}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        a64fx_bench::config::header_json(1),
        densela::pool::available_parallelism(),
        args.l3_bytes,
        args.workload,
        args.seed,
        num(args.seconds),
        u8::from(args.trace),
    )
}

fn main() {
    let started = Instant::now();
    let args = match parse_args().and_then(|a| pin_config().map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            std::process::exit(2);
        }
    };
    let mut tally = Tally::default();
    let mut tr = Tracer::new(false);
    let mut w = match workloads::build(&args.workload, args.seed) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench-harness: set-up failed: {e}");
            std::process::exit(1);
        }
    };
    tr.next_op();
    tally.op(w.as_mut(), &mut tr);
    let setup_s = started.elapsed().as_secs_f64();
    if args.setup_only {
        println!(
            "{{\"setup_s\": {}, \"correct\": {}}}",
            num(setup_s),
            tally.failed == 0
        );
        return;
    }
    println!("{}", config_json(&args));
    let mut metrics = Metrics::default();
    if args.trace {
        traced_run(&args, w.as_mut(), &mut tr, &mut tally, &mut metrics);
    } else {
        let times: Vec<f64> = tally
            .ops_for(w.as_mut(), &mut tr, args.seconds)
            .into_iter()
            .map(|(_, s)| s)
            .collect();
        let (tail_s, pct, beyond) = stats::tail(&times);
        println!(
            "{{\"ops\": {}, \"op_tail_percentile\": {}, \"ops_beyond_tail\": {beyond}}}",
            times.len(),
            num(pct),
        );
        metrics.set("setup_s", setup_s, "s");
        metrics.set("op_p50_s", median(&times), "s");
        metrics.set("op_tail_s", tail_s, "s");
    }
    println!("{}", tally.result_json(&metrics));
}

/// The traced run: untraced then traced ops of the workload (the overhead
/// of tracing), then a profile of every layer of every workload, so each
/// traced run reports the same per-layer metrics.
fn traced_run(
    args: &Args,
    w: &mut dyn Workload,
    tr: &mut Tracer,
    tally: &mut Tally,
    out: &mut Metrics,
) {
    let window = 0.3 * args.seconds;
    let untraced: Vec<f64> = tally
        .ops_for(w, tr, window)
        .into_iter()
        .map(|(_, s)| s)
        .collect();
    tr.set_on(true);
    let traced = tally.ops_for(w, tr, window);
    let secs: Vec<f64> = traced.iter().map(|&(_, s)| s).collect();
    out.set(
        "trace_overhead_frac",
        median(&secs) / median(&untraced) - 1.0,
        "frac",
    );
    let (op, op_s) = traced[median_index(&secs)];
    w.layer_metrics(&tr.op_spans(op), op_s, out);
    w.extra_layers(tr, out);

    // The other workloads' layers: two traced ops each, read from the
    // faster one.
    for name in workloads::NAMES.into_iter().filter(|n| *n != args.workload) {
        let mut other = match workloads::build(name, args.seed) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench-harness: set-up of {name} failed: {e}");
                tally.attempted += 1;
                tally.failed += 1;
                continue;
            }
        };
        let ops: Vec<(u32, f64)> = (0..2)
            .map(|_| {
                let id = tr.next_op();
                (id, tally.op(other.as_mut(), tr))
            })
            .collect();
        let &(op, op_s) = ops
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("two ops");
        other.layer_metrics(&tr.op_spans(op), op_s, out);
        other.extra_layers(tr, out);
    }

    tr.next_op();
    layers::executor(tr, out);
    layers::queue(tr, out);
    layers::pool(tr, out);
    let kernel_rows = roofline::kernels(tr, args.l3_bytes, out);

    let stem = format!("{}-seed{}", args.workload, args.seed);
    let report = format!(
        "{{\n\"run\": {},\n\"untraced_op_p50_s\": {},\n\"traced_op_p50_s\": {},\n\"kernels\": {}\n}}\n",
        config_json(args),
        num(median(&untraced)),
        num(median(&secs)),
        kernel_rows
    );
    let dir = Path::new(OUT_DIR);
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.trace.json")), tr.chrome_json()))
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.layers.json")), report));
    match written {
        Ok(()) => println!(
            "{{\"chrome_trace\": \"{OUT_DIR}/{stem}.trace.json\", \"layer_report\": \"{OUT_DIR}/{stem}.layers.json\"}}"
        ),
        Err(e) => eprintln!("perfbench-harness: could not write the trace: {e}"),
    }
}
