//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro --all            # every experiment, in paper order (isolated: a
//!                        #   panicking/hung experiment prints a FAILED row
//!                        #   and repro exits nonzero after the rest finish)
//! repro --exp t3         # one experiment (t1, t3, t4, t5, f1, f2, t6,
//!                        #   f3, t7, t8, f4, f5, t9, t10, r1, d1)
//! repro --exp-json r1    # one experiment as JSON (CI reproducibility diffs)
//! repro --markdown       # --all, rendered as markdown (EXPERIMENTS.md body)
//! repro --list           # list experiment ids
//! repro --ablations      # design-choice ablation sweeps
//! repro --extensions     # power/roofline/profile extension studies
//! repro --timeline hpcg a64fx   # one iteration, phase by phase
//! repro --autotune 2            # layout search per system
//! repro --chaos 42              # seeded campaign chaos self-test
//! ```
//!
//! Campaign flags (for `--all`):
//!
//! * `--journal <path>` appends every completed experiment to a
//!   checksummed write-ahead journal (one fsynced JSONL record each); a
//!   `SIGKILL` at any byte leaves a valid prefix.
//! * `--resume` replays the journal's durable records and runs only the
//!   rest — output is byte-identical to an uninterrupted run.
//! * `--retries <n>` re-runs failed experiments up to n extra times
//!   (`--retry-backoff-ms <ms>` paces the attempts; results are
//!   backoff-invariant).
//! * `--exp-json-out <path>` writes every table's JSON as one merged
//!   deterministic document (what CI byte-diffs across kill/resume).
//! * `--kill-after <n>` stops the campaign after n durable journal
//!   records and exits 9 — the crash-injection hook CI uses to prove
//!   resume correctness (each record is fsynced before it counts, so
//!   this is equivalent to a SIGKILL landing after the nth append).
//!
//! `--threads N` (anywhere on the command line) bounds the experiment
//! runner's worker team; the `A64FX_REPRO_THREADS` environment variable is
//! the fallback (invalid values warn and are ignored), and the default is
//! `available_parallelism`.
//!
//! `--des-backend serial|sharded<N>` (anywhere on the command line)
//! selects the discrete-event engine for DES-routed experiments (e.g.
//! D1); the `A64FX_DES_BACKEND` environment variable is the fallback
//! (invalid values warn and are ignored), and the default is `serial`.
//! Serial and sharded runs are byte-identical — the sharded engine only
//! changes wall-clock time at scale.
//!
//! `--pricing flat|ecm` (anywhere on the command line) selects the
//! kernel-pricing backend for compute phases; the `A64FX_PRICING`
//! environment variable is the fallback (invalid values warn and are
//! ignored), and the default is `flat` — byte-identical to every pre-ECM
//! release. `ecm` routes the memory side of each kernel through the
//! cache-hierarchy ECM model (`archsim::ecm`).
//!
//! `--no-cache` (anywhere on the command line) disables the process-wide
//! trace cache (`a64fx_core::tracecache`); `A64FX_TRACE_CACHE=off` is the
//! environment equivalent. Reports are byte-identical either way — the
//! cache only skips rebuilding identical app traces.
//!
//! `--trace-out <file>`, `--metrics-out <file>` and `--attrib-out <file>`
//! (anywhere on the command line) record the run with an
//! [`obs::MemRecorder`] and write a Chrome Trace Event JSON (load it in
//! `chrome://tracing` or Perfetto), a deterministic metrics snapshot
//! (with histogram percentiles), and a critical-path attribution document
//! (see `obs::analyze`) respectively. They apply to the single-run modes
//! `--exp`, `--exp-json` and `--timeline`; all files are byte-identical
//! across repeated runs of the same command.
//!
//! `--deadline-secs <n>` (anywhere on the command line) sets the
//! per-experiment wall-clock deadline; the `A64FX_DEADLINE_SECS`
//! environment variable is the fallback (invalid values warn and are
//! ignored), and the default is 600 seconds.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use a64fx_apps::{castep, cosa, hpcg, minikab, nekbone, opensbli};
use a64fx_core::campaign::{self, CampaignConfig, CampaignEnd, RetryPolicy};
use a64fx_core::costmodel::JobLayout;
use a64fx_core::{
    ablations, autotune, chaos, experiments, extensions, runner, timeline, tracecache,
};
use archsim::{paper_toolchain, system, SystemId};

fn usage() -> ! {
    eprintln!(
        "usage: repro [--threads <n>] [--des-backend serial|sharded<n>] [--pricing flat|ecm] [--no-cache] [--deadline-secs <n>] [--trace-out <file>] [--metrics-out <file>] [--attrib-out <file>] [--journal <path>] [--resume] [--retries <n>] [--retry-backoff-ms <ms>] [--exp-json-out <path>] [--kill-after <n>] [--all | --exp <id> | --exp-json <id> | --markdown | --list | --ablations | --extensions | --timeline <app> <system> | --autotune <nodes> | --chaos <seed>]"
    );
    std::process::exit(2);
}

/// Strip `<flag> <path>` out of `args` (wherever it appears), returning
/// the path if the flag was given.
fn take_out_path(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    let Some(path) = args.get(i + 1).cloned() else {
        eprintln!("{flag} needs a file path");
        std::process::exit(2);
    };
    args.drain(i..=i + 1);
    Some(path)
}

/// Recording sink behind `--trace-out` / `--metrics-out` /
/// `--attrib-out`: one in-memory recorder for the run, flushed to the
/// requested files at the end.
struct ObsSink {
    rec: Arc<obs::MemRecorder>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    attrib_out: Option<String>,
}

impl ObsSink {
    /// Strip the output flags from `args`; `Some` if any was given.
    fn take(args: &mut Vec<String>) -> Option<Self> {
        let trace_out = take_out_path(args, "--trace-out");
        let metrics_out = take_out_path(args, "--metrics-out");
        let attrib_out = take_out_path(args, "--attrib-out");
        if trace_out.is_none() && metrics_out.is_none() && attrib_out.is_none() {
            return None;
        }
        Some(Self {
            rec: Arc::new(obs::MemRecorder::new()),
            trace_out,
            metrics_out,
            attrib_out,
        })
    }

    fn recorder(&self) -> Arc<obs::MemRecorder> {
        self.rec.clone()
    }

    /// Write the requested output files; `meta` is embedded in the
    /// metrics snapshot so a reader knows what produced it.
    fn flush(&self, meta: &[(&str, String)]) {
        if let Some(path) = &self.trace_out {
            if let Err(why) = std::fs::write(path, self.rec.chrome_trace_json()) {
                eprintln!("--trace-out {path}: {why}");
                std::process::exit(1);
            }
            // Flamegraph-style rollup on stderr: instant feedback without
            // opening the trace in Perfetto (stdout stays diffable JSON).
            eprintln!("{}", self.rec.rollup());
        }
        if let Some(path) = &self.metrics_out {
            if let Err(why) = std::fs::write(path, self.rec.metrics_json_ext(meta)) {
                eprintln!("--metrics-out {path}: {why}");
                std::process::exit(1);
            }
        }
        if let Some(path) = &self.attrib_out {
            if let Err(why) = std::fs::write(path, self.rec.analyze().to_json(meta)) {
                eprintln!("--attrib-out {path}: {why}");
                std::process::exit(1);
            }
        }
    }
}

/// Strip `--no-cache` out of `args` (wherever it appears); when given,
/// pin the process-wide trace cache off, so every fetch rebuilds its
/// trace — the byte-identity escape hatch.
fn take_no_cache(args: &mut Vec<String>) {
    if let Some(i) = args.iter().position(|a| a == "--no-cache") {
        args.remove(i);
        a64fx_core::tracecache::set_enabled(false);
    }
}

/// Strip `--threads N` out of `args` (wherever it appears) and resolve the
/// worker count: flag, then `A64FX_REPRO_THREADS`, then
/// `available_parallelism`.
fn take_threads(args: &mut Vec<String>) -> usize {
    let mut threads = None;
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        let v = match args.get(i + 1) {
            Some(raw) => match runner::parse_threads(raw) {
                Ok(v) => v,
                Err(why) => {
                    eprintln!("--threads: {why}");
                    std::process::exit(2);
                }
            },
            None => {
                eprintln!("--threads needs a positive integer");
                std::process::exit(2);
            }
        };
        threads = Some(v);
        args.drain(i..=i + 1);
    }
    runner::resolve_threads(threads)
}

/// Strip `--des-backend <value>` out of `args` (wherever it appears) and
/// resolve the discrete-event engine: flag, then `A64FX_DES_BACKEND`, then
/// serial. The resolved backend is installed process-wide so every
/// DES-routed experiment (e.g. D1) picks it up; serial and sharded runs
/// are byte-identical by construction.
fn take_des_backend(args: &mut Vec<String>) -> netsim::DesBackend {
    let mut explicit = None;
    if let Some(i) = args.iter().position(|a| a == "--des-backend") {
        let v = match args.get(i + 1) {
            Some(raw) => match netsim::DesBackend::parse(raw) {
                Ok(v) => v,
                Err(why) => {
                    eprintln!("--des-backend: {why}");
                    std::process::exit(2);
                }
            },
            None => {
                eprintln!("--des-backend needs 'serial' or 'sharded<N>'");
                std::process::exit(2);
            }
        };
        explicit = Some(v);
        args.drain(i..=i + 1);
    }
    runner::resolve_des_backend(explicit)
}

/// Strip `--pricing <value>` out of `args` (wherever it appears) and
/// resolve the kernel-pricing backend: flag, then `A64FX_PRICING`, then
/// the flat roofline. The resolved backend is installed process-wide so
/// every executor built without an explicit backend picks it up; the
/// flat default is byte-identical to every pre-ECM release.
fn take_pricing(args: &mut Vec<String>) -> a64fx_core::costmodel::PricingBackend {
    let mut explicit = None;
    if let Some(i) = args.iter().position(|a| a == "--pricing") {
        let v = match args.get(i + 1) {
            Some(raw) => match a64fx_core::costmodel::PricingBackend::parse(raw) {
                Ok(v) => v,
                Err(why) => {
                    eprintln!("--pricing: {why}");
                    std::process::exit(2);
                }
            },
            None => {
                eprintln!("--pricing needs 'flat' or 'ecm'");
                std::process::exit(2);
            }
        };
        explicit = Some(v);
        args.drain(i..=i + 1);
    }
    runner::resolve_pricing(explicit)
}

/// Strip a bare `flag` out of `args` (wherever it appears); whether it
/// was given.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

/// Strip `<flag> <n>` out of `args` (wherever it appears), returning the
/// parsed non-negative integer if the flag was given.
fn take_u64(args: &mut Vec<String>, flag: &str) -> Option<u64> {
    let i = args.iter().position(|a| a == flag)?;
    let v = match args.get(i + 1).map(|raw| raw.parse::<u64>()) {
        Some(Ok(v)) => v,
        _ => {
            eprintln!("{flag} needs a non-negative integer");
            std::process::exit(2);
        }
    };
    args.drain(i..=i + 1);
    Some(v)
}

/// Strip `--deadline-secs <n>` out of `args` (wherever it appears) and
/// resolve the per-experiment deadline: flag, then `A64FX_DEADLINE_SECS`
/// (invalid values warn and are ignored), then the 600s default.
fn take_deadline(args: &mut Vec<String>) -> Duration {
    let mut explicit = None;
    if let Some(i) = args.iter().position(|a| a == "--deadline-secs") {
        let v = match args.get(i + 1) {
            Some(raw) => match runner::parse_deadline_secs(raw) {
                Ok(v) => v,
                Err(why) => {
                    eprintln!("--deadline-secs: {why}");
                    std::process::exit(2);
                }
            },
            None => {
                eprintln!("--deadline-secs needs a positive integer of seconds");
                std::process::exit(2);
            }
        };
        explicit = Some(Duration::from_secs(v));
        args.drain(i..=i + 1);
    }
    runner::resolve_deadline(explicit)
}

/// Campaign flags for `--all`: journal path, resume, retry policy, the
/// merged-JSON output path, and the crash-injection hook.
struct CampaignFlags {
    journal: Option<PathBuf>,
    resume: bool,
    retry: RetryPolicy,
    exp_json_out: Option<PathBuf>,
    kill_after: Option<u64>,
}

impl CampaignFlags {
    fn take(args: &mut Vec<String>) -> Self {
        let journal = take_out_path(args, "--journal").map(PathBuf::from);
        let resume = take_flag(args, "--resume");
        let retries = take_u64(args, "--retries").unwrap_or(0);
        let backoff_ms = take_u64(args, "--retry-backoff-ms").unwrap_or(0);
        let exp_json_out = take_out_path(args, "--exp-json-out").map(PathBuf::from);
        let kill_after = take_u64(args, "--kill-after");
        if resume && journal.is_none() {
            eprintln!("--resume needs --journal <path>");
            std::process::exit(2);
        }
        if kill_after == Some(0) {
            eprintln!("--kill-after needs at least 1 record");
            std::process::exit(2);
        }
        if kill_after.is_some() && journal.is_none() {
            eprintln!("--kill-after needs --journal <path>");
            std::process::exit(2);
        }
        CampaignFlags {
            journal,
            resume,
            retry: RetryPolicy::with_retries(
                u32::try_from(retries).unwrap_or(u32::MAX),
                Duration::from_millis(backoff_ms),
            ),
            exp_json_out,
            kill_after,
        }
    }

    fn given(&self) -> bool {
        self.journal.is_some()
            || self.resume
            || self.retry.max_attempts > 1
            || self.exp_json_out.is_some()
            || self.kill_after.is_some()
    }
}

/// Run one experiment under the hardened runner with the sink's recorder
/// installed on the worker thread, then flush the sink's output files.
fn run_observed(id: &str, deadline: Duration, sink: &ObsSink) -> runner::ExperimentOutcome {
    let id = id.to_ascii_lowercase();
    if !experiments::all_ids().contains(&id.as_str()) {
        eprintln!("unknown experiment '{id}'; try --list");
        std::process::exit(1);
    }
    let body_id = id.clone();
    let outcome = runner::run_isolated_observed(&id, deadline, sink.recorder(), move || {
        experiments::run_one(&body_id).expect("id validated above")
    });
    sink.flush(&[("experiment", id)]);
    outcome
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    take_no_cache(&mut args);
    let threads = take_threads(&mut args);
    let deadline = take_deadline(&mut args);
    netsim::shard::set_default_backend(take_des_backend(&mut args));
    a64fx_core::costmodel::set_default_pricing(take_pricing(&mut args));
    let sink = ObsSink::take(&mut args);
    let cflags = CampaignFlags::take(&mut args);
    if sink.is_some()
        && !matches!(
            args.first().map(String::as_str),
            Some("--exp" | "--exp-json" | "--timeline")
        )
    {
        eprintln!(
            "--trace-out/--metrics-out/--attrib-out apply to --exp, --exp-json and --timeline"
        );
        std::process::exit(2);
    }
    if cflags.given() && !matches!(args.first().map(String::as_str), Some("--all") | None) {
        eprintln!("--journal/--resume/--retries/--exp-json-out/--kill-after apply to --all");
        std::process::exit(2);
    }
    match args.first().map(String::as_str) {
        Some("--all") | None => {
            let cfg = CampaignConfig {
                retry: cflags.retry,
                stop_after_records: cflags.kill_after,
                ..CampaignConfig::new(threads, deadline)
            };
            let result =
                match campaign::run_campaign(&cfg, cflags.journal.as_deref(), cflags.resume) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("campaign journal error: {e}");
                        std::process::exit(1);
                    }
                };
            for w in &result.warnings {
                eprintln!("warning: {w}");
            }
            if result.end == CampaignEnd::Killed {
                // The crash-injection hook: every journal record is
                // already fsynced, so exiting here is indistinguishable
                // from a SIGKILL landing after the last append.
                eprintln!(
                    "killed after {} durable record(s) (--kill-after)",
                    result.outcomes.len()
                );
                std::process::exit(9);
            }
            for o in &result.outcomes {
                println!("{}", o.render);
            }
            if let Some(path) = &cflags.exp_json_out {
                let merged = campaign::merged_json(&result.outcomes);
                if let Err(e) = std::fs::write(path, merged) {
                    eprintln!("--exp-json-out {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
            let failed = result.failed();
            if failed > 0 {
                eprintln!("{failed} experiment(s) FAILED");
                std::process::exit(1);
            }
        }
        Some("--chaos") => {
            let seed: u64 = match args.get(1).map(|s| s.parse()) {
                Some(Ok(s)) => s,
                _ => {
                    eprintln!("--chaos needs a numeric seed");
                    std::process::exit(2);
                }
            };
            let (table, failures) = chaos::run_chaos(seed);
            println!("{}", table.render());
            if !failures.is_empty() {
                for f in &failures {
                    eprintln!("chaos FAILED: {f}");
                }
                std::process::exit(1);
            }
        }
        Some("--markdown") => {
            for t in experiments::run_all() {
                println!("{}", t.render_markdown());
            }
        }
        Some("--exp") => {
            let id = args.get(1).unwrap_or_else(|| usage());
            match &sink {
                Some(s) => {
                    let o = run_observed(id, deadline, s);
                    println!("{}", o.render());
                    if o.failed() {
                        std::process::exit(1);
                    }
                }
                None => match experiments::run_one(id) {
                    Some(t) => println!("{}", t.render()),
                    None => {
                        eprintln!("unknown experiment '{id}'; try --list");
                        std::process::exit(1);
                    }
                },
            }
        }
        Some("--exp-json") => {
            let id = args.get(1).unwrap_or_else(|| usage());
            match &sink {
                Some(s) => {
                    let o = run_observed(id, deadline, s);
                    match &o.result {
                        Ok(t) => println!("{}", t.to_json(&[])),
                        Err(_) => {
                            eprint!("{}", o.render());
                            std::process::exit(1);
                        }
                    }
                }
                None => match experiments::run_one(id) {
                    Some(t) => println!("{}", t.to_json(&[])),
                    None => {
                        eprintln!("unknown experiment '{id}'; try --list");
                        std::process::exit(1);
                    }
                },
            }
        }
        Some("--ablations") => {
            for t in ablations::run_all() {
                println!("{}", t.render());
            }
        }
        Some("--extensions") => {
            for t in extensions::run_all() {
                println!("{}", t.render());
            }
        }
        Some("--autotune") => {
            // repro --autotune [nodes]
            let nodes: u32 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(2);
            for sys in [SystemId::A64fx, SystemId::Ngio, SystemId::Fulhame] {
                let ranking = autotune::tune_minikab(sys, nodes);
                if !ranking.is_empty() {
                    println!(
                        "{}",
                        autotune::tune_table("minikab", sys, nodes, &ranking).render()
                    );
                }
            }
        }
        Some("--timeline") => {
            // repro --timeline <app> <system>
            let app = args.get(1).map(String::as_str).unwrap_or("hpcg");
            let sys_name = args.get(2).map(String::as_str).unwrap_or("a64fx");
            let sys = match sys_name.to_ascii_lowercase().as_str() {
                "a64fx" => SystemId::A64fx,
                "archer" => SystemId::Archer,
                "cirrus" => SystemId::Cirrus,
                "ngio" => SystemId::Ngio,
                "fulhame" => SystemId::Fulhame,
                other => {
                    eprintln!("unknown system '{other}'");
                    std::process::exit(1);
                }
            };
            let spec = system(sys);
            let layout = JobLayout::mpi_full(1, &spec);
            let trace = match app {
                "hpcg" => tracecache::hpcg(hpcg::HpcgConfig::paper(), layout.ranks),
                "minikab" => tracecache::minikab(minikab::MinikabConfig::paper(), layout.ranks),
                "nekbone" => tracecache::nekbone(nekbone::NekboneConfig::paper(), layout.ranks),
                "cosa" => tracecache::cosa(cosa::CosaConfig::paper(), layout.ranks),
                "castep" => tracecache::castep(castep::CastepConfig::paper(), layout.ranks),
                "opensbli" => tracecache::opensbli(opensbli::OpensbliConfig::paper(), layout.ranks),
                other => {
                    eprintln!("unknown app '{other}'");
                    std::process::exit(1);
                }
            };
            let Some(tc) = paper_toolchain(sys, app) else {
                eprintln!("the paper did not run {app} on {sys_name}");
                std::process::exit(1);
            };
            let entries = match &sink {
                Some(s) => {
                    let entries = obs::with_recorder(s.recorder(), || {
                        timeline::iteration_timeline(&spec, &tc, &trace, layout)
                    });
                    s.flush(&[
                        ("app", app.to_string()),
                        ("system", sys_name.to_ascii_lowercase()),
                    ]);
                    entries
                }
                None => timeline::iteration_timeline(&spec, &tc, &trace, layout),
            };
            let title = format!(
                "{app} on one {} node: one iteration, phase by phase",
                spec.name
            );
            println!("{}", timeline::timeline_table(&title, &entries).render());
        }
        Some("--list") => {
            for id in experiments::all_ids() {
                println!("{id}");
            }
        }
        _ => usage(),
    }
}
