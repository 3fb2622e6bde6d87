//! The four workloads. Every op of a workload does identical work, runs on
//! one thread, and is checked after it is timed.
//!
//! * `tables` — every experiment except D1, generated and rendered, from a
//!   cleared trace cache: what a `repro` user waits for.
//! * `fugaku_des` — D1's allreduce sweep on the serial event engine, up to
//!   131072 TofuD nodes: a heap far larger than cache.
//! * `des_small` — the same engine on all five interconnects at 1k–8k
//!   nodes, with seeded fragmented placements: heaps that fit in cache and
//!   many distinct link latencies.
//! * `miniapps` — one real single-rank solve of every application.

use a64fx_apps::{castep, cosa, hpcg, minikab, nekbone, opensbli};
use a64fx_core::{experiments, tracecache, Table};
use archsim::InterconnectKind;
use conform::json::{self, Value};
use netsim::{DesBackend, Network, RunStats};
use simmpi::collcache;

use crate::spans::{total_secs, Span, Tracer};
use crate::stats::Metrics;

/// One benchmark workload.
pub trait Workload {
    /// Run one op. Each call into a repository layer sits in a span.
    fn op(&mut self, tr: &mut Tracer);

    /// Check the last op's output; `Err` names the first mismatch.
    fn check(&mut self) -> Result<(), String>;

    /// Per-layer metrics read from the spans of one traced op that took
    /// `op_s` seconds.
    fn layer_metrics(&self, spans: &[&Span], op_s: f64, out: &mut Metrics);

    /// Per-layer metrics that need ops of their own (e.g. a warm-cache op).
    fn extra_layers(&mut self, _tr: &mut Tracer, _out: &mut Metrics) {}
}

/// The workload names, in the order the benchmark lists them.
pub const NAMES: [&str; 4] = ["tables", "fugaku_des", "des_small", "miniapps"];

/// Build workload `name`, generating its inputs from `seed`.
pub fn build(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "tables" => Box::new(Tables::new()?),
        "fugaku_des" => Box::new(FugakuDes::new()?),
        "des_small" => Box::new(DesSmall::new(seed)),
        "miniapps" => Box::new(MiniApps::default()),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

fn golden(id: &str) -> Result<Value, String> {
    json::parse_file(&conform::golden::goldens_dir().join(format!("{id}.json")))
}

// ---------------------------------------------------------------- tables

/// Every experiment except D1, each generated through
/// `experiments::run_one` and rendered, from a cleared trace cache.
struct Tables {
    goldens: Vec<(&'static str, Value)>,
    tables: Vec<Table>,
    renders: Vec<String>,
    reference: Option<Vec<String>>,
    /// Trace-cache and collective-cache counter deltas of the last op
    /// (recorded on traced ops only).
    counters: [u64; 4],
}

impl Tables {
    fn new() -> Result<Self, String> {
        let goldens = experiments::all_ids()
            .into_iter()
            .filter(|id| *id != "d1")
            .map(|id| Ok((id, golden(id)?)))
            .collect::<Result<_, String>>()?;
        Ok(Tables {
            goldens,
            tables: Vec::new(),
            renders: Vec::new(),
            reference: None,
            counters: [0; 4],
        })
    }

    fn run(&mut self, tr: &mut Tracer, cold: bool) {
        let before = tr.on().then(|| (tracecache::stats(), collcache::stats()));
        if cold {
            tracecache::clear();
        }
        self.tables.clear();
        self.renders.clear();
        for (id, _) in &self.goldens {
            let t = tr.span(&format!("core.experiments.{id}"), |_| {
                experiments::run_one(id).expect("registered experiment")
            });
            self.renders
                .push(tr.span("core.report.render", |_| t.render()));
            self.tables.push(t);
        }
        if let Some((t0, c0)) = before {
            let (t1, c1) = (tracecache::stats(), collcache::stats());
            self.counters = [
                t1.hits - t0.hits,
                t1.misses - t0.misses,
                c1.hits - c0.hits,
                c1.misses - c0.misses,
            ];
        }
    }
}

impl Workload for Tables {
    fn op(&mut self, tr: &mut Tracer) {
        self.run(tr, true);
    }

    fn check(&mut self) -> Result<(), String> {
        for (t, (id, g)) in self.tables.iter().zip(&self.goldens) {
            let diffs = conform::golden::compare_table(t, g);
            if !diffs.is_empty() {
                return Err(format!(
                    "{id} differs from its golden: {}",
                    diffs.join("; ")
                ));
            }
        }
        let reference = self.reference.get_or_insert_with(|| self.renders.clone());
        match reference
            .iter()
            .zip(&self.renders)
            .position(|(a, b)| a != b)
        {
            Some(i) => Err(format!(
                "{} rendered differently from the first op",
                self.goldens[i].0
            )),
            None => Ok(()),
        }
    }

    fn layer_metrics(&self, spans: &[&Span], op_s: f64, out: &mut Metrics) {
        let mut parts = 0.0;
        for (id, _) in &self.goldens {
            let s = total_secs(spans, &format!("core.experiments.{id}"));
            out.set(format!("core.experiments.{id}_s"), s, "s");
            parts += s;
        }
        let render = total_secs(spans, "core.report.render");
        out.set("core.report.render_s", render, "s");
        // Cache clearing and loop overhead: the rest of the op, so the
        // parts sum to the traced op time by construction.
        out.set("core.experiments.other_s", op_s - parts - render, "s");
        out.set("core.experiments.traced_op_s", op_s, "s");
        let [th, tm, ch, cm] = self.counters.map(|c| c as f64);
        out.set("core.tracecache.hits", th, "count");
        out.set("core.tracecache.misses", tm, "count");
        out.set("simmpi.collcache.hits", ch, "count");
        out.set("simmpi.collcache.misses", cm, "count");
        out.set(
            "simmpi.collcache.hit_ratio",
            ch / (ch + cm).max(1.0),
            "frac",
        );
    }

    /// `apps.trace_build_s`: a cold-cache op minus a warm-cache op, each
    /// the median of three.
    fn extra_layers(&mut self, tr: &mut Tracer, out: &mut Metrics) {
        let was_on = tr.on();
        tr.set_on(false);
        let mut time = |cold: bool| {
            let mut v: Vec<f64> = (0..3)
                .map(|_| {
                    let t0 = std::time::Instant::now();
                    self.run(tr, cold);
                    t0.elapsed().as_secs_f64()
                })
                .collect();
            v.sort_by(f64::total_cmp);
            v[1]
        };
        let cold = time(true);
        let warm = time(false);
        tr.set_on(was_on);
        out.set("apps.trace_build_s", cold - warm, "s");
    }
}

// ------------------------------------------------------------ fugaku_des

/// One row of the D1 sweep: its network, placement and analytic time are
/// built at set-up; the op runs only the event engine.
struct DesRow {
    nodes: usize,
    bytes: u64,
    net: Network,
    placement: Vec<usize>,
    analytic_us: f64,
    result: (f64, RunStats),
}

/// The D1 point whose event count is pinned exactly.
const FUGAKU_NODES: usize = 131_072;
const FUGAKU_EVENTS: u64 = 2_359_296;

struct FugakuDes {
    rows: Vec<DesRow>,
    golden: Value,
    reference: Option<Vec<u64>>,
}

impl FugakuDes {
    fn new() -> Result<Self, String> {
        let rows = experiments::des::D1_SWEEP
            .iter()
            .map(|&(nodes, bytes)| {
                let placement: Vec<usize> = (0..nodes).collect();
                let net = Network::new(InterconnectKind::TofuD, nodes);
                let analytic_us = simmpi::allreduce_time_us(&net, &placement, bytes);
                DesRow {
                    nodes,
                    bytes,
                    net,
                    placement,
                    analytic_us,
                    result: (f64::NAN, RunStats::default()),
                }
            })
            .collect();
        Ok(FugakuDes {
            rows,
            golden: golden("d1")?,
            reference: None,
        })
    }

    fn row_name(r: &DesRow) -> String {
        format!("netsim.des.d1.n{}_b{}", r.nodes, r.bytes)
    }
}

impl Workload for FugakuDes {
    fn op(&mut self, tr: &mut Tracer) {
        for r in &mut self.rows {
            r.result = tr.span(&Self::row_name(r), |_| {
                simmpi::desval::allreduce_des_stats(
                    &r.net,
                    &r.placement,
                    r.bytes,
                    DesBackend::Serial,
                )
            });
        }
    }

    /// The rows must match `d1.json` (formatted the way D1 formats them),
    /// the largest row must take exactly 2,359,296 events, and every op
    /// must reproduce the first bit for bit.
    fn check(&mut self) -> Result<(), String> {
        let title = self
            .golden
            .get("title")
            .and_then(Value::as_str)
            .unwrap_or("");
        let headers = self
            .golden
            .get("headers")
            .and_then(Value::as_str_vec)
            .unwrap_or_default();
        let mut t = Table::new("D1", title, &headers);
        for r in &self.rows {
            let (des, stats) = r.result;
            let rel = 100.0 * (des - r.analytic_us) / r.analytic_us;
            t.push_row(vec![
                r.nodes.to_string(),
                r.bytes.to_string(),
                format!("{:.2}", r.analytic_us),
                format!("{des:.2}"),
                format!("{rel:+.1}%"),
                stats.events.to_string(),
                stats.windows.to_string(),
            ]);
        }
        for note in self
            .golden
            .get("notes")
            .and_then(Value::as_str_vec)
            .unwrap_or_default()
        {
            t.note(note);
        }
        let diffs = conform::golden::compare_table(&t, &self.golden);
        if !diffs.is_empty() {
            return Err(format!(
                "D1 sweep differs from d1.json: {}",
                diffs.join("; ")
            ));
        }
        if let Some(r) = self.rows.iter().find(|r| r.nodes == FUGAKU_NODES) {
            if r.result.1.events != FUGAKU_EVENTS {
                return Err(format!(
                    "{FUGAKU_NODES} nodes took {} events, want {FUGAKU_EVENTS}",
                    r.result.1.events
                ));
            }
        }
        let bits: Vec<u64> = self
            .rows
            .iter()
            .flat_map(|r| [r.result.0.to_bits(), r.result.1.events, r.result.1.windows])
            .collect();
        if *self.reference.get_or_insert_with(|| bits.clone()) != bits {
            return Err("D1 sweep differs from the first op".to_string());
        }
        Ok(())
    }

    fn layer_metrics(&self, spans: &[&Span], _op_s: f64, out: &mut Metrics) {
        let (mut events, mut windows) = (0u64, 0u64);
        for r in &self.rows {
            let name = Self::row_name(r);
            let secs = total_secs(spans, &name);
            out.set(format!("{name}.row_s"), secs, "s");
            out.set(
                format!("{name}.events_per_s"),
                r.result.1.events as f64 / secs,
                "1/s",
            );
            events += r.result.1.events;
            windows += r.result.1.windows;
        }
        out.set("netsim.des.events", events as f64, "count");
        out.set("netsim.des.windows", windows as f64, "count");
    }
}

// ------------------------------------------------------------- des_small

/// The five interconnect families, with the span-name label of each.
const KINDS: [(InterconnectKind, &str); 5] = [
    (InterconnectKind::TofuD, "tofud"),
    (InterconnectKind::Aries, "aries"),
    (InterconnectKind::FdrInfiniband, "fdr"),
    (InterconnectKind::EdrInfiniband, "edr"),
    (InterconnectKind::OmniPath, "omnipath"),
];

/// Job sizes (nodes) and payloads (bytes) of the small sweep: 8 B takes
/// recursive doubling, 64 KiB Rabenseifner.
const SMALL_NODES: [usize; 4] = [1024, 2048, 4096, 8192];
const SMALL_BYTES: [u64; 2] = [8, 64 * 1024];

/// The analytic-vs-DES band: conform's differential bound, except on
/// TofuD, where D1's own test bounds the DES-to-analytic ratio to
/// [0.3, 3] (D1's golden pins -51% at 8192 nodes for 8 B).
fn within_band(kind: InterconnectKind, analytic_us: f64, des_us: f64) -> bool {
    if kind == InterconnectKind::TofuD {
        (0.3..=3.0).contains(&(des_us / analytic_us))
    } else {
        let rel = (analytic_us - des_us).abs() / analytic_us.max(des_us);
        rel < conform::differential::REL_ERR_BOUND
    }
}

struct SmallCell {
    kind: usize,
    bytes: u64,
    net: usize,
    placement: usize,
    analytic_us: f64,
    result: (f64, RunStats),
}

struct DesSmall {
    nets: Vec<Network>,
    placements: Vec<Vec<usize>>,
    cells: Vec<SmallCell>,
    reference: Option<Vec<u64>>,
}

/// splitmix64: the seeded stream placements are drawn from.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

impl DesSmall {
    /// Each job runs on a seeded random half of a machine twice its size
    /// (a fragmented allocation), with 1, 2 or 4 ranks per node.
    fn new(seed: u64) -> Self {
        let mut rng = Rng(seed);
        let (mut nets, mut placements, mut cells) = (Vec::new(), Vec::new(), Vec::new());
        for (k, &(kind, _)) in KINDS.iter().enumerate() {
            for nodes in SMALL_NODES {
                let machine = 2 * nodes;
                let mut all: Vec<usize> = (0..machine).collect();
                for i in 0..nodes {
                    let j = i + rng.below(machine - i);
                    all.swap(i, j);
                }
                let mut job = all[..nodes].to_vec();
                job.sort_unstable();
                let per_node = 1 << rng.below(3);
                let placement: Vec<usize> = job
                    .iter()
                    .flat_map(|&n| std::iter::repeat_n(n, per_node))
                    .collect();
                let net = Network::new(kind, machine);
                for bytes in SMALL_BYTES {
                    cells.push(SmallCell {
                        kind: k,
                        bytes,
                        net: nets.len(),
                        placement: placements.len(),
                        analytic_us: simmpi::allreduce_time_us(&net, &placement, bytes),
                        result: (f64::NAN, RunStats::default()),
                    });
                }
                nets.push(net);
                placements.push(placement);
            }
        }
        DesSmall {
            nets,
            placements,
            cells,
            reference: None,
        }
    }
}

impl Workload for DesSmall {
    fn op(&mut self, tr: &mut Tracer) {
        for (k, (_, label)) in KINDS.iter().enumerate() {
            tr.span(&format!("netsim.des.small.{label}"), |_| {
                for c in self.cells.iter_mut().filter(|c| c.kind == k) {
                    c.result = simmpi::desval::allreduce_des_stats(
                        &self.nets[c.net],
                        &self.placements[c.placement],
                        c.bytes,
                        DesBackend::Serial,
                    );
                }
            });
        }
    }

    fn check(&mut self) -> Result<(), String> {
        for c in &self.cells {
            let kind = KINDS[c.kind].0;
            if !within_band(kind, c.analytic_us, c.result.0) {
                return Err(format!(
                    "{} {} ranks {} B: DES {:.3} us vs analytic {:.3} us is outside the band",
                    kind.name(),
                    self.placements[c.placement].len(),
                    c.bytes,
                    c.result.0,
                    c.analytic_us
                ));
            }
        }
        let bits: Vec<u64> = self
            .cells
            .iter()
            .flat_map(|c| [c.result.0.to_bits(), c.result.1.events])
            .collect();
        if *self.reference.get_or_insert_with(|| bits.clone()) != bits {
            return Err("a cell's sim_us or event count differs from the first op".to_string());
        }
        Ok(())
    }

    fn layer_metrics(&self, spans: &[&Span], _op_s: f64, out: &mut Metrics) {
        for (k, (_, label)) in KINDS.iter().enumerate() {
            let events: u64 = self
                .cells
                .iter()
                .filter(|c| c.kind == k)
                .map(|c| c.result.1.events)
                .sum();
            let secs = total_secs(spans, &format!("netsim.des.small.{label}"));
            out.set(
                format!("netsim.des.small.{label}.events_per_s"),
                events as f64 / secs,
                "1/s",
            );
        }
    }
}

// -------------------------------------------------------------- miniapps

/// Problem sizes of the real solves. HPCG's 56³ operator (27-point CSR,
/// ~55 MB) is larger than a 32 MiB L3; the Nekbone and CASTEP working
/// sets (~130 KB and ~1 MiB) fit in cache.
const HPCG: hpcg::HpcgConfig = hpcg::HpcgConfig {
    local: (56, 56, 56),
    mg_levels: 4,
    iterations: 10,
};
const MINIKAB_EDGE: usize = 16;
const MINIKAB_MAX_ITER: usize = 400;
const MINIKAB_RTOL: f64 = 1e-8;
const NEKBONE: nekbone::NekboneConfig = nekbone::NekboneConfig {
    elements_per_rank: 16,
    poly: 10,
    iterations: 100,
};
const CASTEP: castep::CastepConfig = castep::CastepConfig {
    grid: 16,
    bands: 16,
    h_applies: 2,
    scf_cycles: 4,
};
const OPENSBLI: opensbli::OpensbliConfig = opensbli::OpensbliConfig {
    grid: 16,
    steps: 10,
    viscosity: 1.0 / 1600.0,
    dt: 1e-3,
};
const COSA: cosa::CosaConfig = cosa::CosaConfig {
    blocks: 16,
    block_grid: (4, 4),
    block_edge: 32,
    harmonics: 2,
    iterations: 200,
};

/// Outputs of one op's solves.
#[derive(Default)]
struct AppResults {
    hpcg_ref: (usize, f64),
    hpcg_opt: (usize, f64),
    minikab: (usize, f64, bool),
    nekbone: (usize, f64),
    castep: Vec<f64>,
    opensbli: (f64, f64, f64),
    cosa: (f64, f64),
}

impl AppResults {
    /// Every number, as bits, for the across-ops identity check.
    fn bits(&self) -> Vec<u64> {
        let mut v = vec![
            self.hpcg_ref.0 as u64,
            self.hpcg_ref.1.to_bits(),
            self.hpcg_opt.0 as u64,
            self.hpcg_opt.1.to_bits(),
            self.minikab.0 as u64,
            self.minikab.1.to_bits(),
            self.nekbone.0 as u64,
            self.nekbone.1.to_bits(),
            self.opensbli.0.to_bits(),
            self.opensbli.1.to_bits(),
            self.opensbli.2.to_bits(),
            self.cosa.0.to_bits(),
            self.cosa.1.to_bits(),
        ];
        v.extend(self.castep.iter().map(|e| e.to_bits()));
        v
    }

    /// `(app, iterations)` for the per-layer metrics.
    fn iterations(&self) -> [(&'static str, usize); 7] {
        [
            ("hpcg_ref", self.hpcg_ref.0),
            ("hpcg_opt", self.hpcg_opt.0),
            ("minikab", self.minikab.0),
            ("nekbone", self.nekbone.0),
            ("castep", self.castep.len().saturating_sub(1)),
            ("opensbli", OPENSBLI.steps as usize),
            ("cosa", COSA.iterations as usize),
        ]
    }
}

#[derive(Default)]
struct MiniApps {
    last: AppResults,
    reference: Option<Vec<u64>>,
}

impl Workload for MiniApps {
    fn op(&mut self, tr: &mut Tracer) {
        let r = &mut self.last;
        r.hpcg_ref = tr.span("apps.hpcg_ref", |_| {
            let o = hpcg::run_real(HPCG);
            (o.iterations, o.rel_residual)
        });
        r.hpcg_opt = tr.span("apps.hpcg_opt", |_| {
            let o = hpcg::run_real_optimised(HPCG);
            (o.iterations, o.rel_residual)
        });
        r.minikab = tr.span("apps.minikab", |_| {
            let o = minikab::run_real(MINIKAB_EDGE, MINIKAB_MAX_ITER, MINIKAB_RTOL);
            (o.iterations, o.rel_residual, o.converged)
        });
        r.nekbone = tr.span("apps.nekbone", |_| {
            let o = nekbone::run_real(NEKBONE);
            (o.iterations, o.rel_residual)
        });
        r.castep = tr.span("apps.castep", |_| castep::run_real(CASTEP));
        r.opensbli = tr.span("apps.opensbli", |_| opensbli::run_real(OPENSBLI));
        r.cosa = tr.span("apps.cosa", |_| cosa::run_real(COSA));
    }

    /// The properties the apps' own tests assert, at these sizes, plus
    /// bit-identity with the first op.
    fn check(&mut self) -> Result<(), String> {
        let r = &self.last;
        let iters = HPCG.iterations as usize;
        let e = &r.castep;
        let (ke0, ke1, drift) = r.opensbli;
        let (res, mean) = r.cosa;
        // Comparisons are written so that a NaN fails them.
        let checks = [
            // Reference HPCG runs its full iteration count; the
            // MG-preconditioned solve must cut the residual 100-fold, the
            // SymGS-preconditioned optimised path 10-fold.
            (
                r.hpcg_ref.0 == iters && r.hpcg_ref.1 < 1e-2,
                format!("HPCG reference: {:?}", r.hpcg_ref),
            ),
            (
                r.hpcg_opt.0 == iters && r.hpcg_opt.1 < 1e-1,
                format!("HPCG optimised: {:?}", r.hpcg_opt),
            ),
            (
                r.minikab.2 && r.minikab.1 <= MINIKAB_RTOL,
                format!("minikab did not converge: {:?}", r.minikab),
            ),
            (
                r.nekbone.0 == NEKBONE.iterations as usize && r.nekbone.1 < 1.0,
                format!("Nekbone: {:?}", r.nekbone),
            ),
            (
                e.len() == CASTEP.scf_cycles as usize + 1
                    && e.windows(2).all(|w| w[1] <= w[0] + 1e-9)
                    && e[e.len() - 1] < e[0] - 1e-3,
                format!("CASTEP energies must fall monotonically: {e:?}"),
            ),
            (
                drift < 1e-10 && ke1 < ke0 && ke1 > 0.5 * ke0,
                format!("OpenSBLI: KE {ke0} -> {ke1}, mass drift {drift}"),
            ),
            (
                res.is_finite() && mean > 0.0 && mean < 1.0,
                format!("COSA: residual {res}, mean {mean}"),
            ),
        ];
        if let Some((_, why)) = checks.into_iter().find(|(ok, _)| !ok) {
            return Err(why);
        }
        let bits = r.bits();
        if *self.reference.get_or_insert_with(|| bits.clone()) != bits {
            return Err("a solve differs from the first op".to_string());
        }
        Ok(())
    }

    fn layer_metrics(&self, spans: &[&Span], _op_s: f64, out: &mut Metrics) {
        for (app, iters) in self.last.iterations() {
            out.set(
                format!("apps.{app}.solve_s"),
                total_secs(spans, &format!("apps.{app}")),
                "s",
            );
            out.set(format!("apps.{app}.iterations"), iters as f64, "count");
        }
    }
}
