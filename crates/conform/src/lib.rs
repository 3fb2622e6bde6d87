//! # conform — the conformance harness
//!
//! Holds the simulation to its own published numbers and to itself:
//!
//! * [`golden`] — every paper table the experiment driver emits is
//!   snapshotted as versioned JSON with per-metric tolerance bands; a run
//!   diffs regenerated tables cell by cell and renders a reviewable report
//!   on drift. Re-blessing (`cargo run -p conform -- --bless`) is the one
//!   sanctioned way to move a golden.
//! * [`differential`] — the analytic allreduce model is pitted against
//!   the engine-driven discrete-event simulation of the same hierarchical
//!   algorithm across topology families, message sizes spanning the
//!   algorithm-selection crossover, and rank placements, with bounded
//!   relative error.
//! * [`parity`] — serial and persistent-pool kernels are forced to 2/4/8
//!   configured threads and held to the runtime's bit-identity and
//!   repeat-determinism promises.
//! * [`resilience`] — the fault-injection layer with everything disabled
//!   must be bit-identical to the plain executor (strict additivity), and
//!   fault schedules must be pure functions of `(seed, system, nranks)`.
//! * [`obs`] — the tracing/metrics layer's determinism and purity: metric
//!   snapshots of HPCG and Nekbone on two systems are pinned byte-for-byte
//!   as goldens, double runs must reproduce metrics and Chrome-trace JSON
//!   exactly, and an installed recorder may not move a priced runtime by
//!   a single ulp.
//! * [`ecm`] — the cache-hierarchy ECM pricing backend must refine the
//!   flat roofline, never contradict it: a flat-vs-ECM differential sweep
//!   at forced 1/2/4 threads holds ECM under the flat envelope, within
//!   tolerance of flat at memory-resident working sets and strictly
//!   cheaper at L1-resident ones; E1 must be deterministic and invariant
//!   under the installed pricing default (its values are golden-pinned).
//! * [`sharded`] — the parallel sharded DES engine must be invisible:
//!   serial and 2/4-shard runs of the backend-routed allreduce are held to
//!   bit-identity on every differential sweep cell, and the event-driven
//!   model is held within a small factor of the analytic model at
//!   1024/4096 simulated nodes.
//! * [`attrib`] — the attribution layer on top of `obs`: the O1
//!   time-breakdown table is golden-pinned and byte-stable across double
//!   runs, the critical-path invariants (category totals sum to
//!   end-to-end bitwise, path bounded by extent) hold on every pinned
//!   job, and DES-engine internals never leak into app attribution.
//! * [`campaign`] — the crash-safe campaign layer's contracts: journal
//!   records round-trip byte-exactly, torn/bit-rotted journals load as
//!   the longest valid prefix, kill-and-resume reproduces an
//!   uninterrupted run byte for byte, retry leaves no mark on output,
//!   LRU trace-cache eviction is bit-transparent, and the fixed-seed
//!   chaos self-test passes with byte-identical double runs.
//! * [`ledger`] — the exact stdout of `repro --all`, `--markdown`,
//!   `--ablations`, `--extensions` and every `--exp-json` under both
//!   pricing backends, committed and compared byte for byte.
//!
//! The `conform` binary runs all ten suites (exit 1 on any failure);
//! `cargo test -p conform` runs them as ordinary tests.

#![warn(missing_docs)]

pub mod attrib;
pub mod campaign;
pub mod differential;
pub mod ecm;
pub mod golden;
pub mod ledger;
pub mod obs;
pub mod parity;
pub mod resilience;
pub mod sharded;

/// The workspace JSON reader, re-exported where the conformance harness
/// and its callers have always found it.
pub use ::obs::json;

use a64fx_core::Table;

/// The outcome of one conformance suite.
pub struct SuiteResult {
    /// Suite name.
    pub name: &'static str,
    /// Rendered report (tables and/or diff lines).
    pub report: String,
    /// Failures; empty means the suite is conformant.
    pub failures: Vec<String>,
}

impl SuiteResult {
    /// Whether the suite passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The result of a re-bless: one line per written file, noting changes.
fn blessed(name: &'static str, written: Result<Vec<(String, bool)>, String>) -> SuiteResult {
    match written {
        Ok(written) => SuiteResult {
            name,
            report: written
                .iter()
                .map(|(id, changed)| {
                    format!("blessed {id}{}", if *changed { " (changed)" } else { "" })
                })
                .collect::<Vec<_>>()
                .join("\n"),
            failures: Vec::new(),
        },
        Err(e) => SuiteResult {
            name,
            report: String::new(),
            failures: vec![e],
        },
    }
}

/// Run the golden-table suite (optionally re-blessing the snapshots).
pub fn golden_suite(bless: bool) -> SuiteResult {
    if bless {
        return blessed("golden", golden::bless_all());
    }
    let r = golden::check_all();
    SuiteResult {
        name: "golden",
        report: format!(
            "{} tables checked against {}",
            r.checked,
            golden::goldens_dir().display()
        ),
        failures: r.diffs,
    }
}

/// Run the DES-vs-analytic differential sweep.
pub fn differential_suite() -> SuiteResult {
    let (table, failures) = differential::run();
    SuiteResult {
        name: "differential",
        report: render(&table),
        failures,
    }
}

/// Run the kernel-parity suite.
pub fn parity_suite() -> SuiteResult {
    let (table, failures) = parity::run();
    SuiteResult {
        name: "parity",
        report: render(&table),
        failures,
    }
}

/// Run the fault-off resilience parity and schedule-determinism suite.
pub fn resilience_suite() -> SuiteResult {
    let (table, failures) = resilience::run();
    SuiteResult {
        name: "resilience",
        report: render(&table),
        failures,
    }
}

/// Run the observability suite (optionally re-blessing the pinned metric
/// snapshots).
pub fn obs_suite(bless: bool) -> SuiteResult {
    if bless {
        return blessed("obs", obs::bless_all());
    }
    let (table, failures) = obs::run();
    SuiteResult {
        name: "obs",
        report: render(&table),
        failures,
    }
}

/// Run the sharded-DES bit-identity and at-scale fidelity suite.
pub fn des_suite() -> SuiteResult {
    let (table, failures) = sharded::run();
    SuiteResult {
        name: "des",
        report: render(&table),
        failures,
    }
}

/// Run the ECM-pricing differential and invariance suite.
pub fn ecm_suite() -> SuiteResult {
    let (table, failures) = ecm::run();
    SuiteResult {
        name: "ecm",
        report: render(&table),
        failures,
    }
}

/// Run the attribution (critical-path analysis) suite.
pub fn attrib_suite() -> SuiteResult {
    let (table, failures) = attrib::run();
    SuiteResult {
        name: "attrib",
        report: render(&table),
        failures,
    }
}

/// Run the crash-safe campaign robustness suite.
pub fn campaign_suite() -> SuiteResult {
    let (table, failures) = campaign::run();
    SuiteResult {
        name: "campaign",
        report: render(&table),
        failures,
    }
}

/// Run the byte-ledger suite (optionally re-blessing the ledger files).
pub fn ledger_suite(bless: bool) -> SuiteResult {
    if bless {
        return blessed("ledger", ledger::bless_all());
    }
    let dir = ledger::ledger_dir();
    let entries = ledger::entries();
    let mut failures = ledger::check(&entries, &dir);
    failures.extend(
        ledger::stale_files(&entries, &dir)
            .into_iter()
            .map(|f| format!("{f}: no output writes this file; re-bless to delete it")),
    );
    SuiteResult {
        name: "ledger",
        report: format!(
            "{} outputs compared byte for byte with {}",
            entries.len(),
            dir.display()
        ),
        failures,
    }
}

/// Render a report table as aligned plain text.
pub fn render(t: &Table) -> String {
    let mut widths: Vec<usize> = t.headers.iter().map(String::len).collect();
    for row in &t.rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join("  ")
            .trim_end()
            .to_string()
    };
    let mut out = format!("{}: {}\n", t.id, t.title);
    out.push_str(&fmt_row(&t.headers));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in &t.rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    for note in &t.notes {
        out.push_str(&format!("note: {note}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("X", "demo", &["a", "longer"]);
        t.push_row(vec!["1".into(), "2".into()]);
        t.note("n");
        let s = render(&t);
        assert!(s.contains("a  longer"), "{s}");
        assert!(s.contains("note: n"), "{s}");
    }
}
