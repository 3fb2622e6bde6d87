//! Attribution conformance: the critical-path analysis layer must be
//! deterministic, internally consistent, and pinned.
//!
//! Four obligations:
//!
//! 1. **Golden pin.** The O1 time-attribution table is diffed against its
//!    golden snapshot with the standard tolerance machinery (label column
//!    exact, metric columns banded) — the paper-style breakdown cannot
//!    drift silently.
//! 2. **Double-run byte-identity.** Rendering O1 twice, and analysing each
//!    pinned (app, system) pair twice, must produce byte-identical output
//!    — attribution is a pure function of the recorded run.
//! 3. **Invariants.** For every pinned pair: the six category totals sum
//!    to the end-to-end time *bitwise* (same additions, same order), the
//!    critical path never exceeds the end-to-end time or the raw span
//!    extent, compute dominates the fault-free runs, and the checkpoint
//!    category is exactly zero without faults (and strictly positive under
//!    the R1 schedule).
//! 4. **Engine opacity.** DES-engine internals must not leak into app
//!    attribution: analysing a DES-validated allreduce recorded on the
//!    serial queue and on the sharded engine at 2 and 4 shards must yield
//!    byte-identical analysis documents.

use std::sync::Arc;

use a64fx_core::experiments::attrib::{analyze_pair, analyze_resilient, PAIRS};
use a64fx_core::Table;
use archsim::{system, InterconnectKind, SystemId};
use netsim::{DesBackend, Network};
use obs::analyze::Category;
use simmpi::desval::allreduce_des_stats;

use crate::golden::{compare_table, goldens_dir};
use crate::json;

struct Checker {
    table: Table,
    failures: Vec<String>,
}

impl Checker {
    fn record(&mut self, check: &str, subject: &str, result: Result<String, String>) {
        let (cell, failed) = match &result {
            Ok(ok) => (format!("pass ({ok})"), false),
            Err(e) => (format!("FAIL: {e}"), true),
        };
        self.table
            .push_row(vec![check.to_string(), subject.to_string(), cell]);
        if failed {
            self.failures
                .push(format!("{check} [{subject}]: {}", result.unwrap_err()));
        }
    }
}

/// Run the attribution suite; returns the report table and failure lines.
pub fn run() -> (Table, Vec<String>) {
    let mut chk = Checker {
        table: Table::new(
            "ATTRIB",
            "Attribution: O1 golden pin, double-run determinism, critical-path \
             invariants, DES-engine opacity",
            &["Check", "Subject", "Result"],
        ),
        failures: Vec::new(),
    };

    // 1 + 2a. The O1 table: pinned, and byte-stable across runs.
    let o1_a = a64fx_core::experiments::attrib::o1();
    let o1_b = a64fx_core::experiments::attrib::o1();
    chk.record(
        "O1 double runs are byte-identical",
        "O1",
        if o1_a.render() == o1_b.render() {
            Ok(format!("{} rows", o1_a.rows.len()))
        } else {
            Err("second O1 run rendered differently".into())
        },
    );
    let path = goldens_dir().join("o1.json");
    match json::parse_file(&path) {
        Err(e) => chk.record(
            "O1 matches golden",
            "O1",
            Err(format!(
                "no readable golden at {}: {e} — run `cargo run -p conform -- --bless`",
                path.display()
            )),
        ),
        Ok(golden) => {
            let diffs = compare_table(&o1_a, &golden);
            chk.record(
                "O1 matches golden",
                "O1",
                if diffs.is_empty() {
                    Ok("within bands".into())
                } else {
                    Err(diffs.join("; "))
                },
            );
        }
    }

    // 2b + 3. Per-pair analysis: determinism and the exact invariants.
    for (app, sys) in PAIRS {
        let subject = format!("{app} on {}", system(sys).name);
        let (a, _) = analyze_pair(app, sys);
        let (b, _) = analyze_pair(app, sys);
        chk.record(
            "analysis double runs are byte-identical",
            &subject,
            if a.to_json(&[]) == b.to_json(&[]) {
                Ok(format!(
                    "{} spans, {} segments",
                    a.spans_considered, a.segments
                ))
            } else {
                Err("second analysis rendered differently".into())
            },
        );
        let sum: f64 = a.totals.iter().sum();
        chk.record(
            "category totals sum to end-to-end bitwise",
            &subject,
            if sum.to_bits() == a.end_to_end_us().to_bits() {
                Ok(format!("{:.1} us", a.end_to_end_us()))
            } else {
                Err(format!("{sum:.17e} vs {:.17e}", a.end_to_end_us()))
            },
        );
        chk.record(
            "critical path bounded by end-to-end and extent",
            &subject,
            if a.path_us() <= a.end_to_end_us()
                && a.path_us() <= a.extent_us() * (1.0 + f64::EPSILON)
            {
                Ok(format!(
                    "path {:.1} us <= extent {:.1} us",
                    a.path_us(),
                    a.extent_us()
                ))
            } else {
                Err(format!(
                    "path {:.17e}, end-to-end {:.17e}, extent {:.17e}",
                    a.path_us(),
                    a.end_to_end_us(),
                    a.extent_us()
                ))
            },
        );
        chk.record(
            "fault-free run: compute dominates, checkpoint zero",
            &subject,
            if a.dominant() == Category::Compute && a.total(Category::Checkpoint) == 0.0 {
                Ok(format!("compute {:.1}%", a.share_pct(Category::Compute)))
            } else {
                Err(format!(
                    "dominant {}, checkpoint {} us",
                    a.dominant().name(),
                    a.total(Category::Checkpoint)
                ))
            },
        );
    }

    // 3b. The resilient row exercises the checkpoint category.
    let (ra, _) = analyze_resilient(SystemId::A64fx);
    let (rb, _) = analyze_resilient(SystemId::A64fx);
    chk.record(
        "resilient analysis is deterministic with checkpoints",
        "hpcg+faults on A64FX",
        if ra.to_json(&[]) != rb.to_json(&[]) {
            Err("second resilient analysis rendered differently".into())
        } else if ra.total(Category::Checkpoint) <= 0.0 {
            Err("R1 schedule produced no checkpoint time".into())
        } else {
            Ok(format!(
                "checkpoint {:.1}%",
                ra.share_pct(Category::Checkpoint)
            ))
        },
    );

    // 4. Engine opacity: DES internals never enter app attribution.
    let nodes = 64usize;
    let placement: Vec<usize> = (0..nodes).collect();
    let net = Network::new(InterconnectKind::TofuD, nodes);
    let mut docs = Vec::new();
    for (label, backend) in [
        ("serial", DesBackend::Serial),
        ("sharded2", DesBackend::Sharded { shards: 2 }),
        ("sharded4", DesBackend::Sharded { shards: 4 }),
    ] {
        let rec = Arc::new(obs::MemRecorder::new());
        obs::with_recorder(rec.clone(), || {
            allreduce_des_stats(&net, &placement, 4096, backend)
        });
        docs.push((label, rec.analyze().to_json(&[])));
    }
    let all_equal = docs.iter().all(|(_, d)| *d == docs[0].1);
    chk.record(
        "analysis is invariant under the DES backend",
        "allreduce, 64 nodes TofuD",
        if all_equal {
            Ok("serial == sharded2 == sharded4".into())
        } else {
            Err("engine internals leaked into the attribution document".into())
        },
    );

    chk.table.note(
        "bitwise sum and path <= end-to-end hold by construction: the category \
         fold performs the same f64 additions in the same order",
    );
    chk.table
        .note("O1 is also covered by the golden suite via the experiment registry");
    (chk.table, chk.failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attrib_suite_is_clean() {
        let (table, failures) = run();
        assert!(failures.is_empty(), "{}", failures.join("\n"));
        assert!(
            table.rows.iter().any(|r| r[0].contains("matches golden")),
            "golden row present"
        );
        assert!(
            table.rows.iter().any(|r| r[0].contains("bitwise")),
            "invariant rows present"
        );
    }
}
