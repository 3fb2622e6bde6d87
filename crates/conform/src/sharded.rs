//! Sharded-DES conformance: the parallel engine must be an *invisible*
//! optimisation.
//!
//! Two obligations, both pinned here:
//!
//! 1. **Bit-identity.** For every cell of the differential sweep (all four
//!    topology families × three placements × five message sizes), the
//!    backend-routed [`simmpi::desval::allreduce_des_stats`] must produce the
//!    same `f64`, bit for bit, on the serial queue and on the sharded
//!    engine at 2 and 4 shards — and the shard-invariant run statistics
//!    (event and window counts) must match exactly. This is the engine's
//!    determinism guarantee: conservative-lookahead windows process each
//!    entity's events in the same `(time, seq)` order as the serial queue.
//! 2. **Fidelity at scale.** At 1024 and 4096 simulated nodes — beyond
//!    what the differential suite sweeps — the event-driven model must
//!    stay within a small factor of the closed-form analytic model, in
//!    both the latency-bound and bandwidth-bound regimes. This is the
//!    regime the sharded engine exists for (D1 pushes it to 131072).

use a64fx_core::Table;
use archsim::InterconnectKind;
use netsim::{DesBackend, Network};
use simmpi::collectives::allreduce_time_us;
use simmpi::desval::allreduce_des_stats;

use crate::differential::{sweep_placements, FAMILIES, SWEEP_BYTES, SWEEP_NODES};

/// Shard counts the bit-identity sweep forces (besides serial).
pub const SHARD_COUNTS: [usize; 2] = [2, 4];

/// Scales of the DES-vs-analytic fidelity check (one rank per node).
pub const SCALE_NODES: [usize; 2] = [1024, 4096];

/// DES/analytic ratio bounds at scale: the engine and the closed form
/// share flight pricing but account for overlap differently, so they may
/// drift apart — but never past a small factor.
pub const SCALE_RATIO_BOUNDS: (f64, f64) = (0.3, 3.0);

/// Run the sharded-DES suite: the bit-identity sweep, then the at-scale
/// fidelity check. Returns the report table and any failures.
pub fn run() -> (Table, Vec<String>) {
    let mut table = Table::new(
        "DES",
        "Sharded engine: bit-identity vs serial on the differential sweep, \
         then DES-vs-analytic fidelity at scale",
        &["Check", "Case", "Serial us", "Sharded", "Verdict"],
    );
    let mut failures = Vec::new();

    // 1. Bit-identity over the full differential sweep.
    let mut cells = 0usize;
    let mut mismatches = 0usize;
    for kind in FAMILIES {
        for (label, placement) in sweep_placements() {
            let map = placement.node_map();
            for bytes in SWEEP_BYTES {
                let net = Network::new(kind, SWEEP_NODES as usize);
                let (serial, sstats) = allreduce_des_stats(&net, &map, bytes, DesBackend::Serial);
                for shards in SHARD_COUNTS {
                    cells += 1;
                    let (sharded, pstats) =
                        allreduce_des_stats(&net, &map, bytes, DesBackend::Sharded { shards });
                    if serial.to_bits() != sharded.to_bits() {
                        mismatches += 1;
                        failures.push(format!(
                            "{} / {label} / {bytes} B: serial {serial:.6}us != sharded{shards} {sharded:.6}us",
                            kind.name()
                        ));
                    }
                    if (sstats.events, sstats.windows) != (pstats.events, pstats.windows) {
                        mismatches += 1;
                        failures.push(format!(
                            "{} / {label} / {bytes} B: sharded{shards} stats drifted: \
                             {}/{} events, {}/{} windows",
                            kind.name(),
                            sstats.events,
                            pstats.events,
                            sstats.windows,
                            pstats.windows
                        ));
                    }
                }
            }
        }
    }
    table.push_row(vec![
        "bit-identity".to_string(),
        format!(
            "{cells} cells ({} families x {} placements x {} sizes x {} shard counts)",
            FAMILIES.len(),
            sweep_placements().len(),
            SWEEP_BYTES.len(),
            SHARD_COUNTS.len()
        ),
        "-".to_string(),
        "-".to_string(),
        if mismatches == 0 {
            "identical".to_string()
        } else {
            format!("{mismatches} MISMATCHES")
        },
    ]);

    // 2. Fidelity at scale, on the sharded engine (4 shards).
    for nodes in SCALE_NODES {
        for bytes in [8u64, 64 * 1024] {
            let placement: Vec<usize> = (0..nodes).collect();
            let net = Network::new(InterconnectKind::TofuD, nodes);
            let analytic = allreduce_time_us(&net, &placement, bytes);
            let (des, _) =
                allreduce_des_stats(&net, &placement, bytes, DesBackend::Sharded { shards: 4 });
            let ratio = des / analytic;
            let (lo, hi) = SCALE_RATIO_BOUNDS;
            let ok = ratio.is_finite() && (lo..=hi).contains(&ratio);
            table.push_row(vec![
                "at-scale".to_string(),
                format!("{nodes} nodes, {bytes} B"),
                format!("{analytic:.2} (analytic)"),
                format!("{des:.2}"),
                format!("ratio {ratio:.2}"),
            ]);
            if !ok {
                failures.push(format!(
                    "{nodes} nodes / {bytes} B: DES {des:.2}us vs analytic {analytic:.2}us — \
                     ratio {ratio:.2} outside [{lo}, {hi}]"
                ));
            }
        }
    }
    // 3. Metric export equality: the serial engine counts every pop into
    //    `des.events.popped`; the sharded engine exports its RunStats
    //    event total as `des.shard.events`. For the same run they must
    //    agree exactly — the obs counters are attribution evidence, not
    //    approximations.
    for (nodes, bytes) in [(64usize, 8u64), (256, 64 * 1024)] {
        let placement: Vec<usize> = (0..nodes).collect();
        let net = Network::new(InterconnectKind::TofuD, nodes);
        let srec = std::sync::Arc::new(obs::MemRecorder::new());
        obs::with_recorder(srec.clone(), || {
            allreduce_des_stats(&net, &placement, bytes, DesBackend::Serial)
        });
        let serial_popped = srec.counter("des.events.popped").unwrap_or(0);
        for shards in SHARD_COUNTS {
            let prec = std::sync::Arc::new(obs::MemRecorder::new());
            obs::with_recorder(prec.clone(), || {
                allreduce_des_stats(&net, &placement, bytes, DesBackend::Sharded { shards })
            });
            let sharded_events = prec.counter("des.shard.events").unwrap_or(0);
            let ok = serial_popped == sharded_events && serial_popped > 0;
            table.push_row(vec![
                "event counters".to_string(),
                format!("{nodes} nodes, {bytes} B, {shards} shards"),
                format!("{serial_popped} popped"),
                format!("{sharded_events} events"),
                if ok {
                    "equal".to_string()
                } else {
                    "MISMATCH".to_string()
                },
            ]);
            if !ok {
                failures.push(format!(
                    "{nodes} nodes / {bytes} B / {shards} shards: serial des.events.popped \
                     {serial_popped} != sharded des.shard.events {sharded_events}"
                ));
            }
        }
    }

    table.note(
        "Bit-identity holds by construction: per-entity event order is \
         shard-count-invariant under conservative-lookahead windows.",
    );
    (table, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_suite_passes() {
        let (table, failures) = run();
        assert!(failures.is_empty(), "{failures:?}");
        // One bit-identity summary row, one row per at-scale cell, and
        // one counter-equality row per (config, shard count).
        assert_eq!(
            table.rows.len(),
            1 + SCALE_NODES.len() * 2 + 2 * SHARD_COUNTS.len()
        );
        assert!(table.rows[0][4] == "identical", "{:?}", table.rows[0]);
        assert!(
            table
                .rows
                .iter()
                .filter(|r| r[0] == "event counters")
                .all(|r| r[4] == "equal"),
            "counter rows must agree"
        );
    }
}
