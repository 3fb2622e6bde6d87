//! D1 — Fugaku-scale allreduce on the event-driven DES (beyond the
//! paper's tables).
//!
//! The paper's A64FX systems top out at a few dozen nodes, but the machine
//! they prefigure — Fugaku — runs collectives across six-figure rank
//! counts. D1 sweeps the event-driven allreduce model up to 131072 TofuD
//! nodes (one rank per node) and compares it against the closed-form
//! analytic model at each point. The serial engine runs the whole sweep,
//! 2,359,296 events at 131072 nodes alone, in well under a second on one
//! core (perfbench's `fugaku_des` workload times it); the sharded engine
//! spreads the same events over more cores without changing a bit.
//!
//! The engine backend comes from [`netsim::shard::default_backend`] — set
//! by `repro --des-backend` or `A64FX_DES_BACKEND` — and every column is
//! **backend-invariant**: the sharded engine's conservative-lookahead
//! windows process events in the same per-entity order as the serial queue,
//! so times, event counts and window counts are identical to the bit at
//! any shard count. CI pins this by byte-diffing `repro --exp-json d1`
//! across serial and forced 2/4-shard runs.

use netsim::{DesBackend, Network};
use simmpi::desval::allreduce_des_stats;

use crate::report::Table;

/// The D1 sweep: `(simulated nodes, payload bytes)`. Small payloads take
/// the recursive-doubling path, 64 KiB takes Rabenseifner; the 131072-node
/// row is the Fugaku-scale point.
pub const D1_SWEEP: [(usize, u64); 5] = [
    (1024, 8),
    (1024, 64 * 1024),
    (8192, 8),
    (8192, 64 * 1024),
    (131072, 8),
];

/// D1 — DES vs analytic allreduce at scale, on the configured backend.
pub fn d1() -> Table {
    let backend: DesBackend = netsim::shard::default_backend();
    let mut t = Table::new(
        "D1",
        "beyond the paper: allreduce at Fugaku scale — event-driven TofuD \
         simulation vs the analytic model, one rank per node",
        &[
            "nodes",
            "bytes",
            "analytic (us)",
            "DES (us)",
            "rel err",
            "events",
            "windows",
        ],
    );
    for (nodes, bytes) in D1_SWEEP {
        let placement: Vec<usize> = (0..nodes).collect();
        let net = Network::new(archsim::InterconnectKind::TofuD, nodes);
        let analytic = simmpi::allreduce_time_us(&net, &placement, bytes);
        let (des, stats) = allreduce_des_stats(&net, &placement, bytes, backend);
        let rel = (des - analytic) / analytic;
        t.push_row(vec![
            nodes.to_string(),
            bytes.to_string(),
            format!("{analytic:.2}"),
            format!("{des:.2}"),
            format!("{rel:+.1}%", rel = 100.0 * rel),
            stats.events.to_string(),
            stats.windows.to_string(),
        ]);
    }
    // The note deliberately does not name the backend: the whole table —
    // rendered or JSON — is byte-identical across engines, and CI diffs it.
    t.note(
        "Backend-invariant: serial and sharded engines (--des-backend / \
         A64FX_DES_BACKEND) produce this table byte-for-byte.",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d1_renders_and_is_deterministic() {
        let a = d1();
        let b = d1();
        assert_eq!(a.rows.len(), D1_SWEEP.len());
        assert_eq!(a.render(), b.render(), "D1 must be reproducible");
    }

    #[test]
    fn d1_columns_are_backend_invariant() {
        // The acceptance criterion in miniature: the table body must not
        // change when the engine is swapped under it.
        let serial = d1();
        let prev = netsim::shard::default_backend();
        netsim::shard::set_default_backend(DesBackend::Sharded { shards: 4 });
        let sharded = d1();
        netsim::shard::set_default_backend(prev);
        assert_eq!(serial.rows, sharded.rows, "rows must be backend-invariant");
    }

    #[test]
    fn d1_des_tracks_analytic_within_a_small_factor() {
        let t = d1();
        for row in &t.rows {
            let analytic: f64 = row[2].parse().unwrap();
            let des: f64 = row[3].parse().unwrap();
            let ratio = des / analytic;
            assert!(
                (0.3..=3.0).contains(&ratio),
                "{} nodes {}B: DES {des} vs analytic {analytic}",
                row[0],
                row[1]
            );
        }
    }
}
