//! Differential validation: analytic collective cost models vs the
//! discrete-event simulation.
//!
//! For every topology family in the paper's systems, across message sizes
//! spanning the recursive-doubling → Rabenseifner crossover and several
//! rank placements of the A64FX node, the closed-form
//! [`simmpi::collectives::allreduce_time_us`] is pitted against
//! [`simmpi::desval::allreduce_des_stats`] on the serial engine, which runs
//! the same hierarchical algorithm with every inter-node leader message as
//! an event. The closed form prices the leader leg from one averaged flight
//! per round; the engine prices every message over its own hop count and
//! makes each leader wait for its partners. Bounded relative error is
//! evidence that the averaging prices what the schedule actually does.

use a64fx_core::Table;
use archsim::{system, InterconnectKind, SystemId};
use netsim::{DesBackend, Network};
use simmpi::collectives::allreduce_time_us;
use simmpi::desval::allreduce_des_stats;
use simmpi::{Placement, PlacementPolicy};

/// Maximum relative error |analytic − DES| / max(analytic, DES) tolerated
/// in any sweep cell.
pub const REL_ERR_BOUND: f64 = 0.25;

/// Nodes in every sweep (spans two recursive-doubling rounds and a
/// non-trivial Rabenseifner schedule).
pub(crate) const SWEEP_NODES: u32 = 8;

/// Message sizes, bytes: latency floor, small, the 16 KiB algorithm
/// crossover itself, bandwidth mid-range, bandwidth-bound.
pub(crate) const SWEEP_BYTES: [u64; 5] = [8, 1024, 16 * 1024, 256 * 1024, 4 * 1024 * 1024];

/// The four topology families the paper's systems use.
pub(crate) const FAMILIES: [InterconnectKind; 4] = [
    InterconnectKind::TofuD,
    InterconnectKind::Aries,
    InterconnectKind::EdrInfiniband,
    InterconnectKind::OmniPath,
];

/// The placements swept: flat one-rank-per-node, the paper's preferred
/// one-rank-per-CMG hybrid (round-robin policy), and a packed
/// four-rank-per-node layout (packed policy) — two distinct
/// [`PlacementPolicy`] values and three ranks-per-node shapes.
pub(crate) fn sweep_placements() -> Vec<(&'static str, Placement)> {
    let node = &system(SystemId::A64fx).node;
    vec![
        (
            "1 rank/node",
            Placement::new(SWEEP_NODES, 1, 1, node, PlacementPolicy::RoundRobinDomain)
                .expect("valid"),
        ),
        (
            "1 rank/CMG, round-robin",
            Placement::one_rank_per_domain(SWEEP_NODES, node),
        ),
        (
            "4 ranks/node, packed",
            Placement::new(SWEEP_NODES * 4, 4, 12, node, PlacementPolicy::Packed).expect("valid"),
        ),
    ]
}

/// One sweep cell.
pub struct Cell {
    /// Topology family name.
    pub family: &'static str,
    /// Placement label.
    pub placement: &'static str,
    /// Message size per rank, bytes.
    pub bytes: u64,
    /// Closed-form prediction, microseconds.
    pub analytic_us: f64,
    /// Discrete-event simulation, microseconds.
    pub des_us: f64,
}

impl Cell {
    /// Relative disagreement of the two models.
    pub fn rel_err(&self) -> f64 {
        let m = self.analytic_us.max(self.des_us);
        if m == 0.0 {
            0.0
        } else {
            (self.analytic_us - self.des_us).abs() / m
        }
    }
}

/// Run the full sweep: every family × placement × size.
pub fn sweep() -> Vec<Cell> {
    let mut cells = Vec::new();
    for kind in FAMILIES {
        for (label, placement) in sweep_placements() {
            let map = placement.node_map();
            for bytes in SWEEP_BYTES {
                let net = Network::new(kind, SWEEP_NODES as usize);
                let analytic_us = allreduce_time_us(&net, &map, bytes);
                let (des_us, _) = allreduce_des_stats(&net, &map, bytes, DesBackend::Serial);
                cells.push(Cell {
                    family: kind.name(),
                    placement: label,
                    bytes,
                    analytic_us,
                    des_us,
                });
            }
        }
    }
    cells
}

/// Render the sweep as a report table and collect bound violations.
pub fn run() -> (Table, Vec<String>) {
    let cells = sweep();
    let mut table = Table::new(
        "DIFF",
        "Allreduce: analytic cost model vs message-level DES (8 nodes)",
        &[
            "Topology",
            "Placement",
            "Bytes",
            "Analytic us",
            "DES us",
            "Rel err",
        ],
    );
    let mut failures = Vec::new();
    let mut worst: Option<&Cell> = None;
    for cell in &cells {
        let err = cell.rel_err();
        table.push_row(vec![
            cell.family.to_string(),
            cell.placement.to_string(),
            cell.bytes.to_string(),
            format!("{:.3}", cell.analytic_us),
            format!("{:.3}", cell.des_us),
            format!("{:.1}%", err * 100.0),
        ]);
        if err >= REL_ERR_BOUND {
            failures.push(format!(
                "{} / {} / {} B: analytic {:.3}us vs DES {:.3}us — rel err {:.1}% exceeds {:.0}% bound",
                cell.family,
                cell.placement,
                cell.bytes,
                cell.analytic_us,
                cell.des_us,
                err * 100.0,
                REL_ERR_BOUND * 100.0
            ));
        }
        if worst.is_none_or(|w| err > w.rel_err()) {
            worst = Some(cell);
        }
    }
    if let Some(w) = worst {
        table.note(format!(
            "worst cell: {} / {} / {} B at {:.1}% relative error (bound {:.0}%)",
            w.family,
            w.placement,
            w.bytes,
            w.rel_err() * 100.0,
            REL_ERR_BOUND * 100.0
        ));
    }
    table.note(format!(
        "{} cells: {} topology families x {} placements x {} message sizes",
        cells.len(),
        FAMILIES.len(),
        sweep_placements().len(),
        SWEEP_BYTES.len()
    ));
    (table, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_issue_floor() {
        let cells = sweep();
        let families: std::collections::BTreeSet<_> = cells.iter().map(|c| c.family).collect();
        let placements: std::collections::BTreeSet<_> = cells.iter().map(|c| c.placement).collect();
        let sizes: std::collections::BTreeSet<_> = cells.iter().map(|c| c.bytes).collect();
        assert!(families.len() >= 3, "{families:?}");
        assert!(placements.len() >= 2, "{placements:?}");
        assert!(sizes.len() >= 5, "{sizes:?}");
    }

    #[test]
    fn every_cell_inside_error_bound() {
        let (_, failures) = run();
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }

    #[test]
    fn both_models_report_positive_times() {
        for cell in sweep() {
            assert!(
                cell.analytic_us > 0.0 && cell.des_us > 0.0,
                "{} / {} / {} B: analytic {} DES {}",
                cell.family,
                cell.placement,
                cell.bytes,
                cell.analytic_us,
                cell.des_us
            );
        }
    }
}
