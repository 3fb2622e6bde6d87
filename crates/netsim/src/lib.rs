//! # netsim — interconnect topologies and discrete-event simulation
//!
//! This crate provides the network substrate for the A64FX paper
//! reproduction: models of the four interconnect families the paper's
//! systems use —
//!
//! * **TofuD** (A64FX): a 6-dimensional mesh/torus, modelled as
//!   [`topology::Torus6d`];
//! * **Cray Aries** (ARCHER): a dragonfly, [`topology::Dragonfly`];
//! * **FDR/EDR InfiniBand** (Cirrus, Fulhame): fat trees,
//!   [`topology::FatTree`];
//! * **Intel OmniPath** (EPCC NGIO): also a two-level fat-tree fabric with
//!   its own link parameters.
//!
//! plus a small deterministic [`des`] (discrete-event simulation) engine, a
//! parallel [`shard`]ed engine that partitions the event queue by topology
//! region and advances it in conservative-lookahead windows (for
//! Fugaku-scale rank counts), and a [`network::Network`] facade that
//! computes message transfer times with per-node injection-channel
//! contention. `simmpi` builds its simulated MPI on top of these pieces.

#![warn(missing_docs)]
// The sharded-engine proptests expand past the default macro recursion
// limit in the vendored proptest runner.
#![recursion_limit = "512"]

pub mod contention;
pub mod des;
pub mod network;
pub mod shard;
pub mod topology;

pub use contention::InjectionChannel;
pub use des::{Event, EventQueue};
pub use network::{Network, NodeId, Route, RouteTally};
pub use shard::{DesBackend, RunStats, ShardPlan, ShardedEventQueue};
pub use topology::{build_topology, Dragonfly, FatTree, Topology, Torus6d};
