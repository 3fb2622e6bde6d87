//! # simmpi — a simulated MPI layer
//!
//! The paper's benchmarks are MPI (and MPI+OpenMP) codes. This crate
//! simulates an MPI job on a modelled system: every rank carries a virtual
//! clock; point-to-point messages and collectives advance those clocks using
//! the `netsim` network (topology hops, link bandwidth, NIC contention) and a
//! shared-memory path for ranks on the same node.
//!
//! The pieces:
//!
//! * [`placement`] — how ranks and OpenMP threads are laid out over nodes,
//!   sockets/CMGs and cores. The paper's Figure 1 is entirely about this.
//! * [`world`] — the simulated communicator: per-rank clocks, `compute`,
//!   point-to-point exchange, and collectives.
//! * [`collectives`] — cost models for barrier/bcast/reduce/allreduce/
//!   allgather/alltoall with hierarchical (intra-node + inter-node)
//!   decomposition and size-dependent algorithm selection, mirroring real
//!   MPI implementations.
//! * [`desval`] — the hierarchical allreduce on the `netsim` event
//!   engine, used to validate the analytic model.
//! * [`collcache`] — process-wide hit/miss counters for the per-`World`
//!   collective-time memo tables.

#![warn(missing_docs)]

pub mod collcache;
pub mod collectives;
pub mod desval;
pub mod placement;
pub mod world;

pub use collectives::{allreduce_time_us, alltoall_time_us, bcast_time_us, CollectiveAlgorithm};
pub use placement::{Placement, PlacementPolicy};
pub use world::{P2pPlan, World};
