//! # a64fx-core — the evaluation framework
//!
//! This crate is the reproduction's "primary contribution" layer: it takes
//! the application work models from `a64fx-apps`, prices them on the machine
//! models from `archsim` via a calibrated per-kernel-class roofline, replays
//! their communication on `simmpi`/`netsim`, and regenerates **every table
//! and figure** of *Investigating Applications on the A64FX* (Jackson et
//! al., IEEE CLUSTER 2020).
//!
//! Structure:
//!
//! * [`costmodel`] — the executor: replays an application [`a64fx_apps::Trace`]
//!   on a simulated system, phase by phase.
//! * [`calibration`] — the per-(system, kernel-class) efficiency tables and
//!   the modelling constants, each documented with its provenance.
//! * [`experiments`] — one module per paper artefact (Tables I–X, Figures
//!   1–5), each returning a [`report::Table`] with paper-vs-simulated values.
//! * [`ablations`] — design-choice sweeps (bandwidth, topology, placement,
//!   decomposition granularity, fast-math).
//! * [`extensions`] — studies beyond the paper's tables: power efficiency,
//!   roofline summaries, per-app kernel profiles.
//! * [`autotune`] — layout search: rediscovers the paper's hand-tuned
//!   process/thread configurations automatically.
//! * [`resilience`] — the fault-aware executor: replays a trace under a
//!   `faultsim` schedule with checkpoint/restart and shrink-and-recover.
//! * [`runner`] — parallel regeneration of all experiments on a bounded
//!   worker team (at most `available_parallelism` threads), each isolated
//!   behind `catch_unwind` and a wall-clock deadline.
//! * [`campaign`] — crash-safe batch supervision: a checksummed
//!   write-ahead journal, `--resume` replay, and deterministic retry.
//! * [`chaos`] — the seeded fault-injection self-test behind
//!   `repro --chaos` (panics, hangs, torn and corrupt journals, kills).
//! * [`tracecache`] — the bounded in-memory LRU trace cache.
//! * [`timeline`] — per-iteration phase timelines (the profiler view).
//! * [`report`] — plain-text table rendering and paper-comparison summaries.
//! * [`paper`] — the paper's published numbers, transcribed for comparison.
//!
//! The `repro` binary drives everything: `repro --exp t3`, `repro --all`.

#![warn(missing_docs)]

pub mod ablations;
pub mod autotune;
pub mod calibration;
pub mod campaign;
pub mod chaos;
pub mod costmodel;
pub mod experiments;
pub mod extensions;
pub mod paper;
pub mod report;
pub mod resilience;
pub mod runner;
pub mod timeline;
pub mod tracecache;

pub use calibration::Calibration;
pub use costmodel::{ExecutionResult, Executor, JobLayout};
pub use report::Table;
