//! # obs — deterministic tracing and metrics
//!
//! The observability seam of the reproduction: the simulator's answer to
//! the profiler evidence the paper leans on (the Fujitsu profiler breakdown
//! in Figure 1's caption, the per-phase OpenSBLI analysis in §VII.C). Every
//! layer of the stack — the executor's phase replay, `simmpi` collectives,
//! `netsim` transfers, the `densela` kernel pool, `faultsim` delivery —
//! reports through the [`Recorder`] trait:
//!
//! * **spans** — labelled intervals in *simulated* microseconds
//!   (`app.phase`, `mpi.allreduce`, `ckpt.write`, `pool.dispatch`), with
//!   structured attributes;
//! * **instants** — point events (`fault.crash`, `fault.recover`);
//! * **metrics** — deterministic counters, high-water gauges and fixed
//!   log2-bucket histograms, aggregated into a byte-stable JSON snapshot.
//!
//! Two recorders exist: [`NoopRecorder`] (the default — nothing is ever
//! installed, every instrumentation site short-circuits on one
//! thread-local check, and the simulation's outputs are bit-identical to
//! an uninstrumented build) and [`MemRecorder`] (collects everything in
//! memory and exports Chrome Trace Event JSON for `chrome://tracing` /
//! Perfetto, a text flamegraph-style rollup, and the metrics snapshot).
//!
//! Determinism is a hard contract, pinned by the `conform` crate's `obs`
//! suite: no wall-clock time is ever recorded (spans carry simulated time,
//! pool dispatches a logical generation clock), collections iterate in
//! `BTreeMap` order, and floats render with Rust's shortest-round-trip
//! formatting — so the same seed and thread count produce byte-identical
//! trace and snapshot files on every run.
//!
//! Instrumented code uses the ambient API:
//!
//! ```
//! use std::sync::Arc;
//! let rec = Arc::new(obs::MemRecorder::new());
//! obs::with_recorder(rec.clone(), || {
//!     obs::add("net.msg", 1);
//!     obs::span("app.phase", "compute:SymGS", 0.0, 12.5, &[]);
//! });
//! assert_eq!(rec.counter("net.msg"), Some(1));
//! // Outside `with_recorder` every call is a cheap no-op.
//! obs::add("net.msg", 1);
//! assert_eq!(rec.counter("net.msg"), Some(1));
//! ```

#![warn(missing_docs)]

pub mod analyze;
mod chrome;
pub mod json;
mod mem;
mod metrics;

pub use analyze::{Analysis, Category, ChainNode};
pub use chrome::rollup_text;
pub use mem::{Instant, MemRecorder, Span, Totals};
pub use metrics::{bucket_index, sanitize_metric_name, Histogram, Registry};

use std::cell::RefCell;
use std::sync::Arc;

/// A structured span/event attribute value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttrValue<'a> {
    /// An unsigned integer (byte counts, rank ids, ...).
    U64(u64),
    /// A float (durations, factors, ...).
    F64(f64),
    /// A short label.
    Str(&'a str),
}

/// The tracing/metrics sink every instrumented layer reports into.
///
/// All timestamps are **simulated** microseconds (or an explicitly logical
/// clock, e.g. the kernel pool's dispatch generation) — never wall-clock —
/// so recordings are deterministic for a fixed seed and thread count.
pub trait Recorder: Send + Sync {
    /// Whether recording is live. Instrumentation sites may skip argument
    /// construction entirely when this is `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Record a completed interval `[start_us, start_us + dur_us)`.
    fn span(&self, cat: &str, name: &str, start_us: f64, dur_us: f64, attrs: &[(&str, AttrValue)]);

    /// Record a point event at `at_us`.
    fn instant(&self, cat: &str, name: &str, at_us: f64, attrs: &[(&str, AttrValue)]);

    /// Add `delta` to a monotonic counter.
    fn add(&self, counter: &str, delta: u64);

    /// Raise a high-water gauge to at least `value`.
    fn gauge_max(&self, gauge: &str, value: f64);

    /// Record one observation into a fixed log2-bucket histogram.
    fn observe(&self, hist: &str, value: f64);

    /// Record `n` observations of the same `value`: the same histogram as
    /// `n` calls of [`Recorder::observe`] for integer values (whose float
    /// sum is exact). `n == 0` records nothing.
    fn observe_n(&self, hist: &str, value: f64, n: u64);
}

/// The zero-cost default: records nothing and reports itself disabled, so
/// guarded instrumentation sites skip even label formatting.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }
    fn span(&self, _: &str, _: &str, _: f64, _: f64, _: &[(&str, AttrValue)]) {}
    fn instant(&self, _: &str, _: &str, _: f64, _: &[(&str, AttrValue)]) {}
    fn add(&self, _: &str, _: u64) {}
    fn gauge_max(&self, _: &str, _: f64) {}
    fn observe(&self, _: &str, _: f64) {}
    fn observe_n(&self, _: &str, _: f64, _: u64) {}
}

thread_local! {
    /// The ambient recorder of the current thread. `None` (the default)
    /// means every instrumentation site is a single TLS read + branch.
    static CURRENT: RefCell<Option<Arc<dyn Recorder>>> = const { RefCell::new(None) };
}

/// Install `rec` as the current thread's ambient recorder for the duration
/// of `f`, restoring the previous recorder afterwards (also on panic).
/// Nested installs are allowed and shadow the outer recorder.
pub fn with_recorder<T>(rec: Arc<dyn Recorder>, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<Arc<dyn Recorder>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }
    let prev = CURRENT.with(|c| c.borrow_mut().replace(rec));
    let _restore = Restore(prev);
    f()
}

/// Whether a live (enabled) recorder is installed on this thread. Hot
/// paths check this before building labels or attributes.
pub fn enabled() -> bool {
    CURRENT.with(|c| c.borrow().as_ref().is_some_and(|r| r.enabled()))
}

/// Run `f` against the installed recorder, if one is installed and
/// enabled. The no-recorder cost is one thread-local read.
pub fn with(f: impl FnOnce(&dyn Recorder)) {
    CURRENT.with(|c| {
        if let Some(r) = c.borrow().as_ref() {
            if r.enabled() {
                f(r.as_ref());
            }
        }
    });
}

/// Ambient [`Recorder::span`].
pub fn span(cat: &str, name: &str, start_us: f64, dur_us: f64, attrs: &[(&str, AttrValue)]) {
    with(|r| r.span(cat, name, start_us, dur_us, attrs));
}

/// Ambient [`Recorder::instant`].
pub fn instant(cat: &str, name: &str, at_us: f64, attrs: &[(&str, AttrValue)]) {
    with(|r| r.instant(cat, name, at_us, attrs));
}

/// Ambient [`Recorder::add`].
pub fn add(counter: &str, delta: u64) {
    with(|r| r.add(counter, delta));
}

/// Ambient [`Recorder::gauge_max`].
pub fn gauge_max(gauge: &str, value: f64) {
    with(|r| r.gauge_max(gauge, value));
}

/// Ambient [`Recorder::observe`].
pub fn observe(hist: &str, value: f64) {
    with(|r| r.observe(hist, value));
}

/// Ambient [`Recorder::observe_n`].
pub fn observe_n(hist: &str, value: f64, n: u64) {
    with(|r| r.observe_n(hist, value, n));
}

/// Render an `f64` for JSON: Rust's shortest round-trip formatting, with
/// non-finite values (never produced by the simulator, but the writer must
/// still emit valid JSON) mapped to large sentinels.
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "null".to_string()
    } else if v > 0.0 {
        "1e308".to_string()
    } else {
        "-1e308".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_recorder_is_a_noop() {
        // Must not panic, must not record anywhere.
        add("x", 1);
        span("c", "n", 0.0, 1.0, &[]);
        instant("c", "n", 0.0, &[]);
        gauge_max("g", 1.0);
        observe("h", 1.0);
        assert!(!enabled());
    }

    #[test]
    fn noop_recorder_reports_disabled() {
        let rec: Arc<dyn Recorder> = Arc::new(NoopRecorder);
        with_recorder(rec, || {
            assert!(!enabled());
            let mut called = false;
            with(|_| called = true);
            assert!(!called, "a disabled recorder must not receive calls");
        });
    }

    #[test]
    fn with_recorder_installs_and_restores() {
        let rec = Arc::new(MemRecorder::new());
        assert!(!enabled());
        with_recorder(rec.clone(), || {
            assert!(enabled());
            add("k", 2);
            add("k", 3);
        });
        assert!(!enabled());
        assert_eq!(rec.counter("k"), Some(5));
    }

    #[test]
    fn nested_install_shadows_and_restores_outer() {
        let outer = Arc::new(MemRecorder::new());
        let inner = Arc::new(MemRecorder::new());
        with_recorder(outer.clone(), || {
            add("depth", 1);
            with_recorder(inner.clone(), || add("depth", 10));
            add("depth", 1);
        });
        assert_eq!(outer.counter("depth"), Some(2));
        assert_eq!(inner.counter("depth"), Some(10));
    }

    #[test]
    fn recorder_restored_after_panic() {
        let rec = Arc::new(MemRecorder::new());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_recorder(rec.clone(), || panic!("boom"));
        }));
        assert!(result.is_err());
        assert!(!enabled(), "panic must not leak the installed recorder");
    }

    #[test]
    fn json_f64_is_shortest_round_trip() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(0.0), "0");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "1e308");
        assert_eq!(json_f64(f64::NEG_INFINITY), "-1e308");
    }
}
