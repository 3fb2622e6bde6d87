//! In-memory recorder: collects spans, instants, and metrics behind a
//! mutex, for export once the experiment finishes.

use std::sync::Mutex;

use crate::metrics::{Histogram, Registry};
use crate::{AttrValue, Recorder};

/// An owned attribute (the `Recorder` API takes borrowed attrs; storage
/// owns them as `(String, String)` with values pre-rendered — rendering at
/// record time keeps export trivially deterministic).
pub type OwnedAttr = (String, String);

fn own_attrs(attrs: &[(&str, AttrValue)]) -> Vec<OwnedAttr> {
    attrs
        .iter()
        .map(|(k, v)| {
            let rendered = match v {
                AttrValue::U64(u) => u.to_string(),
                AttrValue::F64(f) => crate::json_f64(*f),
                AttrValue::Str(s) => format!("\"{}\"", crate::json::escape(s)),
            };
            (k.to_string(), rendered)
        })
        .collect()
}

/// A recorded interval, in simulated (or logical) microseconds.
#[derive(Debug, Clone)]
pub struct Span {
    /// Category, e.g. `app.phase`, `mpi`, `pool`.
    pub cat: String,
    /// Display name, e.g. `compute:SymGS (52.4 Mflop)`.
    pub name: String,
    /// Start timestamp.
    pub start_us: f64,
    /// Duration.
    pub dur_us: f64,
    /// Structured attributes with values pre-rendered as JSON fragments.
    pub attrs: Vec<OwnedAttr>,
}

/// A recorded point event.
#[derive(Debug, Clone)]
pub struct Instant {
    /// Category, e.g. `fault`.
    pub cat: String,
    /// Display name, e.g. `fault.crash`.
    pub name: String,
    /// Timestamp.
    pub at_us: f64,
    /// Structured attributes with values pre-rendered as JSON fragments.
    pub attrs: Vec<OwnedAttr>,
}

/// Compact record-volume totals for summary rows.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Number of spans recorded.
    pub spans: u64,
    /// Number of instant events recorded.
    pub instants: u64,
    /// Number of metric points (counters + gauges + histogram samples).
    pub metric_points: u64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    instants: Vec<Instant>,
    registry: Registry,
}

/// A [`Recorder`] that collects everything in memory.
///
/// Interior mutability is a mutex rather than atomics: recording happens
/// on the simulation driver thread (pool workers never have a recorder
/// installed), so there is no contention, and a single lock keeps span
/// order exactly the call order — which is what makes the exported trace
/// byte-stable.
#[derive(Default)]
pub struct MemRecorder {
    inner: Mutex<Inner>,
}

impl MemRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// All recorded spans, in record order.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.lock().unwrap().spans.clone()
    }

    /// All recorded instants, in record order.
    pub fn instants(&self) -> Vec<Instant> {
        self.inner.lock().unwrap().instants.clone()
    }

    /// Current value of a counter, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.inner.lock().unwrap().registry.counter(name)
    }

    /// Current value of a gauge, if recorded.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.inner.lock().unwrap().registry.gauge(name)
    }

    /// A clone of the named histogram, if recorded.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner.lock().unwrap().registry.histogram(name).cloned()
    }

    /// A clone of the whole metrics registry.
    pub fn registry(&self) -> Registry {
        self.inner.lock().unwrap().registry.clone()
    }

    /// Record-volume totals for summary rows.
    pub fn totals(&self) -> Totals {
        let inner = self.inner.lock().unwrap();
        Totals {
            spans: inner.spans.len() as u64,
            instants: inner.instants.len() as u64,
            metric_points: inner.registry.points(),
        }
    }

    /// The metrics snapshot JSON (see [`Registry::snapshot_json`]).
    pub fn metrics_json(&self, meta: &[(&str, String)]) -> String {
        self.inner.lock().unwrap().registry.snapshot_json(meta)
    }

    /// The extended metrics snapshot with histogram percentiles (see
    /// [`Registry::snapshot_json_ext`]).
    pub fn metrics_json_ext(&self, meta: &[(&str, String)]) -> String {
        self.inner.lock().unwrap().registry.snapshot_json_ext(meta)
    }

    /// Attribute the recorded spans (see [`crate::analyze::Analysis`]).
    pub fn analyze(&self) -> crate::analyze::Analysis {
        let inner = self.inner.lock().unwrap();
        crate::analyze::Analysis::from_spans(&inner.spans)
    }

    /// Prometheus text exposition of the metrics registry (see
    /// [`Registry::render_prometheus`]).
    pub fn prometheus(&self) -> String {
        self.inner.lock().unwrap().registry.render_prometheus()
    }

    /// The Chrome Trace Event JSON document for this recording.
    pub fn chrome_trace_json(&self) -> String {
        let inner = self.inner.lock().unwrap();
        crate::chrome::trace_json(&inner.spans, &inner.instants)
    }

    /// A text flamegraph-style rollup of span time by category/name.
    pub fn rollup(&self) -> String {
        let inner = self.inner.lock().unwrap();
        crate::chrome::rollup_text(&inner.spans)
    }
}

impl Recorder for MemRecorder {
    fn span(&self, cat: &str, name: &str, start_us: f64, dur_us: f64, attrs: &[(&str, AttrValue)]) {
        self.inner.lock().unwrap().spans.push(Span {
            cat: cat.to_string(),
            name: name.to_string(),
            start_us,
            dur_us,
            attrs: own_attrs(attrs),
        });
    }

    fn instant(&self, cat: &str, name: &str, at_us: f64, attrs: &[(&str, AttrValue)]) {
        self.inner.lock().unwrap().instants.push(Instant {
            cat: cat.to_string(),
            name: name.to_string(),
            at_us,
            attrs: own_attrs(attrs),
        });
    }

    fn add(&self, counter: &str, delta: u64) {
        self.inner.lock().unwrap().registry.add(counter, delta);
    }

    fn gauge_max(&self, gauge: &str, value: f64) {
        self.inner.lock().unwrap().registry.gauge_max(gauge, value);
    }

    fn observe(&self, hist: &str, value: f64) {
        self.inner.lock().unwrap().registry.observe(hist, value);
    }

    fn observe_n(&self, hist: &str, value: f64, n: u64) {
        self.inner
            .lock()
            .unwrap()
            .registry
            .observe_n(hist, value, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_spans_instants_and_metrics() {
        let rec = MemRecorder::new();
        rec.span(
            "app.phase",
            "compute",
            0.0,
            10.0,
            &[("mflop", AttrValue::F64(1.5))],
        );
        rec.instant("fault", "fault.crash", 5.0, &[("rank", AttrValue::U64(3))]);
        rec.add("mpi.allreduce.calls", 1);
        rec.gauge_max("net.queue.peak", 4.0);
        rec.observe("pool.lane_rows", 128.0);

        let spans = rec.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "compute");
        assert_eq!(
            spans[0].attrs,
            vec![("mflop".to_string(), "1.5".to_string())]
        );
        let instants = rec.instants();
        assert_eq!(instants.len(), 1);
        assert_eq!(
            instants[0].attrs,
            vec![("rank".to_string(), "3".to_string())]
        );
        assert_eq!(rec.counter("mpi.allreduce.calls"), Some(1));
        assert_eq!(rec.gauge("net.queue.peak"), Some(4.0));
        assert_eq!(rec.histogram("pool.lane_rows").unwrap().count, 1);
        assert_eq!(
            rec.totals(),
            Totals {
                spans: 1,
                instants: 1,
                metric_points: 3
            }
        );
    }

    #[test]
    fn str_attrs_render_as_quoted_json() {
        let rec = MemRecorder::new();
        rec.span("c", "n", 0.0, 1.0, &[("alg", AttrValue::Str("ring"))]);
        assert_eq!(rec.spans()[0].attrs[0].1, "\"ring\"");
    }
}
