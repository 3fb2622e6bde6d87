//! Host wall-clock spans, kept in memory and written once at exit as a
//! Chrome trace (`chrome://tracing`, Perfetto).
//!
//! The harness wraps each call into a repository layer in a span. With
//! the tracer off, [`Tracer::span`] runs the closure and nothing else, so
//! the untraced ops that give the end-to-end metrics pay no clock reads.

use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `core.experiments.t3`.
    pub name: String,
    /// Op the span belongs to (see [`Tracer::next_op`]).
    pub op: u32,
    /// Identifier, unique in the run.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.dur_ns as f64 * 1e-9
    }
}

/// The in-memory span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u32,
    next_id: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            op: 0,
            next_id: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Switch recording on or off between ops.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Start the next op: later spans carry its number, which is returned.
    pub fn next_op(&mut self) -> u32 {
        self.op += 1;
        self.op
    }

    /// Run `f` inside a span called `name` (a no-op wrapper when off).
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().copied();
        self.open.push(id);
        let t0 = Instant::now();
        let out = f(self);
        let t1 = Instant::now();
        self.open.pop();
        self.spans.push(Span {
            name: name.to_string(),
            op: self.op,
            id,
            parent,
            start_ns: nanos(t0 - self.epoch),
            dur_ns: nanos(t1 - t0),
        });
        out
    }

    /// Spans of op `op`, in completion order.
    pub fn op_spans(&self, op: u32) -> Vec<&Span> {
        self.spans.iter().filter(|s| s.op == op).collect()
    }

    /// Every recorded span as Chrome-trace JSON (complete `X` events,
    /// microsecond timestamps, one process and thread).
    pub fn chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": 1, \"args\": {{\"id\": {}, \"parent\": {parent}, \"op\": {}}}}}",
                    s.name,
                    s.name.split('.').next().unwrap_or(""),
                    s.start_ns as f64 / 1e3,
                    s.dur_ns as f64 / 1e3,
                    s.id,
                    s.op,
                )
            })
            .collect();
        format!(
            "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n{}\n]}}\n",
            events.join(",\n")
        )
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Total seconds of the spans in `spans` called `name`.
pub fn total_secs(spans: &[&Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.secs())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_ops() {
        let mut tr = Tracer::new(true);
        let op = tr.next_op();
        tr.span("outer", |tr| tr.span("inner", |_| ()));
        let spans = tr.op_spans(op);
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(inner.dur_ns <= outer.dur_ns);
        assert!(tr.chrome_json().contains("\"ph\": \"X\""));
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", |_| 7), 7);
        assert!(tr.op_spans(0).is_empty());
    }
}
