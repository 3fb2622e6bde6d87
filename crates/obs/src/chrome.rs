//! Chrome Trace Event JSON export and a text flamegraph-style rollup.
//!
//! The export follows the Trace Event Format accepted by
//! `chrome://tracing` and Perfetto: one `"X"` (complete) event per span
//! with `ts`/`dur` in microseconds, one `"i"` (instant) event per point
//! event with global scope, and `"M"` metadata events naming the two
//! virtual tracks — track 0 for simulated time (app phases, MPI,
//! network, faults) and track 1 for the kernel pool's logical
//! dispatch-generation clock, which would otherwise interleave
//! meaninglessly with simulated time.

use std::collections::BTreeMap;

use crate::json::escape;
use crate::json_f64;
use crate::mem::{Instant, Span};

/// The trace `pid` — single simulated process.
const PID: u32 = 1;

fn tid_for(cat: &str) -> u32 {
    if cat.starts_with("pool") {
        1
    } else {
        0
    }
}

fn args_json(attrs: &[(String, String)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": {}", escape(k), v));
    }
    out.push('}');
    out
}

/// Serialise a recording to a Chrome Trace Event JSON document.
pub(crate) fn trace_json(spans: &[Span], instants: &[Instant]) -> String {
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    out.push_str(&format!(
        "{{\"ph\": \"M\", \"pid\": {PID}, \"tid\": 0, \"name\": \"thread_name\", \"args\": {{\"name\": \"simulated time (us)\"}}}}"
    ));
    let has_pool =
        spans.iter().any(|s| tid_for(&s.cat) == 1) || instants.iter().any(|i| tid_for(&i.cat) == 1);
    if has_pool {
        out.push_str(",\n");
        out.push_str(&format!(
            "{{\"ph\": \"M\", \"pid\": {PID}, \"tid\": 1, \"name\": \"thread_name\", \"args\": {{\"name\": \"kernel pool (logical dispatch clock)\"}}}}"
        ));
    }
    for s in spans {
        out.push_str(",\n");
        out.push_str(&format!(
            "{{\"ph\": \"X\", \"pid\": {PID}, \"tid\": {}, \"cat\": \"{}\", \"name\": \"{}\", \"ts\": {}, \"dur\": {}, \"args\": {}}}",
            tid_for(&s.cat),
            escape(&s.cat),
            escape(&s.name),
            json_f64(s.start_us),
            json_f64(s.dur_us),
            args_json(&s.attrs)
        ));
    }
    for i in instants {
        out.push_str(",\n");
        out.push_str(&format!(
            "{{\"ph\": \"i\", \"s\": \"g\", \"pid\": {PID}, \"tid\": {}, \"cat\": \"{}\", \"name\": \"{}\", \"ts\": {}, \"args\": {}}}",
            tid_for(&i.cat),
            escape(&i.cat),
            escape(&i.name),
            json_f64(i.at_us),
            args_json(&i.attrs)
        ));
    }
    out.push_str("\n]}\n");
    out
}

/// Strip a per-instance suffix from a span name for aggregation: labels
/// like `compute:SymGS (52.4 Mflop)` or `allreduce(8B)` collapse to the
/// part before the first `(` so repeated phases aggregate into one row.
fn rollup_key(name: &str) -> &str {
    match name.find('(') {
        Some(i) => name[..i].trim_end(),
        None => name,
    }
}

/// Aggregate spans into a text flamegraph-style rollup: one row per
/// `category / name-stem`, sorted by total self time descending (ties
/// broken by name for determinism), with counts and percentages of the
/// total recorded span time.
pub fn rollup_text(spans: &[Span]) -> String {
    let mut agg: BTreeMap<(String, String), (u64, f64)> = BTreeMap::new();
    for s in spans {
        let key = (s.cat.clone(), rollup_key(&s.name).to_string());
        let e = agg.entry(key).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += s.dur_us;
    }
    // Fold from +0.0: the std empty-sum identity is -0.0, which would
    // leak into the header as "-0.0 us".
    let total: f64 = agg.values().fold(0.0, |acc, (_, d)| acc + d);
    let mut rows: Vec<((String, String), (u64, f64))> = agg.into_iter().collect();
    rows.sort_by(|a, b| {
        b.1 .1
            .partial_cmp(&a.1 .1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    let mut out = String::new();
    out.push_str(&format!(
        "span rollup: {} spans, {:.1} us total\n",
        spans.len(),
        total
    ));
    out.push_str(&format!(
        "{:>12}  {:>8}  {:>6}  {}\n",
        "total_us", "count", "share", "cat / name"
    ));
    for ((cat, name), (count, dur)) in rows {
        let share = if total > 0.0 {
            100.0 * dur / total
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:>12.1}  {:>8}  {:>5.1}%  {} / {}\n",
            dur, count, share, cat, name
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttrValue, MemRecorder, Recorder};

    fn sample() -> MemRecorder {
        let rec = MemRecorder::new();
        rec.span(
            "app.phase",
            "compute:SymGS (52.4 Mflop)",
            0.0,
            100.0,
            &[("mflop", AttrValue::F64(52.4))],
        );
        rec.span("app.phase", "compute:SymGS (52.4 Mflop)", 100.0, 100.0, &[]);
        rec.span(
            "mpi",
            "mpi.allreduce",
            200.0,
            50.0,
            &[("bytes", AttrValue::U64(8))],
        );
        rec.span("pool", "pool.dispatch", 0.0, 1.0, &[]);
        rec.instant(
            "fault",
            "fault.crash",
            120.0,
            &[("rank", AttrValue::U64(2))],
        );
        rec
    }

    #[test]
    fn trace_json_has_expected_events() {
        let rec = sample();
        let json = rec.chrome_trace_json();
        assert!(json.starts_with("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"));
        assert!(json.trim_end().ends_with("]}"));
        // 2 thread_name metadata + 4 spans + 1 instant.
        assert_eq!(json.matches("\"ph\": \"M\"").count(), 2);
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 4);
        assert_eq!(json.matches("\"ph\": \"i\"").count(), 1);
        assert!(json.contains("\"tid\": 1, \"cat\": \"pool\""));
        assert!(json.contains("\"args\": {\"rank\": 2}"));
        assert!(json.contains("\"ts\": 200, \"dur\": 50"));
    }

    #[test]
    fn pool_metadata_omitted_without_pool_spans() {
        let rec = MemRecorder::new();
        rec.span("app.phase", "compute", 0.0, 1.0, &[]);
        let json = rec.chrome_trace_json();
        assert_eq!(json.matches("\"ph\": \"M\"").count(), 1);
    }

    #[test]
    fn rollup_aggregates_and_sorts_by_time() {
        let rec = sample();
        let text = rec.rollup();
        assert!(text.starts_with("span rollup: 4 spans, 251.0 us total\n"));
        // SymGS aggregates its two spans and leads the table.
        let symgs = text.find("app.phase / compute:SymGS").unwrap();
        let allreduce = text.find("mpi / mpi.allreduce").unwrap();
        assert!(symgs < allreduce);
        assert!(text.contains("       200.0         2"));
    }

    #[test]
    fn rollup_of_empty_recording() {
        let text = rollup_text(&[]);
        assert!(text.starts_with("span rollup: 0 spans, 0.0 us total"));
    }
}
