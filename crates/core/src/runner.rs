//! Isolated experiment execution and the run-configuration resolvers.
//!
//! Each experiment runs **isolated**: on its own thread, behind
//! `catch_unwind` and a wall-clock deadline, so one panicking or hung
//! experiment yields a FAILED entry instead of killing the whole `repro`
//! run ([`run_isolated`], [`run_isolated_observed`]). The worker pool that
//! fans every experiment out and returns them in paper order is
//! [`crate::campaign::run_campaign`], the engine behind `repro --all`.
//!
//! The `resolve_*` functions turn a flag, an environment variable and a
//! default into one setting (threads, deadline, DES backend, pricing),
//! warning on garbage environment values instead of refusing to run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use crate::report::Table;

/// Default wall-clock budget for one experiment. Generous: the slowest
/// artefact takes tens of seconds on one core; ten minutes only trips on a
/// genuine hang. Override with `repro --deadline-secs` or
/// `A64FX_DEADLINE_SECS` (see [`resolve_deadline`]).
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(600);

/// Parse a per-experiment deadline request in whole seconds. Pure (no
/// environment access) so garbage handling is unit-testable: empty,
/// unparseable, zero or negative input is an `Err` describing the
/// problem.
pub fn parse_deadline_secs(raw: &str) -> Result<u64, String> {
    let s = raw.trim();
    if s.is_empty() {
        return Err("empty value".to_string());
    }
    match s.parse::<u64>() {
        Ok(0) => Err("0 seconds is not a valid deadline".to_string()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("'{s}' is not a positive integer of seconds")),
    }
}

/// Resolve the per-experiment deadline: an explicit request (e.g. a
/// `--deadline-secs` flag) wins, then the `A64FX_DEADLINE_SECS`
/// environment variable, then [`DEFAULT_DEADLINE`]. As with
/// [`resolve_threads`], a present-but-invalid environment variable is
/// treated as unset with a one-line warning on stderr — a typo in a login
/// script must never refuse to run.
pub fn resolve_deadline(explicit: Option<Duration>) -> Duration {
    resolve_deadline_from(
        explicit,
        std::env::var("A64FX_DEADLINE_SECS").ok().as_deref(),
    )
}

/// [`resolve_deadline`] with the environment value passed in — the pure
/// core, split out so tests can exercise the env path without mutating
/// the environment of a multi-threaded test runner.
pub fn resolve_deadline_from(explicit: Option<Duration>, env: Option<&str>) -> Duration {
    if let Some(d) = explicit.filter(|d| !d.is_zero()) {
        return d;
    }
    if let Some(raw) = env {
        match parse_deadline_secs(raw) {
            Ok(n) => return Duration::from_secs(n),
            Err(why) => {
                eprintln!("warning: ignoring A64FX_DEADLINE_SECS ({why}); using default");
            }
        }
    }
    DEFAULT_DEADLINE
}

/// Parse a thread-count request. Pure (no environment access) so garbage
/// handling is unit-testable: empty, unparseable, zero or negative input is
/// an `Err` describing the problem.
pub fn parse_threads(raw: &str) -> Result<usize, String> {
    let s = raw.trim();
    if s.is_empty() {
        return Err("empty value".to_string());
    }
    match s.parse::<usize>() {
        Ok(0) => Err("0 is not a valid worker count".to_string()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("'{s}' is not a positive integer")),
    }
}

/// Resolve the worker-team size: an explicit request (e.g. a `--threads`
/// flag) wins, then the `A64FX_REPRO_THREADS` environment variable, then
/// `available_parallelism`. A present-but-invalid environment variable is
/// treated as unset with a one-line warning on stderr — the runner must
/// never refuse to run over a typo in a login script.
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    if let Some(n) = explicit.filter(|&n| n >= 1) {
        return n;
    }
    if let Ok(raw) = std::env::var("A64FX_REPRO_THREADS") {
        match parse_threads(&raw) {
            Ok(n) => return n,
            Err(why) => {
                eprintln!("warning: ignoring A64FX_REPRO_THREADS ({why}); using default");
            }
        }
    }
    densela::pool::available_parallelism()
}

/// Resolve the discrete-event simulation backend: an explicit request
/// (e.g. a `--des-backend` flag) wins, then the `A64FX_DES_BACKEND`
/// environment variable (`serial` or `sharded<N>`), then the serial
/// engine. As with [`resolve_threads`], a present-but-invalid environment
/// variable is treated as unset with a one-line warning on stderr — a typo
/// in a login script must never change results or refuse to run.
pub fn resolve_des_backend(explicit: Option<netsim::DesBackend>) -> netsim::DesBackend {
    if let Some(b) = explicit {
        return b;
    }
    if let Ok(raw) = std::env::var("A64FX_DES_BACKEND") {
        match netsim::DesBackend::parse(&raw) {
            Ok(b) => return b,
            Err(why) => {
                eprintln!("warning: ignoring A64FX_DES_BACKEND ({why}); using default");
            }
        }
    }
    netsim::DesBackend::Serial
}

/// Resolve the kernel-pricing backend: an explicit request (e.g. a
/// `--pricing` flag) wins, then the `A64FX_PRICING` environment variable
/// (`flat` or `ecm`), then the flat roofline. As with
/// [`resolve_des_backend`], a present-but-invalid environment variable is
/// treated as unset with a one-line warning on stderr — a typo in a login
/// script must never change results or refuse to run.
pub fn resolve_pricing(
    explicit: Option<crate::costmodel::PricingBackend>,
) -> crate::costmodel::PricingBackend {
    resolve_pricing_from(explicit, std::env::var("A64FX_PRICING").ok().as_deref())
}

/// [`resolve_pricing`] with the environment value passed in — the pure
/// core, split out so tests can exercise the env path without mutating
/// the environment of a multi-threaded test runner.
pub fn resolve_pricing_from(
    explicit: Option<crate::costmodel::PricingBackend>,
    env: Option<&str>,
) -> crate::costmodel::PricingBackend {
    if let Some(b) = explicit {
        return b;
    }
    if let Some(raw) = env {
        match crate::costmodel::PricingBackend::parse(raw) {
            Ok(b) => return b,
            Err(why) => {
                eprintln!("warning: ignoring A64FX_PRICING ({why}); using default");
            }
        }
    }
    crate::costmodel::PricingBackend::Flat
}

/// Record-volume summary of an observed experiment: how much the recorder
/// captured, plus the DES queue high-water mark (0 when the experiment
/// never touched the event queue).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObsSummary {
    /// Span/instant/metric-point counts.
    pub totals: obs::Totals,
    /// Peak `netsim` event-queue depth (`des.queue.peak_depth` gauge).
    pub peak_queue_depth: f64,
}

impl ObsSummary {
    /// Summarise a recorder after a run.
    pub fn of(rec: &obs::MemRecorder) -> Self {
        ObsSummary {
            totals: rec.totals(),
            peak_queue_depth: rec.gauge("des.queue.peak_depth").unwrap_or(0.0),
        }
    }
}

/// The outcome of one isolated experiment: the table, or why it failed.
#[derive(Debug)]
pub struct ExperimentOutcome {
    /// Experiment id (e.g. "t3").
    pub id: String,
    /// The generated table, or a failure description (panic payload or
    /// deadline overrun).
    pub result: Result<Table, String>,
    /// Wall-clock time the experiment took (up to the deadline).
    pub elapsed: Duration,
    /// Recording summary when the experiment ran observed
    /// ([`run_isolated_observed`]); `None` for unobserved runs.
    pub obs: Option<ObsSummary>,
    /// Attempts consumed producing this outcome: 1 for a plain isolated
    /// run, more when a campaign retry policy re-ran a failure
    /// (`crate::campaign::RetryPolicy`). The render is attempt-invariant
    /// so retried-then-successful runs stay byte-identical to clean ones;
    /// the count is recorded here and in the campaign journal.
    pub attempts: u32,
}

impl ExperimentOutcome {
    /// Whether the experiment failed (panicked or timed out).
    pub fn failed(&self) -> bool {
        self.result.is_err()
    }

    /// Render for the console: the table (or a one-line FAILED row), plus
    /// an observability summary row when the run was observed.
    pub fn render(&self) -> String {
        let mut out = match &self.result {
            Ok(t) => t.render(),
            Err(why) => format!("== {} FAILED: {} ==\n", self.id, why),
        };
        if let Some(o) = &self.obs {
            out.push_str(&format!(
                "[obs {}] {} spans, {} instants, {} metric points, peak queue depth {:.0}\n",
                self.id,
                o.totals.spans,
                o.totals.instants,
                o.totals.metric_points,
                o.peak_queue_depth
            ));
        }
        out
    }
}

/// Extract a human-readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panicked with a non-string payload".to_string()
    }
}

/// Run one experiment body isolated: on its own thread, behind
/// `catch_unwind`, with a wall-clock `deadline`. A panic or overrun
/// becomes an `Err` in the outcome instead of propagating.
///
/// On deadline overrun the worker thread is abandoned (detached, still
/// running); the caller gets its FAILED outcome immediately. That is the
/// right trade for a CLI run — `repro` exits soon after and the OS reaps
/// the stragglers.
pub fn run_isolated<F>(id: &str, deadline: Duration, body: F) -> ExperimentOutcome
where
    F: FnOnce() -> Table + Send + 'static,
{
    run_isolated_inner(id, deadline, None, body)
}

/// [`run_isolated`] with `rec` installed as the worker thread's ambient
/// recorder for the duration of the experiment body. The outcome carries
/// an [`ObsSummary`] of what was captured — also on failure, since
/// whatever the experiment recorded before panicking or hanging is often
/// the best clue to why.
pub fn run_isolated_observed<F>(
    id: &str,
    deadline: Duration,
    rec: Arc<obs::MemRecorder>,
    body: F,
) -> ExperimentOutcome
where
    F: FnOnce() -> Table + Send + 'static,
{
    run_isolated_inner(id, deadline, Some(rec), body)
}

fn run_isolated_inner<F>(
    id: &str,
    deadline: Duration,
    rec: Option<Arc<obs::MemRecorder>>,
    body: F,
) -> ExperimentOutcome
where
    F: FnOnce() -> Table + Send + 'static,
{
    let started = Instant::now();
    let (tx, rx) = mpsc::channel();
    let worker_rec = rec.clone();
    std::thread::spawn(move || {
        let observed = move || match worker_rec {
            Some(r) => obs::with_recorder(r, body),
            None => body(),
        };
        let result = catch_unwind(AssertUnwindSafe(observed)).map_err(panic_message);
        // The receiver may have given up at the deadline: ignore send errors.
        let _ = tx.send(result);
    });
    let result = match rx.recv_timeout(deadline) {
        Ok(r) => r,
        Err(_) => Err(format!("deadline of {:.0?} exceeded", deadline)),
    };
    ExperimentOutcome {
        id: id.to_string(),
        result,
        elapsed: started.elapsed(),
        obs: rec.map(|r| ObsSummary::of(&r)),
        attempts: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments;

    #[test]
    fn parse_threads_accepts_positive_integers() {
        assert_eq!(parse_threads("1"), Ok(1));
        assert_eq!(parse_threads(" 8 "), Ok(8));
        assert_eq!(parse_threads("1000000"), Ok(1_000_000));
    }

    #[test]
    fn parse_threads_rejects_garbage() {
        // The satellite cases: unparseable, zero, negative, overflow, empty.
        for bad in ["abc", "0", "-3", "1.5", "", "  ", "99999999999999999999999"] {
            assert!(parse_threads(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn explicit_thread_request_wins() {
        assert_eq!(resolve_threads(Some(3)), 3);
        // Zero explicit request falls through to the default chain.
        assert!(resolve_threads(Some(0)) >= 1);
    }

    #[test]
    fn explicit_des_backend_wins() {
        // The flag beats the environment and the serial default.
        let b = resolve_des_backend(Some(netsim::DesBackend::Sharded { shards: 4 }));
        assert_eq!(b, netsim::DesBackend::Sharded { shards: 4 });
    }

    #[test]
    fn explicit_pricing_beats_environment() {
        use crate::costmodel::PricingBackend;
        // The flag beats the environment and the flat default.
        assert_eq!(
            resolve_pricing_from(Some(PricingBackend::Ecm), Some("flat")),
            PricingBackend::Ecm
        );
        assert_eq!(
            resolve_pricing_from(Some(PricingBackend::Flat), Some("ecm")),
            PricingBackend::Flat
        );
    }

    #[test]
    fn environment_pricing_used_when_no_flag() {
        use crate::costmodel::PricingBackend;
        assert_eq!(
            resolve_pricing_from(None, Some(" ECM ")),
            PricingBackend::Ecm
        );
        assert_eq!(
            resolve_pricing_from(None, Some("flat")),
            PricingBackend::Flat
        );
        assert_eq!(resolve_pricing_from(None, None), PricingBackend::Flat);
    }

    #[test]
    fn garbage_pricing_environment_falls_back_to_flat() {
        use crate::costmodel::PricingBackend;
        // A typo in a login script must never change results: every
        // unrecognised value degrades to the flat reference model.
        for bad in ["roofline", "", "ecm2", "Ecm Model", "1"] {
            assert_eq!(
                resolve_pricing_from(None, Some(bad)),
                PricingBackend::Flat,
                "{bad:?} must fall back to flat"
            );
        }
    }

    #[test]
    fn parse_deadline_accepts_positive_seconds() {
        assert_eq!(parse_deadline_secs("1"), Ok(1));
        assert_eq!(parse_deadline_secs(" 600 "), Ok(600));
        assert_eq!(parse_deadline_secs("86400"), Ok(86_400));
    }

    #[test]
    fn parse_deadline_rejects_garbage() {
        for bad in [
            "abc",
            "0",
            "-5",
            "2.5",
            "",
            "  ",
            "10s",
            "99999999999999999999999",
        ] {
            assert!(
                parse_deadline_secs(bad).is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn explicit_deadline_beats_environment() {
        assert_eq!(
            resolve_deadline_from(Some(Duration::from_secs(5)), Some("99")),
            Duration::from_secs(5)
        );
        // A zero explicit request falls through to the default chain.
        assert_eq!(
            resolve_deadline_from(Some(Duration::ZERO), None),
            DEFAULT_DEADLINE
        );
    }

    #[test]
    fn environment_deadline_used_when_no_flag() {
        assert_eq!(
            resolve_deadline_from(None, Some("42")),
            Duration::from_secs(42)
        );
        assert_eq!(resolve_deadline_from(None, None), DEFAULT_DEADLINE);
    }

    #[test]
    fn garbage_deadline_environment_falls_back_to_default() {
        // A typo in a login script must never change results: every
        // unrecognised value degrades to the ten-minute default.
        for bad in ["soon", "", "0", "-1", "5 minutes"] {
            assert_eq!(
                resolve_deadline_from(None, Some(bad)),
                DEFAULT_DEADLINE,
                "{bad:?} must fall back to the default"
            );
        }
    }

    #[test]
    fn isolated_outcomes_record_one_attempt() {
        let o = run_isolated("once", DEFAULT_DEADLINE, || {
            experiments::run_one("t1").expect("known id")
        });
        assert_eq!(o.attempts, 1);
    }

    #[test]
    fn isolated_panic_becomes_failed_outcome() {
        let o = run_isolated("boom", DEFAULT_DEADLINE, || {
            panic!("deliberate test panic");
        });
        assert!(o.failed());
        let why = o.result.as_ref().unwrap_err();
        assert!(why.contains("deliberate test panic"), "{why}");
        assert!(o.render().contains("boom FAILED"));
    }

    #[test]
    fn isolated_deadline_overrun_becomes_failed_outcome() {
        let o = run_isolated("sleepy", Duration::from_millis(50), || {
            std::thread::sleep(Duration::from_secs(30));
            unreachable!("the runner must not wait for this");
        });
        assert!(o.failed());
        assert!(o.result.as_ref().unwrap_err().contains("deadline"));
        assert!(o.elapsed < Duration::from_secs(5), "must give up promptly");
    }

    #[test]
    fn isolated_success_returns_the_table() {
        let o = run_isolated("ok", DEFAULT_DEADLINE, || {
            experiments::run_one("t1").expect("known id")
        });
        assert!(!o.failed());
        assert_eq!(o.result.as_ref().unwrap().id, "T1");
        assert!(o.obs.is_none(), "unobserved runs carry no obs summary");
        assert!(!o.render().contains("[obs"));
    }

    #[test]
    fn observed_run_summarises_recording_in_render() {
        let rec = Arc::new(obs::MemRecorder::new());
        let o = run_isolated_observed("ok", DEFAULT_DEADLINE, rec.clone(), || {
            // The recorder is installed on the worker thread, so ambient
            // instrumentation inside the body lands in `rec`.
            obs::span("app.phase", "warmup", 0.0, 1.0, &[]);
            experiments::run_one("t1").expect("known id")
        });
        assert!(!o.failed());
        let summary = o.obs.expect("observed run must carry a summary");
        assert!(summary.totals.spans >= 1, "body span must be recorded");
        assert_eq!(summary.totals, rec.totals());
        let rendered = o.render();
        assert!(rendered.contains("[obs ok]"), "{rendered}");
        assert!(rendered.contains("spans"), "{rendered}");
        // The table itself is identical to the unobserved run.
        let plain = run_isolated("ok", DEFAULT_DEADLINE, || {
            experiments::run_one("t1").expect("known id")
        });
        assert_eq!(o.result.unwrap(), plain.result.unwrap());
    }

    #[test]
    fn observed_failure_still_reports_partial_recording() {
        let rec = Arc::new(obs::MemRecorder::new());
        let o = run_isolated_observed("boom", DEFAULT_DEADLINE, rec, || {
            obs::add("progress.marker", 1);
            panic!("deliberate test panic");
        });
        assert!(o.failed());
        let summary = o.obs.expect("failed observed runs keep their summary");
        assert_eq!(summary.totals.metric_points, 1);
        assert!(o.render().contains("FAILED"));
        assert!(o.render().contains("[obs boom]"));
    }
}
