//! Crash-safe campaign supervision: a write-ahead journal, resumable
//! execution, and deterministic retry.
//!
//! A *campaign* is a batch of experiments (`repro --all` today, the
//! campaign server's request batches tomorrow). This module makes one
//! survive the real world:
//!
//! * **Write-ahead journal.** Every completed experiment is appended to
//!   an append-only JSONL journal *before* it counts — one line per
//!   outcome carrying the experiment id, attempt count, the rendered
//!   report and the table JSON, each line sealed with an FNV-1a
//!   checksum and fsynced. A `SIGKILL` at any byte leaves a valid
//!   prefix: [`load_journal`] stops at the first unverifiable line, so
//!   a torn tail or a flipped bit can never resurrect a half-written
//!   record.
//! * **Resume.** `repro --all --journal <path> --resume` replays the
//!   journal's durable outcomes and runs only what is missing (or
//!   previously failed). Experiments are deterministic, so the merged
//!   output is byte-identical to an uninterrupted run — pinned by the
//!   conform `campaign` suite and a CI kill-and-resume byte-diff.
//! * **Retry.** A [`RetryPolicy`] re-runs failed experiments up to
//!   `max_attempts` with a fixed backoff. The retry *decision* depends
//!   only on the attempt counter — never on wall time — so simulated
//!   results stay deterministic; the attempt count is recorded in the
//!   [`runner::ExperimentOutcome`] and the journal.
//!
//! Process-wide counters ([`stats`], and the
//! `campaign.{resumed,retries,journal_records}` `obs` counters when a
//! recorder is installed) surface how much work restarts are saving.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use obs::json::{self, escape, Value};

use crate::costmodel::{self, PricingBackend};
use crate::experiments;
use crate::report::Table;
use crate::runner;
use crate::tracecache::Fnv1a;

/// Journal format version. Bump on any record-layout change; loaders
/// refuse other versions and the campaign starts fresh.
pub const JOURNAL_VERSION: u32 = 1;

/// Campaign-level retry policy: how many times to attempt one
/// experiment, and how long to pause between attempts. Distinct from
/// `faultsim::RetryPolicy`, which models *simulated* message
/// retransmission; this one governs the real harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per experiment (>= 1). 1 means no retry — the
    /// historical behaviour.
    pub max_attempts: u32,
    /// Real-time pause between attempts. Purely a wall-clock courtesy
    /// (let a transient host condition pass); it never feeds into any
    /// simulated decision, so results are backoff-invariant.
    pub backoff: Duration,
}

impl RetryPolicy {
    /// No retry: one attempt, the pre-campaign behaviour.
    pub fn no_retry() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff: Duration::ZERO,
        }
    }

    /// Build from a `--retries` style count of *extra* attempts.
    pub fn with_retries(retries: u32, backoff: Duration) -> Self {
        RetryPolicy {
            max_attempts: retries.saturating_add(1).max(1),
            backoff,
        }
    }
}

// ---- process-wide counters ------------------------------------------------

static RESUMED: AtomicU64 = AtomicU64::new(0);
static RETRIES: AtomicU64 = AtomicU64::new(0);
static JOURNAL_RECORDS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide campaign counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignStats {
    /// Outcomes replayed from a journal instead of re-run.
    pub resumed: u64,
    /// Extra attempts consumed by retry policies.
    pub retries: u64,
    /// Records durably appended to journals.
    pub journal_records: u64,
}

/// Current process-wide campaign totals (monotonic).
pub fn stats() -> CampaignStats {
    CampaignStats {
        resumed: RESUMED.load(Ordering::Relaxed),
        retries: RETRIES.load(Ordering::Relaxed),
        journal_records: JOURNAL_RECORDS.load(Ordering::Relaxed),
    }
}

// ---- journal records ------------------------------------------------------

/// One durable experiment outcome, as journaled and as replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Append sequence number (0-based, dense in a valid journal).
    pub seq: u64,
    /// Experiment id (e.g. "t3").
    pub id: String,
    /// Attempts consumed (>= 1).
    pub attempts: u32,
    /// Whether the experiment produced its table.
    pub ok: bool,
    /// The rendered console block ([`Table::render`], or the FAILED row).
    pub render: String,
    /// The table JSON ([`Table::to_json`]) for successful outcomes.
    pub json: Option<String>,
}

/// A record's body: the JSON object up to, not including, the seal.
fn record_body(r: &JournalRecord) -> String {
    let json_field = match &r.json {
        Some(j) => format!("\"{}\"", escape(j)),
        None => "null".to_string(),
    };
    format!(
        "{{\"v\":{JOURNAL_VERSION},\"seq\":{},\"id\":\"{}\",\"attempts\":{},\"ok\":{},\"render\":\"{}\",\"json\":{}",
        r.seq,
        escape(&r.id),
        r.attempts,
        r.ok,
        escape(&r.render),
        json_field,
    )
}

/// Serialise one record to its single JSONL line (no trailing newline),
/// with the sealing checksum appended.
fn record_line(r: &JournalRecord) -> String {
    seal(&record_body(r))
}

/// The campaign header line: pins the journal version, the id list and
/// the pricing backend, so a journal can never be resumed against a
/// different campaign shape or under pricing that would change its
/// tables. (Threads and the DES backend leave every table byte-identical,
/// so they are not pinned.)
fn header_line(ids: &[&str], pricing: PricingBackend) -> String {
    let list = ids
        .iter()
        .map(|id| format!("\"{}\"", escape(id)))
        .collect::<Vec<_>>()
        .join(",");
    seal(&format!(
        "{{\"v\":{JOURNAL_VERSION},\"kind\":\"campaign\",\"ids\":[{list}],\"pricing\":\"{pricing}\""
    ))
}

/// Append `,"fnv":"<digest>"}` where the digest covers every byte of
/// `body`. Verification recomputes it; any mismatch voids the line.
fn seal(body: &str) -> String {
    let mut h = Fnv1a::new();
    h.write_bytes(body.as_bytes());
    format!("{body},\"fnv\":\"{:016x}\"}}", h.finish())
}

/// Split a sealed line back into its body, verifying the checksum.
fn unseal(line: &str) -> Option<&str> {
    let (body, tail) = line.rsplit_once(",\"fnv\":\"")?;
    let digest = tail.strip_suffix("\"}")?;
    // Exactly what the writer emits: 16 lowercase hex digits. (Without
    // the case check, flipping bit 0x20 of a digest letter would still
    // parse to the same value and "verify".)
    if digest.len() != 16
        || !digest
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    {
        return None;
    }
    let want = u64::from_str_radix(digest, 16).ok()?;
    let mut h = Fnv1a::new();
    h.write_bytes(body.as_bytes());
    (h.finish() == want).then_some(body)
}

/// Parse a verified record body (the part [`unseal`] returns).
///
/// The journal only ever reads its own writer's output, so a record is
/// accepted only if writing it again reproduces `body` byte for byte.
/// Anything else — another version, reordered or extra fields, added
/// whitespace, a non-canonical escape or number — fails here, and the
/// loader treats the line exactly like a checksum failure: the journal
/// ends there.
fn parse_record(body: &str) -> Option<JournalRecord> {
    let v = json::parse(&format!("{body}}}")).ok()?;
    let text = |key: &str| v.get(key)?.as_str().map(str::to_string);
    let rec = JournalRecord {
        seq: whole(v.get("seq")?)?,
        id: text("id")?,
        attempts: u32::try_from(whole(v.get("attempts")?)?).ok()?,
        ok: match v.get("ok")? {
            Value::Bool(ok) => *ok,
            _ => return None,
        },
        render: text("render")?,
        json: match v.get("json")? {
            Value::Null => None,
            j => Some(j.as_str()?.to_string()),
        },
    };
    (record_body(&rec) == body).then_some(rec)
}

/// A non-negative whole number. Values an `f64` cannot carry exactly
/// come back rounded, which [`parse_record`]'s re-serialisation refuses.
fn whole(v: &Value) -> Option<u64> {
    let n = v.as_f64()?;
    (n >= 0.0 && n.fract() == 0.0 && n < u64::MAX as f64).then_some(n as u64)
}

// ---- journal load/append --------------------------------------------------

/// What [`load_journal`] recovered: the valid record prefix and where it
/// ends in the file (everything after `valid_bytes` is torn or corrupt
/// and is truncated away before appending resumes).
#[derive(Debug)]
pub struct LoadedJournal {
    /// Durable records, in append order.
    pub records: Vec<JournalRecord>,
    /// Byte length of the valid prefix (header + verified lines).
    pub valid_bytes: u64,
    /// Human-readable notes on anything dropped (torn tail, bad line).
    pub warnings: Vec<String>,
}

/// Load a journal's durable prefix for a campaign over `ids` priced by
/// `pricing`.
///
/// Returns `None` when the file is absent, unreadable, or its header
/// does not match this campaign (wrong version, id list or pricing) —
/// the caller then starts a fresh journal. Within a matching journal, reading
/// stops at the first line that fails its checksum or parse: the write
/// path appends and fsyncs records strictly in order, so everything
/// before that point is a durable WAL prefix and everything after it is
/// untrustworthy.
pub fn load_journal(path: &Path, ids: &[&str], pricing: PricingBackend) -> Option<LoadedJournal> {
    let raw = std::fs::read(path).ok()?;
    let text = String::from_utf8_lossy(&raw);
    let mut lines = text.split_inclusive('\n');
    let header = lines.next()?;
    if header.trim_end_matches('\n') != header_line(ids, pricing) {
        return None;
    }
    let mut out = LoadedJournal {
        records: Vec::new(),
        valid_bytes: header.len() as u64,
        warnings: Vec::new(),
    };
    for line in lines {
        let trimmed = line.trim_end_matches('\n');
        // A line is durable only if it is newline-terminated, seals
        // correctly, parses, and continues the dense sequence.
        let rec = if line.ends_with('\n') {
            unseal(trimmed).and_then(parse_record)
        } else {
            None
        };
        match rec {
            Some(r) if r.seq == out.records.len() as u64 => {
                out.valid_bytes += line.len() as u64;
                out.records.push(r);
            }
            _ => {
                out.warnings.push(format!(
                    "journal ends at record {} ({} trailing byte(s) dropped)",
                    out.records.len(),
                    raw.len() as u64 - out.valid_bytes
                ));
                break;
            }
        }
    }
    Some(out)
}

/// An open, append-only campaign journal. Every append is written as
/// one line and fsynced before returning — the record is durable (or
/// the append errors) by the time the campaign counts the experiment.
pub struct Journal {
    file: File,
    path: PathBuf,
    next_seq: u64,
}

impl Journal {
    /// Create a fresh journal at `path` (truncating anything there),
    /// writing and syncing the header of a campaign over `ids` priced by
    /// `pricing`.
    pub fn create(path: &Path, ids: &[&str], pricing: PricingBackend) -> std::io::Result<Journal> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        let mut file = File::create(path)?;
        file.write_all(format!("{}\n", header_line(ids, pricing)).as_bytes())?;
        file.sync_data()?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
            next_seq: 0,
        })
    }

    /// Reopen `path` for appending after [`load_journal`] recovered
    /// `loaded`: the file is first truncated to the valid prefix (torn
    /// tails must not precede new records), and appends continue the
    /// sequence.
    pub fn resume(path: &Path, loaded: &LoadedJournal) -> std::io::Result<Journal> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(loaded.valid_bytes)?;
        let mut file = OpenOptions::new().append(true).open(path)?;
        file.flush()?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
            next_seq: loaded.records.len() as u64,
        })
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Durably append one outcome; returns its sequence number.
    pub fn append(
        &mut self,
        id: &str,
        attempts: u32,
        ok: bool,
        render: &str,
        json: Option<&str>,
    ) -> std::io::Result<u64> {
        let seq = self.next_seq;
        let rec = JournalRecord {
            seq,
            id: id.to_string(),
            attempts,
            ok,
            render: render.to_string(),
            json: json.map(str::to_string),
        };
        self.file
            .write_all(format!("{}\n", record_line(&rec)).as_bytes())?;
        self.file.sync_data()?;
        self.next_seq = seq + 1;
        JOURNAL_RECORDS.fetch_add(1, Ordering::Relaxed);
        if obs::enabled() {
            obs::add("campaign.journal_records", 1);
        }
        Ok(seq)
    }
}

// ---- campaign execution ---------------------------------------------------

/// How a campaign runs: worker count, per-experiment deadline, retry,
/// and the pricing backend its journal is pinned to.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Per-experiment wall-clock deadline.
    pub deadline: Duration,
    /// Retry policy for failed experiments.
    pub retry: RetryPolicy,
    /// Stop scheduling new work once this many records have been
    /// appended in this process (the kill-injection hook behind
    /// `repro --kill-after` and the chaos/conform kill-resume
    /// scenarios). `None` runs to completion.
    pub stop_after_records: Option<u64>,
    /// The pricing backend the experiments run under, written into the
    /// journal header: a journal left under other pricing is not resumed.
    pub pricing: PricingBackend,
}

impl CampaignConfig {
    /// A sensible default: given workers/deadline, no retry, no kill,
    /// and the installed process default pricing
    /// ([`costmodel::default_pricing`]), which the experiments read.
    pub fn new(workers: usize, deadline: Duration) -> Self {
        CampaignConfig {
            workers,
            deadline,
            retry: RetryPolicy::no_retry(),
            stop_after_records: None,
            pricing: costmodel::default_pricing(),
        }
    }
}

/// One experiment's result as the campaign reports it: either replayed
/// from the journal or freshly run (and journaled).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignOutcome {
    /// Experiment id.
    pub id: String,
    /// Whether the experiment produced its table.
    pub ok: bool,
    /// Attempts consumed (cumulative over resumes for re-run failures).
    pub attempts: u32,
    /// Whether this outcome was replayed from the journal.
    pub from_journal: bool,
    /// The rendered console block.
    pub render: String,
    /// The table JSON for successful outcomes.
    pub json: Option<String>,
    /// Wall time of the experiment's final attempt in this process; zero
    /// when replayed from the journal (which does not record it).
    pub elapsed: Duration,
}

/// Whether the campaign ran to completion or was stopped by the
/// kill-injection hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignEnd {
    /// Every pending experiment was attempted.
    Completed,
    /// `stop_after_records` fired; the returned outcomes cover only the
    /// journaled prefix.
    Killed,
}

/// A campaign's result: outcomes in `ids` order (partial after a kill)
/// plus how it ended.
#[derive(Debug)]
pub struct CampaignResult {
    /// Outcomes in campaign id order; after a kill, only the durable
    /// ones.
    pub outcomes: Vec<CampaignOutcome>,
    /// Completion state.
    pub end: CampaignEnd,
    /// Warnings from journal recovery (dropped torn tails etc).
    pub warnings: Vec<String>,
}

impl CampaignResult {
    /// Number of failed outcomes.
    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.ok).count()
    }
}

/// Run one experiment body with retry under the isolated runner.
/// Deterministic in everything but wall time: the retry decision is a
/// pure function of the attempt counter and each attempt's success.
pub fn run_with_retry(
    id: &str,
    cfg: &CampaignConfig,
    body: &Arc<dyn Fn(&str) -> Table + Send + Sync>,
) -> runner::ExperimentOutcome {
    let mut attempt = 1u32;
    loop {
        let body = Arc::clone(body);
        let tid = id.to_string();
        let mut outcome = runner::run_isolated(id, cfg.deadline, move || body(&tid));
        outcome.attempts = attempt;
        if !outcome.failed() || attempt >= cfg.retry.max_attempts.max(1) {
            return outcome;
        }
        RETRIES.fetch_add(1, Ordering::Relaxed);
        if obs::enabled() {
            obs::add("campaign.retries", 1);
        }
        if !cfg.retry.backoff.is_zero() {
            std::thread::sleep(cfg.retry.backoff);
        }
        attempt += 1;
    }
}

/// Run a campaign over an arbitrary id list and body function — the
/// engine under [`run_campaign`], exposed so the chaos harness and the
/// conform suite can drive synthetic campaigns through the identical
/// code path.
pub fn run_campaign_with(
    ids: &[&str],
    body: Arc<dyn Fn(&str) -> Table + Send + Sync>,
    cfg: &CampaignConfig,
    journal_path: Option<&Path>,
    resume: bool,
) -> std::io::Result<CampaignResult> {
    let mut warnings = Vec::new();
    // Recover the journal's durable prefix (resume) or start fresh.
    let mut replayed: HashMap<String, CampaignOutcome> = HashMap::new();
    let mut prior_attempts: HashMap<String, u32> = HashMap::new();
    let mut journal = match journal_path {
        None => None,
        Some(path) => {
            let loaded = if resume {
                load_journal(path, ids, cfg.pricing)
            } else {
                None
            };
            match loaded {
                Some(loaded) => {
                    warnings.extend(loaded.warnings.iter().cloned());
                    for r in &loaded.records {
                        if r.ok {
                            // Later duplicate ids (a re-run failure that
                            // eventually succeeded) supersede earlier ones.
                            replayed.insert(
                                r.id.clone(),
                                CampaignOutcome {
                                    id: r.id.clone(),
                                    ok: true,
                                    attempts: r.attempts,
                                    from_journal: true,
                                    render: r.render.clone(),
                                    json: r.json.clone(),
                                    elapsed: Duration::ZERO,
                                },
                            );
                        } else {
                            // Failed records are re-run on resume; keep
                            // the attempt count for cumulative reporting.
                            let e = prior_attempts.entry(r.id.clone()).or_insert(0);
                            *e += r.attempts;
                        }
                    }
                    RESUMED.fetch_add(replayed.len() as u64, Ordering::Relaxed);
                    if obs::enabled() {
                        obs::add("campaign.resumed", replayed.len() as u64);
                    }
                    Some(Journal::resume(path, &loaded)?)
                }
                None => {
                    if resume {
                        warnings.push(format!(
                            "journal {} absent or not this campaign's; starting fresh",
                            path.display()
                        ));
                    }
                    Some(Journal::create(path, ids, cfg.pricing)?)
                }
            }
        }
    };

    // Pending work, in id order; a shared atomic cursor feeds workers.
    let pending: Vec<&str> = ids
        .iter()
        .copied()
        .filter(|id| !replayed.contains_key(*id))
        .collect();
    let slots: Vec<Mutex<Option<runner::ExperimentOutcome>>> =
        pending.iter().map(|_| Mutex::new(None)).collect();
    let journal_mx = Mutex::new((journal.take(), 0u64, false)); // (journal, appended, killed)
    let next = AtomicUsize::new(0);
    let workers = cfg.workers.clamp(1, pending.len().max(1));
    let mut io_error: Option<std::io::Error> = None;
    if !pending.is_empty() {
        let io_errors: Mutex<Vec<std::io::Error>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let work = |_w: usize| loop {
                {
                    let guard = journal_mx.lock().unwrap_or_else(PoisonError::into_inner);
                    if guard.2 {
                        break; // killed: stop scheduling new work
                    }
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&id) = pending.get(i) else { break };
                let outcome = run_with_retry(id, cfg, &body);
                // Journal first — the outcome only counts once durable.
                let mut guard = journal_mx.lock().unwrap_or_else(PoisonError::into_inner);
                let (journal, appended, killed) = &mut *guard;
                if *killed {
                    break;
                }
                if let Some(j) = journal.as_mut() {
                    let json = outcome.result.as_ref().ok().map(|t: &Table| t.to_json(&[]));
                    let attempts = outcome.attempts + prior_attempts.get(id).copied().unwrap_or(0);
                    let render = match &outcome.result {
                        Ok(t) => t.render(),
                        Err(_) => outcome.render(),
                    };
                    if let Err(e) =
                        j.append(id, attempts, !outcome.failed(), &render, json.as_deref())
                    {
                        io_errors
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .push(e);
                        break;
                    }
                    *appended += 1;
                    if cfg.stop_after_records.is_some_and(|n| *appended >= n) {
                        *killed = true;
                        drop(guard);
                        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(outcome);
                        break;
                    }
                }
                drop(guard);
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(outcome);
            };
            let mut handles = Vec::with_capacity(workers - 1);
            for w in 1..workers {
                handles.push(scope.spawn(move || work(w)));
            }
            work(0);
            for h in handles {
                let _ = h.join();
            }
        });
        io_error = io_errors
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
    }
    if let Some(e) = io_error {
        return Err(e);
    }
    let killed = journal_mx.lock().unwrap_or_else(PoisonError::into_inner).2;

    // Assemble outcomes in id order: replayed + fresh.
    let mut fresh: HashMap<String, CampaignOutcome> = HashMap::new();
    for slot in slots {
        if let Some(o) = slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
            let render = match &o.result {
                Ok(t) => t.render(),
                Err(_) => o.render(),
            };
            fresh.insert(
                o.id.clone(),
                CampaignOutcome {
                    id: o.id.clone(),
                    ok: !o.failed(),
                    attempts: o.attempts + prior_attempts.get(&o.id).copied().unwrap_or(0),
                    from_journal: false,
                    json: o.result.as_ref().ok().map(|t| t.to_json(&[])),
                    render,
                    elapsed: o.elapsed,
                },
            );
        }
    }
    let outcomes = ids
        .iter()
        .filter_map(|id| replayed.remove(*id).or_else(|| fresh.remove(*id)))
        .collect();
    Ok(CampaignResult {
        outcomes,
        end: if killed {
            CampaignEnd::Killed
        } else {
            CampaignEnd::Completed
        },
        warnings,
    })
}

/// Run the full experiment campaign (every id in the registry) with
/// journaling/resume — the engine behind `repro --all --journal`.
pub fn run_campaign(
    cfg: &CampaignConfig,
    journal_path: Option<&Path>,
    resume: bool,
) -> std::io::Result<CampaignResult> {
    let ids = experiments::all_ids();
    run_campaign_with(
        &ids,
        Arc::new(|id: &str| experiments::run_one(id).expect("registry id")),
        cfg,
        journal_path,
        resume,
    )
}

/// Merge a campaign's table JSONs into one deterministic document — the
/// `repro --exp-json-out` payload CI byte-diffs across kill/resume.
pub fn merged_json(outcomes: &[CampaignOutcome]) -> String {
    let mut entries = Vec::with_capacity(outcomes.len());
    for o in outcomes {
        let entry = match &o.json {
            Some(j) => j.trim_end().to_string(),
            None => format!(
                "{{\n  \"id\": \"{}\",\n  \"failed\": true\n}}",
                escape(&o.id)
            ),
        };
        // Indent each table to sit inside the array.
        let indented = entry
            .lines()
            .map(|l| format!("    {l}"))
            .collect::<Vec<_>>()
            .join("\n");
        entries.push(indented);
    }
    format!(
        "{{\n  \"experiments\": {},\n  \"failed\": {},\n  \"tables\": [\n{}\n  ]\n}}\n",
        outcomes.len(),
        outcomes.iter().filter(|o| !o.ok).count(),
        entries.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("a64fx-campaign-{name}-{}", std::process::id()))
    }

    fn demo_table(id: &str) -> Table {
        let mut t = Table::new(&id.to_ascii_uppercase(), "demo", &["k", "v"]);
        t.push_row(vec![id.to_string(), format!("{}!", id)]);
        t.note("quote \" and\nnewline");
        t
    }

    fn demo_body() -> Arc<dyn Fn(&str) -> Table + Send + Sync> {
        Arc::new(|id: &str| demo_table(id))
    }

    #[test]
    fn record_lines_round_trip_through_seal_and_parse() {
        let rec = JournalRecord {
            seq: 3,
            id: "t4".into(),
            attempts: 2,
            ok: true,
            render: demo_table("t4").render(),
            json: Some(demo_table("t4").to_json(&[])),
        };
        let line = record_line(&rec);
        assert!(!line.contains('\n'), "records must be single lines");
        let parsed = parse_record(unseal(&line).expect("seal verifies")).expect("parses");
        assert_eq!(parsed, rec);
        // Failed records carry no json.
        let fail = JournalRecord {
            json: None,
            ok: false,
            ..rec
        };
        assert_eq!(
            parse_record(unseal(&record_line(&fail)).unwrap()).unwrap(),
            fail
        );
    }

    #[test]
    fn tampered_lines_fail_to_unseal() {
        let line = record_line(&JournalRecord {
            seq: 0,
            id: "t1".into(),
            attempts: 1,
            ok: true,
            render: "x".into(),
            json: None,
        });
        assert!(unseal(&line).is_some());
        for pos in 0..line.len() {
            let mut bad = line.clone().into_bytes();
            bad[pos] ^= 0x20;
            let bad = String::from_utf8_lossy(&bad).to_string();
            let verified = unseal(&bad).and_then(parse_record);
            assert!(
                verified.is_none() || bad == line,
                "flip at {pos} must not verify"
            );
        }
    }

    #[test]
    fn correctly_sealed_non_canonical_records_are_refused() {
        let rec = JournalRecord {
            seq: 1,
            id: "t1".into(),
            attempts: 1,
            ok: true,
            render: "A\n".into(),
            json: None,
        };
        let body = record_body(&rec);
        assert_eq!(parse_record(&body), Some(rec));
        // Each variant parses as JSON to the same record, and a forger
        // could seal it, but the writer never emits it.
        let variants = [
            body.replace(",\"seq\":1", ",\"seq\": 1"),
            body.replace(",\"seq\":1", ",\"seq\":1.0"),
            body.replace(",\"seq\":1", ",\"seq\":01"),
            body.replace("\"render\":\"A", "\"render\":\"\\u0041"),
            body.replace("\\n", "\\u000a"),
            body.replace(
                "\"id\":\"t1\",\"attempts\":1",
                "\"attempts\":1,\"id\":\"t1\"",
            ),
            body.replace("{\"v\":1", "{\"v\":2"),
            format!("{body},\"extra\":0"),
        ];
        for v in variants {
            assert_ne!(v, body);
            assert_eq!(parse_record(unseal(&seal(&v)).unwrap()), None, "{v}");
        }
    }

    #[test]
    fn journal_truncated_mid_record_resumes_from_last_complete_record() {
        let path = tmp("truncate");
        let ids = ["a", "b", "c"];
        let cfg = CampaignConfig::new(1, Duration::from_secs(30));
        {
            let mut j = Journal::create(&path, &ids, cfg.pricing).unwrap();
            for id in ids {
                let t = demo_table(id);
                j.append(id, 1, true, &t.render(), Some(&t.to_json(&[])))
                    .unwrap();
            }
        }
        let full = std::fs::read(&path).unwrap();
        // Truncate into the middle of the last record.
        std::fs::write(&path, &full[..full.len() - 17]).unwrap();
        let loaded = load_journal(&path, &ids, cfg.pricing).expect("header intact");
        assert_eq!(loaded.records.len(), 2, "last torn record dropped");
        assert_eq!(loaded.records[1].id, "b");
        assert!(!loaded.warnings.is_empty());
        // Resuming truncates the tail and the campaign re-runs only "c".
        let result = run_campaign_with(&ids, demo_body(), &cfg, Some(&path), true).unwrap();
        assert_eq!(result.end, CampaignEnd::Completed);
        assert_eq!(result.outcomes.len(), 3);
        assert!(result.outcomes[0].from_journal);
        assert!(result.outcomes[1].from_journal);
        assert!(!result.outcomes[2].from_journal, "c must re-run");
        // And the journal is whole again.
        let reloaded = load_journal(&path, &ids, cfg.pricing).unwrap();
        assert_eq!(reloaded.records.len(), 3);
        assert!(reloaded.warnings.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn kill_and_resume_is_byte_identical_to_uninterrupted() {
        let cfg = CampaignConfig::new(1, Duration::from_secs(30));
        let ids = ["a", "b", "c", "d"];
        // Uninterrupted reference.
        let clean_path = tmp("clean");
        let clean = run_campaign_with(&ids, demo_body(), &cfg, Some(&clean_path), false).unwrap();
        let clean_merged = merged_json(&clean.outcomes);
        // Killed after 2 durable records, then resumed.
        let killed_path = tmp("killed");
        let kill_cfg = CampaignConfig {
            stop_after_records: Some(2),
            ..cfg
        };
        let killed =
            run_campaign_with(&ids, demo_body(), &kill_cfg, Some(&killed_path), false).unwrap();
        assert_eq!(killed.end, CampaignEnd::Killed);
        assert!(killed.outcomes.len() < ids.len());
        let resumed = run_campaign_with(&ids, demo_body(), &cfg, Some(&killed_path), true).unwrap();
        assert_eq!(resumed.end, CampaignEnd::Completed);
        assert!(resumed.outcomes.iter().any(|o| o.from_journal));
        assert_eq!(
            merged_json(&resumed.outcomes),
            clean_merged,
            "kill-and-resume must reproduce the merged output byte for byte"
        );
        // Renders match too (the --all stdout path).
        let clean_r: Vec<_> = clean.outcomes.iter().map(|o| &o.render).collect();
        let res_r: Vec<_> = resumed.outcomes.iter().map(|o| &o.render).collect();
        assert_eq!(clean_r, res_r);
        let _ = std::fs::remove_file(&clean_path);
        let _ = std::fs::remove_file(&killed_path);
    }

    #[test]
    fn retry_policy_reruns_failures_deterministically() {
        use std::sync::atomic::AtomicU32;
        let calls = Arc::new(AtomicU32::new(0));
        let c2 = Arc::clone(&calls);
        let body: Arc<dyn Fn(&str) -> Table + Send + Sync> = Arc::new(move |id: &str| {
            if id == "flaky" && c2.fetch_add(1, Ordering::SeqCst) < 2 {
                panic!("transient failure");
            }
            demo_table(id)
        });
        let cfg = CampaignConfig {
            retry: RetryPolicy::with_retries(2, Duration::ZERO),
            ..CampaignConfig::new(1, Duration::from_secs(30))
        };
        let before = stats();
        let result = run_campaign_with(&["flaky", "ok"], body, &cfg, None, false).unwrap();
        let after = stats();
        assert_eq!(result.failed(), 0, "third attempt must succeed");
        assert_eq!(result.outcomes[0].attempts, 3);
        assert_eq!(result.outcomes[1].attempts, 1);
        assert!(after.retries >= before.retries + 2);
        // Renders carry no attempt marks: retried output is identical.
        assert_eq!(result.outcomes[0].render, demo_table("flaky").render());
    }

    #[test]
    fn exhausted_retries_report_failed_and_journal_attempts() {
        let path = tmp("exhausted");
        let body: Arc<dyn Fn(&str) -> Table + Send + Sync> = Arc::new(|id: &str| {
            if id == "doomed" {
                panic!("always fails");
            }
            demo_table(id)
        });
        let cfg = CampaignConfig {
            retry: RetryPolicy::with_retries(1, Duration::ZERO),
            ..CampaignConfig::new(1, Duration::from_secs(30))
        };
        let result = run_campaign_with(
            &["doomed", "ok"],
            Arc::clone(&body),
            &cfg,
            Some(&path),
            false,
        )
        .unwrap();
        assert_eq!(result.failed(), 1);
        assert_eq!(result.outcomes[0].attempts, 2);
        assert!(result.outcomes[0].render.contains("FAILED"));
        let loaded = load_journal(&path, &["doomed", "ok"], cfg.pricing).unwrap();
        let doomed = loaded.records.iter().find(|r| r.id == "doomed").unwrap();
        assert!(!doomed.ok);
        assert_eq!(doomed.attempts, 2);
        // Resume re-runs the failure and accumulates its attempt count.
        let result2 = run_campaign_with(&["doomed", "ok"], body, &cfg, Some(&path), true).unwrap();
        let d2 = &result2.outcomes[0];
        assert!(!d2.ok && !d2.from_journal);
        assert_eq!(d2.attempts, 4, "attempts accumulate across resumes");
        assert!(result2.outcomes[1].from_journal, "ok outcome replays");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_or_mismatched_journals_start_fresh() {
        let path = tmp("foreign");
        let cfg = CampaignConfig::new(1, Duration::from_secs(30));
        std::fs::write(&path, "not a journal\n").unwrap();
        assert!(load_journal(&path, &["a"], cfg.pricing).is_none());
        // A journal for a different id list, or for the same ids under
        // other pricing, is refused on load...
        let other = match cfg.pricing {
            PricingBackend::Flat => PricingBackend::Ecm,
            PricingBackend::Ecm => PricingBackend::Flat,
        };
        for (ids, pricing) in [(["x", "y"], cfg.pricing), (["a", "b"], other)] {
            let mut j = Journal::create(&path, &ids, pricing).unwrap();
            j.append(ids[0], 1, true, "r", None).unwrap();
            drop(j);
            assert!(load_journal(&path, &ids, pricing).is_some());
            assert!(load_journal(&path, &["a", "b"], cfg.pricing).is_none());
        }
        // ...and resuming against it rewrites a fresh campaign.
        let result = run_campaign_with(&["a", "b"], demo_body(), &cfg, Some(&path), true).unwrap();
        assert!(result.warnings.iter().any(|w| w.contains("starting fresh")));
        assert_eq!(result.outcomes.len(), 2);
        assert!(result.outcomes.iter().all(|o| !o.from_journal));
        assert_eq!(
            load_journal(&path, &["a", "b"], cfg.pricing)
                .unwrap()
                .records
                .len(),
            2
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn merged_json_is_valid_shape_and_marks_failures() {
        let ok = CampaignOutcome {
            id: "a".into(),
            ok: true,
            attempts: 1,
            from_journal: false,
            render: String::new(),
            json: Some(demo_table("a").to_json(&[])),
            elapsed: Duration::ZERO,
        };
        let bad = CampaignOutcome {
            id: "b".into(),
            ok: false,
            attempts: 2,
            from_journal: false,
            render: String::new(),
            json: None,
            elapsed: Duration::ZERO,
        };
        let m = merged_json(&[ok, bad]);
        assert!(m.contains("\"experiments\": 2"));
        assert!(m.contains("\"failed\": 1"));
        assert!(m.contains("\"failed\": true"));
        assert!(m.ends_with("]\n}\n"), "{m}");
    }

    #[test]
    fn full_campaign_matches_the_serial_run_in_paper_order_at_any_worker_count() {
        let serial: Vec<CampaignOutcome> = experiments::run_all()
            .into_iter()
            .map(|t| CampaignOutcome {
                id: t.id.clone(),
                ok: true,
                attempts: 1,
                from_journal: false,
                render: t.render(),
                json: Some(t.to_json(&[])),
                elapsed: Duration::ZERO,
            })
            .collect();
        let expected = merged_json(&serial);
        for workers in [1usize, 2, 100] {
            let cfg = CampaignConfig::new(workers, runner::DEFAULT_DEADLINE);
            let result = run_campaign(&cfg, None, false).unwrap();
            assert_eq!(result.end, CampaignEnd::Completed);
            let ids: Vec<&str> = result.outcomes.iter().map(|o| o.id.as_str()).collect();
            assert_eq!(
                ids,
                experiments::all_ids(),
                "{workers} workers: paper order"
            );
            for (o, s) in result.outcomes.iter().zip(&serial) {
                assert_eq!(o.render, s.render, "{workers} workers: {}", o.id);
            }
            assert_eq!(merged_json(&result.outcomes), expected, "{workers} workers");
        }
    }
}
