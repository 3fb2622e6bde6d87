//! Seeded chaos self-test: `repro --chaos <seed>`.
//!
//! The campaign layer's whole job is surviving ugly failures — panics
//! mid-experiment, hangs past the deadline, a journal torn at an
//! arbitrary byte, bit rot in a journal record, a `SIGKILL` between
//! records. None of those occur in a healthy CI run, so without forcing
//! them the recovery paths would be the least-tested code in the tree
//! precisely because they matter most.
//!
//! [`run_chaos`] injects each failure deterministically from a
//! `faultsim::SplitMix64` stream per scenario: where the journal is
//! torn, which byte rots, after how many records the kill lands — all
//! pure functions of the seed. The output table contains no wall times,
//! paths, or PIDs, so **two runs with the same seed are byte-identical**
//! — CI runs `repro --chaos 42` twice and diffs. The conform `campaign`
//! suite pins a fixed-seed run so recovery behaviour cannot drift
//! silently.
//!
//! Scenarios:
//!
//! | scenario         | injected fault                         | must hold |
//! |------------------|----------------------------------------|-----------|
//! | `retry-panic`    | body panics on early attempts          | retry recovers; attempts counted; render unmarked |
//! | `retry-hang`     | body sleeps past the deadline once     | deadline fires; retry recovers |
//! | `journal-tear`   | journal truncated at a seeded byte     | valid prefix kept; resume completes; bytes match clean |
//! | `journal-rot`    | one seeded byte flipped in a record    | checksum voids that record and the tail |
//! | `kill-resume`    | campaign stopped after a seeded number of durable records | resume output byte-identical to uninterrupted |

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use faultsim::rng::SplitMix64;

use crate::campaign::{self, CampaignConfig, CampaignEnd, RetryPolicy};
use crate::report::Table;

/// Scenario-stream labels (stable: renumbering would change every seed's
/// behaviour and invalidate pinned goldens). Label 5 belonged to a
/// retired scenario and stays unused.
const S_RETRY_PANIC: u64 = 1;
const S_RETRY_HANG: u64 = 2;
const S_JOURNAL_TEAR: u64 = 3;
const S_JOURNAL_ROT: u64 = 4;
const S_KILL_RESUME: u64 = 6;

/// Synthetic experiment ids used by the chaos campaigns.
const IDS: [&str; 5] = ["c1", "c2", "c3", "c4", "c5"];

fn demo_table(id: &str) -> Table {
    let mut t = Table::new(
        &id.to_ascii_uppercase(),
        "chaos probe",
        &["metric", "value"],
    );
    t.push_row(vec!["id".into(), id.to_string()]);
    t.push_row(vec!["payload".into(), format!("{}-payload", id)]);
    t.note("synthetic chaos experiment");
    t
}

fn demo_body() -> Arc<dyn Fn(&str) -> Table + Send + Sync> {
    Arc::new(|id: &str| demo_table(id))
}

fn scratch(seed: u64, name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("a64fx-chaos-{name}-{seed}-{}", std::process::id()))
}

/// One scenario's verdict: pass/fail plus a deterministic detail string.
struct Verdict {
    scenario: &'static str,
    detail: String,
    failure: Option<String>,
}

fn pass(scenario: &'static str, detail: impl Into<String>) -> Verdict {
    Verdict {
        scenario,
        detail: detail.into(),
        failure: None,
    }
}

fn fail(scenario: &'static str, why: impl Into<String>) -> Verdict {
    let why = why.into();
    Verdict {
        scenario,
        detail: why.clone(),
        failure: Some(why),
    }
}

/// Panic on the first `k` attempts, succeed after — retry must absorb it.
fn retry_panic(seed: u64) -> Verdict {
    let mut rng = SplitMix64::stream(seed, S_RETRY_PANIC);
    let panics = 1 + rng.below(2) as u32; // 1 or 2 early panics
    let calls = Arc::new(AtomicU32::new(0));
    let c = Arc::clone(&calls);
    let body: Arc<dyn Fn(&str) -> Table + Send + Sync> = Arc::new(move |id: &str| {
        if id == "c2" && c.fetch_add(1, Ordering::SeqCst) < panics {
            panic!("chaos: injected panic");
        }
        demo_table(id)
    });
    let cfg = CampaignConfig {
        retry: RetryPolicy::with_retries(panics, Duration::ZERO),
        ..CampaignConfig::new(1, Duration::from_secs(60))
    };
    let result = match campaign::run_campaign_with(&IDS, body, &cfg, None, false) {
        Ok(r) => r,
        Err(e) => return fail("retry-panic", format!("campaign io error: {e}")),
    };
    let c2 = result.outcomes.iter().find(|o| o.id == "c2").unwrap();
    if !c2.ok {
        return fail("retry-panic", format!("{panics} panics exhausted retry"));
    }
    if c2.attempts != panics + 1 {
        return fail(
            "retry-panic",
            format!("attempts {} != {}", c2.attempts, panics + 1),
        );
    }
    if c2.render != demo_table("c2").render() {
        return fail("retry-panic", "retried render differs from clean render");
    }
    pass(
        "retry-panic",
        format!(
            "{panics} injected panic(s) absorbed in {} attempts",
            c2.attempts
        ),
    )
}

/// Hang past the deadline once — the deadline must fire and retry recover.
fn retry_hang(seed: u64) -> Verdict {
    let mut rng = SplitMix64::stream(seed, S_RETRY_HANG);
    // Deterministic choice of which id hangs (the sleep itself is real
    // time, but nothing timing-dependent reaches the output).
    let victim = IDS[rng.below(IDS.len())];
    let calls = Arc::new(AtomicU32::new(0));
    let c = Arc::clone(&calls);
    let victim_owned = victim.to_string();
    let body: Arc<dyn Fn(&str) -> Table + Send + Sync> = Arc::new(move |id: &str| {
        if id == victim_owned && c.fetch_add(1, Ordering::SeqCst) == 0 {
            // Far past the 100ms deadline; the runner abandons the thread.
            std::thread::sleep(Duration::from_secs(30));
        }
        demo_table(id)
    });
    let cfg = CampaignConfig {
        retry: RetryPolicy::with_retries(1, Duration::ZERO),
        ..CampaignConfig::new(1, Duration::from_millis(100))
    };
    let result = match campaign::run_campaign_with(&IDS, body, &cfg, None, false) {
        Ok(r) => r,
        Err(e) => return fail("retry-hang", format!("campaign io error: {e}")),
    };
    let v = result.outcomes.iter().find(|o| o.id == victim).unwrap();
    if !v.ok || v.attempts != 2 {
        return fail(
            "retry-hang",
            format!("hung experiment: ok={} attempts={}", v.ok, v.attempts),
        );
    }
    pass(
        "retry-hang",
        "injected hang hit the deadline; retry recovered",
    )
}

/// Tear the journal at a seeded byte inside its tail, then resume.
fn journal_tear(seed: u64) -> Verdict {
    let mut rng = SplitMix64::stream(seed, S_JOURNAL_TEAR);
    let path = scratch(seed, "tear");
    let cfg = CampaignConfig::new(1, Duration::from_secs(60));
    let clean = match campaign::run_campaign_with(&IDS, demo_body(), &cfg, Some(&path), false) {
        Ok(r) => r,
        Err(e) => return fail("journal-tear", format!("campaign io error: {e}")),
    };
    let clean_merged = campaign::merged_json(&clean.outcomes);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) => return fail("journal-tear", format!("read journal: {e}")),
    };
    // Tear somewhere in the back half (always inside the record region).
    let cut = bytes.len() / 2 + rng.below(bytes.len() - bytes.len() / 2 - 1);
    if std::fs::write(&path, &bytes[..cut]).is_err() {
        return fail("journal-tear", "rewrite torn journal failed");
    }
    let loaded = match campaign::load_journal(&path, &IDS, cfg.pricing) {
        Some(l) => l,
        None => return fail("journal-tear", "torn journal lost its header"),
    };
    let kept = loaded.records.len();
    if kept >= IDS.len() {
        return fail("journal-tear", "tear dropped no records");
    }
    let resumed = match campaign::run_campaign_with(&IDS, demo_body(), &cfg, Some(&path), true) {
        Ok(r) => r,
        Err(e) => return fail("journal-tear", format!("resume io error: {e}")),
    };
    let _ = std::fs::remove_file(&path);
    if campaign::merged_json(&resumed.outcomes) != clean_merged {
        return fail("journal-tear", "resumed output differs from clean run");
    }
    let replayed = resumed.outcomes.iter().filter(|o| o.from_journal).count();
    if replayed != kept {
        return fail(
            "journal-tear",
            format!("replayed {replayed} but journal kept {kept}"),
        );
    }
    pass(
        "journal-tear",
        format!(
            "tear kept {kept}/{} records; resume byte-identical",
            IDS.len()
        ),
    )
}

/// Flip one seeded byte inside a journal record — the checksum must void
/// that record and everything after it, never misread it.
fn journal_rot(seed: u64) -> Verdict {
    let mut rng = SplitMix64::stream(seed, S_JOURNAL_ROT);
    let path = scratch(seed, "rot");
    let cfg = CampaignConfig::new(1, Duration::from_secs(60));
    if let Err(e) = campaign::run_campaign_with(&IDS, demo_body(), &cfg, Some(&path), false) {
        return fail("journal-rot", format!("campaign io error: {e}"));
    }
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) => return fail("journal-rot", format!("read journal: {e}")),
    };
    let header_len = bytes.iter().position(|&b| b == b'\n').unwrap_or(0) + 1;
    // Rot a byte strictly inside the record region, never on a newline
    // (line structure intact, content silently wrong — the nasty case).
    let mut pos;
    loop {
        pos = header_len + rng.below(bytes.len() - header_len);
        if bytes[pos] != b'\n' {
            break;
        }
    }
    let mut rotted = bytes.clone();
    rotted[pos] ^= 0x01;
    if std::fs::write(&path, &rotted).is_err() {
        return fail("journal-rot", "rewrite rotted journal failed");
    }
    let loaded = match campaign::load_journal(&path, &IDS, cfg.pricing) {
        Some(l) => l,
        None => return fail("journal-rot", "rot reached the header unexpectedly"),
    };
    let _ = std::fs::remove_file(&path);
    // Count complete records before the rotted byte.
    let intact = bytes[header_len..pos]
        .iter()
        .filter(|&&b| b == b'\n')
        .count();
    if loaded.records.len() != intact {
        return fail(
            "journal-rot",
            format!(
                "kept {} records, expected the {intact} before the rotted byte",
                loaded.records.len()
            ),
        );
    }
    for (i, r) in loaded.records.iter().enumerate() {
        if r.render != demo_table(IDS[i]).render() {
            return fail(
                "journal-rot",
                format!("record {i} replayed corrupted bytes"),
            );
        }
    }
    pass(
        "journal-rot",
        format!("flipped bit voided the tail; {intact} intact record(s) kept"),
    )
}

/// Kill the campaign after a seeded number of durable records, resume,
/// and byte-compare against an uninterrupted run.
fn kill_resume(seed: u64) -> Verdict {
    let mut rng = SplitMix64::stream(seed, S_KILL_RESUME);
    let cfg = CampaignConfig::new(1, Duration::from_secs(60));
    let clean_path = scratch(seed, "kill-clean");
    let clean = match campaign::run_campaign_with(&IDS, demo_body(), &cfg, Some(&clean_path), false)
    {
        Ok(r) => r,
        Err(e) => return fail("kill-resume", format!("campaign io error: {e}")),
    };
    let _ = std::fs::remove_file(&clean_path);
    let clean_merged = campaign::merged_json(&clean.outcomes);
    let stop_after = 1 + rng.below(IDS.len() - 1) as u64;
    let path = scratch(seed, "kill");
    let kill_cfg = CampaignConfig {
        stop_after_records: Some(stop_after),
        ..cfg
    };
    let killed = match campaign::run_campaign_with(&IDS, demo_body(), &kill_cfg, Some(&path), false)
    {
        Ok(r) => r,
        Err(e) => return fail("kill-resume", format!("killed run io error: {e}")),
    };
    if killed.end != CampaignEnd::Killed {
        let _ = std::fs::remove_file(&path);
        return fail("kill-resume", "kill hook did not fire");
    }
    let resumed = match campaign::run_campaign_with(&IDS, demo_body(), &cfg, Some(&path), true) {
        Ok(r) => r,
        Err(e) => return fail("kill-resume", format!("resume io error: {e}")),
    };
    let _ = std::fs::remove_file(&path);
    let replayed = resumed.outcomes.iter().filter(|o| o.from_journal).count();
    if replayed != stop_after as usize {
        return fail(
            "kill-resume",
            format!("replayed {replayed}, expected {stop_after}"),
        );
    }
    if campaign::merged_json(&resumed.outcomes) != clean_merged {
        return fail("kill-resume", "resumed output differs from clean run");
    }
    pass(
        "kill-resume",
        format!("killed after {stop_after} record(s); resume byte-identical"),
    )
}

/// Run every chaos scenario under `seed`. Returns the verdict table and
/// the list of failures (empty = all recovery paths held). Output is a
/// pure function of the seed: no wall times, paths, or PIDs appear.
pub fn run_chaos(seed: u64) -> (Table, Vec<String>) {
    let verdicts = [
        retry_panic(seed),
        retry_hang(seed),
        journal_tear(seed),
        journal_rot(seed),
        kill_resume(seed),
    ];
    let mut t = Table::new(
        "CHAOS",
        &format!("campaign chaos self-test (seed {seed})"),
        &["scenario", "verdict", "detail"],
    );
    let mut failures = Vec::new();
    for v in verdicts {
        t.push_row(vec![
            v.scenario.to_string(),
            if v.failure.is_none() { "ok" } else { "FAIL" }.to_string(),
            v.detail.clone(),
        ]);
        if let Some(why) = v.failure {
            failures.push(format!("{}: {why}", v.scenario));
        }
    }
    t.note(format!(
        "{} scenario(s), {} failure(s); deterministic for seed {seed}",
        t.rows.len(),
        failures.len()
    ));
    (t, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_passes_and_is_deterministic() {
        let (t1, f1) = run_chaos(42);
        assert!(f1.is_empty(), "chaos failures: {f1:?}");
        let (t2, f2) = run_chaos(42);
        assert!(f2.is_empty(), "second-run failures: {f2:?}");
        assert_eq!(
            t1.render(),
            t2.render(),
            "same seed must produce byte-identical output"
        );
    }

    #[test]
    fn different_seeds_still_pass() {
        for seed in [1u64, 7] {
            let (_, failures) = run_chaos(seed);
            assert!(failures.is_empty(), "seed {seed}: {failures:?}");
        }
    }
}
