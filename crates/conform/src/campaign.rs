//! Campaign robustness conformance: crash-safety as a pinned contract.
//!
//! PR 8's supervision layer makes three promises the rest of the harness
//! now leans on, and this suite holds each one:
//!
//! 1. **Durable journal, valid prefix.** Every appended record survives
//!    round-trip exactly; a journal torn at an arbitrary byte or with a
//!    flipped bit loads as the longest valid prefix — never a misread
//!    record.
//! 2. **Resume is invisible.** A campaign killed after any number of
//!    durable records and then resumed produces output byte-identical
//!    to an uninterrupted run — both the rendered blocks and the merged
//!    experiment JSON. Retried-then-successful experiments render
//!    byte-identically to first-try successes.
//! 3. **The bounded trace cache is bit-transparent.** The in-memory trace
//!    cache capped down to thrash (LRU eviction on every fetch) serves
//!    traces equal to the uncapped build, and the chaos self-test — which
//!    additionally injects panics, hangs, torn and rotted journals and
//!    kills — passes with byte-identical output across double runs at a
//!    fixed seed.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use a64fx_apps::nekbone::NekboneConfig;
use a64fx_core::campaign::{self, CampaignConfig, CampaignEnd, Journal, RetryPolicy};
use a64fx_core::report::Table;
use a64fx_core::{chaos, tracecache};

/// Fixed chaos seed pinned by this suite (and re-used by CI's double-run
/// diff).
pub const CHAOS_SEED: u64 = 42;

struct Checker {
    table: Table,
    failures: Vec<String>,
}

impl Checker {
    fn record(&mut self, check: &str, subject: &str, result: Result<String, String>) {
        let (cell, failed) = match &result {
            Ok(ok) => (format!("pass ({ok})"), false),
            Err(e) => (format!("FAIL: {e}"), true),
        };
        self.table
            .push_row(vec![check.to_string(), subject.to_string(), cell]);
        if failed {
            self.failures
                .push(format!("{check} [{subject}]: {}", result.unwrap_err()));
        }
    }
}

fn scratch(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "a64fx-conform-campaign-{name}-{}",
        std::process::id()
    ))
}

fn demo_table(id: &str) -> Table {
    let mut t = Table::new(&id.to_ascii_uppercase(), "campaign probe", &["k", "v"]);
    t.push_row(vec![id.to_string(), format!("{id}-value")]);
    t.note("synthetic campaign experiment");
    t
}

fn demo_body() -> Arc<dyn Fn(&str) -> Table + Send + Sync> {
    Arc::new(|id: &str| demo_table(id))
}

const IDS: [&str; 4] = ["p1", "p2", "p3", "p4"];

/// Run the campaign robustness suite; returns the report table and
/// failure lines.
pub fn run() -> (Table, Vec<String>) {
    let mut chk = Checker {
        table: Table::new(
            "CAMPAIGN",
            "Crash-safe campaigns: durable journal prefix, byte-identical resume, bit-transparent bounded caches",
            &["Check", "Subject", "Result"],
        ),
        failures: Vec::new(),
    };
    let cfg = CampaignConfig::new(1, Duration::from_secs(60));

    // 1. Journal records survive round-trip exactly.
    {
        let path = scratch("roundtrip");
        let write = || -> Result<String, String> {
            let mut j = Journal::create(&path, &IDS, cfg.pricing).map_err(|e| e.to_string())?;
            for id in IDS {
                let t = demo_table(id);
                j.append(id, 1, true, &t.render(), Some(&t.to_json(&[])))
                    .map_err(|e| e.to_string())?;
            }
            let loaded = campaign::load_journal(&path, &IDS, cfg.pricing)
                .ok_or("written journal failed to load")?;
            if loaded.records.len() != IDS.len() {
                return Err(format!(
                    "loaded {} of {} records",
                    loaded.records.len(),
                    IDS.len()
                ));
            }
            for (i, r) in loaded.records.iter().enumerate() {
                let t = demo_table(IDS[i]);
                if r.render != t.render() || r.json.as_deref() != Some(t.to_json(&[]).as_str()) {
                    return Err(format!("record {i} did not round-trip byte-exactly"));
                }
            }
            Ok(format!("{} records byte-exact", IDS.len()))
        };
        chk.record(
            "journal round-trips byte-exactly",
            "synthetic 4-exp campaign",
            write(),
        );
        let _ = std::fs::remove_file(&path);
    }

    // 2. Torn and bit-flipped journals load as the longest valid prefix.
    {
        let path = scratch("damage");
        let damage = |mutate: &dyn Fn(&mut Vec<u8>), expect_max: usize| -> Result<String, String> {
            let mut j = Journal::create(&path, &IDS, cfg.pricing).map_err(|e| e.to_string())?;
            for id in IDS {
                let t = demo_table(id);
                j.append(id, 1, true, &t.render(), Some(&t.to_json(&[])))
                    .map_err(|e| e.to_string())?;
            }
            drop(j);
            let mut bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
            mutate(&mut bytes);
            std::fs::write(&path, &bytes).map_err(|e| e.to_string())?;
            let loaded = campaign::load_journal(&path, &IDS, cfg.pricing)
                .ok_or("damaged journal lost its header")?;
            if loaded.records.len() > expect_max {
                return Err(format!(
                    "kept {} records, damage allowed at most {expect_max}",
                    loaded.records.len()
                ));
            }
            for (i, r) in loaded.records.iter().enumerate() {
                if r.render != demo_table(IDS[i]).render() {
                    return Err(format!("record {i} replayed damaged bytes"));
                }
            }
            Ok(format!(
                "prefix of {} clean record(s)",
                loaded.records.len()
            ))
        };
        chk.record(
            "torn tail drops only incomplete records",
            "truncate mid-record",
            damage(&|b: &mut Vec<u8>| b.truncate(b.len() - 20), IDS.len() - 1),
        );
        chk.record(
            "flipped bit voids its record and the tail",
            "xor one byte in record 2",
            damage(
                &|b: &mut Vec<u8>| {
                    // Find the start of the third record line (header + 2
                    // records precede it) and flip a byte inside it.
                    let pos = b
                        .iter()
                        .enumerate()
                        .filter(|(_, &c)| c == b'\n')
                        .map(|(i, _)| i)
                        .nth(2)
                        .unwrap()
                        + 10;
                    b[pos] ^= 0x04;
                },
                2,
            ),
        );
        let _ = std::fs::remove_file(&path);
    }

    // 3. Kill-and-resume is byte-identical to an uninterrupted campaign.
    {
        let clean_path = scratch("clean");
        let killed_path = scratch("killed");
        let check = || -> Result<String, String> {
            let clean =
                campaign::run_campaign_with(&IDS, demo_body(), &cfg, Some(&clean_path), false)
                    .map_err(|e| e.to_string())?;
            let clean_merged = campaign::merged_json(&clean.outcomes);
            let kill_cfg = CampaignConfig {
                stop_after_records: Some(2),
                ..cfg
            };
            let killed = campaign::run_campaign_with(
                &IDS,
                demo_body(),
                &kill_cfg,
                Some(&killed_path),
                false,
            )
            .map_err(|e| e.to_string())?;
            if killed.end != CampaignEnd::Killed {
                return Err("kill hook did not fire".into());
            }
            let resumed =
                campaign::run_campaign_with(&IDS, demo_body(), &cfg, Some(&killed_path), true)
                    .map_err(|e| e.to_string())?;
            let replayed = resumed.outcomes.iter().filter(|o| o.from_journal).count();
            if replayed != 2 {
                return Err(format!("expected 2 replayed outcomes, got {replayed}"));
            }
            if campaign::merged_json(&resumed.outcomes) != clean_merged {
                return Err("merged JSON differs between clean and resumed runs".into());
            }
            let renders_match = clean
                .outcomes
                .iter()
                .zip(&resumed.outcomes)
                .all(|(a, b)| a.render == b.render);
            if !renders_match {
                return Err("rendered blocks differ between clean and resumed runs".into());
            }
            Ok("killed at 2/4, resume byte-identical".into())
        };
        chk.record(
            "kill-and-resume byte-identical",
            "synthetic 4-exp campaign",
            check(),
        );
        let _ = std::fs::remove_file(&clean_path);
        let _ = std::fs::remove_file(&killed_path);
    }

    // 4. Retried-then-successful output is byte-identical to first-try.
    {
        let check = || -> Result<String, String> {
            let calls = Arc::new(AtomicU32::new(0));
            let c = Arc::clone(&calls);
            let flaky: Arc<dyn Fn(&str) -> Table + Send + Sync> = Arc::new(move |id: &str| {
                if id == "p2" && c.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("conform: injected transient failure");
                }
                demo_table(id)
            });
            let retry_cfg = CampaignConfig {
                retry: RetryPolicy::with_retries(1, Duration::ZERO),
                ..cfg
            };
            let flaky_run = campaign::run_campaign_with(&IDS, flaky, &retry_cfg, None, false)
                .map_err(|e| e.to_string())?;
            let clean_run = campaign::run_campaign_with(&IDS, demo_body(), &cfg, None, false)
                .map_err(|e| e.to_string())?;
            if flaky_run.failed() != 0 {
                return Err("retry did not absorb the injected failure".into());
            }
            let p2 = flaky_run.outcomes.iter().find(|o| o.id == "p2").unwrap();
            if p2.attempts != 2 {
                return Err(format!("expected 2 attempts, got {}", p2.attempts));
            }
            for (a, b) in flaky_run.outcomes.iter().zip(&clean_run.outcomes) {
                if a.render != b.render || a.json != b.json {
                    return Err(format!("outcome {} differs after retry", a.id));
                }
            }
            Ok("1 panic absorbed; output byte-identical".into())
        };
        chk.record(
            "retry leaves no mark on output",
            "injected panic on p2",
            check(),
        );
    }

    // 5. A thrashing LRU trace cache is bit-transparent.
    {
        let check = || -> Result<String, String> {
            let _g = tracecache::override_lock();
            tracecache::set_enabled(true);
            let configs: Vec<NekboneConfig> = (0..4)
                .map(|i| NekboneConfig {
                    elements_per_rank: 53 + 2 * i,
                    poly: 5,
                    iterations: 2,
                })
                .collect();
            let ranks = 3;
            // Uncapped references, built directly (no cache involved).
            let reference: Vec<_> = configs
                .iter()
                .map(|c| a64fx_apps::nekbone::trace(*c, ranks))
                .collect();
            // Cap to roughly one trace: every fetch cycle evicts.
            let one = reference[0].approx_bytes() + 16;
            tracecache::set_capacity(Some(one));
            tracecache::clear();
            let before = tracecache::stats();
            let mut mismatches = 0;
            for round in 0..3 {
                for (i, c) in configs.iter().enumerate() {
                    let got = tracecache::nekbone(*c, ranks);
                    if *got != reference[i] {
                        mismatches += 1;
                    }
                    let _ = round;
                }
            }
            let after = tracecache::stats();
            tracecache::set_capacity(None);
            tracecache::clear_override();
            if mismatches > 0 {
                return Err(format!("{mismatches} evicted fetch(es) served wrong bytes"));
            }
            if after.evictions <= before.evictions {
                return Err("capacity bound never evicted — check not exercised".into());
            }
            Ok(format!(
                "{} evictions, all fetches bit-equal to direct builds",
                after.evictions - before.evictions
            ))
        };
        chk.record(
            "LRU eviction is bit-transparent",
            "nekbone x4 under 1-trace cap",
            check(),
        );
    }

    // 6. The chaos self-test passes and double runs are byte-identical.
    {
        let check = || -> Result<String, String> {
            let (t1, f1) = chaos::run_chaos(CHAOS_SEED);
            if !f1.is_empty() {
                return Err(format!("chaos scenarios failed: {}", f1.join("; ")));
            }
            let (t2, f2) = chaos::run_chaos(CHAOS_SEED);
            if !f2.is_empty() {
                return Err(format!("chaos re-run failed: {}", f2.join("; ")));
            }
            if t1.render() != t2.render() {
                return Err("chaos output drifted between same-seed runs".into());
            }
            Ok(format!(
                "{} scenarios, double run byte-identical",
                t1.rows.len()
            ))
        };
        chk.record(
            "chaos self-test passes deterministically",
            &format!("seed {CHAOS_SEED}"),
            check(),
        );
    }

    (chk.table, chk.failures)
}
