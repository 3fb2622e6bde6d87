#![recursion_limit = "256"]
//! Integration tests for the crash-safe campaign layer: LRU
//! bit-transparency under property-based thrashing, torn-journal
//! recovery, and kill-and-resume byte-identity — the contracts
//! `repro --all --journal --resume` ships on.

use std::sync::Arc;
use std::time::Duration;

use a64fx_apps::nekbone::NekboneConfig;
use a64fx_core::campaign::{self, CampaignConfig, CampaignEnd, Journal, JournalRecord};
use a64fx_core::costmodel::{self, PricingBackend};
use a64fx_core::experiments;
use a64fx_core::report::Table;
use a64fx_core::tracecache;
use proptest::prelude::*;

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "a64fx-itest-campaign-{name}-{}",
        std::process::id()
    ))
}

fn demo_table(id: &str) -> Table {
    let mut t = Table::new(&id.to_ascii_uppercase(), "itest probe", &["k", "v"]);
    t.push_row(vec![id.to_string(), format!("v-{id}")]);
    t.note("integration probe with \"quotes\" and\nnewlines");
    t
}

fn demo_body() -> Arc<dyn Fn(&str) -> Table + Send + Sync> {
    Arc::new(|id: &str| demo_table(id))
}

const IDS: [&str; 5] = ["i1", "i2", "i3", "i4", "i5"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Any access sequence against a cache capped to ~1 trace must serve
    // traces bit-equal (fingerprint and payload) to direct builds, no
    // matter how it thrashes.
    #[test]
    fn lru_eviction_is_bit_transparent_under_any_access_pattern(
        accesses in proptest::collection::vec(0usize..4, 1..24),
    ) {
        let configs: Vec<NekboneConfig> = (0..4)
            .map(|i| NekboneConfig { elements_per_rank: 61 + 2 * i, poly: 5, iterations: 2 })
            .collect();
        let ranks = 3;
        let reference: Vec<_> = configs
            .iter()
            .map(|c| a64fx_apps::nekbone::trace(*c, ranks))
            .collect();
        let _g = tracecache::override_lock();
        tracecache::set_enabled(true);
        tracecache::set_capacity(Some(reference[0].approx_bytes() + 16));
        tracecache::clear();
        for &i in &accesses {
            let got = tracecache::nekbone(configs[i], ranks);
            prop_assert_eq!(&*got, &reference[i], "access to config {} served wrong bytes", i);
        }
        prop_assert!(
            tracecache::resident_bytes() <= reference[0].approx_bytes() + 16,
            "resident bytes exceed the cap"
        );
        tracecache::set_capacity(None);
        tracecache::clear_override();
        tracecache::clear();
    }

    // A journal truncated at ANY byte resumes to the same final output.
    #[test]
    fn journal_truncated_anywhere_resumes_byte_identical(cut_frac in 0.0f64..1.0) {
        let path = tmp(&format!("anycut-{}", (cut_frac * 1e6) as u64));
        let cfg = CampaignConfig::new(1, Duration::from_secs(30));
        let clean = campaign::run_campaign_with(&IDS, demo_body(), &cfg, Some(&path), false)
            .unwrap();
        let clean_merged = campaign::merged_json(&clean.outcomes);
        let bytes = std::fs::read(&path).unwrap();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let resumed = campaign::run_campaign_with(&IDS, demo_body(), &cfg, Some(&path), true)
            .unwrap();
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(resumed.end, CampaignEnd::Completed);
        prop_assert_eq!(
            campaign::merged_json(&resumed.outcomes),
            clean_merged,
            "cut at byte {} of {} broke resume identity",
            cut,
            bytes.len()
        );
    }
}

/// A sealed five-record journal (rendered tables and table JSON, so the
/// lines carry quotes and escaped newlines) and the records it holds.
fn sealed_journal() -> &'static (Vec<u8>, Vec<JournalRecord>) {
    static JOURNAL: std::sync::OnceLock<(Vec<u8>, Vec<JournalRecord>)> = std::sync::OnceLock::new();
    JOURNAL.get_or_init(|| {
        let path = tmp("sealed");
        let mut j = Journal::create(&path, &IDS, PricingBackend::Flat).unwrap();
        for (k, id) in IDS.iter().enumerate() {
            let t = demo_table(id);
            let json = (k % 2 == 0).then(|| t.to_json(&[]));
            j.append(id, 1, json.is_some(), &t.render(), json.as_deref())
                .unwrap();
        }
        drop(j);
        let bytes = std::fs::read(&path).unwrap();
        let records = campaign::load_journal(&path, &IDS, PricingBackend::Flat)
            .unwrap()
            .records;
        let _ = std::fs::remove_file(&path);
        assert_eq!(records.len(), IDS.len());
        (bytes, records)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    // Every line is sealed with an FNV-1a digest, and a one-byte change
    // always changes FNV-1a, so any single-byte mutation is caught exactly:
    // in the header the whole journal is refused, in record line `i` the
    // journal ends just before record `i`. A changed record never loads.
    #[test]
    fn single_byte_mutations_never_load_a_changed_record(
        at in 0usize..1_000_000,
        mask in 1u8..=255,
    ) {
        let (bytes, records) = sealed_journal();
        let at = at % bytes.len();
        let mut bad = bytes.clone();
        bad[at] ^= mask;
        let path = tmp("mutated");
        std::fs::write(&path, &bad).unwrap();
        let loaded = campaign::load_journal(&path, &IDS, PricingBackend::Flat);
        let _ = std::fs::remove_file(&path);
        let line = bytes[..at].iter().filter(|&&b| b == b'\n').count();
        if line == 0 {
            prop_assert!(loaded.is_none(), "header mutation at byte {} loaded", at);
        } else {
            let loaded = loaded.expect("the header is intact");
            prop_assert_eq!(&loaded.records[..], &records[..line - 1], "mutation at byte {}", at);
            let line_start = bytes[..at].iter().rposition(|&b| b == b'\n').unwrap() + 1;
            prop_assert_eq!(loaded.valid_bytes, line_start as u64);
        }
    }
}

/// Truncating inside the penultimate record drops exactly the torn
/// records and resume re-runs only those.
#[test]
fn truncated_mid_record_resumes_from_last_complete_record() {
    let path = tmp("midrecord");
    let cfg = CampaignConfig::new(1, Duration::from_secs(30));
    campaign::run_campaign_with(&IDS, demo_body(), &cfg, Some(&path), false).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    // Cut 10 bytes into the 4th record: records 0..3 survive.
    let newlines: Vec<usize> = bytes
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .map(|(i, _)| i)
        .collect();
    let cut = newlines[3] + 10; // header + 3 records end at newlines[3]
    std::fs::write(&path, &bytes[..cut]).unwrap();
    let loaded = campaign::load_journal(&path, &IDS, cfg.pricing).expect("header intact");
    assert_eq!(loaded.records.len(), 3);
    let resumed = campaign::run_campaign_with(&IDS, demo_body(), &cfg, Some(&path), true).unwrap();
    assert_eq!(
        resumed.outcomes.iter().filter(|o| o.from_journal).count(),
        3,
        "exactly the three durable records replay"
    );
    assert_eq!(
        resumed.outcomes.iter().filter(|o| !o.from_journal).count(),
        2,
        "exactly the torn and never-run experiments re-run"
    );
    // The journal is whole again after the resumed campaign.
    assert_eq!(
        campaign::load_journal(&path, &IDS, cfg.pricing)
            .unwrap()
            .records
            .len(),
        IDS.len()
    );
    let _ = std::fs::remove_file(&path);
}

/// The flagship contract: kill after every possible record count, resume,
/// and demand byte-identical merged output and renders.
#[test]
fn kill_after_each_record_count_resumes_byte_identical() {
    let cfg = CampaignConfig::new(1, Duration::from_secs(30));
    let clean_path = tmp("kill-clean");
    let clean =
        campaign::run_campaign_with(&IDS, demo_body(), &cfg, Some(&clean_path), false).unwrap();
    let _ = std::fs::remove_file(&clean_path);
    let clean_merged = campaign::merged_json(&clean.outcomes);
    let clean_renders: Vec<&String> = clean.outcomes.iter().map(|o| &o.render).collect();
    for stop_after in 1..IDS.len() as u64 {
        let path = tmp(&format!("kill-{stop_after}"));
        let kill_cfg = CampaignConfig {
            stop_after_records: Some(stop_after),
            ..cfg
        };
        let killed =
            campaign::run_campaign_with(&IDS, demo_body(), &kill_cfg, Some(&path), false).unwrap();
        assert_eq!(killed.end, CampaignEnd::Killed, "stop_after {stop_after}");
        let resumed =
            campaign::run_campaign_with(&IDS, demo_body(), &cfg, Some(&path), true).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(resumed.end, CampaignEnd::Completed);
        assert_eq!(
            resumed.outcomes.iter().filter(|o| o.from_journal).count(),
            stop_after as usize
        );
        assert_eq!(
            campaign::merged_json(&resumed.outcomes),
            clean_merged,
            "merged JSON drifted after kill at {stop_after}"
        );
        let renders: Vec<&String> = resumed.outcomes.iter().map(|o| &o.render).collect();
        assert_eq!(
            renders, clean_renders,
            "renders drifted after kill at {stop_after}"
        );
    }
}

/// Campaign workers share one journal safely: a multi-worker campaign
/// journals every outcome and resumes cleanly.
#[test]
fn multi_worker_campaign_journals_every_outcome() {
    let path = tmp("workers");
    let cfg = CampaignConfig::new(4, Duration::from_secs(30));
    let result = campaign::run_campaign_with(&IDS, demo_body(), &cfg, Some(&path), false).unwrap();
    assert_eq!(result.outcomes.len(), IDS.len());
    assert_eq!(result.failed(), 0);
    let loaded = campaign::load_journal(&path, &IDS, cfg.pricing).unwrap();
    assert_eq!(loaded.records.len(), IDS.len());
    // Resume with nothing left to do replays everything.
    let resumed = campaign::run_campaign_with(&IDS, demo_body(), &cfg, Some(&path), true).unwrap();
    assert!(resumed.outcomes.iter().all(|o| o.from_journal));
    assert_eq!(
        campaign::merged_json(&resumed.outcomes),
        campaign::merged_json(&result.outcomes)
    );
    let _ = std::fs::remove_file(&path);
}

/// Config-skew resume: a journal killed under ECM pricing and resumed
/// under flat pricing must not mix the two. The resume starts a fresh
/// journal, so the merged document is exactly a clean flat run's.
#[test]
fn resume_under_other_pricing_starts_fresh() {
    // Both tables price differently under flat and ECM.
    let ids = ["t3", "t5"];
    let body: Arc<dyn Fn(&str) -> Table + Send + Sync> =
        Arc::new(|id: &str| experiments::run_one(id).expect("registry id"));
    let prev = costmodel::default_pricing();
    let path = tmp("pricing-skew");
    let clean_path = tmp("pricing-skew-clean");

    costmodel::set_default_pricing(PricingBackend::Ecm);
    let ecm_cfg = CampaignConfig {
        stop_after_records: Some(1),
        ..CampaignConfig::new(1, Duration::from_secs(60))
    };
    let killed =
        campaign::run_campaign_with(&ids, Arc::clone(&body), &ecm_cfg, Some(&path), false).unwrap();

    costmodel::set_default_pricing(PricingBackend::Flat);
    let flat_cfg = CampaignConfig::new(1, Duration::from_secs(60));
    let resumed =
        campaign::run_campaign_with(&ids, Arc::clone(&body), &flat_cfg, Some(&path), true).unwrap();
    let clean =
        campaign::run_campaign_with(&ids, body, &flat_cfg, Some(&clean_path), false).unwrap();
    costmodel::set_default_pricing(prev);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&clean_path);

    assert_eq!(killed.end, CampaignEnd::Killed);
    assert_eq!(resumed.end, CampaignEnd::Completed);
    assert_ne!(
        campaign::merged_json(&killed.outcomes),
        campaign::merged_json(&clean.outcomes[..killed.outcomes.len()]),
        "the probe tables must depend on pricing"
    );
    assert!(resumed.outcomes.iter().all(|o| !o.from_journal));
    assert_eq!(
        campaign::merged_json(&resumed.outcomes),
        campaign::merged_json(&clean.outcomes),
        "a resume under other pricing must equal a clean run under it"
    );
}
