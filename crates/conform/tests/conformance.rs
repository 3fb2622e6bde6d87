//! The conformance suites as ordinary integration tests, so
//! `cargo test -p conform` (and tier-1 `cargo test`) holds the simulation
//! to its goldens, its DES, its kernel-parity promises, the fault layer's
//! strict-additivity contract, and the tracing/metrics layer's
//! determinism and purity contracts on every run.

#[test]
fn golden_tables_conform() {
    let r = conform::golden_suite(false);
    assert!(r.passed(), "golden drift:\n{}", r.failures.join("\n"));
}

#[test]
fn des_vs_analytic_within_bound() {
    let r = conform::differential_suite();
    assert!(
        r.passed(),
        "differential sweep out of bound:\n{}\n\n{}",
        r.failures.join("\n"),
        r.report
    );
}

#[test]
fn kernel_parity_holds_at_scale() {
    let r = conform::parity_suite();
    assert!(
        r.passed(),
        "parity violations:\n{}\n\n{}",
        r.failures.join("\n"),
        r.report
    );
}

#[test]
fn fault_layer_is_strictly_additive() {
    let r = conform::resilience_suite();
    assert!(
        r.passed(),
        "resilience parity violations:\n{}\n\n{}",
        r.failures.join("\n"),
        r.report
    );
}

#[test]
fn observability_is_deterministic_and_pure() {
    let r = conform::obs_suite(false);
    assert!(
        r.passed(),
        "observability violations:\n{}\n\n{}",
        r.failures.join("\n"),
        r.report
    );
}

#[test]
fn campaigns_are_crash_safe() {
    let r = conform::campaign_suite();
    assert!(
        r.passed(),
        "campaign robustness violations:\n{}\n\n{}",
        r.failures.join("\n"),
        r.report
    );
}

#[test]
fn flat_outputs_match_the_byte_ledger() {
    // The ECM half flips the process-wide pricing default, which would
    // race the other suites in this test binary; `conform ledger` checks
    // it in a process of its own.
    let flat: Vec<_> = conform::ledger::entries()
        .into_iter()
        .filter(|e| e.pricing == a64fx_core::costmodel::PricingBackend::Flat)
        .collect();
    let failures = conform::ledger::check(&flat, &conform::ledger::ledger_dir());
    assert!(
        failures.is_empty(),
        "ledger drift:\n{}",
        failures.join("\n")
    );
}
