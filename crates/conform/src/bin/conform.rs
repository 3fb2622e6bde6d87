//! Conformance runner.
//!
//! ```text
//! conform                 run all ten suites, exit 1 on any failure
//! conform --bless         rewrite the golden snapshots and the byte ledger
//!                         from the current run
//! conform golden          run only the named suite(s): golden, differential,
//!                         parity, resilience, obs, des, ecm, attrib, campaign,
//!                         ledger
//! conform --report p.txt  also write the full report to a file (CI artifact)
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut bless = false;
    let mut report_path: Option<String> = None;
    let mut suites: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bless" => bless = true,
            "--report" => match args.next() {
                Some(p) => report_path = Some(p),
                None => {
                    eprintln!("--report needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "golden" | "differential" | "parity" | "resilience" | "obs" | "des" | "ecm"
            | "attrib" | "campaign" | "ledger" => suites.push(arg),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: conform [--bless] [--report <path>] [golden|differential|parity|resilience|obs|des|ecm|attrib|campaign|ledger]..."
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let run_all = suites.is_empty();
    let want = |name: &str| run_all || suites.iter().any(|s| s == name);

    let mut results = Vec::new();
    if want("golden") {
        results.push(conform::golden_suite(bless));
    }
    if want("differential") {
        results.push(conform::differential_suite());
    }
    if want("parity") {
        results.push(conform::parity_suite());
    }
    if want("resilience") {
        results.push(conform::resilience_suite());
    }
    if want("obs") {
        results.push(conform::obs_suite(bless));
    }
    if want("des") {
        results.push(conform::des_suite());
    }
    if want("ecm") {
        results.push(conform::ecm_suite());
    }
    if want("attrib") {
        results.push(conform::attrib_suite());
    }
    if want("campaign") {
        results.push(conform::campaign_suite());
    }
    if want("ledger") {
        results.push(conform::ledger_suite(bless));
    }

    let mut out = String::new();
    let mut failed = false;
    for r in &results {
        out.push_str(&format!("== suite: {} ==\n{}\n", r.name, r.report));
        if r.passed() {
            out.push_str("PASS\n\n");
        } else {
            failed = true;
            out.push_str(&format!("FAIL ({} problem(s)):\n", r.failures.len()));
            for f in &r.failures {
                out.push_str(&format!("  - {f}\n"));
            }
            out.push('\n');
        }
    }
    print!("{out}");
    if let Some(path) = report_path {
        if let Err(e) = std::fs::write(&path, &out) {
            eprintln!("could not write report to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("report written to {path}");
    }
    if failed {
        eprintln!("conformance FAILED — see diffs above");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
