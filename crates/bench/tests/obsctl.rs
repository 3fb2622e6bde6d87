//! End-to-end tests of the `obsctl` binary: the perf gate's exit-code
//! contract (including the injected-regression self-test CI relies on),
//! and the offline attrib/prom views against in-process ground truth.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::Arc;

fn obsctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_obsctl"))
        .args(args)
        .output()
        .expect("obsctl must spawn")
}

/// Write `content` to a unique temp file and return its path.
fn temp(name: &str, content: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("obsctl_test_{}_{name}", std::process::id()));
    std::fs::write(&path, content).expect("temp write");
    path
}

fn baseline_doc(wall_s: f64, speedup: f64, threads: u64) -> String {
    format!(
        r#"{{
  "config": {{"git_sha": "baseline00", "des_backend": "serial", "pricing": "flat", "threads": {threads}}},
  "available_parallelism": 1,
  "wall_s": {wall_s},
  "kernels": [
    {{"name": "spmv_csr", "serial_s": 0.01, "pooled_s": 0.005, "pooled_vs_serial": {speedup}}}
  ]
}}
"#
    )
}

#[test]
fn diff_exit_codes_cover_the_gate_contract() {
    let base = temp("base.json", &baseline_doc(10.0, 2.0, 1));

    // Clean: identical numbers under a different git sha.
    let same = temp(
        "same.json",
        &baseline_doc(10.0, 2.0, 1).replace("baseline00", "candidate11"),
    );
    let out = obsctl(&["diff", base.to_str().unwrap(), same.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // The acceptance self-test: a >threshold injected regression (wall
    // time +40% over a 25% default threshold) must exit nonzero.
    let slow = temp("slow.json", &baseline_doc(14.0, 2.0, 1));
    let out = obsctl(&["diff", base.to_str().unwrap(), slow.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("REGRESSION"), "{report}");
    assert!(report.contains("wall_s"), "{report}");

    // The same regression is tolerated under --warn-values (CI's
    // untrusted-timing mode) and under a looser threshold.
    let out = obsctl(&[
        "diff",
        base.to_str().unwrap(),
        slow.to_str().unwrap(),
        "--warn-values",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let out = obsctl(&[
        "diff",
        base.to_str().unwrap(),
        slow.to_str().unwrap(),
        "--threshold",
        "50",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // A lost speedup (higher-is-better moving down) also regresses.
    let lost = temp(
        "lost.json",
        &baseline_doc(10.0, 2.0, 1).replace(
            r#""pooled_vs_serial": 2"#,
            r#""pooled_vs_serial": 2, "blocked_vs_naive": 1"#,
        ),
    );
    let kept = temp(
        "kept.json",
        &baseline_doc(10.0, 2.0, 1).replace(
            r#""pooled_vs_serial": 2"#,
            r#""pooled_vs_serial": 2, "blocked_vs_naive": 2"#,
        ),
    );
    let out = obsctl(&["diff", kept.to_str().unwrap(), lost.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");

    // A pooled-vs-serial ratio is recorded but never gated: halving it
    // (say, because the serial path got faster) passes.
    let halved = temp("halved.json", &baseline_doc(10.0, 1.0, 1));
    let out = obsctl(&["diff", base.to_str().unwrap(), halved.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("pooled_vs_serial"), "{report}");

    // Shape drift: a renamed kernel fails even under --warn-values.
    let renamed = temp(
        "renamed.json",
        &baseline_doc(10.0, 2.0, 1).replace("spmv_csr", "spmv_sell"),
    );
    let out = obsctl(&[
        "diff",
        base.to_str().unwrap(),
        renamed.to_str().unwrap(),
        "--warn-values",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    // Config mismatch: different thread counts are not comparable.
    let threads4 = temp("threads4.json", &baseline_doc(10.0, 2.0, 4));
    let out = obsctl(&[
        "diff",
        base.to_str().unwrap(),
        threads4.to_str().unwrap(),
        "--warn-values",
    ]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");

    // Unreadable input is its own failure, distinct from the gate codes.
    let garbage = temp("garbage.json", "{ not json");
    let out = obsctl(&["diff", base.to_str().unwrap(), garbage.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(4), "{out:?}");

    for p in [
        base, same, slow, lost, kept, halved, renamed, threads4, garbage,
    ] {
        std::fs::remove_file(p).ok();
    }
}

/// Record a small taxonomy-shaped run and return the recorder.
fn sample_recording() -> Arc<obs::MemRecorder> {
    use obs::AttrValue;
    let rec = Arc::new(obs::MemRecorder::new());
    obs::with_recorder(rec.clone(), || {
        obs::span(
            "app.phase",
            "compute:SymGS (10.0 Mflop)",
            0.0,
            60.0,
            &[("phase", AttrValue::Str("compute"))],
        );
        obs::span(
            "app.phase",
            "allreduce(8B)",
            60.0,
            20.0,
            &[("phase", AttrValue::Str("allreduce"))],
        );
        obs::span(
            "mpi",
            "mpi.allreduce",
            65.0,
            15.0,
            &[
                ("ranks", AttrValue::U64(2)),
                ("wait0_us", AttrValue::F64(5.0)),
            ],
        );
        obs::span("ckpt", "ckpt.write", 80.0, 10.0, &[]);
        obs::add("mpi.allreduce.calls", 1);
        obs::gauge_max("des.queue.peak_depth", 7.0);
        obs::observe("mpi.sync_wait_us", 5.0);
        obs::observe("mpi.sync_wait_us", 300.0);
    });
    rec
}

#[test]
fn attrib_replays_a_chrome_trace_to_the_in_process_analysis() {
    let rec = sample_recording();
    let trace = temp("trace.json", &rec.chrome_trace_json());

    // The offline document is byte-identical to the in-process one: the
    // trace round-trip loses nothing the analyzer reads.
    let out = obsctl(&["attrib", trace.to_str().unwrap(), "--json"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        rec.analyze().to_json(&[])
    );

    // The human view names the categories and the dominant chain.
    let out = obsctl(&["attrib", trace.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "compute",
        "collective",
        "checkpoint",
        "SymGS",
        "critical path",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }

    // A non-trace JSON file is rejected with the input-error code.
    let not_trace = temp("not_trace.json", "{\"spans\": []}");
    let out = obsctl(&["attrib", not_trace.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(4), "{out:?}");

    std::fs::remove_file(trace).ok();
    std::fs::remove_file(not_trace).ok();
}

#[test]
fn prom_rebuilds_the_exposition_from_a_snapshot() {
    let rec = sample_recording();
    // Both snapshot flavours must round-trip (the percentile fields of the
    // extended one are recomputable and ignored).
    for (name, snapshot) in [
        (
            "metrics.json",
            rec.metrics_json(&[("experiment", "t".to_string())]),
        ),
        (
            "metrics_ext.json",
            rec.metrics_json_ext(&[("experiment", "t".to_string())]),
        ),
    ] {
        let path = temp(name, &snapshot);
        let out = obsctl(&["prom", path.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            rec.prometheus(),
            "offline exposition must match the in-process registry"
        );
        std::fs::remove_file(path).ok();
    }
}
