//! # a64fx-bench — benchmark writers and the perf gate
//!
//! Two binaries: `bench_json` times the real kernels, one full repro run,
//! the DES engine and the two pricing backends, and writes the committed
//! `BENCH_*.json` files; `obsctl` reads those files (and the simulator's
//! Chrome traces and metrics snapshots) offline. Regenerate the paper
//! tables themselves with the `repro` binary (`cargo run -p a64fx-core
//! --bin repro -- --all`).
//!
//! The crate hosts the regression-gate machinery behind `obsctl`:
//! [`config`] stamps every `BENCH_*.json` with the run configuration (git
//! revision, DES backend, pricing backend, worker threads) so comparisons
//! across mismatched setups can be refused, and [`obsdiff`] is the
//! deterministic comparator CI runs as a perf gate.

pub mod config {
    //! The run-configuration header every `BENCH_*.json` carries.
    //!
    //! A benchmark number is only comparable to another taken under the
    //! same configuration: the resolved DES backend, the kernel-pricing
    //! backend, and the worker-thread count all change what is measured.
    //! Each writer embeds a `"config"` object built here; `obsctl diff`
    //! refuses comparisons whose configs disagree (the git SHA and host
    //! parallelism are recorded for provenance but excluded from the
    //! match — comparing across revisions is the whole point of a gate).

    /// The git revision of the working tree, via `git rev-parse HEAD`.
    /// Falls back to `"unknown"` outside a git checkout (e.g. a source
    /// tarball) — provenance only, never load-bearing.
    pub fn git_sha() -> String {
        std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    }

    /// The `"config"` object (one JSON fragment, no trailing newline)
    /// recorded in every benchmark file: git revision plus the four
    /// resolved knobs that make two runs comparable. `threads` is the
    /// worker count the caller actually used for the timed region;
    /// `tiling` is the compiled-in block/chunk parameter set
    /// ([`densela::block::tiling_id`]) — numbers taken under different
    /// tiling measure different inner loops, so `obsctl diff` refuses
    /// differently-tiled baselines like any other config mismatch.
    pub fn header_json(threads: usize) -> String {
        format!(
            "{{\"git_sha\": \"{}\", \"des_backend\": \"{}\", \"pricing\": \"{}\", \"tiling\": \"{}\", \"threads\": {threads}}}",
            git_sha(),
            a64fx_core::runner::resolve_des_backend(None),
            a64fx_core::runner::resolve_pricing(None),
            densela::block::tiling_id(),
        )
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn header_is_valid_json_with_the_five_keys() {
            let doc = obs::json::parse(&header_json(3)).unwrap();
            for key in ["git_sha", "des_backend", "pricing", "tiling"] {
                assert!(doc.get(key).and_then(|v| v.as_str()).is_some(), "{key}");
            }
            assert_eq!(doc.get("threads").and_then(|v| v.as_f64()), Some(3.0));
            assert_eq!(
                doc.get("tiling").and_then(|v| v.as_str()),
                Some(densela::block::tiling_id().as_str()),
                "the header must stamp the compiled-in tiling"
            );
        }
    }
}

pub mod obsdiff {
    //! Deterministic benchmark comparison — the engine behind
    //! `obsctl diff`, CI's perf gate.
    //!
    //! Two `BENCH_*.json` (or metrics-snapshot) documents are flattened to
    //! dotted metric paths — array elements keyed by their `name`/`id`
    //! fields where present, so `kernels[2]` becomes
    //! `kernels.mc_symgs_sweep` and survives reordering — and compared
    //! metric by metric:
    //!
    //! * **config mismatch** (exit 3): the documents' `"config"` objects
    //!   disagree on anything except the git SHA. Such numbers are not
    //!   comparable; the diff refuses rather than report noise.
    //! * **shape drift** (exit 2): a metric exists on only one side, or a
    //!   non-numeric value changed (a kernel renamed, an experiment's
    //!   `failed` flag flipped). Shape drift always fails the gate — it
    //!   means the benchmark itself changed, not just its numbers.
    //! * **value regression** (exit 1): a numeric metric moved past the
    //!   relative threshold in its bad direction. Keys ending in
    //!   `_s`/`_us`/`_ns` are times (lower is better); keys ending in
    //!   `per_s`/`_eff` and `blocked_vs_*` speedups are rates (higher is
    //!   better); everything else is neutral — reported when it moves, but
    //!   never a failure. The pooled-vs-serial ratios (`pooled_vs_*`,
    //!   `vs_serial`) are neutral on purpose: they divide by the serial
    //!   time, so a faster serial path reads as a lower ratio, and on a
    //!   host with one or two CPUs they say nothing about parallel speed-up
    //!   anyway. `--warn-values` downgrades value regressions to warnings
    //!   for hosts whose timings are not trustworthy (CI's single-core
    //!   runners).
    //!
    //! The comparator itself is pure and deterministic: same two documents,
    //! same report, byte for byte.

    use std::collections::BTreeMap;

    use obs::json::Value;

    /// Default relative threshold, percent: moves within ±25% are noise on
    /// shared CI hosts.
    pub const DEFAULT_THRESHOLD_PCT: f64 = 25.0;

    /// Which way a metric is allowed to move.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Direction {
        /// Times and latencies: an increase past threshold is a regression.
        LowerIsBetter,
        /// Rates, efficiencies, speedups: a decrease is a regression.
        HigherIsBetter,
        /// Counts, sizes and pooled-vs-serial ratios: changes are reported,
        /// never failures.
        Neutral,
    }

    /// Classify a flattened metric key by its final path segment.
    pub fn direction(key: &str) -> Direction {
        let last = key.rsplit('.').next().unwrap_or(key);
        if last.starts_with("pooled_vs") || last == "vs_serial" {
            // Recorded, never gated: see the module doc.
            Direction::Neutral
        } else if last.ends_with("per_s")
            || last.ends_with("_eff")
            || last.starts_with("blocked_vs")
        {
            Direction::HigherIsBetter
        } else if last.ends_with("_s") || last.ends_with("_us") || last.ends_with("_ns") {
            Direction::LowerIsBetter
        } else {
            Direction::Neutral
        }
    }

    /// A flattened leaf: a number to compare, or text that must not change.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Flat {
        /// A numeric metric.
        Num(f64),
        /// A non-numeric value (strings, booleans, null).
        Text(String),
    }

    /// Array elements are keyed by an identifying field when they have one,
    /// so reordering a benchmark's rows is not a spurious diff; positional
    /// index is the fallback.
    fn element_key(v: &Value, i: usize) -> String {
        for field in ["name", "id"] {
            if let Some(s) = v.get(field).and_then(Value::as_str) {
                return s.to_string();
            }
        }
        if let (Some(app), Some(class)) = (
            v.get("app").and_then(Value::as_str),
            v.get("class").and_then(Value::as_str),
        ) {
            return format!("{app}.{class}");
        }
        if let (Some(nodes), Some(backend)) = (
            v.get("nodes").and_then(Value::as_f64),
            v.get("backend").and_then(Value::as_str),
        ) {
            return format!("{}.{backend}", nodes as u64);
        }
        i.to_string()
    }

    /// Flatten a document into `dotted.path -> leaf` under `prefix`
    /// (empty at the root). Key order comes from the `BTreeMap`, so the
    /// report is independent of document layout.
    pub fn flatten(v: &Value, prefix: &str, out: &mut BTreeMap<String, Flat>) {
        let join = |k: &str| {
            if prefix.is_empty() {
                k.to_string()
            } else {
                format!("{prefix}.{k}")
            }
        };
        match v {
            Value::Obj(pairs) => {
                for (k, val) in pairs {
                    flatten(val, &join(k), out);
                }
            }
            Value::Arr(items) => {
                for (i, item) in items.iter().enumerate() {
                    flatten(item, &join(&element_key(item, i)), out);
                }
            }
            Value::Num(n) => {
                out.insert(prefix.to_string(), Flat::Num(*n));
            }
            Value::Str(s) => {
                out.insert(prefix.to_string(), Flat::Text(s.clone()));
            }
            Value::Bool(b) => {
                out.insert(prefix.to_string(), Flat::Text(b.to_string()));
            }
            Value::Null => {
                out.insert(prefix.to_string(), Flat::Text("null".to_string()));
            }
        }
    }

    /// Keys excluded from comparison entirely: provenance and host facts
    /// that legitimately differ between a baseline and a candidate.
    fn ignored(key: &str) -> bool {
        let last = key.rsplit('.').next().unwrap_or(key);
        last == "git_sha" || last == "available_parallelism"
    }

    /// The outcome of one comparison, most severe condition first.
    #[derive(Debug, Default)]
    pub struct DiffReport {
        /// Config keys that disagree — the comparison is refused.
        pub config_mismatches: Vec<String>,
        /// Metrics present on only one side, or changed non-numeric values.
        pub shape_drift: Vec<String>,
        /// Numeric metrics past threshold in their bad direction.
        pub regressions: Vec<String>,
        /// Numeric metrics past threshold in their good direction.
        pub improvements: Vec<String>,
        /// Neutral metrics that moved past threshold — informational.
        pub neutral_changes: Vec<String>,
        /// Total numeric metrics compared.
        pub compared: usize,
    }

    impl DiffReport {
        /// The gate's exit code: 3 config mismatch, 2 shape drift, 1 value
        /// regression (suppressed by `warn_values`), 0 clean.
        pub fn exit_code(&self, warn_values: bool) -> i32 {
            if !self.config_mismatches.is_empty() {
                3
            } else if !self.shape_drift.is_empty() {
                2
            } else if !self.regressions.is_empty() && !warn_values {
                1
            } else {
                0
            }
        }

        /// Human-readable report, one finding per line, worst first.
        pub fn render(&self, warn_values: bool) -> String {
            let mut out = String::new();
            let mut section = |title: &str, lines: &[String]| {
                for l in lines {
                    out.push_str(&format!("{title}: {l}\n"));
                }
            };
            section("config mismatch", &self.config_mismatches);
            section("shape drift", &self.shape_drift);
            section(
                if warn_values {
                    "regression (warn-only)"
                } else {
                    "REGRESSION"
                },
                &self.regressions,
            );
            section("improvement", &self.improvements);
            section("changed (neutral)", &self.neutral_changes);
            out.push_str(&format!(
                "compared {} metrics: {} regressed, {} improved, {} drifted, exit {}\n",
                self.compared,
                self.regressions.len(),
                self.improvements.len(),
                self.shape_drift.len(),
                self.exit_code(warn_values)
            ));
            out
        }
    }

    /// Compare two parsed benchmark documents under a relative threshold
    /// (percent). `old` is the baseline; `new` is the candidate.
    pub fn diff_docs(old: &Value, new: &Value, threshold_pct: f64) -> DiffReport {
        let mut a = BTreeMap::new();
        let mut b = BTreeMap::new();
        flatten(old, "", &mut a);
        flatten(new, "", &mut b);
        let mut report = DiffReport::default();

        // Config gate first: refuse incomparable documents. A baseline
        // that predates config headers is flagged as drift, not mismatch.
        let a_cfg: Vec<_> = a.iter().filter(|(k, _)| k.starts_with("config.")).collect();
        let b_has_cfg = b.keys().any(|k| k.starts_with("config."));
        if a_cfg.is_empty() == b_has_cfg {
            report
                .shape_drift
                .push("one side has a \"config\" header, the other does not".to_string());
        }
        for (k, va) in &a_cfg {
            if ignored(k) {
                continue;
            }
            match b.get(*k) {
                Some(vb) if *vb == **va => {}
                Some(vb) => report.config_mismatches.push(format!(
                    "{k}: baseline {va:?} vs candidate {vb:?} — regenerate under the same configuration"
                )),
                None => report
                    .config_mismatches
                    .push(format!("{k}: missing from the candidate")),
            }
        }

        for (k, va) in &a {
            if k.starts_with("config.") || ignored(k) {
                continue;
            }
            let Some(vb) = b.get(k) else {
                report.shape_drift.push(format!("{k}: only in baseline"));
                continue;
            };
            match (va, vb) {
                (Flat::Num(x), Flat::Num(y)) => {
                    report.compared += 1;
                    let (x, y) = (*x, *y);
                    if x == y {
                        continue;
                    }
                    if x == 0.0 {
                        report
                            .neutral_changes
                            .push(format!("{k}: baseline 0, candidate {y}"));
                        continue;
                    }
                    let pct = 100.0 * (y - x) / x;
                    if pct.abs() <= threshold_pct {
                        continue;
                    }
                    let line = format!("{k}: {x} -> {y} ({pct:+.1}%)");
                    match direction(k) {
                        Direction::LowerIsBetter if pct > 0.0 => report.regressions.push(line),
                        Direction::HigherIsBetter if pct < 0.0 => report.regressions.push(line),
                        Direction::Neutral => report.neutral_changes.push(line),
                        _ => report.improvements.push(line),
                    }
                }
                (va, vb) if va == vb => {}
                (va, vb) => report
                    .shape_drift
                    .push(format!("{k}: {va:?} changed to {vb:?}")),
            }
        }
        for k in b.keys() {
            if !k.starts_with("config.") && !ignored(k) && !a.contains_key(k) {
                report.shape_drift.push(format!("{k}: only in candidate"));
            }
        }
        report
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use obs::json::parse;

        fn doc(wall: f64, speedup: f64, events: u64, threads: u64) -> Value {
            parse(&format!(
                r#"{{"config": {{"git_sha": "g{threads}", "des_backend": "serial",
                     "pricing": "flat", "threads": {threads}}},
                    "available_parallelism": {threads},
                    "wall_s": {wall},
                    "kernels": [{{"name": "spmv", "serial_s": 1.0,
                                  "blocked_vs_naive": {speedup}}}],
                    "des": {{"events": {events}}}}}"#
            ))
            .unwrap()
        }

        #[test]
        fn direction_classification() {
            assert_eq!(direction("wall_s"), Direction::LowerIsBetter);
            assert_eq!(direction("kernels.spmv.flat_us"), Direction::LowerIsBetter);
            assert_eq!(
                direction("dispatch.pool_run_lanes2.run_ns"),
                Direction::LowerIsBetter
            );
            assert_eq!(
                direction("runs.1024.serial.events_per_s"),
                Direction::HigherIsBetter
            );
            assert_eq!(
                direction("kernels.spmv.pooled_vs_serial"),
                Direction::Neutral
            );
            assert_eq!(direction("ecm_roofline_eff"), Direction::HigherIsBetter);
            assert_eq!(
                direction("blocked.small_gemm_batch16.blocked_vs_naive"),
                Direction::HigherIsBetter
            );
            assert_eq!(
                direction("kernels.spmv_csr.gflops_per_s"),
                Direction::HigherIsBetter
            );
            assert_eq!(
                direction("runs.1024.sharded4.vs_serial"),
                Direction::Neutral
            );
            assert_eq!(direction("des.events"), Direction::Neutral);
            assert_eq!(direction("threads"), Direction::Neutral);
        }

        #[test]
        fn identical_documents_are_clean() {
            let r = diff_docs(&doc(10.0, 2.0, 5, 1), &doc(10.0, 2.0, 5, 1), 25.0);
            assert_eq!(r.exit_code(false), 0, "{}", r.render(false));
            assert!(r.compared > 0);
        }

        #[test]
        fn git_sha_and_parallelism_never_matter() {
            let mut b = doc(10.0, 2.0, 5, 1);
            // Same config.threads, different sha/host: comparable.
            if let Value::Obj(pairs) = &mut b {
                for (k, v) in pairs.iter_mut() {
                    if k == "available_parallelism" {
                        *v = Value::Num(64.0);
                    }
                }
            }
            let r = diff_docs(&doc(10.0, 2.0, 5, 1), &b, 25.0);
            assert_eq!(r.exit_code(false), 0, "{}", r.render(false));
        }

        #[test]
        fn slower_time_past_threshold_regresses() {
            let r = diff_docs(&doc(10.0, 2.0, 5, 1), &doc(14.0, 2.0, 5, 1), 25.0);
            assert_eq!(r.exit_code(false), 1);
            assert_eq!(r.exit_code(true), 0, "--warn-values downgrades");
            // A looser threshold passes it.
            let r = diff_docs(&doc(10.0, 2.0, 5, 1), &doc(14.0, 2.0, 5, 1), 50.0);
            assert_eq!(r.exit_code(false), 0);
            // Faster is an improvement, not a failure.
            let r = diff_docs(&doc(10.0, 2.0, 5, 1), &doc(6.0, 2.0, 5, 1), 25.0);
            assert_eq!(r.exit_code(false), 0);
            assert_eq!(r.improvements.len(), 1);
        }

        #[test]
        fn lost_speedup_regresses_and_neutral_counts_never_fail() {
            let r = diff_docs(&doc(10.0, 2.0, 5, 1), &doc(10.0, 1.0, 5, 1), 25.0);
            assert_eq!(r.exit_code(false), 1);
            let r = diff_docs(&doc(10.0, 2.0, 5, 1), &doc(10.0, 2.0, 500, 1), 25.0);
            assert_eq!(r.exit_code(false), 0);
            assert_eq!(r.neutral_changes.len(), 1);
        }

        #[test]
        fn pooled_vs_serial_ratios_are_recorded_not_gated() {
            let ratios = |pooled: f64, sharded: f64| {
                parse(&format!(
                    r#"{{"kernels": [{{"name": "spmv", "pooled_vs_serial": {pooled}}}],
                        "runs": [{{"nodes": 1024, "backend": "sharded4",
                                   "vs_serial": {sharded}}}]}}"#
                ))
                .unwrap()
            };
            // Both ratios halve, as when the serial path gets twice as fast.
            let r = diff_docs(&ratios(2.0, 1.2), &ratios(1.0, 0.6), 25.0);
            assert_eq!(r.exit_code(false), 0, "{}", r.render(false));
            assert!(r.regressions.is_empty());
            assert_eq!(r.neutral_changes.len(), 2, "still reported");
        }

        #[test]
        fn missing_metric_is_shape_drift_and_beats_value_regression() {
            let stripped = parse(
                r#"{"config": {"git_sha": "x", "des_backend": "serial",
                    "pricing": "flat", "threads": 1},
                   "wall_s": 99.0, "kernels": [], "des": {"events": 5}}"#,
            )
            .unwrap();
            let r = diff_docs(&doc(10.0, 2.0, 5, 1), &stripped, 25.0);
            assert_eq!(r.exit_code(false), 2);
            assert_eq!(r.exit_code(true), 2, "--warn-values never hides drift");
        }

        #[test]
        fn mismatched_config_is_refused() {
            let r = diff_docs(&doc(10.0, 2.0, 5, 1), &doc(10.0, 2.0, 5, 4), 25.0);
            assert_eq!(r.exit_code(false), 3);
            assert_eq!(r.exit_code(true), 3, "--warn-values never hides a mismatch");
            assert!(r
                .render(false)
                .contains("regenerate under the same configuration"));
        }

        #[test]
        fn mismatched_tiling_is_refused() {
            // Same knobs everywhere except the config's tiling id: the
            // candidate was built with different block/chunk parameters, so
            // its inner loops are not the baseline's inner loops.
            let with_tiling = |id: &str| {
                parse(&format!(
                    r#"{{"config": {{"git_sha": "x", "des_backend": "serial",
                        "pricing": "flat", "tiling": "{id}", "threads": 1}},
                       "wall_s": 10.0}}"#
                ))
                .unwrap()
            };
            let r = diff_docs(
                &with_tiling("w8.mr8.nr4.gs512.fft8"),
                &with_tiling("w4.mr4.nr2.gs256.fft4"),
                25.0,
            );
            assert_eq!(r.exit_code(false), 3);
            assert_eq!(r.exit_code(true), 3, "--warn-values never hides a mismatch");
            let same = diff_docs(
                &with_tiling("w8.mr8.nr4.gs512.fft8"),
                &with_tiling("w8.mr8.nr4.gs512.fft8"),
                25.0,
            );
            assert_eq!(same.exit_code(false), 0);
        }

        #[test]
        fn report_is_deterministic() {
            let a = doc(10.0, 2.0, 5, 1);
            let b = doc(14.0, 1.0, 500, 4);
            let r1 = diff_docs(&a, &b, 25.0).render(false);
            let r2 = diff_docs(&a, &b, 25.0).render(false);
            assert_eq!(r1, r2);
        }
    }
}
