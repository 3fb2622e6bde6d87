//! Byte ledger: the exact stdout of `repro`'s table commands, committed
//! under `crates/conform/ledger/` and regenerated here in process.
//!
//! The goldens allow a band on every metric column; the ledger allows
//! nothing. Each output is compared byte for byte with its committed
//! file, and a mismatch names the file and its first differing byte.
//! `conform --bless` rewrites the files, so the git diff of a re-bless
//! shows exactly which cells moved.
//!
//! | file                  | command                                 |
//! |-----------------------|-----------------------------------------|
//! | `all.txt`             | `repro --all`                           |
//! | `markdown.md`         | `repro --markdown`                      |
//! | `ablations.txt`       | `repro --ablations`                     |
//! | `extensions.txt`      | `repro --extensions`                    |
//! | `<id>.<pricing>.json` | `repro --exp-json <id> --pricing <pricing>`, every id, `flat` and `ecm` |
//!
//! The first four run under flat pricing, `repro`'s default. `repro
//! --chaos` is left out: its double runs are diffed against each other.

use std::path::{Path, PathBuf};

use a64fx_core::costmodel::{default_pricing, set_default_pricing, PricingBackend};
use a64fx_core::{ablations, campaign, experiments, extensions, runner, Table};

/// Where the committed ledger files live.
pub fn ledger_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("ledger")
}

/// One ledger output: its file name, the pricing backend it runs under,
/// and the command that prints it.
pub struct Entry {
    /// File name under [`ledger_dir`].
    pub file: String,
    /// Process pricing default installed while the output is produced.
    pub pricing: PricingBackend,
    produce: Box<dyn Fn() -> String>,
}

impl Entry {
    fn new(file: String, pricing: PricingBackend, produce: impl Fn() -> String + 'static) -> Self {
        Entry {
            file,
            pricing,
            produce: Box::new(produce),
        }
    }

    /// The output's bytes, as `repro` prints them. Installs the entry's
    /// pricing backend for the run and restores the previous default.
    pub fn produce(&self) -> String {
        let prev = default_pricing();
        set_default_pricing(self.pricing);
        let out = (self.produce)();
        set_default_pricing(prev);
        out
    }
}

/// `println!` of each table's rendering, as `repro` prints a list.
fn lines(tables: Vec<Table>, render: fn(&Table) -> String) -> String {
    tables.iter().map(|t| render(t) + "\n").collect()
}

/// Every ledger output, in a fixed order.
pub fn entries() -> Vec<Entry> {
    let flat = PricingBackend::Flat;
    let mut out = vec![
        Entry::new("all.txt".into(), flat, || {
            let cfg = campaign::CampaignConfig::new(
                runner::resolve_threads(None),
                runner::resolve_deadline(None),
            );
            campaign::run_campaign(&cfg, None, false)
                .expect("a campaign without a journal does no I/O")
                .outcomes
                .iter()
                .map(|o| o.render.clone() + "\n")
                .collect()
        }),
        Entry::new("markdown.md".into(), flat, || {
            lines(experiments::run_all(), Table::render_markdown)
        }),
        Entry::new("ablations.txt".into(), flat, || {
            lines(ablations::run_all(), Table::render)
        }),
        Entry::new("extensions.txt".into(), flat, || {
            lines(extensions::run_all(), Table::render)
        }),
    ];
    for pricing in [PricingBackend::Flat, PricingBackend::Ecm] {
        for id in experiments::all_ids() {
            out.push(Entry::new(
                format!("{id}.{pricing}.json"),
                pricing,
                move || {
                    let t = experiments::run_one(id).expect("registered id");
                    t.to_json(&[]) + "\n"
                },
            ));
        }
    }
    out
}

/// Offset of the first byte at which `a` and `b` differ (the shorter
/// length if one is a prefix of the other); `None` if they are equal.
pub fn first_difference(a: &[u8], b: &[u8]) -> Option<usize> {
    match a.iter().zip(b).position(|(x, y)| x != y) {
        Some(i) => Some(i),
        None if a.len() != b.len() => Some(a.len().min(b.len())),
        None => None,
    }
}

/// The line holding byte `at`, for a readable mismatch report.
fn line_at(bytes: &[u8], at: usize) -> (usize, String) {
    let at = at.min(bytes.len());
    let start = bytes[..at]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |i| i + 1);
    let end = bytes[at..]
        .iter()
        .position(|&b| b == b'\n')
        .map_or(bytes.len(), |i| at + i);
    let number = 1 + bytes[..start].iter().filter(|&&b| b == b'\n').count();
    (
        number,
        String::from_utf8_lossy(&bytes[start..end]).into_owned(),
    )
}

/// Regenerate each entry and compare it with its committed file in
/// `dir`. Returns one failure per file that is missing or differs.
pub fn check(entries: &[Entry], dir: &Path) -> Vec<String> {
    let mut failures = Vec::new();
    for e in entries {
        let path = dir.join(&e.file);
        let want = match std::fs::read(&path) {
            Ok(b) => b,
            Err(err) => {
                failures.push(format!("{}: {err}", path.display()));
                continue;
            }
        };
        let got = e.produce().into_bytes();
        if let Some(at) = first_difference(&want, &got) {
            let (line, committed) = line_at(&want, at);
            let (_, regenerated) = line_at(&got, at);
            failures.push(format!(
                "{}: first differing byte at offset {at} (line {line})\n      committed:   {committed}\n      regenerated: {regenerated}",
                path.display()
            ));
        }
    }
    failures
}

/// Files in `dir` that no entry produces: left by a removed output.
pub fn stale_files(entries: &[Entry], dir: &Path) -> Vec<String> {
    let Ok(read) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut stale: Vec<String> = read
        .filter_map(|f| f.ok()?.file_name().into_string().ok())
        .filter(|name| !entries.iter().any(|e| &e.file == name))
        .collect();
    stale.sort();
    stale
}

/// Rewrite every ledger file from the current build and delete stale
/// ones. Returns each file name with whether its bytes changed.
pub fn bless_all() -> Result<Vec<(String, bool)>, String> {
    let dir = ledger_dir();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let entries = entries();
    for name in stale_files(&entries, &dir) {
        let path = dir.join(name);
        std::fs::remove_file(&path).map_err(|err| format!("{}: {err}", path.display()))?;
    }
    let mut written = Vec::new();
    for e in entries {
        let path = dir.join(&e.file);
        let new = e.produce();
        let changed = !std::fs::read_to_string(&path).is_ok_and(|old| old == new);
        std::fs::write(&path, &new).map_err(|err| format!("{}: {err}", path.display()))?;
        written.push((e.file, changed));
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_difference_finds_the_offset() {
        assert_eq!(first_difference(b"abc", b"abc"), None);
        assert_eq!(first_difference(b"", b""), None);
        assert_eq!(first_difference(b"abc", b"abd"), Some(2));
        assert_eq!(first_difference(b"xbc", b"abc"), Some(0));
        assert_eq!(first_difference(b"ab", b"abc"), Some(2));
        assert_eq!(first_difference(b"abc", b"ab"), Some(2));
    }

    #[test]
    fn line_at_reports_the_line_holding_the_byte() {
        let text = b"one\ntwo\nthree";
        assert_eq!(line_at(text, 0), (1, "one".into()));
        assert_eq!(line_at(text, 5), (2, "two".into()));
        assert_eq!(line_at(text, 8), (3, "three".into()));
        assert_eq!(line_at(text, 99), (3, "three".into()));
    }

    #[test]
    fn every_committed_file_has_an_entry_and_every_entry_a_file() {
        let entries = entries();
        assert_eq!(entries.len(), 4 + 2 * experiments::all_ids().len());
        assert_eq!(stale_files(&entries, &ledger_dir()), Vec::<String>::new());
        for e in &entries {
            assert!(ledger_dir().join(&e.file).is_file(), "{} missing", e.file);
        }
    }

    #[test]
    fn a_changed_byte_is_named_by_file_and_offset() {
        let dir = std::env::temp_dir().join(format!("a64fx-ledger-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let entry = Entry::new("x.txt".into(), PricingBackend::Flat, || {
            "line one\nline two\n".into()
        });
        std::fs::write(dir.join("x.txt"), "line one\nline twO\n").unwrap();
        let failures = check(std::slice::from_ref(&entry), &dir);
        std::fs::write(dir.join("x.txt"), "line one\nline two\n").unwrap();
        let clean = check(std::slice::from_ref(&entry), &dir);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].contains("x.txt: first differing byte at offset 16 (line 2)"),
            "{}",
            failures[0]
        );
        assert!(clean.is_empty(), "{clean:?}");
    }
}
