//! Process-global counters for the per-[`World`](crate::World)
//! collective-time cache.
//!
//! Every `World` memoizes its closed-form collective durations per
//! `(op, bytes)` tuple (the closed forms depend only on the network and
//! the live node map, both fixed between ULFM shrinks). The memo has no
//! cap: it holds one entry per distinct collective its `World` prices —
//! at most three in any experiment, ablation or extension here — and is
//! cleared on shrink. These counters
//! aggregate hits and misses across *all* worlds in the process so
//! tooling (`bench_json`, `BENCH_repro.json`) can show the cache
//! working without touching the `obs` recorder — collective pricing
//! happens inside recorded regions whose metric snapshots are pinned as
//! byte-exact goldens, so it must not grow new ambient counters.
//!
//! The counters are monotonic, relaxed atomics: cheap on the hot path,
//! and purely observational (they never feed back into pricing).

use std::sync::atomic::{AtomicU64, Ordering};

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide collective-cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollCacheStats {
    /// Collective calls answered from a `World`'s memo table.
    pub hits: u64,
    /// Collective calls that ran the closed-form model (and populated
    /// the memo table).
    pub misses: u64,
}

pub(crate) fn record_hit() {
    HITS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_miss() {
    MISSES.fetch_add(1, Ordering::Relaxed);
}

/// Current process-wide hit/miss totals.
pub fn stats() -> CollCacheStats {
    CollCacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        // Other tests may run worlds concurrently, so assert deltas via
        // monotonicity rather than absolute values.
        let before = stats();
        record_miss();
        record_hit();
        record_hit();
        let after = stats();
        assert!(after.hits >= before.hits + 2);
        assert!(after.misses > before.misses);
    }
}
