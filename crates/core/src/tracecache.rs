//! Trace-once, simulate-many: a process-wide memo table for application
//! traces.
//!
//! A [`Trace`] depends only on its application config and the rank
//! count — never on the simulated system, toolchain or layout — yet the
//! paper's tables sweep the same six workloads across five systems and
//! many node counts, rebuilding identical traces for every cell. This
//! module builds each distinct workload once: traces are keyed by
//! `(app id, config fingerprint, ranks)` and shared as `Arc<Trace>`
//! across experiments, the resilience runner and the conform suites.
//!
//! Correctness rests on two properties:
//!
//! * **Builders are pure.** `<app>::trace(cfg, ranks)` is a
//!   deterministic function of its arguments, so serving a cached trace
//!   is indistinguishable (bit-for-bit) from rebuilding it.
//! * **Fingerprints are injective in practice.** [`Fingerprint`] hashes
//!   every config field through a fixed 64-bit FNV-1a — no
//!   `DefaultHasher` seed randomness — so the same config always maps
//!   to the same key, across threads and runs. Tests pin collision
//!   resistance for near-miss configs (transposed fields, off-by-one
//!   sizes).
//!
//! The cache is an escape-hatched optimisation, not a semantic layer:
//! `A64FX_TRACE_CACHE=off` (or `0`/`false`/`no`) and `repro --no-cache`
//! disable it, and cache-on vs cache-off runs are byte-identical.
//!
//! The memory tier is **capacity-bounded**: entries are charged their
//! [`Trace::approx_bytes`] against `A64FX_TRACE_CACHE_CAP` (default
//! [`DEFAULT_CAPACITY_BYTES`]) and evicted least-recently-used — purity
//! makes eviction bit-transparent, so a million-distinct-workload
//! campaign runs flat instead of growing without bound. With
//! `A64FX_TRACE_CACHE_DIR` set, built traces are also **persisted** as
//! checksummed files ([`crate::tracedisk`]) and reloaded across
//! evictions and across processes, with graceful fallback-to-rebuild on
//! any corruption or version mismatch.
//!
//! Totals are exposed through [`stats`] and — when a recorder is
//! installed — the `trace_cache.{hits,misses,inserts,evictions}` and
//! `trace_cache.disk_{loads,stores,corrupt}` `obs` counters.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use a64fx_apps::castep::CastepConfig;
use a64fx_apps::cosa::CosaConfig;
use a64fx_apps::hpcg::HpcgConfig;
use a64fx_apps::minikab::MinikabConfig;
use a64fx_apps::nekbone::NekboneConfig;
use a64fx_apps::opensbli::OpensbliConfig;
use a64fx_apps::trace::Trace;

/// Content-keying for cacheable application configs: a stable app
/// namespace plus a deterministic 64-bit digest of every field.
pub trait Fingerprint {
    /// Application id — the cache-key namespace, so two apps whose
    /// configs happen to hash alike can never collide.
    const APP: &'static str;

    /// Deterministic digest of the full config. Must cover every field
    /// that influences the built trace (i.e. all of them) and must not
    /// depend on process-specific state such as hasher seeds.
    fn fingerprint(&self) -> u64;
}

/// A tiny stable FNV-1a (64-bit) hasher. `std`'s `DefaultHasher` is
/// seeded per process, which would still be *correct* for an in-process
/// cache but makes fingerprints unprintable/unpinnable in tests; FNV
/// gives the same digest everywhere, forever.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET_BASIS)
    }

    /// Absorb raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    /// Absorb a `u64` (little-endian byte order).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorb a `usize` (widened so 32- and 64-bit builds agree).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorb an `f64` by its IEEE-754 bit pattern, so `-0.0 != 0.0`
    /// and every NaN payload is distinguished — exactly the equality the
    /// trace builders themselves see.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint for HpcgConfig {
    const APP: &'static str = "hpcg";
    fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_usize(self.local.0);
        h.write_usize(self.local.1);
        h.write_usize(self.local.2);
        h.write_usize(self.mg_levels);
        h.write_u64(u64::from(self.iterations));
        h.finish()
    }
}

impl Fingerprint for MinikabConfig {
    const APP: &'static str = "minikab";
    fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.dof);
        h.write_u64(self.nnz);
        h.write_usize(self.grid.0);
        h.write_usize(self.grid.1);
        h.write_usize(self.grid.2);
        h.write_u64(u64::from(self.iterations));
        h.finish()
    }
}

impl Fingerprint for NekboneConfig {
    const APP: &'static str = "nekbone";
    fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_usize(self.elements_per_rank);
        h.write_usize(self.poly);
        h.write_u64(u64::from(self.iterations));
        h.finish()
    }
}

impl Fingerprint for CosaConfig {
    const APP: &'static str = "cosa";
    fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_usize(self.blocks);
        h.write_usize(self.block_grid.0);
        h.write_usize(self.block_grid.1);
        h.write_usize(self.block_edge);
        h.write_usize(self.harmonics);
        h.write_u64(u64::from(self.iterations));
        h.finish()
    }
}

impl Fingerprint for CastepConfig {
    const APP: &'static str = "castep";
    fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_usize(self.grid);
        h.write_usize(self.bands);
        h.write_usize(self.h_applies);
        h.write_u64(u64::from(self.scf_cycles));
        h.finish()
    }
}

impl Fingerprint for OpensbliConfig {
    const APP: &'static str = "opensbli";
    fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_usize(self.grid);
        h.write_u64(u64::from(self.steps));
        h.write_f64(self.viscosity);
        h.write_f64(self.dt);
        h.finish()
    }
}

/// (app id, config fingerprint, ranks) — what a built trace depends on.
type Key = (&'static str, u64, u32);

/// One cached trace plus its LRU bookkeeping.
struct Entry {
    trace: Arc<Trace>,
    /// Capacity charge ([`Trace::approx_bytes`] at insert time).
    cost: u64,
    /// Logical clock of the last fetch that touched this entry.
    last_use: u64,
}

/// The memo table: entries, a logical use-clock, and the bytes charged.
#[derive(Default)]
struct Store {
    map: HashMap<Key, Entry>,
    tick: u64,
    total_cost: u64,
}

impl Store {
    /// Touch-and-get under LRU accounting.
    fn get(&mut self, key: &Key) -> Option<Arc<Trace>> {
        self.tick += 1;
        let tick = self.tick;
        let e = self.map.get_mut(key)?;
        e.last_use = tick;
        Some(Arc::clone(&e.trace))
    }

    /// Insert under the byte cap, evicting least-recently-used entries
    /// first. A trace larger than the whole cap is returned to the
    /// caller uncached (evicting everything for it would just thrash).
    fn insert(&mut self, key: Key, trace: &Arc<Trace>, cap: u64) {
        let cost = trace.approx_bytes();
        if cost > cap {
            return;
        }
        while self.total_cost + cost > cap {
            let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| *k)
            else {
                break;
            };
            let evicted = self.map.remove(&victim).expect("victim exists");
            self.total_cost -= evicted.cost;
            EVICTIONS.fetch_add(1, Ordering::Relaxed);
            if obs::enabled() {
                obs::add("trace_cache.evictions", 1);
            }
        }
        self.tick += 1;
        self.total_cost += cost;
        self.map.insert(
            key,
            Entry {
                trace: Arc::clone(trace),
                cost,
                last_use: self.tick,
            },
        );
    }
}

fn table() -> &'static Mutex<Store> {
    static TABLE: OnceLock<Mutex<Store>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(Store::default()))
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static INSERTS: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);
static DISK_LOADS: AtomicU64 = AtomicU64::new(0);
static DISK_STORES: AtomicU64 = AtomicU64::new(0);
static DISK_CORRUPT: AtomicU64 = AtomicU64::new(0);

/// Runtime override state: follows `A64FX_TRACE_CACHE` until
/// [`set_enabled`] pins it (the `repro --no-cache` path, and tests that
/// must not race through `env::set_var`).
static OVERRIDE: AtomicU8 = AtomicU8::new(OVERRIDE_UNSET);
const OVERRIDE_UNSET: u8 = 0;
const OVERRIDE_ON: u8 = 1;
const OVERRIDE_OFF: u8 = 2;

/// Force the cache on or off for this process, taking precedence over
/// `A64FX_TRACE_CACHE`. Used by `repro --no-cache` and by tests, which
/// cannot portably mutate the environment of a multi-threaded test
/// runner.
pub fn set_enabled(on: bool) {
    OVERRIDE.store(
        if on { OVERRIDE_ON } else { OVERRIDE_OFF },
        Ordering::Relaxed,
    );
}

/// Drop any [`set_enabled`] override and fall back to the environment.
pub fn clear_override() {
    OVERRIDE.store(OVERRIDE_UNSET, Ordering::Relaxed);
}

/// Whether an `A64FX_TRACE_CACHE` value disables the cache: `off`, `0`,
/// `false` and `no` (any case, surrounding whitespace ignored) do;
/// everything else — including unset — leaves it on.
pub fn env_disables(value: Option<&str>) -> bool {
    matches!(
        value.map(|v| v.trim().to_ascii_lowercase()).as_deref(),
        Some("off" | "0" | "false" | "no")
    )
}

/// Whether the cache is currently serving: the [`set_enabled`] override
/// if one is pinned, else the `A64FX_TRACE_CACHE` environment variable.
pub fn enabled() -> bool {
    match OVERRIDE.load(Ordering::Relaxed) {
        OVERRIDE_ON => true,
        OVERRIDE_OFF => false,
        _ => !env_disables(std::env::var("A64FX_TRACE_CACHE").ok().as_deref()),
    }
}

/// Default in-memory capacity: 256 MiB. Far above anything the paper's
/// sweeps build (traces are tens of kilobytes), so the bound is pure
/// insurance — a million-distinct-request campaign stays flat instead of
/// growing without limit.
pub const DEFAULT_CAPACITY_BYTES: u64 = 256 << 20;

/// Parse an `A64FX_TRACE_CACHE_CAP` value: a positive byte count. Pure,
/// so garbage handling is unit-testable.
pub fn parse_capacity(raw: &str) -> Result<u64, String> {
    let s = raw.trim();
    if s.is_empty() {
        return Err("empty value".to_string());
    }
    match s.parse::<u64>() {
        Ok(0) => Err("0 bytes is not a valid capacity".to_string()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("'{s}' is not a positive byte count")),
    }
}

/// Pinned capacity override (bytes); 0 means "not pinned, follow the
/// environment".
static CAPACITY_OVERRIDE: AtomicU64 = AtomicU64::new(0);

/// Pin the in-memory capacity for this process (tests, chaos scenarios),
/// taking precedence over `A64FX_TRACE_CACHE_CAP`. `None` drops the pin.
pub fn set_capacity(cap: Option<u64>) {
    CAPACITY_OVERRIDE.store(cap.unwrap_or(0), Ordering::Relaxed);
}

/// The capacity in force: the [`set_capacity`] pin, else
/// `A64FX_TRACE_CACHE_CAP` (invalid values warn once on first use and
/// fall back), else [`DEFAULT_CAPACITY_BYTES`].
pub fn capacity() -> u64 {
    let pinned = CAPACITY_OVERRIDE.load(Ordering::Relaxed);
    if pinned > 0 {
        return pinned;
    }
    static FROM_ENV: OnceLock<u64> = OnceLock::new();
    *FROM_ENV.get_or_init(
        || match std::env::var("A64FX_TRACE_CACHE_CAP").ok().as_deref() {
            None => DEFAULT_CAPACITY_BYTES,
            Some(raw) => match parse_capacity(raw) {
                Ok(n) => n,
                Err(why) => {
                    eprintln!("warning: ignoring A64FX_TRACE_CACHE_CAP ({why}); using default");
                    DEFAULT_CAPACITY_BYTES
                }
            },
        },
    )
}

/// Pinned disk-directory override. Outer `None` = not pinned (follow
/// `A64FX_TRACE_CACHE_DIR`); `Some(None)` = pinned off.
#[allow(clippy::type_complexity)]
fn disk_override() -> &'static Mutex<Option<Option<std::path::PathBuf>>> {
    static DIR: OnceLock<Mutex<Option<Option<std::path::PathBuf>>>> = OnceLock::new();
    DIR.get_or_init(|| Mutex::new(None))
}

/// Pin the disk persistence directory for this process (the
/// `repro`-level plumbing and tests), taking precedence over
/// `A64FX_TRACE_CACHE_DIR`. `Some(None)` pins persistence off;
/// `None` drops the pin and falls back to the environment.
pub fn set_disk_dir(dir: Option<Option<std::path::PathBuf>>) {
    *disk_override()
        .lock()
        .unwrap_or_else(PoisonError::into_inner) = dir;
}

/// The disk persistence directory in force, if any: the [`set_disk_dir`]
/// pin, else `A64FX_TRACE_CACHE_DIR` (empty value = off).
pub fn disk_dir() -> Option<std::path::PathBuf> {
    if let Some(pinned) = disk_override()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
    {
        return pinned;
    }
    std::env::var("A64FX_TRACE_CACHE_DIR")
        .ok()
        .filter(|v| !v.trim().is_empty())
        .map(std::path::PathBuf::from)
}

/// Serialise users of the process-global override pins ([`set_enabled`],
/// [`set_capacity`], [`set_disk_dir`]). Tests and chaos scenarios that
/// pin-and-restore must hold this guard so concurrent pinners do not
/// interleave; the cache itself never takes it.
pub fn override_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Empty the in-memory memo table (counters are untouched). Used by
/// tests and chaos scenarios to force the disk tier or fresh rebuilds;
/// bit-transparency makes this safe at any time.
pub fn clear() {
    let mut store = table().lock().unwrap_or_else(PoisonError::into_inner);
    store.map.clear();
    store.total_cost = 0;
}

/// Bytes currently charged against the capacity.
pub fn resident_bytes() -> u64 {
    table()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .total_cost
}

/// A snapshot of the process-wide trace-cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Fetches served from the memo table.
    pub hits: u64,
    /// Fetches that had to build (or disk-load) the trace.
    pub misses: u64,
    /// Traces inserted (misses that ran with the cache enabled).
    pub inserts: u64,
    /// Entries evicted under the capacity bound.
    pub evictions: u64,
    /// Memory misses served from the disk tier.
    pub disk_loads: u64,
    /// Traces persisted to the disk tier.
    pub disk_stores: u64,
    /// Disk files refused (corruption, truncation, version skew) and
    /// silently rebuilt.
    pub disk_corrupt: u64,
}

/// Current process-wide cache totals (monotonic; disabled fetches count
/// as misses without inserts).
pub fn stats() -> CacheStats {
    CacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        inserts: INSERTS.load(Ordering::Relaxed),
        evictions: EVICTIONS.load(Ordering::Relaxed),
        disk_loads: DISK_LOADS.load(Ordering::Relaxed),
        disk_stores: DISK_STORES.load(Ordering::Relaxed),
        disk_corrupt: DISK_CORRUPT.load(Ordering::Relaxed),
    }
}

/// Fetch the trace for `(cfg, ranks)`, building it with `build` on the
/// first request and sharing the same `Arc` on every subsequent one.
/// With the cache disabled this degenerates to `Arc::new(build())` —
/// the exact uncached behaviour, minus sharing.
///
/// The bounded memory tier evicts least-recently-used entries past
/// [`capacity`] bytes (cost = [`Trace::approx_bytes`]); an evicted key
/// simply rebuilds on its next fetch — builders are pure, so eviction is
/// bit-transparent. With a disk directory configured ([`disk_dir`]), a
/// memory miss first tries the checksummed on-disk copy and falls back
/// to rebuilding on *any* refusal (missing, corrupt, version skew), then
/// persists what it built.
///
/// The build runs under the table lock: builders are microsecond-cheap
/// and this guarantees each key is built exactly once even when the
/// experiment runner fetches the same workload from several worker
/// threads at once.
pub fn fetch<C: Fingerprint>(cfg: &C, ranks: u32, build: impl FnOnce() -> Trace) -> Arc<Trace> {
    if !enabled() {
        MISSES.fetch_add(1, Ordering::Relaxed);
        if obs::enabled() {
            obs::add("trace_cache.misses", 1);
        }
        return Arc::new(build());
    }
    let key: Key = (C::APP, cfg.fingerprint(), ranks);
    let mut store = table().lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(t) = store.get(&key) {
        HITS.fetch_add(1, Ordering::Relaxed);
        if obs::enabled() {
            obs::add("trace_cache.hits", 1);
        }
        return t;
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    if obs::enabled() {
        obs::add("trace_cache.misses", 1);
    }
    let dir = disk_dir();
    // Disk tier first: a valid on-disk copy is bit-identical to a fresh
    // build (decode is exact and the builder is pure), so serving it is
    // transparent. Anything refused falls through to the builder.
    let (t, from_disk) = match &dir {
        Some(d) => match crate::tracedisk::load(d, key.0, key.1, key.2) {
            Ok(t) => {
                DISK_LOADS.fetch_add(1, Ordering::Relaxed);
                if obs::enabled() {
                    obs::add("trace_cache.disk_loads", 1);
                }
                (Arc::new(t), true)
            }
            Err(crate::tracedisk::LoadError::Missing) => (Arc::new(build()), false),
            Err(_) => {
                DISK_CORRUPT.fetch_add(1, Ordering::Relaxed);
                if obs::enabled() {
                    obs::add("trace_cache.disk_corrupt", 1);
                }
                (Arc::new(build()), false)
            }
        },
        None => (Arc::new(build()), false),
    };
    INSERTS.fetch_add(1, Ordering::Relaxed);
    if obs::enabled() {
        obs::add("trace_cache.inserts", 1);
    }
    store.insert(key, &t, capacity());
    if let (Some(d), false) = (&dir, from_disk) {
        // Best-effort persist: a full disk or unwritable directory costs
        // the amortisation, never the run.
        match crate::tracedisk::store(d, key.0, key.1, key.2, &t) {
            Ok(()) => {
                DISK_STORES.fetch_add(1, Ordering::Relaxed);
                if obs::enabled() {
                    obs::add("trace_cache.disk_stores", 1);
                }
            }
            Err(why) => eprintln!("warning: trace cache persist failed: {why}"),
        }
    }
    t
}

/// Memoized [`a64fx_apps::hpcg::trace`].
pub fn hpcg(cfg: HpcgConfig, ranks: u32) -> Arc<Trace> {
    fetch(&cfg, ranks, || a64fx_apps::hpcg::trace(cfg, ranks))
}

/// Memoized [`a64fx_apps::minikab::trace`].
pub fn minikab(cfg: MinikabConfig, ranks: u32) -> Arc<Trace> {
    fetch(&cfg, ranks, || a64fx_apps::minikab::trace(cfg, ranks))
}

/// Memoized [`a64fx_apps::nekbone::trace`].
pub fn nekbone(cfg: NekboneConfig, ranks: u32) -> Arc<Trace> {
    fetch(&cfg, ranks, || a64fx_apps::nekbone::trace(cfg, ranks))
}

/// Memoized [`a64fx_apps::cosa::trace`].
pub fn cosa(cfg: CosaConfig, ranks: u32) -> Arc<Trace> {
    fetch(&cfg, ranks, || a64fx_apps::cosa::trace(cfg, ranks))
}

/// Memoized [`a64fx_apps::castep::trace`].
pub fn castep(cfg: CastepConfig, ranks: u32) -> Arc<Trace> {
    fetch(&cfg, ranks, || a64fx_apps::castep::trace(cfg, ranks))
}

/// Memoized [`a64fx_apps::opensbli::trace`].
pub fn opensbli(cfg: OpensbliConfig, ranks: u32) -> Arc<Trace> {
    fetch(&cfg, ranks, || a64fx_apps::opensbli::trace(cfg, ranks))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests that flip the cache override must not interleave: the
    /// override is process-global state.
    fn override_guard() -> std::sync::MutexGuard<'static, ()> {
        override_lock()
    }

    #[test]
    fn fingerprints_are_stable_across_calls() {
        let cfg = HpcgConfig::paper();
        assert_eq!(cfg.fingerprint(), cfg.fingerprint());
        assert_eq!(
            HpcgConfig::paper().fingerprint(),
            HpcgConfig::paper().fingerprint()
        );
    }

    #[test]
    fn distinct_configs_get_distinct_fingerprints() {
        // Asymmetric grid, so transposing its extents changes the config
        // (the paper's (80, 80, 80) would not).
        let base = HpcgConfig {
            local: (16, 32, 48),
            ..HpcgConfig::paper()
        };
        let mut seen = vec![base.fingerprint()];
        let variants = [
            HpcgConfig {
                local: (base.local.1, base.local.0, base.local.2),
                ..base
            },
            HpcgConfig {
                local: (base.local.0 + 1, base.local.1, base.local.2),
                ..base
            },
            HpcgConfig {
                mg_levels: base.mg_levels + 1,
                ..base
            },
            HpcgConfig {
                iterations: base.iterations + 1,
                ..base
            },
            // Field-transposition trap: mg_levels and iterations swapped.
            HpcgConfig {
                mg_levels: base.iterations as usize,
                iterations: base.mg_levels as u32,
                ..base
            },
        ];
        for v in variants {
            let fp = v.fingerprint();
            assert!(!seen.contains(&fp), "collision for {v:?}");
            seen.push(fp);
        }
    }

    #[test]
    fn f64_fields_fingerprint_by_bits() {
        let base = OpensbliConfig::paper();
        let tweaked = OpensbliConfig {
            dt: base.dt * (1.0 + 1e-15),
            ..base
        };
        assert_ne!(base.fingerprint(), tweaked.fingerprint());
        let neg_zero = OpensbliConfig {
            viscosity: -0.0,
            ..base
        };
        let pos_zero = OpensbliConfig {
            viscosity: 0.0,
            ..base
        };
        assert_ne!(neg_zero.fingerprint(), pos_zero.fingerprint());
    }

    #[test]
    fn same_key_returns_pointer_equal_arc() {
        let _g = override_guard();
        set_enabled(true);
        let a = hpcg(HpcgConfig::paper(), 96);
        let b = hpcg(HpcgConfig::paper(), 96);
        assert!(Arc::ptr_eq(&a, &b), "cache must share one allocation");
        // A different rank count is a different workload.
        let c = hpcg(HpcgConfig::paper(), 48);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.ranks, 48);
        clear_override();
    }

    #[test]
    fn disabled_cache_builds_fresh_but_identical_traces() {
        let _g = override_guard();
        set_enabled(false);
        let a = nekbone(NekboneConfig::paper(), 48);
        let b = nekbone(NekboneConfig::paper(), 48);
        assert!(!Arc::ptr_eq(&a, &b), "disabled cache must not share");
        set_enabled(true);
        let cached = nekbone(NekboneConfig::paper(), 48);
        assert_eq!(*a, *cached, "cached and fresh traces must be equal");
        clear_override();
    }

    #[test]
    fn table_renders_byte_identical_cache_on_vs_off() {
        let _g = override_guard();
        set_enabled(true);
        let on = crate::experiments::run_one("t5")
            .expect("t5 exists")
            .render();
        let on_again = crate::experiments::run_one("t5")
            .expect("t5 exists")
            .render();
        set_enabled(false);
        let off = crate::experiments::run_one("t5")
            .expect("t5 exists")
            .render();
        clear_override();
        assert_eq!(on, off, "cache must not change a byte of the report");
        assert_eq!(on, on_again, "cache hits must not either");
    }

    #[test]
    fn env_value_parsing() {
        for off in ["off", "OFF", " Off ", "0", "false", "FALSE", "no"] {
            assert!(env_disables(Some(off)), "{off:?} must disable");
        }
        for on in ["on", "1", "true", "", "yes", "anything"] {
            assert!(!env_disables(Some(on)), "{on:?} must not disable");
        }
        assert!(!env_disables(None), "unset leaves the cache on");
    }

    #[test]
    fn parse_capacity_accepts_bytes_and_rejects_garbage() {
        assert_eq!(parse_capacity("1"), Ok(1));
        assert_eq!(parse_capacity(" 268435456 "), Ok(256 << 20));
        for bad in ["", "  ", "0", "-1", "64M", "lots", "1.5"] {
            assert!(parse_capacity(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn lru_eviction_is_bit_transparent() {
        let _g = override_guard();
        set_enabled(true);
        // Two distinct workloads no other test uses.
        let cfg_a = NekboneConfig {
            elements_per_rank: 31,
            poly: 5,
            iterations: 2,
        };
        let cfg_b = NekboneConfig {
            elements_per_rank: 37,
            poly: 5,
            iterations: 2,
        };
        let a1 = nekbone(cfg_a, 3);
        // Cap to just this one trace: inserting the next must evict it.
        set_capacity(Some(a1.approx_bytes() + 16));
        let before = stats();
        let _b = nekbone(cfg_b, 3);
        let a2 = nekbone(cfg_a, 3);
        let after = stats();
        set_capacity(None);
        clear_override();
        assert!(
            after.evictions > before.evictions,
            "a tiny cap must evict: {after:?}"
        );
        assert!(
            !Arc::ptr_eq(&a1, &a2),
            "the evicted entry must have been rebuilt"
        );
        assert_eq!(*a1, *a2, "evict-then-refetch must be bit-transparent");
        assert_eq!(cfg_a.fingerprint(), cfg_a.fingerprint());
    }

    #[test]
    fn oversized_trace_is_served_but_not_cached() {
        let _g = override_guard();
        set_enabled(true);
        set_capacity(Some(1)); // nothing fits
        let cfg = NekboneConfig {
            elements_per_rank: 41,
            poly: 5,
            iterations: 2,
        };
        let a = nekbone(cfg, 3);
        let b = nekbone(cfg, 3);
        set_capacity(None);
        clear_override();
        assert!(!Arc::ptr_eq(&a, &b), "nothing may be cached under cap 1");
        assert_eq!(*a, *b);
    }

    #[test]
    fn disk_tier_round_trips_and_survives_corruption() {
        let _g = override_guard();
        set_enabled(true);
        let dir =
            std::env::temp_dir().join(format!("a64fx-tracecache-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        set_disk_dir(Some(Some(dir.clone())));
        let cfg = NekboneConfig {
            elements_per_rank: 43,
            poly: 5,
            iterations: 2,
        };
        let before = stats();
        let fresh = nekbone(cfg, 3);
        let mid = stats();
        assert!(mid.disk_stores > before.disk_stores, "first build persists");
        // Drop the memory tier: the next fetch must come from disk and
        // be bit-identical to the fresh build.
        clear();
        let loaded = nekbone(cfg, 3);
        let after_load = stats();
        assert!(after_load.disk_loads > mid.disk_loads, "{after_load:?}");
        assert_eq!(*fresh, *loaded);
        // Corrupt the file: the next cold fetch must refuse it, count
        // it, and rebuild the identical trace.
        let path = crate::tracedisk::file_path(&dir, "nekbone", cfg.fingerprint(), 3);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid_byte = bytes.len() / 3;
        bytes[mid_byte] ^= 0x55;
        std::fs::write(&path, &bytes).unwrap();
        clear();
        let rebuilt = nekbone(cfg, 3);
        let after_corrupt = stats();
        // Misfile a valid 2-rank trace under the 3-rank key: the next cold
        // fetch must refuse it too, not hand a 2-rank trace to a 3-rank job.
        nekbone(cfg, 2);
        let misfiled = crate::tracedisk::file_path(&dir, "nekbone", cfg.fingerprint(), 2);
        std::fs::copy(&misfiled, &path).unwrap();
        clear();
        let rebuilt_misfiled = nekbone(cfg, 3);
        let after_misfiled = stats();
        set_disk_dir(None);
        clear_override();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            after_corrupt.disk_corrupt > after_load.disk_corrupt,
            "{after_corrupt:?}"
        );
        assert_eq!(*fresh, *rebuilt, "corruption must fall back to rebuild");
        assert!(
            after_misfiled.disk_corrupt > after_corrupt.disk_corrupt,
            "{after_misfiled:?}"
        );
        assert_eq!(
            *fresh, *rebuilt_misfiled,
            "a misfiled trace must be rebuilt"
        );
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let _g = override_guard();
        set_enabled(true);
        let before = stats();
        // A config no other test uses, so the first fetch is a miss.
        let cfg = CosaConfig {
            blocks: 13,
            block_grid: (13, 1),
            block_edge: 7,
            harmonics: 2,
            iterations: 3,
        };
        let _a = cosa(cfg, 4);
        let _b = cosa(cfg, 4);
        let after = stats();
        assert!(after.misses > before.misses);
        assert!(after.inserts > before.inserts);
        assert!(after.hits > before.hits);
        clear_override();
    }
}
