//! Parallel sharded discrete-event engine with conservative lookahead.
//!
//! The serial [`EventQueue`](crate::des::EventQueue) tops out where the
//! paper's systems did — a few thousand ranks. Fugaku-scale scenarios
//! (100k+ simulated ranks) need the event queue partitioned. This module
//! provides:
//!
//! * [`DesBackend`] — the serial/sharded selector threaded through the
//!   stack (env `A64FX_DES_BACKEND`, `repro --des-backend`);
//! * [`ShardPlan`] — a static assignment of simulation entities (ranks)
//!   to shards, derived from the topology's spatial structure via
//!   [`Topology::shard_of`];
//! * [`ShardedEventQueue`] — one [`EventQueue`](crate::des::EventQueue)
//!   per shard, advanced in conservative-lookahead windows
//!   (Chandy–Misra–Bryant style) on the persistent
//!   [`KernelPool`](densela::KernelPool) workers.
//!
//! # The lookahead rule
//!
//! Each synchronization round computes the global minimum pending event
//! time `t_min` and lets every shard process its events with
//! `time < t_min + lookahead_us`, where `lookahead_us` is a lower bound on
//! the flight time of any cross-shard message (for network simulations:
//! the minimum link latency — every wire flight costs at least that, and
//! entities sharing a node are always co-sharded so intra-node traffic
//! never crosses a shard). Any event processed in the window has
//! `time >= t_min`, so anything it emits across a shard boundary lands at
//! `time + flight >= t_min + lookahead`, i.e. strictly after the window —
//! no shard can receive a message into its past. The engine asserts this
//! bound on every cross-shard emission.
//!
//! # Determinism
//!
//! Results are bit-identical for every shard count (and every worker
//! interleaving) by construction, not by luck:
//!
//! * each entity is owned by exactly one shard, and its events are popped
//!   from that shard's queue in `(time, seq)` order — the same per-entity
//!   order the serial engine produces;
//! * root events take sequence numbers from one central counter in
//!   schedule order; handler-emitted events take sequence numbers derived
//!   injectively from `(emitting entity, per-entity emission index)` with
//!   the top bit set so the two spaces cannot collide. Both assignments
//!   are independent of the shard count and of worker timing;
//! * cross-shard messages travel through per-pair outboxes that the
//!   coordinator drains between windows in `(source shard, destination
//!   shard, time, seq)` order; since a destination queue re-sorts by
//!   `(time, seq)` anyway, delivery order cannot leak scheduling noise.
//!
//! The conform `des` suite pins serial-vs-sharded bit-identity on every
//! cell of the differential allreduce sweep; the proptests below pin the merged pop order against the
//! serial queue for random streams and shard counts.

use crate::des::EventQueue;
use crate::topology::Topology;
use densela::pool::SharedSlice;
use densela::KernelPool;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Which discrete-event engine drives a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesBackend {
    /// The single serial event queue (the default; reference semantics).
    Serial,
    /// The sharded engine with this many partitions. `Sharded { shards: 1 }`
    /// is legal and equivalent to `Serial` by construction.
    Sharded {
        /// Number of event-queue partitions.
        shards: usize,
    },
}

impl DesBackend {
    /// Parse a backend name: `"serial"` or `"sharded<N>"` (e.g.
    /// `"sharded4"`). Whitespace is trimmed; matching is case-insensitive.
    ///
    /// # Errors
    /// Returns a human-readable reason when the value is unrecognised, the
    /// shard count is not a number, or the shard count is zero.
    pub fn parse(raw: &str) -> Result<DesBackend, String> {
        let v = raw.trim().to_ascii_lowercase();
        if v == "serial" {
            return Ok(DesBackend::Serial);
        }
        if let Some(n) = v.strip_prefix("sharded") {
            if n.is_empty() {
                return Err(
                    "missing shard count: expected \"sharded<N>\", e.g. \"sharded4\"".into(),
                );
            }
            return match n.parse::<usize>() {
                Ok(0) => Err("shard count must be at least 1".into()),
                Ok(shards) => Ok(DesBackend::Sharded { shards }),
                Err(_) => Err(format!("shard count {n:?} is not a number")),
            };
        }
        Err(format!(
            "unrecognised DES backend {raw:?}: expected \"serial\" or \"sharded<N>\""
        ))
    }

    /// Number of event-queue partitions this backend runs (1 for serial).
    pub fn shards(self) -> usize {
        match self {
            DesBackend::Serial => 1,
            DesBackend::Sharded { shards } => shards,
        }
    }
}

impl std::fmt::Display for DesBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DesBackend::Serial => write!(f, "serial"),
            DesBackend::Sharded { shards } => write!(f, "sharded{shards}"),
        }
    }
}

/// Process-wide default backend, encoded as a shard count (0 = serial).
/// Mirrors the trace-cache toggle: `core::runner` resolves the
/// `A64FX_DES_BACKEND` env var / `--des-backend` flag once at startup and
/// installs the result here; simulation call sites that take no explicit
/// backend read it back.
static DEFAULT_BACKEND: AtomicUsize = AtomicUsize::new(0);

/// Install the process-wide default [`DesBackend`].
pub fn set_default_backend(backend: DesBackend) {
    let code = match backend {
        DesBackend::Serial => 0,
        DesBackend::Sharded { shards } => shards.max(1),
    };
    DEFAULT_BACKEND.store(code, Ordering::Relaxed);
}

/// The process-wide default [`DesBackend`] (serial unless installed).
pub fn default_backend() -> DesBackend {
    match DEFAULT_BACKEND.load(Ordering::Relaxed) {
        0 => DesBackend::Serial,
        shards => DesBackend::Sharded { shards },
    }
}

/// A static assignment of simulation entities to shards.
///
/// Entities are the unit of event routing (for collective simulations: MPI
/// ranks). The plan guarantees every entity index maps to a shard below
/// [`ShardPlan::shards`]; entities placed on the same compute node always
/// share a shard when built [by topology](ShardPlan::by_topology), which is
/// what makes the minimum *wire* latency a valid lookahead bound.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Home shard per entity; empty for the [single](ShardPlan::single)
    /// plan, where every entity is on shard 0.
    shard_of: Vec<u32>,
    entities: usize,
    shards: usize,
}

impl ShardPlan {
    /// Everything on one shard (the serial plan). Stores no per-entity map.
    pub fn single(entities: usize) -> Self {
        ShardPlan {
            shard_of: Vec::new(),
            entities,
            shards: 1,
        }
    }

    /// Partition entities by the topology region of their compute node:
    /// entity `e` lands on `topo.shard_of(node_of_entity[e], shards)`.
    /// Entities sharing a node are therefore always co-sharded.
    ///
    /// # Panics
    /// Panics if `shards` is zero or a node index is out of range for the
    /// topology.
    pub fn by_topology(topo: &dyn Topology, node_of_entity: &[usize], shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        let shard_of = node_of_entity
            .iter()
            .map(|&node| {
                assert!(node < topo.num_nodes(), "node {node} outside topology");
                topo.shard_of(node, shards) as u32
            })
            .collect();
        Self::by_map(shard_of, shards)
    }

    /// Build from an explicit entity→shard map.
    ///
    /// # Panics
    /// Panics if `shards` is zero or any entry is `>= shards`.
    pub fn by_map(shard_of: Vec<u32>, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(
            shard_of.iter().all(|&s| (s as usize) < shards),
            "shard map entry out of range"
        );
        ShardPlan {
            entities: shard_of.len(),
            shard_of,
            shards,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of entities covered by the plan.
    pub fn entities(&self) -> usize {
        self.entities
    }

    /// Home shard of an entity.
    ///
    /// # Panics
    /// Panics if `entity` is not below [`Self::entities`]; [`Ctx::state`]
    /// relies on this check to keep its state access in bounds.
    pub fn shard_of(&self, entity: usize) -> usize {
        assert!(
            entity < self.entities,
            "entity {entity} outside a plan of {} entities",
            self.entities
        );
        self.shard_of.get(entity).map_or(0, |&s| s as usize)
    }
}

/// Aggregate statistics of one [`ShardedEventQueue::run`].
///
/// `windows` and `events` are invariant under the shard count (the window
/// horizon sequence depends only on event times, which are themselves
/// backend-invariant), so they are safe to print in pinned experiment
/// tables. `stalls` and `cross_msgs` genuinely depend on the partition and
/// belong in observability output and benchmarks only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Synchronization rounds (lookahead windows) executed.
    pub windows: u64,
    /// (window, shard) pairs where a shard held pending events but none
    /// below the window horizon — idle workers waiting on the lookahead.
    pub stalls: u64,
    /// Messages that crossed a shard boundary through the mailboxes.
    pub cross_msgs: u64,
    /// Events processed in total.
    pub events: u64,
}

/// Sequence numbers of handler-emitted events set this bit; root events
/// (central counter) never reach it. The two seq spaces cannot collide.
const DERIVED_SEQ_BIT: u64 = 1 << 63;
/// Bits reserved for the per-entity emission index in a derived seq.
const EMIT_BITS: u32 = 40;

/// Injective, shard-count-independent sequence number for the `k`-th
/// emission of `entity`. Injectivity (not just good hashing) is what makes
/// the `(time, seq)` total order — and therefore every tie-break — exactly
/// reproducible across backends.
fn derived_seq(entity: usize, k: u64) -> u64 {
    assert!(
        (entity as u64) < 1 << (63 - EMIT_BITS),
        "entity {entity} too large for the derived-seq encoding"
    );
    assert!(k < 1 << EMIT_BITS, "entity {entity} emitted 2^40 events");
    DERIVED_SEQ_BIT | ((entity as u64) << EMIT_BITS) | k
}

/// A cross-shard message parked in its source shard's outbox until the
/// coordinator drains the mailboxes at the window barrier.
struct OutMsg<T> {
    dst_shard: usize,
    time_us: f64,
    seq: u64,
    entity: u32,
    payload: T,
}

/// One partition: its event queue, its outbox, and its run counters.
/// Counters aggregate here because pool worker lanes have no ambient obs
/// recorder (it is thread-local); the coordinator emits the totals. Queued
/// events carry their entity as `u32` (the engine refuses larger plans),
/// which keeps an event with a 4-byte payload at 24 bytes.
struct Shard<T> {
    queue: EventQueue<(u32, T)>,
    outbox: Vec<OutMsg<T>>,
    events: u64,
    cross: u64,
    stalls: u64,
}

/// Handler-side view of the engine while one event is being processed:
/// grants mutable access to the owning shard's entity states and lets the
/// handler emit follow-up events (locally or across shards).
pub struct Ctx<'a, S, T> {
    shard_idx: usize,
    plan: &'a ShardPlan,
    states: &'a SharedSlice<'a, S>,
    emit_counts: &'a SharedSlice<'a, u64>,
    queue: &'a mut EventQueue<(u32, T)>,
    outbox: &'a mut Vec<OutMsg<T>>,
    cross: &'a mut u64,
    window_end_us: f64,
    time_us: f64,
    seq: u64,
    entity: usize,
}

impl<S, T> Ctx<'_, S, T> {
    /// The entity whose event is being processed.
    pub fn entity(&self) -> usize {
        self.entity
    }

    /// Virtual time of the event being processed.
    pub fn time_us(&self) -> f64 {
        self.time_us
    }

    /// Sequence number of the event being processed.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Mutable access to an entity's state. Only entities homed on the
    /// current shard are reachable — that ownership discipline is exactly
    /// what makes concurrent shard processing sound.
    ///
    /// # Panics
    /// Panics if `entity` lives on another shard.
    pub fn state(&mut self, entity: usize) -> &mut S {
        assert_eq!(
            self.plan.shard_of(entity),
            self.shard_idx,
            "cross-shard state access: entity {entity} is not homed on shard {}",
            self.shard_idx
        );
        // SAFETY: shards own disjoint entity sets (checked above) and one
        // shard is processed by one lane at a time, so this index cannot be
        // touched concurrently.
        &mut (unsafe { self.states.range_mut(entity, entity + 1) })[0]
    }

    /// Emit a follow-up event for `dst` at absolute time `time_us`.
    ///
    /// Same-shard events go straight onto the local queue (and may still be
    /// processed inside the current window). Cross-shard events are parked
    /// in the outbox for the coordinator to deliver at the window barrier —
    /// and must land at or after the window horizon, which is guaranteed
    /// whenever the flight time to another shard is at least the engine's
    /// configured lookahead.
    ///
    /// # Panics
    /// Panics if `time_us` is not finite, precedes the current event, or —
    /// for a cross-shard destination — violates the lookahead bound.
    pub fn emit(&mut self, dst: usize, time_us: f64, payload: T) {
        assert!(
            time_us.is_finite() && time_us >= self.time_us,
            "emission at {time_us} precedes the event being processed at {}",
            self.time_us
        );
        // SAFETY: the emitting entity is homed here (it is the one whose
        // event we are processing), so its counter is lane-exclusive.
        let counter = &mut (unsafe { self.emit_counts.range_mut(self.entity, self.entity + 1) })[0];
        let k = *counter;
        *counter += 1;
        let seq = derived_seq(self.entity, k);
        // `shard_of` bounds `dst` by the plan, which fits `u32`.
        let dst_shard = self.plan.shard_of(dst);
        if dst_shard == self.shard_idx {
            self.queue
                .schedule_with_seq(time_us, seq, (dst as u32, payload));
        } else {
            assert!(
                time_us >= self.window_end_us,
                "lookahead violation: cross-shard message at {time_us} lands inside the \
                 window ending at {} — the configured lookahead exceeds this pair's flight time",
                self.window_end_us
            );
            *self.cross += 1;
            self.outbox.push(OutMsg {
                dst_shard,
                time_us,
                seq,
                entity: dst as u32,
                payload,
            });
        }
    }
}

/// A partitioned event queue advanced in conservative-lookahead windows.
///
/// See the [module docs](self) for the synchronization protocol and the
/// determinism argument. `Serial` callers use the same engine with a
/// [single-shard plan](ShardPlan::single): the window loop degenerates to
/// plain serial processing (no pool dispatch) but follows the identical
/// horizon schedule, so even the `windows` statistic matches the sharded
/// runs bit for bit.
pub struct ShardedEventQueue<T> {
    plan: ShardPlan,
    lookahead_us: f64,
    shards: Vec<Shard<T>>,
    emit_counts: Vec<u64>,
    next_root_seq: u64,
}

impl<T: Send> ShardedEventQueue<T> {
    /// Build an engine over `plan` with the given lookahead (a lower bound
    /// on every cross-shard flight time, in microseconds).
    ///
    /// # Panics
    /// Panics if `lookahead_us` is not finite and positive — a zero
    /// lookahead would make the window loop unable to guarantee progress —
    /// or if the plan has more than `u32::MAX` entities.
    pub fn new(plan: ShardPlan, lookahead_us: f64) -> Self {
        assert!(
            lookahead_us.is_finite() && lookahead_us > 0.0,
            "lookahead must be a positive finite time, got {lookahead_us}"
        );
        assert!(
            plan.entities() <= u32::MAX as usize,
            "{} entities do not fit the engine's u32 entity ids",
            plan.entities()
        );
        let shards = (0..plan.shards())
            .map(|_| Shard {
                queue: EventQueue::new(),
                outbox: Vec::new(),
                events: 0,
                cross: 0,
                stalls: 0,
            })
            .collect();
        let emit_counts = vec![0u64; plan.entities()];
        ShardedEventQueue {
            plan,
            lookahead_us,
            shards,
            emit_counts,
            next_root_seq: 0,
        }
    }

    /// Build for a backend over a topology: `Serial` gets the single-shard
    /// plan, `Sharded { shards }` partitions `node_of_entity` by
    /// [`Topology::shard_of`] region.
    pub fn for_backend(
        backend: DesBackend,
        topo: &dyn Topology,
        node_of_entity: &[usize],
        lookahead_us: f64,
    ) -> Self {
        let plan = match backend {
            DesBackend::Serial => ShardPlan::single(node_of_entity.len()),
            DesBackend::Sharded { shards } => ShardPlan::by_topology(topo, node_of_entity, shards),
        };
        Self::new(plan, lookahead_us)
    }

    /// The entity→shard assignment in use.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Schedule a root event for `entity` at absolute time `time_us`.
    /// Root events take sequence numbers from a central counter in call
    /// order, exactly as the serial [`EventQueue`](crate::des::EventQueue)
    /// would number them.
    ///
    /// # Panics
    /// Panics under the [`EventQueue::schedule_at`] time contract
    /// (finite, not in the past).
    pub fn schedule_at(&mut self, entity: usize, time_us: f64, payload: T) {
        let seq = self.next_root_seq;
        assert!(seq < DERIVED_SEQ_BIT, "root sequence space exhausted");
        self.next_root_seq += 1;
        let shard = self.plan.shard_of(entity);
        self.shards[shard]
            .queue
            .schedule_with_seq(time_us, seq, (entity as u32, payload));
    }

    /// Total pending events across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).sum()
    }

    /// Whether no events are pending on any shard.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.queue.is_empty())
    }

    /// Drain every pending event through `handler`, advancing all shards
    /// in conservative-lookahead windows on the pool's worker lanes.
    ///
    /// `states[e]` is entity `e`'s private state; the handler reaches it
    /// through [`Ctx::state`] and emits follow-up events through
    /// [`Ctx::emit`]. With a single-shard plan (or a single-lane pool) the
    /// loop runs inline on the caller thread with no pool dispatch.
    ///
    /// Counter totals (`des.shard.*`) and one summary span are emitted to
    /// the ambient obs recorder from the coordinator thread only — worker
    /// lanes see no recorder, and per-shard tallies are aggregated
    /// deterministically regardless.
    ///
    /// # Panics
    /// Panics if `states` does not cover every entity in the plan, or if a
    /// cross-shard emission violates the lookahead bound.
    pub fn run<S, F>(&mut self, pool: &KernelPool, states: &mut [S], handler: F) -> RunStats
    where
        S: Send,
        F: for<'c> Fn(&mut Ctx<'c, S, T>, f64, usize, T) + Sync,
    {
        assert!(
            states.len() >= self.plan.entities(),
            "need one state per entity: {} states for {} entities",
            states.len(),
            self.plan.entities()
        );
        let nshards = self.plan.shards();
        for sh in &mut self.shards {
            sh.events = 0;
            sh.cross = 0;
            sh.stalls = 0;
        }
        let mut windows = 0u64;
        loop {
            let t_min = self
                .shards
                .iter()
                .filter_map(|s| s.queue.peek_time_us())
                .fold(f64::INFINITY, f64::min);
            if !t_min.is_finite() {
                break;
            }
            let window_end_us = t_min + self.lookahead_us;
            windows += 1;
            {
                let plan = &self.plan;
                let shard_view = SharedSlice::new(&mut self.shards);
                let state_view = SharedSlice::new(states);
                let count_view = SharedSlice::new(&mut self.emit_counts);
                let handler = &handler;
                let process = |shard_idx: usize| {
                    // SAFETY: each shard index is visited by exactly one
                    // lane per window (strided assignment below).
                    let shard = &mut (unsafe { shard_view.range_mut(shard_idx, shard_idx + 1) })[0];
                    process_window(
                        shard,
                        shard_idx,
                        plan,
                        &state_view,
                        &count_view,
                        window_end_us,
                        handler,
                    );
                };
                if nshards == 1 || pool.threads() == 1 {
                    (0..nshards).for_each(process);
                } else {
                    let lanes = pool.threads();
                    pool.run(|lane| {
                        let mut s = lane;
                        while s < nshards {
                            process(s);
                            s += lanes;
                        }
                    });
                }
            }
            // Window barrier: the coordinator drains every per-pair
            // mailbox in (src, dst, time, seq) order. Destination queues
            // re-sort by (time, seq), so this order is a determinism
            // statement, not a correctness requirement — and delivery can
            // never violate causality because every parked message lands
            // at or after the horizon no shard clock has passed.
            for src in 0..nshards {
                let mut outbox = std::mem::take(&mut self.shards[src].outbox);
                outbox.sort_by(|a, b| {
                    a.dst_shard
                        .cmp(&b.dst_shard)
                        .then(a.time_us.total_cmp(&b.time_us))
                        .then(a.seq.cmp(&b.seq))
                });
                for m in outbox.drain(..) {
                    self.shards[m.dst_shard].queue.schedule_with_seq(
                        m.time_us,
                        m.seq,
                        (m.entity, m.payload),
                    );
                }
                self.shards[src].outbox = outbox; // keep the allocation
            }
        }
        let stats = RunStats {
            windows,
            stalls: self.shards.iter().map(|s| s.stalls).sum(),
            cross_msgs: self.shards.iter().map(|s| s.cross).sum(),
            events: self.shards.iter().map(|s| s.events).sum(),
        };
        if obs::enabled() {
            obs::add("des.shard.windows", stats.windows);
            obs::add("des.shard.stalls", stats.stalls);
            obs::add("des.shard.cross_msgs", stats.cross_msgs);
            // Per-backend event totals: by construction equal to the
            // serial engine's `des.events.popped` for the same run (the
            // `sharded` conform suite asserts that equality).
            obs::add("des.shard.events", stats.events);
            let end_us = self
                .shards
                .iter()
                .map(|s| s.queue.now_us())
                .fold(0.0, f64::max);
            obs::span(
                "des",
                "des.shard.run",
                0.0,
                end_us,
                &[
                    ("shards", obs::AttrValue::U64(nshards as u64)),
                    ("windows", obs::AttrValue::U64(stats.windows)),
                    ("events", obs::AttrValue::U64(stats.events)),
                ],
            );
        }
        stats
    }
}

/// Process one shard's slice of a window: pop events strictly below the
/// horizon and hand them (with a fresh [`Ctx`]) to the handler.
fn process_window<S, T, F>(
    shard: &mut Shard<T>,
    shard_idx: usize,
    plan: &ShardPlan,
    states: &SharedSlice<'_, S>,
    emit_counts: &SharedSlice<'_, u64>,
    window_end_us: f64,
    handler: &F,
) where
    F: for<'c> Fn(&mut Ctx<'c, S, T>, f64, usize, T),
{
    let Shard {
        queue,
        outbox,
        events,
        cross,
        stalls,
    } = shard;
    let mut processed = 0u64;
    while queue.peek_time_us().is_some_and(|t| t < window_end_us) {
        let ev = queue.pop().expect("peeked event pops");
        let (entity, payload) = ev.payload;
        let entity = entity as usize;
        debug_assert_eq!(plan.shard_of(entity), shard_idx, "event routed off-shard");
        processed += 1;
        let mut ctx = Ctx {
            shard_idx,
            plan,
            states,
            emit_counts,
            queue,
            outbox,
            cross,
            window_end_us,
            time_us: ev.time_us,
            seq: ev.seq,
            entity,
        };
        handler(&mut ctx, ev.time_us, entity, payload);
    }
    *events += processed;
    if processed == 0 && !queue.is_empty() {
        *stalls += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn pool2() -> &'static KernelPool {
        static POOL: OnceLock<KernelPool> = OnceLock::new();
        POOL.get_or_init(|| KernelPool::new(2))
    }

    /// Single-lane pool for the `should_panic` tests: a multi-lane pool
    /// wraps lane panics in its own "kernel pool job panicked" message,
    /// hiding the engine's diagnostic we want to assert on.
    fn pool1() -> &'static KernelPool {
        static POOL: OnceLock<KernelPool> = OnceLock::new();
        POOL.get_or_init(|| KernelPool::new(1))
    }

    #[test]
    fn backend_parses_and_displays() {
        assert_eq!(DesBackend::parse("serial"), Ok(DesBackend::Serial));
        assert_eq!(DesBackend::parse(" SERIAL "), Ok(DesBackend::Serial));
        assert_eq!(
            DesBackend::parse("sharded4"),
            Ok(DesBackend::Sharded { shards: 4 })
        );
        assert_eq!(
            DesBackend::parse("Sharded2"),
            Ok(DesBackend::Sharded { shards: 2 })
        );
        assert!(DesBackend::parse("sharded0").is_err());
        assert!(DesBackend::parse("sharded")
            .unwrap_err()
            .contains("shard count"));
        assert!(DesBackend::parse("shardedx")
            .unwrap_err()
            .contains("not a number"));
        assert!(DesBackend::parse("parallel")
            .unwrap_err()
            .contains("unrecognised"));
        assert_eq!(DesBackend::Serial.to_string(), "serial");
        assert_eq!(DesBackend::Sharded { shards: 8 }.to_string(), "sharded8");
        assert_eq!(DesBackend::Serial.shards(), 1);
        assert_eq!(DesBackend::Sharded { shards: 3 }.shards(), 3);
    }

    #[test]
    fn default_backend_round_trips() {
        // Serial unless somebody installed something else; restore after.
        let before = default_backend();
        set_default_backend(DesBackend::Sharded { shards: 4 });
        assert_eq!(default_backend(), DesBackend::Sharded { shards: 4 });
        set_default_backend(DesBackend::Serial);
        assert_eq!(default_backend(), DesBackend::Serial);
        set_default_backend(before);
    }

    #[test]
    fn plan_by_topology_co_shards_node_mates() {
        let topo = crate::topology::Torus6d::tofu_d(96);
        // 4 ranks per node over 24 nodes.
        let node_of_rank: Vec<usize> = (0..96).map(|r| r / 4).collect();
        let plan = ShardPlan::by_topology(&topo, &node_of_rank, 4);
        assert_eq!(plan.entities(), 96);
        for r in 0..96 {
            assert_eq!(
                plan.shard_of(r),
                plan.shard_of((r / 4) * 4),
                "rank {r} split from its node mates"
            );
            assert!(plan.shard_of(r) < 4);
        }
    }

    /// Per-entity event log used by the determinism tests.
    type Log = Vec<(u64, u64, usize)>; // (time bits, seq, id)

    #[test]
    fn sharded_run_matches_single_shard_bit_for_bit() {
        // A two-phase simulation: root events fan out echoes to a partner
        // entity at +flight, which fan out one more. Cross-entity flights
        // are all >= the lookahead, so any partition is legal.
        let entities = 16usize;
        let lookahead = 1.0;
        let run = |plan: ShardPlan, pool: &KernelPool| -> (Vec<Log>, RunStats) {
            let mut q: ShardedEventQueue<(usize, u32)> = ShardedEventQueue::new(plan, lookahead);
            for e in 0..entities {
                q.schedule_at(e, e as f64 * 0.25, (e, 2));
            }
            let mut states: Vec<Log> = vec![Vec::new(); entities];
            let stats = q.run(pool, &mut states, |ctx, t, e, (id, hops)| {
                let seq = ctx.seq();
                ctx.state(e).push((t.to_bits(), seq, id));
                if hops > 0 {
                    let dst = (e + 7) % entities;
                    ctx.emit(dst, t + 1.0 + (id % 3) as f64, (id, hops - 1));
                }
            });
            (states, stats)
        };
        let (base_states, base_stats) = run(ShardPlan::single(entities), pool2());
        for shards in [2usize, 4, 5] {
            let map: Vec<u32> = (0..entities).map(|e| (e % shards) as u32).collect();
            let (states, stats) = run(ShardPlan::by_map(map, shards), pool2());
            assert_eq!(states, base_states, "{shards} shards diverged");
            assert_eq!(stats.windows, base_stats.windows, "windows not invariant");
            assert_eq!(stats.events, base_stats.events, "events not invariant");
        }
        assert_eq!(
            base_stats.cross_msgs, 0,
            "single shard has no mailbox traffic"
        );
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn cross_shard_emission_below_lookahead_panics() {
        let plan = ShardPlan::by_map(vec![0, 1], 2);
        let mut q: ShardedEventQueue<()> = ShardedEventQueue::new(plan, 5.0);
        q.schedule_at(0, 0.0, ());
        let mut states = vec![(), ()];
        q.run(pool1(), &mut states, |ctx, t, _e, ()| {
            // Flight of 1.0 < lookahead of 5.0: the conservative window
            // cannot be safe, and the engine must say so loudly.
            ctx.emit(1, t + 1.0, ());
        });
    }

    #[test]
    #[should_panic(expected = "cross-shard state access")]
    fn touching_foreign_state_panics() {
        let plan = ShardPlan::by_map(vec![0, 1], 2);
        let mut q: ShardedEventQueue<()> = ShardedEventQueue::new(plan, 1.0);
        q.schedule_at(0, 0.0, ());
        let mut states = vec![0u8, 0u8];
        q.run(pool1(), &mut states, |ctx, _t, _e, ()| {
            *ctx.state(1) = 1;
        });
    }

    #[test]
    fn single_plan_homes_its_entities_on_shard_zero() {
        let plan = ShardPlan::single(4);
        assert_eq!((plan.entities(), plan.shards()), (4, 1));
        assert!((0..4).all(|e| plan.shard_of(e) == 0));
        let beyond = std::panic::catch_unwind(|| plan.shard_of(4));
        assert!(beyond.is_err(), "entity 4 is outside the plan");
    }

    #[test]
    #[should_panic(expected = "outside a plan of 2 entities")]
    fn state_access_beyond_a_single_shard_plan_panics() {
        // The state slice ends where the plan does, so this is the check
        // that keeps `Ctx::state` from reading past it.
        let mut q: ShardedEventQueue<()> = ShardedEventQueue::new(ShardPlan::single(2), 1.0);
        q.schedule_at(0, 0.0, ());
        let mut states = vec![0u8; 2];
        q.run(pool1(), &mut states, |ctx, _t, _e, ()| {
            *ctx.state(2) = 1;
        });
    }

    #[test]
    fn stalls_and_cross_traffic_are_counted() {
        // Entity 0 (shard 0) pings entity 1 (shard 1) far in the future:
        // shard 1 stalls while shard 0's ladder drains.
        let plan = ShardPlan::by_map(vec![0, 1], 2);
        let mut q: ShardedEventQueue<u32> = ShardedEventQueue::new(plan, 1.0);
        q.schedule_at(0, 0.0, 3);
        q.schedule_at(1, 100.0, 0);
        let mut states = vec![0u32; 2];
        let stats = q.run(pool2(), &mut states, |ctx, t, e, hops| {
            *ctx.state(e) += 1;
            if hops > 0 {
                ctx.emit(1 - e, t + 2.0, hops - 1);
            }
        });
        assert_eq!(stats.cross_msgs, 3);
        assert!(stats.stalls > 0, "the far-future shard must stall");
        assert_eq!(stats.events, 5);
        assert_eq!(states, vec![2, 3]);
    }

    #[test]
    fn coordinator_emits_obs_counters_and_span() {
        let rec = std::sync::Arc::new(obs::MemRecorder::new());
        obs::with_recorder(rec.clone(), || {
            let plan = ShardPlan::by_map(vec![0, 1], 2);
            let mut q: ShardedEventQueue<u32> = ShardedEventQueue::new(plan, 1.0);
            q.schedule_at(0, 0.0, 2);
            let mut states = vec![0u32; 2];
            q.run(pool2(), &mut states, |ctx, t, e, hops| {
                *ctx.state(e) += 1;
                if hops > 0 {
                    ctx.emit(1 - e, t + 1.5, hops - 1);
                }
            });
        });
        assert!(rec.counter("des.shard.windows").unwrap_or(0) > 0);
        assert_eq!(rec.counter("des.shard.cross_msgs"), Some(2));
        let spans = rec.spans();
        assert!(spans
            .iter()
            .any(|s| s.cat == "des" && s.name == "des.shard.run"));
    }

    #[test]
    fn empty_engine_runs_zero_windows() {
        let mut q: ShardedEventQueue<()> = ShardedEventQueue::new(ShardPlan::single(4), 1.0);
        let mut states = vec![(); 4];
        let stats = q.run(pool2(), &mut states, |_ctx, _t, _e, ()| {});
        assert_eq!(stats, RunStats::default());
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn pool2() -> &'static KernelPool {
        static POOL: OnceLock<KernelPool> = OnceLock::new();
        POOL.get_or_init(|| KernelPool::new(2))
    }

    /// Serial reference order for a root event stream: the plain
    /// [`EventQueue`] numbers them 0,1,2,… and pops in `(time, seq)` order.
    fn serial_pop_order(events: &[(f64, usize)]) -> Vec<(u64, u64, usize)> {
        let mut serial = EventQueue::new();
        for (id, (t, e)) in events.iter().enumerate() {
            serial.schedule_at(*t, (*e, id));
        }
        let mut order = Vec::new();
        while let Some(ev) = serial.pop() {
            order.push((ev.time_us.to_bits(), ev.seq, ev.payload.1));
        }
        order
    }

    /// Run the same stream through a sharded partition and return the
    /// merge of every shard's processed events, sorted by `(time, seq)`.
    fn merged_sharded_order(
        events: &[(f64, usize)],
        entities: usize,
        shards: usize,
    ) -> (Vec<(u64, u64, usize)>, RunStats) {
        let map: Vec<u32> = (0..entities)
            .map(|e| ((e * 7 + 3) % shards) as u32)
            .collect();
        let mut q: ShardedEventQueue<usize> =
            ShardedEventQueue::new(ShardPlan::by_map(map, shards), 0.5);
        for (id, (t, e)) in events.iter().enumerate() {
            q.schedule_at(*e, *t, id);
        }
        let mut states: Vec<Vec<(u64, u64, usize)>> = vec![Vec::new(); entities];
        let stats = q.run(pool2(), &mut states, |ctx, t, e, id| {
            let rec = (t.to_bits(), ctx.seq(), id);
            ctx.state(e).push(rec);
        });
        let mut merged: Vec<(u64, u64, usize)> = states.into_iter().flatten().collect();
        merged.sort_by(|a, b| {
            f64::from_bits(a.0)
                .total_cmp(&f64::from_bits(b.0))
                .then(a.1.cmp(&b.1))
        });
        (merged, stats)
    }

    /// Echo-ladder run used by the lookahead-bound property: every emitted
    /// flight is `flight_scale >= 1` multiples of the lookahead, i.e. the
    /// min-latency bound holds by construction.
    fn echo_run(
        roots: &[(f64, usize, u32)],
        entities: usize,
        shard_count: usize,
        lookahead: f64,
        flight_scale: u32,
    ) -> (Vec<Vec<u64>>, RunStats) {
        let map: Vec<u32> = (0..entities).map(|e| (e % shard_count) as u32).collect();
        let mut q: ShardedEventQueue<u32> =
            ShardedEventQueue::new(ShardPlan::by_map(map, shard_count), lookahead);
        for (t, e, hops) in roots {
            q.schedule_at(*e, *t, *hops);
        }
        let mut states: Vec<Vec<u64>> = vec![Vec::new(); entities];
        let stats = q.run(pool2(), &mut states, |ctx, t, e, hops| {
            ctx.state(e).push(t.to_bits());
            if hops > 0 {
                let flight = lookahead * f64::from(flight_scale);
                ctx.emit((e + 5) % entities, t + flight, hops - 1);
            }
        });
        (states, stats)
    }

    proptest! {
        // The satellite-3 property: merging every shard's processed events
        // and sorting by (time, seq) reproduces the serial queue's pop
        // order *exactly* — same times, same seqs, same payloads — for
        // random event streams and shard counts.
        #[test]
        fn merged_sharded_order_equals_serial_pop_order(
            events in proptest::collection::vec((0.0f64..1000.0, 0usize..24), 1..120),
            shards in 1usize..6,
        ) {
            let serial_order = serial_pop_order(&events);
            let (merged, stats) = merged_sharded_order(&events, 24, shards);
            prop_assert_eq!(stats.events as usize, events.len());
            prop_assert_eq!(merged, serial_order);
        }

        // Lookahead windows never violate the min-latency bound: as long
        // as every cross-entity flight is at least the lookahead, runs
        // complete (no assert trips), deliver every event, and produce
        // states identical to the single-shard reference.
        #[test]
        fn lookahead_windows_respect_min_latency_bound(
            roots in proptest::collection::vec((0.0f64..50.0, 0usize..12, 1u32..4), 1..40),
            shards in 2usize..5,
            flight_scale in 1u32..5,
        ) {
            let (base, base_stats) = echo_run(&roots, 12, 1, 2.0, flight_scale);
            let (got, stats) = echo_run(&roots, 12, shards, 2.0, flight_scale);
            prop_assert_eq!(got, base);
            prop_assert_eq!(stats.windows, base_stats.windows);
            prop_assert_eq!(stats.events, base_stats.events);
        }
    }
}
