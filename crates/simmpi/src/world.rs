//! The simulated MPI world: per-rank virtual clocks driven by compute and
//! communication events.
//!
//! Applications describe their execution as a sequence of steps — compute
//! phases (whose duration the caller obtains from the roofline cost model),
//! point-to-point exchanges (halo patterns), and collectives. `World`
//! advances each rank's clock accordingly; the job's runtime is the maximum
//! clock at the end. Load imbalance (e.g. COSA's uneven block distribution)
//! appears naturally: ranks with more work arrive late at the next
//! collective and everyone else waits.

use std::collections::HashMap;

use archsim::Node;
use faultsim::{FaultSchedule, LinkFaults, RetryPolicy};
use netsim::{Network, Route, RouteTally};

use crate::collcache;
use crate::collectives;
use crate::placement::Placement;

/// Cache keys for the collective memo table: one code per collective op,
/// so e.g. an 8-byte allreduce and the barrier (internally an 8-byte
/// allreduce) keep distinct entries.
const OP_ALLREDUCE: u8 = 0;
const OP_BCAST: u8 = 1;
const OP_BARRIER: u8 = 2;
const OP_ALLGATHER: u8 = 3;
const OP_ALLTOALL: u8 = 4;

/// World-level fault state: what an installed [`FaultSchedule`] means for
/// this job's ranks and nodes. Held separately from the schedule so the
/// fault-free path pays nothing.
struct WorldFaults {
    /// Per-rank compute-time multiplier (straggler jitter), `>= 1`.
    straggler_mult: Vec<f64>,
    /// Per-node crash instant, µs (`None` = the node survives).
    crash_us: Vec<Option<f64>>,
    /// Per-node memory-bandwidth factor (memory-pressure derate), `<= 1`.
    mem_derate: Vec<f64>,
}

/// A simulated MPI job: a network, a placement and one clock per rank.
pub struct World {
    net: Network,
    placement: Placement,
    clock_us: Vec<f64>,
    node_map: Vec<usize>,
    /// Per-rank cumulative time spent waiting (skew absorbed at sync points).
    wait_us: Vec<f64>,
    /// Per-rank cumulative compute time.
    compute_us: Vec<f64>,
    /// Per-rank liveness (ULFM shrink). All-true until a crash is absorbed.
    alive: Vec<bool>,
    /// Installed fault state; `None` is the exact pre-fault code path.
    faults: Option<WorldFaults>,
    /// Completed shrink-and-recover operations.
    recoveries: u32,
    /// Memoized closed-form collective durations, keyed `(op, bytes)`;
    /// each entry carries its last-use tick for LRU eviction. The closed
    /// forms depend only on the network and the live node map, so
    /// entries stay valid until [`World::shrink_failed`] changes the
    /// live set (which clears the table).
    coll_cache: HashMap<(u8, u64), (f64, u64)>,
    /// Logical clock for `coll_cache` last-use stamps.
    coll_tick: u64,
    /// Entry-count bound on `coll_cache` (see
    /// [`World::set_coll_cache_cap`]). Eviction is bit-transparent: a
    /// re-computed entry is the identical `f64`.
    coll_cache_cap: usize,
    /// Per-rank arrival scratch for [`World::exchange_planned`], kept so
    /// an exchange allocates nothing.
    arrivals: Vec<f64>,
}

/// Point-to-point messages routed by [`World::plan_halo`], in posting
/// order.
#[derive(Debug)]
pub struct P2pPlan {
    msgs: Vec<PlannedMsg>,
}

#[derive(Debug)]
struct PlannedMsg {
    src: u32,
    dst: u32,
    route: Route,
}

/// Default `coll_cache` entry bound. The paper's workloads memoize tens
/// of distinct `(op, bytes)` tuples per world, so 4096 is pure insurance
/// against adversarial byte distributions (e.g. a sweep feeding a fresh
/// message size every call) growing a long-lived world without limit.
pub const DEFAULT_COLL_CACHE_CAP: usize = 4096;

impl World {
    /// Create a world for `placement` on `net`. The network must span at
    /// least `placement.nodes_used()` nodes.
    pub fn new(net: Network, placement: Placement) -> Self {
        assert!(
            net.topology().num_nodes() >= placement.nodes_used() as usize,
            "network smaller than the job: {} nodes < {}",
            net.topology().num_nodes(),
            placement.nodes_used()
        );
        let n = placement.ranks() as usize;
        let node_map = placement.node_map();
        World {
            net,
            placement,
            clock_us: vec![0.0; n],
            node_map,
            wait_us: vec![0.0; n],
            compute_us: vec![0.0; n],
            alive: vec![true; n],
            faults: None,
            recoveries: 0,
            coll_cache: HashMap::new(),
            coll_tick: 0,
            coll_cache_cap: DEFAULT_COLL_CACHE_CAP,
            arrivals: Vec::with_capacity(n),
        }
    }

    /// Bound the collective-time memo table to `cap` entries (at least
    /// 1); at the bound, the least-recently-used entry is evicted.
    /// Eviction is bit-transparent — re-computing an evicted entry
    /// returns the identical `f64` — so this only trades wall-clock time
    /// for memory.
    pub fn set_coll_cache_cap(&mut self, cap: usize) {
        self.coll_cache_cap = cap.max(1);
        while self.coll_cache.len() > self.coll_cache_cap {
            self.evict_coll_lru();
        }
    }

    /// Evict the least-recently-used `coll_cache` entry.
    fn evict_coll_lru(&mut self) {
        if let Some(key) = self
            .coll_cache
            .iter()
            .min_by_key(|(_, &(_, tick))| tick)
            .map(|(&k, _)| k)
        {
            self.coll_cache.remove(&key);
            collcache::record_eviction();
        }
    }

    /// Install a fault schedule: straggler multipliers stretch this
    /// world's compute phases, node crash times feed
    /// [`World::poll_failed`], memory derates shrink
    /// [`World::rank_bw_share_gbs`], and the schedule's message-drop /
    /// link-degradation state is installed into the network under `retry`.
    ///
    /// Installing an *empty* schedule (e.g. [`FaultSchedule::none`]) is
    /// bit-identical to never calling this at all — the fault layer is
    /// strictly additive.
    ///
    /// # Panics
    /// Panics if the schedule was generated for a different rank count or
    /// for fewer nodes than the placement uses.
    pub fn install_faults(&mut self, sched: &FaultSchedule, retry: RetryPolicy) {
        assert_eq!(
            sched.nranks,
            self.placement.ranks(),
            "schedule keyed to a different rank count"
        );
        assert!(
            sched.nodes >= self.placement.nodes_used() as usize,
            "schedule spans fewer nodes than the job"
        );
        self.faults = Some(WorldFaults {
            straggler_mult: sched.straggler_mult.clone(),
            crash_us: sched.crash_times_us(),
            mem_derate: sched.mem_derate.clone(),
        });
        self.net.set_faults(LinkFaults::new(sched.clone(), retry));
    }

    /// Whether `rank` is still a member of the (possibly shrunk) job.
    pub fn is_alive(&self, rank: u32) -> bool {
        self.alive[rank as usize]
    }

    /// Ranks still alive.
    pub fn alive_ranks(&self) -> u32 {
        self.alive.iter().filter(|&&a| a).count() as u32
    }

    /// Completed shrink-and-recover operations.
    pub fn recoveries(&self) -> u32 {
        self.recoveries
    }

    /// Fault notification (the ULFM `MPI_Comm_failure_ack` analogue):
    /// ranks whose node has crashed at or before their current clock and
    /// that have not yet been shrunk away. Empty when no faults are
    /// installed or nothing has failed yet.
    pub fn poll_failed(&self) -> Vec<u32> {
        let Some(f) = &self.faults else {
            return Vec::new();
        };
        (0..self.clock_us.len() as u32)
            .filter(|&r| {
                self.alive[r as usize]
                    && f.crash_us[self.node_map[r as usize]]
                        .is_some_and(|t| t <= self.clock_us[r as usize])
            })
            .collect()
    }

    /// ULFM-style shrink-and-recover: every currently-failed rank leaves
    /// the job (its clock freezes at the crash instant), and the survivors
    /// run an agreement + rebuild round (two barriers over the shrunk
    /// communicator — revoke propagation, then the new communicator's
    /// first synchronisation). Returns the ranks that were removed.
    pub fn shrink_failed(&mut self) -> Vec<u32> {
        let failed = self.poll_failed();
        if failed.is_empty() {
            return failed;
        }
        let f = self.faults.as_ref().expect("poll_failed found faults");
        for &r in &failed {
            self.alive[r as usize] = false;
            // The rank stopped at the crash, not at wherever its virtual
            // clock had speculatively advanced to.
            if let Some(t) = f.crash_us[self.node_map[r as usize]] {
                self.clock_us[r as usize] = self.clock_us[r as usize].min(t);
            }
        }
        self.recoveries += 1;
        if obs::enabled() {
            obs::add("mpi.shrink.ops", 1);
            obs::add("mpi.shrink.ranks_removed", failed.len() as u64);
            for &r in &failed {
                obs::instant(
                    "fault",
                    "fault.crash",
                    self.clock_us[r as usize],
                    &[
                        ("rank", obs::AttrValue::U64(u64::from(r))),
                        (
                            "node",
                            obs::AttrValue::U64(self.node_map[r as usize] as u64),
                        ),
                    ],
                );
            }
        }
        // The live set just changed, so every memoized collective time
        // is stale — including the two rebuild barriers below, which
        // must be priced over the shrunk communicator.
        self.coll_cache.clear();
        // Agreement + communicator rebuild among the survivors.
        self.barrier();
        self.barrier();
        failed
    }

    /// Convenience: build the network for a system's interconnect and wrap it.
    pub fn for_system(spec: &archsim::SystemSpec, placement: Placement) -> Self {
        let net = Network::new(spec.interconnect, placement.nodes_used() as usize);
        World::new(net, placement)
    }

    /// Number of ranks.
    pub fn ranks(&self) -> u32 {
        self.placement.ranks()
    }

    /// The placement in use.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The network in use.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Current virtual time of `rank`, microseconds.
    pub fn now_us(&self, rank: u32) -> f64 {
        self.clock_us[rank as usize]
    }

    /// Advance `rank`'s clock by a compute phase of `us` microseconds.
    /// Under an installed fault schedule the duration is stretched by the
    /// rank's straggler multiplier; ranks shrunk away by
    /// [`World::shrink_failed`] no longer advance.
    pub fn compute(&mut self, rank: u32, us: f64) {
        assert!(
            us >= 0.0 && !us.is_nan(),
            "compute time must be non-negative"
        );
        let r = rank as usize;
        if !self.alive[r] {
            return;
        }
        // `m == 1.0` makes this an exact identity, so an empty schedule
        // prices bit-identically to no schedule at all.
        let us = match &self.faults {
            Some(f) => us * f.straggler_mult[r],
            None => us,
        };
        self.clock_us[r] += us;
        self.compute_us[r] += us;
    }

    /// Advance every rank by a per-rank compute duration (slice of length
    /// `ranks()`), the common SPMD pattern.
    pub fn compute_all(&mut self, us_per_rank: &[f64]) {
        assert_eq!(us_per_rank.len(), self.clock_us.len());
        for (r, &us) in us_per_rank.iter().enumerate() {
            self.compute(r as u32, us);
        }
    }

    /// Advance every rank by the same compute duration.
    pub fn compute_uniform(&mut self, us: f64) {
        for r in 0..self.clock_us.len() {
            self.compute(r as u32, us);
        }
    }

    /// Route a symmetric halo — every `(a, b, bytes)` pair exchanges
    /// `bytes` in both directions, `a → b` first — once, for
    /// [`World::exchange_planned`] to deliver as often as needed. A plan
    /// depends only on the placement and the network, neither of which
    /// changes over the world's lifetime, so it stays valid across fault
    /// installation and shrink.
    pub fn plan_halo(&self, pairs: &[(u32, u32, u64)]) -> P2pPlan {
        let mut msgs = Vec::with_capacity(pairs.len() * 2);
        for &(a, b, bytes) in pairs {
            msgs.push(self.plan_msg(a, b, bytes));
            msgs.push(self.plan_msg(b, a, bytes));
        }
        P2pPlan { msgs }
    }

    fn plan_msg(&self, src: u32, dst: u32, bytes: u64) -> PlannedMsg {
        PlannedMsg {
            src,
            dst,
            route: self.net.route(
                self.node_map[src as usize],
                self.node_map[dst as usize],
                bytes,
            ),
        }
    }

    /// Perform a set of point-to-point exchanges: `(src, dst, bytes)`
    /// triples, all logically concurrent (posted at each sender's current
    /// time). Receivers' clocks advance to the arrival of their last
    /// message; senders pay a small software overhead per message.
    pub fn exchange(&mut self, msgs: &[(u32, u32, u64)]) {
        let plan = P2pPlan {
            msgs: msgs
                .iter()
                .map(|&(src, dst, bytes)| self.plan_msg(src, dst, bytes))
                .collect(),
        };
        self.exchange_planned(&plan);
    }

    /// A symmetric halo exchange: every `(a, b, bytes)` pair exchanges
    /// `bytes` in both directions.
    pub fn halo_exchange(&mut self, pairs: &[(u32, u32, u64)]) {
        let plan = self.plan_halo(pairs);
        self.exchange_planned(&plan);
    }

    /// Deliver a routed exchange (see [`World::exchange`]) made by this
    /// world's [`World::plan_halo`].
    pub fn exchange_planned(&mut self, plan: &P2pPlan) {
        const SEND_OVERHEAD_US: f64 = 0.2;
        self.arrivals.clear();
        self.arrivals.extend_from_slice(&self.clock_us);
        let mut tally = obs::enabled().then(RouteTally::default);
        for m in &plan.msgs {
            let s = m.src as usize;
            let d = m.dst as usize;
            // A message to or from a shrunk-away rank is never posted, so
            // it also never touches the network's retry stream.
            if !self.alive[s] || !self.alive[d] {
                continue;
            }
            let done = self.net.deliver(&m.route, self.clock_us[s]);
            self.clock_us[s] += SEND_OVERHEAD_US;
            self.arrivals[d] = self.arrivals[d].max(done);
            if let Some(t) = &mut tally {
                t.count(&m.route);
            }
        }
        for (r, &arr) in self.arrivals.iter().enumerate() {
            if arr > self.clock_us[r] {
                self.wait_us[r] += arr - self.clock_us[r];
                self.clock_us[r] = arr;
            }
        }
        if let Some(t) = tally.filter(|t| t.msgs() > 0) {
            obs::add("mpi.p2p.msgs", t.msgs());
            obs::add("mpi.p2p.bytes", t.bytes());
            t.record();
        }
    }

    fn synchronise(&mut self) -> f64 {
        let t = self
            .clock_us
            .iter()
            .zip(&self.alive)
            .filter_map(|(&c, &a)| a.then_some(c))
            .fold(0.0, f64::max);
        let trace = obs::enabled();
        for (r, c) in self.clock_us.iter_mut().enumerate() {
            if !self.alive[r] {
                continue;
            }
            self.wait_us[r] += t - *c;
            if trace {
                // Rendezvous skew absorbed at this sync point, per rank
                // (the latest rank contributes a 0-wait observation).
                obs::observe("mpi.sync_wait_us", t - *c);
            }
            *c = t;
        }
        t
    }

    /// Record one collective into the ambient recorder: an `mpi.<op>` span
    /// over the synchronised interval plus call/byte counters, split per
    /// selected algorithm when the op is size-switched. `pre0_us` is rank
    /// 0's clock before the rendezvous; the span carries the implied wait
    /// (`wait0_us`) so attribution can split phase time into network wait
    /// vs. the operation proper.
    fn record_collective(
        &self,
        op: &str,
        bytes: Option<u64>,
        pre0_us: f64,
        start_us: f64,
        dur_us: f64,
    ) {
        if !obs::enabled() {
            return;
        }
        let name = format!("mpi.{op}");
        obs::add(&format!("{name}.calls"), 1);
        let wait0 = if self.alive.first().copied().unwrap_or(false) {
            start_us - pre0_us
        } else {
            0.0
        };
        let mut attrs: Vec<(&str, obs::AttrValue)> = vec![
            ("ranks", obs::AttrValue::U64(u64::from(self.alive_ranks()))),
            ("wait0_us", obs::AttrValue::F64(wait0)),
        ];
        if let Some(b) = bytes {
            obs::add(&format!("{name}.bytes"), b);
            attrs.push(("bytes", obs::AttrValue::U64(b)));
        }
        // allreduce/bcast pick their algorithm by message size; count the
        // calls each algorithm actually serves (ablation evidence).
        if matches!(op, "allreduce" | "bcast") {
            if let Some(b) = bytes {
                let alg = collectives::select_algorithm(b).name();
                obs::add(&format!("{name}.alg.{alg}.calls"), 1);
                attrs.push(("alg", obs::AttrValue::Str(alg)));
            }
        }
        obs::span("mpi", &name, start_us, dur_us, &attrs);
    }

    /// The node map restricted to live ranks — what the collectives see.
    /// Borrows the original map while everyone is alive so the fault-free
    /// path allocates nothing and prices identically.
    fn live_node_map(&self) -> std::borrow::Cow<'_, [usize]> {
        if self.alive.iter().all(|&a| a) {
            std::borrow::Cow::Borrowed(&self.node_map)
        } else {
            std::borrow::Cow::Owned(
                self.node_map
                    .iter()
                    .zip(&self.alive)
                    .filter_map(|(&n, &a)| a.then_some(n))
                    .collect(),
            )
        }
    }

    /// Memoized closed-form collective duration. The closed forms are
    /// pure in (network, live node map, bytes); the network is fixed for
    /// the world's lifetime (faults act on point-to-point delivery and
    /// compute, never on these forms) and the live map only changes in
    /// [`World::shrink_failed`], which clears the table. A hit returns
    /// the exact `f64` a fresh evaluation would produce, so cached runs
    /// are bit-identical — they merely skip the per-call node-map
    /// dedup/sort inside the models.
    fn collective_time(
        &mut self,
        op: u8,
        bytes: u64,
        f: fn(&Network, &[usize], u64) -> f64,
    ) -> f64 {
        self.coll_tick += 1;
        let tick = self.coll_tick;
        if let Some(entry) = self.coll_cache.get_mut(&(op, bytes)) {
            entry.1 = tick;
            collcache::record_hit();
            return entry.0;
        }
        let t = f(&self.net, &self.live_node_map(), bytes);
        collcache::record_miss();
        while self.coll_cache.len() >= self.coll_cache_cap {
            self.evict_coll_lru();
        }
        self.coll_cache.insert((op, bytes), (t, tick));
        t
    }

    /// `MPI_Allreduce` of `bytes` per rank across all ranks.
    pub fn allreduce(&mut self, bytes: u64) {
        let pre0 = self.clock_us[0];
        let start = self.synchronise();
        let t = self.collective_time(OP_ALLREDUCE, bytes, collectives::allreduce_time_us);
        self.record_collective("allreduce", Some(bytes), pre0, start, t);
        self.set_all(start + t);
    }

    /// `MPI_Bcast` of `bytes` from rank 0.
    pub fn bcast(&mut self, bytes: u64) {
        let pre0 = self.clock_us[0];
        let start = self.synchronise();
        let t = self.collective_time(OP_BCAST, bytes, collectives::bcast_time_us);
        self.record_collective("bcast", Some(bytes), pre0, start, t);
        self.set_all(start + t);
    }

    /// `MPI_Barrier`.
    pub fn barrier(&mut self) {
        let pre0 = self.clock_us[0];
        let start = self.synchronise();
        let t = self.collective_time(OP_BARRIER, 0, |net, map, _| {
            collectives::barrier_time_us(net, map)
        });
        self.record_collective("barrier", None, pre0, start, t);
        self.set_all(start + t);
    }

    /// `MPI_Allgather`, `bytes` contributed per rank.
    pub fn allgather(&mut self, bytes: u64) {
        let pre0 = self.clock_us[0];
        let start = self.synchronise();
        let t = self.collective_time(OP_ALLGATHER, bytes, collectives::allgather_time_us);
        self.record_collective("allgather", Some(bytes), pre0, start, t);
        self.set_all(start + t);
    }

    /// `MPI_Alltoall`, `bytes` per (src, dst) pair.
    pub fn alltoall(&mut self, bytes_per_pair: u64) {
        let pre0 = self.clock_us[0];
        let start = self.synchronise();
        let t = self.collective_time(OP_ALLTOALL, bytes_per_pair, collectives::alltoall_time_us);
        self.record_collective("alltoall", Some(bytes_per_pair), pre0, start, t);
        self.set_all(start + t);
    }

    fn set_all(&mut self, t: f64) {
        for (c, &a) in self.clock_us.iter_mut().zip(&self.alive) {
            if a {
                *c = t;
            }
        }
    }

    /// Elapsed job time so far: the maximum live-rank clock, microseconds.
    /// Shrunk-away ranks froze at their crash and do not define the end of
    /// the job — unless *every* rank is dead, in which case the job ended
    /// at the last crash.
    pub fn elapsed_us(&self) -> f64 {
        let live = self
            .clock_us
            .iter()
            .zip(&self.alive)
            .filter_map(|(&c, &a)| a.then_some(c))
            .fold(f64::NEG_INFINITY, f64::max);
        if live.is_finite() {
            live.max(0.0)
        } else {
            self.clock_us.iter().copied().fold(0.0, f64::max)
        }
    }

    /// Elapsed job time in seconds.
    pub fn elapsed_s(&self) -> f64 {
        self.elapsed_us() / 1e6
    }

    /// Total wait (load-imbalance + communication skew) time of `rank`.
    pub fn wait_us(&self, rank: u32) -> f64 {
        self.wait_us[rank as usize]
    }

    /// Total compute time of `rank`.
    pub fn compute_us(&self, rank: u32) -> f64 {
        self.compute_us[rank as usize]
    }

    /// Aggregate parallel efficiency estimate: mean compute / elapsed.
    pub fn compute_efficiency(&self) -> f64 {
        let e = self.elapsed_us();
        if e == 0.0 {
            return 1.0;
        }
        let mean: f64 = self.compute_us.iter().sum::<f64>() / self.compute_us.len() as f64;
        mean / e
    }

    /// Bandwidth share (GB/s) available to `rank` for streaming memory
    /// traffic, given the node layout: the domain's sustained bandwidth
    /// divided by the ranks sharing that domain, derated if too few cores
    /// are active to saturate the domain.
    pub fn rank_bw_share_gbs(&self, rank: u32, node: &Node, saturation_cores: u32) -> f64 {
        let dom = self.placement.domain_of(rank);
        let active = self.placement.cores_active_in_domain(rank);
        let domain_bw = node
            .memory
            .domain_bw_for_cores(dom, active, saturation_cores);
        let share = domain_bw / f64::from(self.placement.ranks_in_domain(rank));
        // Derate of exactly 1.0 is an exact identity (fault-off parity).
        match &self.faults {
            Some(f) => share * f.mem_derate[self.node_map[rank as usize]],
            None => share,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{Placement, PlacementPolicy};
    use archsim::{system, InterconnectKind, SystemId};

    fn world(nodes: u32, rpn: u32) -> World {
        let node = system(SystemId::A64fx).node;
        let p = Placement::new(
            nodes * rpn,
            rpn,
            1,
            &node,
            PlacementPolicy::RoundRobinDomain,
        )
        .unwrap();
        let net = Network::new(InterconnectKind::TofuD, nodes as usize);
        World::new(net, p)
    }

    #[test]
    fn capped_coll_cache_evicts_lru_and_stays_bit_identical() {
        // An unbounded world and one capped to 2 entries run the same
        // collective sequence (5 distinct sizes, interleaved revisits —
        // guaranteed thrashing); every clock must match exactly.
        let mut free = world(2, 4);
        let mut capped = world(2, 4);
        capped.set_coll_cache_cap(2);
        let before = collcache::stats();
        let sizes = [8u64, 64, 512, 4096, 32768];
        for round in 0..3 {
            for (i, &b) in sizes.iter().enumerate() {
                if (round + i) % 2 == 0 {
                    free.allreduce(b);
                    capped.allreduce(b);
                } else {
                    free.allgather(b);
                    capped.allgather(b);
                }
            }
        }
        let after = collcache::stats();
        assert!(
            after.evictions > before.evictions,
            "5 distinct sizes against a cap of 2 must evict"
        );
        assert!(capped.coll_cache.len() <= 2);
        for r in 0..free.ranks() {
            assert_eq!(
                free.now_us(r),
                capped.now_us(r),
                "eviction must be bit-transparent (rank {r})"
            );
        }
    }

    #[test]
    fn shrinking_the_cap_evicts_down_immediately() {
        let mut w = world(1, 4);
        for b in [8u64, 16, 32, 64] {
            w.allreduce(b);
        }
        assert_eq!(w.coll_cache.len(), 4);
        w.set_coll_cache_cap(1);
        assert_eq!(w.coll_cache.len(), 1);
        // The survivor is the most recently used (64-byte) entry.
        let before = collcache::stats();
        w.allreduce(64);
        let after = collcache::stats();
        assert_eq!(after.hits, before.hits + 1, "MRU entry must survive");
    }

    #[test]
    fn compute_advances_only_that_rank() {
        let mut w = world(1, 4);
        w.compute(2, 100.0);
        assert_eq!(w.now_us(2), 100.0);
        assert_eq!(w.now_us(0), 0.0);
        assert_eq!(w.elapsed_us(), 100.0);
    }

    #[test]
    fn allreduce_synchronises_stragglers() {
        let mut w = world(2, 4);
        w.compute(0, 1000.0); // rank 0 is the straggler
        w.allreduce(8);
        let t = w.now_us(0);
        for r in 0..w.ranks() {
            assert_eq!(w.now_us(r), t, "all ranks aligned after allreduce");
        }
        assert!(t > 1000.0);
        // Rank 1 waited at least the straggler's lead.
        assert!(w.wait_us(1) >= 1000.0);
    }

    #[test]
    fn exchange_delays_receiver_not_sender() {
        let mut w = world(2, 1);
        w.exchange(&[(0, 1, 1 << 20)]);
        assert!(w.now_us(1) > w.now_us(0));
        assert!(w.now_us(0) < 1.0, "sender only pays overhead");
    }

    #[test]
    fn halo_exchange_is_symmetric() {
        let mut w = world(2, 1);
        w.halo_exchange(&[(0, 1, 64 * 1024)]);
        assert!((w.now_us(0) - w.now_us(1)).abs() < 1e-6);
    }

    #[test]
    fn imbalance_lowers_compute_efficiency() {
        let mut balanced = world(2, 4);
        balanced.compute_uniform(1000.0);
        balanced.barrier();
        let mut skewed = world(2, 4);
        let mut us = vec![500.0; 8];
        us[0] = 1000.0;
        skewed.compute_all(&us);
        skewed.barrier();
        assert!(balanced.compute_efficiency() > skewed.compute_efficiency());
    }

    #[test]
    fn bw_share_splits_domain_among_ranks() {
        let spec = system(SystemId::A64fx);
        let node = &spec.node;
        // 48 ranks, round-robin over 4 CMGs: 12 per CMG.
        let p = Placement::mpi_only_full_node(1, node);
        let net = Network::new(InterconnectKind::TofuD, 1);
        let w = World::new(net, p);
        let share = w.rank_bw_share_gbs(0, node, spec.bw_saturation_cores);
        assert!((share - 210.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    fn single_rank_per_domain_gets_full_domain_bandwidth_with_threads() {
        let spec = system(SystemId::A64fx);
        let node = &spec.node;
        let p = Placement::one_rank_per_domain(1, node);
        let net = Network::new(InterconnectKind::TofuD, 1);
        let w = World::new(net, p);
        let share = w.rank_bw_share_gbs(0, node, spec.bw_saturation_cores);
        // 12 threads saturate the CMG; the single rank owns all of it.
        assert!((share - 210.0).abs() < 1e-9);
    }

    #[test]
    fn underpopulated_domain_sees_reduced_bandwidth() {
        let spec = system(SystemId::A64fx);
        let node = &spec.node;
        // 4 single-thread ranks: one per CMG, each using 1 of 12 cores.
        let p = Placement::new(4, 4, 1, node, PlacementPolicy::RoundRobinDomain).unwrap();
        let net = Network::new(InterconnectKind::TofuD, 1);
        let w = World::new(net, p);
        let share = w.rank_bw_share_gbs(0, node, spec.bw_saturation_cores);
        assert!(share < 210.0, "one core cannot saturate HBM: {share}");
    }

    #[test]
    fn elapsed_is_max_clock() {
        let mut w = world(1, 4);
        w.compute(3, 42.0);
        assert_eq!(w.elapsed_us(), 42.0);
        assert!((w.elapsed_s() - 42e-6).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_compute_rejected() {
        let mut w = world(1, 1);
        w.compute(0, -1.0);
    }

    /// One round of a representative workload; returns per-rank clocks.
    fn run_workload(w: &mut World) -> Vec<f64> {
        w.compute_uniform(250.0);
        w.halo_exchange(&[(0, 1, 64 * 1024), (1, 2, 64 * 1024)]);
        w.allreduce(8);
        w.compute_all(&[100.0, 120.0, 140.0, 160.0, 100.0, 120.0, 140.0, 160.0]);
        w.barrier();
        (0..w.ranks()).map(|r| w.now_us(r)).collect()
    }

    #[test]
    fn empty_fault_schedule_is_bit_identical_at_world_level() {
        let mut plain = world(2, 4);
        let mut faulted = world(2, 4);
        faulted.install_faults(
            &FaultSchedule::none(SystemId::A64fx, 8, 2),
            RetryPolicy::default_policy(),
        );
        let a = run_workload(&mut plain);
        let b = run_workload(&mut faulted);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits(), "fault layer must be additive");
        }
        assert_eq!(plain.elapsed_us().to_bits(), faulted.elapsed_us().to_bits());
        let spec = system(SystemId::A64fx);
        assert_eq!(
            plain
                .rank_bw_share_gbs(0, &spec.node, spec.bw_saturation_cores)
                .to_bits(),
            faulted
                .rank_bw_share_gbs(0, &spec.node, spec.bw_saturation_cores)
                .to_bits()
        );
    }

    #[test]
    fn stragglers_stretch_compute_time() {
        let mut s = FaultSchedule::none(SystemId::A64fx, 8, 2);
        s.straggler_mult[3] = 1.5;
        let mut w = world(2, 4);
        w.install_faults(&s, RetryPolicy::default_policy());
        w.compute_uniform(1000.0);
        assert_eq!(w.now_us(3), 1500.0);
        assert_eq!(w.now_us(0), 1000.0);
    }

    #[test]
    fn mem_derate_shrinks_bandwidth_share() {
        let mut s = FaultSchedule::none(SystemId::A64fx, 8, 2);
        s.mem_derate[0] = 0.5;
        let mut w = world(2, 4);
        let spec = system(SystemId::A64fx);
        let before = w.rank_bw_share_gbs(0, &spec.node, spec.bw_saturation_cores);
        w.install_faults(&s, RetryPolicy::default_policy());
        let after = w.rank_bw_share_gbs(0, &spec.node, spec.bw_saturation_cores);
        assert!((after - before * 0.5).abs() < 1e-12);
    }

    #[test]
    fn crash_is_noticed_then_shrunk_and_survivors_continue() {
        let mut s = FaultSchedule::none(SystemId::A64fx, 8, 2);
        s.events.push(faultsim::FaultEvent::NodeCrash {
            node: 1,
            at_us: 500.0,
        });
        let mut w = world(2, 4);
        w.install_faults(&s, RetryPolicy::default_policy());
        assert!(w.poll_failed().is_empty(), "nothing failed at t=0");
        w.compute_uniform(600.0);
        let failed = w.poll_failed();
        assert_eq!(failed.len(), 4, "all four ranks of node 1 failed");
        let removed = w.shrink_failed();
        assert_eq!(removed, failed);
        assert_eq!(w.alive_ranks(), 4);
        assert_eq!(w.recoveries(), 1);
        for &r in &removed {
            assert!(!w.is_alive(r));
            assert_eq!(w.now_us(r), 500.0, "dead rank frozen at the crash");
        }
        // Survivors keep making progress; the dead stay frozen.
        let before = w.elapsed_us();
        w.compute_uniform(100.0);
        w.allreduce(8);
        assert!(w.elapsed_us() > before);
        for &r in &removed {
            assert_eq!(w.now_us(r), 500.0);
        }
        // Messages to the dead are dropped rather than simulated.
        let alive0 = w.now_us(0);
        w.exchange(&[(0, removed[0], 1 << 20)]);
        assert!(w.now_us(0) - alive0 < 1.0, "no send overhead to the dead");
        // A second shrink with nothing new failed is a no-op.
        assert!(w.shrink_failed().is_empty());
        assert_eq!(w.recoveries(), 1);
    }

    #[test]
    fn collective_cache_hits_serve_the_exact_f64() {
        let mut w = world(2, 4);
        let t0 = w.now_us(0);
        w.allreduce(1 << 20);
        let miss = w.now_us(0) - t0;
        let t1 = w.now_us(0);
        w.allreduce(1 << 20);
        let hit = w.now_us(0) - t1;
        assert_eq!(miss.to_bits(), hit.to_bits(), "hit must be bit-identical");
        // The cached value is exactly what a fresh evaluation produces.
        let fresh = collectives::allreduce_time_us(w.network(), &w.placement().node_map(), 1 << 20);
        assert_eq!(miss.to_bits(), fresh.to_bits());
        // Barrier and an 8-byte allreduce are distinct keys even though
        // the barrier is internally an 8-byte allreduce.
        let before = collcache::stats();
        w.allreduce(8);
        w.barrier();
        let after = collcache::stats();
        assert!(after.misses >= before.misses + 2, "distinct ops must miss");
    }

    #[test]
    fn shrink_invalidates_collective_cache() {
        let mut s = FaultSchedule::none(SystemId::A64fx, 8, 2);
        s.events.push(faultsim::FaultEvent::NodeCrash {
            node: 1,
            at_us: 500.0,
        });
        let mut w = world(2, 4);
        w.install_faults(&s, RetryPolicy::default_policy());
        let t0 = w.now_us(0);
        w.allreduce(8);
        let pre = w.now_us(0) - t0;
        w.compute_uniform(600.0);
        w.shrink_failed();
        let t1 = w.now_us(0);
        w.allreduce(8);
        let post = w.now_us(0) - t1;
        assert_ne!(
            pre.to_bits(),
            post.to_bits(),
            "shrunk communicator must be re-priced, not served stale"
        );
        // The re-priced value matches a fresh evaluation over the
        // survivors (all four on node 0). Shrink ends with a barrier, so
        // every survivor clock equals `t1` and the collective advances the
        // clock to exactly `t1 + fresh`; comparing the absolute clock keeps
        // the check bit-exact (the `post` delta re-rounds through the
        // subtraction and need not equal `fresh` bitwise).
        let fresh = collectives::allreduce_time_us(w.network(), &[0, 0, 0, 0], 8);
        assert_eq!(w.now_us(0).to_bits(), (t1 + fresh).to_bits());
    }

    #[test]
    fn collectives_record_spans_without_perturbing_clocks() {
        let plain = {
            let mut w = world(2, 4);
            run_workload(&mut w)
        };
        let rec = std::sync::Arc::new(obs::MemRecorder::new());
        let traced = obs::with_recorder(rec.clone(), || {
            let mut w = world(2, 4);
            run_workload(&mut w)
        });
        for (x, y) in plain.iter().zip(&traced) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "recording must be pure observation"
            );
        }
        assert_eq!(rec.counter("mpi.allreduce.calls"), Some(1));
        assert_eq!(rec.counter("mpi.allreduce.bytes"), Some(8));
        // 8 bytes < cutover: recursive doubling serves the call.
        assert_eq!(
            rec.counter("mpi.allreduce.alg.recursive_doubling.calls"),
            Some(1)
        );
        assert_eq!(rec.counter("mpi.barrier.calls"), Some(1));
        assert_eq!(
            rec.counter("mpi.p2p.msgs"),
            Some(4),
            "2 halo pairs = 4 messages"
        );
        let spans = rec.spans();
        let allreduce = spans.iter().find(|s| s.name == "mpi.allreduce").unwrap();
        assert!(allreduce.dur_us > 0.0);
        assert!(allreduce
            .attrs
            .iter()
            .any(|(k, v)| k == "alg" && v.contains("recursive_doubling")));
        // Each sync point contributes one wait observation per live rank.
        let waits = rec.histogram("mpi.sync_wait_us").unwrap();
        assert_eq!(waits.count, 16, "2 sync points x 8 ranks");
    }

    #[test]
    fn traced_halo_records_the_same_metrics_as_per_message_recording() {
        // 8 TofuD nodes x 2 ranks: one intra-node pair and inter-node
        // pairs at several hop distances, exchanged twice.
        let pairs = [
            (0u32, 1u32, 100u64),
            (0, 2, 4096),
            (1, 15, 1 << 20),
            (3, 8, 8),
            (5, 12, 64 * 1024),
            (6, 7, 0),
        ];
        let run = |w: &mut World| {
            w.halo_exchange(&pairs);
            w.compute(3, 50.0);
            w.halo_exchange(&pairs);
            w.halo_exchange(&[]);
            (0..w.ranks()).map(|r| w.now_us(r)).collect::<Vec<_>>()
        };
        let plain = run(&mut world(8, 2));
        let rec = std::sync::Arc::new(obs::MemRecorder::new());
        let traced = obs::with_recorder(rec.clone(), || run(&mut world(8, 2)));
        for (x, y) in plain.iter().zip(&traced) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "recording must be pure observation"
            );
        }

        // The expectation, one message at a time.
        let w = world(8, 2);
        let map = w.placement().node_map();
        let (mut msgs, mut bytes) = (0u64, 0u64);
        let mut hops = obs::Histogram::default();
        for _ in 0..2 {
            for &(a, b, n) in &pairs {
                for (s, d) in [(a, b), (b, a)] {
                    msgs += 1;
                    bytes += n;
                    let (sn, dn) = (map[s as usize], map[d as usize]);
                    if sn != dn {
                        hops.observe(f64::from(w.network().topology().hops(sn, dn)));
                    }
                }
            }
        }
        assert!(
            hops.count < msgs,
            "the pattern includes intra-node messages"
        );
        assert!(
            hops.buckets.iter().filter(|&&c| c > 0).count() >= 2,
            "the pattern spans several hop distances: {:?}",
            hops.buckets
        );
        for name in ["mpi.p2p.msgs", "net.msg"] {
            assert_eq!(rec.counter(name), Some(msgs), "{name}");
        }
        for name in ["mpi.p2p.bytes", "net.bytes"] {
            assert_eq!(rec.counter(name), Some(bytes), "{name}");
        }
        let got = rec
            .histogram("net.hops")
            .expect("inter-node messages observed");
        assert_eq!(got.count, hops.count);
        assert_eq!(got.sum.to_bits(), hops.sum.to_bits());
        assert_eq!(got.buckets, hops.buckets);

        // An exchange that delivers nothing creates no metric at all.
        let empty = std::sync::Arc::new(obs::MemRecorder::new());
        obs::with_recorder(empty.clone(), || world(8, 2).halo_exchange(&[]));
        assert!(empty.registry().is_empty());
    }

    #[test]
    fn shrink_records_crash_instants() {
        let mut s = FaultSchedule::none(SystemId::A64fx, 8, 2);
        s.events.push(faultsim::FaultEvent::NodeCrash {
            node: 1,
            at_us: 500.0,
        });
        let rec = std::sync::Arc::new(obs::MemRecorder::new());
        obs::with_recorder(rec.clone(), || {
            let mut w = world(2, 4);
            w.install_faults(&s, RetryPolicy::default_policy());
            w.compute_uniform(600.0);
            w.shrink_failed();
        });
        assert_eq!(rec.counter("mpi.shrink.ops"), Some(1));
        assert_eq!(rec.counter("mpi.shrink.ranks_removed"), Some(4));
        let instants = rec.instants();
        assert_eq!(instants.len(), 4);
        assert!(instants
            .iter()
            .all(|i| i.name == "fault.crash" && i.at_us == 500.0));
    }

    #[test]
    #[should_panic(expected = "different rank count")]
    fn mismatched_schedule_rejected() {
        let mut w = world(2, 4);
        w.install_faults(
            &FaultSchedule::none(SystemId::A64fx, 7, 2),
            RetryPolicy::default_policy(),
        );
    }
}
