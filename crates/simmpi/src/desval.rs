//! Discrete-event validation of the collective cost models.
//!
//! The analytic models in [`crate::collectives`] price collectives with
//! closed forms. [`allreduce_des_stats`] runs the hierarchical allreduce
//! they price on the `netsim` event engine instead: every inter-node leader
//! message is an event priced as a contention-free flight over its actual
//! hop count, and each leader waits on its partners' arrivals round by
//! round, so skew between leaders comes from the simulation rather than
//! from an averaged formula. The conform `differential` and `des` suites
//! and D1 hold the closed forms to it. This is what keeps the fast
//! analytic path honest.

use archsim::LinkParams;
use densela::KernelPool;
use netsim::shard::{Ctx, DesBackend, RunStats, ShardedEventQueue};
use netsim::{Network, Topology};

/// One round of a leader's pairwise-exchange schedule: an optional send of
/// `bytes` to `(dst leader, dst round index)` issued on entering the round,
/// and optionally one expected arrival gating exit.
#[derive(Clone, Copy)]
struct ExchangeRound {
    send: Option<(usize, u32)>,
    bytes: u64,
    expect: bool,
}

/// The leader leg's pairwise-exchange schedule. Both algorithms are
/// closed-form XOR/shift arithmetic, so a leader's round is computed from
/// `(rank, round)` when the leader enters it rather than stored.
#[derive(Clone, Copy)]
enum Schedule {
    /// Recursive doubling over `p` leaders: `ceil(log2 p)` rounds, in round
    /// `k` leader `r` exchanges the full payload with `r ^ (1 << k)`.
    /// Leaders whose partner falls beyond `p` (virtual power-of-two
    /// padding) idle through that round.
    Doubling { p: usize, rounds: u32, bytes: u64 },
    /// Rabenseifner over `p2 + extras` leaders (`p2` the largest power of
    /// two, `steps = log2 p2`): recursive-halving reduce-scatter then
    /// recursive-doubling allgather (the same pairs, same chunk sizes,
    /// mirrored), with leaders `p2 + i` folding into leader `i` in a
    /// pre-round and receiving the result in a post-round, as in MPICH.
    Rabenseifner {
        p2: usize,
        steps: u32,
        extras: usize,
        bytes: u64,
    },
}

impl Schedule {
    fn doubling(p: usize, bytes: u64) -> Self {
        let rounds = usize::BITS - (p - 1).leading_zeros();
        Schedule::Doubling { p, rounds, bytes }
    }

    fn rabenseifner(p: usize, bytes: u64) -> Self {
        let steps = usize::BITS - 1 - p.leading_zeros(); // floor(log2 p)
        let p2 = 1usize << steps;
        Schedule::Rabenseifner {
            p2,
            steps,
            extras: p - p2,
            bytes,
        }
    }

    /// Rounds in `rank`'s schedule.
    fn rounds(self, rank: usize) -> u32 {
        match self {
            Schedule::Doubling { rounds, .. } => rounds,
            Schedule::Rabenseifner {
                p2, steps, extras, ..
            } => {
                if rank >= p2 {
                    2
                } else if rank < extras {
                    2 * steps + 2
                } else {
                    2 * steps
                }
            }
        }
    }

    /// Round `r` of `rank`'s schedule; `r < self.rounds(rank)`.
    fn round(self, rank: usize, r: u32) -> ExchangeRound {
        const IDLE: ExchangeRound = ExchangeRound {
            send: None,
            bytes: 0,
            expect: false,
        };
        const RECEIVE: ExchangeRound = ExchangeRound {
            send: None,
            bytes: 0,
            expect: true,
        };
        match self {
            Schedule::Doubling { p, bytes, .. } => {
                let partner = rank ^ (1usize << r);
                if partner < p {
                    ExchangeRound {
                        send: Some((partner, r)),
                        bytes,
                        expect: true,
                    }
                } else {
                    IDLE
                }
            }
            Schedule::Rabenseifner {
                p2,
                steps,
                extras,
                bytes,
            } => {
                if rank >= p2 {
                    // Folded leader: hand off at the start, collect at the end.
                    return if r == 0 {
                        ExchangeRound {
                            send: Some((rank - p2, 0)),
                            bytes,
                            expect: false,
                        }
                    } else {
                        RECEIVE
                    };
                }
                // Leaders below `extras` open with a pre-round arrival slot,
                // shifting their exchange rounds by one, and close with the
                // post-round hand-back.
                let offset = |rank: usize| u32::from(rank < extras);
                if rank < extras && r == 0 {
                    return RECEIVE;
                }
                if rank < extras && r == 2 * steps + 1 {
                    return ExchangeRound {
                        send: Some((p2 + rank, 1)),
                        bytes,
                        expect: false,
                    };
                }
                let s = r - offset(rank);
                let h = if s < steps { s } else { 2 * steps - 1 - s };
                let partner = rank ^ (1usize << h);
                ExchangeRound {
                    send: Some((partner, offset(partner) + s)),
                    bytes: (bytes >> (h + 1)).max(1),
                    expect: true,
                }
            }
        }
    }
}

/// Message payload of the engine-driven leader allreduce. A schedule has
/// at most `2 * usize::BITS + 2` rounds, so a round index fits 16 bits;
/// that keeps the message at 4 bytes and a queued `(u32 entity,
/// LeaderMsg)` event at 24.
#[derive(Debug, Clone, Copy)]
enum LeaderMsg {
    /// Root event: the leader enters round 0 at time zero.
    Start,
    /// A partner's chunk for the given round index arrived.
    Arrive(u16),
}

const _: () = assert!(std::mem::size_of::<netsim::Event<(u32, LeaderMsg)>>() == 24);
const _: () = assert!(std::mem::size_of::<LeaderState>() <= 32);

/// Per-leader progress through its exchange schedule. At Fugaku scale the
/// leaders' states are the simulation's working set, so this is kept to
/// 32 bytes on a 64-bit host.
#[derive(Debug)]
struct LeaderState {
    clock: f64,
    round: u32,
    sent: bool,
    /// Arrival time for the current round; NaN = not yet.
    now: f64,
    /// Arrivals for later rounds. A partner can run a round ahead, but
    /// rarely: D1's 131072-leader row has 398 such arrivals among
    /// 2,228,224, so this is almost always `None`, and a list head costs
    /// one pointer where an inline `Vec` would cost 24 bytes. Each leader
    /// keeps its own list rather than sharing one table: `des_small`'s
    /// TofuD cells have up to 1,981 early arrivals outstanding at once,
    /// and a shared table would be scanned linearly for each of them.
    early: Option<Box<Early>>,
}

/// One arrival that came ahead of its leader's round, linked to the
/// leader's other early arrivals.
#[derive(Debug)]
struct Early {
    round: u32,
    time: f64,
    next: Option<Box<Early>>,
}

impl LeaderState {
    fn new() -> Self {
        LeaderState {
            clock: 0.0,
            round: 0,
            sent: false,
            now: f64::NAN,
            early: None,
        }
    }

    /// The buffered early arrivals, most recent first.
    fn early(&self) -> impl Iterator<Item = &Early> {
        std::iter::successors(self.early.as_deref(), |e| e.next.as_deref())
    }

    /// Record a partner's chunk for `round` arriving at `t`: into `now` for
    /// the current round, into `early` for a later one.
    ///
    /// # Panics
    /// Panics on a duplicate: an arrival for a past round, or for a round
    /// already filled or buffered.
    fn record(&mut self, round: u32, t: f64) {
        if round == self.round && self.now.is_nan() {
            self.now = t;
            return;
        }
        assert!(
            round > self.round && self.early().all(|e| e.round != round),
            "duplicate arrival for round {round} (leader in round {})",
            self.round
        );
        self.early = Some(Box::new(Early {
            round,
            time: t,
            next: self.early.take(),
        }));
    }

    /// Leave the current round for the next, taking its arrival from
    /// `early` if it came ahead.
    fn advance(&mut self) {
        self.round += 1;
        self.sent = false;
        let mut link = &mut self.early;
        while link.as_ref().is_some_and(|e| e.round != self.round) {
            link = &mut link.as_mut().expect("checked by the loop").next;
        }
        self.now = match link.take() {
            Some(e) => {
                *link = e.next;
                e.time
            }
            None => f64::NAN,
        };
    }
}

/// The inter-node leg of one allreduce: the leaders (leader `e` sits on
/// node `nodes[e]`), their exchange schedule, and the flight pricing every
/// message shares.
struct LeaderLeg<'n> {
    nodes: Vec<usize>,
    schedule: Schedule,
    topo: &'n dyn Topology,
    link: LinkParams,
    /// Share of the injection bandwidth a message gets: the topology's
    /// bisection factor under Rabenseifner, 1 under recursive doubling.
    fabric: f64,
}

impl<'n> LeaderLeg<'n> {
    /// The leg over `nodes` (distinct, at least two) running the algorithm
    /// the analytic model selects for `bytes`.
    fn new(net: &'n Network, nodes: Vec<usize>, bytes: u64) -> Self {
        let (schedule, fabric) = match crate::collectives::select_algorithm(bytes) {
            crate::collectives::CollectiveAlgorithm::RecursiveDoubling => {
                (Schedule::doubling(nodes.len(), bytes), 1.0)
            }
            crate::collectives::CollectiveAlgorithm::Ring => (
                Schedule::rabenseifner(nodes.len(), bytes),
                net.topology().bisection_factor(),
            ),
        };
        LeaderLeg {
            nodes,
            schedule,
            topo: net.topology(),
            link: net.link(),
            fabric,
        }
    }

    /// Contention-free flight of a `chunk`-byte message from leader `from`
    /// to leader `to` over their actual hop count.
    fn flight(&self, from: usize, to: usize, chunk: u64) -> f64 {
        let link = &self.link;
        let hops = self.topo.hops(self.nodes[from], self.nodes[to]);
        let base = link.latency_us + f64::from(hops) * link.per_hop_us;
        let wire = chunk as f64 / (link.injection_bw_gbs() * self.fabric * 1e3);
        if chunk >= link.rendezvous_cutover_bytes {
            2.0 * base + wire
        } else {
            base + wire
        }
    }

    /// An engine for `backend` with every leader's start queued, and a
    /// pool to run it on.
    fn engine(&self, backend: DesBackend) -> (ShardedEventQueue<LeaderMsg>, KernelPool) {
        // Every cross-shard flight is a wire flight (leaders sit on
        // distinct nodes), so the link latency is a sound lookahead.
        let mut engine =
            ShardedEventQueue::for_backend(backend, self.topo, &self.nodes, self.link.latency_us);
        for e in 0..self.nodes.len() {
            engine.schedule_at(e, 0.0, LeaderMsg::Start);
        }
        let threads = backend
            .shards()
            .min(densela::pool::available_parallelism())
            .max(1);
        (engine, KernelPool::new(threads))
    }

    /// Run the leg on `backend`: the time the last leader finishes, and the
    /// engine's run statistics.
    fn run(&self, backend: DesBackend) -> (f64, RunStats) {
        let (mut engine, pool) = self.engine(backend);
        let schedule = self.schedule;
        let mut states: Vec<LeaderState> =
            (0..self.nodes.len()).map(|_| LeaderState::new()).collect();
        let stats = engine.run(&pool, &mut states, |ctx, t, e, msg| {
            if let LeaderMsg::Arrive(round) = msg {
                let round = u32::from(round);
                assert!(
                    round < schedule.rounds(e),
                    "arrival for round {round} outside leader {e}'s {}-round schedule",
                    schedule.rounds(e)
                );
                ctx.state(e).record(round, t);
            }
            pump_leader(ctx, e, self);
        });
        let inter = states
            .iter()
            .enumerate()
            .map(|(e, st)| {
                assert_eq!(st.round, schedule.rounds(e), "leader {e} did not finish");
                assert!(
                    st.early.is_none(),
                    "leader {e} finished with {} unread arrivals",
                    st.early().count()
                );
                st.clock
            })
            .fold(0.0, f64::max);
        (inter, stats)
    }
}

/// Advance leader `e` through its schedule as far as its arrivals allow:
/// each round's send is issued once at the clock the leader entered with,
/// and an expected round is left only when its arrival is in —
/// `clock = max(clock, arrival)`, the LogGP dependency rule.
fn pump_leader(ctx: &mut Ctx<'_, LeaderState, LeaderMsg>, e: usize, leg: &LeaderLeg<'_>) {
    let rounds = leg.schedule.rounds(e);
    loop {
        let st = ctx.state(e);
        let (r, clock, sent) = (st.round, st.clock, st.sent);
        if r >= rounds {
            break;
        }
        let round = leg.schedule.round(e, r);
        if !sent {
            st.sent = true;
            if let Some((dst, dst_round)) = round.send {
                let t = clock + leg.flight(e, dst, round.bytes);
                ctx.emit(dst, t, LeaderMsg::Arrive(dst_round as u16));
            }
        }
        let st = ctx.state(e);
        if round.expect {
            if st.now.is_nan() {
                break;
            }
            st.clock = st.clock.max(st.now);
        }
        st.advance();
    }
}

/// Event-engine simulation of the hierarchical allreduce, routed through a
/// [`DesBackend`]: closed-form on-node shm reduce/broadcast phases (which
/// the pure-flight binomial tree prices exactly) around an event-driven
/// inter-node leader leg on the serial or sharded engine. The leader leg
/// runs the same algorithm the analytic model selects — recursive doubling
/// below the cutover, Rabenseifner (with the fabric derated to the
/// topology's bisection factor) at or above it.
///
/// Serial and sharded backends produce **bit-identical** times at every
/// shard count — the engine's determinism guarantee, pinned by the conform
/// `des` suite. Returns `(completion time in microseconds, engine run
/// statistics)`; stats are zero when fewer than two nodes are involved.
pub fn allreduce_des_stats(
    net: &Network,
    node_of_rank: &[usize],
    bytes: u64,
    backend: DesBackend,
) -> (f64, RunStats) {
    hierarchical(net, node_of_rank, bytes, |leg| leg.run(backend))
}

/// The hierarchical allreduce with its leader leg run by `leader_leg`,
/// which returns the leg's completion time and run statistics.
fn hierarchical<F>(
    net: &Network,
    node_of_rank: &[usize],
    bytes: u64,
    leader_leg: F,
) -> (f64, RunStats)
where
    F: FnOnce(&LeaderLeg<'_>) -> (f64, RunStats),
{
    let p = node_of_rank.len();
    if p <= 1 {
        return (0.0, RunStats::default());
    }
    let mut nodes = node_of_rank.to_vec();
    nodes.sort_unstable();
    nodes.dedup();
    // Phases 1 and 3: binomial shm tree per node, priced in closed form —
    // under pure flights the tree root finishes after exactly
    // ceil(log2(local)) * shm_flight.
    let mut local = vec![0u32; nodes.last().map_or(0, |&n| n + 1)];
    for &n in node_of_rank {
        local[n] += 1;
    }
    let max_local = nodes.iter().map(|&n| local[n]).max().unwrap_or(1);
    let shm_phase = if max_local > 1 {
        let rounds = 32 - (max_local - 1).leading_zeros();
        f64::from(rounds) * net.flight_time_us(nodes[0], nodes[0], bytes)
    } else {
        0.0
    };
    // Phase 2: leaders exchange over the wire on the event engine.
    let (inter_t, stats) = if nodes.len() > 1 {
        leader_leg(&LeaderLeg::new(net, nodes, bytes))
    } else {
        (0.0, RunStats::default())
    };
    (shm_phase + inter_t + shm_phase, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::allreduce_time_us;
    use archsim::InterconnectKind;

    fn one_rank_per_node(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    fn serial_us(net: &Network, placement: &[usize], bytes: u64) -> f64 {
        allreduce_des_stats(net, placement, bytes, DesBackend::Serial).0
    }

    #[test]
    fn backend_routed_allreduce_is_bit_identical_across_shard_counts() {
        // The engine's core guarantee: serial and sharded runs produce the
        // same completion time to the bit, for both collective algorithms,
        // mixed placements, and non-power-of-two leader counts.
        let placements: Vec<Vec<usize>> = vec![
            one_rank_per_node(6),
            one_rank_per_node(16),
            vec![0, 0, 1, 1, 2, 2, 3, 3, 4, 4],
            vec![0, 2, 2, 5, 5, 5, 7],
        ];
        for kind in [
            InterconnectKind::TofuD,
            InterconnectKind::Aries,
            InterconnectKind::EdrInfiniband,
        ] {
            for placement in &placements {
                for bytes in [8u64, 4096, 1 << 20] {
                    let nodes = placement.iter().max().unwrap() + 1;
                    let net = Network::new(kind, nodes);
                    let serial = serial_us(&net, placement, bytes);
                    for shards in [2usize, 4] {
                        let (sharded, _) = allreduce_des_stats(
                            &net,
                            placement,
                            bytes,
                            DesBackend::Sharded { shards },
                        );
                        assert_eq!(
                            serial.to_bits(),
                            sharded.to_bits(),
                            "{kind:?} {placement:?} {bytes}B: serial {serial} vs sharded{shards} {sharded}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn backend_routed_allreduce_tracks_the_analytic_model() {
        // Same algorithm, same flight pricing, different accounting of
        // overlap: the engine and the closed form should stay within 2.5x
        // in both the latency- and bandwidth-dominated regimes on TofuD.
        // On a non-blocking fat tree the large-message Rabenseifner leg
        // matches its closed form much more tightly.
        let mut cases = Vec::new();
        for nodes in [4usize, 16, 64] {
            for bytes in [8u64, 1 << 20] {
                cases.push((InterconnectKind::TofuD, nodes, bytes, 0.4..=2.5));
            }
        }
        for nodes in [4usize, 8, 16] {
            cases.push((InterconnectKind::EdrInfiniband, nodes, 8 << 20, 0.75..=1.35));
        }
        for (kind, nodes, bytes, band) in cases {
            let placement = one_rank_per_node(nodes);
            let net = Network::new(kind, nodes);
            let des = serial_us(&net, &placement, bytes);
            let analytic = allreduce_time_us(&net, &placement, bytes);
            let ratio = des / analytic;
            assert!(
                band.contains(&ratio),
                "{kind:?} {nodes} nodes {bytes}B: DES {des:.2}us vs analytic {analytic:.2}us"
            );
        }
    }

    #[test]
    fn backend_routed_allreduce_grows_logarithmically() {
        // log2(16)/log2(4) = 2: latency-bound growth is logarithmic.
        let t = |nodes: usize| {
            let net = Network::new(InterconnectKind::Aries, nodes);
            serial_us(&net, &one_rank_per_node(nodes), 8)
        };
        let (t4, t16) = (t(4), t(16));
        assert!(t16 > t4 && t16 < 3.5 * t4, "t4={t4} t16={t16}");
    }

    #[test]
    fn backend_routed_allreduce_matches_shm_closed_form_on_one_node() {
        // Single node: no wire leg, just the two shm tree phases. A
        // binomial reduce replayed clock by clock must finish when the
        // closed form says, and the analytic model must agree to the bit.
        // The shm transport copies on the receiving side, so each round's
        // copy starts once both partners have reached the round.
        fn binomial_tree_us(ranks: usize, flight: f64) -> f64 {
            let mut clock = vec![0.0f64; ranks];
            let mut stride = 1;
            while stride < ranks {
                for idx in (0..ranks - stride).step_by(2 * stride) {
                    clock[idx] = clock[idx].max(clock[idx + stride]) + flight;
                }
                stride *= 2;
            }
            clock[0]
        }
        let net = Network::new(InterconnectKind::Aries, 2);
        for bytes in [8u64, 4096] {
            let flight = net.flight_time_us(0, 0, bytes);
            for ranks in 1..=48usize {
                let placement = vec![0usize; ranks];
                let (des, stats) =
                    allreduce_des_stats(&net, &placement, bytes, DesBackend::Sharded { shards: 4 });
                let tree = 2.0 * binomial_tree_us(ranks, flight);
                let analytic = allreduce_time_us(&net, &placement, bytes);
                assert!(
                    (des - tree).abs() <= 1e-12 * tree.max(1.0),
                    "{ranks} ranks {bytes}B: DES {des} vs binomial tree {tree}"
                );
                assert_eq!(des.to_bits(), analytic.to_bits(), "{ranks} ranks {bytes}B");
                assert_eq!(stats.events, 0, "one node puts nothing on the wire");
            }
        }
        // And the degenerate cases are free.
        assert_eq!(serial_us(&net, &[0], 4096), 0.0);
        assert_eq!(serial_us(&net, &[], 4096), 0.0);
    }

    #[test]
    fn exchange_schedules_feed_every_expecting_round_exactly_once() {
        use crate::collectives::{select_algorithm, CollectiveAlgorithm};
        for p in 2..=300usize {
            for (bytes, algo) in [
                (8u64, CollectiveAlgorithm::RecursiveDoubling),
                (1 << 20, CollectiveAlgorithm::Ring),
            ] {
                assert_eq!(select_algorithm(bytes), algo);
                let schedule = match algo {
                    CollectiveAlgorithm::RecursiveDoubling => Schedule::doubling(p, bytes),
                    CollectiveAlgorithm::Ring => Schedule::rabenseifner(p, bytes),
                };
                let mut fed: Vec<Vec<u32>> = (0..p)
                    .map(|rank| vec![0; schedule.rounds(rank) as usize])
                    .collect();
                let mut sends = 0u64;
                for rank in 0..p {
                    for r in 0..schedule.rounds(rank) {
                        let Some((dst, dst_round)) = schedule.round(rank, r).send else {
                            continue;
                        };
                        assert!(
                            dst < p && dst != rank,
                            "p={p} {algo:?}: {rank} sends to {dst}"
                        );
                        assert!(
                            dst_round < schedule.rounds(dst)
                                && schedule.round(dst, dst_round).expect,
                            "p={p} {algo:?}: {rank} round {r} sends to {dst} round {dst_round}, \
                             which expects nothing"
                        );
                        fed[dst][dst_round as usize] += 1;
                        sends += 1;
                    }
                }
                for (rank, rounds) in fed.iter().enumerate() {
                    for (r, &n) in rounds.iter().enumerate() {
                        let expect = schedule.round(rank, r as u32).expect;
                        assert_eq!(
                            n,
                            u32::from(expect),
                            "p={p} {algo:?}: leader {rank} round {r} fed {n} times"
                        );
                    }
                }
                let net = Network::new(InterconnectKind::TofuD, p);
                let (_, stats) =
                    allreduce_des_stats(&net, &one_rank_per_node(p), bytes, DesBackend::Serial);
                assert_eq!(stats.events, p as u64 + sends, "p={p} {algo:?}");
            }
        }
    }

    #[test]
    fn backend_routed_allreduce_reports_run_stats() {
        let placement = one_rank_per_node(16);
        let net = Network::new(InterconnectKind::TofuD, 16);
        let (t, stats) = allreduce_des_stats(&net, &placement, 8, DesBackend::Serial);
        assert!(t > 0.0);
        // 16 leaders, 4 recursive-doubling rounds: 16 Start roots plus one
        // Arrive per message.
        assert_eq!(stats.events, 16 + 16 * 4);
        assert!(stats.windows > 0);
        let (t2, stats2) =
            allreduce_des_stats(&net, &placement, 8, DesBackend::Sharded { shards: 4 });
        assert_eq!(t.to_bits(), t2.to_bits());
        // Window count and event count are shard-invariant by construction.
        assert_eq!(stats.windows, stats2.windows);
        assert_eq!(stats.events, stats2.events);
        assert!(stats2.cross_msgs > 0, "4 shards must exchange messages");
    }

    #[test]
    fn leader_state_fills_the_current_round_and_buffers_later_ones() {
        let mut st = LeaderState::new();
        st.record(2, 7.0);
        st.record(1, 5.0);
        st.record(0, 3.0);
        assert_eq!((st.now, st.early().count()), (3.0, 2));
        st.advance();
        assert_eq!((st.round, st.now, st.early().count()), (1, 5.0, 1));
        st.advance();
        assert_eq!((st.round, st.now, st.early().count()), (2, 7.0, 0));
        st.advance();
        assert!(st.now.is_nan() && !st.sent, "round 3 has no arrival yet");
    }

    #[test]
    #[should_panic(expected = "duplicate arrival")]
    fn second_arrival_for_the_current_round_panics() {
        let mut st = LeaderState::new();
        st.record(0, 1.0);
        st.record(0, 2.0);
    }

    #[test]
    #[should_panic(expected = "duplicate arrival")]
    fn second_arrival_for_a_buffered_round_panics() {
        let mut st = LeaderState::new();
        st.record(3, 1.0);
        st.record(3, 2.0);
    }

    #[test]
    #[should_panic(expected = "duplicate arrival")]
    fn arrival_for_a_past_round_panics() {
        let mut st = LeaderState::new();
        st.record(0, 1.0);
        st.advance();
        st.record(0, 2.0);
    }

    /// The leader state this module kept before [`LeaderState`]: one
    /// arrival slot per round of the leader's schedule. Reference for the
    /// compact state, which must reproduce it to the bit.
    struct SlotLeader {
        clock: f64,
        round: u32,
        sent: bool,
        /// Arrival time per round; NaN = not yet.
        arrived: Vec<f64>,
        /// Arrivals that landed for a round after the leader's current one.
        early: u64,
    }

    /// Run `leg` on `backend` with per-round-slot leader state. Returns the
    /// leg's completion time, the engine's statistics and the number of
    /// arrivals that came ahead of their leader's round.
    fn slot_oracle(leg: &LeaderLeg<'_>, backend: DesBackend) -> (f64, RunStats, u64) {
        let (mut engine, pool) = leg.engine(backend);
        let schedule = leg.schedule;
        let mut states: Vec<SlotLeader> = (0..leg.nodes.len())
            .map(|e| SlotLeader {
                clock: 0.0,
                round: 0,
                sent: false,
                arrived: vec![f64::NAN; schedule.rounds(e) as usize],
                early: 0,
            })
            .collect();
        let stats = engine.run(&pool, &mut states, |ctx, t, e, msg| {
            if let LeaderMsg::Arrive(round) = msg {
                let st = ctx.state(e);
                let slot = &mut st.arrived[usize::from(round)];
                assert!(
                    slot.is_nan(),
                    "duplicate arrival for leader {e} round {round}"
                );
                *slot = t;
                st.early += u64::from(u32::from(round) > st.round);
            }
            let rounds = schedule.rounds(e);
            loop {
                let st = ctx.state(e);
                let (r, clock, sent) = (st.round, st.clock, st.sent);
                if r >= rounds {
                    break;
                }
                let round = schedule.round(e, r);
                if !sent {
                    st.sent = true;
                    if let Some((dst, dst_round)) = round.send {
                        let t = clock + leg.flight(e, dst, round.bytes);
                        ctx.emit(dst, t, LeaderMsg::Arrive(dst_round as u16));
                    }
                }
                let st = ctx.state(e);
                if round.expect {
                    let arrival = st.arrived[r as usize];
                    if arrival.is_nan() {
                        break;
                    }
                    st.clock = st.clock.max(arrival);
                }
                st.round += 1;
                st.sent = false;
            }
        });
        let inter = states
            .iter()
            .enumerate()
            .map(|(e, st)| {
                assert_eq!(st.round, schedule.rounds(e), "leader {e} did not finish");
                st.clock
            })
            .fold(0.0, f64::max);
        (inter, stats, states.iter().map(|st| st.early).sum())
    }

    /// Assert that the compact leader state reproduces the slot oracle to
    /// the bit on every backend for each byte count. Returns the number of
    /// arrivals that came ahead of their leader's round.
    fn assert_matches_slot_oracle(net: &Network, placement: &[usize], bytes: &[u64]) -> u64 {
        let mut early = 0;
        for &bytes in bytes {
            for backend in [
                DesBackend::Serial,
                DesBackend::Sharded { shards: 2 },
                DesBackend::Sharded { shards: 4 },
            ] {
                let got = allreduce_des_stats(net, placement, bytes, backend);
                let mut ahead = 0;
                let want = hierarchical(net, placement, bytes, |leg| {
                    let (t, stats, n) = slot_oracle(leg, backend);
                    ahead = n;
                    (t, stats)
                });
                let cell = format!(
                    "{} {} ranks {bytes}B {backend}",
                    net.topology().name(),
                    placement.len()
                );
                assert_eq!(got.0.to_bits(), want.0.to_bits(), "{cell}: time");
                assert_eq!(got.1, want.1, "{cell}: run stats");
                early += ahead;
            }
        }
        early
    }

    #[test]
    fn compact_leader_state_matches_the_per_round_slot_oracle() {
        let mut early = 0u64;
        for kind in [
            InterconnectKind::TofuD,
            InterconnectKind::Aries,
            InterconnectKind::EdrInfiniband,
        ] {
            for leaders in (2..=64usize).chain([300]) {
                let net = Network::new(kind, leaders);
                for per_node in [1usize, 2, 4] {
                    let placement: Vec<usize> =
                        (0..leaders * per_node).map(|r| r / per_node).collect();
                    // Recursive doubling, and Rabenseifner with folded
                    // extras whenever `leaders` is not a power of two.
                    early += assert_matches_slot_oracle(&net, &placement, &[8, 1 << 20]);
                }
            }
        }
        assert!(early > 0, "no arrival in the sweep came ahead of its round");
    }

    #[test]
    fn compact_leader_state_matches_the_slot_oracle_on_fragmented_tofud_placements() {
        // Leaders scattered over a 4096-node TofuD machine, as a job gets
        // them on a busy system: uneven hop counts let partners run ahead,
        // so leaders buffer several early arrivals at once.
        let net = Network::new(InterconnectKind::TofuD, 4096);
        let mut early = 0;
        for leaders in [3usize, 37, 128, 300, 517] {
            // An odd multiplier permutes the node ids mod 4096.
            let placement: Vec<usize> = (0..leaders).map(|i| i * 2_654_435_761 % 4096).collect();
            early += assert_matches_slot_oracle(&net, &placement, &[8, 4096, 1 << 20]);
        }
        assert!(early > 0, "no arrival came ahead of its round");
    }
}
