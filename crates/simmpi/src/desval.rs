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

use netsim::shard::{Ctx, DesBackend, RunStats, ShardedEventQueue};
use netsim::Network;

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

    /// The longest schedule of any leader: leader 0's, as it is never
    /// folded and is the first to take a pre-round.
    fn max_rounds(self) -> u32 {
        self.rounds(0)
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

/// Message payload of the engine-driven leader allreduce.
#[derive(Debug, Clone, Copy)]
enum LeaderMsg {
    /// Root event: the leader enters round 0 at time zero.
    Start,
    /// A partner's chunk for the given round index arrived.
    Arrive(u32),
}

/// Per-leader progress through its exchange schedule.
#[derive(Debug)]
struct LeaderState<'a> {
    clock: f64,
    round: u32,
    sent: bool,
    /// Arrival time per round, this leader's chunk of one array shared by
    /// all leaders; NaN = not yet.
    arrived: &'a mut [f64],
}

/// Advance leader `e` through its schedule as far as buffered arrivals
/// allow: each round's send is issued once at the clock the leader entered
/// with, and an expected round is left only when its arrival is in —
/// `clock = max(clock, arrival)`, the LogGP dependency rule.
fn pump_leader<F>(
    ctx: &mut Ctx<'_, LeaderState<'_>, LeaderMsg>,
    e: usize,
    schedule: Schedule,
    node_of_leader: &[usize],
    flight: &F,
) where
    F: Fn(usize, usize, u64) -> f64,
{
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
                let t = clock + flight(node_of_leader[e], node_of_leader[dst], round.bytes);
                ctx.emit(dst, t, LeaderMsg::Arrive(dst_round));
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
    // Phase 2: leaders exchange over the wire on the selected engine.
    let (inter_t, stats) = if nodes.len() > 1 {
        let algo = crate::collectives::select_algorithm(bytes);
        let (schedule, fabric) = match algo {
            crate::collectives::CollectiveAlgorithm::RecursiveDoubling => {
                (Schedule::doubling(nodes.len(), bytes), 1.0)
            }
            crate::collectives::CollectiveAlgorithm::Ring => (
                Schedule::rabenseifner(nodes.len(), bytes),
                net.topology().bisection_factor(),
            ),
        };
        let link = net.link();
        let topo = net.topology();
        let flight = move |a: usize, b: usize, chunk: u64| -> f64 {
            let hops = topo.hops(a, b);
            let base = link.latency_us + f64::from(hops) * link.per_hop_us;
            let wire = chunk as f64 / (link.injection_bw_gbs() * fabric * 1e3);
            if chunk >= link.rendezvous_cutover_bytes {
                2.0 * base + wire
            } else {
                base + wire
            }
        };
        // Every cross-shard flight is a wire flight (leaders sit on
        // distinct nodes), so the link latency is a sound lookahead.
        let mut engine: ShardedEventQueue<LeaderMsg> =
            ShardedEventQueue::for_backend(backend, topo, &nodes, link.latency_us);
        let stride = schedule.max_rounds() as usize;
        let mut arrivals = vec![f64::NAN; nodes.len() * stride];
        let mut states: Vec<LeaderState<'_>> = arrivals
            .chunks_mut(stride)
            .map(|arrived| LeaderState {
                clock: 0.0,
                round: 0,
                sent: false,
                arrived,
            })
            .collect();
        for e in 0..nodes.len() {
            engine.schedule_at(e, 0.0, LeaderMsg::Start);
        }
        let threads = backend
            .shards()
            .min(densela::pool::available_parallelism())
            .max(1);
        let pool = densela::KernelPool::new(threads);
        let stats = engine.run(&pool, &mut states, |ctx, t, e, msg| {
            if let LeaderMsg::Arrive(round) = msg {
                assert!(
                    round < schedule.rounds(e),
                    "arrival for round {round} outside leader {e}'s {}-round schedule",
                    schedule.rounds(e)
                );
                let slot = &mut ctx.state(e).arrived[round as usize];
                assert!(
                    slot.is_nan(),
                    "duplicate arrival for leader {e} round {round}"
                );
                *slot = t;
            }
            pump_leader(ctx, e, schedule, &nodes, &flight);
        });
        let inter = states
            .iter()
            .enumerate()
            .map(|(e, st)| {
                assert_eq!(st.round, schedule.rounds(e), "leader {e} did not finish");
                st.clock
            })
            .fold(0.0, f64::max);
        (inter, stats)
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
                    assert!(schedule.rounds(rank) <= schedule.max_rounds());
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
}
