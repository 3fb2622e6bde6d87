//! Message-level discrete-event validation of the collective cost models.
//!
//! The analytic models in [`crate::collectives`] price collectives with
//! closed forms. This module simulates the same algorithms **message by
//! message** on the `netsim` event queue — every send becomes an event, NIC
//! contention included — and the test suite checks the closed forms against
//! the event-driven ground truth. This is what keeps the fast analytic path
//! honest.

use netsim::shard::{Ctx, DesBackend, RunStats, ShardedEventQueue};
use netsim::{EventQueue, Network};

/// [`Network::transfer`] with a `net.hop` span when a recorder is active:
/// one span per simulated message, over the send->arrival interval. Only
/// the message-level DES path emits these — the analytic collective
/// models move far too many logical messages to trace individually.
fn hop(net: &mut Network, src: usize, dst: usize, bytes: u64, t_send: f64) -> f64 {
    let done = net.transfer(src, dst, bytes, t_send);
    if obs::enabled() {
        obs::span(
            "net",
            "net.hop",
            t_send,
            done - t_send,
            &[
                ("src_node", obs::AttrValue::U64(src as u64)),
                ("dst_node", obs::AttrValue::U64(dst as u64)),
                ("bytes", obs::AttrValue::U64(bytes)),
            ],
        );
    }
    done
}

/// One message delivery in the event-driven allreduce.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    rank: usize,
    round: u32,
}

/// Simulate a recursive-doubling allreduce of `bytes` per rank, message by
/// message, over the given rank→node placement. Ranks are padded virtually
/// to the next power of two (extra ranks are free riders on node 0, as real
/// implementations fold them in a pre-round we conservatively skip).
/// Returns the completion time in microseconds.
pub fn allreduce_recursive_doubling_des(
    net: &mut Network,
    node_of_rank: &[usize],
    bytes: u64,
) -> f64 {
    let p = node_of_rank.len();
    if p <= 1 {
        return 0.0;
    }
    let rounds = usize::BITS - (p - 1).leading_zeros();
    let mut clock = vec![0.0f64; p];
    let mut q: EventQueue<Arrival> = EventQueue::new();

    // Round 0 sends are scheduled immediately; later rounds are scheduled
    // when both partners have finished the previous round. We process
    // rounds as barriers per pair, which recursive doubling implies.
    for round in 0..rounds {
        // Collect this round's exchanges at current clocks.
        let mask = 1usize << round;
        let mut arrivals: Vec<(usize, f64)> = Vec::new();
        for rank in 0..p {
            let partner = rank ^ mask;
            if partner >= p {
                continue; // padded rank: no message this round
            }
            let t_send = clock[rank];
            let done = hop(
                net,
                node_of_rank[rank],
                node_of_rank[partner],
                bytes,
                t_send,
            );
            q.schedule_at(
                done.max(q.now_us()),
                Arrival {
                    rank: partner,
                    round,
                },
            );
            arrivals.push((partner, done));
        }
        // Drain the round's events; each rank advances to its arrival.
        while let Some(ev) = q.pop() {
            debug_assert_eq!(ev.payload.round, round);
            let r = ev.payload.rank;
            clock[r] = clock[r].max(ev.time_us);
        }
        // Pair synchronisation: both sides proceed at the max of the pair.
        for rank in 0..p {
            let partner = rank ^ mask;
            if partner < p {
                let t = clock[rank].max(clock[partner]);
                clock[rank] = t;
                clock[partner] = t;
            }
        }
    }
    clock.into_iter().fold(0.0, f64::max)
}

/// Simulate a ring allreduce (reduce-scatter + allgather) message by
/// message. Returns the completion time in microseconds.
pub fn allreduce_ring_des(net: &mut Network, node_of_rank: &[usize], bytes: u64) -> f64 {
    let p = node_of_rank.len();
    if p <= 1 {
        return 0.0;
    }
    let chunk = (bytes / p as u64).max(1);
    let mut clock = vec![0.0f64; p];
    // 2(p-1) steps; in step s, rank r sends a chunk to (r+1) % p.
    for _step in 0..2 * (p - 1) {
        let sends: Vec<f64> = (0..p)
            .map(|r| {
                let dst = (r + 1) % p;
                hop(net, node_of_rank[r], node_of_rank[dst], chunk, clock[r])
            })
            .collect();
        let mut next = clock.clone();
        for (r, &done) in sends.iter().enumerate() {
            let dst = (r + 1) % p;
            next[dst] = next[dst].max(done);
        }
        clock = next;
    }
    clock.into_iter().fold(0.0, f64::max)
}

/// Simulate a Rabenseifner allreduce (recursive-halving reduce-scatter,
/// then recursive-doubling allgather) message by message — the algorithm
/// the analytic model prices for messages at or above the cutover. Ranks
/// beyond the largest power of two fold into a partner in a pre-round and
/// receive the result in a post-round, as in MPICH. Returns the completion
/// time in microseconds.
pub fn allreduce_rabenseifner_des(net: &mut Network, node_of_rank: &[usize], bytes: u64) -> f64 {
    let p = node_of_rank.len();
    if p <= 1 {
        return 0.0;
    }
    let steps = usize::BITS - 1 - p.leading_zeros(); // floor(log2 p)
    let p2 = 1usize << steps;
    let extras = p - p2;
    let mut clock = vec![0.0f64; p];
    // Pre-round: rank p2 + i folds its payload into rank i.
    for i in 0..extras {
        let src = p2 + i;
        let done = hop(net, node_of_rank[src], node_of_rank[i], bytes, clock[src]);
        clock[i] = clock[i].max(done);
    }
    // Reduce-scatter by recursive halving, then allgather by recursive
    // doubling: the same pairs exchange the same chunk sizes in reverse.
    let exchange = |net: &mut Network, clock: &mut [f64], step: u32, chunk: u64| {
        let mask = 1usize << step;
        for rank in 0..p2 {
            let partner = rank ^ mask;
            if partner < rank {
                continue; // handle each pair once, both directions below
            }
            let fwd = hop(
                net,
                node_of_rank[rank],
                node_of_rank[partner],
                chunk,
                clock[rank],
            );
            let rev = hop(
                net,
                node_of_rank[partner],
                node_of_rank[rank],
                chunk,
                clock[partner],
            );
            let t = fwd.max(rev);
            clock[rank] = t;
            clock[partner] = t;
        }
    };
    for step in 0..steps {
        exchange(net, &mut clock, step, (bytes >> (step + 1)).max(1));
    }
    for step in (0..steps).rev() {
        exchange(net, &mut clock, step, (bytes >> (step + 1)).max(1));
    }
    // Post-round: results flow back to the folded ranks.
    for i in 0..extras {
        let dst = p2 + i;
        let done = hop(net, node_of_rank[i], node_of_rank[dst], bytes, clock[i]);
        clock[dst] = clock[dst].max(done);
    }
    clock.into_iter().fold(0.0, f64::max)
}

/// Binomial-tree reduce (or, reversed, broadcast) of `bytes` across the
/// `ranks` resident on one `node`, message by message over the
/// shared-memory transport. Returns the completion time given per-rank
/// start clocks of zero.
fn shm_tree_des(net: &mut Network, node: usize, ranks: usize, bytes: u64) -> f64 {
    if ranks <= 1 {
        return 0.0;
    }
    let mut clock = vec![0.0f64; ranks];
    let rounds = usize::BITS - (ranks - 1).leading_zeros();
    for round in 0..rounds {
        let stride = 1usize << round;
        let mut idx = 0;
        while idx + stride < ranks {
            let done = hop(net, node, node, bytes, clock[idx + stride]);
            clock[idx] = clock[idx].max(done);
            idx += stride * 2;
        }
    }
    clock[0]
}

/// Message-level simulation of the full **hierarchical** allreduce the
/// analytic [`crate::collectives::allreduce_time_us`] model prices: a
/// binomial on-node reduce over the shared-memory transport, an inter-node
/// leader allreduce (recursive doubling below the algorithm cutover,
/// Rabenseifner at or above it — the same [`collectives::select_algorithm`]
/// rule), and an on-node broadcast of the result. During the
/// bandwidth-bound leader leg every node injects simultaneously, so the
/// fabric is derated to the topology's bisection factor via
/// [`Network::set_congestion`]. This is the ground truth the conformance
/// suite's differential sweeps hold the closed forms to.
///
/// [`collectives::select_algorithm`]: crate::collectives::select_algorithm
pub fn allreduce_hierarchical_des(net: &mut Network, node_of_rank: &[usize], bytes: u64) -> f64 {
    let p = node_of_rank.len();
    if p <= 1 {
        return 0.0;
    }
    let mut nodes = node_of_rank.to_vec();
    nodes.sort_unstable();
    nodes.dedup();
    // Phases 1 and 3: on-node binomial reduce, then broadcast back out.
    // Nodes proceed independently; the phase ends when the slowest does.
    let shm_phase = |net: &mut Network, nodes: &[usize]| -> f64 {
        nodes
            .iter()
            .map(|&node| {
                let local = node_of_rank.iter().filter(|&&n| n == node).count();
                shm_tree_des(net, node, local, bytes)
            })
            .fold(0.0, f64::max)
    };
    let reduce_t = shm_phase(net, &nodes);
    // Phase 2: leaders allreduce across the wire.
    let inter_t = if nodes.len() > 1 {
        match crate::collectives::select_algorithm(bytes) {
            crate::collectives::CollectiveAlgorithm::RecursiveDoubling => {
                allreduce_recursive_doubling_des(net, &nodes, bytes)
            }
            crate::collectives::CollectiveAlgorithm::Ring => {
                let fabric = net.topology().bisection_factor();
                net.set_congestion(fabric);
                let t = allreduce_rabenseifner_des(net, &nodes, bytes);
                net.set_congestion(1.0);
                t
            }
        }
    } else {
        0.0
    };
    let bcast_t = shm_phase(net, &nodes);
    reduce_t + inter_t + bcast_t
}

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
    /// padding) idle through that round, as in
    /// [`allreduce_recursive_doubling_des`].
    Doubling { p: usize, rounds: u32, bytes: u64 },
    /// Rabenseifner over `p2 + extras` leaders (`p2` the largest power of
    /// two, `steps = log2 p2`): recursive-halving reduce-scatter then
    /// recursive-doubling allgather (the same pairs, same chunk sizes,
    /// mirrored), with leaders `p2 + i` folding into leader `i` in a
    /// pre-round and receiving the result in a post-round, as in
    /// [`allreduce_rabenseifner_des`].
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
    // ceil(log2(local)) * shm_flight, which is shm_tree_des to the bit.
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

/// [`allreduce_des_stats`] without the statistics: the backend-routed
/// completion time in microseconds.
pub fn allreduce_des(
    net: &Network,
    node_of_rank: &[usize],
    bytes: u64,
    backend: DesBackend,
) -> f64 {
    allreduce_des_stats(net, node_of_rank, bytes, backend).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::allreduce_time_us;
    use archsim::InterconnectKind;

    fn one_rank_per_node(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn des_transfers_emit_hop_spans_without_perturbing_time() {
        let placement = one_rank_per_node(4);
        let mut net = Network::new(InterconnectKind::EdrInfiniband, 4);
        let plain = allreduce_recursive_doubling_des(&mut net, &placement, 4096);
        let rec = std::sync::Arc::new(obs::MemRecorder::new());
        let traced = obs::with_recorder(rec.clone(), || {
            let mut net = Network::new(InterconnectKind::EdrInfiniband, 4);
            allreduce_recursive_doubling_des(&mut net, &placement, 4096)
        });
        assert_eq!(
            traced.to_bits(),
            plain.to_bits(),
            "recording moved the DES clock"
        );
        let hops: Vec<_> = rec
            .spans()
            .iter()
            .filter(|s| s.cat == "net" && s.name == "net.hop")
            .cloned()
            .collect();
        // 4 ranks, 2 rounds of recursive doubling: 4 messages per round.
        assert_eq!(hops.len(), 8, "one span per simulated message");
        assert!(hops.iter().all(|s| s.dur_us > 0.0));
    }

    #[test]
    fn des_and_analytic_agree_for_small_messages() {
        // Latency-dominated regime: the analytic recursive-doubling model
        // must agree with the event-driven simulation within 2x.
        for nodes in [2usize, 4, 8, 16] {
            let placement = one_rank_per_node(nodes);
            let mut net = Network::new(InterconnectKind::EdrInfiniband, nodes);
            let des = allreduce_recursive_doubling_des(&mut net, &placement, 8);
            let net2 = Network::new(InterconnectKind::EdrInfiniband, nodes);
            let analytic = allreduce_time_us(&net2, &placement, 8);
            let ratio = des / analytic;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "{nodes} nodes: DES {des:.2}us vs analytic {analytic:.2}us"
            );
        }
    }

    #[test]
    fn des_and_analytic_agree_for_large_messages() {
        // Bandwidth-dominated regime: ring DES vs the Rabenseifner closed
        // form, within 2.5x (different algorithms, same asymptotic volume).
        for nodes in [4usize, 8] {
            let placement = one_rank_per_node(nodes);
            let mut net = Network::new(InterconnectKind::TofuD, nodes);
            let des = allreduce_ring_des(&mut net, &placement, 8 << 20);
            let net2 = Network::new(InterconnectKind::TofuD, nodes);
            let analytic = allreduce_time_us(&net2, &placement, 8 << 20);
            let ratio = des / analytic;
            assert!(
                (0.4..=2.5).contains(&ratio),
                "{nodes} nodes: DES {des:.1}us vs analytic {analytic:.1}us"
            );
        }
    }

    #[test]
    fn des_allreduce_grows_logarithmically() {
        let t4 = {
            let mut n = Network::new(InterconnectKind::Aries, 4);
            allreduce_recursive_doubling_des(&mut n, &one_rank_per_node(4), 8)
        };
        let t16 = {
            let mut n = Network::new(InterconnectKind::Aries, 16);
            allreduce_recursive_doubling_des(&mut n, &one_rank_per_node(16), 8)
        };
        // log2(16)/log2(4) = 2: latency-bound growth is logarithmic.
        assert!(t16 < 3.5 * t4, "t4={t4} t16={t16}");
        assert!(t16 > t4);
    }

    #[test]
    fn des_handles_non_power_of_two() {
        let mut net = Network::new(InterconnectKind::OmniPath, 6);
        let t = allreduce_recursive_doubling_des(&mut net, &one_rank_per_node(6), 1024);
        assert!(t > 0.0 && t.is_finite());
    }

    #[test]
    fn single_rank_is_free() {
        let mut net = Network::new(InterconnectKind::TofuD, 1);
        assert_eq!(allreduce_recursive_doubling_des(&mut net, &[0], 8), 0.0);
        assert_eq!(allreduce_ring_des(&mut net, &[0], 8), 0.0);
    }

    #[test]
    fn rabenseifner_des_tracks_analytic_closed_form() {
        // The analytic large-message model prices Rabenseifner; simulating
        // Rabenseifner message by message must land close for one rank per
        // node on a non-blocking fabric.
        for nodes in [4usize, 8, 16] {
            let placement = one_rank_per_node(nodes);
            let mut net = Network::new(InterconnectKind::EdrInfiniband, nodes);
            let des = allreduce_rabenseifner_des(&mut net, &placement, 8 << 20);
            let net2 = Network::new(InterconnectKind::EdrInfiniband, nodes);
            let analytic = allreduce_time_us(&net2, &placement, 8 << 20);
            let ratio = des / analytic;
            assert!(
                (0.75..=1.35).contains(&ratio),
                "{nodes} nodes: DES {des:.1}us vs analytic {analytic:.1}us"
            );
        }
    }

    #[test]
    fn rabenseifner_des_handles_non_power_of_two() {
        for nodes in [3usize, 5, 6, 7, 12] {
            let mut net = Network::new(InterconnectKind::TofuD, nodes);
            let t = allreduce_rabenseifner_des(&mut net, &one_rank_per_node(nodes), 1 << 20);
            assert!(t > 0.0 && t.is_finite(), "{nodes} nodes");
        }
    }

    #[test]
    fn hierarchical_des_free_for_one_rank_and_positive_otherwise() {
        let mut net = Network::new(InterconnectKind::EdrInfiniband, 4);
        assert_eq!(allreduce_hierarchical_des(&mut net, &[0], 1024), 0.0);
        // 4 nodes x 4 ranks.
        let placement: Vec<usize> = (0..16).map(|r| r / 4).collect();
        let t = allreduce_hierarchical_des(&mut net, &placement, 1024);
        assert!(t > 0.0 && t.is_finite());
        // Congestion is always restored afterwards.
        assert_eq!(net.congestion(), 1.0);
        let big = allreduce_hierarchical_des(&mut net, &placement, 8 << 20);
        assert!(big > t);
        assert_eq!(net.congestion(), 1.0);
    }

    #[test]
    fn hierarchical_des_matches_analytic_shm_phases_on_one_node() {
        // Everything on one node: no wire, just the two shm tree phases —
        // which the DES and the closed form model identically.
        let placement = vec![0usize; 8];
        let mut net = Network::new(InterconnectKind::Aries, 2);
        let des = allreduce_hierarchical_des(&mut net, &placement, 4096);
        let net2 = Network::new(InterconnectKind::Aries, 2);
        let analytic = allreduce_time_us(&net2, &placement, 4096);
        assert!(
            (des - analytic).abs() <= 1e-9 * analytic.max(1.0),
            "DES {des} vs analytic {analytic}"
        );
    }

    #[test]
    fn ring_beats_doubling_for_huge_payloads() {
        // The classic algorithm-selection rule the cutover constant encodes.
        let placement = one_rank_per_node(8);
        let bytes = 32 << 20;
        let mut n1 = Network::new(InterconnectKind::EdrInfiniband, 8);
        let ring = allreduce_ring_des(&mut n1, &placement, bytes);
        let mut n2 = Network::new(InterconnectKind::EdrInfiniband, 8);
        let doubling = allreduce_recursive_doubling_des(&mut n2, &placement, bytes);
        assert!(ring < doubling, "ring {ring} vs doubling {doubling}");
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
                    let serial = allreduce_des(&net, placement, bytes, DesBackend::Serial);
                    for shards in [2usize, 4] {
                        let sharded =
                            allreduce_des(&net, placement, bytes, DesBackend::Sharded { shards });
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
        // in both the latency- and bandwidth-dominated regimes.
        for nodes in [4usize, 16, 64] {
            for bytes in [8u64, 1 << 20] {
                let placement = one_rank_per_node(nodes);
                let net = Network::new(InterconnectKind::TofuD, nodes);
                let des = allreduce_des(&net, &placement, bytes, DesBackend::Serial);
                let analytic = allreduce_time_us(&net, &placement, bytes);
                let ratio = des / analytic;
                assert!(
                    (0.4..=2.5).contains(&ratio),
                    "{nodes} nodes {bytes}B: DES {des:.2}us vs analytic {analytic:.2}us"
                );
            }
        }
    }

    #[test]
    fn backend_routed_allreduce_matches_shm_closed_form_on_one_node() {
        // Single node: no wire leg, just the two shm tree phases, which
        // the closed-form analytic model prices identically.
        let placement = vec![0usize; 8];
        let net = Network::new(InterconnectKind::Aries, 2);
        let des = allreduce_des(&net, &placement, 4096, DesBackend::Sharded { shards: 4 });
        let analytic = allreduce_time_us(&net, &placement, 4096);
        assert!(
            (des - analytic).abs() <= 1e-9 * analytic.max(1.0),
            "DES {des} vs analytic {analytic}"
        );
        // And the degenerate cases are free.
        assert_eq!(allreduce_des(&net, &[0], 4096, DesBackend::Serial), 0.0);
        assert_eq!(allreduce_des(&net, &[], 4096, DesBackend::Serial), 0.0);
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
