//! The network facade: topology + link parameters + per-node injection and
//! ejection channels.
//!
//! `simmpi` prices each (source node, destination node, bytes) message once
//! with [`Network::route`] and then calls [`Network::deliver`] with the
//! route and an issue time to receive the completion time;
//! [`Network::transfer`] does both in one call. Intra-node transfers
//! are modelled as shared-memory copies at a fixed high bandwidth and sub-
//! microsecond latency — this matters for the paper's single-node multi-rank
//! benchmarks, where "MPI" messages never touch the wire.

use archsim::{InterconnectKind, LinkParams};
use faultsim::LinkFaults;

use crate::contention::InjectionChannel;
use crate::topology::{build_topology, Topology};

/// Index of a compute node within a system.
pub type NodeId = usize;

/// Shared-memory bandwidth for intra-node MPI messages, GB/s. Approximates a
/// memcpy through the MPI shared-memory transport.
const SHM_BW_GBS: f64 = 20.0;
/// Latency of an intra-node MPI message, microseconds.
const SHM_LATENCY_US: f64 = 0.3;

/// A system interconnect: topology, LogGP link parameters, and contention
/// state for every node's injection/ejection ports.
pub struct Network {
    topo: Box<dyn Topology>,
    link: LinkParams,
    inject: Vec<InjectionChannel>,
    eject: Vec<InjectionChannel>,
    messages: u64,
    bytes: u128,
    /// Failure-aware delivery state. `None` (the default) is the exact
    /// pre-fault code path; an installed-but-empty schedule must price
    /// every transfer bit-identically to `None`.
    faults: Option<LinkFaults>,
}

/// The issue-time-independent part of one point-to-point transfer,
/// priced by [`Network::route`] and consumed by [`Network::deliver`].
#[derive(Debug, Clone, Copy)]
pub struct Route {
    src: NodeId,
    dst: NodeId,
    bytes: u64,
    hops: u32,
    /// NIC occupancy at full bandwidth (shared-memory copy time when
    /// `src == dst`), µs.
    wire_us: f64,
    /// Latency plus per-hop switching, µs.
    header_us: f64,
    /// Rendezvous handshake before the payload moves (0 below the eager
    /// cutover), µs.
    handshake_us: f64,
}

/// Message, byte and hop totals over a batch of delivered routes, recorded
/// into the ambient recorder in one go: `net.msg`, `net.bytes` and one
/// `net.hops` observation per inter-node message — the same metrics as
/// recording each message on its own.
#[derive(Debug, Default)]
pub struct RouteTally {
    msgs: u64,
    bytes: u64,
    /// Inter-node messages by hop count.
    hops: Vec<u64>,
}

impl RouteTally {
    /// Count one delivered route.
    pub fn count(&mut self, route: &Route) {
        self.msgs += 1;
        self.bytes += route.bytes;
        if route.src != route.dst {
            let h = route.hops as usize;
            if self.hops.len() <= h {
                self.hops.resize(h + 1, 0);
            }
            self.hops[h] += 1;
        }
    }

    /// Messages counted.
    pub fn msgs(&self) -> u64 {
        self.msgs
    }

    /// Payload bytes counted.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Record the totals; records nothing when no message was counted.
    pub fn record(&self) {
        if self.msgs == 0 {
            return;
        }
        obs::add("net.msg", self.msgs);
        obs::add("net.bytes", self.bytes);
        for (h, &n) in self.hops.iter().enumerate() {
            obs::observe_n("net.hops", h as f64, n);
        }
    }
}

impl Network {
    /// Build a network of `nodes` compute nodes of interconnect family
    /// `kind`, using the family's default link parameters.
    pub fn new(kind: InterconnectKind, nodes: usize) -> Self {
        Self::with_link(build_topology(kind, nodes), kind.default_link(), nodes)
    }

    /// Build from an explicit topology and link parameters (ablations).
    pub fn with_link(topo: Box<dyn Topology>, link: LinkParams, nodes: usize) -> Self {
        assert!(
            topo.num_nodes() >= nodes,
            "topology too small for node count"
        );
        Network {
            topo,
            link,
            inject: vec![InjectionChannel::new(); nodes],
            eject: vec![InjectionChannel::new(); nodes],
            messages: 0,
            bytes: 0,
            faults: None,
        }
    }

    /// Install failure-aware delivery: lost messages are retried under the
    /// state's retry policy (timeout + exponential backoff), and transfers
    /// through a degraded endpoint see its NIC bandwidth factor. Until this
    /// is called the network is fault-free and prices transfers exactly as
    /// it always has.
    pub fn set_faults(&mut self, faults: LinkFaults) {
        self.faults = Some(faults);
    }

    /// Remove the fault layer, restoring unconditional delivery.
    pub fn clear_faults(&mut self) {
        self.faults = None;
    }

    /// The installed fault layer, if any (retry/exhaustion statistics).
    pub fn faults(&self) -> Option<&LinkFaults> {
        self.faults.as_ref()
    }

    /// The topology in use.
    pub fn topology(&self) -> &dyn Topology {
        self.topo.as_ref()
    }

    /// The link parameters in use.
    pub fn link(&self) -> LinkParams {
        self.link
    }

    /// Pure (contention-free) transfer time in microseconds between two
    /// nodes for a message of `bytes`. Used by the collective cost models.
    pub fn flight_time_us(&self, src: NodeId, dst: NodeId, bytes: u64) -> f64 {
        if src == dst {
            SHM_LATENCY_US + bytes as f64 / (SHM_BW_GBS * 1e3)
        } else {
            self.link.p2p_time_us(bytes, self.topo.hops(src, dst))
        }
    }

    /// Price the part of a `src` → `dst` transfer of `bytes` that does not
    /// depend on when it is issued: the hop count and the wire, header and
    /// rendezvous-handshake times. Pure; a route stays valid for the
    /// network's lifetime, so callers that send the same message many
    /// times route it once and [`Network::deliver`] it each time.
    pub fn route(&self, src: NodeId, dst: NodeId, bytes: u64) -> Route {
        if src == dst {
            // Intra-node: a shared-memory copy, no NIC involvement.
            return Route {
                src,
                dst,
                bytes,
                hops: 0,
                wire_us: bytes as f64 / (SHM_BW_GBS * 1e3),
                header_us: 0.0,
                handshake_us: 0.0,
            };
        }
        let hops = self.topo.hops(src, dst);
        let header_us = self.link.latency_us + f64::from(hops) * self.link.per_hop_us;
        Route {
            src,
            dst,
            bytes,
            hops,
            wire_us: self.wire_us(bytes, 1.0),
            header_us,
            handshake_us: if bytes >= self.link.rendezvous_cutover_bytes {
                header_us
            } else {
                0.0
            },
        }
    }

    /// Time `bytes` occupy a NIC whose bandwidth is scaled by `degrade`.
    fn wire_us(&self, bytes: u64, degrade: f64) -> f64 {
        bytes as f64 / (self.link.injection_bw_gbs() * degrade * 1e3)
    }

    /// Deliver a routed message issued at `issue_us`; returns its
    /// completion time including injection/ejection contention at both
    /// endpoints. Only the NIC reservations and the fault adjustments
    /// happen here — everything issue-time-independent was priced by
    /// [`Network::route`].
    pub fn deliver(&mut self, route: &Route, issue_us: f64) -> f64 {
        self.messages += 1;
        self.bytes += u128::from(route.bytes);
        if route.src == route.dst {
            return issue_us + SHM_LATENCY_US + route.wire_us;
        }
        // Failure-aware delivery: lost attempts delay the send by the
        // retry policy's timeout+backoff, and a degraded endpoint NIC
        // stretches the wire occupancy. With no faults installed — or an
        // installed-but-empty schedule (no drops, factor 1.0) — both
        // adjustments are exact identities.
        let mut issue_us = issue_us;
        let mut wire_us = route.wire_us;
        if let Some(f) = &mut self.faults {
            let failures = f.next_message_failures();
            if failures > 0 {
                issue_us += f.retry_penalty_us(failures);
                obs::add("net.retries", u64::from(failures));
            }
            let degrade = f.path_factor(route.src, route.dst, issue_us);
            if degrade < 1.0 {
                obs::add("net.degraded_transfers", 1);
            }
            if degrade != 1.0 {
                wire_us = self.wire_us(route.bytes, degrade);
            }
        }
        // Occupy the source NIC for the wire time, then the destination NIC.
        let inject_done = self.inject[route.src].reserve(issue_us + route.handshake_us, wire_us);
        let eject_done =
            self.eject[route.dst].reserve(inject_done + route.header_us - wire_us, wire_us);
        eject_done.max(inject_done + route.header_us)
    }

    /// Route and deliver one transfer issued at `issue_us`, recording it
    /// into the ambient recorder; returns its completion time.
    pub fn transfer(&mut self, src: NodeId, dst: NodeId, bytes: u64, issue_us: f64) -> f64 {
        let route = self.route(src, dst, bytes);
        if obs::enabled() {
            let mut tally = RouteTally::default();
            tally.count(&route);
            tally.record();
        }
        self.deliver(&route, issue_us)
    }

    /// An effective per-node bandwidth (GB/s) for dense global traffic
    /// patterns (all-to-all-like), derated by the topology's bisection.
    pub fn global_traffic_bw_gbs(&self) -> f64 {
        self.link.injection_bw_gbs() * self.topo.bisection_factor()
    }

    /// Total messages sent through the network so far.
    pub fn message_count(&self) -> u64 {
        self.messages
    }

    /// Total bytes sent through the network so far.
    pub fn byte_count(&self) -> u128 {
        self.bytes
    }

    /// Reset contention and counters (e.g. between benchmark repetitions).
    /// An installed fault layer stays installed: its drop stream continues
    /// rather than replaying, so repetitions see fresh (but still
    /// schedule-deterministic) message fates.
    pub fn reset(&mut self) {
        for c in &mut self.inject {
            c.reset();
        }
        for c in &mut self.eject {
            c.reset();
        }
        self.messages = 0;
        self.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edr(nodes: usize) -> Network {
        Network::new(InterconnectKind::EdrInfiniband, nodes)
    }

    #[test]
    fn intra_node_cheaper_than_inter_node() {
        let net = edr(4);
        let intra = net.flight_time_us(0, 0, 64 * 1024);
        let inter = net.flight_time_us(0, 1, 64 * 1024);
        assert!(
            intra < inter,
            "shared memory should beat the wire ({intra} vs {inter})"
        );
    }

    #[test]
    fn transfer_reports_message_metrics() {
        let rec = std::sync::Arc::new(obs::MemRecorder::new());
        let baseline = {
            let mut net = edr(4);
            net.transfer(0, 1, 100, 0.0)
        };
        let traced = obs::with_recorder(rec.clone(), || {
            let mut net = edr(4);
            net.transfer(2, 2, 50, 0.0); // intra-node: counted, no hops
            net.transfer(0, 1, 100, 0.0)
        });
        assert_eq!(traced, baseline, "recording must not perturb timing");
        assert_eq!(rec.counter("net.msg"), Some(2));
        assert_eq!(rec.counter("net.bytes"), Some(150));
        assert_eq!(rec.histogram("net.hops").unwrap().count, 1);
        assert_eq!(rec.counter("net.retries"), None);
    }

    #[test]
    fn concurrent_sends_from_one_node_serialise() {
        let mut net = edr(4);
        let big = 10 << 20;
        let t1 = net.transfer(0, 1, big, 0.0);
        let t2 = net.transfer(0, 2, big, 0.0);
        // Second send must wait for the first to leave the NIC.
        assert!(t2 > t1);
        assert!(t2 >= 2.0 * (big as f64) / (net.link().injection_bw_gbs() * 1e3));
    }

    #[test]
    fn sends_to_one_destination_serialise_at_ejection() {
        let mut net = edr(4);
        let big = 10 << 20;
        let t1 = net.transfer(1, 0, big, 0.0);
        let t2 = net.transfer(2, 0, big, 0.0);
        assert!(t2 > t1);
    }

    #[test]
    fn disjoint_pairs_do_not_contend() {
        let mut net = edr(8);
        let big = 10 << 20;
        let t1 = net.transfer(0, 1, big, 0.0);
        let t2 = net.transfer(2, 3, big, 0.0);
        assert!(
            (t1 - t2).abs() < 1.0,
            "disjoint transfers should complete together"
        );
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let mut net = edr(4);
        net.transfer(0, 1, 100, 0.0);
        net.transfer(1, 2, 200, 0.0);
        assert_eq!(net.message_count(), 2);
        assert_eq!(net.byte_count(), 300);
        net.reset();
        assert_eq!(net.message_count(), 0);
        assert_eq!(net.byte_count(), 0);
    }

    #[test]
    fn tofud_network_builds_for_paper_system() {
        let net = Network::new(InterconnectKind::TofuD, 48);
        assert!(net.topology().num_nodes() >= 48);
        // Striped injection: TofuD drives multiple links at once.
        assert!(net.link().injection_bw_gbs() > net.link().bandwidth_gbs);
    }

    #[test]
    fn empty_fault_schedule_is_bit_identical_to_no_faults() {
        use faultsim::{FaultSchedule, LinkFaults, RetryPolicy};
        let msgs: Vec<(usize, usize, u64)> = vec![
            (0, 1, 100),
            (0, 2, 10 << 20),
            (1, 3, 64 * 1024),
            (2, 2, 1 << 20),
            (3, 0, 8),
        ];
        let mut plain = edr(4);
        let mut faulted = edr(4);
        faulted.set_faults(LinkFaults::new(
            FaultSchedule::none(archsim::SystemId::A64fx, 4, 4),
            RetryPolicy::default_policy(),
        ));
        for (i, &(s, d, b)) in msgs.iter().enumerate() {
            let t0 = plain.transfer(s, d, b, i as f64);
            let t1 = faulted.transfer(s, d, b, i as f64);
            assert_eq!(
                t0.to_bits(),
                t1.to_bits(),
                "msg {i}: fault-off path must be bit-identical ({t0} vs {t1})"
            );
        }
        assert_eq!(faulted.faults().unwrap().retries(), 0);
    }

    #[test]
    fn message_drops_delay_delivery_and_count_retries() {
        use faultsim::{FaultSchedule, LinkFaults, RetryPolicy};
        let mut sched = FaultSchedule::none(archsim::SystemId::A64fx, 4, 4);
        sched.config.seed = 7;
        sched.config.msg_drop_prob = 1.0; // every first attempt is lost
        let mut lossy = edr(4);
        lossy.set_faults(LinkFaults::new(sched, RetryPolicy::default_policy()));
        let mut clean = edr(4);
        let t_clean = clean.transfer(0, 1, 1 << 20, 0.0);
        let t_lossy = lossy.transfer(0, 1, 1 << 20, 0.0);
        assert!(
            t_lossy > t_clean + 100.0,
            "retries must cost at least a timeout: {t_lossy} vs {t_clean}"
        );
        assert!(lossy.faults().unwrap().retries() > 0);
        assert_eq!(lossy.faults().unwrap().exhausted(), 1);
        // Intra-node copies never touch the NIC, so they draw no message
        // fate and see no retry delay.
        let shm_clean = clean.transfer(2, 2, 1 << 20, 0.0);
        let shm_lossy = lossy.transfer(2, 2, 1 << 20, 0.0);
        assert_eq!(shm_clean.to_bits(), shm_lossy.to_bits());
    }

    #[test]
    fn degraded_window_slows_only_covered_transfers() {
        use faultsim::{FaultEvent, FaultSchedule, LinkFaults, RetryPolicy};
        let mut sched = FaultSchedule::none(archsim::SystemId::A64fx, 4, 4);
        sched.events.push(FaultEvent::LinkDegrade {
            node: 1,
            from_us: 0.0,
            until_us: 1e6,
            factor: 0.25,
        });
        let mut net = edr(4);
        net.set_faults(LinkFaults::new(sched, RetryPolicy::default_policy()));
        let mut clean = edr(4);
        let in_window = net.transfer(0, 1, 1 << 20, 0.0);
        let in_window_clean = clean.transfer(0, 1, 1 << 20, 0.0);
        assert!(
            in_window > 2.0 * in_window_clean,
            "4x derate must at least double a large transfer: {in_window} vs {in_window_clean}"
        );
        // Outside the window (and on untouched endpoints) nothing changes.
        net.reset();
        clean.reset();
        let after = net.transfer(0, 1, 1 << 20, 2e6);
        let after_clean = clean.transfer(0, 1, 1 << 20, 2e6);
        assert_eq!(after.to_bits(), after_clean.to_bits());
        let other = net.transfer(2, 3, 1 << 20, 0.0);
        let other_clean = clean.transfer(2, 3, 1 << 20, 0.0);
        assert_eq!(other.to_bits(), other_clean.to_bits());
    }

    #[test]
    fn flight_time_increases_with_distance() {
        let net = Network::new(InterconnectKind::TofuD, 48);
        let near = net.flight_time_us(0, 1, 1024);
        let topo_diameter_pair = {
            // Find the farthest node from 0.
            let mut far = 1;
            for n in 1..48 {
                if net.topology().hops(0, n) > net.topology().hops(0, far) {
                    far = n;
                }
            }
            far
        };
        let far = net.flight_time_us(0, topo_diameter_pair, 1024);
        assert!(far >= near);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn kinds() -> [InterconnectKind; 5] {
        [
            InterconnectKind::TofuD,
            InterconnectKind::Aries,
            InterconnectKind::FdrInfiniband,
            InterconnectKind::EdrInfiniband,
            InterconnectKind::OmniPath,
        ]
    }

    /// The single-call transfer formula `route` + `deliver` replaced,
    /// kept verbatim (minus metrics) as the bit-identity reference.
    struct Reference {
        topo: Box<dyn Topology>,
        link: LinkParams,
        inject: Vec<InjectionChannel>,
        eject: Vec<InjectionChannel>,
        faults: Option<LinkFaults>,
        messages: u64,
        bytes: u128,
    }

    impl Reference {
        fn new(kind: InterconnectKind, nodes: usize, faults: Option<LinkFaults>) -> Self {
            Reference {
                topo: build_topology(kind, nodes),
                link: kind.default_link(),
                inject: vec![InjectionChannel::new(); nodes],
                eject: vec![InjectionChannel::new(); nodes],
                faults,
                messages: 0,
                bytes: 0,
            }
        }

        fn transfer(&mut self, src: NodeId, dst: NodeId, bytes: u64, issue_us: f64) -> f64 {
            self.messages += 1;
            self.bytes += u128::from(bytes);
            if src == dst {
                return issue_us + SHM_LATENCY_US + bytes as f64 / (SHM_BW_GBS * 1e3);
            }
            let mut issue_us = issue_us;
            let mut degrade = 1.0;
            if let Some(f) = &mut self.faults {
                let failures = f.next_message_failures();
                if failures > 0 {
                    issue_us += f.retry_penalty_us(failures);
                }
                degrade = f.path_factor(src, dst, issue_us);
            }
            let hops = self.topo.hops(src, dst);
            let wire_us = bytes as f64 / (self.link.injection_bw_gbs() * degrade * 1e3);
            let header_us = self.link.latency_us + f64::from(hops) * self.link.per_hop_us;
            let handshake = if bytes >= self.link.rendezvous_cutover_bytes {
                header_us
            } else {
                0.0
            };
            let inject_done = self.inject[src].reserve(issue_us + handshake, wire_us);
            let eject_done = self.eject[dst].reserve(inject_done + header_us - wire_us, wire_us);
            eject_done.max(inject_done + header_us)
        }
    }

    /// Fault mode 0: none installed; 1: an empty schedule; 2: message
    /// drops plus two degraded-NIC windows.
    fn fault_layer(mode: u8, nodes: usize, seed: u64) -> Option<LinkFaults> {
        use faultsim::{FaultEvent, FaultSchedule, RetryPolicy};
        let mut sched = FaultSchedule::none(archsim::SystemId::A64fx, nodes as u32, nodes);
        match mode {
            0 => return None,
            1 => {}
            _ => {
                sched.config.seed = seed;
                sched.config.msg_drop_prob = 0.3;
                sched.events.push(FaultEvent::LinkDegrade {
                    node: 0,
                    from_us: 0.0,
                    until_us: 40.0,
                    factor: 0.5,
                });
                sched.events.push(FaultEvent::LinkDegrade {
                    node: nodes - 1,
                    from_us: 20.0,
                    until_us: 1e4,
                    factor: 0.25,
                });
            }
        }
        Some(LinkFaults::new(sched, RetryPolicy::default_policy()))
    }

    proptest! {
        #[test]
        fn route_then_deliver_is_bit_identical_to_the_single_call_formula(
            kind_idx in 0usize..5,
            nodes in 2usize..16,
            mode in 0u8..3,
            seed in 0u64..1000,
            msgs in proptest::collection::vec(
                (0usize..16, 0usize..16, 0u8..2, 0u64..100_000, 0.0f64..10.0),
                1..40,
            ),
        ) {
            let kind = kinds()[kind_idx];
            let mut net = Network::new(kind, nodes);
            if let Some(f) = fault_layer(mode, nodes, seed) {
                net.set_faults(f);
            }
            let mut reference = Reference::new(kind, nodes, fault_layer(mode, nodes, seed));
            let cutover = net.link().rendezvous_cutover_bytes;
            let mut issue = 0.0;
            for (i, (s, d, side, delta, dt)) in msgs.into_iter().enumerate() {
                // Every fourth message is intra-node; the rest may be too.
                let (src, dst) = (s % nodes, if i % 4 == 0 { s % nodes } else { d % nodes });
                // Payloads on both sides of the eager/rendezvous cutover.
                let bytes = if side == 0 {
                    cutover.saturating_sub(1 + delta)
                } else {
                    cutover + delta
                };
                let route = net.route(src, dst, bytes);
                let got = net.deliver(&route, issue);
                let want = reference.transfer(src, dst, bytes, issue);
                prop_assert_eq!(got.to_bits(), want.to_bits(), "message {} ({} -> {}, {} B)", i, src, dst, bytes);
                issue += dt;
            }
            prop_assert_eq!(net.message_count(), reference.messages);
            prop_assert_eq!(net.byte_count(), reference.bytes);
            let stats = |f: Option<&LinkFaults>| f.map(|f| (f.retries(), f.exhausted()));
            prop_assert_eq!(stats(net.faults()), stats(reference.faults.as_ref()));
        }

        #[test]
        fn flight_time_monotone_in_bytes(
            kind_idx in 0usize..5,
            nodes in 2usize..32,
            src_s in 0usize..1000,
            dst_s in 0usize..1000,
            b1 in 0u64..10_000_000,
            b2 in 0u64..10_000_000,
        ) {
            let net = Network::new(kinds()[kind_idx], nodes);
            let (src, dst) = (src_s % nodes, dst_s % nodes);
            let (lo, hi) = (b1.min(b2), b1.max(b2));
            prop_assert!(net.flight_time_us(src, dst, lo) <= net.flight_time_us(src, dst, hi) + 1e-9);
        }

        #[test]
        fn transfers_respect_causality(
            kind_idx in 0usize..5,
            nodes in 2usize..16,
            msgs in proptest::collection::vec((0usize..16, 0usize..16, 1u64..1_000_000), 1..20),
        ) {
            let mut net = Network::new(kinds()[kind_idx], nodes);
            let mut issue = 0.0;
            for (s, d, bytes) in msgs {
                let (src, dst) = (s % nodes, d % nodes);
                let done = net.transfer(src, dst, bytes, issue);
                // Arrival strictly after issue; bounded by a crude upper bound.
                prop_assert!(done > issue);
                issue += 0.1;
            }
        }

        #[test]
        fn reset_restores_contention_free_times(
            kind_idx in 0usize..5,
            nodes in 2usize..8,
        ) {
            let mut net = Network::new(kinds()[kind_idx], nodes);
            let first = net.transfer(0, 1, 1 << 20, 0.0);
            let _ = net.transfer(0, 1, 1 << 20, 0.0); // contended
            net.reset();
            let again = net.transfer(0, 1, 1 << 20, 0.0);
            prop_assert!((first - again).abs() < 1e-9, "reset must restore: {} vs {}", first, again);
        }
    }
}
