//! Interconnect classes and their link-level parameters.
//!
//! These parameters seed the `netsim` topology builders. Values are taken
//! from vendor documentation and the published TofuD paper (Ajima et al.,
//! CLUSTER 2018): TofuD provides 6.8 GB/s per link with six simultaneously
//! usable ports; Aries injects ~10 GB/s per node; FDR InfiniBand is 56 Gb/s
//! and EDR 100 Gb/s per port; OmniPath is 100 Gb/s.

/// The interconnect family of a system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterconnectKind {
    /// Fujitsu TofuD: 6-D mesh/torus (A64FX system, as in Fugaku).
    TofuD,
    /// Cray Aries dragonfly (ARCHER, Cray XC30).
    Aries,
    /// Mellanox FDR InfiniBand fat tree (Cirrus).
    FdrInfiniband,
    /// Mellanox EDR InfiniBand non-blocking fat tree (Fulhame).
    EdrInfiniband,
    /// Intel OmniPath (EPCC NGIO).
    OmniPath,
}

impl InterconnectKind {
    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            InterconnectKind::TofuD => "TofuD",
            InterconnectKind::Aries => "Cray Aries",
            InterconnectKind::FdrInfiniband => "FDR InfiniBand",
            InterconnectKind::EdrInfiniband => "EDR InfiniBand",
            InterconnectKind::OmniPath => "Intel OmniPath",
        }
    }

    /// Default link parameters for the family.
    pub fn default_link(&self) -> LinkParams {
        match self {
            // TofuD: 6.8 GB/s/link, up to 4 links usable concurrently per
            // direction pair in practice; sub-microsecond put latency.
            InterconnectKind::TofuD => LinkParams {
                bandwidth_gbs: 6.8,
                latency_us: 0.49,
                injection_links: 4,
                per_hop_us: 0.08,
                rendezvous_cutover_bytes: 32 * 1024,
            },
            InterconnectKind::Aries => LinkParams {
                bandwidth_gbs: 10.5,
                latency_us: 1.3,
                injection_links: 1,
                per_hop_us: 0.10,
                rendezvous_cutover_bytes: 8 * 1024,
            },
            InterconnectKind::FdrInfiniband => LinkParams {
                bandwidth_gbs: 6.8,
                latency_us: 1.1,
                injection_links: 1,
                per_hop_us: 0.10,
                rendezvous_cutover_bytes: 16 * 1024,
            },
            InterconnectKind::EdrInfiniband => LinkParams {
                bandwidth_gbs: 12.1,
                latency_us: 0.9,
                injection_links: 1,
                per_hop_us: 0.10,
                rendezvous_cutover_bytes: 16 * 1024,
            },
            InterconnectKind::OmniPath => LinkParams {
                bandwidth_gbs: 12.3,
                latency_us: 1.0,
                injection_links: 1,
                per_hop_us: 0.11,
                rendezvous_cutover_bytes: 8 * 1024,
            },
        }
    }
}

/// LogGP-style link parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Per-link unidirectional bandwidth in GB/s.
    pub bandwidth_gbs: f64,
    /// End-to-end small-message latency in microseconds (one hop, including
    /// software overhead on both ends).
    pub latency_us: f64,
    /// Number of links a single node can drive concurrently when injecting
    /// one large message (TofuD can stripe across multiple TNIs).
    pub injection_links: u32,
    /// Additional latency per switch/router hop in microseconds.
    pub per_hop_us: f64,
    /// Message size at which the MPI implementation switches from eager to
    /// rendezvous protocol (adds a round-trip).
    pub rendezvous_cutover_bytes: u64,
}

impl LinkParams {
    /// Effective injection bandwidth for one large message from one node.
    pub fn injection_bw_gbs(&self) -> f64 {
        self.bandwidth_gbs * f64::from(self.injection_links)
    }

    /// Point-to-point message time in microseconds for `bytes` over `hops`
    /// switch hops, using the eager/rendezvous protocol model.
    pub fn p2p_time_us(&self, bytes: u64, hops: u32) -> f64 {
        let base = self.latency_us + f64::from(hops) * self.per_hop_us;
        let wire = bytes as f64 / (self.injection_bw_gbs() * 1e3); // GB/s -> bytes/us
        if bytes >= self.rendezvous_cutover_bytes {
            // Rendezvous: extra handshake round trip.
            2.0 * base + wire
        } else {
            base + wire
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tofud_stripes_injection() {
        let l = InterconnectKind::TofuD.default_link();
        assert!((l.injection_bw_gbs() - 27.2).abs() < 1e-9);
    }

    #[test]
    fn p2p_time_monotone_in_size_and_hops() {
        for kind in [
            InterconnectKind::TofuD,
            InterconnectKind::Aries,
            InterconnectKind::FdrInfiniband,
            InterconnectKind::EdrInfiniband,
            InterconnectKind::OmniPath,
        ] {
            let l = kind.default_link();
            let mut prev = 0.0;
            for sz in [0u64, 8, 1024, 64 * 1024, 1 << 20, 8 << 20] {
                let t = l.p2p_time_us(sz, 2);
                assert!(t >= prev, "{kind:?} not monotone at {sz}");
                prev = t;
            }
            assert!(l.p2p_time_us(1024, 5) > l.p2p_time_us(1024, 1));
        }
    }

    #[test]
    fn rendezvous_adds_handshake() {
        let l = InterconnectKind::EdrInfiniband.default_link();
        let small = l.p2p_time_us(l.rendezvous_cutover_bytes - 1, 1);
        let big = l.p2p_time_us(l.rendezvous_cutover_bytes, 1);
        assert!(big > small);
    }

    #[test]
    fn large_message_time_approaches_bandwidth_bound() {
        let l = InterconnectKind::Aries.default_link();
        let bytes = 100u64 << 20; // 100 MiB
        let t = l.p2p_time_us(bytes, 3);
        let wire_only = bytes as f64 / (l.injection_bw_gbs() * 1e3);
        assert!(t / wire_only < 1.01);
    }
}
