//! Interconnect anatomy: the four fabrics of the paper's systems compared —
//! topology shapes, point-to-point costs, collective scaling, and a
//! message-level discrete-event allreduce cross-checking the analytic model.
//!
//! ```sh
//! cargo run --release --example interconnect_study
//! ```

use a64fx_repro::archsim::InterconnectKind;
use a64fx_repro::netsim::{build_topology, DesBackend, Network};
use a64fx_repro::simmpi::collectives::allreduce_time_us;
use a64fx_repro::simmpi::desval::allreduce_des_stats;

fn main() {
    let kinds = [
        InterconnectKind::TofuD,
        InterconnectKind::Aries,
        InterconnectKind::FdrInfiniband,
        InterconnectKind::EdrInfiniband,
        InterconnectKind::OmniPath,
    ];

    println!(
        "{:<16} {:>9} {:>10} {:>10} {:>12}",
        "fabric", "link GB/s", "latency us", "diameter", "bisection"
    );
    for kind in kinds {
        let link = kind.default_link();
        let topo = build_topology(kind, 64);
        println!(
            "{:<16} {:>9.1} {:>10.2} {:>10} {:>12.2}",
            kind.name(),
            link.injection_bw_gbs(),
            link.latency_us,
            topo.diameter(),
            topo.bisection_factor()
        );
    }

    println!("\n8-byte allreduce time (us) by node count — analytic model:");
    print!("{:<16}", "fabric");
    for n in [2usize, 4, 8, 16, 32] {
        print!(" {n:>8}");
    }
    println!();
    for kind in kinds {
        let net = Network::new(kind, 32);
        print!("{:<16}", kind.name());
        for n in [2usize, 4, 8, 16, 32] {
            let placement: Vec<usize> = (0..n).collect();
            print!(" {:>8.2}", allreduce_time_us(&net, &placement, 8));
        }
        println!();
    }

    println!("\nCross-check: message-level DES vs analytic model (16 nodes, 8 B):");
    for kind in kinds {
        let placement: Vec<usize> = (0..16).collect();
        let net = Network::new(kind, 16);
        let (des, _) = allreduce_des_stats(&net, &placement, 8, DesBackend::Serial);
        let analytic = allreduce_time_us(&net, &placement, 8);
        println!(
            "  {:<16} DES {des:>7.2} us   analytic {analytic:>7.2} us   ratio {:.2}",
            kind.name(),
            des / analytic
        );
    }
    println!("\nThe TofuD's sub-microsecond put latency and striped injection are why the");
    println!("paper saw 'no significant overhead from the network hardware' on the A64FX.");
}
