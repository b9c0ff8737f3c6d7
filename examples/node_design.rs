//! Node design-space exploration: use the public API to evaluate custom
//! chiplet packages and node topologies the way Sections V/VIII evaluate
//! MI300 — packaging feasibility, fabric quality, and link budgets.
//!
//! Run with: `cargo run -p ehp-bench --example node_design`

use ehp_core::node::NodeTopology;
use ehp_core::products::Product;
use ehp_fabric::fabric::FabricSim;
use ehp_fabric::link::LinkTech;
use ehp_fabric::topology::{NodeKey, Topology};
use ehp_package::beachfront::{BeachfrontDemand, BeachfrontSupply};
use ehp_package::chiplet::reticle_limit;
use ehp_sim_core::time::SimTime;
use ehp_sim_core::units::Bytes;

fn main() {
    println!("== Node/package design-space exploration ==\n");

    // 1. Packaging feasibility: would a monolithic IOD have worked?
    let demand = BeachfrontDemand::mi300();
    let (single, four_iods) = (
        BeachfrontSupply::single_die(),
        BeachfrontSupply::four_iods(),
    );
    println!("Beachfront audit (8 HBM stacks + 8 x16 links):");
    println!("  demand: {:.0} mm of die edge", demand.required_mm());
    println!(
        "  single reticle ({:.0} mm perimeter): {:.0} mm usable -> {}",
        reticle_limit().perimeter(),
        single.available_mm(),
        if single.meets(&demand) {
            "OK"
        } else {
            "INSUFFICIENT"
        }
    );
    println!(
        "  four IODs: {:.0} mm usable -> {}\n",
        four_iods.available_mm(),
        if four_iods.meets(&demand) {
            "OK"
        } else {
            "INSUFFICIENT"
        }
    );

    // What if a design only needed 4 HBM stacks? Then one die suffices —
    // the tool answers design questions, not just the MI300 one.
    let half_demand = BeachfrontDemand { hbm_stacks: 4 };
    println!(
        "With only 4 HBM stacks, one reticle-limit die {} the demand.\n",
        if single.meets(&half_demand) {
            "meets"
        } else {
            "still misses"
        }
    );

    // 2. Fabric quality of two candidate packages under the same traffic.
    println!("Candidate package fabrics (64 MiB chiplet->far-HBM transfer):");
    for (name, topo, chiplet) in [
        ("MI300-style (USR mesh)", Topology::mi300_package(0), 0u32),
        ("EHPv4-style (SerDes hub)", Topology::ehpv4_package(), 2u32),
    ] {
        let mut fab = FabricSim::new(topo);
        let t = fab
            .send(
                SimTime::ZERO,
                NodeKey::Chiplet(chiplet),
                NodeKey::HbmStack(7),
                Bytes::from_mib(64),
            )
            .expect("reachable");
        println!(
            "  {name}: {} hops, {} end-to-end, {} transport energy",
            t.hops,
            t.latency(),
            t.energy
        );
    }
    let usr = LinkTech::Usr.spec();
    let serdes = LinkTech::Serdes2D.spec();
    println!(
        "  (USR delivers {:.0}x the Tbps/mm^2 of SerDes at {:.1}x lower pJ/B)\n",
        usr.area_density_tbps_mm2 / serdes.area_density_tbps_mm2,
        serdes.energy_per_byte.as_picojoules() / usr.energy_per_byte.as_picojoules()
    );

    // 3. Node topologies: the two exemplary configurations of Figure 18.
    for (name, node) in [
        ("4x MI300A (Figure 18a)", NodeTopology::quad_mi300a()),
        (
            "8x MI300X + hosts (Figure 18b)",
            NodeTopology::eight_mi300x(),
        ),
    ] {
        let a = node.audit().expect("valid");
        println!("{name}:");
        println!(
            "  fully connected: {}, bisection {:.0} GB/s, coherent HBM {}",
            a.accelerators_fully_connected,
            a.bisection_bandwidth.as_gb_s(),
            a.coherent_hbm_capacity
        );
        println!("  free x16 links per socket: {:?}", a.free_links_per_socket);
    }

    // 4. Product headline numbers for context.
    println!("\nPer-socket I/O budgets:");
    for p in Product::SHIPPING {
        let s = p.spec();
        println!(
            "  {:<8} {} x16 links, {:.0} GB/s aggregate",
            s.name,
            s.x16_links,
            s.io_bandwidth().as_gb_s()
        );
    }
}
