//! Integration: node-scale behaviour — topologies, the timed node
//! fabric, strong scaling and RAS must tell one consistent story.

use ehp_core::node::NodeTopology;
use ehp_core::node_fabric::NodeFabric;
use ehp_core::ras;
use ehp_sim_core::time::SimTime;
use ehp_sim_core::units::Bytes;
use ehp_workloads::hpc::{HpcWorkload, MachineModel};
use ehp_workloads::scaling::ScalingStudy;

#[test]
fn every_builtin_topology_audits_clean_and_routes() {
    for node in [
        NodeTopology::quad_mi300a(),
        NodeTopology::eight_mi300x(),
        NodeTopology::frontier(),
    ] {
        let audit = node.audit().expect("link budgets respected");
        assert!(audit.accelerators_fully_connected);
        let mut fab = NodeFabric::new(&node);
        // Every linked pair can actually move data.
        for l in node.links() {
            let t = fab
                .send(SimTime::ZERO, l.a, l.b, Bytes::from_kib(64))
                .expect("linked sockets reachable");
            assert!(t.completed > SimTime::ZERO);
        }
    }
}

#[test]
fn scaling_is_consistent_with_fabric_bandwidth() {
    // The 4-socket speedup is Amdahl's split of one socket's step (2 %
    // serial) plus a ring all-reduce of 4 MiB per socket at the pair
    // bandwidth and latency the node fabric reports.
    let node = NodeTopology::quad_mi300a();
    let fab = NodeFabric::new(&node);
    let pair_bw = fab
        .socket_bandwidth()
        .expect("connected")
        .as_bytes_per_sec();
    let lat = fab.socket_latency().expect("connected").as_secs();
    let single = MachineModel::mi300a()
        .step_time(&HpcWorkload::hpcg())
        .as_secs();
    let n = 4.0;
    let comm = 2.0 * (n - 1.0) / n * Bytes::from_mib(4).as_f64() / pair_bw + 2.0 * (n - 1.0) * lat;
    let want = single / (single * 0.02 + single * 0.98 / n + comm);
    let got = ScalingStudy::hpcg_on_mi300a().speedup(4);
    assert!(
        (got - want).abs() < 1e-6 * want,
        "speedup {got} vs {want} from the fabric's numbers"
    );
    // The all-reduce costs something: below the communication-free bound.
    assert!(got < 1.0 / (0.02 + 0.98 / n));
}

#[test]
fn node_fabric_contention_matches_topology_budget() {
    // Saturating all six of a socket's IF bundles concurrently cannot
    // exceed its 8-link I/O budget.
    let node = NodeTopology::quad_mi300a();
    let mut fab = NodeFabric::new(&node);
    let size = Bytes::from_gib(1);
    let mut last = SimTime::ZERO;
    for peer in 1..4 {
        let t = fab.send(SimTime::ZERO, 0, peer, size).expect("connected");
        if t.completed > last {
            last = t.completed;
        }
    }
    let achieved = 3.0 * size.as_f64() / last.as_secs() / 1e9;
    // 3 independent pair bundles x 128 GB/s = 384 GB/s max egress here.
    assert!(achieved <= 385.0, "achieved {achieved:.0} GB/s");
    assert!(achieved > 350.0, "parallel bundles should run concurrently");
}

#[test]
fn ras_summary_scales_with_node_count() {
    let small = ras::summarize(500);
    let large = ras::summarize(9_408);
    assert!(large.failures_per_day > small.failures_per_day);
    assert!(large.efficiency < small.efficiency);
    assert!(
        large.checkpoint_interval < small.checkpoint_interval,
        "bigger systems checkpoint more often"
    );
}
