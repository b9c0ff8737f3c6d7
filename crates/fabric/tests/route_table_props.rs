//! Property tests for the fabric's route table and dense flow solver
//! (DESIGN.md §9), against the oracles in `oracle/mod.rs`. Over every
//! topology the simulator builds, and over SplitMix64-generated random
//! topologies, the route table must agree with a fresh per-pair BFS for
//! every (src, dst) pair, and the dense allocation-free solver must
//! produce bit-identical rates to the pre-refactor reference solver.

mod oracle;
// The oracle names the fabric's modules as `crate::flows` and
// `crate::topology`.
use ehp_fabric::{flows, topology};

use std::collections::BTreeSet;

use ehp_core::node::NodeTopology;
use ehp_core::node_fabric::fabric_topology;
use ehp_fabric::flows::{Flow, FlowSolver, SolverWorkspace};
use ehp_fabric::link::LinkTech;
use ehp_fabric::topology::{NodeKey, Topology};
use ehp_sim_core::rng::SplitMix64;
use ehp_sim_core::units::Bandwidth;

use oracle::Bfs;

const TECHS: [LinkTech; 6] = [
    LinkTech::HybridBond3D,
    LinkTech::Usr,
    LinkTech::HbmPhy,
    LinkTech::Serdes2D,
    LinkTech::X16InfinityFabric,
    LinkTech::X16Pcie,
];

fn random_key(rng: &mut SplitMix64, id_space: u64) -> NodeKey {
    let id = rng.next_below(id_space) as u32;
    match rng.next_below(5) {
        0 => NodeKey::Iod(id),
        1 => NodeKey::Chiplet(id),
        2 => NodeKey::HbmStack(id),
        3 => NodeKey::IoPort(id),
        _ => NodeKey::External(id),
    }
}

/// A random multigraph: sometimes one cluster, sometimes two clusters
/// with no links between them so unreachable pairs are exercised too.
fn random_topology(rng: &mut SplitMix64) -> Topology {
    let nodes: Vec<NodeKey> = (0..2 + rng.next_below(10))
        .map(|_| random_key(rng, 16))
        .collect();
    let split = if rng.chance(0.3) && nodes.len() >= 4 {
        nodes.len() / 2
    } else {
        nodes.len()
    };
    let count = nodes.len() as u64 + rng.next_below(2 * nodes.len() as u64 + 1);
    let mut links = Vec::new();
    for _ in 0..count {
        // Pick both endpoints inside one cluster (self-links allowed:
        // the router must tolerate degenerate edges).
        let cluster = if (rng.next_below(nodes.len() as u64) as usize) < split {
            &nodes[..split]
        } else {
            &nodes[split..]
        };
        if cluster.is_empty() {
            continue;
        }
        let a = cluster[rng.next_below(cluster.len() as u64) as usize];
        let b = cluster[rng.next_below(cluster.len() as u64) as usize];
        let tech = TECHS[rng.next_below(TECHS.len() as u64) as usize];
        links.push((a, b, tech.spec()));
    }
    Topology::from_links(links)
}

/// Every node of `topo`, sorted (links are full duplex, so every node is
/// some edge's source).
fn nodes(topo: &Topology) -> Vec<NodeKey> {
    let nodes: BTreeSet<NodeKey> = topo.edges().iter().map(|e| e.from).collect();
    nodes.into_iter().collect()
}

/// Every topology the simulator builds: the three package builders and
/// the node fabrics of the three built-in nodes.
fn production_topologies() -> [(&'static str, Topology); 6] {
    [
        ("mi300x", Topology::mi300_package(0)),
        ("mi300a", Topology::mi300_package(3)),
        ("ehpv4", Topology::ehpv4_package()),
        ("quad_mi300a", fabric_topology(&NodeTopology::quad_mi300a())),
        (
            "eight_mi300x",
            fabric_topology(&NodeTopology::eight_mi300x()),
        ),
        ("frontier", fabric_topology(&NodeTopology::frontier())),
    ]
}

/// Checks every route and hop count of `topo`, including to and from a
/// node absent from the graph, against the per-pair BFS.
fn assert_table_matches_bfs(case: &str, topo: &Topology) {
    let bfs = Bfs::new(topo);
    let mut probes = nodes(topo);
    probes.push(NodeKey::External(999));
    for &a in &probes {
        for &b in &probes {
            let table: Option<Vec<usize>> = topo
                .route(a, b)
                .map(|p| p.iter().map(|&ei| ei as usize).collect());
            let expect = bfs.route(a, b);
            assert_eq!(table, expect, "{case}: {a:?} -> {b:?}");
            assert_eq!(
                topo.hops(a, b),
                expect.map(|p| p.len()),
                "{case}: hops {a:?} -> {b:?}"
            );
        }
    }
}

/// Solves `flows` with the dense solver, one-shot and through the reused
/// workspace `ws`, and checks both against the reference solver.
fn assert_solver_matches_reference(
    case: &str,
    topo: &Topology,
    flows: &[Flow],
    ws: &mut SolverWorkspace,
) {
    let expect = oracle::solve(topo, flows);
    let solver = FlowSolver::new(topo);
    assert_eq!(
        oracle::outcomes(&solver.solve(flows)),
        expect,
        "{case}: dense and reference solver outputs diverge"
    );
    let mut out = Vec::new();
    solver.solve_into(flows, ws, &mut out);
    assert_eq!(oracle::outcomes(&out), expect, "{case}: reused workspace");
}

#[test]
fn route_table_matches_fresh_bfs_for_every_pair() {
    for (name, topo) in production_topologies() {
        assert_table_matches_bfs(name, &topo);
    }
    let mut rng = SplitMix64::new(0x5EED_F00D);
    for case in 0..150 {
        let topo = random_topology(&mut rng);
        assert_table_matches_bfs(&format!("case {case}"), &topo);
    }
}

#[test]
fn dense_solver_is_byte_identical_to_reference() {
    let mut rng = SplitMix64::new(0xFAB_1234);
    // One workspace reused across every case: reuse must never leak
    // state between solves.
    let mut ws = SolverWorkspace::new();
    for case in 0..120 {
        let topo = random_topology(&mut rng);
        let nodes = nodes(&topo);
        let mut flows = Vec::new();
        for _ in 0..rng.next_below(24) {
            let from = if rng.chance(0.05) {
                NodeKey::External(777) // unroutable
            } else {
                nodes[rng.next_below(nodes.len() as u64) as usize]
            };
            let to = if rng.chance(0.1) {
                from // self-flow: empty route
            } else {
                nodes[rng.next_below(nodes.len() as u64) as usize]
            };
            let demand = rng
                .chance(0.4)
                .then(|| Bandwidth::from_gb_s(1.0 + rng.next_f64() * 400.0));
            flows.push(Flow { from, to, demand });
        }
        assert_solver_matches_reference(&format!("case {case}"), &topo, &flows, &mut ws);
    }
}

#[test]
fn builder_topologies_solve_byte_identical_at_scale() {
    // The all-to-all pattern every experiment sweeps: each chiplet to
    // each HBM stack on a package, each socket to each other socket on a
    // node. Solved greedy, then with every third source's flows capped so
    // both freeze paths run.
    let mut ws = SolverWorkspace::new();
    for (name, topo) in production_topologies() {
        let nodes = nodes(&topo);
        let pick = |want: fn(&NodeKey) -> bool| -> Vec<NodeKey> {
            nodes.iter().copied().filter(want).collect()
        };
        let (sources, sinks) = if nodes.iter().all(|n| matches!(n, NodeKey::External(_))) {
            (nodes.clone(), nodes.clone())
        } else {
            (
                pick(|n| matches!(n, NodeKey::Chiplet(_))),
                pick(|n| matches!(n, NodeKey::HbmStack(_))),
            )
        };
        let mut greedy = Vec::new();
        let mut capped = Vec::new();
        for (i, &from) in sources.iter().enumerate() {
            for (j, &to) in sinks.iter().enumerate() {
                greedy.push(Flow::greedy(from, to));
                let demand = (i % 3 == 0).then(|| Bandwidth::from_gb_s((40 + 17 * j) as f64));
                capped.push(Flow { from, to, demand });
            }
        }
        assert_solver_matches_reference(name, &topo, &greedy, &mut ws);
        assert_solver_matches_reference(&format!("{name} capped"), &topo, &capped, &mut ws);
    }
}
