//! Fabric benches: transfer simulation over the MI300 package versus the
//! EHPv4 organisation (the Figure 4 comparison as a running system), and
//! the dense-index max-min flow solver against the pre-refactor
//! reference solver (DESIGN.md §9), which lives with the fabric tests'
//! oracles in `crates/fabric/tests/oracle/mod.rs`.
//!
//! CI gates this bench against the checked-in, calibration-normalised
//! baseline `crates/bench/baselines/fabric.json` (see ci.sh). The solver
//! comparison also hard-asserts two invariants each run: dense and
//! reference outputs are byte-identical, and the dense path is at least
//! 2x faster on repeated solves over the MI300X-scale topology.

#[path = "../../fabric/tests/oracle/mod.rs"]
mod oracle;
// The oracle names the fabric's modules as `crate::flows` and
// `crate::topology`.
use ehp_fabric::{flows, topology};

use std::time::Instant;

use ehp_bench::microbench::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ehp_fabric::fabric::FabricSim;
use ehp_fabric::flows::{Flow, FlowSolver, SolverWorkspace};
use ehp_fabric::topology::{NodeKey, Topology};
use ehp_sim_core::rng::SplitMix64;
use ehp_sim_core::time::SimTime;
use ehp_sim_core::units::Bytes;

fn drive(fab: &mut FabricSim, chiplets: &[u32], stacks: u32, sends: u32, seed: u64) -> SimTime {
    let mut rng = SplitMix64::new(seed);
    let mut last = SimTime::ZERO;
    for _ in 0..sends {
        let c = chiplets[rng.next_below(chiplets.len() as u64) as usize];
        let s = rng.next_below(u64::from(stacks)) as u32;
        let t = fab
            .send(
                SimTime::ZERO,
                NodeKey::Chiplet(c),
                NodeKey::HbmStack(s),
                Bytes::from_kib(4),
            )
            .expect("reachable");
        if t.completed > last {
            last = t.completed;
        }
    }
    last
}

type PackageCase = (&'static str, fn() -> Topology, Vec<u32>);

fn bench_packages(c: &mut Criterion) {
    let mut g = c.benchmark_group("fabric_uniform_traffic");
    let cases: [PackageCase; 2] = [
        ("mi300a", || Topology::mi300_package(3), (0..6).collect()),
        ("ehpv4", Topology::ehpv4_package, vec![2, 3, 4, 5]),
    ];
    for (label, topo_fn, chiplets) in cases {
        g.bench_with_input(BenchmarkId::from_parameter(label), &label, |b, _| {
            b.iter(|| {
                let mut fab = FabricSim::new(topo_fn());
                black_box(drive(&mut fab, &chiplets, 8, 5_000, 11))
            });
        });
    }
    g.finish();
}

/// The MI300X-scale streaming pattern: every XCD to every HBM stack,
/// with a third of the flows demand-capped so both freeze paths run.
fn mi300x_flow_set() -> (Topology, Vec<Flow>) {
    let topo = Topology::mi300_package(0);
    let mut flows = Vec::new();
    for c in 0..8u32 {
        for s in 0..8u32 {
            let mut f = Flow::greedy(NodeKey::Chiplet(c), NodeKey::HbmStack(s));
            if (c + s) % 3 == 0 {
                f.demand = Some(ehp_sim_core::units::Bandwidth::from_gb_s(f64::from(
                    50 + 20 * s,
                )));
            }
            flows.push(f);
        }
    }
    (topo, flows)
}

fn bench_flow_solver(c: &mut Criterion) {
    let (topo, flows) = mi300x_flow_set();
    let solver = FlowSolver::new(&topo);

    // Invariant 1: the dense path reproduces the reference byte-for-byte.
    assert_eq!(
        oracle::outcomes(&solver.solve(&flows)),
        oracle::solve(&topo, &flows),
        "dense solver output diverged from the reference"
    );

    let mut g = c.benchmark_group("fabric_solve");
    g.bench_with_input(BenchmarkId::from_parameter("dense"), &(), |b, ()| {
        let mut ws = SolverWorkspace::new();
        let mut out = Vec::new();
        b.iter(|| {
            solver.solve_into(black_box(&flows), &mut ws, &mut out);
            black_box(out.len())
        });
    });
    g.bench_with_input(BenchmarkId::from_parameter("reference"), &(), |b, ()| {
        b.iter(|| black_box(oracle::solve(&topo, black_box(&flows)).len()));
    });
    g.finish();

    // Invariant 2 (the PR's acceptance bar): >= 2x on repeated solves.
    // Min-of-N wall times so background noise cannot fake a regression.
    let min_time = |f: &mut dyn FnMut()| {
        (0..15)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed()
            })
            .min()
            .expect("nonempty")
    };
    let mut ws = SolverWorkspace::new();
    let mut out = Vec::new();
    solver.solve_into(&flows, &mut ws, &mut out); // warm the workspace
    let dense_t = min_time(&mut || {
        for _ in 0..10 {
            solver.solve_into(black_box(&flows), &mut ws, &mut out);
        }
    });
    let ref_t = min_time(&mut || {
        for _ in 0..10 {
            black_box(oracle::solve(&topo, black_box(&flows)));
        }
    });
    let speedup = ref_t.as_secs_f64() / dense_t.as_secs_f64();
    println!("fabric_solve speedup: dense is {speedup:.1}x the reference");
    assert!(
        speedup >= 2.0,
        "dense solver must be >= 2x the reference (measured {speedup:.2}x)"
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_packages, bench_flow_solver
}
criterion_main!(benches);
