//! Bench for **Figure 12(b)/(c)**: the finite-difference thermal solver
//! over the MI300A floorplan at several grid resolutions.

use ehp_bench::microbench::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ehp_package::floorplan::Floorplan;
use ehp_sim_core::units::Power;
use ehp_thermal::{ThermalConfig, ThermalSolver};

fn powered_floorplan() -> Floorplan {
    let mut fp = Floorplan::mi300a();
    fp.assign_power("xcd", Power::from_watts(340.0));
    fp.assign_power("ccd", Power::from_watts(45.0));
    fp.assign_power("iod", Power::from_watts(60.0));
    fp.assign_power("usr", Power::from_watts(20.0));
    fp.assign_power("hbm_phy", Power::from_watts(25.0));
    fp.assign_power("hbm_stack", Power::from_watts(60.0));
    fp
}

fn bench_solver(c: &mut Criterion) {
    let fp = powered_floorplan();
    let mut g = c.benchmark_group("figure12_thermal");
    for (nx, ny) in [(35usize, 28usize), (70, 56), (140, 112)] {
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{nx}x{ny}")),
            &(nx, ny),
            |b, &(nx, ny)| {
                let solver = ThermalSolver::new(ThermalConfig { nx, ny });
                b.iter(|| black_box(solver.solve(&fp).max()));
            },
        );
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_solver
}
criterion_main!(benches);
