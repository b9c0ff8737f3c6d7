//! Bench for **Figure 12(b)/(c)**: the finite-difference thermal solver
//! over the MI300A floorplan at several grid resolutions.

use ehp_bench::microbench::Bench;
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

fn main() {
    let mut b = Bench::from_args(10);
    let fp = powered_floorplan();
    for (nx, ny) in [(35usize, 28usize), (70, 56), (140, 112)] {
        let solver = ThermalSolver::new(ThermalConfig { nx, ny });
        b.run(&format!("figure12_thermal/{nx}x{ny}"), || {
            solver.solve(&fp).max()
        });
    }
    std::process::exit(b.finish());
}
