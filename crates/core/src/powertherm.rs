//! Closed-loop power/thermal management.
//!
//! Section V.E: "the effective power and thermal management of MI300A
//! was accomplished through careful engineering and co-design of both
//! TSV placement and power density/power map planning." This module
//! closes the loop at runtime the way the platform firmware does:
//! allocate the budget for the workload profile, solve the thermal
//! field, and if the hottest spot exceeds the junction limit, walk power
//! away from the offending domain (trading clocks via the DVFS curve)
//! until the package is thermally safe.

use ehp_package::floorplan::Floorplan;
use ehp_power::budget::{PowerDistribution, PowerDomain, SocketPowerManager, WorkloadProfile};
use ehp_power::dvfs;
use ehp_sim_core::units::Power;
use ehp_thermal::{ThermalConfig, ThermalSolver};

use crate::products::Product;

/// The compute domain's share that heats the XCDs; the CCDs take the
/// rest.
pub const XCD_SHARE: f64 = 0.88;

/// The MI300A floorplan heated from a power distribution: the compute
/// domain splits [`XCD_SHARE`] to the XCDs and the rest to the CCDs, the
/// IODs carry the Infinity Cache and the data fabric, the USR and HBM
/// PHYs their own domains, and the HBM stacks the DRAM and I/O power.
#[must_use]
pub fn mi300a_power_map(d: &PowerDistribution) -> Floorplan {
    let mut fp = Floorplan::mi300a();
    let compute = d.get(PowerDomain::ComputeChiplets);
    fp.assign_power("xcd", compute.scale(XCD_SHARE));
    fp.assign_power("ccd", compute.scale(1.0 - XCD_SHARE));
    fp.assign_power(
        "iod",
        d.get(PowerDomain::InfinityCache) + d.get(PowerDomain::DataFabric),
    );
    fp.assign_power("usr", d.get(PowerDomain::UsrPhys));
    fp.assign_power("hbm_phy", d.get(PowerDomain::HbmPhys));
    fp.assign_power(
        "hbm_stack",
        d.get(PowerDomain::HbmDram) + d.get(PowerDomain::Io),
    );
    fp
}

/// Power stepped away from compute per iteration (W).
const STEP_W: f64 = 10.0;
/// Iteration cap.
const MAX_ITERS: u32 = 40;

/// Controller parameters.
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    /// Junction temperature limit (°C).
    pub tj_limit_c: f64,
    /// Thermal solver settings.
    pub thermal: ThermalConfig,
}

impl Default for ControllerConfig {
    fn default() -> ControllerConfig {
        ControllerConfig {
            tj_limit_c: 95.0,
            thermal: ThermalConfig::default(),
        }
    }
}

/// The converged operating point.
#[derive(Debug, Clone)]
pub struct OperatingPoint {
    /// Final per-domain power distribution.
    pub compute_power: Power,
    /// Peak temperature at convergence (°C).
    pub peak_c: f64,
    /// Achieved XCD clock as a fraction of nominal.
    pub xcd_perf_factor: f64,
    /// Controller iterations used.
    pub iterations: u32,
    /// Whether the junction limit was met.
    pub thermally_safe: bool,
}

/// The closed-loop controller for an MI300A socket.
///
/// # Examples
///
/// ```
/// use ehp_core::powertherm::PowerThermalController;
/// use ehp_power::budget::WorkloadProfile;
///
/// let mut c = PowerThermalController::mi300a();
/// let op = c.converge(WorkloadProfile::ComputeIntensive);
/// assert!(op.thermally_safe);
/// ```
#[derive(Debug)]
pub struct PowerThermalController {
    cfg: ControllerConfig,
    pm: SocketPowerManager,
}

impl PowerThermalController {
    /// Creates a controller for an MI300A socket at its spec-sheet TDP.
    #[must_use]
    pub fn new(cfg: ControllerConfig) -> PowerThermalController {
        PowerThermalController {
            cfg,
            pm: SocketPowerManager::new(Product::Mi300a.spec().tdp),
        }
    }

    /// An MI300A controller with the default configuration.
    #[must_use]
    pub fn mi300a() -> PowerThermalController {
        PowerThermalController::new(ControllerConfig::default())
    }

    /// Runs the loop for a workload profile and returns the converged
    /// operating point.
    pub fn converge(&mut self, profile: WorkloadProfile) -> OperatingPoint {
        self.pm.apply_profile(profile);
        let solver = ThermalSolver::new(self.cfg.thermal);

        let mut iterations = 0;
        loop {
            let fp = mi300a_power_map(self.pm.current());
            let field = solver.solve(&fp);
            let (peak, _) = field.max();

            let compute = self.pm.current().get(PowerDomain::ComputeChiplets);
            if peak <= self.cfg.tj_limit_c || iterations >= MAX_ITERS {
                let per_xcd = compute.scale(XCD_SHARE / 6.0);
                return OperatingPoint {
                    compute_power: compute,
                    peak_c: peak,
                    xcd_perf_factor: dvfs::perf_factor(per_xcd),
                    iterations,
                    thermally_safe: peak <= self.cfg.tj_limit_c,
                };
            }

            // Too hot: move power from the compute chiplets into the
            // (cooler, laterally spread) memory system. If compute is
            // already at the floor, shed the power entirely by moving it
            // to I/O then zeroing is not modelled — the DVFS floor keeps
            // this loop bounded via MAX_ITERS.
            let moved = self.pm.shift(
                PowerDomain::ComputeChiplets,
                PowerDomain::HbmDram,
                Power::from_watts(STEP_W),
            );
            if moved == Power::ZERO {
                iterations = MAX_ITERS;
            }
            iterations += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg(tj: f64) -> ControllerConfig {
        ControllerConfig {
            tj_limit_c: tj,
            thermal: ThermalConfig { nx: 35, ny: 28 },
        }
    }

    #[test]
    fn cool_limit_needs_no_intervention() {
        let mut c = PowerThermalController::new(fast_cfg(95.0));
        let op = c.converge(WorkloadProfile::ComputeIntensive);
        assert!(op.thermally_safe);
        assert_eq!(op.iterations, 0, "95C limit is comfortable at 550 W");
        assert!((op.xcd_perf_factor - 1.0).abs() < 0.25);
    }

    #[test]
    fn tight_limit_sheds_compute_power() {
        let mut base = PowerThermalController::new(fast_cfg(95.0));
        let unconstrained = base.converge(WorkloadProfile::ComputeIntensive);

        let mut tight = PowerThermalController::new(fast_cfg(unconstrained.peak_c - 2.0));
        let op = tight.converge(WorkloadProfile::ComputeIntensive);
        assert!(op.thermally_safe, "controller must converge");
        assert!(op.iterations > 0);
        assert!(
            op.compute_power.as_watts() < unconstrained.compute_power.as_watts(),
            "compute power shed: {} vs {}",
            op.compute_power,
            unconstrained.compute_power
        );
        assert!(op.xcd_perf_factor < unconstrained.xcd_perf_factor);
        assert!(op.peak_c <= unconstrained.peak_c);
    }

    #[test]
    fn total_power_conserved_by_shifting() {
        let mut c = PowerThermalController::new(fast_cfg(40.0));
        c.converge(WorkloadProfile::ComputeIntensive);
        // Shifting moves power between domains; the envelope stays at
        // TDP even when the loop runs out of compute power to shed.
        assert!((c.pm.current().total().as_watts() - 550.0).abs() < 1e-6);
    }

    #[test]
    fn impossible_limit_terminates() {
        let mut c = PowerThermalController::new(fast_cfg(5.0));
        let op = c.converge(WorkloadProfile::MemoryIntensive);
        assert!(!op.thermally_safe, "5C is below coolant; cannot be met");
        assert!(op.iterations <= MAX_ITERS + 1);
    }

    #[test]
    fn memory_profile_runs_cooler_than_compute() {
        let mut c = PowerThermalController::new(fast_cfg(200.0));
        let hot = c.converge(WorkloadProfile::ComputeIntensive).peak_c;
        let mut c2 = PowerThermalController::new(fast_cfg(200.0));
        let cool = c2.converge(WorkloadProfile::MemoryIntensive).peak_c;
        assert!(
            cool < hot,
            "spreading power off the XCDs lowers the peak: {cool:.1} vs {hot:.1}"
        );
    }
}
