//! Reliability at scale (RAS).
//!
//! The paper's introduction lists "reliability at scale" among the DOE's
//! exascale concerns. This module prices it: FIT-based component and
//! node MTBF, system-level failure rates at Frontier-like node counts,
//! and the Young/Daly checkpoint-interval optimisation that turns an
//! MTBF into a machine efficiency — the arithmetic behind every
//! exascale procurement's RAS section.

use ehp_sim_core::time::SimTime;

// Representative exascale-class failure rates in FIT (failures per 10⁹
// device-hours): the uncorrectable-error residue after ECC, per
// component of a quad-MI300A node (Figure 18a).

/// FIT per HBM stack (dominated by DRAM; ECC leaves the uncorrectable
/// residue counted here).
const FIT_HBM_STACK: f64 = 150.0;
/// FIT per GPU chiplet.
const FIT_XCD: f64 = 60.0;
/// FIT per CPU chiplet.
const FIT_CCD: f64 = 40.0;
/// FIT per IOD (fabric, cache, PHYs).
const FIT_IOD: f64 = 50.0;
/// Node residue FIT: board, NIC, power delivery.
const FIT_BOARD: f64 = 400.0;
/// HBM stacks per node.
const NODE_HBM_STACKS: u32 = 32;
/// GPU chiplets per node.
const NODE_XCDS: u32 = 24;
/// CPU chiplets per node.
const NODE_CCDS: u32 = 12;
/// IODs per node.
const NODE_IODS: u32 = 16;

/// Total node FIT at the exascale-class rates.
fn node_fit() -> f64 {
    f64::from(NODE_HBM_STACKS) * FIT_HBM_STACK
        + f64::from(NODE_XCDS) * FIT_XCD
        + f64::from(NODE_CCDS) * FIT_CCD
        + f64::from(NODE_IODS) * FIT_IOD
        + FIT_BOARD
}

/// Node MTBF in hours.
fn node_mtbf_hours() -> f64 {
    1e9 / node_fit()
}

/// System MTBF in hours for `nodes` nodes (failures are independent and
/// exponential: rates add).
///
/// # Panics
///
/// Panics if `nodes` is zero.
fn system_mtbf_hours(nodes: u32) -> f64 {
    assert!(nodes > 0, "system needs nodes");
    node_mtbf_hours() / f64::from(nodes)
}

/// Time to write one system checkpoint (s).
const CHECKPOINT_WRITE_S: f64 = 90.0;

/// Checkpoint/restart planning via the Young/Daly first-order optimum,
/// for checkpoints that take `CHECKPOINT_WRITE_S` to write.
///
/// # Examples
///
/// ```
/// use ehp_core::ras::CheckpointPlan;
/// use ehp_sim_core::time::SimTime;
///
/// let plan = CheckpointPlan {
///     mtbf: SimTime::from_secs_f64(6.0 * 3600.0),
/// };
/// assert!(plan.optimal_efficiency() > 0.85);
/// ```
///
#[derive(Debug, Clone, Copy)]
pub struct CheckpointPlan {
    /// System MTBF.
    pub mtbf: SimTime,
}

/// Time to write one checkpoint.
fn checkpoint_cost() -> SimTime {
    SimTime::from_secs_f64(CHECKPOINT_WRITE_S)
}

impl CheckpointPlan {
    /// Young's optimal checkpoint interval: `sqrt(2·δ·M)`.
    #[must_use]
    pub(crate) fn optimal_interval(&self) -> SimTime {
        SimTime::from_secs_f64((2.0 * checkpoint_cost().as_secs() * self.mtbf.as_secs()).sqrt())
    }

    /// Machine efficiency at the optimal interval τ: useful work ÷ wall
    /// time, first-order model — checkpoint overhead `δ/τ` plus expected
    /// rework `τ/(2M)` per interval.
    ///
    /// # Panics
    ///
    /// Panics if the optimal interval is zero.
    #[must_use]
    pub fn optimal_efficiency(&self) -> f64 {
        let t = self.optimal_interval().as_secs();
        assert!(t > 0.0, "interval must be positive");
        let overhead = checkpoint_cost().as_secs() / t + t / (2.0 * self.mtbf.as_secs());
        (1.0 - overhead).max(0.0)
    }
}

/// The system-level RAS summary used by the report binary.
#[derive(Debug, Clone)]
pub struct RasSummary {
    /// Node MTBF (hours).
    pub node_mtbf_h: f64,
    /// System MTBF (hours).
    pub system_mtbf_h: f64,
    /// Failures per day across the system.
    pub failures_per_day: f64,
    /// Optimal checkpoint interval.
    pub checkpoint_interval: SimTime,
    /// Machine efficiency with optimal checkpointing.
    pub efficiency: f64,
}

/// Summarises a system of `nodes` quad-MI300A nodes at the fixed
/// checkpoint write time.
#[must_use]
pub fn summarize(nodes: u32) -> RasSummary {
    let node_mtbf_h = node_mtbf_hours();
    let system_mtbf_h = system_mtbf_hours(nodes);
    let plan = CheckpointPlan {
        mtbf: SimTime::from_secs_f64(system_mtbf_h * 3600.0),
    };
    RasSummary {
        node_mtbf_h,
        system_mtbf_h,
        failures_per_day: 24.0 / system_mtbf_h,
        checkpoint_interval: plan.optimal_interval(),
        efficiency: plan.optimal_efficiency(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_mtbf_in_plausible_range() {
        let m = node_mtbf_hours();
        // Thousands of hours to low hundreds of thousands.
        assert!((5e4..5e5).contains(&m), "node MTBF {m:.0} h");
    }

    #[test]
    fn frontier_scale_system_fails_daily_ish() {
        let m = system_mtbf_hours(9_408);
        // Exascale systems see failures on the hours scale.
        assert!((1.0..48.0).contains(&m), "system MTBF {m:.1} h");
    }

    #[test]
    fn system_mtbf_scales_inversely_with_nodes() {
        let m1 = system_mtbf_hours(100);
        let m2 = system_mtbf_hours(200);
        assert!((m1 / m2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn young_interval_formula() {
        let plan = CheckpointPlan {
            mtbf: SimTime::from_secs_f64(6.0 * 3600.0),
        };
        let tau = plan.optimal_interval().as_secs();
        assert!((tau - (2.0 * 90.0 * 21_600.0f64).sqrt()).abs() < 1.0);
    }

    #[test]
    fn optimal_interval_beats_neighbours() {
        let plan = CheckpointPlan {
            mtbf: SimTime::from_secs_f64(4.0 * 3600.0),
        };
        let tau = plan.optimal_interval().as_secs();
        let best = plan.optimal_efficiency();
        for factor in [0.25, 0.5, 2.0, 4.0] {
            // The same first-order model at a neighbouring interval.
            let t = tau * factor;
            let other = 1.0 - (CHECKPOINT_WRITE_S / t + t / (2.0 * 4.0 * 3600.0));
            assert!(
                other <= best + 1e-9,
                "tau x{factor} should not beat the optimum"
            );
        }
    }

    #[test]
    fn summary_is_consistent() {
        let s = summarize(9_408);
        assert!(s.system_mtbf_h < s.node_mtbf_h);
        assert!((s.failures_per_day - 24.0 / s.system_mtbf_h).abs() < 1e-9);
        assert!(
            s.efficiency > 0.7,
            "exascale machines still compute: {}",
            s.efficiency
        );
    }

    #[test]
    #[should_panic(expected = "system needs nodes")]
    fn zero_nodes_panics() {
        let _ = system_mtbf_hours(0);
    }
}
