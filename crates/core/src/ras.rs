//! Reliability at scale (RAS).
//!
//! The paper's introduction lists "reliability at scale" among the DOE's
//! exascale concerns. This module prices it: FIT-based component and
//! node MTBF, system-level failure rates at Frontier-like node counts,
//! and the Young/Daly checkpoint-interval optimisation that turns an
//! MTBF into a machine efficiency — the arithmetic behind every
//! exascale procurement's RAS section.

use ehp_sim_core::time::SimTime;

/// Failure rates in FIT (failures per 10⁹ device-hours) for the node's
/// components.
#[derive(Debug, Clone, Copy)]
pub struct NodeFitRates {
    /// Per HBM stack (dominated by DRAM; ECC leaves the uncorrectable
    /// residue counted here).
    pub(crate) hbm_stack: f64,
    /// Per GPU chiplet.
    pub(crate) xcd: f64,
    /// Per CPU chiplet.
    pub(crate) ccd: f64,
    /// Per IOD (fabric, cache, PHYs).
    pub(crate) iod: f64,
    /// Node residue: board, NIC, power delivery.
    pub(crate) board: f64,
}

/// Representative exascale-class rates (uncorrectable-error residue
/// after ECC, per component).
const EXASCALE_FIT: NodeFitRates = NodeFitRates {
    hbm_stack: 150.0,
    xcd: 60.0,
    ccd: 40.0,
    iod: 50.0,
    board: 400.0,
};

/// A node's RAS bill of materials.
#[derive(Debug, Clone, Copy)]
pub struct NodeBom {
    /// HBM stacks per node.
    pub(crate) hbm_stacks: u32,
    /// GPU chiplets per node.
    pub(crate) xcds: u32,
    /// CPU chiplets per node.
    pub(crate) ccds: u32,
    /// IODs per node.
    pub(crate) iods: u32,
}

impl NodeBom {
    /// A quad-MI300A node (Figure 18a).
    #[must_use]
    pub(crate) fn quad_mi300a() -> NodeBom {
        NodeBom {
            hbm_stacks: 32,
            xcds: 24,
            ccds: 12,
            iods: 16,
        }
    }

    /// Total node FIT at the exascale-class rates.
    #[must_use]
    pub(crate) fn node_fit(&self) -> f64 {
        let r = EXASCALE_FIT;
        f64::from(self.hbm_stacks) * r.hbm_stack
            + f64::from(self.xcds) * r.xcd
            + f64::from(self.ccds) * r.ccd
            + f64::from(self.iods) * r.iod
            + r.board
    }

    /// Node MTBF in hours.
    #[must_use]
    pub(crate) fn node_mtbf_hours(&self) -> f64 {
        1e9 / self.node_fit()
    }

    /// System MTBF in hours for `nodes` nodes (failures are independent
    /// and exponential: rates add).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    #[must_use]
    pub(crate) fn system_mtbf_hours(&self, nodes: u32) -> f64 {
        assert!(nodes > 0, "system needs nodes");
        self.node_mtbf_hours() / f64::from(nodes)
    }
}

/// Checkpoint/restart planning via the Young/Daly first-order optimum.
///
/// # Examples
///
/// ```
/// use ehp_core::ras::CheckpointPlan;
/// use ehp_sim_core::time::SimTime;
///
/// let plan = CheckpointPlan {
///     checkpoint_cost: SimTime::from_secs_f64(60.0),
///     mtbf: SimTime::from_secs_f64(6.0 * 3600.0),
/// };
/// assert!(plan.optimal_efficiency() > 0.85);
/// ```
///
#[derive(Debug, Clone, Copy)]
pub struct CheckpointPlan {
    /// Time to write one checkpoint.
    pub checkpoint_cost: SimTime,
    /// System MTBF.
    pub mtbf: SimTime,
}

impl CheckpointPlan {
    /// Young's optimal checkpoint interval: `sqrt(2·δ·M)`.
    #[must_use]
    pub(crate) fn optimal_interval(&self) -> SimTime {
        SimTime::from_secs_f64((2.0 * self.checkpoint_cost.as_secs() * self.mtbf.as_secs()).sqrt())
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
        let overhead = self.checkpoint_cost.as_secs() / t + t / (2.0 * self.mtbf.as_secs());
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

/// Time to write one system checkpoint (s).
const CHECKPOINT_WRITE_S: f64 = 90.0;

/// Summarises a system of `nodes` quad-MI300A nodes at the fixed
/// checkpoint write time.
#[must_use]
pub fn summarize(nodes: u32) -> RasSummary {
    let bom = NodeBom::quad_mi300a();
    let node_mtbf_h = bom.node_mtbf_hours();
    let system_mtbf_h = bom.system_mtbf_hours(nodes);
    let plan = CheckpointPlan {
        checkpoint_cost: SimTime::from_secs_f64(CHECKPOINT_WRITE_S),
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
        let bom = NodeBom::quad_mi300a();
        let m = bom.node_mtbf_hours();
        // Thousands of hours to low hundreds of thousands.
        assert!((5e4..5e5).contains(&m), "node MTBF {m:.0} h");
    }

    #[test]
    fn frontier_scale_system_fails_daily_ish() {
        let bom = NodeBom::quad_mi300a();
        let m = bom.system_mtbf_hours(9_408);
        // Exascale systems see failures on the hours scale.
        assert!((1.0..48.0).contains(&m), "system MTBF {m:.1} h");
    }

    #[test]
    fn system_mtbf_scales_inversely_with_nodes() {
        let bom = NodeBom::quad_mi300a();
        let m1 = bom.system_mtbf_hours(100);
        let m2 = bom.system_mtbf_hours(200);
        assert!((m1 / m2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn young_interval_formula() {
        let plan = CheckpointPlan {
            checkpoint_cost: SimTime::from_secs_f64(60.0),
            mtbf: SimTime::from_secs_f64(6.0 * 3600.0),
        };
        let tau = plan.optimal_interval().as_secs();
        assert!((tau - (2.0 * 60.0 * 21_600.0f64).sqrt()).abs() < 1.0);
    }

    #[test]
    fn optimal_interval_beats_neighbours() {
        let plan = CheckpointPlan {
            checkpoint_cost: SimTime::from_secs_f64(120.0),
            mtbf: SimTime::from_secs_f64(4.0 * 3600.0),
        };
        let tau = plan.optimal_interval().as_secs();
        let best = plan.optimal_efficiency();
        for factor in [0.25, 0.5, 2.0, 4.0] {
            // The same first-order model at a neighbouring interval.
            let t = tau * factor;
            let other = 1.0 - (120.0 / t + t / (2.0 * 4.0 * 3600.0));
            assert!(
                other <= best + 1e-9,
                "tau x{factor} should not beat the optimum"
            );
        }
    }

    #[test]
    fn cheaper_checkpoints_raise_efficiency() {
        let mtbf = SimTime::from_secs_f64(4.0 * 3600.0);
        let slow = CheckpointPlan {
            checkpoint_cost: SimTime::from_secs_f64(600.0),
            mtbf,
        };
        let fast = CheckpointPlan {
            checkpoint_cost: SimTime::from_secs_f64(30.0),
            mtbf,
        };
        assert!(fast.optimal_efficiency() > slow.optimal_efficiency() + 0.05);
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
        let _ = NodeBom::quad_mi300a().system_mtbf_hours(0);
    }
}
