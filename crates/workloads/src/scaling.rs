//! Multi-socket strong scaling over the node fabric.
//!
//! The node architectures of Figure 18 exist to scale HPC and AI out;
//! this module prices a workload's strong scaling on N sockets of a
//! quad-MI300A node (Figure 18a's all-to-all shape): the
//! parallel fraction divides, the serial fraction does not (Amdahl, as
//! invoked in Section II.A), and each step pays a ring all-reduce over
//! the inter-socket links.

use ehp_core::node::NodeTopology;
use ehp_core::node_fabric::NodeFabric;
use ehp_sim_core::time::SimTime;
use ehp_sim_core::units::Bytes;

use crate::hpc::{HpcWorkload, MachineModel};

/// A strong-scaling study configuration.
///
/// # Examples
///
/// ```
/// use ehp_workloads::scaling::ScalingStudy;
///
/// let study = ScalingStudy::hpcg_on_mi300a();
/// assert!(study.speedup(4) > 2.5);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ScalingStudy {
    /// The workload (per-step character at one socket).
    pub(crate) workload: HpcWorkload,
    /// The machine each socket runs.
    pub machine: MachineModel,
    /// Fraction of each step that does not parallelise across sockets.
    pub(crate) serial_fraction: f64,
    /// Bytes exchanged per socket per step (halo/all-reduce payload).
    pub comm_bytes: Bytes,
}

impl ScalingStudy {
    /// A bandwidth-bound HPCG-style study on MI300A sockets.
    #[must_use]
    pub fn hpcg_on_mi300a() -> ScalingStudy {
        ScalingStudy {
            workload: HpcWorkload::hpcg(),
            machine: MachineModel::mi300a(),
            serial_fraction: 0.02,
            comm_bytes: Bytes(4 << 20),
        }
    }

    /// Per-step time on `sockets` sockets of the quad-MI300A node.
    ///
    /// Communication: ring all-reduce of `comm_bytes` costs
    /// `2·(N−1)/N × bytes ÷ pair_bandwidth` plus per-hop latency.
    ///
    /// # Panics
    ///
    /// Panics if `sockets` is zero or exceeds the node's socket count.
    #[must_use]
    pub(crate) fn step_time(&self, sockets: usize) -> SimTime {
        let node = &NodeTopology::quad_mi300a();
        assert!(
            sockets >= 1 && sockets <= node.sockets().len(),
            "socket count {sockets} out of range"
        );
        let single = self.machine.step_time(&self.workload).as_secs();
        let serial = single * self.serial_fraction;
        let parallel = single * (1.0 - self.serial_fraction) / sockets as f64;

        let comm = if sockets > 1 {
            let fabric = NodeFabric::new(node);
            let pair_bw = fabric
                .socket_bandwidth()
                .expect("sockets connected")
                .as_bytes_per_sec();
            let lat = fabric
                .socket_latency()
                .expect("sockets connected")
                .as_secs();
            let n = sockets as f64;
            2.0 * (n - 1.0) / n * self.comm_bytes.as_f64() / pair_bw + 2.0 * (n - 1.0) * lat
        } else {
            0.0
        };

        SimTime::from_secs_f64(serial + parallel + comm)
    }

    /// Speedup of `sockets` sockets over one.
    #[must_use]
    pub fn speedup(&self, sockets: usize) -> f64 {
        self.step_time(1).as_secs() / self.step_time(sockets).as_secs()
    }

    /// The whole scaling curve up to the node's size.
    #[must_use]
    pub fn curve(&self) -> Vec<(usize, f64)> {
        (1..=NodeTopology::quad_mi300a().sockets().len())
            .map(|n| (n, self.speedup(n)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_sockets_speed_up_substantially() {
        let s = ScalingStudy::hpcg_on_mi300a();
        let speedup = s.speedup(4);
        assert!(
            (2.8..4.0).contains(&speedup),
            "4-socket HPCG speedup {speedup:.2}"
        );
    }

    #[test]
    fn speedup_is_monotone_in_sockets() {
        let s = ScalingStudy::hpcg_on_mi300a();
        let curve = s.curve();
        for pair in curve.windows(2) {
            assert!(
                pair[1].1 >= pair[0].1 * 0.98,
                "scaling curve should not regress: {curve:?}"
            );
        }
        assert!((curve[0].1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn serial_fraction_caps_speedup() {
        let mut s = ScalingStudy::hpcg_on_mi300a();
        s.serial_fraction = 0.25;
        s.comm_bytes = Bytes::ZERO;
        let speedup = s.speedup(4);
        // Amdahl bound: 1 / (0.25 + 0.75/4) = 2.286.
        assert!((speedup - 2.286).abs() < 0.05, "got {speedup:.3}");
    }

    #[test]
    fn comm_heavy_workload_scales_worse() {
        let light = ScalingStudy::hpcg_on_mi300a();
        let mut heavy = light;
        heavy.comm_bytes = Bytes::from_gib(1);
        assert!(heavy.speedup(4) < light.speedup(4) - 0.5);
    }

    #[test]
    fn zero_comm_zero_serial_is_near_linear() {
        let mut s = ScalingStudy::hpcg_on_mi300a();
        s.serial_fraction = 0.0;
        s.comm_bytes = Bytes::ZERO;
        let speedup = s.speedup(4);
        // Zero payload still pays the all-reduce latency floor, so the
        // result is near-linear rather than exactly 4x.
        assert!((speedup - 4.0).abs() < 0.01, "got {speedup}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn too_many_sockets_panics() {
        let s = ScalingStudy::hpcg_on_mi300a();
        let _ = s.step_time(9);
    }
}
