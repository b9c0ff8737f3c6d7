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

/// Fraction of each step that does not parallelise across sockets.
const SERIAL_FRACTION: f64 = 0.02;
/// Bytes exchanged per socket per step (halo/all-reduce payload).
const COMM_BYTES: Bytes = Bytes(4 << 20);

/// A strong-scaling study of the HPCG step ([`HpcWorkload::hpcg`]) on
/// the machine each socket runs.
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
    /// The machine each socket runs.
    pub machine: MachineModel,
}

impl ScalingStudy {
    /// A bandwidth-bound HPCG-style study on MI300A sockets.
    #[must_use]
    pub fn hpcg_on_mi300a() -> ScalingStudy {
        ScalingStudy {
            machine: MachineModel::mi300a(),
        }
    }

    /// Per-step time on `sockets` sockets of the quad-MI300A node.
    ///
    /// Communication: ring all-reduce of `COMM_BYTES` costs
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
        let single = self.machine.step_time(&HpcWorkload::hpcg()).as_secs();
        let serial = single * SERIAL_FRACTION;
        let parallel = single * (1.0 - SERIAL_FRACTION) / sockets as f64;

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
            2.0 * (n - 1.0) / n * COMM_BYTES.as_f64() / pair_bw + 2.0 * (n - 1.0) * lat
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
        let speedup = ScalingStudy::hpcg_on_mi300a().speedup(4);
        // Amdahl bound: 1 / (0.02 + 0.98/4) = 3.774; the all-reduce
        // costs a little more on top.
        let amdahl = 1.0 / (SERIAL_FRACTION + (1.0 - SERIAL_FRACTION) / 4.0);
        assert!(speedup < amdahl, "got {speedup:.3} vs {amdahl:.3}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn too_many_sockets_panics() {
        let s = ScalingStudy::hpcg_on_mi300a();
        let _ = s.step_time(9);
    }
}
