//! The EHPv4 shortcomings audit (Section III.B / Figure 4), quantified
//! against the MI300A organisation.
//!
//! The paper's five numbered challenges become measured quantities:
//! ① the long GPU↔far-HBM path, ② DDR-provisioned IF links bottlenecking
//! HBM traffic, ③ the long CPU→HBM path, ④ wasted server-IOD IF links,
//! and ⑤ empty package regions.

use ehp_fabric::fabric::FabricSim;
use ehp_fabric::topology::{NodeKey, Topology};
use ehp_package::floorplan::Floorplan;
use ehp_sim_core::units::{Bandwidth, Bytes, Energy};

/// One organisation's measurements for the audit.
#[derive(Debug, Clone)]
pub struct OrgMetrics {
    /// Organisation name.
    pub name: &'static str,
    /// Hops from a GPU chiplet to the farthest HBM stack (challenge ①).
    pub gpu_far_hbm_hops: usize,
    /// Bottleneck bandwidth on that path (challenge ②).
    pub gpu_far_hbm_bw: Bandwidth,
    /// Transport energy for 1 MiB over that path.
    pub gpu_far_hbm_energy: Energy,
    /// Hops from a CPU chiplet to the nearest HBM stack (challenge ③).
    pub cpu_hbm_hops: usize,
    /// Bottleneck bandwidth on the CPU→HBM path.
    pub cpu_hbm_bw: Bandwidth,
    /// Silicon utilisation of the package area (challenge ⑤).
    pub package_utilization: f64,
}

/// The full audit: EHPv4 vs MI300A.
#[derive(Debug, Clone)]
pub struct Ehpv4Audit {
    /// EHPv4 measurements.
    pub ehpv4: OrgMetrics,
    /// MI300A measurements.
    pub mi300a: OrgMetrics,
    /// Server-IOD IF links left unconnected in EHPv4 (challenge ④ — the
    /// 4th-gen EPYC IOD has twelve links; EHPv4 connects CCDs, two GPU
    /// complexes and I/O).
    pub ehpv4_wasted_if_links: u32,
}

impl Ehpv4Audit {
    /// Runs the audit on the two fabric/floorplan models.
    #[must_use]
    pub fn run() -> Ehpv4Audit {
        let probe = Bytes::from_mib(1);

        let measure = |name: &'static str,
                       fab: &FabricSim,
                       gpu: NodeKey,
                       far_stack: NodeKey,
                       cpu: NodeKey,
                       near_stack: NodeKey,
                       fp: &Floorplan| {
            OrgMetrics {
                name,
                gpu_far_hbm_hops: fab.topology().hops(gpu, far_stack).expect("reachable"),
                gpu_far_hbm_bw: fab.path_bandwidth(gpu, far_stack).expect("reachable"),
                gpu_far_hbm_energy: fab.path_energy(gpu, far_stack, probe).expect("reachable"),
                cpu_hbm_hops: fab.topology().hops(cpu, near_stack).expect("reachable"),
                cpu_hbm_bw: fab.path_bandwidth(cpu, near_stack).expect("reachable"),
                package_utilization: fp.silicon_utilization(),
            }
        };

        let ehpv4_fab = FabricSim::new(Topology::ehpv4_package());
        let ehpv4 = measure(
            "EHPv4",
            &ehpv4_fab,
            NodeKey::Chiplet(2),  // GPU chiplet on complex 1
            NodeKey::HbmStack(7), // farthest stack (complex 2)
            NodeKey::Chiplet(0),  // CCD on the server IOD
            NodeKey::HbmStack(0),
            &Floorplan::ehpv4(),
        );

        let mi300_fab = FabricSim::new(Topology::mi300_package(3));
        let mi300a = measure(
            "MI300A",
            &mi300_fab,
            NodeKey::Chiplet(0),
            NodeKey::HbmStack(7),
            NodeKey::Chiplet(6),  // a CCD (chiplets 6-8 sit on IOD 3)
            NodeKey::HbmStack(6), // local stack on IOD 3
            &Floorplan::mi300a(),
        );

        // 4th-gen EPYC server IOD: 12 IF link positions. EHPv4 connects:
        // 2 CCDs + 2 GPU complexes + 2 I/O = 6.
        let ehpv4_wasted_if_links = 12 - 6;

        Ehpv4Audit {
            ehpv4,
            mi300a,
            ehpv4_wasted_if_links,
        }
    }

    /// Bandwidth advantage of MI300A on the GPU→far-HBM path.
    #[must_use]
    pub fn cross_package_bw_advantage(&self) -> f64 {
        self.mi300a.gpu_far_hbm_bw.as_bytes_per_sec() / self.ehpv4.gpu_far_hbm_bw.as_bytes_per_sec()
    }

    /// Energy advantage (EHPv4 joules ÷ MI300A joules) on that path.
    #[must_use]
    pub fn cross_package_energy_advantage(&self) -> f64 {
        self.ehpv4.gpu_far_hbm_energy.as_joules() / self.mi300a.gpu_far_hbm_energy.as_joules()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn challenge_1_long_gpu_path() {
        let a = Ehpv4Audit::run();
        assert!(
            a.ehpv4.gpu_far_hbm_hops >= a.mi300a.gpu_far_hbm_hops,
            "EHPv4's far-HBM path should not be shorter"
        );
    }

    #[test]
    fn challenge_2_serdes_bottleneck() {
        let a = Ehpv4Audit::run();
        // MI300A's worst-case GPU->HBM path keeps an order of magnitude
        // more bandwidth than EHPv4's SerDes-crossed path.
        assert!(
            a.cross_package_bw_advantage() > 5.0,
            "advantage {:.1}x",
            a.cross_package_bw_advantage()
        );
    }

    #[test]
    fn challenge_3_cpu_path_bandwidth() {
        let a = Ehpv4Audit::run();
        // The CPU on EHPv4 reaches HBM over DDR-provisioned SerDes; the
        // MI300A CCD sits directly on an IOD with local HBM.
        assert!(a.mi300a.cpu_hbm_bw.as_gb_s() > a.ehpv4.cpu_hbm_bw.as_gb_s());
        assert!(a.mi300a.cpu_hbm_hops <= a.ehpv4.cpu_hbm_hops);
    }

    #[test]
    fn challenge_4_wasted_links() {
        let a = Ehpv4Audit::run();
        assert_eq!(
            a.ehpv4_wasted_if_links, 6,
            "half the server IOD's links idle"
        );
    }

    #[test]
    fn challenge_5_package_utilization() {
        let a = Ehpv4Audit::run();
        assert!(
            a.mi300a.package_utilization > a.ehpv4.package_utilization,
            "MI300A {:.2} vs EHPv4 {:.2}",
            a.mi300a.package_utilization,
            a.ehpv4.package_utilization
        );
    }

    #[test]
    fn energy_advantage_positive() {
        let a = Ehpv4Audit::run();
        assert!(a.cross_package_energy_advantage() > 1.5);
    }
}
