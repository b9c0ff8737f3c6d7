//! Link technologies and their specifications.
//!
//! Every interconnect in the package (and off it) is one of a small set
//! of technologies with very different bandwidth density, latency and
//! energy — the heart of the paper's EHPv4-vs-MI300A argument.

use ehp_sim_core::time::SimTime;
use ehp_sim_core::units::{Bandwidth, Energy};

/// The physical technology a link is built from.
#[derive(Debug, Clone, Copy)]
pub enum LinkTech {
    /// TSV/hybrid-bond 3D interface between a compute chiplet and the IOD
    /// beneath it (9 µm pad pitch).
    HybridBond3D,
    /// In-package ultra-short-reach PHY between adjacent IODs
    /// (35 µm microbump pitch, 0.4 mW/Gbps).
    Usr,
    /// 2.5D interposer PHY from an IOD to an HBM stack.
    HbmPhy,
    /// 2D organic-substrate SerDes (EHPv4 / EPYC IFOP-style).
    Serdes2D,
    /// Off-package x16 Infinity Fabric link (64 GB/s per direction).
    X16InfinityFabric,
    /// Off-package x16 PCIe Gen5 link (64 GB/s per direction).
    X16Pcie,
}

impl LinkTech {
    /// Default specification for this technology.
    #[must_use]
    pub fn spec(self) -> LinkSpec {
        match self {
            // 3D hybrid bond: effectively monolithic — enormous bandwidth,
            // sub-ns latency, near-zero transport energy (~0.05 pJ/bit).
            LinkTech::HybridBond3D => LinkSpec {
                per_direction: Bandwidth::from_tb_s(3.0),
                latency: SimTime::from_picos(500),
                energy_per_byte: Energy::from_picojoules(0.4),
                area_density_tbps_mm2: 50.0,
            },
            // USR: 0.4 mW/Gbps => 0.4 pJ/bit => 3.2 pJ/B; >10x the density
            // of SerDes; "multiple TB/s" between IOD pairs.
            LinkTech::Usr => LinkSpec {
                per_direction: Bandwidth::from_tb_s(1.5),
                latency: SimTime::from_nanos(2),
                energy_per_byte: Energy::from_picojoules(3.2),
                area_density_tbps_mm2: 10.0,
            },
            // HBM PHY: one stack's worth of bandwidth.
            LinkTech::HbmPhy => LinkSpec {
                per_direction: Bandwidth::from_gb_s(662.5),
                latency: SimTime::from_nanos(4),
                energy_per_byte: Energy::from_picojoules(8.0),
                area_density_tbps_mm2: 8.0,
            },
            // 2D SerDes: DDR-provisioned EPYC-style IFOP — both slower and
            // ~5x the energy per bit of USR.
            LinkTech::Serdes2D => LinkSpec {
                per_direction: Bandwidth::from_gb_s(64.0),
                latency: SimTime::from_nanos(9),
                energy_per_byte: Energy::from_picojoules(16.0),
                area_density_tbps_mm2: 0.9,
            },
            LinkTech::X16InfinityFabric => LinkSpec {
                per_direction: Bandwidth::from_gb_s(64.0),
                latency: SimTime::from_nanos(30),
                energy_per_byte: Energy::from_picojoules(24.0),
                area_density_tbps_mm2: 0.5,
            },
            LinkTech::X16Pcie => LinkSpec {
                per_direction: Bandwidth::from_gb_s(64.0),
                latency: SimTime::from_nanos(150),
                energy_per_byte: Energy::from_picojoules(30.0),
                area_density_tbps_mm2: 0.5,
            },
        }
    }
}

/// Performance/energy/area parameters of one link.
#[derive(Debug, Clone, Copy)]
pub struct LinkSpec {
    /// Peak bandwidth in each direction (links are full-duplex).
    pub per_direction: Bandwidth,
    /// Per-hop propagation + PHY latency.
    pub(crate) latency: SimTime,
    /// Transport energy per byte.
    pub energy_per_byte: Energy,
    /// Area bandwidth density in Tbps/mm² (Section V.A comparison).
    pub area_density_tbps_mm2: f64,
}

impl LinkSpec {
    /// Scales the per-direction bandwidth (e.g. ganging multiple PHYs).
    #[must_use]
    pub fn scaled(mut self, factor: f64) -> LinkSpec {
        self.per_direction = self.per_direction.scale(factor);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usr_density_exceeds_serdes_by_10x() {
        let usr = LinkTech::Usr.spec();
        let serdes = LinkTech::Serdes2D.spec();
        let ratio = usr.area_density_tbps_mm2 / serdes.area_density_tbps_mm2;
        assert!(ratio >= 10.0, "paper claims >10x, model gives {ratio:.1}x");
    }

    #[test]
    fn usr_energy_beats_serdes() {
        let usr = LinkTech::Usr.spec();
        let serdes = LinkTech::Serdes2D.spec();
        assert!(usr.energy_per_byte < serdes.energy_per_byte);
        // 0.4 mW/Gbps == 0.4 pJ/bit == 3.2 pJ/B.
        assert!((usr.energy_per_byte.as_picojoules() - 3.2).abs() < 1e-9);
    }

    #[test]
    fn x16_links_are_128_gb_s_bidirectional() {
        let x16 = LinkTech::X16InfinityFabric.spec();
        assert!((2.0 * x16.per_direction.as_gb_s() - 128.0).abs() < 1e-9);
    }

    #[test]
    fn hierarchy_of_latencies() {
        // 3D < USR < HBM PHY < SerDes < x16 IF < PCIe.
        let order = [
            LinkTech::HybridBond3D,
            LinkTech::Usr,
            LinkTech::HbmPhy,
            LinkTech::Serdes2D,
            LinkTech::X16InfinityFabric,
            LinkTech::X16Pcie,
        ];
        for pair in order.windows(2) {
            assert!(
                pair[0].spec().latency < pair[1].spec().latency,
                "{:?} should be faster than {:?}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn scaled_spec() {
        let s = LinkTech::Usr.spec().scaled(2.0);
        assert!((s.per_direction.as_tb_s() - 3.0).abs() < 1e-9);
    }
}
