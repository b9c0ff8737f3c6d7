//! Beachfront (die-edge) accounting.
//!
//! Section V.A: "The amount of 'beachfront' perimeter required to
//! interface with eight stacks of HBM as well as to provide all of the
//! I/O interfaces would have required a massive IOD well exceeding a
//! standard lithographic reticle's size" — hence the partitioning into
//! four IODs. This module turns that argument into arithmetic.

use crate::chiplet::{reticle_limit, ChipletKind, Footprint};

/// Die-edge millimetres per HBM PHY (the PHY must roughly face the
/// ~11 mm-wide stack).
const MM_PER_HBM_PHY: f64 = 10.5;
/// Off-package x16 links.
const X16_LINKS: u32 = 8;
/// Die-edge millimetres per x16 PHY.
const MM_PER_X16: f64 = 3.0;
/// Fraction of the perimeter usable for PHYs (corners, power ingress
/// and test structures consume the rest).
const USABLE_FRACTION: f64 = 0.7;

/// Edge-length demands of a socket's external interfaces: its HBM
/// stacks, plus 8 x16 links.
#[derive(Debug, Clone, Copy)]
pub struct BeachfrontDemand {
    /// HBM stacks to interface.
    pub hbm_stacks: u32,
}

impl BeachfrontDemand {
    /// The MI300 socket: 8 HBM stacks, 8 x16 links.
    #[must_use]
    pub fn mi300() -> BeachfrontDemand {
        BeachfrontDemand { hbm_stacks: 8 }
    }

    /// Total edge millimetres required.
    #[must_use]
    pub fn required_mm(&self) -> f64 {
        f64::from(self.hbm_stacks) * MM_PER_HBM_PHY + f64::from(X16_LINKS) * MM_PER_X16
    }
}

/// Edge supply of a candidate die (or set of dies).
#[derive(Debug, Clone, Copy)]
pub struct BeachfrontSupply {
    /// Total perimeter across the dies (mm).
    pub(crate) perimeter_mm: f64,
    /// Perimeter consumed by inter-die (USR) interfaces, unavailable for
    /// external PHYs (mm).
    pub(crate) interdie_mm: f64,
}

impl BeachfrontSupply {
    /// A single reticle-limit die.
    #[must_use]
    pub fn single_die() -> BeachfrontSupply {
        BeachfrontSupply {
            perimeter_mm: reticle_limit().perimeter(),
            interdie_mm: 0.0,
        }
    }

    /// Four MI300-style IODs in a 2×2 grid: each die spends its two inner
    /// edges on USR interfaces to its neighbours.
    #[must_use]
    pub fn four_iods() -> BeachfrontSupply {
        let iod = Footprint::of(ChipletKind::Iod);
        let per_die = 2.0 * (iod.w + iod.h);
        // Each IOD has one vertical and one horizontal inner edge.
        let interdie_per_die = iod.w.min(iod.h); // conservative: the shorter edge pair
        BeachfrontSupply {
            perimeter_mm: 4.0 * per_die,
            interdie_mm: 4.0 * interdie_per_die,
        }
    }

    /// Edge millimetres available for external PHYs.
    #[must_use]
    pub fn available_mm(&self) -> f64 {
        (self.perimeter_mm - self.interdie_mm).max(0.0) * USABLE_FRACTION
    }

    /// `true` if this supply meets a demand.
    #[must_use]
    pub fn meets(&self, demand: &BeachfrontDemand) -> bool {
        self.available_mm() >= demand.required_mm()
    }
}

/// The Section V.A audit: `true` if the paper's conclusion holds in the
/// model, that one reticle-limit die cannot meet the MI300 socket's
/// demand and four IODs can.
#[must_use]
pub fn partitioning_is_necessary_and_sufficient() -> bool {
    let demand = BeachfrontDemand::mi300();
    !BeachfrontSupply::single_die().meets(&demand) && BeachfrontSupply::four_iods().meets(&demand)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mi300_demand_arithmetic() {
        let d = BeachfrontDemand::mi300();
        assert!((d.required_mm() - (8.0 * 10.5 + 8.0 * 3.0)).abs() < 1e-9);
    }

    #[test]
    fn single_reticle_falls_short() {
        let (single, demand) = (BeachfrontSupply::single_die(), BeachfrontDemand::mi300());
        assert!(
            !single.meets(&demand),
            "one reticle ({:.0} mm usable) cannot host {:.0} mm of PHY",
            single.available_mm(),
            demand.required_mm()
        );
    }

    #[test]
    fn four_iods_suffice() {
        assert!(BeachfrontSupply::four_iods().meets(&BeachfrontDemand::mi300()));
        assert!(partitioning_is_necessary_and_sufficient());
    }

    #[test]
    fn interdie_edges_are_subtracted() {
        let mut s = BeachfrontSupply::four_iods();
        let with_usr = s.available_mm();
        s.interdie_mm = 0.0;
        assert!(s.available_mm() > with_usr);
    }
}
