//! Beachfront (die-edge) accounting.
//!
//! Section V.A: "The amount of 'beachfront' perimeter required to
//! interface with eight stacks of HBM as well as to provide all of the
//! I/O interfaces would have required a massive IOD well exceeding a
//! standard lithographic reticle's size" — hence the partitioning into
//! four IODs. This module turns that argument into arithmetic.

use crate::chiplet::{reticle_limit, ChipletKind, Footprint};

/// Edge-length demands of a socket's external interfaces.
#[derive(Debug, Clone, Copy)]
pub struct BeachfrontDemand {
    /// HBM stacks to interface.
    pub hbm_stacks: u32,
    /// Die-edge millimetres per HBM PHY (the PHY must roughly face the
    /// ~11 mm-wide stack).
    pub mm_per_hbm_phy: f64,
    /// Off-package x16 links.
    pub x16_links: u32,
    /// Die-edge millimetres per x16 PHY.
    pub mm_per_x16: f64,
}

impl BeachfrontDemand {
    /// The MI300 socket: 8 HBM stacks, 8 x16 links.
    #[must_use]
    pub fn mi300() -> BeachfrontDemand {
        BeachfrontDemand {
            hbm_stacks: 8,
            mm_per_hbm_phy: 10.5,
            x16_links: 8,
            mm_per_x16: 3.0,
        }
    }

    /// Total edge millimetres required.
    #[must_use]
    pub fn required_mm(&self) -> f64 {
        f64::from(self.hbm_stacks) * self.mm_per_hbm_phy
            + f64::from(self.x16_links) * self.mm_per_x16
    }
}

/// Edge supply of a candidate die (or set of dies).
#[derive(Debug, Clone, Copy)]
pub struct BeachfrontSupply {
    /// Total perimeter across the dies (mm).
    pub(crate) perimeter_mm: f64,
    /// Fraction of the perimeter usable for PHYs (corners, power ingress
    /// and test structures consume the rest).
    pub(crate) usable_fraction: f64,
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
            usable_fraction: 0.7,
            interdie_mm: 0.0,
        }
    }

    /// Four MI300-style IODs in a 2×2 grid: each die spends its two inner
    /// edges on USR interfaces to its neighbours.
    #[must_use]
    pub(crate) fn four_iods() -> BeachfrontSupply {
        let iod = Footprint::of(ChipletKind::Iod);
        let per_die = 2.0 * (iod.w + iod.h);
        // Each IOD has one vertical and one horizontal inner edge.
        let interdie_per_die = iod.w.min(iod.h); // conservative: the shorter edge pair
        BeachfrontSupply {
            perimeter_mm: 4.0 * per_die,
            usable_fraction: 0.7,
            interdie_mm: 4.0 * interdie_per_die,
        }
    }

    /// Edge millimetres available for external PHYs.
    #[must_use]
    pub fn available_mm(&self) -> f64 {
        (self.perimeter_mm - self.interdie_mm).max(0.0) * self.usable_fraction
    }

    /// `true` if this supply meets a demand.
    #[must_use]
    pub fn meets(&self, demand: &BeachfrontDemand) -> bool {
        self.available_mm() >= demand.required_mm()
    }
}

/// The full Section V.A audit: single-reticle IOD vs four-IOD partition.
#[derive(Debug, Clone, Copy)]
pub struct BeachfrontAudit {
    /// The interface demand.
    pub demand: BeachfrontDemand,
    /// Supply of one reticle-limit die.
    pub single_reticle: BeachfrontSupply,
    /// Supply of four IODs.
    pub four_iods: BeachfrontSupply,
}

impl BeachfrontAudit {
    /// The MI300 audit.
    #[must_use]
    pub fn mi300() -> BeachfrontAudit {
        BeachfrontAudit {
            demand: BeachfrontDemand::mi300(),
            single_reticle: BeachfrontSupply::single_die(),
            four_iods: BeachfrontSupply::four_iods(),
        }
    }

    /// `true` if the paper's conclusion holds in the model: one reticle
    /// is insufficient, four IODs are sufficient.
    #[must_use]
    pub fn partitioning_is_necessary_and_sufficient(&self) -> bool {
        !self.single_reticle.meets(&self.demand) && self.four_iods.meets(&self.demand)
    }
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
        let a = BeachfrontAudit::mi300();
        assert!(
            !a.single_reticle.meets(&a.demand),
            "one reticle ({:.0} mm usable) cannot host {:.0} mm of PHY",
            a.single_reticle.available_mm(),
            a.demand.required_mm()
        );
    }

    #[test]
    fn four_iods_suffice() {
        let a = BeachfrontAudit::mi300();
        assert!(a.four_iods.meets(&a.demand));
        assert!(a.partitioning_is_necessary_and_sufficient());
    }

    #[test]
    fn interdie_edges_are_subtracted() {
        let mut s = BeachfrontSupply::four_iods();
        let with_usr = s.available_mm();
        s.interdie_mm = 0.0;
        assert!(s.available_mm() > with_usr);
    }

    #[test]
    fn zero_usable_fraction_supplies_nothing() {
        let s = BeachfrontSupply {
            perimeter_mm: 100.0,
            usable_fraction: 0.0,
            interdie_mm: 0.0,
        };
        assert_eq!(s.available_mm(), 0.0);
        assert!(!s.meets(&BeachfrontDemand::mi300()));
    }
}
