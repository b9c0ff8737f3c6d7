//! Hybrid-bond interface electrical model (Figures 3 and 11).
//!
//! MI300 uses the same 9 µm-pitch hybrid bonding as V-Cache, but with a
//! crucial change (Figure 11): in V-Cache the bond-pad via (BPV) lands on
//! the SRAM die's **top-level metal**; in MI300 the BPV lands directly on
//! the **aluminium redistribution layer (RDL)**, "which has lower
//! resistance and is more effective for delivering power to the compute
//! chiplets" — necessary because XCDs/CCDs draw far more current than a
//! V-Cache SRAM die.

/// What the bond-pad via lands on inside the upper die.
#[derive(Debug, Clone, Copy)]
pub enum BpvTarget {
    /// Top-level (thin) metal — the V-Cache arrangement.
    TopLevelMetal,
    /// Aluminium RDL — the MI300 arrangement.
    AluminumRdl,
}

impl BpvTarget {
    /// Area-normalised spreading resistance of the landing layer
    /// (mΩ·mm²): the dominant term is not the via itself but how far
    /// current must spread laterally through the landing layer between
    /// the BPVs and the die's power grid. Thin top-level metal is an
    /// order of magnitude more resistive than the thick aluminium RDL.
    #[must_use]
    pub(crate) fn spreading_resistance_mohm_mm2(self) -> f64 {
        match self {
            BpvTarget::TopLevelMetal => 30.0,
            BpvTarget::AluminumRdl => 2.5,
        }
    }
}

/// A hybrid-bond power-delivery interface between a die pair.
///
/// # Examples
///
/// ```
/// use ehp_package::bond::{HybridBondInterface, MAX_DROP_FRACTION};
///
/// let iface = HybridBondInterface::mi300_compute();
/// assert!(iface.drop_fraction() < MAX_DROP_FRACTION);
/// ```
///
#[derive(Debug, Clone, Copy)]
pub struct HybridBondInterface {
    /// BPV landing target.
    pub bpv: BpvTarget,
}

/// Interface footprint in mm².
const AREA_MM2: f64 = 110.0;
/// Supply voltage (V).
const SUPPLY_V: f64 = 0.8;

impl HybridBondInterface {
    /// The MI300 compute-chiplet interface: same pitch, RDL landing.
    #[must_use]
    pub fn mi300_compute() -> HybridBondInterface {
        HybridBondInterface {
            bpv: BpvTarget::AluminumRdl,
        }
    }

    /// Effective supply resistance of the whole interface (mΩ):
    /// spreading-resistance dominated, so it scales inversely with the
    /// interface area.
    #[must_use]
    pub(crate) fn effective_resistance_mohm(&self) -> f64 {
        self.bpv.spreading_resistance_mohm_mm2() / AREA_MM2
    }

    /// IR drop (mV) at the XCD current `XCD_CURRENT_A`.
    #[must_use]
    pub fn ir_drop_mv(&self) -> f64 {
        self.effective_resistance_mohm() * XCD_CURRENT_A
    }

    /// I²R loss in watts at the XCD current.
    #[must_use]
    pub fn i2r_loss_w(&self) -> f64 {
        XCD_CURRENT_A * XCD_CURRENT_A * self.effective_resistance_mohm() * 1e-3
    }

    /// Fraction of the supply voltage lost in the interface at the XCD
    /// current — the feasibility figure of merit (keep under ~2%).
    #[must_use]
    pub fn drop_fraction(&self) -> f64 {
        self.ir_drop_mv() * 1e-3 / SUPPLY_V
    }
}

/// Die current through a compute chiplet's bond interface: an XCD at
/// ~55 W on a 0.8 V rail draws ~70 A, far more than a V-Cache SRAM die.
const XCD_CURRENT_A: f64 = 70.0;

/// Acceptable supply droop through the bond interface.
pub const MAX_DROP_FRACTION: f64 = 0.02;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_metal_landing_inadequate_for_compute_current() {
        // Figure 11's motivation: keep the V-Cache BPV arrangement but
        // push XCD-class current through it and the droop budget blows.
        let hypothetical = HybridBondInterface {
            bpv: BpvTarget::TopLevelMetal,
        };
        assert!(
            hypothetical.drop_fraction() > MAX_DROP_FRACTION,
            "drop {:.4} should exceed the budget",
            hypothetical.drop_fraction()
        );
    }

    #[test]
    fn rdl_landing_fixes_compute_delivery() {
        let m = HybridBondInterface::mi300_compute();
        assert!(
            m.drop_fraction() < MAX_DROP_FRACTION,
            "drop {:.4}",
            m.drop_fraction()
        );
        // And the I2R loss stays small relative to the die power.
        assert!(m.i2r_loss_w() < 1.0);
    }

    #[test]
    fn rdl_resistance_lower_than_top_metal() {
        assert!(
            BpvTarget::AluminumRdl.spreading_resistance_mohm_mm2()
                < BpvTarget::TopLevelMetal.spreading_resistance_mohm_mm2() / 3.0
        );
    }
}
