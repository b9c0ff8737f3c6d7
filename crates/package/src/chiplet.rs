//! Chiplet die footprints.
//!
//! Dimensions are representative of the published die-size class of each
//! component (XCD ≈ 115 mm², CCD ≈ 71 mm², IOD ≈ 370 mm², HBM stack
//! ≈ 110 mm² — "on the order of 100 mm² per stack" per the paper's
//! Section III.A discussion of EHPv3).

use crate::geometry::Rect;

/// The kinds of silicon die in an MI300-class package.
#[derive(Debug, Clone, Copy)]
pub enum ChipletKind {
    /// Accelerator complex die (CDNA 3, 5 nm).
    Xcd,
    /// "Zen 4" CPU complex die (5 nm).
    Ccd,
    /// Active-interposer I/O die (6 nm) carrying Infinity Cache + fabric.
    Iod,
    /// An HBM stack (base die footprint).
    HbmStack,
    /// The passive silicon interposer under everything.
    Interposer,
}

/// A die footprint: physical dimensions.
#[derive(Debug, Clone, Copy)]
pub struct Footprint {
    /// Width in mm.
    pub w: f64,
    /// Height in mm.
    pub h: f64,
}

impl Footprint {
    /// Representative footprint for a die kind.
    #[must_use]
    pub fn of(kind: ChipletKind) -> Footprint {
        let (w, h) = match kind {
            ChipletKind::Xcd => (13.0, 8.8),         // ~115 mm²
            ChipletKind::Ccd => (9.4, 7.6),          // ~71 mm²
            ChipletKind::Iod => (21.6, 17.1),        // ~370 mm²
            ChipletKind::HbmStack => (11.0, 10.0),   // ~110 mm²
            ChipletKind::Interposer => (47.0, 47.0), // > 2200 mm² stitched
        };
        Footprint { w, h }
    }

    /// The footprint as a rect at an origin.
    #[must_use]
    pub(crate) fn at(&self, x: f64, y: f64) -> Rect {
        Rect::new(x, y, self.w, self.h)
    }
}

/// The single-exposure lithographic reticle limit, ~26 × 33 mm.
#[must_use]
pub fn reticle_limit() -> Rect {
    Rect::new(0.0, 0.0, 26.0, 33.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn area(kind: ChipletKind) -> f64 {
        let f = Footprint::of(kind);
        f.w * f.h
    }

    #[test]
    fn footprint_areas_in_published_class() {
        assert!((area(ChipletKind::Xcd) - 114.4).abs() < 1.0);
        assert!((area(ChipletKind::Ccd) - 71.4).abs() < 1.0);
        assert!((area(ChipletKind::Iod) - 369.4).abs() < 1.0);
        // "on the order of 100 mm² per stack"
        assert!((area(ChipletKind::HbmStack) - 110.0).abs() < 1.0);
    }

    #[test]
    fn xcd_at_least_hbm_footprint_class() {
        // Section III.A: each EHPv3 GPU chiplet would be "equal to or
        // larger than the footprint of an HBM stack" — our XCD footprint
        // is in that class.
        let xcd = area(ChipletKind::Xcd);
        let hbm = area(ChipletKind::HbmStack);
        assert!(xcd >= hbm * 0.95);
    }

    #[test]
    fn every_die_fits_reticle_but_total_does_not() {
        let reticle = reticle_limit();
        for kind in [
            ChipletKind::Xcd,
            ChipletKind::Ccd,
            ChipletKind::Iod,
            ChipletKind::HbmStack,
        ] {
            let f = Footprint::of(kind);
            assert!(
                f.w <= reticle.w && f.h <= reticle.h,
                "{kind:?} must be manufacturable"
            );
        }
        // The four IODs together far exceed one reticle: the partitioning
        // argument of Section V.A.
        let four_iods = 4.0 * area(ChipletKind::Iod);
        assert!(four_iods > reticle.area());
    }

    #[test]
    fn footprint_at_positions_rect() {
        let r = Footprint::of(ChipletKind::Ccd).at(5.0, 6.0);
        assert_eq!(r.origin.x, 5.0);
        assert!((r.area() - area(ChipletKind::Ccd)).abs() < 1e-12);
    }
}
