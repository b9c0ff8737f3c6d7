//! IOD mirroring, TSV-interface redundancy, and USR TX/RX pairing
//! (Section V.C, Figure 9).
//!
//! MI300 builds its four IODs from one physical design plus a *mirrored*
//! tapeout, each also placeable rotated 180°. The compute chiplets are
//! **never** mirrored, so the IOD's 3D signal interfaces carry redundant
//! (mirrored) pin sites that let an unmirrored XCD/CCD land correctly on
//! any IOD variant. The mirrored IOD also swaps its USR transmit/receive
//! modules so each TX faces an RX on the neighbouring die.

use crate::geometry::{Point, Transform};

/// The four IOD instances in the package (Figure 9's A–D).
#[derive(Debug, Clone, Copy)]
pub enum IodVariant {
    /// Original design, as placed.
    Normal,
    /// Original design rotated 180°.
    NormalRot180,
    /// Mirrored tapeout.
    Mirrored,
    /// Mirrored tapeout rotated 180°.
    MirroredRot180,
}

impl IodVariant {
    /// All four variants.
    pub const ALL: [IodVariant; 4] = [
        IodVariant::Normal,
        IodVariant::NormalRot180,
        IodVariant::Mirrored,
        IodVariant::MirroredRot180,
    ];

    /// The geometric transform this variant applies to the base design.
    #[must_use]
    pub(crate) fn transform(self) -> Transform {
        match self {
            IodVariant::Normal => Transform::Identity,
            IodVariant::NormalRot180 => Transform::Rot180,
            IodVariant::Mirrored => Transform::MirrorX,
            IodVariant::MirroredRot180 => Transform::MirrorXRot180,
        }
    }
}

/// A 3D signal interface region shared by an IOD and the chiplet above:
/// pin sites live in region-local coordinates within a `w × h` window.
#[derive(Debug, Clone)]
pub struct BondInterface {
    /// Region width (mm).
    pub(crate) w: f64,
    /// Region height (mm).
    pub(crate) h: f64,
    /// Pin sites provided by the IOD (region-local).
    pub iod_pins: Vec<Point>,
}

impl BondInterface {
    /// Creates an interface with the given IOD pin sites.
    #[must_use]
    pub(crate) fn new(w: f64, h: f64, iod_pins: Vec<Point>) -> BondInterface {
        BondInterface { w, h, iod_pins }
    }

    /// Adds mirror-redundant pin sites (the red-circled TSVs of
    /// Figure 9), skipping duplicates.
    #[must_use]
    pub fn with_mirror_redundancy(&self) -> BondInterface {
        let mut pins = self.iod_pins.clone();
        for p in &self.iod_pins {
            let m = Transform::MirrorX.apply_point(*p, self.w, self.h);
            if !pins.iter().any(|q| q.approx_eq(m)) {
                pins.push(m);
            }
        }
        BondInterface::new(self.w, self.h, pins)
    }

    /// Checks whether the MI300 chiplet's pins (region-local, chiplet is
    /// never mirrored but may rotate 180°) all land on IOD pin sites when
    /// the IOD is built/placed as `variant`.
    ///
    /// Returns the chiplet rotation that aligns, or `None`.
    #[must_use]
    pub fn alignment(&self, variant: IodVariant) -> Option<Transform> {
        let chiplet_pins = mi300_chiplet_pins();
        let t = variant.transform();
        let physical_sites: Vec<Point> = self
            .iod_pins
            .iter()
            .map(|p| t.apply_point(*p, self.w, self.h))
            .collect();
        for rot in [Transform::Identity, Transform::Rot180] {
            let ok = chiplet_pins.iter().all(|p| {
                let q = rot.apply_point(*p, self.w, self.h);
                physical_sites.iter().any(|s| s.approx_eq(q))
            });
            if ok {
                return Some(rot);
            }
        }
        None
    }
}

/// Direction of a USR module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum UsrPolarity {
    /// Transmitter.
    Tx,
    /// Receiver.
    Rx,
}

impl UsrPolarity {
    /// The opposite polarity.
    #[must_use]
    pub(crate) fn flipped(self) -> UsrPolarity {
        match self {
            UsrPolarity::Tx => UsrPolarity::Rx,
            UsrPolarity::Rx => UsrPolarity::Tx,
        }
    }
}

/// The USR modules along one die edge, as `(position, polarity)` pairs
/// with positions measured along the edge from a fixed package-frame
/// datum.
#[derive(Debug, Clone)]
pub struct UsrEdge {
    modules: Vec<(f64, UsrPolarity)>,
}

impl UsrEdge {
    /// Creates an edge with the given modules.
    #[must_use]
    pub(crate) fn new(modules: Vec<(f64, UsrPolarity)>) -> UsrEdge {
        UsrEdge { modules }
    }

    /// The base design's interleaved TX/RX pattern.
    #[must_use]
    pub fn base_pattern() -> UsrEdge {
        UsrEdge::new(vec![
            (2.0, UsrPolarity::Tx),
            (6.0, UsrPolarity::Rx),
            (10.0, UsrPolarity::Tx),
            (14.0, UsrPolarity::Rx),
        ])
    }

    /// The facing edge produced by mirroring the die about the vertical
    /// axis: the designed right-edge modules land on the physical left
    /// edge with *unchanged* along-edge (y) positions and unchanged
    /// polarity — which is precisely why two copies face TX-to-TX before
    /// the design fix.
    #[must_use]
    pub fn as_mirrored_facing(&self) -> UsrEdge {
        self.clone()
    }

    /// The design fix applied to the mirrored IOD: "the USR transmit (TX)
    /// and receive (RX) modules needed to be swapped".
    #[must_use]
    pub fn with_swapped_polarity(&self) -> UsrEdge {
        UsrEdge::new(
            self.modules
                .iter()
                .map(|&(pos, pol)| (pos, pol.flipped()))
                .collect(),
        )
    }

    /// Checks that this edge pairs with a facing edge: modules at equal
    /// positions must have opposite polarity (every TX meets an RX).
    ///
    /// # Errors
    ///
    /// Returns the position of the first conflicting pair, or a position
    /// present on only one edge.
    pub fn pairs_with(&self, facing: &UsrEdge) -> Result<(), f64> {
        if self.modules.len() != facing.modules.len() {
            return Err(f64::NAN);
        }
        for &(pos, pol) in &self.modules {
            match facing
                .modules
                .iter()
                .find(|&&(fp, _)| (fp - pos).abs() < 1e-9)
            {
                None => return Err(pos),
                Some(&(_, fpol)) if fpol == pol => return Err(pos),
                Some(_) => {}
            }
        }
        Ok(())
    }
}

/// One IOD instance: variant + its chiplet interfaces.
#[derive(Debug, Clone)]
pub struct IodInstance {
    /// Which of the four variants this is.
    pub(crate) variant: IodVariant,
    /// The XCD/CCD bond interface (with redundancy already applied in a
    /// production design).
    pub(crate) interface: BondInterface,
}

impl IodInstance {
    /// Builds the production MI300-style instance: asymmetric base pin
    /// pattern plus mirror-redundant sites.
    #[must_use]
    pub fn production(variant: IodVariant) -> IodInstance {
        IodInstance {
            variant,
            interface: mi300_base_interface().with_mirror_redundancy(),
        }
    }

    /// Checks the (never-mirrored) MI300 chiplet pin pattern against
    /// this instance.
    #[must_use]
    pub fn accepts_chiplet(&self) -> bool {
        self.interface.alignment(self.variant).is_some()
    }
}

/// The base (asymmetric) XCD interface pin pattern used in tests and the
/// packaging audit: deliberately chiral so that mirroring genuinely
/// breaks alignment without redundancy.
#[must_use]
pub fn mi300_base_interface() -> BondInterface {
    BondInterface::new(
        8.0,
        8.0,
        vec![
            Point::new(1.0, 1.0),
            Point::new(3.0, 1.0),
            Point::new(1.0, 3.0),
            Point::new(5.0, 6.0),
        ],
    )
}

/// The matching chiplet pin pattern (identical to the base IOD pattern —
/// they were co-designed).
fn mi300_chiplet_pins() -> Vec<Point> {
    mi300_base_interface().iod_pins
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_transforms() {
        assert_eq!(IodVariant::Normal.transform(), Transform::Identity);
    }

    #[test]
    fn chiplet_aligns_on_normal_iod_without_rotation() {
        let iface = mi300_base_interface();
        let rot = iface.alignment(IodVariant::Normal);
        assert_eq!(rot, Some(Transform::Identity));
    }

    #[test]
    fn chiplet_aligns_on_rotated_iod_by_rotating() {
        let iface = mi300_base_interface();
        let rot = iface.alignment(IodVariant::NormalRot180);
        assert_eq!(rot, Some(Transform::Rot180));
    }

    #[test]
    fn mirrored_iod_fails_without_redundancy() {
        // The heart of Figure 9: a chiral pin pattern cannot land on a
        // mirrored IOD by rotation alone.
        let iface = mi300_base_interface();
        assert_eq!(iface.alignment(IodVariant::Mirrored), None);
        assert_eq!(iface.alignment(IodVariant::MirroredRot180), None);
    }

    #[test]
    fn redundant_tsvs_fix_all_variants() {
        // The chiplet aligns on every IOD variant: the property MI300's
        // "carefully choreographed" interface planning guarantees.
        let iface = mi300_base_interface().with_mirror_redundancy();
        for v in IodVariant::ALL {
            assert!(iface.alignment(v).is_some(), "{v:?}");
            assert!(IodInstance::production(v).accepts_chiplet());
        }
    }

    #[test]
    fn redundancy_cost_is_bounded() {
        // Redundant sites at most double the TSV count (paper: "this type
        // of TSV redundancy is limited to the 3D signal interfaces").
        let base = mi300_base_interface();
        let red = base.with_mirror_redundancy();
        assert!(red.iod_pins.len() <= 2 * base.iod_pins.len());
        assert!(red.iod_pins.len() > base.iod_pins.len());
    }

    #[test]
    fn usr_base_edges_pair_with_complement() {
        let right = UsrEdge::base_pattern();
        let left = right.with_swapped_polarity();
        right.pairs_with(&left).unwrap();
    }

    #[test]
    fn mirrored_iod_without_swap_fails_pairing() {
        // Mirroring puts the right-edge modules on the left edge at the
        // same along-edge positions with unchanged polarity: every TX
        // faces a TX.
        let a_right = UsrEdge::base_pattern();
        let b_left_naive = UsrEdge::base_pattern().as_mirrored_facing();
        assert!(a_right.pairs_with(&b_left_naive).is_err());
    }

    #[test]
    fn mirrored_iod_with_swap_pairs() {
        // "The USR transmit (TX) and receive (RX) modules needed to be
        // swapped on the mirrored IOD" — after the swap every TX faces RX.
        let a_right = UsrEdge::base_pattern();
        let b_left_fixed = UsrEdge::base_pattern()
            .as_mirrored_facing()
            .with_swapped_polarity();
        a_right.pairs_with(&b_left_fixed).unwrap();
    }

    #[test]
    fn pairing_detects_length_mismatch() {
        let a = UsrEdge::base_pattern();
        let b = UsrEdge::new(vec![(2.0, UsrPolarity::Rx)]);
        assert!(a.pairs_with(&b).is_err());
    }

    #[test]
    fn polarity_flip_is_involution() {
        assert_eq!(UsrPolarity::Tx.flipped().flipped(), UsrPolarity::Tx);
    }
}
