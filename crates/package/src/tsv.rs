//! TSV planning: signal-interface sites, the uniform power/ground grid,
//! and Infinity-Cache macro pitch matching.

use crate::geometry::{Point, Transform};

/// The uniform power/ground TSV grid (Section V.D): pitch-`p` lattice
/// delivering `current_per_tsv` amps per via pair.
#[derive(Debug, Clone, Copy)]
pub struct PgTsvGrid {
    /// Grid pitch in mm.
    pub(crate) pitch_mm: f64,
    /// Deliverable current per grid cell (amps).
    pub(crate) current_per_cell: f64,
}

impl PgTsvGrid {
    /// The MI300-class grid: delivers >1.5 A/mm² (Section V.D). With a
    /// 0.1 mm pitch each cell must carry ≥ 15 mA; we model 16 mA.
    #[must_use]
    pub fn mi300() -> PgTsvGrid {
        PgTsvGrid {
            pitch_mm: 0.1,
            current_per_cell: 0.016,
        }
    }

    /// Deliverable current density in A/mm².
    #[must_use]
    pub fn current_density(&self) -> f64 {
        self.current_per_cell / (self.pitch_mm * self.pitch_mm)
    }

    /// Checks that the grid maps onto itself under every mirror/rotate
    /// permutation of a `w × h` die — the property that makes one P/G
    /// plan serve "every permutation of mirrored/rotated IOD, CCD, and
    /// XCD".
    ///
    /// This holds exactly when the die dimensions are integer multiples
    /// of the pitch.
    ///
    /// # Errors
    ///
    /// Returns the first transform under which some TSV fails to land on
    /// a grid position.
    pub fn check_symmetry(&self, w: f64, h: f64) -> Result<(), Transform> {
        let eps = 1e-6;
        let on_grid = |v: f64| {
            let f = (v / self.pitch_mm) - 0.5;
            (f - f.round()).abs() < eps
        };
        // The TSVs sit at the cell centres of an `nx × ny` lattice.
        let cells = |extent: f64| (extent / self.pitch_mm).floor() as usize;
        let centre = |k: usize| (k as f64 + 0.5) * self.pitch_mm;
        let (nx, ny) = (cells(w), cells(h));
        if nx == 0 || ny == 0 {
            return Ok(());
        }
        // A transform maps x and y independently, and a point is on the
        // grid when its x and its y are, so every TSV lands exactly when
        // every column centre and every row centre does.
        for t in Transform::ALL {
            let x_lands =
                (0..nx).all(|i| on_grid(t.apply_point(Point::new(centre(i), 0.0), w, h).x));
            let y_lands =
                (0..ny).all(|j| on_grid(t.apply_point(Point::new(0.0, centre(j)), w, h).y));
            if !(x_lands && y_lands) {
                return Err(t);
            }
        }
        Ok(())
    }
}

/// Pitch-matching of Infinity Cache SRAM macros to the P/G TSV stripes
/// (Figure 10): macros must fit in the channels between TSV stripes.
#[derive(Debug, Clone, Copy)]
pub struct CacheMacroPlan {
    /// Distance between successive P/G TSV stripes (mm).
    pub(crate) stripe_pitch: f64,
    /// Width of one TSV stripe (mm).
    pub(crate) stripe_width: f64,
    /// Width of one SRAM array macro (mm).
    pub(crate) macro_width: f64,
}

impl CacheMacroPlan {
    /// The MI300-style co-optimised plan: macros customised to exactly
    /// fill the inter-stripe channel.
    #[must_use]
    pub fn mi300() -> CacheMacroPlan {
        CacheMacroPlan {
            stripe_pitch: 0.60,
            stripe_width: 0.08,
            macro_width: 0.52,
        }
    }

    /// Available channel width between stripes.
    #[must_use]
    pub(crate) fn channel_width(&self) -> f64 {
        self.stripe_pitch - self.stripe_width
    }

    /// `true` if the macro fits the channel ("pitch-matched to fit within
    /// the channels between the P/G TSV stripes").
    #[must_use]
    pub fn is_pitch_matched(&self) -> bool {
        self.macro_width <= self.channel_width() + 1e-12
    }

    /// Fraction of the die row occupied by SRAM (utilisation of the
    /// channel).
    #[must_use]
    pub fn channel_utilization(&self) -> f64 {
        self.macro_width / self.channel_width()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mi300_grid_meets_paper_density() {
        let g = PgTsvGrid::mi300();
        assert!(
            g.current_density() >= 1.5,
            "paper: >1.5 A/mm², model gives {:.2}",
            g.current_density()
        );
    }

    #[test]
    fn grid_symmetry_holds_for_multiple_pitch_dims() {
        let g = PgTsvGrid::mi300();
        // 21.6 x 17.1 is 216 x 171 pitches: exact multiples.
        g.check_symmetry(21.6, 17.1).unwrap();
    }

    #[test]
    fn grid_symmetry_fails_for_fractional_dims() {
        let g = PgTsvGrid::mi300();
        assert!(g.check_symmetry(21.65, 17.1).is_err());
    }

    #[test]
    fn cache_macros_pitch_matched() {
        let plan = CacheMacroPlan::mi300();
        assert!(plan.is_pitch_matched());
        assert!(plan.channel_utilization() > 0.95, "tight co-optimised fit");
    }

    #[test]
    fn oversized_macro_fails_pitch_match() {
        let plan = CacheMacroPlan {
            macro_width: 0.55,
            ..CacheMacroPlan::mi300()
        };
        assert!(!plan.is_pitch_matched());
    }

    #[test]
    fn grid_point_transform_sanity() {
        // A specific TSV under Rot180 lands on the opposite cell.
        let g = PgTsvGrid {
            pitch_mm: 1.0,
            current_per_cell: 0.016,
        };
        let p = Point::new(0.5, 0.5);
        let q = Transform::Rot180.apply_point(p, 4.0, 4.0);
        assert!(q.approx_eq(Point::new(3.5, 3.5)));
        g.check_symmetry(4.0, 4.0).unwrap();
    }
}
