//! TSV planning: signal-interface sites, the uniform power/ground grid,
//! and Infinity-Cache macro pitch matching.

use crate::geometry::{Point, Transform};

/// Pitch of the uniform power/ground TSV grid (Section V.D), in mm.
const PITCH_MM: f64 = 0.1;
/// Deliverable current per grid cell (amps): the MI300-class grid
/// delivers >1.5 A/mm² (Section V.D), so with a 0.1 mm pitch each cell
/// must carry ≥ 15 mA; we model 16 mA.
const CURRENT_PER_CELL: f64 = 0.016;

/// Deliverable current density of the P/G TSV grid in A/mm².
#[must_use]
pub fn current_density() -> f64 {
    CURRENT_PER_CELL / (PITCH_MM * PITCH_MM)
}

/// Checks that the P/G TSV grid maps onto itself under every
/// mirror/rotate permutation of a `w × h` die — the property that makes
/// one P/G plan serve "every permutation of mirrored/rotated IOD, CCD,
/// and XCD".
///
/// This holds exactly when the die dimensions are integer multiples of
/// the pitch.
///
/// # Errors
///
/// Returns the first transform under which some TSV fails to land on a
/// grid position.
pub fn check_symmetry(w: f64, h: f64) -> Result<(), Transform> {
    let eps = 1e-6;
    let on_grid = |v: f64| {
        let f = (v / PITCH_MM) - 0.5;
        (f - f.round()).abs() < eps
    };
    // The TSVs sit at the cell centres of an `nx × ny` lattice.
    let cells = |extent: f64| (extent / PITCH_MM).floor() as usize;
    let centre = |k: usize| (k as f64 + 0.5) * PITCH_MM;
    let (nx, ny) = (cells(w), cells(h));
    if nx == 0 || ny == 0 {
        return Ok(());
    }
    // A transform maps x and y independently, and a point is on the
    // grid when its x and its y are, so every TSV lands exactly when
    // every column centre and every row centre does.
    for t in Transform::ALL {
        let x_lands = (0..nx).all(|i| on_grid(t.apply_point(Point::new(centre(i), 0.0), w, h).x));
        let y_lands = (0..ny).all(|j| on_grid(t.apply_point(Point::new(0.0, centre(j)), w, h).y));
        if !(x_lands && y_lands) {
            return Err(t);
        }
    }
    Ok(())
}

/// Distance between successive P/G TSV stripes (mm).
const STRIPE_PITCH: f64 = 0.60;
/// Width of one TSV stripe (mm).
const STRIPE_WIDTH: f64 = 0.08;
/// Width of one Infinity Cache SRAM array macro (mm): the MI300-style
/// co-optimised plan customises the macros to exactly fill the
/// inter-stripe channel (Figure 10).
const MACRO_WIDTH: f64 = 0.52;

/// Available channel width between stripes.
fn channel_width() -> f64 {
    STRIPE_PITCH - STRIPE_WIDTH
}

/// `true` if the SRAM macro fits the channel ("pitch-matched to fit
/// within the channels between the P/G TSV stripes").
#[must_use]
pub fn is_pitch_matched() -> bool {
    MACRO_WIDTH <= channel_width() + 1e-12
}

/// Fraction of the die row occupied by SRAM (utilisation of the
/// channel).
#[must_use]
pub fn channel_utilization() -> f64 {
    MACRO_WIDTH / channel_width()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mi300_grid_meets_paper_density() {
        assert!(
            current_density() >= 1.5,
            "paper: >1.5 A/mm², model gives {:.2}",
            current_density()
        );
    }

    #[test]
    fn grid_symmetry_holds_for_multiple_pitch_dims() {
        // 21.6 x 17.1 is 216 x 171 pitches: exact multiples.
        check_symmetry(21.6, 17.1).unwrap();
    }

    #[test]
    fn grid_symmetry_fails_for_fractional_dims() {
        assert!(check_symmetry(21.65, 17.1).is_err());
    }

    #[test]
    fn cache_macros_pitch_matched() {
        assert!(is_pitch_matched());
        assert!(channel_utilization() > 0.95, "tight co-optimised fit");
    }

    #[test]
    fn grid_point_transform_sanity() {
        // A specific TSV under Rot180 lands on the opposite cell.
        let p = Point::new(0.5, 0.5);
        let q = Transform::Rot180.apply_point(p, 4.0, 4.0);
        assert!(q.approx_eq(Point::new(3.5, 3.5)));
        check_symmetry(0.4, 0.4).unwrap();
    }
}
