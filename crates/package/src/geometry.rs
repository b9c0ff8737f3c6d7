//! Planar geometry in millimetres: points, rectangles, and the
//! mirror/rotate transforms the IOD scheme relies on.

/// Tolerance of [`Point::approx_eq`] per coordinate (mm): far below any
/// pad pitch, far above the rounding of the mirror/rotate transforms.
const POINT_EPS_MM: f64 = 1e-9;

/// A point in package coordinates (mm).
#[derive(Debug, Clone, Copy, Default)]
pub struct Point {
    /// X coordinate (mm).
    pub x: f64,
    /// Y coordinate (mm).
    pub y: f64,
}

impl Point {
    /// Constructs a point.
    #[must_use]
    pub fn new(x: f64, y: f64) -> Point {
        Point { x, y }
    }

    /// `true` if within `POINT_EPS_MM` of `other` in both coordinates.
    #[must_use]
    pub fn approx_eq(self, other: Point) -> bool {
        (self.x - other.x).abs() <= POINT_EPS_MM && (self.y - other.y).abs() <= POINT_EPS_MM
    }
}

/// An axis-aligned rectangle (mm), stored as min corner + size.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rect {
    /// Minimum-x/minimum-y corner.
    pub origin: Point,
    /// Width (x extent), must be non-negative.
    pub w: f64,
    /// Height (y extent), must be non-negative.
    pub h: f64,
}

impl Rect {
    /// Constructs a rectangle.
    ///
    /// # Panics
    ///
    /// Panics if width or height is negative or not finite.
    #[must_use]
    pub fn new(x: f64, y: f64, w: f64, h: f64) -> Rect {
        assert!(
            w.is_finite() && h.is_finite() && w >= 0.0 && h >= 0.0,
            "invalid rect {w}x{h}"
        );
        Rect {
            origin: Point::new(x, y),
            w,
            h,
        }
    }

    /// Area in mm².
    #[must_use]
    pub(crate) fn area(&self) -> f64 {
        self.w * self.h
    }

    /// Perimeter in mm.
    #[must_use]
    pub fn perimeter(&self) -> f64 {
        2.0 * (self.w + self.h)
    }

    /// Maximum-x/maximum-y corner.
    #[must_use]
    pub(crate) fn max_corner(&self) -> Point {
        Point::new(self.origin.x + self.w, self.origin.y + self.h)
    }

    /// `true` if `p` lies inside or on the boundary.
    #[must_use]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.origin.x
            && p.x <= self.origin.x + self.w
            && p.y >= self.origin.y
            && p.y <= self.origin.y + self.h
    }

    /// `true` if `inner` lies entirely within `self`.
    #[must_use]
    pub(crate) fn contains_rect(&self, inner: &Rect) -> bool {
        self.contains(inner.origin) && self.contains(inner.max_corner())
    }

    /// `true` if the interiors overlap (shared edges do not count).
    #[must_use]
    pub(crate) fn intersects(&self, other: &Rect) -> bool {
        self.origin.x < other.origin.x + other.w
            && other.origin.x < self.origin.x + self.w
            && self.origin.y < other.origin.y + other.h
            && other.origin.y < self.origin.y + self.h
    }
}

/// The rigid transforms used in the IOD scheme (Section V.C): a die can
/// be placed as designed, rotated 180°, mirrored (flipped about the
/// vertical axis at fabrication), or both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Transform {
    /// As designed.
    #[default]
    Identity,
    /// Rotated 180° in the plane.
    Rot180,
    /// Mirrored about the vertical (x → W-x) axis — a *different tapeout*
    /// for silicon, but geometrically a reflection.
    MirrorX,
    /// Mirrored and rotated 180° (equivalent to mirroring about the
    /// horizontal axis).
    MirrorXRot180,
}

impl Transform {
    /// All four variants.
    pub const ALL: [Transform; 4] = [
        Transform::Identity,
        Transform::Rot180,
        Transform::MirrorX,
        Transform::MirrorXRot180,
    ];

    /// Applies the transform to a point within a `w × h` die outline
    /// whose local origin is the lower-left corner.
    #[must_use]
    pub fn apply_point(self, p: Point, w: f64, h: f64) -> Point {
        match self {
            Transform::Identity => p,
            Transform::Rot180 => Point::new(w - p.x, h - p.y),
            Transform::MirrorX => Point::new(w - p.x, p.y),
            Transform::MirrorXRot180 => Point::new(p.x, h - p.y),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_basics() {
        let r = Rect::new(1.0, 2.0, 3.0, 4.0);
        assert_eq!(r.area(), 12.0);
        assert_eq!(r.perimeter(), 14.0);
        assert!(r.contains(Point::new(2.0, 3.0)));
        assert!(!r.contains(Point::new(0.0, 0.0)));
    }

    #[test]
    fn rect_intersection() {
        let a = Rect::new(0.0, 0.0, 2.0, 2.0);
        let b = Rect::new(1.0, 1.0, 2.0, 2.0);
        let c = Rect::new(2.0, 0.0, 2.0, 2.0); // shares an edge only
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
    }

    #[test]
    fn rect_containment() {
        let outer = Rect::new(0.0, 0.0, 10.0, 10.0);
        assert!(outer.contains_rect(&Rect::new(1.0, 1.0, 5.0, 5.0)));
        assert!(!outer.contains_rect(&Rect::new(6.0, 6.0, 5.0, 5.0)));
    }

    #[test]
    fn transforms_are_involutions() {
        let p = Point::new(3.0, 7.0);
        for t in Transform::ALL {
            let twice = t.apply_point(t.apply_point(p, 20.0, 30.0), 20.0, 30.0);
            assert!(twice.approx_eq(p), "{t:?} applied twice");
        }
    }

    #[test]
    fn rot180_moves_corner_to_corner() {
        let p = Transform::Rot180.apply_point(Point::new(0.0, 0.0), 10.0, 20.0);
        assert!(p.approx_eq(Point::new(10.0, 20.0)));
    }

    #[test]
    fn mirror_flips_x_only() {
        let p = Transform::MirrorX.apply_point(Point::new(2.0, 5.0), 10.0, 20.0);
        assert!(p.approx_eq(Point::new(8.0, 5.0)));
    }

    #[test]
    #[should_panic(expected = "invalid rect")]
    fn negative_rect_panics() {
        let _ = Rect::new(0.0, 0.0, -1.0, 1.0);
    }
}
