//! 2-D point type.

use crate::rect::Rect;

/// A point in the plane with `f64` coordinates.
///
/// `Point` is `Copy`, 16 bytes, and `#[repr(C)]` so it can be transmitted
/// verbatim as the payload of the runtime's `MPI_POINT` derived datatype
/// (two contiguous doubles, exactly as the paper defines it).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Point {
    pub x: f64,
    pub y: f64,
}

impl Point {
    /// Creates a point at `(x, y)`.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(&self, other: &Point) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }

    /// The degenerate bounding rectangle covering just this point.
    #[inline]
    pub fn envelope(&self) -> Rect {
        Rect::new(self.x, self.y, self.x, self.y)
    }

    /// Returns `true` if both coordinates are finite (not NaN/∞).
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl From<(f64, f64)> for Point {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl std::fmt::Display for Point {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_layout_is_two_doubles() {
        // The MPI_POINT datatype depends on this exact layout.
        assert_eq!(std::mem::size_of::<Point>(), 16);
        assert_eq!(std::mem::align_of::<Point>(), 8);
    }

    #[test]
    fn distance_matches_hand_computation() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(&b), 5.0);
    }

    #[test]
    fn envelope_is_degenerate_rect() {
        let p = Point::new(2.5, -1.0);
        let env = p.envelope();
        assert_eq!(env.min_x, 2.5);
        assert_eq!(env.max_x, 2.5);
        assert_eq!(env.min_y, -1.0);
        assert_eq!(env.max_y, -1.0);
        assert!(env.contains_point(&p));
    }

    #[test]
    fn from_tuple_round_trips() {
        let p: Point = (1.0, 2.0).into();
        assert_eq!(p, Point::new(1.0, 2.0));
    }

    #[test]
    fn is_finite_rejects_nan_and_inf() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 2.0).is_finite());
        assert!(!Point::new(1.0, f64::INFINITY).is_finite());
    }
}
