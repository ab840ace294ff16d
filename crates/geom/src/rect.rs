//! Axis-aligned minimum bounding rectangles (MBRs).

use crate::point::Point;

/// An axis-aligned rectangle, the paper's `MPI_RECT`: four contiguous
/// doubles `(min_x, min_y, max_x, max_y)`.
///
/// A rectangle with `min > max` on either axis is *empty*; [`Rect::EMPTY`]
/// is the canonical empty rectangle and the identity of [`Rect::union`],
/// which makes `MPI_UNION` reductions well-defined for ranks that hold no
/// geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
pub struct Rect {
    pub min_x: f64,
    pub min_y: f64,
    pub max_x: f64,
    pub max_y: f64,
}

impl Rect {
    /// The empty rectangle: identity element for [`Rect::union`].
    pub const EMPTY: Rect = Rect {
        min_x: f64::INFINITY,
        min_y: f64::INFINITY,
        max_x: f64::NEG_INFINITY,
        max_y: f64::NEG_INFINITY,
    };

    /// Creates a rectangle from corner coordinates. Does not normalize;
    /// use [`Rect::from_corners`] if the corners may be swapped.
    #[inline]
    pub const fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        Rect {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }

    /// Creates a normalized rectangle from two arbitrary opposite corners.
    #[inline]
    pub fn from_corners(a: Point, b: Point) -> Self {
        Rect {
            min_x: a.x.min(b.x),
            min_y: a.y.min(b.y),
            max_x: a.x.max(b.x),
            max_y: a.y.max(b.y),
        }
    }

    /// Smallest rectangle covering every point in `pts`; [`Rect::EMPTY`] if
    /// `pts` is empty.
    pub fn from_points(pts: &[Point]) -> Self {
        let mut r = Rect::EMPTY;
        for p in pts {
            r.expand_point(p);
        }
        r
    }

    /// `true` when the rectangle covers no area and no point.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min_x > self.max_x || self.min_y > self.max_y
    }

    /// Width (0 for empty rectangles).
    #[inline]
    pub fn width(&self) -> f64 {
        (self.max_x - self.min_x).max(0.0)
    }

    /// Height (0 for empty rectangles).
    #[inline]
    pub fn height(&self) -> f64 {
        (self.max_y - self.min_y).max(0.0)
    }

    /// Area (0 for empty rectangles).
    #[inline]
    pub fn area(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.width() * self.height()
        }
    }

    /// Half-perimeter, the size measure the paper's `MPI_MIN`/`MPI_MAX`
    /// reductions compare rectangles by.
    #[inline]
    pub fn half_perimeter(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.width() + self.height()
        }
    }

    /// Center point of the rectangle.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(
            (self.min_x + self.max_x) * 0.5,
            (self.min_y + self.max_y) * 0.5,
        )
    }

    /// Bottom-left corner.
    #[inline]
    pub fn lo(&self) -> Point {
        Point::new(self.min_x, self.min_y)
    }

    /// Top-right corner.
    #[inline]
    pub fn hi(&self) -> Point {
        Point::new(self.max_x, self.max_y)
    }

    /// Closed-boundary intersection test: rectangles that merely touch
    /// edges intersect, matching the OGC `intersects` predicate the filter
    /// phase approximates.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        !(self.is_empty()
            || other.is_empty()
            || self.min_x > other.max_x
            || other.min_x > self.max_x
            || self.min_y > other.max_y
            || other.min_y > self.max_y)
    }

    /// `true` when `other` lies entirely inside `self` (boundary included).
    #[inline]
    pub fn contains(&self, other: &Rect) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.min_x <= other.min_x
            && self.max_x >= other.max_x
            && self.min_y <= other.min_y
            && self.max_y >= other.max_y
    }

    /// `true` when the point is inside or on the boundary.
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        !self.is_empty()
            && p.x >= self.min_x
            && p.x <= self.max_x
            && p.y >= self.min_y
            && p.y <= self.max_y
    }

    /// L∞ (Chebyshev) distance from `p` to the rectangle: 0 inside or on
    /// the boundary, `f64::INFINITY` for empty rectangles.
    ///
    /// This is the lower bound [`RTree::nearest_with`] orders its walk
    /// by. It never exceeds the euclidean distance from `p` to anything
    /// inside the rectangle, and it is one subtraction per axis, which
    /// rounding keeps monotone: the same subtraction against any
    /// coordinate inside the box is at least as large. The tighter L2 box
    /// distance adds a square, a sum and a root of its own, whose
    /// rounding can land above the distance later computed to a geometry
    /// in the box and cut a tie off the walk.
    ///
    /// [`RTree::nearest_with`]: crate::index::RTree::nearest_with
    #[inline]
    pub fn linf_distance(&self, p: &Point) -> f64 {
        if self.is_empty() {
            return f64::INFINITY;
        }
        let dx = (self.min_x - p.x).max(p.x - self.max_x);
        let dy = (self.min_y - p.y).max(p.y - self.max_y);
        dx.max(dy).max(0.0)
    }

    /// Geometric union: the smallest rectangle covering both inputs.
    ///
    /// This is the semantics of the paper's new `MPI_UNION` reduction
    /// operator, used to derive global grid dimensions from per-rank local
    /// MBRs. It is associative and commutative with [`Rect::EMPTY`] as the
    /// identity.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Rect {
            min_x: self.min_x.min(other.min_x),
            min_y: self.min_y.min(other.min_y),
            max_x: self.max_x.max(other.max_x),
            max_y: self.max_y.max(other.max_y),
        }
    }

    /// Intersection rectangle; empty if the inputs do not intersect.
    #[inline]
    pub fn intersection(&self, other: &Rect) -> Rect {
        if !self.intersects(other) {
            return Rect::EMPTY;
        }
        Rect {
            min_x: self.min_x.max(other.min_x),
            min_y: self.min_y.max(other.min_y),
            max_x: self.max_x.min(other.max_x),
            max_y: self.max_y.min(other.max_y),
        }
    }

    /// Grows the rectangle in place to cover `p`.
    #[inline]
    fn expand_point(&mut self, p: &Point) {
        self.min_x = self.min_x.min(p.x);
        self.min_y = self.min_y.min(p.y);
        self.max_x = self.max_x.max(p.x);
        self.max_y = self.max_y.max(p.y);
    }

    /// Grows the rectangle in place to cover `other`.
    #[inline]
    pub fn expand_rect(&mut self, other: &Rect) {
        *self = self.union(other);
    }

    /// Serializes to the 4-double array used by the `MPI_RECT` datatype.
    #[inline]
    pub fn to_array(&self) -> [f64; 4] {
        [self.min_x, self.min_y, self.max_x, self.max_y]
    }

    /// Deserializes from the 4-double `MPI_RECT` wire layout.
    #[inline]
    pub fn from_array(a: [f64; 4]) -> Rect {
        Rect::new(a[0], a[1], a[2], a[3])
    }
}

impl Default for Rect {
    fn default() -> Self {
        Rect::EMPTY
    }
}

impl std::fmt::Display for Rect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            write!(f, "RECT EMPTY")
        } else {
            write!(
                f,
                "RECT ({} {}, {} {})",
                self.min_x, self.min_y, self.max_x, self.max_y
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_layout_is_four_doubles() {
        // MPI_RECT is "a contiguous type of 4 doubles" (paper §4.2.1).
        assert_eq!(std::mem::size_of::<Rect>(), 32);
    }

    #[test]
    fn empty_is_identity_for_union() {
        let r = Rect::new(1.0, 2.0, 3.0, 4.0);
        assert_eq!(Rect::EMPTY.union(&r), r);
        assert_eq!(r.union(&Rect::EMPTY), r);
        assert!(Rect::EMPTY.union(&Rect::EMPTY).is_empty());
    }

    #[test]
    fn union_covers_both_inputs() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let b = Rect::new(2.0, -1.0, 3.0, 0.5);
        let u = a.union(&b);
        assert!(u.contains(&a));
        assert!(u.contains(&b));
        assert_eq!(u, Rect::new(0.0, -1.0, 3.0, 1.0));
    }

    #[test]
    fn touching_rects_intersect() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let b = Rect::new(1.0, 0.0, 2.0, 1.0); // shares the x = 1 edge
        assert!(a.intersects(&b));
        let c = Rect::new(1.0 + f64::EPSILON * 4.0, 0.0, 2.0, 1.0);
        assert!(!a.intersects(&c));
    }

    #[test]
    fn disjoint_rects_do_not_intersect() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let b = Rect::new(5.0, 5.0, 6.0, 6.0);
        assert!(!a.intersects(&b));
        assert!(a.intersection(&b).is_empty());
    }

    #[test]
    fn intersection_is_commutative_and_contained() {
        let a = Rect::new(0.0, 0.0, 2.0, 2.0);
        let b = Rect::new(1.0, 1.0, 3.0, 3.0);
        let i = a.intersection(&b);
        assert_eq!(i, b.intersection(&a));
        assert_eq!(i, Rect::new(1.0, 1.0, 2.0, 2.0));
        assert!(a.contains(&i) && b.contains(&i));
    }

    #[test]
    fn empty_rect_never_intersects_or_contains() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        assert!(!Rect::EMPTY.intersects(&a));
        assert!(!a.intersects(&Rect::EMPTY));
        assert!(!Rect::EMPTY.contains(&a));
        assert!(!Rect::EMPTY.contains_point(&Point::new(0.0, 0.0)));
        assert_eq!(Rect::EMPTY.area(), 0.0);
    }

    #[test]
    fn linf_distance_bounds_euclidean_distance_from_below() {
        let r = Rect::new(1.0, 1.0, 3.0, 2.0);
        // Inside and on the boundary.
        assert_eq!(r.linf_distance(&Point::new(2.0, 1.5)), 0.0);
        assert_eq!(r.linf_distance(&Point::new(3.0, 2.0)), 0.0);
        // Beside an edge it is the euclidean distance; off a corner it is
        // the larger axis gap, below the euclidean 5.
        assert_eq!(r.linf_distance(&Point::new(-1.5, 1.5)), 2.5);
        assert_eq!(r.linf_distance(&Point::new(6.0, 6.0)), 4.0);
        // Empty rectangles, canonical or merely inverted, are nowhere.
        assert_eq!(
            Rect::EMPTY.linf_distance(&Point::new(0.0, 0.0)),
            f64::INFINITY
        );
        assert_eq!(
            Rect::new(2.0, 0.0, 1.0, 1.0).linf_distance(&Point::new(0.0, 0.0)),
            f64::INFINITY
        );
    }

    #[test]
    fn from_points_covers_all_inputs() {
        let pts = [
            Point::new(3.0, -1.0),
            Point::new(-2.0, 5.0),
            Point::new(0.0, 0.0),
        ];
        let r = Rect::from_points(&pts);
        assert_eq!(r, Rect::new(-2.0, -1.0, 3.0, 5.0));
        for p in &pts {
            assert!(r.contains_point(p));
        }
    }

    #[test]
    fn from_corners_normalizes() {
        let r = Rect::from_corners(Point::new(3.0, 1.0), Point::new(0.0, 4.0));
        assert_eq!(r, Rect::new(0.0, 1.0, 3.0, 4.0));
    }

    #[test]
    fn measures() {
        let r = Rect::new(0.0, 0.0, 3.0, 4.0);
        assert_eq!(r.width(), 3.0);
        assert_eq!(r.height(), 4.0);
        assert_eq!(r.area(), 12.0);
        assert_eq!(r.half_perimeter(), 7.0);
        assert_eq!(r.center(), Point::new(1.5, 2.0));
    }

    #[test]
    fn array_round_trip() {
        let r = Rect::new(-1.0, -2.0, 3.5, 4.25);
        assert_eq!(Rect::from_array(r.to_array()), r);
    }
}
