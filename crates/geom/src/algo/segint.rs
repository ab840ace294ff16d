//! Segment–segment intersection tests.

use super::orient::{orientation, Orientation};
use crate::point::Point;
use crate::rect::Rect;

/// `true` if point `q` lies on the closed segment `(a, b)`, assuming the
/// three points are collinear.
#[inline]
fn on_segment(a: Point, b: Point, q: Point) -> bool {
    q.x >= a.x.min(b.x) && q.x <= a.x.max(b.x) && q.y >= a.y.min(b.y) && q.y <= a.y.max(b.y)
}

/// Exact closed-segment intersection test (shared endpoints intersect).
///
/// This is the classic four-orientation test with collinear special cases —
/// the inner loop of the refine phase for line/polygon boundaries.
pub fn segments_intersect(p1: Point, p2: Point, q1: Point, q2: Point) -> bool {
    // Cheap bounding-box rejection first: most candidate pairs surviving
    // the grid filter still have disjoint segment boxes.
    let bb_p = Rect::from_corners(p1, p2);
    let bb_q = Rect::from_corners(q1, q2);
    if !bb_p.intersects(&bb_q) {
        return false;
    }

    let o1 = orientation(p1, p2, q1);
    let o2 = orientation(p1, p2, q2);
    let o3 = orientation(q1, q2, p1);
    let o4 = orientation(q1, q2, p2);

    if o1 != o2
        && o3 != o4
        && o1 != Orientation::Collinear
        && o2 != Orientation::Collinear
        && o3 != Orientation::Collinear
        && o4 != Orientation::Collinear
    {
        return true;
    }

    (o1 == Orientation::Collinear && on_segment(p1, p2, q1))
        || (o2 == Orientation::Collinear && on_segment(p1, p2, q2))
        || (o3 == Orientation::Collinear && on_segment(q1, q2, p1))
        || (o4 == Orientation::Collinear && on_segment(q1, q2, p2))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn proper_crossing() {
        assert!(segments_intersect(
            p(0.0, 0.0),
            p(2.0, 2.0),
            p(0.0, 2.0),
            p(2.0, 0.0)
        ));
    }

    #[test]
    fn disjoint_segments() {
        assert!(!segments_intersect(
            p(0.0, 0.0),
            p(1.0, 0.0),
            p(0.0, 1.0),
            p(1.0, 1.0)
        ));
    }

    #[test]
    fn shared_endpoint_counts_as_intersection() {
        assert!(segments_intersect(
            p(0.0, 0.0),
            p(1.0, 1.0),
            p(1.0, 1.0),
            p(2.0, 0.0)
        ));
    }

    #[test]
    fn t_junction_touch() {
        // q1 lies in the interior of segment p.
        assert!(segments_intersect(
            p(0.0, 0.0),
            p(2.0, 0.0),
            p(1.0, 0.0),
            p(1.0, 5.0)
        ));
    }

    #[test]
    fn collinear_overlapping() {
        assert!(segments_intersect(
            p(0.0, 0.0),
            p(3.0, 0.0),
            p(1.0, 0.0),
            p(4.0, 0.0)
        ));
    }

    #[test]
    fn collinear_disjoint() {
        assert!(!segments_intersect(
            p(0.0, 0.0),
            p(1.0, 0.0),
            p(2.0, 0.0),
            p(3.0, 0.0)
        ));
    }

    #[test]
    fn parallel_non_collinear() {
        assert!(!segments_intersect(
            p(0.0, 0.0),
            p(2.0, 0.0),
            p(0.0, 1.0),
            p(2.0, 1.0)
        ));
    }

    #[test]
    fn crossing_at_segment_end_is_detected() {
        // Segment q ends exactly on segment p's interior.
        assert!(segments_intersect(
            p(0.0, 0.0),
            p(4.0, 4.0),
            p(2.0, 2.0),
            p(2.0, -5.0)
        ));
    }
}
