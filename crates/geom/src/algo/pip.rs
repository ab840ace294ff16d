//! Point-in-polygon tests (ray casting with boundary detection).

use super::orient::{orientation, Orientation};
use super::shape::{rings, Coords};
use crate::point::Point;
use crate::polygon::Polygon;
use crate::rect::Rect;

/// Where a point lies relative to a ring or polygon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointLocation {
    Inside,
    OnBoundary,
    Outside,
}

/// Locates `q` relative to a closed ring, given as its edges, using the
/// crossing-number algorithm, with an explicit boundary check so that
/// points exactly on an edge or vertex report [`PointLocation::OnBoundary`].
fn locate_in_edges(q: Point, edges: impl Iterator<Item = (Point, Point)>) -> PointLocation {
    let mut inside = false;
    for (a, b) in edges {
        // Boundary: q collinear with the edge and within its box.
        if orientation(a, b, q) == Orientation::Collinear
            && q.x >= a.x.min(b.x)
            && q.x <= a.x.max(b.x)
            && q.y >= a.y.min(b.y)
            && q.y <= a.y.max(b.y)
        {
            return PointLocation::OnBoundary;
        }

        // Crossing test: does the horizontal ray from q to +inf cross edge
        // (a, b)? The half-open test (one endpoint strictly above, the other
        // at-or-below) counts vertex crossings exactly once.
        let crosses = (a.y > q.y) != (b.y > q.y);
        if crosses {
            let x_at = a.x + (q.y - a.y) / (b.y - a.y) * (b.x - a.x);
            if q.x < x_at {
                inside = !inside;
            }
        }
    }
    if inside {
        PointLocation::Inside
    } else {
        PointLocation::Outside
    }
}

/// Locates `q` relative to a polygon with holes. A point inside a hole is
/// [`PointLocation::Outside`]; a point on a hole boundary is
/// [`PointLocation::OnBoundary`].
pub fn point_in_polygon(q: Point, poly: &Polygon) -> PointLocation {
    locate_in_polygon(q, rings(poly), &poly.envelope())
}

/// [`point_in_polygon`] over a polygon's rings, shell first, and its
/// envelope (the shell's).
pub(crate) fn locate_in_polygon<C: Coords>(
    q: Point,
    rings: impl Iterator<Item = C>,
    envelope: &Rect,
) -> PointLocation {
    // Envelope rejection: the common case for filter survivors.
    if !envelope.contains_point(&q) {
        return PointLocation::Outside;
    }
    locate_in_rings(q, rings.map(C::segments))
}

/// [`point_in_polygon`] without the envelope rejection, over the polygon's
/// rings given as edge sequences, shell first. The rejection only
/// shortcuts: a point outside the envelope is outside the shell.
pub(crate) fn locate_in_rings<E: Iterator<Item = (Point, Point)>>(
    q: Point,
    mut rings: impl Iterator<Item = E>,
) -> PointLocation {
    let Some(shell) = rings.next() else {
        return PointLocation::Outside;
    };
    match locate_in_edges(q, shell) {
        PointLocation::Outside => PointLocation::Outside,
        PointLocation::OnBoundary => PointLocation::OnBoundary,
        PointLocation::Inside => {
            for hole in rings {
                match locate_in_edges(q, hole) {
                    PointLocation::Inside => return PointLocation::Outside,
                    PointLocation::OnBoundary => return PointLocation::OnBoundary,
                    PointLocation::Outside => {}
                }
            }
            PointLocation::Inside
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[(f64, f64)]) -> Vec<Point> {
        coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    fn unit_square() -> Polygon {
        Polygon::from_coords(
            pts(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)]),
            vec![],
        )
        .unwrap()
    }

    #[test]
    fn center_is_inside() {
        assert_eq!(
            point_in_polygon(Point::new(0.5, 0.5), &unit_square()),
            PointLocation::Inside
        );
    }

    #[test]
    fn far_point_is_outside() {
        assert_eq!(
            point_in_polygon(Point::new(5.0, 5.0), &unit_square()),
            PointLocation::Outside
        );
    }

    #[test]
    fn edge_and_vertex_are_boundary() {
        let sq = unit_square();
        assert_eq!(
            point_in_polygon(Point::new(0.5, 0.0), &sq),
            PointLocation::OnBoundary
        );
        assert_eq!(
            point_in_polygon(Point::new(0.0, 0.0), &sq),
            PointLocation::OnBoundary
        );
        assert_eq!(
            point_in_polygon(Point::new(1.0, 0.7), &sq),
            PointLocation::OnBoundary
        );
    }

    #[test]
    fn point_in_hole_is_outside() {
        let hole = pts(&[
            (0.25, 0.25),
            (0.75, 0.25),
            (0.75, 0.75),
            (0.25, 0.75),
            (0.25, 0.25),
        ]);
        let p = Polygon::from_coords(
            pts(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)]),
            vec![hole],
        )
        .unwrap();
        assert_eq!(
            point_in_polygon(Point::new(0.5, 0.5), &p),
            PointLocation::Outside
        );
        assert_eq!(
            point_in_polygon(Point::new(0.1, 0.1), &p),
            PointLocation::Inside
        );
        assert_eq!(
            point_in_polygon(Point::new(0.25, 0.5), &p),
            PointLocation::OnBoundary
        );
    }

    #[test]
    fn concave_polygon() {
        // A "C" shape: the notch (x in [1,3], y in [1,3]) is outside.
        let c = Polygon::from_coords(
            pts(&[
                (0.0, 0.0),
                (4.0, 0.0),
                (4.0, 1.0),
                (1.0, 1.0),
                (1.0, 3.0),
                (4.0, 3.0),
                (4.0, 4.0),
                (0.0, 4.0),
                (0.0, 0.0),
            ]),
            vec![],
        )
        .unwrap();
        assert_eq!(
            point_in_polygon(Point::new(2.0, 2.0), &c),
            PointLocation::Outside
        );
        assert_eq!(
            point_in_polygon(Point::new(0.5, 2.0), &c),
            PointLocation::Inside
        );
        assert_eq!(
            point_in_polygon(Point::new(2.0, 0.5), &c),
            PointLocation::Inside
        );
    }

    #[test]
    fn ray_through_vertex_counts_once() {
        // Diamond whose leftmost vertex is at the test point's y level:
        // a horizontal ray from inside passes exactly through vertices.
        let d = Polygon::from_coords(
            pts(&[(0.0, 1.0), (1.0, 0.0), (2.0, 1.0), (1.0, 2.0), (0.0, 1.0)]),
            vec![],
        )
        .unwrap();
        assert_eq!(
            point_in_polygon(Point::new(1.0, 1.0), &d),
            PointLocation::Inside
        );
        assert_eq!(
            point_in_polygon(Point::new(-1.0, 1.0), &d),
            PointLocation::Outside
        );
        assert_eq!(
            point_in_polygon(Point::new(3.0, 1.0), &d),
            PointLocation::Outside
        );
    }
}
