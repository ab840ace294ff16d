//! Point-to-geometry euclidean distance — the refine-phase metric behind
//! the serving layer's k-nearest-neighbor queries.
//!
//! Distance to an area (polygon) is zero when the point lies inside or on
//! the boundary; otherwise it is the distance to the nearest boundary
//! segment (holes included: a point inside a hole is *outside* the
//! polygon, and its distance is to the hole's ring).

use super::pip::{locate_in_polygon, PointLocation};
use super::shape::{Coords, Part, Shape};
use crate::{Geometry, Point};

/// Distance from `p` to the segment `a..b` (degenerate segments collapse
/// to point distance).
pub fn point_segment_distance(p: &Point, a: &Point, b: &Point) -> f64 {
    let (dx, dy) = (b.x - a.x, b.y - a.y);
    let len_sq = dx * dx + dy * dy;
    if len_sq == 0.0 {
        return p.distance(a);
    }
    let t = (((p.x - a.x) * dx + (p.y - a.y) * dy) / len_sq).clamp(0.0, 1.0);
    p.distance(&Point::new(a.x + t * dx, a.y + t * dy))
}

/// Minimum euclidean distance from `p` to `g`.
///
/// Exact for every geometry class: points and vertices measure directly,
/// linear geometries measure to the nearest segment, areal geometries are
/// zero when `p` is inside or on the boundary. Empty multi-geometries
/// have no nearest point and return `f64::INFINITY`, which naturally
/// sorts them behind every real candidate in a kNN merge.
pub fn point_geometry_distance(p: &Point, g: &Geometry) -> f64 {
    point_shape_distance(p, g)
}

/// [`point_geometry_distance`] over any [`Shape`]: the minimum over its
/// parts, in order.
pub fn point_shape_distance(p: &Point, g: impl Shape) -> f64 {
    let mut nearest = f64::INFINITY;
    g.form().for_each_part(|part| {
        let d = match part {
            Part::Point(q) => p.distance(q),
            Part::Line(l) => segments_distance(p, l.segments()),
            Part::Polygon(rings) => {
                let inside = locate_in_polygon(*p, rings.clone(), &part.envelope());
                if inside != PointLocation::Outside {
                    0.0
                } else {
                    segments_distance(p, rings.clone().flat_map(Coords::segments))
                }
            }
        };
        nearest = nearest.min(d);
    });
    nearest
}

fn segments_distance(p: &Point, segments: impl Iterator<Item = (Point, Point)>) -> f64 {
    segments
        .map(|(a, b)| point_segment_distance(p, &a, &b))
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polygon::Ring;
    use crate::{GeometryCollection, LineString, MultiPoint, Polygon};

    fn unit_square() -> Polygon {
        Polygon::from_coords(
            vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(1.0, 1.0),
                Point::new(0.0, 1.0),
                Point::new(0.0, 0.0),
            ],
            vec![],
        )
        .unwrap()
    }

    #[test]
    fn point_to_point_is_euclidean() {
        let g = Geometry::Point(Point::new(3.0, 4.0));
        assert_eq!(point_geometry_distance(&Point::new(0.0, 0.0), &g), 5.0);
    }

    #[test]
    fn segment_distance_projects_and_clamps() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        // Perpendicular foot inside the segment.
        assert_eq!(point_segment_distance(&Point::new(5.0, 2.0), &a, &b), 2.0);
        // Foot beyond the endpoint: clamp to the endpoint.
        assert_eq!(point_segment_distance(&Point::new(13.0, 4.0), &a, &b), 5.0);
        // Degenerate segment.
        assert_eq!(point_segment_distance(&Point::new(3.0, 4.0), &a, &a), 5.0);
    }

    #[test]
    fn linestring_takes_nearest_segment() {
        let ls = LineString::new(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
        ])
        .unwrap();
        let g = Geometry::LineString(ls);
        assert_eq!(point_geometry_distance(&Point::new(12.0, 5.0), &g), 2.0);
    }

    #[test]
    fn polygon_interior_and_boundary_are_zero() {
        let g = Geometry::Polygon(unit_square());
        assert_eq!(point_geometry_distance(&Point::new(0.5, 0.5), &g), 0.0);
        assert_eq!(point_geometry_distance(&Point::new(1.0, 0.5), &g), 0.0);
        assert_eq!(point_geometry_distance(&Point::new(1.0, 3.5), &g), 2.5);
    }

    #[test]
    fn polygon_hole_measures_to_hole_ring() {
        let outer = Ring::new(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
            Point::new(0.0, 10.0),
            Point::new(0.0, 0.0),
        ])
        .unwrap();
        let hole = Ring::new(vec![
            Point::new(4.0, 4.0),
            Point::new(6.0, 4.0),
            Point::new(6.0, 6.0),
            Point::new(4.0, 6.0),
            Point::new(4.0, 4.0),
        ])
        .unwrap();
        let g = Geometry::Polygon(Polygon::new(outer, vec![hole]));
        // Centre of the hole: outside the polygon, 1.0 from the hole ring.
        assert_eq!(point_geometry_distance(&Point::new(5.0, 5.0), &g), 1.0);
    }

    #[test]
    fn empty_collections_are_infinitely_far() {
        let g = Geometry::MultiPoint(MultiPoint(vec![]));
        assert_eq!(
            point_geometry_distance(&Point::new(0.0, 0.0), &g),
            f64::INFINITY
        );
        let g = Geometry::GeometryCollection(GeometryCollection(vec![]));
        assert_eq!(
            point_geometry_distance(&Point::new(0.0, 0.0), &g),
            f64::INFINITY
        );
    }
}
