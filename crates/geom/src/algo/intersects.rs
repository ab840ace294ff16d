//! The OGC `intersects` predicate — the refine-phase test of the paper's
//! spatial join ("returns true iff the geometries share any portion of
//! space").

use super::pip::{point_in_polygon, PointLocation};
use super::segint::segments_intersect;
use crate::geometry::Geometry;
use crate::linestring::LineString;
use crate::point::Point;
use crate::polygon::{Polygon, Ring};
use crate::rect::Rect;

/// `true` if the point lies on/in the geometry.
pub fn point_in_geometry(p: Point, g: &Geometry) -> bool {
    match g {
        Geometry::Point(q) => p == *q,
        Geometry::LineString(l) => point_on_linestring(p, l),
        Geometry::Polygon(poly) => point_in_polygon(p, poly) != PointLocation::Outside,
        Geometry::MultiPoint(m) => m.0.contains(&p),
        Geometry::MultiLineString(m) => m.0.iter().any(|l| point_on_linestring(p, l)),
        Geometry::MultiPolygon(m) => {
            m.0.iter()
                .any(|poly| point_in_polygon(p, poly) != PointLocation::Outside)
        }
        Geometry::GeometryCollection(c) => c.0.iter().any(|g| point_in_geometry(p, g)),
    }
}

fn point_on_linestring(p: Point, l: &LineString) -> bool {
    l.segments().any(|(a, b)| segments_intersect(a, b, p, p))
}

/// `true` if any segment of `a` intersects any segment of `b`.
pub fn line_intersects_line(a: &LineString, b: &LineString) -> bool {
    if !a.envelope().intersects(&b.envelope()) {
        return false;
    }
    for (p1, p2) in a.segments() {
        let seg_env = Rect::from_corners(p1, p2);
        if !seg_env.intersects(&b.envelope()) {
            continue;
        }
        for (q1, q2) in b.segments() {
            if segments_intersect(p1, p2, q1, q2) {
                return true;
            }
        }
    }
    false
}

/// `true` if the line touches/crosses the polygon boundary or lies inside.
pub fn line_intersects_polygon(l: &LineString, poly: &Polygon) -> bool {
    if !l.envelope().intersects(&poly.envelope()) {
        return false;
    }
    // Any boundary crossing?
    for (p1, p2) in l.segments() {
        for (q1, q2) in poly.all_segments() {
            if segments_intersect(p1, p2, q1, q2) {
                return true;
            }
        }
    }
    // No crossing: the line is wholly inside or wholly outside; one vertex
    // decides.
    point_in_polygon(l.points()[0], poly) != PointLocation::Outside
}

/// `true` if two polygons share any portion of space: boundary crossing or
/// full containment of one in the other.
pub fn polygon_intersects_polygon(a: &Polygon, b: &Polygon) -> bool {
    if !a.envelope().intersects(&b.envelope()) {
        return false;
    }
    for (p1, p2) in a.all_segments() {
        let seg_env = Rect::from_corners(p1, p2);
        if !seg_env.intersects(&b.envelope()) {
            continue;
        }
        for (q1, q2) in b.all_segments() {
            if segments_intersect(p1, p2, q1, q2) {
                return true;
            }
        }
    }
    // No boundary crossing: either disjoint or one contains the other.
    point_in_polygon(a.exterior().points()[0], b) != PointLocation::Outside
        || point_in_polygon(b.exterior().points()[0], a) != PointLocation::Outside
}

/// `true` if the rectangle intersects the geometry exactly (not just its
/// envelope) — used by grid-cell population when precise cell membership is
/// requested.
pub fn rect_intersects_geometry(r: &Rect, g: &Geometry) -> bool {
    if !r.intersects(&g.envelope()) {
        return false;
    }
    let rect_poly = rect_to_polygon(r);
    match g {
        Geometry::Point(p) => r.contains_point(p),
        Geometry::LineString(l) => line_intersects_polygon(l, &rect_poly),
        Geometry::Polygon(p) => polygon_intersects_polygon(p, &rect_poly),
        Geometry::MultiPoint(m) => m.0.iter().any(|p| r.contains_point(p)),
        Geometry::MultiLineString(m) => m.0.iter().any(|l| line_intersects_polygon(l, &rect_poly)),
        Geometry::MultiPolygon(m) => {
            m.0.iter()
                .any(|p| polygon_intersects_polygon(p, &rect_poly))
        }
        Geometry::GeometryCollection(c) => c.0.iter().any(|g| rect_intersects_geometry(r, g)),
    }
}

/// Scans the geometry's vertices for one inside the (closed) rectangle,
/// stopping at the first: `(found, vertices examined)`.
///
/// Every vertex is a point of its geometry — ring vertices, holes
/// included, lie on the polygon's boundary — so a vertex inside `r` is a
/// true hit: [`rect_intersects_geometry`] holds without running it. The
/// converse does not hold (a long segment can cross `r` with both ends
/// outside), so `false` decides nothing. Empty geometries have no vertex
/// and never hit.
pub fn rect_contains_any_vertex(r: &Rect, g: &Geometry) -> (bool, u64) {
    let mut examined = 0u64;
    let found = scan_vertices(r, g, &mut examined);
    (found, examined)
}

fn scan_vertices(r: &Rect, g: &Geometry, examined: &mut u64) -> bool {
    let mut points = |pts: &[Point]| {
        pts.iter().any(|p| {
            *examined += 1;
            r.contains_point(p)
        })
    };
    match g {
        Geometry::Point(p) => points(std::slice::from_ref(p)),
        Geometry::LineString(l) => points(l.points()),
        Geometry::Polygon(p) => rings(p).any(|ring| points(ring.points())),
        Geometry::MultiPoint(m) => points(&m.0),
        Geometry::MultiLineString(m) => m.0.iter().any(|l| points(l.points())),
        Geometry::MultiPolygon(m) => m.0.iter().flat_map(rings).any(|ring| points(ring.points())),
        Geometry::GeometryCollection(c) => c.0.iter().any(|g| scan_vertices(r, g, examined)),
    }
}

/// The shell, then the holes.
fn rings(p: &Polygon) -> impl Iterator<Item = &Ring> {
    std::iter::once(p.exterior()).chain(p.interiors())
}

fn rect_to_polygon(r: &Rect) -> Polygon {
    Polygon::from_coords(
        vec![
            Point::new(r.min_x, r.min_y),
            Point::new(r.max_x, r.min_y),
            Point::new(r.max_x, r.max_y),
            Point::new(r.min_x, r.max_y),
            Point::new(r.min_x, r.min_y),
        ],
        vec![],
    )
    // audit: four rectangle corners always form a valid closed ring.
    .expect("rect corners always form a valid ring")
}

/// The symmetric `intersects` predicate over any pair of geometries.
///
/// Dispatches on both shape classes; multi-geometries distribute over their
/// members. This is the exact test invoked by the refine phase of the
/// spatial join exemplar.
pub fn intersects(a: &Geometry, b: &Geometry) -> bool {
    // MBR filter first — mirrors the library's own filter-refine discipline
    // and keeps the worst case cheap.
    if !a.envelope().intersects(&b.envelope()) {
        return false;
    }
    use Geometry as G;
    match (a, b) {
        (G::Point(p), _) => point_in_geometry(*p, b),
        (_, G::Point(p)) => point_in_geometry(*p, a),
        (G::MultiPoint(m), _) => m.0.iter().any(|p| point_in_geometry(*p, b)),
        (_, G::MultiPoint(m)) => m.0.iter().any(|p| point_in_geometry(*p, a)),
        (G::GeometryCollection(c), _) => c.0.iter().any(|g| intersects(g, b)),
        (_, G::GeometryCollection(c)) => c.0.iter().any(|g| intersects(g, a)),
        (G::MultiLineString(m), _) => m.0.iter().any(|l| intersects(&G::LineString(l.clone()), b)),
        (_, G::MultiLineString(m)) => m.0.iter().any(|l| intersects(&G::LineString(l.clone()), a)),
        (G::MultiPolygon(m), _) => m.0.iter().any(|p| intersects(&G::Polygon(p.clone()), b)),
        (_, G::MultiPolygon(m)) => m.0.iter().any(|p| intersects(&G::Polygon(p.clone()), a)),
        (G::LineString(l1), G::LineString(l2)) => line_intersects_line(l1, l2),
        (G::LineString(l), G::Polygon(p)) => line_intersects_polygon(l, p),
        (G::Polygon(p), G::LineString(l)) => line_intersects_polygon(l, p),
        (G::Polygon(p1), G::Polygon(p2)) => polygon_intersects_polygon(p1, p2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::{MultiPoint, MultiPolygon};

    fn pts(coords: &[(f64, f64)]) -> Vec<Point> {
        coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    fn square(x0: f64, y0: f64, side: f64) -> Polygon {
        Polygon::from_coords(
            pts(&[
                (x0, y0),
                (x0 + side, y0),
                (x0 + side, y0 + side),
                (x0, y0 + side),
                (x0, y0),
            ]),
            vec![],
        )
        .unwrap()
    }

    fn line(coords: &[(f64, f64)]) -> LineString {
        LineString::new(pts(coords)).unwrap()
    }

    #[test]
    fn overlapping_squares_intersect() {
        let a: Geometry = square(0.0, 0.0, 2.0).into();
        let b: Geometry = square(1.0, 1.0, 2.0).into();
        assert!(intersects(&a, &b));
        assert!(intersects(&b, &a));
    }

    #[test]
    fn disjoint_squares_do_not_intersect() {
        let a: Geometry = square(0.0, 0.0, 1.0).into();
        let b: Geometry = square(5.0, 5.0, 1.0).into();
        assert!(!intersects(&a, &b));
    }

    #[test]
    fn nested_squares_intersect_despite_no_boundary_crossing() {
        let outer: Geometry = square(0.0, 0.0, 10.0).into();
        let inner: Geometry = square(4.0, 4.0, 1.0).into();
        assert!(intersects(&outer, &inner));
        assert!(intersects(&inner, &outer));
    }

    #[test]
    fn envelope_overlap_is_not_sufficient() {
        // Two L-shaped-adjacent squares whose MBRs overlap but whose actual
        // shapes do not: a thin diagonal strip vs a far corner square.
        let diag: Geometry = Geometry::LineString(line(&[(0.0, 0.0), (10.0, 10.0)]));
        let corner: Geometry = square(8.0, 0.0, 1.0).into();
        // Envelopes overlap:
        assert!(diag.envelope().intersects(&corner.envelope()));
        // But the refine test rejects:
        assert!(!intersects(&diag, &corner));
    }

    #[test]
    fn line_crossing_polygon() {
        let sq: Geometry = square(0.0, 0.0, 2.0).into();
        let crossing: Geometry = Geometry::LineString(line(&[(-1.0, 1.0), (3.0, 1.0)]));
        assert!(intersects(&sq, &crossing));
        let inside: Geometry = Geometry::LineString(line(&[(0.5, 0.5), (1.5, 1.5)]));
        assert!(intersects(&sq, &inside));
        let outside: Geometry = Geometry::LineString(line(&[(5.0, 5.0), (6.0, 6.0)]));
        assert!(!intersects(&sq, &outside));
    }

    #[test]
    fn point_predicates() {
        let sq: Geometry = square(0.0, 0.0, 2.0).into();
        assert!(intersects(&Geometry::Point(Point::new(1.0, 1.0)), &sq));
        assert!(intersects(&Geometry::Point(Point::new(0.0, 0.0)), &sq)); // boundary
        assert!(!intersects(&Geometry::Point(Point::new(9.0, 9.0)), &sq));
        let l = Geometry::LineString(line(&[(0.0, 0.0), (2.0, 2.0)]));
        assert!(intersects(&Geometry::Point(Point::new(1.0, 1.0)), &l));
        assert!(!intersects(&Geometry::Point(Point::new(1.0, 1.1)), &l));
    }

    #[test]
    fn multi_geometries_distribute() {
        let mp = Geometry::MultiPoint(MultiPoint(vec![
            Point::new(50.0, 50.0),
            Point::new(0.5, 0.5),
        ]));
        let sq: Geometry = square(0.0, 0.0, 1.0).into();
        assert!(intersects(&mp, &sq));

        let mpoly = Geometry::MultiPolygon(MultiPolygon(vec![
            square(100.0, 100.0, 1.0),
            square(0.0, 0.0, 1.0),
        ]));
        let target: Geometry = square(0.5, 0.5, 3.0).into();
        assert!(intersects(&mpoly, &target));
    }

    #[test]
    fn rect_intersects_geometry_is_exact() {
        // A diagonal line whose envelope covers the cell but which misses it.
        let l = Geometry::LineString(line(&[(0.0, 0.0), (10.0, 10.0)]));
        let cell_hit = Rect::new(4.0, 4.0, 6.0, 6.0);
        let cell_miss = Rect::new(8.0, 0.0, 9.0, 1.0);
        assert!(rect_intersects_geometry(&cell_hit, &l));
        assert!(!rect_intersects_geometry(&cell_miss, &l));
    }

    #[test]
    fn polygon_touching_at_edge_intersects() {
        let a: Geometry = square(0.0, 0.0, 1.0).into();
        let b: Geometry = square(1.0, 0.0, 1.0).into();
        assert!(intersects(&a, &b));
    }
}
