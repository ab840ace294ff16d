//! The OGC `intersects` predicate — the refine-phase test of the paper's
//! spatial join ("returns true iff the geometries share any portion of
//! space") — and the rectangle predicates beside it. Each has
//! one body, over [`Shape`], so owned geometries and zero-copy WKB views
//! run the same code; the `&Geometry` entry points are thin wrappers.

use super::pip::{locate_in_polygon, PointLocation};
use super::segint::segments_intersect;
use super::shape::{Coords, Form, Part, Shape};
use crate::geometry::Geometry;
use crate::point::Point;
use crate::rect::Rect;

fn point_in_part<S: Shape>(p: Point, part: &Part<S>) -> bool {
    match part {
        Part::Point(q) => p == *q,
        Part::Line(l) => l.segments().any(|(a, b)| segments_intersect(a, b, p, p)),
        Part::Polygon(rings) => {
            locate_in_polygon(p, rings.clone(), &part.envelope()) != PointLocation::Outside
        }
    }
}

// The pair tests below take each side's envelope from the caller, which
// has it already: a polygon's is its shell's.

/// `true` if any segment of `a` intersects any segment of `b`.
fn lines_intersect(a: impl Coords, a_env: &Rect, b: impl Coords, b_env: &Rect) -> bool {
    a_env.intersects(b_env)
        && a.segments().any(|(p1, p2)| {
            Rect::from_corners(p1, p2).intersects(b_env)
                && b.segments()
                    .any(|(q1, q2)| segments_intersect(p1, p2, q1, q2))
        })
}

/// `true` if the line touches/crosses the polygon boundary or lies inside.
fn line_intersects_polygon<C: Coords>(
    l: impl Coords,
    l_env: &Rect,
    rings: impl Iterator<Item = C> + Clone,
    p_env: &Rect,
) -> bool {
    if !l_env.intersects(p_env) {
        return false;
    }
    // Any boundary crossing?
    let boundary = || rings.clone().flat_map(C::segments);
    if l.segments()
        .any(|(p1, p2)| boundary().any(|(q1, q2)| segments_intersect(p1, p2, q1, q2)))
    {
        return true;
    }
    // No crossing: the line is wholly inside or wholly outside; one vertex
    // decides.
    locate_in_polygon(l.point(0), rings, p_env) != PointLocation::Outside
}

/// `true` if two polygons, given as their rings shell first, share any
/// portion of space: boundary crossing or full containment of one in the
/// other.
fn polygons_intersect<A: Coords, B: Coords>(
    a: impl Iterator<Item = A> + Clone,
    a_env: &Rect,
    b: impl Iterator<Item = B> + Clone,
    b_env: &Rect,
) -> bool {
    if !a_env.intersects(b_env) {
        return false;
    }
    let (Some(a_shell), Some(b_shell)) = (a.clone().next(), b.clone().next()) else {
        return false;
    };
    let crossing = a.clone().flat_map(A::segments).any(|(p1, p2)| {
        Rect::from_corners(p1, p2).intersects(b_env)
            && b.clone()
                .flat_map(B::segments)
                .any(|(q1, q2)| segments_intersect(p1, p2, q1, q2))
    });
    // No boundary crossing: either disjoint or one contains the other.
    crossing
        || locate_in_polygon(a_shell.point(0), b, b_env) != PointLocation::Outside
        || locate_in_polygon(b_shell.point(0), a, a_env) != PointLocation::Outside
}

/// `true` if the rectangle intersects the geometry exactly (not just its
/// envelope) — used by grid-cell population when precise cell membership is
/// requested.
pub fn rect_intersects_geometry(r: &Rect, g: &Geometry) -> bool {
    rect_intersects_shape(r, g)
}

/// [`rect_intersects_geometry`] over any [`Shape`]. The rectangle is
/// tested as the closed polygon of its corners.
pub fn rect_intersects_shape(r: &Rect, g: impl Shape) -> bool {
    let g = g.form();
    if !r.intersects(&g.envelope()) {
        return false;
    }
    let (lo, hi) = (Point::new(r.min_x, r.min_y), Point::new(r.max_x, r.max_y));
    let corners = [lo, Point::new(hi.x, lo.y), hi, Point::new(lo.x, hi.y), lo];
    let (rect, rect_env) = (|| std::iter::once(&corners[..]), corners[..].envelope());
    g.any_part(|part| match part {
        Part::Point(p) => r.contains_point(p),
        Part::Line(l) => line_intersects_polygon(*l, &part.envelope(), rect(), &rect_env),
        Part::Polygon(rings) => {
            polygons_intersect(rings.clone(), &part.envelope(), rect(), &rect_env)
        }
    })
}

/// Scans the geometry's vertices for one inside the (closed) rectangle,
/// stopping at the first: `(found, vertices examined)`.
///
/// Every vertex is a point of its geometry — ring vertices, holes
/// included, lie on the polygon's boundary — so a vertex inside `r` is a
/// true hit: [`rect_intersects_geometry`] holds without running it. The
/// converse does not hold (a long segment can cross `r` with both ends
/// outside), so `false` decides nothing. Empty geometries have no vertex
/// and never hit. Works over any [`Shape`]; rings count their closing
/// vertex, stored or virtual.
pub fn rect_contains_shape_vertex(r: &Rect, g: impl Shape) -> (bool, u64) {
    let mut examined = 0u64;
    let mut inside = |p: Point| {
        examined += 1;
        r.contains_point(&p)
    };
    let found = g.form().any_part(|part| match part {
        Part::Point(p) => inside(*p),
        Part::Line(l) => l.points().any(&mut inside),
        Part::Polygon(rings) => rings.clone().flat_map(Coords::points).any(&mut inside),
    });
    (found, examined)
}

/// The symmetric `intersects` predicate over any pair of geometries.
///
/// Dispatches on both shape classes; multi-geometries distribute over their
/// members. This is the exact test invoked by the refine phase of the
/// spatial join exemplar.
pub fn intersects(a: &Geometry, b: &Geometry) -> bool {
    shapes_intersect(a, b)
}

/// [`intersects`] over any two [`Shape`]s.
pub fn shapes_intersect(a: impl Shape, b: impl Shape) -> bool {
    forms_intersect(&a.form(), &b.form())
}

/// Two parts meet directly; otherwise a multi-geometry distributes over
/// its members — the greater [`super::Multi`] kind first, `a` on a tie — each
/// tested as the *first* argument against the other side. The order
/// decides which polygon [`polygons_intersect`] walks first, which
/// matters only for a hole straying outside its shell.
fn forms_intersect<A: Shape, B: Shape>(a: &Form<A>, b: &Form<B>) -> bool {
    // MBR filter first — mirrors the library's own filter-refine discipline
    // and keeps the worst case cheap.
    let (a_env, b_env) = (a.envelope(), b.envelope());
    if !a_env.intersects(&b_env) {
        return false;
    }
    match (a, b) {
        (Form::Part(x), Form::Part(y)) => parts_intersect(x, &a_env, y, &b_env),
        (Form::Multi(ka, ma), Form::Multi(kb, _)) if ka >= kb => {
            ma.clone().any(|m| forms_intersect(&m, b))
        }
        (Form::Multi(_, ma), Form::Part(_)) => ma.clone().any(|m| forms_intersect(&m, b)),
        (_, Form::Multi(_, mb)) => mb.clone().any(|m| forms_intersect(&m, a)),
    }
}

fn parts_intersect<A: Shape, B: Shape>(x: &Part<A>, xe: &Rect, y: &Part<B>, ye: &Rect) -> bool {
    match (x, y) {
        (Part::Point(p), y) => point_in_part(*p, y),
        (x, Part::Point(q)) => point_in_part(*q, x),
        (Part::Line(a), Part::Line(b)) => lines_intersect(*a, xe, *b, ye),
        (Part::Line(l), Part::Polygon(r)) => line_intersects_polygon(*l, xe, r.clone(), ye),
        (Part::Polygon(r), Part::Line(l)) => line_intersects_polygon(*l, ye, r.clone(), xe),
        (Part::Polygon(a), Part::Polygon(b)) => polygons_intersect(a.clone(), xe, b.clone(), ye),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::{MultiPoint, MultiPolygon};
    use crate::{LineString, Polygon};

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
