//! Polygon type with exterior shell and interior holes.

use crate::point::Point;
use crate::rect::Rect;
use crate::{GeomError, Result};

/// A closed ring of a polygon: a sequence of at least four points where the
/// first and last coincide (the WKT closing convention).
#[derive(Debug, Clone, PartialEq)]
pub struct Ring {
    points: Vec<Point>,
}

impl Ring {
    /// Creates a ring, validating closure and minimum size.
    pub fn new(mut points: Vec<Point>) -> Result<Self> {
        // Tolerate unclosed input by closing it, as GEOS's WKT reader does
        // for common real-world data, but still require 3 distinct vertices.
        let open = points.first() != points.last();
        let non_finite = points.iter().find(|p| !p.is_finite());
        check_ring(non_finite, points.len() + usize::from(open))?;
        if let (true, Some(&first)) = (open, points.first()) {
            points.push(first);
        }
        Ok(Ring { points })
    }

    /// The closed vertex list (first == last).
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Number of stored vertices, including the repeated closing vertex.
    #[inline]
    pub fn num_points(&self) -> usize {
        self.points.len()
    }

    /// Iterator over ring edges.
    pub fn segments(&self) -> impl Iterator<Item = (Point, Point)> + '_ {
        self.points.windows(2).map(|w| (w[0], w[1]))
    }

    /// Signed area by the shoelace formula: positive for counter-clockwise
    /// rings, negative for clockwise.
    fn signed_area(&self) -> f64 {
        let mut acc = 0.0;
        for (a, b) in self.segments() {
            acc += a.x * b.y - b.x * a.y;
        }
        acc * 0.5
    }

    /// Minimum bounding rectangle of the ring.
    pub fn envelope(&self) -> Rect {
        Rect::from_points(&self.points)
    }
}

/// [`Ring::new`]'s checks, in its order, on the first non-finite point and
/// the point count once closed: shared by every reader that never holds
/// the points (the WKB views and the WKT transcoder).
pub(crate) fn check_ring(non_finite: Option<&Point>, closed_len: usize) -> Result<()> {
    if let Some(p) = non_finite {
        return Err(GeomError::Invalid(format!("non-finite coordinate {p}")));
    }
    if closed_len < 4 {
        return Err(GeomError::Invalid(format!(
            "polygon ring needs >= 4 points (closed), got {closed_len}"
        )));
    }
    Ok(())
}

/// A polygon: one exterior ring plus zero or more interior rings (holes).
///
/// Polygons are the dominant shape class in the paper's datasets ("All
/// Objects", "Lakes", "Cemetery") and the reason file partitioning is hard:
/// a single OSM polygon can exceed 100 K vertices / 11 MB of WKT.
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    exterior: Ring,
    interiors: Vec<Ring>,
}

impl Polygon {
    /// Creates a polygon from a validated exterior ring and holes.
    pub fn new(exterior: Ring, interiors: Vec<Ring>) -> Self {
        Polygon {
            exterior,
            interiors,
        }
    }

    /// Convenience constructor from raw coordinate vectors.
    pub fn from_coords(exterior: Vec<Point>, interiors: Vec<Vec<Point>>) -> Result<Self> {
        let ext = Ring::new(exterior)?;
        let ints = interiors
            .into_iter()
            .map(Ring::new)
            .collect::<Result<Vec<_>>>()?;
        Ok(Polygon::new(ext, ints))
    }

    /// The exterior shell.
    #[inline]
    pub fn exterior(&self) -> &Ring {
        &self.exterior
    }

    /// The interior holes.
    #[inline]
    pub fn interiors(&self) -> &[Ring] {
        &self.interiors
    }

    /// Total vertex count across all rings (the paper's per-geometry work
    /// measure for parsing and refine costs).
    pub fn num_points(&self) -> usize {
        self.exterior.num_points() + self.interiors.iter().map(Ring::num_points).sum::<usize>()
    }

    /// Area of the shell minus the holes (absolute value).
    pub fn area(&self) -> f64 {
        let shell = self.exterior.signed_area().abs();
        let holes: f64 = self.interiors.iter().map(|r| r.signed_area().abs()).sum();
        (shell - holes).max(0.0)
    }

    /// Minimum bounding rectangle (holes cannot extend it).
    pub fn envelope(&self) -> Rect {
        self.exterior.envelope()
    }
}

impl std::fmt::Display for Polygon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "POLYGON ({} rings, {} points)",
            1 + self.interiors.len(),
            self.num_points()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[(f64, f64)]) -> Vec<Point> {
        coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    /// Unit square, counter-clockwise, closed.
    fn unit_square() -> Polygon {
        Polygon::from_coords(
            pts(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)]),
            vec![],
        )
        .unwrap()
    }

    #[test]
    fn ring_rejects_too_few_points() {
        assert!(Ring::new(pts(&[(0.0, 0.0), (1.0, 0.0)])).is_err());
        assert!(Ring::new(pts(&[])).is_err());
    }

    #[test]
    fn ring_auto_closes_open_input() {
        let r = Ring::new(pts(&[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])).unwrap();
        assert_eq!(r.num_points(), 4);
        assert_eq!(r.points().first(), r.points().last());
    }

    #[test]
    fn signed_area_sign_tracks_winding() {
        let ccw = Ring::new(pts(&[
            (0.0, 0.0),
            (1.0, 0.0),
            (1.0, 1.0),
            (0.0, 1.0),
            (0.0, 0.0),
        ]))
        .unwrap();
        assert_eq!(ccw.signed_area(), 1.0);
        let cw = Ring::new(pts(&[
            (0.0, 0.0),
            (0.0, 1.0),
            (1.0, 1.0),
            (1.0, 0.0),
            (0.0, 0.0),
        ]))
        .unwrap();
        assert_eq!(cw.signed_area(), -1.0);
    }

    #[test]
    fn polygon_area_subtracts_holes() {
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
        assert!((p.area() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn envelope_is_shell_envelope() {
        let p = unit_square();
        assert_eq!(p.envelope(), Rect::new(0.0, 0.0, 1.0, 1.0));
    }

    #[test]
    fn num_points_counts_all_rings() {
        let hole = pts(&[(0.25, 0.25), (0.75, 0.25), (0.5, 0.75), (0.25, 0.25)]);
        let p = Polygon::from_coords(
            pts(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)]),
            vec![hole],
        )
        .unwrap();
        assert_eq!(p.num_points(), 5 + 4);
        let rings = std::iter::once(p.exterior()).chain(p.interiors());
        assert_eq!(rings.flat_map(|r| r.segments()).count(), 4 + 3);
    }

    #[test]
    fn triangle_area() {
        let p = Polygon::from_coords(
            pts(&[(30.0, 10.0), (40.0, 40.0), (20.0, 40.0), (30.0, 10.0)]),
            vec![],
        )
        .unwrap();
        // Base 20 (from x=20 to x=40 at y=40), height 30.
        assert_eq!(p.area(), 300.0);
    }
}
