//! Polyline (`LINESTRING`) type.

use crate::point::Point;
use crate::rect::Rect;
use crate::{GeomError, Result};

/// An ordered sequence of at least two points forming a polyline.
///
/// Road-network edges in the paper's 137 GB "Road Network" dataset are
/// linestrings; they are the variable-length line counterpart of
/// variable-length polygons.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LineString {
    points: Vec<Point>,
}

impl LineString {
    /// Creates a linestring, validating that it has at least two points and
    /// only finite coordinates.
    pub fn new(points: Vec<Point>) -> Result<Self> {
        check(points.len(), points.iter().find(|p| !p.is_finite()))?;
        Ok(LineString { points })
    }

    /// The vertices of the polyline.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Number of vertices.
    #[inline]
    pub fn num_points(&self) -> usize {
        self.points.len()
    }

    /// Iterator over the consecutive segments `(points[i], points[i+1])`.
    pub fn segments(&self) -> impl Iterator<Item = (Point, Point)> + '_ {
        self.points.windows(2).map(|w| (w[0], w[1]))
    }

    /// Total Euclidean length.
    pub fn length(&self) -> f64 {
        self.segments().map(|(a, b)| a.distance(&b)).sum()
    }

    /// Minimum bounding rectangle.
    pub fn envelope(&self) -> Rect {
        Rect::from_points(&self.points)
    }
}

/// [`LineString::new`]'s checks, in its order, on the point count and the
/// first non-finite point: shared by every reader that never holds the
/// points (the WKB views and the WKT transcoder).
pub(crate) fn check(len: usize, non_finite: Option<&Point>) -> Result<()> {
    if len < 2 {
        return Err(GeomError::Invalid(format!(
            "LINESTRING needs >= 2 points, got {len}"
        )));
    }
    match non_finite {
        Some(p) => Err(GeomError::Invalid(format!("non-finite coordinate {p}"))),
        None => Ok(()),
    }
}

impl std::fmt::Display for LineString {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LINESTRING ({} points)", self.points.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ls(coords: &[(f64, f64)]) -> LineString {
        LineString::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    #[test]
    fn rejects_fewer_than_two_points() {
        assert!(LineString::new(vec![]).is_err());
        assert!(LineString::new(vec![Point::new(0.0, 0.0)]).is_err());
        assert!(LineString::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)]).is_ok());
    }

    #[test]
    fn rejects_non_finite_coordinates() {
        let e = LineString::new(vec![Point::new(0.0, 0.0), Point::new(f64::NAN, 1.0)]);
        assert!(matches!(e, Err(GeomError::Invalid(_))));
    }

    #[test]
    fn length_sums_segments() {
        let l = ls(&[(0.0, 0.0), (3.0, 4.0), (3.0, 8.0)]);
        assert_eq!(l.length(), 5.0 + 4.0);
    }

    #[test]
    fn segments_iterates_windows() {
        let l = ls(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]);
        let segs: Vec<_> = l.segments().collect();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0], (Point::new(0.0, 0.0), Point::new(1.0, 0.0)));
        assert_eq!(segs[1], (Point::new(1.0, 0.0), Point::new(1.0, 1.0)));
    }

    #[test]
    fn envelope_covers_all_vertices() {
        let l = ls(&[(0.0, 5.0), (-2.0, 1.0), (7.0, 3.0)]);
        assert_eq!(l.envelope(), Rect::new(-2.0, 1.0, 7.0, 5.0));
    }
}
