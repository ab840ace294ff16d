//! The unified [`Geometry`] enum dispatching over all OGC shape classes.

use crate::linestring::LineString;
use crate::multi::{GeometryCollection, MultiLineString, MultiPoint, MultiPolygon};
use crate::point::Point;
use crate::polygon::Polygon;
use crate::rect::Rect;

/// Discriminant of a [`Geometry`], matching the OGC Simple Features type
/// codes used by WKB (1 = Point, 2 = LineString, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GeometryType {
    Point = 1,
    LineString = 2,
    Polygon = 3,
    MultiPoint = 4,
    MultiLineString = 5,
    MultiPolygon = 6,
    GeometryCollection = 7,
}

impl GeometryType {
    /// WKB type code.
    pub fn code(self) -> u32 {
        self as u32
    }

    /// Inverse of [`GeometryType::code`].
    pub fn from_code(code: u32) -> Option<GeometryType> {
        Some(match code {
            1 => GeometryType::Point,
            2 => GeometryType::LineString,
            3 => GeometryType::Polygon,
            4 => GeometryType::MultiPoint,
            5 => GeometryType::MultiLineString,
            6 => GeometryType::MultiPolygon,
            7 => GeometryType::GeometryCollection,
            _ => return None,
        })
    }

    /// WKT keyword for this type.
    pub fn wkt_keyword(self) -> &'static str {
        match self {
            GeometryType::Point => "POINT",
            GeometryType::LineString => "LINESTRING",
            GeometryType::Polygon => "POLYGON",
            GeometryType::MultiPoint => "MULTIPOINT",
            GeometryType::MultiLineString => "MULTILINESTRING",
            GeometryType::MultiPolygon => "MULTIPOLYGON",
            GeometryType::GeometryCollection => "GEOMETRYCOLLECTION",
        }
    }
}

/// Any OGC simple-feature geometry.
///
/// This is the Rust analogue of GEOS's `Geometry` base class; MPI-Vector-IO
/// moves values of this type through file partitions, grid cells, and
/// all-to-all exchanges.
#[derive(Debug, Clone, PartialEq)]
pub enum Geometry {
    Point(Point),
    LineString(LineString),
    Polygon(Polygon),
    MultiPoint(MultiPoint),
    MultiLineString(MultiLineString),
    MultiPolygon(MultiPolygon),
    GeometryCollection(GeometryCollection),
}

impl Geometry {
    /// The shape class of this geometry.
    pub fn geometry_type(&self) -> GeometryType {
        match self {
            Geometry::Point(_) => GeometryType::Point,
            Geometry::LineString(_) => GeometryType::LineString,
            Geometry::Polygon(_) => GeometryType::Polygon,
            Geometry::MultiPoint(_) => GeometryType::MultiPoint,
            Geometry::MultiLineString(_) => GeometryType::MultiLineString,
            Geometry::MultiPolygon(_) => GeometryType::MultiPolygon,
            Geometry::GeometryCollection(_) => GeometryType::GeometryCollection,
        }
    }

    /// Minimum bounding rectangle — the approximation used by the filter
    /// phase of filter-and-refine.
    pub fn envelope(&self) -> Rect {
        match self {
            Geometry::Point(p) => p.envelope(),
            Geometry::LineString(l) => l.envelope(),
            Geometry::Polygon(p) => p.envelope(),
            Geometry::MultiPoint(m) => m.envelope(),
            Geometry::MultiLineString(m) => m.envelope(),
            Geometry::MultiPolygon(m) => m.envelope(),
            Geometry::GeometryCollection(c) => c.envelope(),
        }
    }

    /// Total vertex count; the paper's unit of parsing and refine work.
    pub fn num_points(&self) -> usize {
        match self {
            Geometry::Point(_) => 1,
            Geometry::LineString(l) => l.num_points(),
            Geometry::Polygon(p) => p.num_points(),
            Geometry::MultiPoint(m) => m.num_points(),
            Geometry::MultiLineString(m) => m.num_points(),
            Geometry::MultiPolygon(m) => m.num_points(),
            Geometry::GeometryCollection(c) => c.num_points(),
        }
    }
}

impl From<Point> for Geometry {
    fn from(p: Point) -> Self {
        Geometry::Point(p)
    }
}
impl From<LineString> for Geometry {
    fn from(l: LineString) -> Self {
        Geometry::LineString(l)
    }
}
impl From<Polygon> for Geometry {
    fn from(p: Polygon) -> Self {
        Geometry::Polygon(p)
    }
}
impl From<MultiPoint> for Geometry {
    fn from(m: MultiPoint) -> Self {
        Geometry::MultiPoint(m)
    }
}
impl From<MultiLineString> for Geometry {
    fn from(m: MultiLineString) -> Self {
        Geometry::MultiLineString(m)
    }
}
impl From<MultiPolygon> for Geometry {
    fn from(m: MultiPolygon) -> Self {
        Geometry::MultiPolygon(m)
    }
}

impl std::fmt::Display for Geometry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} points)",
            self.geometry_type().wkt_keyword(),
            self.num_points()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_codes_round_trip() {
        for t in [
            GeometryType::Point,
            GeometryType::LineString,
            GeometryType::Polygon,
            GeometryType::MultiPoint,
            GeometryType::MultiLineString,
            GeometryType::MultiPolygon,
            GeometryType::GeometryCollection,
        ] {
            assert_eq!(GeometryType::from_code(t.code()), Some(t));
        }
        assert_eq!(GeometryType::from_code(0), None);
        assert_eq!(GeometryType::from_code(8), None);
    }

    #[test]
    fn dispatch_envelope_and_counts() {
        let g: Geometry = Point::new(1.0, 2.0).into();
        assert_eq!(g.geometry_type(), GeometryType::Point);
        assert_eq!(g.num_points(), 1);
        assert_eq!(g.envelope(), Rect::new(1.0, 2.0, 1.0, 2.0));
    }

    #[test]
    fn polygon_is_not_lineal() {
        let p = Polygon::from_coords(
            vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(0.0, 1.0),
                Point::new(0.0, 0.0),
            ],
            vec![],
        )
        .unwrap();
        let g: Geometry = p.into();
        assert_eq!(g.geometry_type().wkt_keyword(), "POLYGON");
    }
}
