//! WKT writer producing canonical OGC output.

use crate::geometry::Geometry;
use crate::point::Point;
use crate::polygon::Polygon;

/// Serializes a geometry to a WKT `String`.
///
/// Coordinates are written with Rust's shortest round-trip `f64` formatting,
/// so `parse(write(g)) == g` exactly.
pub fn write(g: &Geometry) -> String {
    let mut out = String::with_capacity(32 + g.num_points() * 12);
    write_to(g, &mut out);
    out
}

/// Serializes a geometry, appending to an existing buffer (the writer used
/// by the dataset generators, which stream millions of geometries).
pub fn write_to(g: &Geometry, out: &mut String) {
    match g {
        Geometry::Point(p) => {
            out.push_str("POINT (");
            push_coord(out, p);
            out.push(')');
        }
        Geometry::LineString(l) => {
            out.push_str("LINESTRING ");
            push_coord_list(out, l.points());
        }
        Geometry::Polygon(p) => {
            out.push_str("POLYGON ");
            push_polygon_body(out, p);
        }
        Geometry::MultiPoint(m) => {
            if m.0.is_empty() {
                out.push_str("MULTIPOINT EMPTY");
                return;
            }
            out.push_str("MULTIPOINT (");
            for (i, p) in m.0.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push('(');
                push_coord(out, p);
                out.push(')');
            }
            out.push(')');
        }
        Geometry::MultiLineString(m) => {
            if m.0.is_empty() {
                out.push_str("MULTILINESTRING EMPTY");
                return;
            }
            out.push_str("MULTILINESTRING (");
            for (i, l) in m.0.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                push_coord_list(out, l.points());
            }
            out.push(')');
        }
        Geometry::MultiPolygon(m) => {
            if m.0.is_empty() {
                out.push_str("MULTIPOLYGON EMPTY");
                return;
            }
            out.push_str("MULTIPOLYGON (");
            for (i, p) in m.0.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                push_polygon_body(out, p);
            }
            out.push(')');
        }
        Geometry::GeometryCollection(c) => {
            if c.0.is_empty() {
                out.push_str("GEOMETRYCOLLECTION EMPTY");
                return;
            }
            out.push_str("GEOMETRYCOLLECTION (");
            for (i, g) in c.0.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_to(g, out);
            }
            out.push(')');
        }
    }
}

fn push_coord(out: &mut String, p: &Point) {
    push_f64(out, p.x);
    out.push(' ');
    push_f64(out, p.y);
}

fn push_f64(out: &mut String, v: f64) {
    use std::fmt::Write;
    // audit: `write!` to a String is infallible.
    write!(out, "{v}").expect("writing to String cannot fail");
}

fn push_coord_list(out: &mut String, pts: &[Point]) {
    out.push('(');
    for (i, p) in pts.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_coord(out, p);
    }
    out.push(')');
}

fn push_polygon_body(out: &mut String, p: &Polygon) {
    out.push('(');
    push_coord_list(out, p.exterior().points());
    for hole in p.interiors() {
        out.push_str(", ");
        push_coord_list(out, hole.points());
    }
    out.push(')');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::{GeometryCollection, MultiLineString, MultiPoint, MultiPolygon};
    use crate::wkt::parse;

    fn round_trip(s: &str) {
        let g = parse(s).unwrap();
        let w = write(&g);
        let g2 = parse(&w).unwrap();
        assert_eq!(g, g2, "round trip failed for {s} -> {w}");
    }

    #[test]
    fn round_trips_all_types() {
        round_trip("POINT (30 10)");
        round_trip("LINESTRING (30 10, 10 30, 40 40)");
        round_trip("POLYGON ((30 10, 40 40, 20 40, 30 10))");
        round_trip("POLYGON ((35 10, 45 45, 15 40, 10 20, 35 10), (20 30, 35 35, 30 20, 20 30))");
        round_trip("MULTIPOINT ((10 40), (40 30))");
        round_trip("MULTILINESTRING ((10 10, 20 20), (40 40, 30 30))");
        round_trip("MULTIPOLYGON (((30 20, 45 40, 10 40, 30 20)))");
        round_trip("GEOMETRYCOLLECTION (POINT (40 10), LINESTRING (10 10, 20 20))");
    }

    #[test]
    fn canonical_point_output() {
        let g = parse("point( 30   10 )").unwrap();
        assert_eq!(write(&g), "POINT (30 10)");
    }

    #[test]
    fn fractional_coordinates_round_trip_exactly() {
        let g = Geometry::Point(crate::Point::new(0.1 + 0.2, -1.0 / 3.0));
        let w = write(&g);
        assert_eq!(parse(&w).unwrap(), g);
    }

    #[test]
    fn empty_multis_write_empty_keyword() {
        assert_eq!(
            write(&Geometry::MultiPoint(MultiPoint(vec![]))),
            "MULTIPOINT EMPTY"
        );
        assert_eq!(
            write(&Geometry::MultiLineString(MultiLineString(vec![]))),
            "MULTILINESTRING EMPTY"
        );
        assert_eq!(
            write(&Geometry::MultiPolygon(MultiPolygon(vec![]))),
            "MULTIPOLYGON EMPTY"
        );
        assert_eq!(
            write(&Geometry::GeometryCollection(GeometryCollection(vec![]))),
            "GEOMETRYCOLLECTION EMPTY"
        );
    }
}
