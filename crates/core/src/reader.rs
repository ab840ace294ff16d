//! Record parsing: the paper's flexible "collection of strings" interface.
//!
//! MPI-IO only moves unformatted bytes, so after file partitioning each
//! rank holds a text buffer of complete records. The paper's design
//! presents those records as strings and lets the user supply the parse
//! method ("a flexible interface … allowing user to define parsing method
//! that returns a GEOS geometry for each string"). [`GeometryParser`] is
//! that interface; [`WktLineParser`] and [`CsvPointParser`] are the two
//! built-ins the paper's datasets need.

use crate::{CoreError, Feature, Result};
use mvio_geom::{wkt, Geometry, Point};
use mvio_msim::ShapeClass;

/// User-definable record parser: one input record → one [`Feature`].
pub trait GeometryParser: Send + Sync {
    /// Parses one record (without its trailing delimiter).
    fn parse(&self, record: &str) -> Result<Feature>;

    /// Shape class used for cost accounting of this record. The default
    /// sniffs the WKT keyword; fixed-format parsers override it.
    fn shape_class(&self, record: &str) -> ShapeClass {
        let t = record.trim_start().as_bytes();
        let kw_len = t
            .iter()
            .position(|b| !b.is_ascii_alphabetic())
            .unwrap_or(t.len());
        let kw = &t[..kw_len];
        if kw.eq_ignore_ascii_case(b"POINT") || kw.eq_ignore_ascii_case(b"MULTIPOINT") {
            ShapeClass::Point
        } else if kw.eq_ignore_ascii_case(b"LINESTRING")
            || kw.eq_ignore_ascii_case(b"MULTILINESTRING")
        {
            ShapeClass::Line
        } else {
            ShapeClass::Polygon
        }
    }
}

/// Parses `WKT[\t userdata]` lines — the layout of the paper's OSM
/// extracts (geometry first, optional tab-separated attributes).
#[derive(Debug, Clone, Copy, Default)]
pub struct WktLineParser;

impl GeometryParser for WktLineParser {
    fn parse(&self, record: &str) -> Result<Feature> {
        let (wkt_part, userdata) = match record.find('\t') {
            Some(idx) => (&record[..idx], &record[idx + 1..]),
            None => (record, ""),
        };
        let geometry = wkt::parse(wkt_part.trim()).map_err(|source| CoreError::Parse {
            record: record.to_string(),
            source,
        })?;
        // `f64::from_str` happily produces NaN/inf from "NaN"/"inf"
        // tokens; a single such coordinate poisons the MPI_UNION extent
        // allreduce (NaN comparisons) and the grid's cell clamping, so
        // reject it here like every other malformed record.
        if !geometry_is_finite(&geometry) {
            return Err(CoreError::Parse {
                record: record.to_string(),
                source: mvio_geom::GeomError::Invalid("non-finite coordinate".to_string()),
            });
        }
        Ok(Feature::with_userdata(geometry, userdata))
    }
}

/// True when every coordinate of `g` is finite. Linestrings and rings
/// already validate finiteness in their constructors; bare points (and
/// points nested in multis/collections) are the remaining hole.
fn geometry_is_finite(g: &Geometry) -> bool {
    match g {
        Geometry::Point(p) => p.is_finite(),
        Geometry::MultiPoint(mp) => mp.0.iter().all(Point::is_finite),
        Geometry::GeometryCollection(gc) => gc.0.iter().all(geometry_is_finite),
        _ => true,
    }
}

/// Parses `x,y[,userdata]` CSV point records (the New York Taxi style the
/// paper lists among vector formats).
#[derive(Debug, Clone, Copy, Default)]
pub struct CsvPointParser;

impl GeometryParser for CsvPointParser {
    fn parse(&self, record: &str) -> Result<Feature> {
        let mut parts = record.splitn(3, ',');
        let bad = |msg: &str| CoreError::Parse {
            record: record.to_string(),
            source: mvio_geom::GeomError::Invalid(msg.to_string()),
        };
        let x: f64 = parts
            .next()
            .ok_or_else(|| bad("missing x"))?
            .trim()
            .parse()
            .map_err(|_| bad("bad x"))?;
        let y: f64 = parts
            .next()
            .ok_or_else(|| bad("missing y"))?
            .trim()
            .parse()
            .map_err(|_| bad("bad y"))?;
        if !x.is_finite() || !y.is_finite() {
            return Err(bad("non-finite coordinate"));
        }
        let userdata = parts.next().unwrap_or("").trim_start().to_string();
        Ok(Feature {
            geometry: Geometry::Point(Point::new(x, y)),
            userdata,
        })
    }

    fn shape_class(&self, _record: &str) -> ShapeClass {
        ShapeClass::Point
    }
}

/// The non-blank records of a newline-delimited buffer, with trailing
/// `\r` stripped — the record stream every parse path iterates.
pub fn records(text: &str) -> impl Iterator<Item = &str> {
    text.split('\n')
        .map(|r| r.trim_end_matches('\r'))
        .filter(|r| !r.trim().is_empty())
}

/// Streaming parse core: appends every record of `text` to the reusable
/// `out` buffer, reporting each record's `(bytes, shape class)` to
/// `charge` before parsing it. The ingest pipeline's worker threads
/// charge a [`mvio_msim::WorkTally`] through it. Returns the number of
/// records appended.
pub fn parse_records_into(
    text: &str,
    parser: &dyn GeometryParser,
    mut charge: impl FnMut(u64, ShapeClass),
    out: &mut Vec<Feature>,
) -> Result<u64> {
    let mut n = 0u64;
    for record in records(text) {
        charge(record.len() as u64 + 1, parser.shape_class(record));
        out.push(parser.parse(record)?);
        n += 1;
    }
    Ok(n)
}

/// Parses every newline-delimited record in `text`, charging the rank's
/// clock the calibrated per-byte parse cost by shape class, record by
/// record: the sequential charge the pipeline's one-worker parse stage is
/// held to. Blank records are skipped.
/// Not collective — local parsing; the communicator only charges the
/// clock.
#[cfg(test)]
pub(crate) fn parse_buffer(
    comm: &mut mvio_msim::Comm,
    text: &str,
    parser: &dyn GeometryParser,
) -> Result<Vec<Feature>> {
    let mut out = Vec::new();
    let mut charge = |bytes, class| comm.charge(mvio_msim::Work::ParseWkt { bytes, class });
    parse_records_into(text, parser, &mut charge, &mut out)?;
    Ok(out)
}

/// Sequential (single-rank) parse helper for oracles and tests: the
/// pipeline's parse without a communicator.
pub fn parse_buffer_serial(text: &str, parser: &dyn GeometryParser) -> Result<Vec<Feature>> {
    let mut out = Vec::new();
    parse_records_into(text, parser, |_, _| {}, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvio_msim::{Topology, World, WorldConfig};

    #[test]
    fn wkt_line_parser_extracts_userdata() {
        let f = WktLineParser.parse("POINT (1 2)\tname=lake;id=7").unwrap();
        assert_eq!(f.geometry, Geometry::Point(Point::new(1.0, 2.0)));
        assert_eq!(f.userdata, "name=lake;id=7");
        let f2 = WktLineParser.parse("POINT (3 4)").unwrap();
        assert_eq!(f2.userdata, "");
    }

    #[test]
    fn wkt_line_parser_reports_bad_records() {
        let err = WktLineParser.parse("POLYGON ((oops))").unwrap_err();
        assert!(matches!(err, CoreError::Parse { .. }));
    }

    #[test]
    fn csv_point_parser() {
        let f = CsvPointParser.parse("1.5, -2.25, pickup").unwrap();
        assert_eq!(f.geometry, Geometry::Point(Point::new(1.5, -2.25)));
        assert_eq!(f.userdata, "pickup");
        assert!(CsvPointParser.parse("1.5").is_err());
        assert!(CsvPointParser.parse("a,b").is_err());
    }

    #[test]
    fn parsers_reject_non_finite_coordinates() {
        // `f64::from_str` accepts NaN/inf spellings, which would poison
        // the MPI_UNION extent allreduce and grid clamping downstream.
        for bad in [
            "POINT (NaN 2)",
            "POINT (1 inf)",
            "POINT (-inf 0)\tuserdata",
            "MULTIPOINT ((1 1), (NaN 2))",
        ] {
            let err = WktLineParser.parse(bad);
            assert!(matches!(err, Err(CoreError::Parse { .. })), "{bad}");
        }
        for bad in ["NaN,2", "1,inf", "-inf,0,tag", "1,-NaN"] {
            assert!(CsvPointParser.parse(bad).is_err(), "{bad}");
        }
        // Finite scientific notation must still parse.
        assert!(CsvPointParser.parse("1e3,-2.5e-2").is_ok());
        assert!(WktLineParser.parse("POINT (1e3 -2.5e-2)").is_ok());
    }

    #[test]
    fn shape_class_sniffing() {
        let p = WktLineParser;
        assert_eq!(p.shape_class("POINT (1 2)"), ShapeClass::Point);
        assert_eq!(p.shape_class("  linestring (0 0, 1 1)"), ShapeClass::Line);
        assert_eq!(
            p.shape_class("POLYGON ((0 0, 1 0, 0 1, 0 0))"),
            ShapeClass::Polygon
        );
        assert_eq!(
            p.shape_class("MULTIPOLYGON (((0 0, 1 0, 0 1, 0 0)))"),
            ShapeClass::Polygon
        );
    }

    #[test]
    fn parse_buffer_charges_time_and_skips_blanks() {
        let text = "POINT (1 2)\n\nPOINT (3 4)\n";
        let out = World::run(WorldConfig::new(Topology::single_node(1)), |comm| {
            let before = comm.now();
            let feats = parse_buffer(comm, text, &WktLineParser).unwrap();
            (feats.len(), comm.now() - before)
        });
        assert_eq!(out[0].0, 2);
        assert!(out[0].1 > 0.0);
    }

    #[test]
    fn serial_matches_parallel_results() {
        let text = "POINT (1 2)\nLINESTRING (0 0, 5 5)\n";
        let serial = parse_buffer_serial(text, &WktLineParser).unwrap();
        let parallel = World::run(WorldConfig::new(Topology::single_node(1)), |comm| {
            parse_buffer(comm, text, &WktLineParser).unwrap()
        });
        assert_eq!(serial, parallel[0]);
    }
}
