//! Record parsing: the paper's flexible "collection of strings" interface.
//!
//! MPI-IO only moves unformatted bytes, so after file partitioning each
//! rank holds a text buffer of complete records. The paper's design
//! presents those records as strings and lets the user supply the parse
//! method ("a flexible interface … allowing user to define parsing method
//! that returns a GEOS geometry for each string"). [`GeometryParser`] is
//! that interface, except that the user-defined method writes bytes: each
//! record's geometry goes straight to the WKB it is shipped as
//! (`docs/FORMAT.md` §2), with its envelope, and no geometry object is built
//! on the way. [`GeometryParser::parse`] still returns a
//! [`Feature`] for callers that want one. [`WktLineParser`] and
//! [`CsvPointParser`] are the two built-ins the paper's datasets need.

use crate::exchange::RecordFrame;
use crate::partition::RECORD_DELIMITER;
use crate::{CoreError, Feature, Result};
use mvio_geom::{wkb, wkt, GeomError, Geometry, Point, Rect};
use mvio_msim::{ShapeClass, Work};
use std::ops::Range;

/// User-definable record parser: one input record → one geometry's WKB.
pub trait GeometryParser: Send + Sync {
    /// Parses one record (without its trailing delimiter): appends its
    /// geometry's WKB to `wkb` and returns the geometry's envelope and the
    /// byte range of its userdata in `record`. On error `wkb` is left as it
    /// was.
    fn transcode(&self, record: &str, wkb: &mut Vec<u8>) -> Result<(Rect, Range<usize>)>;

    /// Parses one record into a [`Feature`]: [`GeometryParser::transcode`],
    /// decoded.
    fn parse(&self, record: &str) -> Result<Feature> {
        let mut wkb = Vec::new();
        let (_, userdata) = self.transcode(record, &mut wkb)?;
        decode(&wkb, &record[userdata])
    }

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

/// A feature from the WKB a parser wrote, decoded as a received frame is.
fn decode(wkb: &[u8], userdata: &str) -> Result<Feature> {
    RecordFrame {
        cell: 0,
        wkb,
        userdata,
    }
    .to_feature()
}

/// Parses `WKT[\t userdata]` lines — the layout of the paper's OSM
/// extracts (geometry first, optional tab-separated attributes).
#[derive(Debug, Clone, Copy, Default)]
pub struct WktLineParser;

impl GeometryParser for WktLineParser {
    fn transcode(&self, record: &str, wkb: &mut Vec<u8>) -> Result<(Rect, Range<usize>)> {
        let (text, userdata) = match record.find('\t') {
            Some(idx) => (&record[..idx], idx + 1..record.len()),
            None => (record, record.len()..record.len()),
        };
        let bad = |source| CoreError::Parse {
            record: record.to_string(),
            source,
        };
        let at = wkb.len();
        let envelope = wkt::transcode(text.trim(), wkb).map_err(bad)?;
        // `f64::from_str` reads an overflowing literal ("1e999") as ±inf; a
        // single such coordinate poisons the MPI_UNION extent allreduce (and
        // the grid's cell clamping), so reject it here like every other
        // malformed record. Every coordinate reaches the envelope's min or
        // max, so a finite (or empty) envelope proves them all finite.
        if !envelope.is_empty() && !envelope.to_array().iter().all(|v| v.is_finite()) {
            wkb.truncate(at);
            return Err(bad(GeomError::Invalid("non-finite coordinate".to_string())));
        }
        Ok((envelope, userdata))
    }
}

/// Parses `x,y[,userdata]` CSV point records (the New York Taxi style the
/// paper lists among vector formats).
#[derive(Debug, Clone, Copy, Default)]
pub struct CsvPointParser;

impl GeometryParser for CsvPointParser {
    fn transcode(&self, record: &str, wkb: &mut Vec<u8>) -> Result<(Rect, Range<usize>)> {
        let mut parts = record.splitn(3, ',');
        let bad = |msg: &str| CoreError::Parse {
            record: record.to_string(),
            source: GeomError::Invalid(msg.to_string()),
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
        let point = Point::new(x, y);
        wkb::encode_to(&Geometry::Point(point), wkb);
        // The userdata runs to the end of the record.
        let userdata = record.len() - parts.next().unwrap_or("").trim_start().len();
        Ok((point.envelope(), userdata..record.len()))
    }

    fn shape_class(&self, _record: &str) -> ShapeClass {
        ShapeClass::Point
    }
}

/// The non-blank records of a buffer cut on [`RECORD_DELIMITER`], with
/// trailing `\r` stripped — the record stream every parse path iterates.
pub fn records(text: &str) -> impl Iterator<Item = &str> {
    text.split(char::from(RECORD_DELIMITER))
        .map(|r| r.trim_end_matches('\r'))
        .filter(|r| !r.trim().is_empty())
}

/// Parsed records, back to back: each record's geometry as WKB, its
/// userdata, and its geometry's envelope. What the pipeline's parse stage
/// fills, chunk after chunk, and what its partition stage sizes and copies
/// replicas from — no geometry object in between.
#[derive(Debug, Default)]
pub(crate) struct Records {
    wkb: Vec<u8>,
    userdata: String,
    /// Where record `i`'s WKB and userdata end; both start where record
    /// `i - 1`'s end.
    ends: Vec<(usize, usize)>,
    envelopes: Vec<Rect>,
    /// Record bytes parsed, delimiters included.
    pub(crate) text_bytes: u64,
}

impl Records {
    /// Transcodes every record of `text` with `parser` and appends it,
    /// reporting each record's work to `charge`: the calibrated parse of
    /// its text by shape class, then the copy of the WKB it wrote. The one
    /// per-record rule behind the pipeline's parse stage and its
    /// sequential reference. On error the records before the bad one stay.
    pub(crate) fn parse(
        &mut self,
        text: &str,
        parser: &dyn GeometryParser,
        mut charge: impl FnMut(Work),
    ) -> Result<()> {
        for record in records(text) {
            let at = self.wkb.len();
            let (envelope, userdata) = parser.transcode(record, &mut self.wkb)?;
            let bytes = record.len() as u64 + 1;
            let class = parser.shape_class(record);
            charge(Work::ParseWkt { bytes, class });
            charge(Work::CopyBytes {
                n: (self.wkb.len() - at) as u64,
            });
            self.text_bytes += bytes;
            self.push(envelope, &record[userdata]);
        }
        Ok(())
    }

    /// Closes the record whose WKB was just written.
    fn push(&mut self, envelope: Rect, userdata: &str) {
        self.userdata.push_str(userdata);
        self.ends.push((self.wkb.len(), self.userdata.len()));
        self.envelopes.push(envelope);
    }

    /// Number of records.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// The records' envelopes, in order.
    pub(crate) fn envelopes(&self) -> &[Rect] {
        &self.envelopes
    }

    /// Record `i`'s WKB and userdata.
    pub(crate) fn get(&self, i: usize) -> (&[u8], &str) {
        let (wkb, ud) = if i == 0 { (0, 0) } else { self.ends[i - 1] };
        let (wkb_end, ud_end) = self.ends[i];
        (&self.wkb[wkb..wkb_end], &self.userdata[ud..ud_end])
    }

    /// The records as features, decoded.
    pub(crate) fn to_features(&self) -> Result<Vec<Feature>> {
        (0..self.len())
            .map(|i| {
                let (wkb, userdata) = self.get(i);
                decode(wkb, userdata)
            })
            .collect()
    }
}

/// Sequential (single-rank) parse helper for oracles and tests: the
/// pipeline's parse without a communicator.
pub fn parse_buffer_serial(text: &str, parser: &dyn GeometryParser) -> Result<Vec<Feature>> {
    let mut records = Records::default();
    records.parse(text, parser, |_| {})?;
    records.to_features()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mvio_msim::{Comm, Topology, World, WorldConfig};

    /// Parses every newline-delimited record in `text`, charging the
    /// rank's clock per record as the pipeline's parse stage does
    /// ([`Records::parse`]), in order: the sequential charge the
    /// pipeline's one-worker parse stage is held to. Blank records are
    /// skipped.
    pub(crate) fn parse_buffer(
        comm: &mut Comm,
        text: &str,
        parser: &dyn GeometryParser,
    ) -> Result<Vec<Feature>> {
        let mut records = Records::default();
        records.parse(text, parser, |work| comm.charge(work))?;
        records.to_features()
    }

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
            "POINT (1e999 2)",
            "MULTIPOINT ((1 1), (-1e999 2))\tuserdata",
            "GEOMETRYCOLLECTION (POINT EMPTY, MULTIPOINT (0 1e999))",
        ] {
            let err = WktLineParser.parse(bad);
            assert!(matches!(err, Err(CoreError::Parse { .. })), "{bad}");
        }
        for bad in ["NaN,2", "1,inf", "-inf,0,tag", "1,-NaN"] {
            assert!(CsvPointParser.parse(bad).is_err(), "{bad}");
        }
        let mut wkb = vec![7];
        assert!(WktLineParser
            .transcode("POINT (1e999 2)", &mut wkb)
            .is_err());
        assert_eq!(wkb, [7], "a rejected record appends nothing");
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
