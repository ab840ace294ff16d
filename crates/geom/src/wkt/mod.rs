//! Well-Known Text (WKT) reading and writing.
//!
//! WKT is the formatted text representation the paper's I/O layer
//! partitions, reads and parses (e.g. `POLYGON ((30 10, 40 40, 20 40,
//! 30 10))`). The parser is a hand-written recursive-descent parser over a
//! byte cursor — no regex, no allocation beyond its output — since parsing
//! throughput is part of the evaluation (Table 3, Figure 14). Its one
//! grammar has two outputs: [`parse`] builds a [`crate::Geometry`], and
//! [`transcode`] writes the geometry's WKB straight from the text, which is
//! what the ingest front half ships.

mod parse;
mod transcode;
mod write;

pub use parse::parse;
pub use transcode::transcode;
pub use write::{write, write_to};

#[cfg(test)]
mod tests {
    //! Round-trip tests across the parse/write pair as a whole: writing
    //! is a fixed point (`write ∘ parse ∘ write = write`) and parsing
    //! recovers the exact geometry for every OGC type this crate models.

    use super::{parse, write};

    /// parse → write → parse must reproduce the geometry exactly, and a
    /// second write must reproduce the first text exactly (fixed point).
    fn assert_round_trip(input: &str) {
        let g = parse(input).unwrap_or_else(|e| panic!("parse {input:?}: {e:?}"));
        let text = write(&g);
        let g2 = parse(&text).unwrap_or_else(|e| panic!("reparse {text:?}: {e:?}"));
        assert_eq!(g, g2, "geometry changed across round trip of {input:?}");
        assert_eq!(write(&g2), text, "writer not a fixed point for {input:?}");
    }

    #[test]
    fn every_geometry_kind_round_trips() {
        for s in [
            "POINT (30 10)",
            "LINESTRING (30 10, 10 30, 40 40)",
            "POLYGON ((30 10, 40 40, 20 40, 10 20, 30 10))",
            "POLYGON ((35 10, 45 45, 15 40, 10 20, 35 10), (20 30, 35 35, 30 20, 20 30))",
            "MULTIPOINT (10 40, 40 30, 20 20, 30 10)",
            "MULTILINESTRING ((10 10, 20 20, 10 40), (40 40, 30 30, 40 20, 30 10))",
            "MULTIPOLYGON (((30 20, 45 40, 10 40, 30 20)), ((15 5, 40 10, 10 20, 5 10, 15 5)))",
            "GEOMETRYCOLLECTION (POINT (40 10), LINESTRING (10 10, 20 20, 10 40))",
        ] {
            assert_round_trip(s);
        }
    }

    #[test]
    fn empty_geometries_round_trip() {
        for s in [
            "POINT EMPTY",
            "LINESTRING EMPTY",
            "POLYGON EMPTY",
            "MULTIPOINT EMPTY",
            "MULTILINESTRING EMPTY",
            "MULTIPOLYGON EMPTY",
            "GEOMETRYCOLLECTION EMPTY",
        ] {
            assert_round_trip(s);
        }
    }

    #[test]
    fn awkward_coordinates_round_trip() {
        // Negative, fractional, high-precision and very large magnitudes:
        // the writer must emit a shortest representation that reparses to
        // bit-identical doubles.
        for s in [
            "POINT (-0.25 1e-9)",
            "POINT (179.99999999 -89.99999999)",
            "LINESTRING (-1.5 -2.5, 0 0, 1234567890.125 -0.000001)",
            "POLYGON ((0.1 0.1, 0.30000000000000004 0.1, 0.2 0.9, 0.1 0.1))",
        ] {
            assert_round_trip(s);
        }
    }
}
