//! # mvio-geom — geometry engine for MPI-Vector-IO
//!
//! A from-scratch Rust substitute for the subset of the GEOS C++ library that
//! the MPI-Vector-IO paper (Puri et al., ICPP 2018) relies on:
//!
//! * vector geometry types defined by the OGC Simple Features model:
//!   [`Point`], [`LineString`], [`Polygon`], [`MultiPoint`],
//!   [`MultiLineString`], [`MultiPolygon`], unified under [`Geometry`];
//! * minimum bounding rectangles ([`Rect`]) with union/intersection, the
//!   primitive behind the paper's `MPI_RECT` datatype and `MPI_UNION`
//!   reduction operator;
//! * a Well-Known Text parser and writer ([`wkt`]) — the formatted input
//!   format the paper's I/O layer partitions and parses;
//! * Well-Known Binary encode/decode ([`wkb`]) — the unformatted binary
//!   representation used for fixed-record experiments;
//! * computational-geometry predicates ([`algo`]): orientation, segment
//!   intersection, point-in-polygon and exact `intersects`, which implement
//!   the *refine* half of the filter-and-refine strategy;
//! * the spatial index ([`index`]): an STR bulk-loaded R-tree, used for
//!   the *filter* half and for grid-cell lookup;
//! * zero-copy borrowed geometry views ([`wkb::GeomRef`], decoded by
//!   [`wkb::decode_ref`] straight over wire buffers) and the batched
//!   filter/refine kernels that run over them ([`refkernel`]).
//!
//! The crate is dependency-free (std only) and fully deterministic, so every
//! higher layer of the reproduction can be tested bit-for-bit.
//!
//! ## Quick example
//!
//! ```
//! use mvio_geom::{wkt, Geometry, Rect};
//!
//! let poly = wkt::parse("POLYGON ((30 10, 40 40, 20 40, 30 10))").unwrap();
//! let line = wkt::parse("LINESTRING (25 5, 35 45)").unwrap();
//! assert!(poly.envelope().intersects(&line.envelope())); // filter
//! assert!(mvio_geom::algo::intersects(&poly, &line));    // refine
//! ```

pub mod algo;
pub mod curve;
pub mod geometry;
pub mod index;
pub mod linestring;
pub mod multi;
pub mod point;
pub mod polygon;
pub mod rect;
pub mod refkernel;
pub mod wkb;
pub mod wkt;

pub use geometry::{Geometry, GeometryType};
pub use linestring::LineString;
pub use multi::{GeometryCollection, MultiLineString, MultiPoint, MultiPolygon};
pub use point::Point;
pub use polygon::Polygon;
pub use rect::Rect;

/// Errors produced while parsing or decoding geometry representations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeomError {
    /// WKT input was malformed. Carries a human-readable description and the
    /// byte offset at which the problem was detected.
    Wkt { msg: String, offset: usize },
    /// WKB input was malformed or truncated.
    Wkb(String),
    /// A geometry violated a structural invariant (e.g. an unclosed polygon
    /// ring, or a linestring with fewer than two points).
    Invalid(String),
}

impl std::fmt::Display for GeomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeomError::Wkt { msg, offset } => write!(f, "WKT parse error at byte {offset}: {msg}"),
            GeomError::Wkb(msg) => write!(f, "WKB decode error: {msg}"),
            GeomError::Invalid(msg) => write!(f, "invalid geometry: {msg}"),
        }
    }
}

impl std::error::Error for GeomError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, GeomError>;
