//! Well-Known Binary (WKB) encoding and decoding.
//!
//! WKB is the unformatted binary counterpart of WKT (paper §2: "Its binary
//! equivalent, known as Well-Known Binary, is used to transfer and store the
//! geometries in spatial databases"). The library uses it for serializing
//! geometries into all-to-all communication buffers and for the binary-file
//! experiments.
//!
//! Layout per geometry: 1 byte byte-order marker (we always write 1 =
//! little-endian and accept either), 4 byte type code, then type-specific
//! payload of u32 counts and f64 coordinates. Readers refuse collections
//! nested deeper than [`MAX_NESTING`] levels.

use crate::algo::{Coords, Part, Shape};
use crate::geometry::{Geometry, GeometryType};
use crate::linestring::LineString;
use crate::multi::{GeometryCollection, MultiLineString, MultiPoint, MultiPolygon};
use crate::point::Point;
use crate::polygon::{Polygon, Ring};
use crate::rect::Rect;
use crate::{GeomError, Result};

/// Encodes a geometry to little-endian WKB, appending to `out`.
pub fn encode_to(g: &Geometry, out: &mut Vec<u8>) {
    out.push(1); // little-endian
    put_u32(out, g.geometry_type().code());
    match g {
        Geometry::Point(p) => put_point(out, p),
        Geometry::LineString(l) => put_coords(out, l.points()),
        Geometry::Polygon(p) => put_polygon_body(out, p),
        Geometry::MultiPoint(m) => {
            put_u32(out, m.0.len() as u32);
            for p in &m.0 {
                encode_to(&Geometry::Point(*p), out);
            }
        }
        Geometry::MultiLineString(m) => {
            put_u32(out, m.0.len() as u32);
            for l in &m.0 {
                out.push(1);
                put_u32(out, GeometryType::LineString.code());
                put_coords(out, l.points());
            }
        }
        Geometry::MultiPolygon(m) => {
            put_u32(out, m.0.len() as u32);
            for p in &m.0 {
                out.push(1);
                put_u32(out, GeometryType::Polygon.code());
                put_polygon_body(out, p);
            }
        }
        Geometry::GeometryCollection(c) => {
            put_u32(out, c.0.len() as u32);
            for g in &c.0 {
                encode_to(g, out);
            }
        }
    }
}

/// Encodes a geometry to a fresh WKB buffer.
pub fn encode(g: &Geometry) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(g));
    encode_to(g, &mut out);
    out
}

/// Encodes a geometry into a caller-owned scratch buffer: clears it,
/// reserves the exact [`encoded_len`] footprint, then encodes. Hot
/// serialization loops reuse one scratch across millions of geometries
/// instead of allocating (and dropping) a fresh [`encode`] `Vec` each
/// time; the single-call shape keeps the whole traversal compiled as one
/// unit here, where the capacity reasoning lives.
pub fn encode_into_scratch(g: &Geometry, scratch: &mut Vec<u8>) {
    scratch.clear();
    scratch.reserve(encoded_len(g));
    encode_to(g, scratch);
}

/// Exact byte length [`encode_to`] will append for `g`, computed without
/// allocating. Hot serialization paths (the exchange wire format) use
/// this as a size pre-pass: reserve once, encode straight into the
/// destination buffer, no per-geometry intermediate `Vec`.
pub fn encoded_len(g: &Geometry) -> usize {
    // 1 byte-order byte + 4 type-code bytes precede every geometry.
    5 + match g {
        Geometry::Point(_) => 16,
        Geometry::LineString(l) => 4 + 16 * l.points().len(),
        Geometry::Polygon(p) => polygon_body_len(p),
        Geometry::MultiPoint(m) => 4 + m.0.len() * 21,
        Geometry::MultiLineString(m) => {
            4 + m
                .0
                .iter()
                .map(|l| 5 + 4 + 16 * l.points().len())
                .sum::<usize>()
        }
        Geometry::MultiPolygon(m) => 4 + m.0.iter().map(|p| 5 + polygon_body_len(p)).sum::<usize>(),
        Geometry::GeometryCollection(c) => 4 + c.0.iter().map(encoded_len).sum::<usize>(),
    }
}

#[inline]
fn polygon_body_len(p: &crate::polygon::Polygon) -> usize {
    let ring = |r: &Ring| 4 + 16 * r.points().len();
    4 + ring(p.exterior()) + p.interiors().iter().map(ring).sum::<usize>()
}

/// Decodes one geometry from the front of `buf`, returning it and the
/// number of bytes consumed.
pub fn decode(buf: &[u8]) -> Result<(Geometry, usize)> {
    let mut cur = Cursor {
        buf,
        pos: 0,
        depth: 0,
    };
    let g = cur.geometry()?;
    Ok((g, cur.pos))
}

/// Decodes a back-to-back sequence of WKB geometries until `buf` is
/// exhausted.
pub fn decode_all(buf: &[u8]) -> Result<Vec<Geometry>> {
    let mut out = Vec::new();
    let mut cur = Cursor {
        buf,
        pos: 0,
        depth: 0,
    };
    while cur.pos < buf.len() {
        out.push(cur.geometry()?);
    }
    Ok(out)
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_point(out: &mut Vec<u8>, p: &Point) {
    put_f64(out, p.x);
    put_f64(out, p.y);
}

fn put_coords(out: &mut Vec<u8>, pts: &[Point]) {
    put_u32(out, pts.len() as u32);
    for p in pts {
        put_point(out, p);
    }
}

fn put_polygon_body(out: &mut Vec<u8>, p: &Polygon) {
    put_u32(out, 1 + p.interiors().len() as u32);
    put_coords(out, p.exterior().points());
    for hole in p.interiors() {
        put_coords(out, hole.points());
    }
}

/// How deep collections may nest: a member of a top-level multi-type or
/// collection is at depth 1. Deeper input is rejected as corrupt, so no
/// byte sequence can exhaust a reader's stack (`docs/FORMAT.md` §2).
pub const MAX_NESTING: usize = 64;

/// Bytes of the shortest nested value — byte-order marker, type code and
/// one `u32` count — which bounds how many members the rest of a buffer
/// can hold.
const MIN_VALUE_LEN: usize = 9;

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Collection nesting depth of the value being read.
    depth: usize,
}

impl<'a> Cursor<'a> {
    fn need(&self, n: usize) -> Result<()> {
        if self.pos + n > self.buf.len() {
            Err(GeomError::Wkb(format!(
                "truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )))
        } else {
            Ok(())
        }
    }

    fn u8(&mut self) -> Result<u8> {
        self.need(1)?;
        let v = self.buf[self.pos];
        self.pos += 1;
        Ok(v)
    }

    fn u32(&mut self, big_endian: bool) -> Result<u32> {
        self.need(4)?;
        // audit: `need` bounds-checked; the range is exactly 4 bytes.
        let bytes: [u8; 4] = self.buf[self.pos..self.pos + 4].try_into().unwrap();
        self.pos += 4;
        Ok(if big_endian {
            u32::from_be_bytes(bytes)
        } else {
            u32::from_le_bytes(bytes)
        })
    }

    fn f64(&mut self, big_endian: bool) -> Result<f64> {
        self.need(8)?;
        // audit: `need` bounds-checked; the range is exactly 8 bytes.
        let bytes: [u8; 8] = self.buf[self.pos..self.pos + 8].try_into().unwrap();
        self.pos += 8;
        Ok(if big_endian {
            f64::from_be_bytes(bytes)
        } else {
            f64::from_le_bytes(bytes)
        })
    }

    fn point(&mut self, be: bool) -> Result<Point> {
        Ok(Point::new(self.f64(be)?, self.f64(be)?))
    }

    /// Reads one member of a multi-type or collection with `member`
    /// ([`Cursor::geometry`] or [`Cursor::geometry_ref`]) one nesting
    /// level down, refusing to go past [`MAX_NESTING`].
    fn nested<T>(&mut self, member: fn(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth == MAX_NESTING {
            return Err(GeomError::Wkb(format!(
                "collections nested deeper than {MAX_NESTING} levels"
            )));
        }
        self.depth += 1;
        let out = member(self);
        self.depth -= 1;
        out
    }

    /// Capacity to reserve for `n` members: never more than the rest of
    /// the buffer could hold, however large the count read from it.
    fn members_capacity(&self, n: usize) -> usize {
        n.min((self.buf.len() - self.pos) / MIN_VALUE_LEN)
    }

    fn coords(&mut self, be: bool) -> Result<Vec<Point>> {
        let n = self.u32(be)? as usize;
        // Defensive cap: a count that implies reading past the buffer is
        // corrupt, not a huge geometry.
        if n > (self.buf.len() - self.pos) / 16 + 1 {
            return Err(GeomError::Wkb(format!(
                "coordinate count {n} exceeds buffer"
            )));
        }
        let mut pts = Vec::with_capacity(n);
        for _ in 0..n {
            pts.push(self.point(be)?);
        }
        Ok(pts)
    }

    fn geometry(&mut self) -> Result<Geometry> {
        let order = self.u8()?;
        let be = match order {
            0 => true,
            1 => false,
            other => return Err(GeomError::Wkb(format!("bad byte-order marker {other}"))),
        };
        let code = self.u32(be)?;
        let ty = GeometryType::from_code(code)
            .ok_or_else(|| GeomError::Wkb(format!("unknown geometry type code {code}")))?;
        match ty {
            GeometryType::Point => Ok(Geometry::Point(self.point(be)?)),
            GeometryType::LineString => {
                Ok(Geometry::LineString(LineString::new(self.coords(be)?)?))
            }
            GeometryType::Polygon => Ok(Geometry::Polygon(self.polygon_body(be)?)),
            GeometryType::MultiPoint => {
                let n = self.u32(be)? as usize;
                let mut pts = Vec::with_capacity(self.members_capacity(n));
                for _ in 0..n {
                    match self.nested(Self::geometry)? {
                        Geometry::Point(p) => pts.push(p),
                        other => {
                            return Err(GeomError::Wkb(format!(
                                "MULTIPOINT member is {:?}",
                                other.geometry_type()
                            )))
                        }
                    }
                }
                Ok(Geometry::MultiPoint(MultiPoint(pts)))
            }
            GeometryType::MultiLineString => {
                let n = self.u32(be)? as usize;
                let mut lines = Vec::with_capacity(self.members_capacity(n));
                for _ in 0..n {
                    match self.nested(Self::geometry)? {
                        Geometry::LineString(l) => lines.push(l),
                        other => {
                            return Err(GeomError::Wkb(format!(
                                "MULTILINESTRING member is {:?}",
                                other.geometry_type()
                            )))
                        }
                    }
                }
                Ok(Geometry::MultiLineString(MultiLineString(lines)))
            }
            GeometryType::MultiPolygon => {
                let n = self.u32(be)? as usize;
                let mut polys = Vec::with_capacity(self.members_capacity(n));
                for _ in 0..n {
                    match self.nested(Self::geometry)? {
                        Geometry::Polygon(p) => polys.push(p),
                        other => {
                            return Err(GeomError::Wkb(format!(
                                "MULTIPOLYGON member is {:?}",
                                other.geometry_type()
                            )))
                        }
                    }
                }
                Ok(Geometry::MultiPolygon(MultiPolygon(polys)))
            }
            GeometryType::GeometryCollection => {
                let n = self.u32(be)? as usize;
                let mut members = Vec::with_capacity(self.members_capacity(n));
                for _ in 0..n {
                    members.push(self.nested(Self::geometry)?);
                }
                Ok(Geometry::GeometryCollection(GeometryCollection(members)))
            }
        }
    }

    fn polygon_body(&mut self, be: bool) -> Result<Polygon> {
        let nrings = self.u32(be)? as usize;
        if nrings == 0 {
            return Err(GeomError::Wkb("polygon with zero rings".into()));
        }
        let ext = Ring::new(self.coords(be)?)?;
        // A ring takes at least its 4-byte count: bound the allocation by
        // what the buffer can still hold, not by a count read from it.
        let mut holes = Vec::with_capacity((nrings - 1).min((self.buf.len() - self.pos) / 4));
        for _ in 1..nrings {
            holes.push(Ring::new(self.coords(be)?)?);
        }
        Ok(Polygon::new(ext, holes))
    }

    /// Walks one coordinate sequence without materializing it, performing
    /// exactly the checks of [`Cursor::coords`] (count cap, per-value
    /// truncation) and recording what the owned constructors would later
    /// check: the first non-finite point and the first/last points (for
    /// ring-closure semantics).
    fn coords_ref(&mut self, be: bool) -> Result<RawCoords<'a>> {
        // audit: u32 → usize is lossless on every supported target.
        let n = self.u32(be)? as usize;
        // Defensive cap: a count that implies reading past the buffer is
        // corrupt, not a huge geometry.
        if n > (self.buf.len() - self.pos) / 16 + 1 {
            return Err(GeomError::Wkb(format!(
                "coordinate count {n} exceeds buffer"
            )));
        }
        let start = self.pos;
        if n * 16 > self.buf.len() - start {
            // Truncated run (the cap admits counts one point past the
            // end): re-walk point by point so the error names the exact
            // offset [`Cursor::f64`] reports on the owned path.
            for _ in 0..n {
                self.point(be)?;
            }
            return Err(GeomError::Wkb(
                "unreachable: short coordinate run survived re-walk".into(),
            ));
        }
        let data = &self.buf[start..start + n * 16];
        self.pos += n * 16;
        // Hot path: the whole run was bounds-checked once above, so the
        // finiteness sweep is a branch-light pass over the raw values —
        // no per-read cursor bookkeeping, which is where the owned
        // decoder spends its time besides allocating.
        let mut all_finite = true;
        if be {
            for c in data.chunks_exact(8) {
                // audit: chunks_exact yields exactly 8 bytes.
                let v = f64::from_be_bytes(c.try_into().expect("8-byte chunk"));
                all_finite &= v.is_finite();
            }
        } else {
            for c in data.chunks_exact(8) {
                // audit: chunks_exact yields exactly 8 bytes.
                let v = f64::from_le_bytes(c.try_into().expect("8-byte chunk"));
                all_finite &= v.is_finite();
            }
        }
        let mut first_nonfinite = None;
        if !all_finite {
            // Cold: name the first offending *point* for the diagnostic,
            // exactly as the sequential walk would.
            for i in 0..n {
                let p = Point::new(f64_at(data, i * 16, be), f64_at(data, i * 16 + 8, be));
                if !p.is_finite() {
                    first_nonfinite = Some(p);
                    break;
                }
            }
        }
        let (first, last) = if n > 0 {
            (
                Some(Point::new(f64_at(data, 0, be), f64_at(data, 8, be))),
                Some(Point::new(
                    f64_at(data, (n - 1) * 16, be),
                    f64_at(data, (n - 1) * 16 + 8, be),
                )),
            )
        } else {
            (None, None)
        };
        Ok(RawCoords {
            n,
            data,
            first_nonfinite,
            first,
            last,
        })
    }

    /// Validates one ring with exactly `Ring::new`'s checks in `Ring::new`'s
    /// order: finiteness first, then virtual closure (the view repeats the
    /// first point instead of pushing a copy), then the closed length.
    fn ring_ref(&mut self, be: bool) -> Result<()> {
        let c = self.coords_ref(be)?;
        if let Some(p) = c.first_nonfinite {
            return Err(GeomError::Invalid(format!("non-finite coordinate {p}")));
        }
        let closed_len = if c.first != c.last { c.n + 1 } else { c.n };
        if closed_len < 4 {
            return Err(GeomError::Invalid(format!(
                "polygon ring needs >= 4 points (closed), got {closed_len}"
            )));
        }
        Ok(())
    }

    fn polygon_body_ref(&mut self, be: bool) -> Result<PolygonRef<'a>> {
        let nrings = self.u32(be)? as usize;
        if nrings == 0 {
            return Err(GeomError::Wkb("polygon with zero rings".into()));
        }
        let start = self.pos;
        for _ in 0..nrings {
            self.ring_ref(be)?;
        }
        Ok(PolygonRef {
            body: &self.buf[start..self.pos],
            nrings,
            be,
        })
    }

    /// Validates the `n` nested members of a Multi*/collection body,
    /// enforcing the member type when `expect` names one, and returns the
    /// borrowed body view.
    fn multi_ref(
        &mut self,
        be: bool,
        expect: Option<(GeometryType, &str)>,
    ) -> Result<MultiRef<'a>> {
        let n = self.u32(be)? as usize;
        let start = self.pos;
        for _ in 0..n {
            let g = self.nested(Self::geometry_ref)?;
            if let Some((ty, kw)) = expect {
                if g.geometry_type() != ty {
                    return Err(GeomError::Wkb(format!(
                        "{kw} member is {:?}",
                        g.geometry_type()
                    )));
                }
            }
        }
        Ok(MultiRef {
            body: &self.buf[start..self.pos],
            n,
        })
    }

    /// The borrowed twin of [`Cursor::geometry`]: same markers, same
    /// bounds checks, same semantic constraints (via [`Cursor::ring_ref`]
    /// and the inline `LINESTRING` checks), same errors in the same order
    /// — but nothing is materialized.
    fn geometry_ref(&mut self) -> Result<GeomRef<'a>> {
        let order = self.u8()?;
        let be = match order {
            0 => true,
            1 => false,
            other => return Err(GeomError::Wkb(format!("bad byte-order marker {other}"))),
        };
        let code = self.u32(be)?;
        let ty = GeometryType::from_code(code)
            .ok_or_else(|| GeomError::Wkb(format!("unknown geometry type code {code}")))?;
        match ty {
            GeometryType::Point => {
                let start = self.pos;
                self.f64(be)?;
                self.f64(be)?;
                Ok(GeomRef::Point(PointRef {
                    data: &self.buf[start..self.pos],
                    be,
                }))
            }
            GeometryType::LineString => {
                let c = self.coords_ref(be)?;
                // `LineString::new`'s checks, in its order: length first,
                // then finiteness.
                if c.n < 2 {
                    return Err(GeomError::Invalid(format!(
                        "LINESTRING needs >= 2 points, got {}",
                        c.n
                    )));
                }
                if let Some(p) = c.first_nonfinite {
                    return Err(GeomError::Invalid(format!("non-finite coordinate {p}")));
                }
                Ok(GeomRef::LineString(LineStringRef {
                    coords: CoordsRef {
                        data: c.data,
                        be,
                        closing: false,
                    },
                }))
            }
            GeometryType::Polygon => Ok(GeomRef::Polygon(self.polygon_body_ref(be)?)),
            GeometryType::MultiPoint => self
                .multi_ref(be, Some((GeometryType::Point, "MULTIPOINT")))
                .map(GeomRef::MultiPoint),
            GeometryType::MultiLineString => self
                .multi_ref(be, Some((GeometryType::LineString, "MULTILINESTRING")))
                .map(GeomRef::MultiLineString),
            GeometryType::MultiPolygon => self
                .multi_ref(be, Some((GeometryType::Polygon, "MULTIPOLYGON")))
                .map(GeomRef::MultiPolygon),
            GeometryType::GeometryCollection => {
                self.multi_ref(be, None).map(GeomRef::GeometryCollection)
            }
        }
    }
}

/// What [`Cursor::coords_ref`] learned while walking one coordinate
/// sequence in place.
struct RawCoords<'a> {
    /// Stored (wire) point count.
    n: usize,
    /// The `16 · n` coordinate bytes.
    data: &'a [u8],
    /// First point failing [`Point::is_finite`], if any.
    first_nonfinite: Option<Point>,
    first: Option<Point>,
    last: Option<Point>,
}

/// Reads the `f64` at `data[at..at + 8]` in the given byte order. Private
/// helper of the borrowed views; every caller stays inside a region the
/// validating [`decode_ref`] pass already bounds-checked.
#[inline]
fn f64_at(data: &[u8], at: usize, be: bool) -> f64 {
    // audit: callers index inside regions validated by `decode_ref`.
    let bytes: [u8; 8] = data[at..at + 8].try_into().expect("8-byte slice");
    if be {
        f64::from_be_bytes(bytes)
    } else {
        f64::from_le_bytes(bytes)
    }
}

/// Reads the `u32` at `data[at..at + 4]` in the given byte order (same
/// validated-region contract as [`f64_at`]).
#[inline]
fn u32_at(data: &[u8], at: usize, be: bool) -> u32 {
    // audit: callers index inside regions validated by `decode_ref`.
    let bytes: [u8; 4] = data[at..at + 4].try_into().expect("4-byte slice");
    if be {
        u32::from_be_bytes(bytes)
    } else {
        u32::from_le_bytes(bytes)
    }
}

/// Decodes one geometry from the front of `buf` as a borrowed zero-copy
/// view, returning it and the number of bytes consumed.
///
/// Performs exactly the checks of [`decode`] — truncation, byte-order and
/// type markers, coordinate-count caps, member types, the
/// [`MAX_NESTING`] depth of collections, and the semantic
/// constraints the owned constructors enforce (`LINESTRING` length and
/// finiteness, ring finiteness/closure/length) — in the same order, with
/// the same errors. But nothing is allocated: coordinates stay in `buf`
/// and are read in place via unaligned `f64` loads on access, and an
/// unclosed polygon ring gets a *virtual* closing vertex instead of the
/// pushed copy [`Ring::new`] makes, so the views agree point-for-point
/// with the owned decode.
pub fn decode_ref(buf: &[u8]) -> Result<(GeomRef<'_>, usize)> {
    let mut cur = Cursor {
        buf,
        pos: 0,
        depth: 0,
    };
    let g = cur.geometry_ref()?;
    Ok((g, cur.pos))
}

/// Borrowed zero-copy view of one WKB geometry, produced by
/// [`decode_ref`]. `Copy` and pointer-sized-ish: cloning a view never
/// touches the heap. Construction sites outside this module go through
/// [`decode_ref`], so every view is fully validated — accessors index
/// infallibly.
#[derive(Debug, Clone, Copy)]
pub enum GeomRef<'a> {
    /// A single point (16 coordinate bytes).
    Point(PointRef<'a>),
    /// A polyline over a flat coordinate slice.
    LineString(LineStringRef<'a>),
    /// A polygon: lazily iterated rings over the raw body bytes.
    Polygon(PolygonRef<'a>),
    /// Multi-point body; members iterate as nested [`GeomRef::Point`]s.
    MultiPoint(MultiRef<'a>),
    /// Multi-linestring body.
    MultiLineString(MultiRef<'a>),
    /// Multi-polygon body.
    MultiPolygon(MultiRef<'a>),
    /// Heterogeneous collection body.
    GeometryCollection(MultiRef<'a>),
}

impl<'a> GeomRef<'a> {
    /// The view's geometry type (matches what [`decode`] would return).
    pub fn geometry_type(&self) -> GeometryType {
        match self {
            GeomRef::Point(_) => GeometryType::Point,
            GeomRef::LineString(_) => GeometryType::LineString,
            GeomRef::Polygon(_) => GeometryType::Polygon,
            GeomRef::MultiPoint(_) => GeometryType::MultiPoint,
            GeomRef::MultiLineString(_) => GeometryType::MultiLineString,
            GeomRef::MultiPolygon(_) => GeometryType::MultiPolygon,
            GeomRef::GeometryCollection(_) => GeometryType::GeometryCollection,
        }
    }

    /// Minimum bounding rectangle, equal (under `==`) to
    /// [`Geometry::envelope`] of the owned decode: the union of its parts'
    /// (a polygon's is its shell's); [`Rect::EMPTY`] without parts.
    pub fn envelope(&self) -> Rect {
        self.form().envelope()
    }

    /// Total vertex count, equal to [`Geometry::num_points`] of the owned
    /// decode — ring counts include the (possibly virtual) closing vertex.
    pub fn num_points(&self) -> usize {
        match self {
            GeomRef::Point(_) => 1,
            GeomRef::LineString(l) => l.num_points(),
            GeomRef::Polygon(p) => p.num_points(),
            GeomRef::MultiPoint(m) => m.len(),
            GeomRef::MultiLineString(m)
            | GeomRef::MultiPolygon(m)
            | GeomRef::GeometryCollection(m) => m.members().map(|g| g.num_points()).sum(),
        }
    }

    /// Builds the owned [`Geometry`] this view describes — equal to what
    /// [`decode`] returns for the same bytes. The exact predicates read
    /// views directly ([`crate::algo::Shape`]); this is for callers that
    /// keep an owned copy.
    pub fn to_geometry(&self) -> Geometry {
        // With the virtual closing vertex, every ring is built as `decode` does.
        let points = |c: CoordsRef<'_>| c.points().collect::<Vec<_>>();
        // audit: decode_ref already ran the owned constructors' checks.
        let line = |c: CoordsRef<'_>| LineString::new(points(c)).expect("valid line");
        let polygon = |mut rings: RingIter<'_>| {
            let shell = rings.next().map(points).unwrap_or_default();
            // audit: decode_ref already ran the owned constructors' checks.
            Polygon::from_coords(shell, rings.map(points).collect()).expect("valid polygon")
        };
        match self {
            GeomRef::Point(p) => Geometry::Point(p.point()),
            GeomRef::LineString(l) => line(l.coords()).into(),
            GeomRef::Polygon(p) => polygon(p.rings()).into(),
            GeomRef::GeometryCollection(c) => Geometry::GeometryCollection(GeometryCollection(
                c.members().map(|g| g.to_geometry()).collect(),
            )),
            multi => {
                // decode_ref enforced the member types: the parts are the members.
                let (mut pts, mut lines, mut polys) = (Vec::new(), Vec::new(), Vec::new());
                multi.form().for_each_part(|part| match part {
                    Part::Point(p) => pts.push(*p),
                    Part::Line(c) => lines.push(line(*c)),
                    Part::Polygon(rings) => polys.push(polygon(rings.clone())),
                });
                match multi {
                    GeomRef::MultiPoint(_) => MultiPoint(pts).into(),
                    GeomRef::MultiLineString(_) => MultiLineString(lines).into(),
                    _ => MultiPolygon(polys).into(),
                }
            }
        }
    }
}

/// Two views are equal exactly when their owned decodes are (the derived
/// [`Geometry`] equality): same type and structure, and every logical
/// coordinate — virtual closing vertices included — equal as an `f64`.
/// So `-0.0` equals `0.0`, a big-endian encoding equals its little-endian
/// twin, an unclosed wire ring equals its closed spelling, and a `NaN`
/// coordinate equals nothing. Nothing is allocated.
impl PartialEq for GeomRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        fn members_eq(a: &MultiRef<'_>, b: &MultiRef<'_>) -> bool {
            a.len() == b.len() && a.members().zip(b.members()).all(|(x, y)| x == y)
        }
        match (self, other) {
            (GeomRef::Point(a), GeomRef::Point(b)) => a.point() == b.point(),
            (GeomRef::LineString(a), GeomRef::LineString(b)) => a.coords() == b.coords(),
            (GeomRef::Polygon(a), GeomRef::Polygon(b)) => {
                a.num_rings() == b.num_rings() && a.rings().zip(b.rings()).all(|(x, y)| x == y)
            }
            (GeomRef::MultiPoint(a), GeomRef::MultiPoint(b))
            | (GeomRef::MultiLineString(a), GeomRef::MultiLineString(b))
            | (GeomRef::MultiPolygon(a), GeomRef::MultiPolygon(b))
            | (GeomRef::GeometryCollection(a), GeomRef::GeometryCollection(b)) => members_eq(a, b),
            _ => false,
        }
    }
}

/// Borrowed view of a point's 16 coordinate bytes.
#[derive(Debug, Clone, Copy)]
pub struct PointRef<'a> {
    data: &'a [u8],
    be: bool,
}

impl PointRef<'_> {
    /// The x coordinate, read in place.
    #[inline]
    pub fn x(&self) -> f64 {
        f64_at(self.data, 0, self.be)
    }

    /// The y coordinate, read in place.
    #[inline]
    pub fn y(&self) -> f64 {
        f64_at(self.data, 8, self.be)
    }

    /// The decoded point.
    #[inline]
    pub fn point(&self) -> Point {
        Point::new(self.x(), self.y())
    }
}

/// Borrowed flat coordinate sequence: stored wire points of 16 bytes
/// each, plus — for unclosed polygon rings — one *virtual* closing vertex
/// repeating the first point, mirroring the copy [`Ring::new`] pushes.
#[derive(Debug, Clone, Copy)]
pub struct CoordsRef<'a> {
    data: &'a [u8],
    be: bool,
    closing: bool,
}

impl CoordsRef<'_> {
    /// The point stored in the 16 bytes `c`.
    #[inline]
    fn read(&self, c: &[u8]) -> Point {
        // audit: callers pass 16-byte chunks of the validated coordinates.
        let c: &[u8; 16] = c.try_into().expect("16-byte point");
        Point::new(f64_at(c, 0, self.be), f64_at(c, 8, self.be))
    }
}

/// The logical points, read in place: the stored ones, then the virtual
/// closing vertex when present, mirroring [`Ring::points`].
impl Coords for CoordsRef<'_> {
    /// Includes the virtual closing vertex: the owned ring's stored length.
    fn num_points(self) -> usize {
        self.data.len() / 16 + usize::from(self.closing)
    }

    fn point(self, i: usize) -> Point {
        let at = if i == self.data.len() / 16 { 0 } else { i * 16 };
        self.read(&self.data[at..at + 16])
    }

    fn points(self) -> impl Iterator<Item = Point> {
        let closing = self.data.get(..16).filter(|_| self.closing);
        let stored = self.data.chunks_exact(16);
        stored.chain(closing).map(move |c| self.read(c))
    }

    fn segments(self) -> impl Iterator<Item = (Point, Point)> {
        let mut points = self.points();
        let mut prev = points.next().unwrap_or_default();
        points.map(move |p| (std::mem::replace(&mut prev, p), p))
    }

    /// The virtual closing vertex repeats a stored one and cannot move
    /// the MBR.
    fn envelope(self) -> Rect {
        crate::refkernel::coords_envelope(self.data, self.be)
    }
}

/// Logical-point equality, as the owned constructors' `Vec<Point>`
/// compares: same length (closing vertex included) and pointwise `==`.
impl PartialEq for CoordsRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.num_points() == other.num_points() && self.points().eq(other.points())
    }
}

/// Borrowed view of a linestring's coordinate sequence.
#[derive(Debug, Clone, Copy)]
pub struct LineStringRef<'a> {
    coords: CoordsRef<'a>,
}

impl<'a> LineStringRef<'a> {
    /// The underlying coordinate view.
    #[inline]
    pub fn coords(&self) -> CoordsRef<'a> {
        self.coords
    }

    /// Vertex count, as [`LineString::num_points`].
    #[inline]
    pub fn num_points(&self) -> usize {
        self.coords.num_points()
    }
}

/// Borrowed view of a polygon body: ring count plus the raw ring bytes,
/// iterated lazily — no per-ring `Vec` exists anywhere.
#[derive(Debug, Clone, Copy)]
pub struct PolygonRef<'a> {
    body: &'a [u8],
    nrings: usize,
    be: bool,
}

impl<'a> PolygonRef<'a> {
    /// Number of rings (exterior + holes), always ≥ 1.
    #[inline]
    pub fn num_rings(&self) -> usize {
        self.nrings
    }

    /// Iterates the rings in wire order (exterior first).
    pub fn rings(&self) -> RingIter<'a> {
        RingIter {
            body: self.body,
            pos: 0,
            left: self.nrings,
            be: self.be,
        }
    }

    /// The exterior shell's coordinates.
    pub fn exterior(&self) -> CoordsRef<'a> {
        self.rings()
            .next()
            .expect("validated polygon has >= 1 ring") // audit: decode_ref guarantees at least one ring.
    }

    /// Total vertex count across rings, closing vertices included, as
    /// [`Polygon::num_points`].
    pub fn num_points(&self) -> usize {
        self.rings().map(Coords::num_points).sum()
    }
}

/// Lazy ring iterator over a validated polygon body.
#[derive(Debug, Clone)]
pub struct RingIter<'a> {
    body: &'a [u8],
    pos: usize,
    left: usize,
    be: bool,
}

impl<'a> Iterator for RingIter<'a> {
    type Item = CoordsRef<'a>;

    fn next(&mut self) -> Option<CoordsRef<'a>> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        // audit: u32 → usize is lossless on every supported target.
        let n = u32_at(self.body, self.pos, self.be) as usize;
        let start = self.pos + 4;
        let data = &self.body[start..start + n * 16];
        self.pos = start + n * 16;
        Some(ring_coords(data, self.be))
    }
}

/// Wraps a validated ring's stored coordinates, computing whether the
/// view needs the virtual closing vertex ([`Ring::new`] pushes a copy of
/// the first point when the wire sequence is unclosed under `Point`
/// equality; the view repeats it virtually instead).
fn ring_coords(data: &[u8], be: bool) -> CoordsRef<'_> {
    let n = data.len() / 16;
    let closing = n > 0 && {
        let first = Point::new(f64_at(data, 0, be), f64_at(data, 8, be));
        let last = Point::new(
            f64_at(data, (n - 1) * 16, be),
            f64_at(data, (n - 1) * 16 + 8, be),
        );
        first != last
    };
    CoordsRef { data, be, closing }
}

/// Borrowed view of a Multi*/collection body: `n` members, each a full
/// nested WKB geometry, re-walked lazily over the validated bytes.
#[derive(Debug, Clone, Copy)]
pub struct MultiRef<'a> {
    body: &'a [u8],
    n: usize,
}

impl<'a> MultiRef<'a> {
    /// Member count.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the body holds no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Iterates the member views in wire order.
    pub fn members(&self) -> MemberIter<'a> {
        MemberIter {
            rest: self.body,
            left: self.n,
        }
    }
}

/// Lazy member iterator over a validated Multi*/collection body.
#[derive(Debug, Clone)]
pub struct MemberIter<'a> {
    rest: &'a [u8],
    left: usize,
}

impl<'a> Iterator for MemberIter<'a> {
    type Item = GeomRef<'a>;

    fn next(&mut self) -> Option<GeomRef<'a>> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        // audit: the member bytes were validated by the enclosing decode_ref.
        let (g, used) = decode_ref(self.rest).expect("validated multi member");
        self.rest = &self.rest[used..];
        Some(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wkt;

    fn round_trip(s: &str) {
        let g = wkt::parse(s).unwrap();
        let bytes = encode(&g);
        let (g2, used) = decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(g, g2, "WKB round trip failed for {s}");
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
    fn encoded_len_matches_actual_encoding() {
        for s in [
            "POINT (30 10)",
            "LINESTRING (30 10, 10 30, 40 40)",
            "POLYGON ((30 10, 40 40, 20 40, 30 10))",
            "POLYGON ((35 10, 45 45, 15 40, 10 20, 35 10), (20 30, 35 35, 30 20, 20 30))",
            "MULTIPOINT ((10 40), (40 30))",
            "MULTILINESTRING ((10 10, 20 20), (40 40, 30 30))",
            "MULTIPOLYGON (((30 20, 45 40, 10 40, 30 20)))",
            "GEOMETRYCOLLECTION (POINT (40 10), LINESTRING (10 10, 20 20))",
        ] {
            let g = wkt::parse(s).unwrap();
            assert_eq!(encoded_len(&g), encode(&g).len(), "{s}");
        }
    }

    #[test]
    fn point_wkb_is_21_bytes() {
        // 1 (order) + 4 (type) + 16 (coords): the classic WKB point size.
        let g = wkt::parse("POINT (1 2)").unwrap();
        assert_eq!(encode(&g).len(), 21);
    }

    #[test]
    fn decode_all_handles_concatenated_stream() {
        let g1 = wkt::parse("POINT (1 2)").unwrap();
        let g2 = wkt::parse("LINESTRING (0 0, 5 5)").unwrap();
        let mut buf = encode(&g1);
        buf.extend_from_slice(&encode(&g2));
        let all = decode_all(&buf).unwrap();
        assert_eq!(all, vec![g1, g2]);
    }

    #[test]
    fn rejects_truncated_input() {
        let g = wkt::parse("POLYGON ((30 10, 40 40, 20 40, 30 10))").unwrap();
        let bytes = encode(&g);
        for cut in [0, 1, 4, 8, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn rejects_bad_markers() {
        assert!(decode(&[7, 1, 0, 0, 0]).is_err()); // bad byte order
        assert!(decode(&[1, 99, 0, 0, 0]).is_err()); // bad type code
    }

    #[test]
    fn rejects_absurd_counts() {
        // LINESTRING claiming u32::MAX points in a tiny buffer.
        let mut buf = vec![1u8];
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&buf).is_err());
    }

    #[test]
    fn accepts_big_endian_input() {
        // Hand-build a big-endian POINT (1 2).
        let mut buf = vec![0u8];
        buf.extend_from_slice(&1u32.to_be_bytes());
        buf.extend_from_slice(&1.0f64.to_be_bytes());
        buf.extend_from_slice(&2.0f64.to_be_bytes());
        let (g, _) = decode(&buf).unwrap();
        assert_eq!(g, Geometry::Point(Point::new(1.0, 2.0)));
    }

    /// Both decoders over the same bytes: same success/error verdict,
    /// same error string, and on success the view materializes the same
    /// geometry with the same consumed length, envelope and vertex count.
    fn assert_ref_parity(bytes: &[u8]) {
        match (decode(bytes), decode_ref(bytes)) {
            (Ok((owned, used)), Ok((view, used_ref))) => {
                assert_eq!(used, used_ref);
                assert_eq!(view.to_geometry(), owned);
                assert_eq!(view.geometry_type(), owned.geometry_type());
                assert_eq!(view.envelope(), owned.envelope());
                assert_eq!(view.num_points(), owned.num_points());
            }
            (Err(e_owned), Err(e_ref)) => {
                assert_eq!(e_owned, e_ref, "error divergence");
            }
            (owned, other) => panic!("verdict divergence: owned {owned:?} vs ref {other:?}"),
        }
    }

    #[test]
    fn decode_ref_matches_decode_on_all_types_and_every_truncation() {
        for s in [
            "POINT (30 10)",
            "LINESTRING (30 10, 10 30, 40 40)",
            "POLYGON ((30 10, 40 40, 20 40, 30 10))",
            "POLYGON ((35 10, 45 45, 15 40, 10 20, 35 10), (20 30, 35 35, 30 20, 20 30))",
            "MULTIPOINT ((10 40), (40 30))",
            "MULTILINESTRING ((10 10, 20 20), (40 40, 30 30))",
            "MULTIPOLYGON (((30 20, 45 40, 10 40, 30 20)))",
            "GEOMETRYCOLLECTION (POINT (40 10), LINESTRING (10 10, 20 20))",
        ] {
            let bytes = encode(&wkt::parse(s).unwrap());
            for cut in 0..=bytes.len() {
                assert_ref_parity(&bytes[..cut]);
            }
        }
    }

    #[test]
    fn decode_ref_matches_decode_on_malformed_buffers() {
        // Bad byte order, bad type code, absurd count.
        assert_ref_parity(&[7, 1, 0, 0, 0]);
        assert_ref_parity(&[1, 99, 0, 0, 0]);
        let mut absurd = vec![1u8];
        absurd.extend_from_slice(&2u32.to_le_bytes());
        absurd.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_ref_parity(&absurd);

        // Polygon with zero rings.
        let mut zero_rings = vec![1u8];
        zero_rings.extend_from_slice(&3u32.to_le_bytes());
        zero_rings.extend_from_slice(&0u32.to_le_bytes());
        assert_ref_parity(&zero_rings);

        // A ring count far past the buffer, over one good ring: a typed
        // truncation error from both, not an allocation sized by it.
        let mut huge_rings = vec![1u8];
        huge_rings.extend_from_slice(&3u32.to_le_bytes());
        huge_rings.extend_from_slice(&u32::MAX.to_le_bytes());
        huge_rings.extend_from_slice(&4u32.to_le_bytes());
        for v in [0.0f64, 0.0, 4.0, 0.0, 0.0, 4.0, 0.0, 0.0] {
            huge_rings.extend_from_slice(&v.to_le_bytes());
        }
        assert_ref_parity(&huge_rings);

        // Rings of 0..5 wire points (empty, degenerate, unclosed triangle
        // that auto-closes, closed square): both decoders must agree on
        // the `Ring::new` semantics, including the auto-close.
        for n in 0..5u32 {
            let mut buf = vec![1u8];
            buf.extend_from_slice(&3u32.to_le_bytes());
            buf.extend_from_slice(&1u32.to_le_bytes());
            buf.extend_from_slice(&n.to_le_bytes());
            for i in 0..n {
                let (x, y) = match i {
                    0 => (0.0f64, 0.0f64),
                    1 => (4.0, 0.0),
                    2 => (0.0, 4.0),
                    _ => (0.0, 0.0), // closes the ring at n = 4
                };
                buf.extend_from_slice(&x.to_le_bytes());
                buf.extend_from_slice(&y.to_le_bytes());
            }
            assert_ref_parity(&buf);
        }

        // Non-finite coordinates: a linestring and a ring carrying a NaN
        // (finiteness ordering differs between the two constructors).
        for ty in [2u32, 3] {
            let mut buf = vec![1u8];
            buf.extend_from_slice(&ty.to_le_bytes());
            if ty == 3 {
                buf.extend_from_slice(&1u32.to_le_bytes());
            }
            buf.extend_from_slice(&4u32.to_le_bytes());
            for v in [0.0f64, 0.0, f64::NAN, 1.0, 2.0, 2.0, 0.0, 0.0] {
                buf.extend_from_slice(&v.to_le_bytes());
            }
            assert_ref_parity(&buf);
        }

        // MULTIPOINT whose member is a linestring.
        let mut bad_member = vec![1u8];
        bad_member.extend_from_slice(&4u32.to_le_bytes());
        bad_member.extend_from_slice(&1u32.to_le_bytes());
        bad_member.extend_from_slice(&encode(&wkt::parse("LINESTRING (0 0, 1 1)").unwrap()));
        assert_ref_parity(&bad_member);
    }

    #[test]
    fn decode_ref_accepts_big_endian_and_concatenated_streams() {
        let mut be_buf = vec![0u8];
        be_buf.extend_from_slice(&1u32.to_be_bytes());
        be_buf.extend_from_slice(&1.0f64.to_be_bytes());
        be_buf.extend_from_slice(&2.0f64.to_be_bytes());
        assert_ref_parity(&be_buf);

        // Back-to-back stream: decode_ref consumes exactly one geometry
        // per call at the same offsets as decode.
        let g1 = wkt::parse("POINT (1 2)").unwrap();
        let g2 = wkt::parse("LINESTRING (0 0, 5 5)").unwrap();
        let mut buf = encode(&g1);
        let first_len = buf.len();
        buf.extend_from_slice(&encode(&g2));
        let (v1, used1) = decode_ref(&buf).unwrap();
        assert_eq!(used1, first_len);
        assert_eq!(v1.to_geometry(), g1);
        let (v2, used2) = decode_ref(&buf[used1..]).unwrap();
        assert_eq!(used1 + used2, buf.len());
        assert_eq!(v2.to_geometry(), g2);
    }

    #[test]
    fn view_equality_is_owned_equality() {
        // Pairwise over spellings that differ in bytes: every view pair
        // must compare as its owned decodes do.
        let mut encodings: Vec<Vec<u8>> = [
            "POINT (0 10)",
            "POINT (-0 10)",
            "POINT (0 11)",
            "LINESTRING (0 0, 2 2, 4 0)",
            "LINESTRING (0 0, 2 2)",
            "POLYGON ((0 0, 4 0, 0 4, 0 0))",
            "POLYGON ((0 0, 4 0, 0 4, 0 0), (1 1, 2 1, 1 2, 1 1))",
            "MULTIPOINT ((0 0), (4 0))",
            "MULTILINESTRING ((0 0, 2 2), (4 4, 3 3))",
            "MULTIPOLYGON (((0 0, 4 0, 0 4, 0 0)))",
            "GEOMETRYCOLLECTION (POINT (0 10), LINESTRING (0 0, 2 2))",
            "GEOMETRYCOLLECTION (POINT (-0 10), LINESTRING (0 0, 2 2))",
        ]
        .iter()
        .map(|s| encode(&wkt::parse(s).unwrap()))
        .collect();
        // The triangle again with its ring unclosed on the wire, and
        // `POINT (0 10)` big-endian.
        let mut unclosed = vec![1u8];
        unclosed.extend_from_slice(&3u32.to_le_bytes());
        unclosed.extend_from_slice(&1u32.to_le_bytes());
        unclosed.extend_from_slice(&3u32.to_le_bytes());
        for v in [0.0f64, 0.0, 4.0, 0.0, 0.0, 4.0] {
            unclosed.extend_from_slice(&v.to_le_bytes());
        }
        encodings.push(unclosed);
        let mut be_point = vec![0u8];
        be_point.extend_from_slice(&1u32.to_be_bytes());
        be_point.extend_from_slice(&0.0f64.to_be_bytes());
        be_point.extend_from_slice(&10.0f64.to_be_bytes());
        encodings.push(be_point);
        let mut nan_point = vec![1u8];
        nan_point.extend_from_slice(&1u32.to_le_bytes());
        nan_point.extend_from_slice(&f64::NAN.to_le_bytes());
        nan_point.extend_from_slice(&10.0f64.to_le_bytes());
        encodings.push(nan_point);

        let mut equal_pairs = 0;
        for a in &encodings {
            for b in &encodings {
                let (va, vb) = (decode_ref(a).unwrap().0, decode_ref(b).unwrap().0);
                let (ga, gb) = (decode(a).unwrap().0, decode(b).unwrap().0);
                assert_eq!(va == vb, ga == gb, "{ga:?} vs {gb:?}");
                equal_pairs += usize::from(va == vb && a != b);
            }
        }
        // -0/0 points (+ the big-endian twin), the two collections and
        // the unclosed triangle: equal views over different bytes.
        assert_eq!(equal_pairs, 6 + 2 + 2);
    }

    /// Offsets of the structural fields of the little-endian value at
    /// `buf[at..]`, read the way `docs/FORMAT.md` §2 lays them out —
    /// byte-order markers, type codes and `u32` counts (points, rings,
    /// members) pushed to `fields` — and the value's end.
    fn walk(buf: &[u8], at: usize, fields: &mut [Vec<usize>; 3]) -> usize {
        let word = |at: usize| u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()) as usize;
        let (ty, body) = (word(at + 1), at + 5);
        fields[0].push(at);
        fields[1].push(at + 1);
        if ty == 1 {
            return body + 16;
        }
        fields[2].push(body);
        let n = word(body);
        match ty {
            2 => body + 4 + 16 * n,
            3 => (0..n).fold(body + 4, |ring, _| {
                fields[2].push(ring);
                ring + 4 + 16 * word(ring)
            }),
            _ => (0..n).fold(body + 4, |member, _| walk(buf, member, fields)),
        }
    }

    /// A decoder outcome that is a typed error (`None`) or a parse both
    /// decoders agree on — anything else, a panic or an arithmetic
    /// overflow under the dev profile's `overflow-checks` included,
    /// fails the test.
    fn verdict(bytes: &[u8]) -> Option<(Geometry, usize)> {
        assert_ref_parity(bytes);
        match decode_ref(bytes) {
            Ok((view, used)) => Some((view.to_geometry(), used)),
            Err(GeomError::Wkb(_) | GeomError::Invalid(_)) => None,
            Err(other) => panic!("untyped decoder error: {other:?}"),
        }
    }

    /// `levels` one-member collections around a point, each level
    /// claiming `count` members.
    fn nest(levels: usize, count: u32) -> Vec<u8> {
        let level = [&[1u8][..], &7u32.to_le_bytes(), &count.to_le_bytes()].concat();
        let point = encode(&wkt::parse("POINT (1 2)").unwrap());
        [level.repeat(levels), point].concat()
    }

    /// ROADMAP item 7(b) for the WKB decoder (`docs/FORMAT.md` §2): over
    /// all seven types — holes, empty parts, nested collections —
    /// truncation at every offset, every count at 0 / max / ±1, every
    /// byte-order marker and type code replaced, and collections nested
    /// past [`MAX_NESTING`]. Every outcome is a typed error or a parse,
    /// and `decode_ref` agrees with `decode` on each.
    #[test]
    fn decode_ref_survives_every_mutation() {
        let samples = [
            "POINT (30 10)",
            "LINESTRING (30 10, 10 30, 40 40)",
            "POLYGON ((35 10, 45 45, 15 40, 10 20, 35 10), (20 30, 35 35, 30 20, 20 30))",
            "MULTIPOINT ((10 40), (40 30))",
            "MULTILINESTRING ((10 10, 20 20), (40 40, 30 30))",
            "MULTIPOLYGON (((30 20, 45 40, 10 40, 30 20)), \
             ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 2 1, 2 2, 1 1)))",
            "GEOMETRYCOLLECTION (POINT (40 10), MULTIPOINT EMPTY, \
             GEOMETRYCOLLECTION (LINESTRING (10 10, 20 20), GEOMETRYCOLLECTION EMPTY))",
        ];
        for text in samples {
            let valid = encode(&wkt::parse(text).unwrap());
            let original = verdict(&valid).expect("the sample parses");
            let mut fields = Default::default();
            assert_eq!(walk(&valid, 0, &mut fields), valid.len());
            let [markers, types, counts] = fields;
            let with = |at: usize, bytes: &[u8]| {
                let mut buf = valid.clone();
                buf[at..at + bytes.len()].copy_from_slice(bytes);
                verdict(&buf)
            };

            // A value cut short anywhere is incomplete.
            for cut in 0..valid.len() {
                assert_eq!(verdict(&valid[..cut]), None, "{text}: cut at {cut}");
            }
            // A changed count never reads back as the original value.
            for at in counts {
                let v = u32::from_le_bytes(valid[at..at + 4].try_into().unwrap());
                for value in [0, u32::MAX, v.wrapping_add(1), v.wrapping_sub(1)] {
                    let got = with(at, &value.to_le_bytes());
                    assert!(
                        value == v || got.as_ref() != Some(&original),
                        "{text}: {at}"
                    );
                }
            }
            // Big-endian re-reads every field after the marker; any other
            // byte is no marker at all.
            for at in markers {
                for marker in [0u8, 2, 0x7F, 0xFF] {
                    let got = with(at, &[marker]);
                    assert!(marker == 0 || got.is_none(), "{text}: marker {marker}");
                }
            }
            // The seven type codes, their neighbours and max.
            for at in types {
                for code in (0..=8).chain([u32::MAX]) {
                    let got = with(at, &code.to_le_bytes());
                    assert!((1..=7).contains(&code) || got.is_none(), "{text}: {code}");
                }
            }
        }

        // Nested collections: accepted down to the limit, a typed error
        // past it — however deep the input goes, and whatever member
        // count every level claims — and refused where a typed member
        // belongs.
        for levels in [1, MAX_NESTING] {
            assert!(verdict(&nest(levels, 1)).is_some(), "{levels} levels");
        }
        for (levels, count) in [(MAX_NESTING + 1, 1), (1 << 16, 1), (1 << 16, u32::MAX)] {
            assert_eq!(verdict(&nest(levels, count)), None, "{levels} levels");
        }
        for (ty, kw) in [
            (4u32, "MULTIPOINT"),
            (5, "MULTILINESTRING"),
            (6, "MULTIPOLYGON"),
        ] {
            let buf = [
                &[1u8][..],
                &ty.to_le_bytes(),
                &1u32.to_le_bytes(),
                &nest(2, 1),
            ]
            .concat();
            assert_eq!(verdict(&buf), None);
            assert!(matches!(decode_ref(&buf), Err(GeomError::Wkb(m)) if m.contains(kw)));
        }
    }

    #[test]
    fn ring_views_repeat_the_virtual_closing_vertex() {
        // Unclosed wire ring: 3 stored points, logical length 4.
        let mut buf = vec![1u8];
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&3u32.to_le_bytes());
        for v in [0.0f64, 0.0, 4.0, 0.0, 0.0, 4.0] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        let (view, _) = decode_ref(&buf).unwrap();
        let GeomRef::Polygon(p) = view else {
            panic!("expected a polygon view")
        };
        let ext = p.exterior();
        assert_eq!(ext.num_points(), 4);
        assert_eq!(ext.point(3), ext.point(0));
        let pts: Vec<Point> = ext.points().collect();
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[3], Point::new(0.0, 0.0));
        let closing_edge = (Point::new(0.0, 4.0), Point::new(0.0, 0.0));
        assert_eq!(ext.segments().last(), Some(closing_edge));
        assert_eq!(p.num_points(), 4);
        // The owned decode stores the closing copy the view repeats.
        let (owned, _) = decode(&buf).unwrap();
        assert_eq!(view.num_points(), owned.num_points());
        assert_eq!(view.envelope(), owned.envelope());
    }
}
