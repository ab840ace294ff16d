//! Recursive-descent WKT parser: one grammar, generic over where its
//! output goes ([`Sink`]). [`parse`] builds objects with it;
//! [`super::transcode`] writes WKB bytes with it.

use crate::geometry::{Geometry, GeometryType};
use crate::linestring::LineString;
use crate::multi::{GeometryCollection, MultiLineString, MultiPoint, MultiPolygon};
use crate::point::Point;
use crate::polygon::{Polygon, Ring};
use crate::wkb::MAX_NESTING;
use crate::{GeomError, Result};

/// Parses a single WKT geometry from `input`, requiring that nothing but
/// whitespace follows it.
///
/// ```
/// use mvio_geom::wkt;
/// let g = wkt::parse("POINT (30 10)").unwrap();
/// assert_eq!(g.num_points(), 1);
/// ```
pub fn parse(input: &str) -> Result<Geometry> {
    whole(input, &mut Objects)
}

/// Reads one geometry from `input` into `sink`, requiring that nothing but
/// whitespace follows it.
pub(crate) fn whole<S: Sink>(input: &str, sink: &mut S) -> Result<S::Geom> {
    let mut p = Parser::new(input);
    let g = p.geometry(sink)?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.error("trailing characters after geometry"));
    }
    Ok(g)
}

/// Where the grammar's output goes, in reading order. A value is begun
/// before its body is read and a list is opened before its first item, so
/// a sink that writes bytes writes them as the text is read and backpatches
/// each count when its list closes.
pub(crate) trait Sink {
    /// A finished geometry.
    type Geom;
    /// A finished point: a coordinate pair, or a multipoint's member.
    type Point;
    /// A finished linestring.
    type Line;
    /// A finished polygon ring.
    type Ring;
    /// A finished polygon.
    type Poly;
    /// A list of `T` being read: a coordinate sequence, a polygon's rings,
    /// or the members of a multi-type or collection.
    type List<T>;

    /// A value of type `ty` begins: a geometry or a multi-type's member.
    fn begin(&mut self, ty: GeometryType);
    /// A point's coordinates.
    fn point(&mut self, p: Point) -> Self::Point;
    /// Closes a linestring's points, checked as [`LineString::new`] does.
    fn line(&mut self, points: Self::List<Self::Point>) -> Result<Self::Line>;
    /// Closes a ring's points, checked and closed as [`Ring::new`] does.
    fn ring(&mut self, points: Self::List<Self::Point>) -> Result<Self::Ring>;
    /// Opens a list.
    fn list<T>(&mut self) -> Self::List<T>;
    /// Appends a finished item to `list`.
    fn push<T>(&mut self, list: &mut Self::List<T>, item: T);
    /// Closes a polygon's rings, shell first (the grammar reads at least one).
    fn polygon(&mut self, rings: Self::List<Self::Ring>) -> Self::Poly;
    /// A finished geometry from its parts.
    fn finish(&mut self, parts: Parts<Self>) -> Self::Geom;
}

/// A geometry's parts as a [`Sink`] holds them, one variant per WKB type
/// (an EMPTY is an empty list).
pub(crate) enum Parts<S: Sink + ?Sized> {
    Point(S::Point),
    Line(S::Line),
    Polygon(S::Poly),
    Points(S::List<S::Point>),
    Lines(S::List<S::Line>),
    Polygons(S::List<S::Poly>),
    Members(S::List<S::Geom>),
}

/// The sink [`parse`] builds a [`Geometry`] with.
struct Objects;

impl Sink for Objects {
    type Geom = Geometry;
    type Point = Point;
    type Line = LineString;
    type Ring = Ring;
    type Poly = Polygon;
    type List<T> = Vec<T>;

    fn begin(&mut self, _: GeometryType) {}

    fn point(&mut self, p: Point) -> Point {
        p
    }

    fn line(&mut self, points: Vec<Point>) -> Result<LineString> {
        LineString::new(points)
    }

    fn ring(&mut self, points: Vec<Point>) -> Result<Ring> {
        Ring::new(points)
    }

    fn list<T>(&mut self) -> Vec<T> {
        Vec::new()
    }

    fn push<T>(&mut self, list: &mut Vec<T>, item: T) {
        list.push(item);
    }

    fn polygon(&mut self, rings: Vec<Ring>) -> Polygon {
        let mut rings = rings.into_iter();
        // audit: the grammar reads at least one ring before a polygon closes.
        let shell = rings.next().expect("a shell");
        Polygon::new(shell, rings.collect())
    }

    fn finish(&mut self, parts: Parts<Self>) -> Geometry {
        match parts {
            Parts::Point(p) => Geometry::Point(p),
            Parts::Line(l) => Geometry::LineString(l),
            Parts::Polygon(p) => Geometry::Polygon(p),
            Parts::Points(m) => MultiPoint(m).into(),
            Parts::Lines(m) => MultiLineString(m).into(),
            Parts::Polygons(m) => MultiPolygon(m).into(),
            Parts::Members(m) => Geometry::GeometryCollection(GeometryCollection(m)),
        }
    }
}

/// A resumable WKT parser over a string slice.
pub(crate) struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    /// Nesting depth of the geometry being parsed, counted as WKB does.
    depth: usize,
}

impl<'a> Parser<'a> {
    /// Creates a parser positioned at the start of `input`.
    pub(crate) fn new(input: &'a str) -> Self {
        Parser {
            src: input.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    /// `true` once the cursor has consumed all input.
    fn at_end(&self) -> bool {
        self.pos >= self.src.len()
    }

    /// Skips ASCII whitespace.
    pub(crate) fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn error(&self, msg: impl Into<String>) -> GeomError {
        GeomError::Wkt {
            msg: msg.into(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<()> {
        self.skip_ws();
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!(
                "expected '{}', found {:?}",
                byte as char,
                self.peek().map(|b| b as char)
            )))
        }
    }

    /// Consumes `byte` if it is next (after whitespace); returns whether it
    /// was consumed.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        if self.peek() == Some(byte) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Reads a geometry keyword: ASCII letters, in any case.
    fn keyword(&mut self) -> Result<GeometryType> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_alphabetic() {
            self.pos += 1;
        }
        let word = &self.src[start..self.pos];
        if word.is_empty() {
            return Err(self.error("expected a geometry keyword"));
        }
        (1..=7)
            .filter_map(GeometryType::from_code)
            .find(|ty| word.eq_ignore_ascii_case(ty.wkt_keyword().as_bytes()))
            .ok_or_else(|| {
                let word = String::from_utf8_lossy(word).to_ascii_uppercase();
                self.error(format!("unknown geometry keyword {word:?}"))
            })
    }

    /// Peeks whether the next token is the keyword `EMPTY`, consuming it if so.
    fn eat_empty(&mut self) -> bool {
        self.skip_ws();
        let rest = &self.src[self.pos..];
        if rest.len() >= 5 && rest[..5].eq_ignore_ascii_case(b"EMPTY") {
            self.pos += 5;
            true
        } else {
            false
        }
    }

    fn number(&mut self) -> Result<f64> {
        self.skip_ws();
        let start = self.pos;
        // Sign, digits, dot, exponent — scan the maximal plausible slice and
        // let f64::parse validate it.
        while self.pos < self.src.len() {
            let b = self.src[self.pos];
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if start == self.pos {
            return Err(self.error("expected a number"));
        }
        let text = std::str::from_utf8(&self.src[start..self.pos])
            .map_err(|_| self.error("non-UTF8 number"))?;
        text.parse::<f64>().map_err(|e| GeomError::Wkt {
            msg: format!("bad number {text:?}: {e}"),
            offset: start,
        })
    }

    /// Parses `x y` as a coordinate pair.
    fn coord(&mut self) -> Result<Point> {
        let x = self.number()?;
        let y = self.number()?;
        Ok(Point::new(x, y))
    }

    /// Parses the items of a list whose `(` is read, through its `)`.
    fn items<S: Sink, T>(
        &mut self,
        s: &mut S,
        mut item: impl FnMut(&mut Self, &mut S) -> Result<T>,
    ) -> Result<S::List<T>> {
        let mut list = s.list::<T>();
        loop {
            let next = item(self, s)?;
            s.push(&mut list, next);
            if !self.eat(b',') {
                break;
            }
        }
        self.expect(b')')?;
        Ok(list)
    }

    /// Parses a multi-type's or collection's `( member, ... )`, refusing
    /// members deeper than WKB readers accept ([`MAX_NESTING`]), so no
    /// input can exhaust the parser's stack.
    fn members<S: Sink, T>(
        &mut self,
        s: &mut S,
        member: impl FnMut(&mut Self, &mut S) -> Result<T>,
    ) -> Result<S::List<T>> {
        self.expect(b'(')?;
        if self.depth >= MAX_NESTING {
            return Err(self.error(format!(
                "collections nested deeper than {MAX_NESTING} levels"
            )));
        }
        self.items(s, member)
    }

    /// Parses one collection member, one nesting level down.
    fn member<S: Sink>(&mut self, s: &mut S) -> Result<S::Geom> {
        self.depth += 1;
        let out = self.geometry(s);
        self.depth -= 1;
        out
    }

    /// Parses `( x y, x y, ... )`.
    fn coord_list<S: Sink>(&mut self, s: &mut S) -> Result<S::List<S::Point>> {
        self.expect(b'(')?;
        self.items(s, |p, s| Ok(s.point(p.coord()?)))
    }

    /// Parses a linestring's `( x y, ... )`.
    fn line<S: Sink>(&mut self, s: &mut S) -> Result<S::Line> {
        let points = self.coord_list(s)?;
        s.line(points)
    }

    /// Parses `( ring, ring, ... )` where each ring is a coord list.
    fn polygon<S: Sink>(&mut self, s: &mut S) -> Result<S::Poly> {
        self.expect(b'(')?;
        let rings = self.items(s, |p, s| {
            let points = p.coord_list(s)?;
            s.ring(points)
        })?;
        Ok(s.polygon(rings))
    }

    /// Reads one complete geometry starting at the cursor into `s`.
    pub(crate) fn geometry<S: Sink>(&mut self, s: &mut S) -> Result<S::Geom> {
        use GeometryType as T;
        let ty = self.keyword()?;
        let empty = self.eat_empty();
        // POINT, LINESTRING and POLYGON EMPTY read as the empty multi-type,
        // the conventional lossless choice.
        s.begin(match ty {
            T::Point if empty => T::MultiPoint,
            T::LineString if empty => T::MultiLineString,
            T::Polygon if empty => T::MultiPolygon,
            ty => ty,
        });
        let parts = match ty {
            T::Point | T::MultiPoint if empty => Parts::Points(s.list::<S::Point>()),
            T::LineString | T::MultiLineString if empty => Parts::Lines(s.list::<S::Line>()),
            T::Polygon | T::MultiPolygon if empty => Parts::Polygons(s.list::<S::Poly>()),
            T::GeometryCollection if empty => Parts::Members(s.list::<S::Geom>()),
            T::Point => {
                self.expect(b'(')?;
                let p = self.coord()?;
                self.expect(b')')?;
                Parts::Point(s.point(p))
            }
            T::LineString => Parts::Line(self.line(s)?),
            T::Polygon => Parts::Polygon(self.polygon(s)?),
            T::MultiPoint => Parts::Points(self.members(s, |p, s| {
                let pt = p.multipoint_member()?;
                s.begin(T::Point);
                Ok(s.point(pt))
            })?),
            T::MultiLineString => Parts::Lines(self.members(s, |p, s| {
                s.begin(T::LineString);
                p.line(s)
            })?),
            T::MultiPolygon => Parts::Polygons(self.members(s, |p, s| {
                s.begin(T::Polygon);
                p.polygon(s)
            })?),
            T::GeometryCollection => Parts::Members(self.members(s, Self::member)?),
        };
        Ok(s.finish(parts))
    }

    /// A MULTIPOINT member: either `(x y)` (OGC canonical) or bare `x y`
    /// (widely produced in the wild, including OSM extracts).
    fn multipoint_member(&mut self) -> Result<Point> {
        if self.eat(b'(') {
            let p = self.coord()?;
            self.expect(b')')?;
            Ok(p)
        } else {
            self.coord()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rect::Rect;

    #[test]
    fn parses_the_papers_example() {
        // The exact example from paper §2.
        let g = parse("POLYGON ((30 10, 40 40, 20 40, 30 10))").unwrap();
        match &g {
            Geometry::Polygon(p) => {
                assert_eq!(p.exterior().num_points(), 4);
                assert_eq!(p.area(), 300.0);
            }
            _ => panic!("expected polygon"),
        }
        assert_eq!(g.envelope(), Rect::new(20.0, 10.0, 40.0, 40.0));
    }

    #[test]
    fn parses_point() {
        let g = parse("POINT (30 10)").unwrap();
        assert_eq!(g, Geometry::Point(Point::new(30.0, 10.0)));
        // Case-insensitive, flexible whitespace.
        let g2 = parse("point(30    10)").unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn parses_negative_and_scientific_numbers() {
        let g = parse("POINT (-1.5e2 +0.25)").unwrap();
        assert_eq!(g, Geometry::Point(Point::new(-150.0, 0.25)));
    }

    #[test]
    fn parses_linestring() {
        let g = parse("LINESTRING (30 10, 10 30, 40 40)").unwrap();
        assert_eq!(g.num_points(), 3);
        assert_eq!(g.geometry_type().wkt_keyword(), "LINESTRING");
    }

    #[test]
    fn parses_polygon_with_hole() {
        let g =
            parse("POLYGON ((35 10, 45 45, 15 40, 10 20, 35 10), (20 30, 35 35, 30 20, 20 30))")
                .unwrap();
        match g {
            Geometry::Polygon(p) => {
                assert_eq!(p.interiors().len(), 1);
                assert_eq!(p.num_points(), 5 + 4);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_multipoint_both_syntaxes() {
        let canonical = parse("MULTIPOINT ((10 40), (40 30), (20 20), (30 10))").unwrap();
        let bare = parse("MULTIPOINT (10 40, 40 30, 20 20, 30 10)").unwrap();
        assert_eq!(canonical, bare);
        assert_eq!(canonical.num_points(), 4);
    }

    #[test]
    fn parses_multilinestring() {
        let g =
            parse("MULTILINESTRING ((10 10, 20 20, 10 40), (40 40, 30 30, 40 20, 30 10))").unwrap();
        assert_eq!(g.num_points(), 7);
    }

    #[test]
    fn parses_multipolygon() {
        let g = parse(
            "MULTIPOLYGON (((30 20, 45 40, 10 40, 30 20)), \
             ((15 5, 40 10, 10 20, 5 10, 15 5)))",
        )
        .unwrap();
        match &g {
            Geometry::MultiPolygon(mp) => assert_eq!(mp.0.len(), 2),
            _ => panic!(),
        }
    }

    #[test]
    fn parses_multipolygon_with_holes() {
        let g = parse(
            "MULTIPOLYGON (((40 40, 20 45, 45 30, 40 40)), \
             ((20 35, 10 30, 10 10, 30 5, 45 20, 20 35), (30 20, 20 15, 20 25, 30 20)))",
        )
        .unwrap();
        match &g {
            Geometry::MultiPolygon(mp) => {
                assert_eq!(mp.0.len(), 2);
                assert_eq!(mp.0[1].interiors().len(), 1);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_geometrycollection() {
        let g =
            parse("GEOMETRYCOLLECTION (POINT (40 10), LINESTRING (10 10, 20 20, 10 40))").unwrap();
        match &g {
            Geometry::GeometryCollection(c) => assert_eq!(c.0.len(), 2),
            _ => panic!(),
        }
    }

    #[test]
    fn parses_empty_geometries() {
        assert_eq!(parse("POINT EMPTY").unwrap().num_points(), 0);
        assert_eq!(parse("LINESTRING EMPTY").unwrap().num_points(), 0);
        assert_eq!(parse("POLYGON EMPTY").unwrap().num_points(), 0);
        assert_eq!(parse("MULTIPOLYGON EMPTY").unwrap().num_points(), 0);
        assert_eq!(parse("GEOMETRYCOLLECTION EMPTY").unwrap().num_points(), 0);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("POLYGON").is_err());
        assert!(parse("POLYGON (30 10)").is_err()); // missing ring parens
        assert!(parse("POINT (30)").is_err());
        assert!(parse("POINT (30 10").is_err());
        assert!(parse("CIRCLE (0 0, 5)").is_err());
        assert!(parse("POINT (30 10) garbage").is_err());
        assert!(parse("POINT (a b)").is_err());
    }

    #[test]
    fn error_carries_offset() {
        match parse("POINT (30 x)") {
            Err(GeomError::Wkt { offset, .. }) => assert!(offset >= 9),
            other => panic!("expected Wkt error, got {other:?}"),
        }
    }

    /// `levels` collections around one point.
    fn nested_collection(levels: usize) -> String {
        let mut s = "GEOMETRYCOLLECTION (".repeat(levels);
        s.push_str("POINT (1 2)");
        s.push_str(&")".repeat(levels));
        s
    }

    #[test]
    fn collections_nest_as_deep_as_wkb_allows_and_no_deeper() {
        // On a 1 MiB stack, a simulated rank's default: without the limit,
        // a few thousand levels overflow it and abort the process.
        std::thread::Builder::new()
            .stack_size(1 << 20)
            .spawn(|| {
                let deepest = parse(&nested_collection(MAX_NESTING)).unwrap();
                let wkb = crate::wkb::encode(&deepest);
                assert_eq!(crate::wkb::decode(&wkb).unwrap().0, deepest);
                for levels in [MAX_NESTING + 1, MAX_NESTING + 100_000] {
                    let text = nested_collection(levels);
                    match parse(&text) {
                        Err(GeomError::Wkt { msg, offset }) => {
                            assert!(msg.contains("nested deeper"), "{msg}");
                            // The list that would put its members too deep.
                            let opener = "GEOMETRYCOLLECTION (".len();
                            assert_eq!(offset, (MAX_NESTING + 1) * opener);
                        }
                        other => panic!("{levels} levels: expected Wkt error, got {other:?}"),
                    }
                }
                // A multi-type's members count one level down, too.
                let deep_multi = nested_collection(MAX_NESTING).replace("POINT", "MULTIPOINT ");
                assert!(parse(&deep_multi.replace("(1 2)", "((1 2))")).is_err());
                assert!(parse(&deep_multi.replace("(1 2)", "EMPTY")).is_ok());
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn resumable_parser_tracks_offsets() {
        let src = "POINT (1 2)  POINT (3 4)";
        let mut p = Parser::new(src);
        let g1 = p.geometry(&mut Objects).unwrap();
        assert_eq!(g1, Geometry::Point(Point::new(1.0, 2.0)));
        let g2 = p.geometry(&mut Objects).unwrap();
        assert_eq!(g2, Geometry::Point(Point::new(3.0, 4.0)));
        p.skip_ws();
        assert!(p.at_end());
    }
}
