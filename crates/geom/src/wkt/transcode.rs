//! WKT straight to WKB: the parser's grammar over a sink that writes each
//! value's `docs/FORMAT.md` §2 bytes as the text is read.

use super::parse::{whole, Parts, Sink};
use crate::geometry::GeometryType;
use crate::point::Point;
use crate::rect::Rect;
use crate::{linestring, polygon, Result};

/// Transcodes one WKT geometry, which nothing but whitespace may follow,
/// to the little-endian WKB that [`crate::wkb::encode`] writes for
/// [`super::parse`]'s geometry, appended to `out`, and returns that
/// geometry's envelope. No geometry is built — no object, no vector per
/// ring — and each `u32` count is backpatched when its list closes. The
/// errors are [`super::parse`]'s, at the same offsets; on error `out` is
/// left as it was.
///
/// ```
/// use mvio_geom::{wkb, wkt, Rect};
/// let text = "POLYGON ((0 0, 4 0, 4 3))";
/// let mut out = Vec::new();
/// let envelope = wkt::transcode(text, &mut out).unwrap();
/// assert_eq!(out, wkb::encode(&wkt::parse(text).unwrap()));
/// assert_eq!(envelope, Rect::new(0.0, 0.0, 4.0, 3.0));
/// ```
pub fn transcode(input: &str, out: &mut Vec<u8>) -> Result<Rect> {
    let start = out.len();
    let mut sink = Bytes {
        out,
        env: Rect::EMPTY,
    };
    match whole(input, &mut sink) {
        Ok(()) => Ok(sink.env),
        Err(e) => {
            sink.out.truncate(start);
            Err(e)
        }
    }
}

/// The transcoding sink. Every value it finishes leaves its envelope in
/// `env`, where the list the value belongs to picks it up.
struct Bytes<'o> {
    out: &'o mut Vec<u8>,
    /// Envelope of the value finished last, folded as
    /// [`crate::Geometry::envelope`] folds it.
    env: Rect,
}

/// A list being written: where its count goes, its item count, the union
/// of its items' envelopes, and its first item's (a polygon's shell's, or
/// a coordinate sequence's first point's).
struct Tally {
    at: usize,
    n: usize,
    env: Rect,
    first: Rect,
}

impl Bytes<'_> {
    /// Reserves a `u32` count, returning where it goes.
    fn count(&mut self) -> usize {
        self.out.extend_from_slice(&[0; 4]);
        self.out.len() - 4
    }

    /// Writes `n` into the count reserved at `at`.
    fn patch(&mut self, at: usize, n: usize) {
        self.out[at..at + 4].copy_from_slice(&(n as u32).to_le_bytes());
    }

    /// Closes `list`: backpatches its count and leaves its envelope.
    fn close(&mut self, list: Tally) {
        self.patch(list.at, list.n);
        self.env = list.env;
    }

    /// The first non-finite point of the coordinate sequence `points`.
    /// Text spells no NaN, so only an infinite coordinate can be one, and
    /// it reaches the sequence's envelope.
    fn non_finite(&self, points: &Tally) -> Option<Point> {
        if points.env.to_array().iter().all(|v| v.is_finite()) {
            return None;
        }
        let at = |c: &[u8], i: usize| f64::from_le_bytes(std::array::from_fn(|k| c[i + k]));
        let data = &self.out[points.at + 4..];
        let mut all = data
            .chunks_exact(16)
            .map(|c| Point::new(at(c, 0), at(c, 8)));
        all.find(|p| !p.is_finite())
    }
}

impl Sink for Bytes<'_> {
    type Geom = ();
    type Point = ();
    type Line = ();
    type Ring = ();
    type Poly = ();
    type List<T> = Tally;

    fn begin(&mut self, ty: GeometryType) {
        self.out.push(1); // little-endian
        self.out.extend_from_slice(&ty.code().to_le_bytes());
    }

    fn point(&mut self, p: Point) {
        self.out.extend_from_slice(&p.x.to_le_bytes());
        self.out.extend_from_slice(&p.y.to_le_bytes());
        self.env = p.envelope();
    }

    fn line(&mut self, points: Tally) -> Result<()> {
        linestring::check(points.n, self.non_finite(&points).as_ref())?;
        self.close(points);
        Ok(())
    }

    fn ring(&mut self, mut points: Tally) -> Result<()> {
        // A point's envelope is the point: the first one's, and the last
        // one's, which the value register still holds.
        let (first, open) = (points.first.lo(), points.first != self.env);
        let closed_len = points.n + usize::from(open);
        polygon::check_ring(self.non_finite(&points).as_ref(), closed_len)?;
        if open {
            self.point(first);
            self.push(&mut points, ());
        }
        self.close(points);
        Ok(())
    }

    fn list<T>(&mut self) -> Tally {
        Tally {
            at: self.count(),
            n: 0,
            env: Rect::EMPTY,
            first: Rect::EMPTY,
        }
    }

    fn push<T>(&mut self, list: &mut Tally, _: T) {
        if list.n == 0 {
            list.first = self.env;
        }
        list.n += 1;
        list.env = list.env.union(&self.env);
    }

    fn polygon(&mut self, rings: Tally) {
        self.patch(rings.at, rings.n);
        self.env = rings.first;
    }

    fn finish(&mut self, parts: Parts<Self>) {
        if let Parts::Points(t) | Parts::Lines(t) | Parts::Polygons(t) | Parts::Members(t) = parts {
            self.close(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wkb::{self, MAX_NESTING};
    use crate::wkt::parse;

    /// `parse` and `transcode` agree on `text`: the same error at the same
    /// offset (and `out` untouched), or the encoded bytes of the parsed
    /// geometry and its envelope. Returns whether `text` was accepted.
    fn assert_agrees(text: &str) -> bool {
        let mut out = vec![0xA5];
        match (parse(text), transcode(text, &mut out)) {
            (Ok(g), Ok(envelope)) => {
                assert_eq!(out[1..], wkb::encode(&g), "{text:?}");
                assert_eq!(envelope, g.envelope(), "{text:?}");
                true
            }
            (Err(e), Err(t)) => {
                assert_eq!(t, e, "{text:?}");
                assert_eq!(out, [0xA5], "{text:?}: a failed transcode appends nothing");
                false
            }
            (p, t) => panic!("{text:?}: parse {p:?}, transcode {t:?}"),
        }
    }

    /// `levels` collections around `inner`.
    fn nested(levels: usize, inner: &str) -> String {
        "GEOMETRYCOLLECTION (".repeat(levels) + inner + &")".repeat(levels)
    }

    #[test]
    fn transcode_is_parse_then_encode_on_a_fixed_corpus() {
        let accepted = [
            "POINT EMPTY",
            "LINESTRING EMPTY",
            "POLYGON EMPTY",
            "MULTIPOINT EMPTY",
            "MULTILINESTRING EMPTY",
            "MULTIPOLYGON EMPTY",
            "GEOMETRYCOLLECTION EMPTY",
            "GEOMETRYCOLLECTION (POINT EMPTY, POINT (1 2), LINESTRING EMPTY)",
            "point ( -0 0.5e1 )",
            "MULTIPOINT (10 40, 40 30, 20 20)",
            "MULTIPOINT ((10 40), (40 30), (20 20))",
            "MULTIPOINT ((10 40), 40 30, (20 20))",
            "POLYGON ((0 0, 4 0, 4 3))",
            "POLYGON ((0 0, 4 0, 4 3, 0 0), (1 1, 2 1, 2 2))",
            "POLYGON ((-0 0, 4 0, 4 3, 0 0))",
            "POLYGON ((0 0, 1 0, 1 1, 0 0), (5 5, 6 5, 6 6))",
            "MULTIPOLYGON (((9 9, 9 8, 8 8)), ((0 0, 4 0, 4 3, 0 0), (1 1, 2 1, 2 2, 1 1)))",
            "MULTILINESTRING ((0 0, 1 1), (5 5, 6 6, 7 5))",
            "POINT (1e999 1)",
            "MULTIPOINT ((1 1), (-1e999 2))",
            "GEOMETRYCOLLECTION (POINT (1 2), MULTIPOINT (1e999 0))",
        ];
        for text in accepted {
            assert!(assert_agrees(text), "{text:?} must be accepted");
        }
        let rejected = [
            "",
            "CIRCLE (0 0, 5)",
            "POINT",
            "POINT (1)",
            "POINT (1 2",
            "POINT (1 2) trailing",
            "MULTIPOINT ((1 2)",
            "MULTIPOINT ((1 2), (3))",
            "MULTIPOINT (1 2, (3 4)",
            "MULTIPOINT ()",
            "LINESTRING (1 1)",
            "LINESTRING (1 1, 2 2",
            "MULTILINESTRING ((0 0, 1 1), (2 2))",
            "POLYGON ((0 0, 1 0, 0 0))",
            "POLYGON ((0 0, 1 0))",
            "POLYGON ((0 0, 4 0, 4 3, 0 0), (1 1, 2 1))",
            "MULTIPOLYGON (((0 0, 4 0, 4 3)), ((1 1)))",
            "POINT (NaN 1)",
            "POINT (inf 1)",
            "MULTIPOINT ((1 1), (NaN 2))",
            "LINESTRING (0 0, 1e999 1)",
            "POLYGON ((0 0, 1e999 0, 1 1, 0 0))",
            "GEOMETRYCOLLECTION (POINT (1 2), LINESTRING (0 0, -1e999 0))",
            "GEOMETRYCOLLECTION (POINT (1 2), POINT (NaN 0))",
            "POINT (1 2 3)",
            "POINT (1.2.3 4)",
        ];
        for text in rejected {
            assert!(!assert_agrees(text), "{text:?} must be rejected");
        }
    }

    #[test]
    fn transcode_nests_as_deep_as_parse_and_no_deeper() {
        // On a 1 MiB stack, a simulated rank's default.
        std::thread::Builder::new()
            .stack_size(1 << 20)
            .spawn(|| {
                assert!(assert_agrees(&nested(MAX_NESTING, "POINT (1 2)")));
                assert!(assert_agrees(&nested(MAX_NESTING, "MULTIPOINT EMPTY")));
                assert!(!assert_agrees(&nested(MAX_NESTING, "MULTIPOINT ((1 2))")));
                for levels in [MAX_NESTING + 1, MAX_NESTING + 100_000] {
                    assert!(!assert_agrees(&nested(levels, "POINT (1 2)")));
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }

    /// Every truncation of `text`, and every byte position overwritten
    /// with each of `(`, `)`, `,`, ` `, `-`, `e`, `.`, `\t` and a lone
    /// `0xFF` (which a `&str` carries as U+FFFD after lossy decoding).
    fn mutations(text: &str) -> Vec<String> {
        let mut out: Vec<String> = (0..text.len()).map(|cut| text[..cut].to_string()).collect();
        for at in 0..text.len() {
            for byte in [b'(', b')', b',', b' ', b'-', b'e', b'.', b'\t', 0xFF] {
                let mut bytes = text.as_bytes().to_vec();
                bytes[at] = byte;
                out.push(String::from_utf8_lossy(&bytes).into_owned());
            }
        }
        out
    }

    #[test]
    fn no_mutation_of_a_record_panics_the_transcoder() {
        for text in [
            "POLYGON ((35 10, 45 45, 15 40, 10 20, 35 10), (20 30, 35 35, 30 20, 20 30))",
            "GEOMETRYCOLLECTION (POINT (4 6), GEOMETRYCOLLECTION (LINESTRING (4 6, 7 10), \
             MULTIPOINT (1 2, (3 4))), POLYGON EMPTY)",
        ] {
            let (mut accepted, mut total) = (0, 0);
            for mutant in mutations(text) {
                let mut out = Vec::new();
                if let Ok(envelope) = transcode(&mutant, &mut out) {
                    let (_, used) = wkb::decode_ref(&out).unwrap();
                    assert_eq!(used, out.len(), "{mutant:?}");
                    assert_eq!(envelope, parse(&mutant).unwrap().envelope(), "{mutant:?}");
                    accepted += 1;
                }
                assert_agrees(&mutant);
                total += 1;
            }
            assert!(
                0 < accepted && accepted < total,
                "{text:?}: {accepted} of {total}"
            );
        }
    }
}
