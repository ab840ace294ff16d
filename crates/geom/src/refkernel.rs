//! Batched MBR/refine kernels over the zero-copy geometry views.
//!
//! The filter half of filter-and-refine is memory-bound: it touches every
//! received coordinate once to derive an MBR, then compares rectangles.
//! Doing that per record through an owned [`crate::Geometry`] pays a heap
//! allocation and a second pass per geometry before the first comparison
//! happens. The kernels here run straight over the borrowed views of
//! [`crate::wkb::decode_ref`] instead:
//!
//! * [`coords_envelope`] — min/max over a flat coordinate slice with four
//!   independent accumulator lanes, so the compiler can keep the loop in
//!   vector registers (the scalar remainder folds into the same lanes);
//! * [`envelope_batch`] — MBRs for a whole received round at once;
//! * [`filter_pairs_batch`] — rejects candidate pairs by MBR overlap and
//!   the caller's reference-cell claim before any point-in-polygon work;
//! * [`RefineArena`] — a scratch pool of coordinate buffers for the few
//!   candidates that survive to the exact intersection test, so the refine
//!   loop's materializations recycle allocations instead of making fresh
//!   ones per pair. The arena counts what it creates and how many buffers
//!   are resident at once, which is how the repro experiments *measure*
//!   the zero-alloc claim instead of asserting it;
//! * [`ApproxTable`] — the approximation step between filter and refine
//!   (Brinkhoff, Kriegel, Schneider & Seeger, "Multi-step processing of
//!   spatial joins", SIGMOD '94): per left polygon an inner disc and the
//!   convex hull, which prove most surviving pairs to be hits or misses
//!   with a few coordinate compares, so only the rest pay the exact test.
//!
//! Every kernel is value-compatible with the owned path: envelopes use the
//! same `f64::min`/`f64::max` folds as [`crate::Rect::expand_point`], and
//! [`RefineArena::materialize`] rebuilds geometries through the owned
//! constructors, so results are equal to [`crate::wkb::decode`]'s. The
//! approximation step never contradicts [`crate::algo::intersects`]: it
//! answers only outside a tie band around each of its thresholds.

use crate::algo::{locate_in_rings, PointLocation};
use crate::geometry::Geometry;
use crate::linestring::LineString;
use crate::multi::{GeometryCollection, MultiLineString, MultiPoint, MultiPolygon};
use crate::point::Point;
use crate::polygon::{Polygon, Ring};
use crate::rect::Rect;
use crate::wkb::{CoordsRef, GeomRef, PolygonRef};
use std::ops::{ControlFlow, Range};

/// MBR of a flat coordinate slice (16 bytes per point: x then y, in the
/// given byte order), computed with four independent accumulator lanes.
///
/// The lanes carry no sequential dependency across points, so the 4-wide
/// body auto-vectorizes; the final merge unions the lanes. The folds are
/// the same `f64::min`/`f64::max` as [`Rect::expand_point`], so the result
/// equals (under `==`) the owned `Rect::from_points` over the same
/// coordinates. An empty slice yields [`Rect::EMPTY`].
pub fn coords_envelope(data: &[u8], be: bool) -> Rect {
    let n = data.len() / 16;
    let rd = |i: usize, off: usize| -> f64 {
        // audit: `i < n` and `off ∈ {0, 8}`, so the range ends at most at
        // `16 · n ≤ data.len()`.
        let bytes: [u8; 8] = data[i * 16 + off..i * 16 + off + 8]
            .try_into()
            .expect("8-byte chunk"); // audit: the slice is exactly 8 bytes.
        if be {
            f64::from_be_bytes(bytes)
        } else {
            f64::from_le_bytes(bytes)
        }
    };
    let mut lanes = [Rect::EMPTY; 4];
    let mut i = 0;
    while i + 4 <= n {
        for (l, lane) in lanes.iter_mut().enumerate() {
            let (x, y) = (rd(i + l, 0), rd(i + l, 8));
            lane.min_x = lane.min_x.min(x);
            lane.min_y = lane.min_y.min(y);
            lane.max_x = lane.max_x.max(x);
            lane.max_y = lane.max_y.max(y);
        }
        i += 4;
    }
    while i < n {
        let (x, y) = (rd(i, 0), rd(i, 8));
        lanes[0].min_x = lanes[0].min_x.min(x);
        lanes[0].min_y = lanes[0].min_y.min(y);
        lanes[0].max_x = lanes[0].max_x.max(x);
        lanes[0].max_y = lanes[0].max_y.max(y);
        i += 1;
    }
    let mut out = Rect::EMPTY;
    for lane in &lanes {
        out.expand_rect(lane);
    }
    out
}

/// Computes the MBR of every view in `geoms` into `out` (cleared first) —
/// one pass over a whole received round, feeding the R-tree build and the
/// pair filter without any per-record geometry materialization.
pub fn envelope_batch(geoms: &[GeomRef<'_>], out: &mut Vec<Rect>) {
    out.clear();
    out.reserve(geoms.len());
    out.extend(geoms.iter().map(|g| g.envelope()));
}

/// Filters candidate `(left, right)` index pairs down to the ones whose
/// MBRs overlap **and** pass the caller's reference-cell claim, appending
/// survivors to `out` (cleared first) in input order. Everything rejected
/// here never reaches a point-in-polygon test.
///
/// `claims` receives the two MBRs of a pair that already passed the
/// overlap test — the duplicate-elimination hook
/// (`claims_reference` in the join framework).
pub fn filter_pairs_batch(
    candidates: &[(usize, usize)],
    left_mbrs: &[Rect],
    right_mbrs: &[Rect],
    mut claims: impl FnMut(&Rect, &Rect) -> bool,
    out: &mut Vec<(usize, usize)>,
) {
    out.clear();
    for &(li, ri) in candidates {
        let (a, b) = (&left_mbrs[li], &right_mbrs[ri]);
        if a.intersects(b) && claims(a, b) {
            out.push((li, ri));
        }
    }
}

/// Scratch pool for refine-phase materializations: coordinate buffers are
/// taken when a surviving candidate pair needs owned geometry for the
/// exact intersection test and given back immediately after, so a whole
/// refine window runs on a handful of resident buffers instead of one
/// fresh allocation per record.
///
/// The pool only recycles `Vec<Point>` coordinate buffers — the only
/// per-record allocation on the read path. Counters track every fresh
/// buffer creation ([`RefineArena::buffers_created`]) and the peak number
/// lent out at once ([`RefineArena::peak_resident`]); the repro
/// experiments export them as the max-resident-allocations metric.
#[derive(Debug, Default)]
pub struct RefineArena {
    pool: Vec<Vec<Point>>,
    created: u64,
    live: usize,
    peak_live: usize,
}

impl RefineArena {
    /// An empty arena.
    pub fn new() -> Self {
        RefineArena::default()
    }

    /// Fresh coordinate buffers created over the arena's lifetime.
    pub fn buffers_created(&self) -> u64 {
        self.created
    }

    /// Peak number of buffers lent out simultaneously.
    pub fn peak_resident(&self) -> usize {
        self.peak_live
    }

    fn take(&mut self) -> Vec<Point> {
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        match self.pool.pop() {
            Some(mut v) => {
                v.clear();
                v
            }
            None => {
                self.created += 1;
                Vec::new()
            }
        }
    }

    fn give(&mut self, v: Vec<Point>) {
        self.live = self.live.saturating_sub(1);
        self.pool.push(v);
    }

    fn linestring(&mut self, coords: &CoordsRef<'_>) -> LineString {
        let mut pts = self.take();
        pts.reserve(coords.len());
        pts.extend(coords.points());
        // audit: decode_ref already ran LineString::new's checks.
        LineString::new(pts).expect("validated linestring")
    }

    fn ring(&mut self, coords: &CoordsRef<'_>) -> Ring {
        let mut pts = self.take();
        // +1 so Ring::new's closing push (already counted in len() when
        // the wire ring is unclosed) never grows the buffer.
        pts.reserve(coords.len() + 1);
        // Wire points only: Ring::new re-closes exactly like the owned
        // decode, so the stored vector matches it point-for-point.
        pts.extend((0..coords.wire_len()).map(|i| coords.point(i)));
        // audit: decode_ref already ran Ring::new's checks.
        Ring::new(pts).expect("validated ring")
    }

    fn polygon(&mut self, p: &PolygonRef<'_>) -> Polygon {
        let mut rings = p.rings();
        // audit: decode_ref guarantees at least one ring.
        let ext = self.ring(&rings.next().expect("validated polygon has >= 1 ring"));
        let holes = rings.map(|r| self.ring(&r)).collect();
        Polygon::new(ext, holes)
    }

    /// Materializes an owned [`Geometry`] equal to what
    /// [`crate::wkb::decode`] returns for the view's bytes, drawing
    /// coordinate buffers from the pool. Pair with
    /// [`RefineArena::recycle`] to return the buffers once the exact test
    /// is done.
    pub fn materialize(&mut self, g: &GeomRef<'_>) -> Geometry {
        match g {
            GeomRef::Point(p) => Geometry::Point(p.point()),
            GeomRef::LineString(l) => Geometry::LineString(self.linestring(&l.coords())),
            GeomRef::Polygon(p) => Geometry::Polygon(self.polygon(p)),
            GeomRef::MultiPoint(m) => {
                let mut pts = self.take();
                pts.reserve(m.len());
                pts.extend(m.members().map(|g| match g {
                    GeomRef::Point(p) => p.point(),
                    // audit: decode_ref enforced the member type.
                    _ => unreachable!("validated MULTIPOINT member"),
                }));
                Geometry::MultiPoint(MultiPoint(pts))
            }
            GeomRef::MultiLineString(m) => Geometry::MultiLineString(MultiLineString(
                m.members()
                    .map(|g| match g {
                        GeomRef::LineString(l) => self.linestring(&l.coords()),
                        // audit: decode_ref enforced the member type.
                        _ => unreachable!("validated MULTILINESTRING member"),
                    })
                    .collect(),
            )),
            GeomRef::MultiPolygon(m) => Geometry::MultiPolygon(MultiPolygon(
                m.members()
                    .map(|g| match g {
                        GeomRef::Polygon(p) => self.polygon(&p),
                        // audit: decode_ref enforced the member type.
                        _ => unreachable!("validated MULTIPOLYGON member"),
                    })
                    .collect(),
            )),
            GeomRef::GeometryCollection(c) => Geometry::GeometryCollection(GeometryCollection(
                c.members().map(|g| self.materialize(&g)).collect(),
            )),
        }
    }

    /// Returns a materialized geometry's coordinate buffers to the pool.
    pub fn recycle(&mut self, g: Geometry) {
        match g {
            Geometry::Point(_) => {}
            Geometry::LineString(l) => self.give(l.into_points()),
            Geometry::Polygon(p) => self.recycle_polygon(p),
            Geometry::MultiPoint(m) => self.give(m.0),
            Geometry::MultiLineString(m) => {
                for l in m.0 {
                    self.give(l.into_points());
                }
            }
            Geometry::MultiPolygon(m) => {
                for p in m.0 {
                    self.recycle_polygon(p);
                }
            }
            Geometry::GeometryCollection(c) => {
                for g in c.0 {
                    self.recycle(g);
                }
            }
        }
    }

    fn recycle_polygon(&mut self, p: Polygon) {
        let (ext, holes) = p.into_rings();
        self.give(ext.into_points());
        for h in holes {
            self.give(h.into_points());
        }
    }
}

/// Relative width of the tie band of every approximation test: a point
/// this close to a threshold, relative to the coordinates involved, is
/// left to the exact test. A thousand times the collinearity tolerance of
/// [`crate::algo::orientation`], so the two predicates cannot disagree
/// outside the band.
const TIE: f64 = 1e-9;

/// The approximations of one left frame. A frame without them (not a
/// polygon, or a polygon whose vertices are collinear) has an empty hull.
#[derive(Debug, Clone)]
struct Approx {
    /// The shell's vertex centroid: the centre of the inner disc.
    centre: Point,
    /// Radius of the inner disc after the tie margin. Not positive when
    /// the polygon has no disc: the centroid is not strictly inside.
    radius: f64,
    /// The convex hull in [`ApproxTable::hull`], counter-clockwise and
    /// closed (the first vertex repeated last).
    hull: Range<usize>,
    /// Absolute distance margin of the hull tests: the tie band scaled by
    /// the polygon's size and distance from the origin.
    eps: f64,
}

/// Per-frame approximations of one join side's left polygons, built
/// lazily the first time a frame appears in a pair: the **progressive**
/// approximation is the disc around the shell's vertex centroid, kept only
/// when the centroid is strictly inside the polygon (holes included), with
/// the distance to the nearest segment of any ring as its radius; the
/// **conservative** one is the convex hull of every ring's vertices
/// (Andrew's monotone chain, correct on any point set — for a valid
/// polygon that is the shell's hull, and it stays conservative when a
/// hole strays outside the shell).
///
/// [`ApproxTable::decide`] then settles a pair without the exact test
/// where it can:
///
/// * **hit** — a right vertex, or a right segment, inside the disc (for a
///   right polygon, of its shell: a hole's boundary lies inside the shell
///   only when the polygon is valid);
/// * **miss, right side without area** — every right point, and every
///   right segment, is separated from the hull: by a hull edge's normal, or
///   by the segment's own normal (the separating axis test);
/// * **miss, right side with area** (a polygon, or a collection holding
///   one) — only when a single hull edge separates *all* right vertices,
///   because a right polygon can contain the hull;
/// * everything else — left sides that are not polygons, degenerate
///   rings, ties — returns `None` and goes to the exact test.
///
/// Storage is three flat arrays (one slot per frame, the hulls, a sort
/// buffer), so building costs no allocation per frame.
#[derive(Debug, Default)]
pub struct ApproxTable {
    slots: Vec<Option<Approx>>,
    hull: Vec<Point>,
    sorted: Vec<Point>,
}

impl ApproxTable {
    /// A table for `frames` left frames, none built yet.
    pub fn new(frames: usize) -> Self {
        ApproxTable {
            slots: vec![None; frames],
            ..ApproxTable::default()
        }
    }

    /// Builds the approximations of frame `i`, whose view is `left`,
    /// unless they exist already. Returns the vertices touched doing so —
    /// one per vertex per pass (centroid, point-in-polygon, radius, two
    /// hull chains) plus `m⌈log₂m⌉` for sorting the `m` hull candidates —
    /// and 0 when the frame was built before.
    pub fn prepare(&mut self, i: usize, left: &GeomRef<'_>) -> u64 {
        if self.slots[i].is_some() {
            return 0;
        }
        let (approx, touched) = match left {
            GeomRef::Polygon(p) => self.build(p),
            _ => (Approx::NONE, 0),
        };
        self.slots[i] = Some(approx);
        touched
    }

    /// The convex hull built for frame `i`, counter-clockwise and closed;
    /// empty when the frame has none or was not prepared.
    pub fn hull(&self, i: usize) -> &[Point] {
        self.slots[i]
            .as_ref()
            .map_or(&[], |a| &self.hull[a.hull.clone()])
    }

    fn build(&mut self, p: &PolygonRef<'_>) -> (Approx, u64) {
        self.sorted.clear();
        for ring in p.rings() {
            self.sorted.extend(ring.points());
        }
        let m = self.sorted.len() as u64;
        self.sorted
            .sort_unstable_by(|a, b| a.x.total_cmp(&b.x).then_with(|| a.y.total_cmp(&b.y)));
        let start = self.hull.len();
        monotone_chain(&self.sorted, &mut self.hull);
        let mut touched = m * (u64::BITS - m.saturating_sub(1).leading_zeros()) as u64 + 2 * m;
        // Fewer than three distinct hull vertices: the rings are collinear.
        if self.hull.len() - start < 4 {
            self.hull.truncate(start);
            return (Approx::NONE, touched);
        }
        let hull = start..self.hull.len();
        let envelope = Rect::from_points(&self.hull[hull.clone()]);

        let shell = p.exterior();
        // The closing vertex repeats the first; decode_ref guarantees >= 4.
        let n = shell.len() - 1;
        let sum = (0..n).fold((0.0, 0.0), |(x, y), i| {
            let v = shell.point(i);
            (x + v.x, y + v.y)
        });
        let centre = Point::new(sum.0 / n as f64, sum.1 / n as f64);
        touched += n as u64 + m;
        let eps = TIE * (envelope.width() + envelope.height() + centre.x.abs() + centre.y.abs());
        let inside = locate_in_rings(centre, p.rings().map(|r| r.segments()));
        let radius = if inside == PointLocation::Inside {
            touched += m;
            let nearest = p
                .rings()
                .flat_map(|r| r.segments())
                .map(|(a, b)| segment_distance_sq(centre, a, b))
                .fold(f64::INFINITY, f64::min);
            nearest.sqrt() - eps
        } else {
            0.0
        };
        let approx = Approx {
            centre,
            radius,
            hull,
            eps,
        };
        (approx, touched)
    }

    /// Decides the pair (frame `i`, `right`) from the approximations
    /// [`ApproxTable::prepare`] built for frame `i`: `Some(true)` is a
    /// proven hit and `Some(false)` a proven miss — both equal to what
    /// [`crate::algo::intersects`] returns — and `None` leaves the pair to
    /// the exact test. Also returns the tests examined: one per right point
    /// or segment measured against the disc, per right vertex placed
    /// against a hull edge, and per hull vertex placed against a right
    /// segment's line. They never exceed the right side's vertices times
    /// the hull's edges — fewer vertex pairs than the exact test's own
    /// sweep compares, since the hull has fewer edges than the polygon —
    /// and a decision that would need more gives up with `None`.
    pub fn decide(&self, i: usize, right: &GeomRef<'_>) -> (Option<bool>, u64) {
        let Some(approx) = &self.slots[i] else {
            return (None, 0);
        };
        let hull = &self.hull[approx.hull.clone()];
        let budget = right.num_points() as u64 * hull.len().saturating_sub(1) as u64;
        // No hull, or a right side without a vertex: nothing to decide on.
        if budget == 0 {
            return (None, 0);
        }
        let mut meter = Meter {
            examined: 0,
            budget,
        };
        let outcome = approx.decide(hull, right, &mut meter);
        (outcome, meter.examined)
    }
}

impl Approx {
    /// No approximations: an empty hull and no disc.
    const NONE: Approx = Approx {
        centre: Point::new(0.0, 0.0),
        radius: 0.0,
        hull: 0..0,
        eps: 0.0,
    };

    fn decide(&self, hull: &[Point], right: &GeomRef<'_>, meter: &mut Meter) -> Option<bool> {
        if self.radius > 0.0 {
            match self.disc_hit(right, meter) {
                ControlFlow::Break(Stop::Hit) => return Some(true),
                ControlFlow::Break(_) => return None,
                ControlFlow::Continue(()) => {}
            }
        }
        let separated = if has_area(right) {
            self.one_axis_separates(hull, right, meter)
        } else {
            self.every_part_separated(hull, right, meter)
        };
        separated.then_some(false)
    }

    /// Breaks with [`Stop::Hit`] at the first right point or segment
    /// inside the disc (hole rings skipped).
    fn disc_hit(&self, right: &GeomRef<'_>, meter: &mut Meter) -> ControlFlow<Stop> {
        let (c, r2) = (self.centre, self.radius * self.radius);
        parts(right, &mut |part| match part {
            Part::Point(v) => {
                meter.tick()?;
                if v.distance_sq(&c) < r2 {
                    return ControlFlow::Break(Stop::Hit);
                }
                ControlFlow::Continue(())
            }
            Part::Chain(_, true) => ControlFlow::Continue(()),
            Part::Chain(coords, false) => coords.segments().try_for_each(|(a, b)| {
                meter.tick()?;
                if segment_distance_sq(c, a, b) < r2 {
                    return ControlFlow::Break(Stop::Hit);
                }
                ControlFlow::Continue(())
            }),
        })
    }

    /// `true` when one hull edge has every right vertex beyond it.
    fn one_axis_separates(&self, hull: &[Point], right: &GeomRef<'_>, meter: &mut Meter) -> bool {
        for edge in hull.windows(2) {
            let mut beyond_edge = |v: Point| {
                meter.tick()?;
                if beyond(edge[0], edge[1], v, self.eps) {
                    ControlFlow::Continue(())
                } else {
                    ControlFlow::Break(Stop::Unseparated)
                }
            };
            let swept = parts(right, &mut |part| match part {
                Part::Point(v) => beyond_edge(v),
                Part::Chain(coords, _) => coords.points().try_for_each(&mut beyond_edge),
            });
            match swept {
                ControlFlow::Continue(()) => return true,
                ControlFlow::Break(Stop::Unseparated) => {}
                ControlFlow::Break(_) => return false,
            }
        }
        false
    }

    /// `true` when every right point and every right segment has a
    /// separating axis of its own. The search for the next part starts at
    /// the hull edge that separated the previous one: neighbouring parts
    /// usually lie beyond the same edge.
    fn every_part_separated(&self, hull: &[Point], right: &GeomRef<'_>, meter: &mut Meter) -> bool {
        let edges = hull.len() - 1;
        let mut last = 0;
        let mut separate = |p: Point, q: Point| {
            let mut p_outside = false;
            for k in 0..edges {
                let e = (last + k) % edges;
                let (a, b) = (hull[e], hull[e + 1]);
                meter.tick()?;
                if beyond(a, b, p, self.eps) {
                    p_outside = true;
                    if p != q {
                        meter.tick()?;
                    }
                    if p == q || beyond(a, b, q, self.eps) {
                        last = e;
                        return ControlFlow::Continue(());
                    }
                }
            }
            // Beyond no hull edge, `p` lies in the hull (or its tie band):
            // no axis separates anything through it.
            if !p_outside {
                return ControlFlow::Break(Stop::Unseparated);
            }
            // The segment's own normal: every hull vertex strictly on one
            // side of its line.
            let mut side = None;
            for &v in &hull[..edges] {
                meter.tick()?;
                let left = if beyond(p, q, v, self.eps) {
                    false
                } else if beyond(q, p, v, self.eps) {
                    true
                } else {
                    return ControlFlow::Break(Stop::Unseparated);
                };
                if *side.get_or_insert(left) != left {
                    return ControlFlow::Break(Stop::Unseparated);
                }
            }
            ControlFlow::Continue(())
        };
        let swept = parts(right, &mut |part| match part {
            Part::Point(v) => separate(v, v),
            Part::Chain(coords, _) => coords.segments().try_for_each(|(p, q)| separate(p, q)),
        });
        swept.is_continue()
    }
}

/// Why a sweep over the right side's parts stopped early.
enum Stop {
    /// A right point or segment lies inside the disc.
    Hit,
    /// A right vertex or segment is not separated from the hull.
    Unseparated,
    /// The decision's test budget is spent.
    Spent,
}

/// Counts a decision's tests against its budget.
struct Meter {
    examined: u64,
    budget: u64,
}

impl Meter {
    fn tick(&mut self) -> ControlFlow<Stop> {
        if self.examined == self.budget {
            return ControlFlow::Break(Stop::Spent);
        }
        self.examined += 1;
        ControlFlow::Continue(())
    }
}

/// One piece of a right-hand geometry as the pair tests see it.
#[derive(Clone, Copy)]
enum Part<'a> {
    Point(Point),
    /// A linestring or a polygon ring; `true` marks a hole ring.
    Chain(CoordsRef<'a>, bool),
}

/// Calls `f` on every part of `g` — points, linestrings, polygon rings
/// shell first — through members of every depth, until `f` breaks.
fn parts<'a, B>(g: &GeomRef<'a>, f: &mut impl FnMut(Part<'a>) -> ControlFlow<B>) -> ControlFlow<B> {
    match g {
        GeomRef::Point(p) => f(Part::Point(p.point())),
        GeomRef::LineString(l) => f(Part::Chain(l.coords(), false)),
        GeomRef::Polygon(p) => p
            .rings()
            .enumerate()
            .try_for_each(|(i, ring)| f(Part::Chain(ring, i > 0))),
        GeomRef::MultiPoint(m)
        | GeomRef::MultiLineString(m)
        | GeomRef::MultiPolygon(m)
        | GeomRef::GeometryCollection(m) => m.members().try_for_each(|g| parts(&g, f)),
    }
}

/// Squared distance from `p` to the segment `a..b`: the projection of
/// [`crate::algo::point_segment_distance`] without its square root.
fn segment_distance_sq(p: Point, a: Point, b: Point) -> f64 {
    let (dx, dy) = (b.x - a.x, b.y - a.y);
    let len_sq = dx * dx + dy * dy;
    let t = if len_sq == 0.0 {
        0.0
    } else {
        (((p.x - a.x) * dx + (p.y - a.y) * dy) / len_sq).clamp(0.0, 1.0)
    };
    p.distance_sq(&Point::new(a.x + t * dx, a.y + t * dy))
}

/// `true` for a polygon, a multipolygon, and a collection holding either.
fn has_area(g: &GeomRef<'_>) -> bool {
    match g {
        GeomRef::Polygon(_) | GeomRef::MultiPolygon(_) => true,
        GeomRef::GeometryCollection(c) => c.members().any(|m| has_area(&m)),
        _ => false,
    }
}

/// `true` when `v` lies strictly right of the directed line `a → b` —
/// outside a counter-clockwise hull edge — by more than the tie band: the
/// rounding bound of the cross product (relative [`TIE`]) plus the
/// distance `eps`, scaled by the edge's length.
fn beyond(a: Point, b: Point, v: Point, eps: f64) -> bool {
    let (ex, ey) = (b.x - a.x, b.y - a.y);
    let (left, right) = (ex * (v.y - a.y), ey * (v.x - a.x));
    left - right < -(TIE * (left.abs() + right.abs()) + eps * (ex.abs() + ey.abs()))
}

/// Appends the convex hull of `sorted` (points ordered by x, then y) to
/// `hull`: Andrew's monotone chain, lower chain then upper chain, so the
/// hull runs counter-clockwise and ends on its first vertex. Collinear and
/// repeated points are dropped.
fn monotone_chain(sorted: &[Point], hull: &mut Vec<Point>) {
    let turns_left = |hull: &[Point], p: Point| {
        let (o, a) = (hull[hull.len() - 2], hull[hull.len() - 1]);
        (a.x - o.x) * (p.y - o.y) - (a.y - o.y) * (p.x - o.x) > 0.0
    };
    let start = hull.len();
    for &p in sorted {
        while hull.len() >= start + 2 && !turns_left(hull, p) {
            hull.pop();
        }
        hull.push(p);
    }
    let lower = hull.len() + 1;
    for &p in sorted.iter().rev().skip(1) {
        while hull.len() >= lower && !turns_left(hull, p) {
            hull.pop();
        }
        hull.push(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wkb;
    use crate::wkt;

    fn flat(coords: &[(f64, f64)]) -> Vec<u8> {
        let mut out = Vec::new();
        for &(x, y) in coords {
            out.extend_from_slice(&x.to_le_bytes());
            out.extend_from_slice(&y.to_le_bytes());
        }
        out
    }

    #[test]
    fn coords_envelope_matches_sequential_fold_for_every_remainder() {
        // 0..=9 points covers every 4-lane remainder class, including the
        // empty slice.
        for n in 0..10usize {
            let pts: Vec<(f64, f64)> = (0..n)
                .map(|i| {
                    let k = i as f64;
                    ((k * 37.0) % 11.0 - 5.0, (k * 17.0) % 7.0 - 3.0)
                })
                .collect();
            let data = flat(&pts);
            let expect = Rect::from_points(
                &pts.iter()
                    .map(|&(x, y)| Point::new(x, y))
                    .collect::<Vec<_>>(),
            );
            assert_eq!(coords_envelope(&data, false), expect, "n = {n}");
        }
    }

    #[test]
    fn coords_envelope_reads_big_endian() {
        let mut data = Vec::new();
        for v in [3.0f64, -1.0, -2.0, 4.0] {
            data.extend_from_slice(&v.to_be_bytes());
        }
        assert_eq!(
            coords_envelope(&data, true),
            Rect::new(-2.0, -1.0, 3.0, 4.0)
        );
    }

    #[test]
    fn filter_pairs_batch_rejects_by_mbr_then_claim() {
        let left = [Rect::new(0.0, 0.0, 1.0, 1.0), Rect::new(5.0, 5.0, 6.0, 6.0)];
        let right = [
            Rect::new(0.5, 0.5, 2.0, 2.0),
            Rect::new(9.0, 9.0, 10.0, 10.0),
        ];
        let candidates = [(0, 0), (0, 1), (1, 0), (1, 1)];
        let mut out = Vec::new();
        // Claim everything: only MBR overlap filters.
        filter_pairs_batch(&candidates, &left, &right, |_, _| true, &mut out);
        assert_eq!(out, vec![(0, 0)]);
        // Claim nothing: the claim hook can veto an overlapping pair.
        filter_pairs_batch(&candidates, &left, &right, |_, _| false, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn arena_materializes_equal_geometry_and_recycles_buffers() {
        let samples = [
            "POINT (3 4)",
            "LINESTRING (0 0, 2 2, 4 0)",
            "POLYGON ((35 10, 45 45, 15 40, 10 20, 35 10), (20 30, 35 35, 30 20, 20 30))",
            "MULTIPOINT ((1 2), (3 4))",
            "MULTILINESTRING ((0 0, 1 1), (2 2, 3 3))",
            "MULTIPOLYGON (((30 20, 45 40, 10 40, 30 20)))",
            "GEOMETRYCOLLECTION (POINT (40 10), LINESTRING (10 10, 20 20))",
        ];
        let mut arena = RefineArena::new();
        for s in samples {
            let owned = wkt::parse(s).unwrap();
            let bytes = wkb::encode(&owned);
            let (view, _) = wkb::decode_ref(&bytes).unwrap();
            // Two materialize/recycle cycles per sample: the second pass
            // must not create any new buffers.
            for _ in 0..2 {
                let m = arena.materialize(&view);
                assert_eq!(m, owned, "{s}");
                arena.recycle(m);
            }
        }
        let after_first_sweep = arena.buffers_created();
        for s in samples {
            let owned = wkt::parse(s).unwrap();
            let bytes = wkb::encode(&owned);
            let (view, _) = wkb::decode_ref(&bytes).unwrap();
            let m = arena.materialize(&view);
            arena.recycle(m);
        }
        assert_eq!(
            arena.buffers_created(),
            after_first_sweep,
            "second sweep must run entirely from the pool"
        );
        // Nothing is lent out between pairs, so the resident peak stays at
        // the widest single geometry (collection of 2 + spare), far below
        // the record count.
        assert!(arena.peak_resident() <= 4, "{}", arena.peak_resident());
    }

    /// Decides `right` against `left` (both WKT) with a fresh table.
    fn decide(left: &str, right: &str) -> (Option<bool>, u64) {
        let (l, r) = (
            wkb::encode(&wkt::parse(left).unwrap()),
            wkb::encode(&wkt::parse(right).unwrap()),
        );
        let mut table = ApproxTable::new(1);
        table.prepare(0, &wkb::decode_ref(&l).unwrap().0);
        table.decide(0, &wkb::decode_ref(&r).unwrap().0)
    }

    /// An eight-pointed star around the origin: outer radius 4, inner 2.
    fn star() -> String {
        let mut ring: Vec<String> = (0..16)
            .map(|i| {
                let (a, r) = (i as f64 * std::f64::consts::PI / 8.0, [4.0, 2.0][i % 2]);
                format!("{} {}", r * a.cos(), r * a.sin())
            })
            .collect();
        ring.push(ring[0].clone());
        format!("POLYGON (({}))", ring.join(", "))
    }

    #[test]
    fn disc_proves_hits_and_hull_proves_misses() {
        let star = star();
        // Deep inside: a vertex, and a segment through the centre whose
        // ends are both outside the disc.
        assert_eq!(decide(&star, "POINT (0.3 -0.2)").0, Some(true));
        assert_eq!(decide(&star, "LINESTRING (-3 0.1, 3 -0.1)").0, Some(true));
        assert_eq!(
            decide(
                &star,
                "MULTIPOLYGON (((9 9, 10 9, 10 10, 9 9)), ((0 0, 0.5 0, 0.5 0.5, 0 0)))"
            )
            .0,
            Some(true)
        );
        // In the envelope's corner, beyond the hull: a point, a line
        // crossing the diagonal, a small polygon.
        assert_eq!(decide(&star, "POINT (3.6 3.6)").0, Some(false));
        assert_eq!(
            decide(&star, "LINESTRING (3.2 3.9, 3.9 3.2)").0,
            Some(false)
        );
        assert_eq!(
            decide(&star, "POLYGON ((3.5 3.5, 3.9 3.5, 3.9 3.9, 3.5 3.5))").0,
            Some(false)
        );
        // A line around the hull corner (4, 0): no hull edge separates
        // both segments, each has its own axis.
        assert_eq!(
            decide(&star, "LINESTRING (4.3 -2.5, 4.6 0, 4.3 2.5)").0,
            Some(false)
        );
        // Open: a spike crossing and a notch (inside the hull, outside
        // the polygon), which only the exact test can tell apart.
        assert_eq!(decide(&star, "LINESTRING (3.5 -0.2, 4.5 0.2)").0, None);
        assert_eq!(decide(&star, "POINT (2.4 1)").0, None);
        // A polygon containing the hull is never a proven miss.
        let around = "POLYGON ((-9 -9, 9 -9, 9 9, -9 9, -9 -9), (-5 -5, -5 5, 5 5, 5 -5, -5 -5))";
        assert_eq!(decide(&star, around).0, None);
    }

    #[test]
    fn only_polygons_with_area_get_approximations() {
        // Not a polygon; a zero-area ring; an empty right side.
        assert_eq!(decide("LINESTRING (0 0, 4 4)", "POINT (1 1)"), (None, 0));
        assert_eq!(
            decide("POLYGON ((0 0, 1 1, 2 2, 0 0))", "POINT (1 1)"),
            (None, 0)
        );
        assert_eq!(decide(&star(), "GEOMETRYCOLLECTION EMPTY"), (None, 0));
        // The centroid sits in the hole: no disc, but the hull still
        // proves a miss.
        let holed = "POLYGON ((-4 -4, 4 -4, 4 4, -4 4, -4 -4), (-1 -1, -1 1, 1 1, 1 -1, -1 -1))";
        assert_eq!(decide(holed, "POINT (0 0)").0, None);
        assert_eq!(decide(holed, "POINT (5 0)").0, Some(false));
        // The centroid is a vertex of a notched square: no disc.
        let notched = "POLYGON ((0 0, 3 -3, 3 3, -3 3, -3 -3, 0 0))";
        assert_eq!(decide(notched, "POINT (0 1)").0, None);
    }

    #[test]
    fn prepare_builds_once_and_the_hull_drops_collinear_points() {
        let square =
            wkb::encode(&wkt::parse("POLYGON ((0 0, 1 0, 2 0, 2 2, 0 2, 0 1, 0 0))").unwrap());
        let view = wkb::decode_ref(&square).unwrap().0;
        let mut table = ApproxTable::new(2);
        assert!(table.hull(0).is_empty());
        // 7 hull candidates: sort 7·3, two chains 14, centroid 6,
        // point-in-polygon 7, radius 7.
        assert_eq!(table.prepare(0, &view), 21 + 14 + 6 + 7 + 7);
        assert_eq!(table.prepare(0, &view), 0);
        let corners = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0), (0.0, 0.0)];
        let expect: Vec<Point> = corners.iter().map(|&(x, y)| Point::new(x, y)).collect();
        assert_eq!(table.hull(0), expect.as_slice());
        // A second frame appends its own hull.
        table.prepare(1, &view);
        assert_eq!(table.hull(1), expect.as_slice());
    }

    #[test]
    fn arena_materializes_unclosed_ring_like_owned_decode() {
        // Hand-built WKB: polygon whose ring is NOT closed on the wire;
        // the owned decode auto-closes, and the arena's rebuild must match.
        let mut buf = vec![1u8];
        buf.extend_from_slice(&3u32.to_le_bytes()); // polygon
        buf.extend_from_slice(&1u32.to_le_bytes()); // 1 ring
        buf.extend_from_slice(&3u32.to_le_bytes()); // 3 wire points
        for v in [0.0f64, 0.0, 4.0, 0.0, 0.0, 4.0] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        let (owned, _) = wkb::decode(&buf).unwrap();
        let (view, _) = wkb::decode_ref(&buf).unwrap();
        let mut arena = RefineArena::new();
        assert_eq!(arena.materialize(&view), owned);
        assert_eq!(view.num_points(), owned.num_points());
        assert_eq!(view.envelope(), owned.envelope());
    }
}
