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
//! * [`ApproxTable`] — the approximation step between filter and refine
//!   (Brinkhoff, Kriegel, Schneider & Seeger, "Multi-step processing of
//!   spatial joins", SIGMOD '94): per left polygon an inner disc and the
//!   convex hull, which prove most surviving pairs to be hits or misses
//!   with a few coordinate compares, then a right vertex located inside
//!   the polygon, which proves most of the hits the disc leaves open, and
//!   last a raster of the polygon (Zimbrao & de Souza, "A raster
//!   approximation for processing of spatial joins", VLDB '98), whose
//!   interior and exterior cells settle about half of what is left, so
//!   only the rest pay the exact test.
//!
//! The exact test needs no kernel: the [`crate::algo`] predicates read
//! the views directly, so no geometry is built from the wire bytes.
//!
//! Every kernel is value-compatible with the owned path: envelopes use the
//! same `f64::min`/`f64::max` folds as `Rect::expand_point`. The
//! approximation step never contradicts [`crate::algo::intersects`]: it
//! answers only outside a tie band around each of its thresholds, and its
//! vertex step and its raster's miss rule locate with the exact test's own
//! point-in-polygon code.

use crate::algo::{locate_in_rings, Coords, Part, PointLocation, Shape};
use crate::point::Point;
use crate::rect::Rect;
use crate::wkb::{GeomRef, PolygonRef};
use std::cell::Cell;
use std::ops::{ControlFlow, Range};

/// MBR of a flat coordinate slice (16 bytes per point: x then y, in the
/// given byte order), computed with four independent accumulator lanes.
///
/// The lanes carry no sequential dependency across points, so the 4-wide
/// body auto-vectorizes; the final merge unions the lanes. The folds are
/// the same `f64::min`/`f64::max` as `Rect::expand_point`, so the result
/// equals (under `==`) the owned `Rect::from_points` over the same
/// coordinates. An empty slice yields [`Rect::EMPTY`].
pub fn coords_envelope(data: &[u8], be: bool) -> Rect {
    let expand = |lane: &mut Rect, c: &[u8]| {
        // audit: `c` is a 16-byte chunk: its first 8 bytes are x, its last y.
        let (x, y) = (*c.first_chunk().expect("x"), *c.last_chunk().expect("y"));
        let (x, y) = if be {
            (f64::from_be_bytes(x), f64::from_be_bytes(y))
        } else {
            (f64::from_le_bytes(x), f64::from_le_bytes(y))
        };
        lane.min_x = lane.min_x.min(x);
        lane.min_y = lane.min_y.min(y);
        lane.max_x = lane.max_x.max(x);
        lane.max_y = lane.max_y.max(y);
    };
    let mut lanes = [Rect::EMPTY; 4];
    let quads = data.chunks_exact(64);
    let rest = quads.remainder();
    for quad in quads {
        for (lane, c) in lanes.iter_mut().zip(quad.chunks_exact(16)) {
            expand(lane, c);
        }
    }
    for c in rest.chunks_exact(16) {
        expand(&mut lanes[0], c);
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
    /// The hull's MBR, which is every ring's: the vertex step's rejection.
    envelope: Rect,
    /// The edges of every ring: what locating one right vertex may visit.
    edges: u64,
    /// Index of the frame's raster in [`ApproxTable::rasters`], once a
    /// pair has walked it since the table's rasters were last cleared.
    raster: Option<u32>,
}

/// Rows, and columns, of a left polygon's raster.
const CELLS: usize = 32;

/// Steepest slope, `|dx| / |dy|`, at which a segment is clipped to a
/// raster row by interpolating its x: past it the rounding of the
/// interpolation could exceed the tie band, so a shallow segment counts
/// with its whole x-extent where that only widens what it meets, and
/// proves no hit in a row it does not lie in wholly.
const SHALLOW: f64 = 1e3;

/// A left polygon's raster: `CELLS × CELLS` cells over its envelope grown
/// by the tie band, each row classified the first time a right segment
/// reaches it. A cell within the tie band of a ring edge is *boundary*;
/// every other cell lies wholly on one side of every ring, so the
/// crossing parity of the row's centre line at it says whether it is
/// *interior* (inside the shell and outside every hole) or *exterior*.
/// A pair walks a few rows of a frame, so the classified rows live in
/// one pool, [`ApproxTable::rows`], and the raster holds their places.
#[derive(Debug, Clone, Copy)]
struct Raster {
    /// The frame whose raster this is.
    frame: usize,
    /// Per row, its place in the pool plus one; 0 until classified.
    rows: [u16; CELLS],
}

/// One classified raster row.
#[derive(Debug, Clone, Copy)]
struct Row {
    /// Bit `c` is set when cell `c` is interior.
    interior: u32,
    /// Bit `c` is set when cell `c` is boundary.
    boundary: u32,
}

/// Where a raster's cells lie: `CELLS` columns from `x0`, `per_w` of
/// them per unit, and `CELLS` rows of height `h` from `y0`, `per_h` per
/// unit, so that locating a coordinate multiplies.
#[derive(Debug, Clone, Copy)]
struct Grid {
    x0: f64,
    y0: f64,
    h: f64,
    per_w: f64,
    per_h: f64,
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
/// * **hit, when the two above leave the pair open** — a right vertex
///   inside or on the left polygon: every vertex of every point, line,
///   shell and member in order, rejected first by the left envelope and
///   then located by the crossing-number test the exact test uses, left
///   holes included. A right shell vertex is a point of the right side,
///   so the first one located proves the hit, and none located proves
///   nothing. A right hole's vertex is not walked: nothing makes a hole
///   lie inside its shell;
/// * **hit, when the vertex step leaves the pair open** — a right segment
///   (for a right polygon, of its shell) that meets an interior cell of
///   the left polygon's raster, shrunk by the tie band;
/// * **miss, when the vertex step leaves the pair open** — every right
///   point and segment, grown by the tie band, meets only exterior cells
///   (or no cell); a right side with area also needs the left shell's
///   first vertex, which is where the exact test looks for containment,
///   located outside each of its polygons (and inside one, it proves the
///   hit);
/// * everything else — left sides that are not polygons, degenerate
///   rings, ties — returns `None` and goes to the exact test.
///
/// Storage is five flat arrays (one slot per frame, the hulls, a sort
/// buffer, the rasters and their rows), so building costs no allocation
/// per frame. The rasters are a cache: [`ApproxTable::clear_rasters`]
/// empties it, and the rows a later pair needs are classified again.
#[derive(Debug, Default)]
pub struct ApproxTable {
    slots: Vec<Option<Approx>>,
    hull: Vec<Point>,
    sorted: Vec<Point>,
    rasters: Vec<Raster>,
    rows: Vec<Row>,
}

/// What [`ApproxTable::decide`] found for one pair, and what it cost.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// `Some(true)` is a proven hit and `Some(false)` a proven miss,
    /// both equal to what [`crate::algo::intersects`] returns; `None`
    /// leaves the pair to the exact test.
    pub outcome: Option<bool>,
    /// The tests examined deciding: never more than the right side's
    /// vertices times the left polygon's edges.
    pub examined: u64,
    /// The raster rows classified for this pair, which later pairs on
    /// the frame reuse: each row's `CELLS` cells, and every left edge
    /// once per pass that classifies rows. Paid once per row, like the
    /// hull, so not under the bound of `examined`.
    pub classified: u64,
}

impl ApproxTable {
    /// Empties the table for `frames` new left frames, none built yet,
    /// keeping the capacity of its buffers.
    pub fn reset(&mut self, frames: usize) {
        self.slots.clear();
        self.slots.resize(frames, None);
        self.hull.clear();
        self.rasters.clear();
        self.rows.clear();
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
        let n = shell.num_points() - 1;
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
            envelope,
            edges: m - p.num_rings() as u64,
            raster: None,
        };
        (approx, touched)
    }

    /// Decides the pair (frame `i`, `right`) from the approximations
    /// [`ApproxTable::prepare`] built for frame `i`, whose view is `left`.
    /// Examines one test per right point or segment measured against the
    /// disc, per right vertex placed against a hull edge, per hull vertex
    /// placed against a right segment's line, per right vertex the left
    /// envelope rejects, per left edge visited locating a right vertex,
    /// per right point or segment off the raster, per raster row a right
    /// segment walks, and per right edge visited locating the left
    /// vertex. The disc and the hull give up with `None` where they would
    /// exceed the right side's vertices times the hull's edges, and the
    /// whole decision, the vertex and raster steps included, where it
    /// would exceed the right side's vertices times the left polygon's
    /// edges — never more vertex pairs than the exact test's own sweep
    /// compares. A vertex is located only when the budget left pays for a
    /// walk over every left edge, and the left vertex only when it pays
    /// for every right edge.
    pub fn decide(&mut self, i: usize, left: &GeomRef<'_>, right: &GeomRef<'_>) -> Decision {
        let Some(approx) = &mut self.slots[i] else {
            return Decision::default();
        };
        let hull = &self.hull[approx.hull.clone()];
        let budget = right.num_points() as u64 * hull.len().saturating_sub(1) as u64;
        // No hull, or a right side without a vertex: nothing to decide on.
        if budget == 0 {
            return Decision::default();
        }
        let mut meter = Meter {
            examined: 0,
            budget,
        };
        let mut classified = 0;
        let mut outcome = approx.decide(hull, right, &mut meter);
        if let (None, GeomRef::Polygon(p)) = (outcome, left) {
            meter.budget = right.num_points() as u64 * approx.edges;
            outcome = approx.vertex_inside(p, right, &mut meter).then_some(true);
            if outcome.is_none() {
                let rasters = &mut self.rasters;
                let k = *approx.raster.get_or_insert_with(|| {
                    rasters.push(Raster {
                        frame: i,
                        rows: [0; CELLS],
                    });
                    // audit: one cell holds far fewer than 2^32 frames.
                    (rasters.len() - 1) as u32
                });
                let (raster, rows) = (&mut rasters[k as usize], &mut self.rows);
                (outcome, classified) = approx.raster_decides(raster, rows, p, right, &mut meter);
            }
        }
        Decision {
            outcome,
            examined: meter.examined,
            classified,
        }
    }

    /// Empties the raster cache: every frame's rows are classified again
    /// when a later pair walks them. The join clears it between the
    /// survivors of two cells, which share no left frame, so the cache
    /// holds at most one cell's rasters.
    pub fn clear_rasters(&mut self) {
        for raster in self.rasters.drain(..) {
            if let Some(approx) = &mut self.slots[raster.frame] {
                approx.raster = None;
            }
        }
        self.rows.clear();
    }
}

impl Approx {
    /// No approximations: an empty hull and no disc.
    const NONE: Approx = Approx {
        centre: Point::new(0.0, 0.0),
        radius: 0.0,
        hull: 0..0,
        eps: 0.0,
        envelope: Rect::EMPTY,
        edges: 0,
        raster: None,
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
        let mut inside = |distance_sq: f64| {
            meter.tick()?;
            if distance_sq < r2 {
                return ControlFlow::Break(Stop::Hit);
            }
            ControlFlow::Continue(())
        };
        right.form().parts(&mut |part| {
            let chain = match part {
                Part::Point(v) => return inside(v.distance_sq(&c)),
                Part::Line(coords) => *coords,
                Part::Polygon(rings) => match rings.clone().next() {
                    Some(shell) => shell,
                    None => return ControlFlow::Continue(()),
                },
            };
            chain
                .segments()
                .try_for_each(|(a, b)| inside(segment_distance_sq(c, a, b)))
        })
    }

    /// `true` when one hull edge has every right vertex beyond it.
    fn one_axis_separates(&self, hull: &[Point], right: &GeomRef<'_>, meter: &mut Meter) -> bool {
        for edge in hull.windows(2) {
            let swept = each_vertex(right, true, &mut |v| {
                meter.tick()?;
                if beyond(edge[0], edge[1], v, self.eps) {
                    ControlFlow::Continue(())
                } else {
                    ControlFlow::Break(Stop::Unseparated)
                }
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
        let swept = right.form().parts(&mut |part| match part {
            Part::Point(v) => separate(*v, *v),
            Part::Line(coords) => coords.segments().try_for_each(|(p, q)| separate(p, q)),
            Part::Polygon(rings) => rings
                .clone()
                .flat_map(Coords::segments)
                .try_for_each(|(p, q)| separate(p, q)),
        });
        swept.is_continue()
    }

    /// `true` at the first right vertex, in order and hole rings skipped,
    /// inside or on `left`. Charges one test per vertex outside the left
    /// envelope and the left edges visited locating each other one, and
    /// gives up when the budget left cannot pay for every left edge.
    fn vertex_inside(&self, left: &PolygonRef<'_>, right: &GeomRef<'_>, meter: &mut Meter) -> bool {
        let located = each_vertex(right, false, &mut |v| {
            if !self.envelope.contains_point(&v) {
                return meter.tick();
            }
            meter.afford(self.edges)?;
            let visited = &Cell::new(0);
            let edges = left.rings().map(|r| {
                r.segments()
                    .inspect(move |_| visited.set(visited.get() + 1))
            });
            let at = locate_in_rings(v, edges);
            meter.examined += visited.get();
            match at {
                PointLocation::Outside => ControlFlow::Continue(()),
                _ => ControlFlow::Break(Stop::Hit),
            }
        });
        matches!(located, ControlFlow::Break(Stop::Hit))
    }

    /// The raster step: walks every right point and segment over the rows
    /// of `raster` it reaches, classifying each row the first time into
    /// `rows` (and giving up should the pool outgrow the places). A
    /// shell segment meeting an interior cell shrunk by the tie band is a
    /// hit; grown by the band, every part meeting only exterior cells is a
    /// miss, for a right side with area once the left vertex is located
    /// outside each of its polygons. Charges a test per point or segment
    /// off the raster, per row walked and per right edge visited
    /// locating; returns the outcome and the cells and left edges it
    /// classified.
    fn raster_decides(
        &self,
        raster: &mut Raster,
        rows: &mut Vec<Row>,
        left: &PolygonRef<'_>,
        right: &GeomRef<'_>,
        meter: &mut Meter,
    ) -> (Option<bool>, u64) {
        let Some(grid) = Grid::over(&self.envelope, self.eps) else {
            return (None, 0);
        };
        let (eps, mut classified, mut clear) = (self.eps, 0, true);
        let mut walk = |p: Point, q: Point, shell: bool| {
            // A hole's segment cannot prove a hit: past the first
            // non-exterior cell there is nothing left for it to show.
            if !(clear || shell) {
                return ControlFlow::Continue(());
            }
            let reached = grid.rows(p.y.min(q.y) - eps, p.y.max(q.y) + eps);
            if reached.is_empty() || grid.cols(p.x.min(q.x) - eps, p.x.max(q.x) + eps) == 0 {
                return meter.tick();
            }
            // The rows the budget lets this segment walk, classified in
            // one pass over the left edges where not classified before.
            let walkable = reached.start..reached.end.min(reached.start + meter.left());
            let need = walkable
                .filter(|&r| raster.rows[r] == 0)
                .fold(0u32, |m, r| m | 1 << r);
            if need != 0 {
                if rows.len() + need.count_ones() as usize > usize::from(u16::MAX) {
                    return ControlFlow::Break(Stop::Spent);
                }
                classified += Row::classify(&grid, eps, left, need, |r, row| {
                    rows.push(row);
                    // audit: the pool holds at most u16::MAX rows (checked above).
                    raster.rows[r] = rows.len() as u16;
                });
            }
            for r in reached {
                meter.tick()?;
                let Row { interior, boundary } = rows[usize::from(raster.rows[r]) - 1];
                let (lo, hi) = grid.row(r);
                let met = band_x(p, q, lo - eps, hi + eps, true)
                    .map_or(0, |(a, b)| grid.cols(a - eps, b + eps));
                if met & (interior | boundary) == 0 {
                    continue;
                }
                clear = false;
                let inside = shell && met & interior != 0;
                if let Some((a, b)) = band_x(p, q, lo + eps, hi - eps, false).filter(|_| inside) {
                    if grid.cols(a + eps, b - eps) & interior != 0 {
                        return ControlFlow::Break(Stop::Hit);
                    }
                }
            }
            ControlFlow::Continue(())
        };
        let swept = right.form().parts(&mut |part| match part {
            Part::Point(v) => walk(*v, *v, true),
            Part::Line(coords) => coords.segments().try_for_each(|(p, q)| walk(p, q, true)),
            Part::Polygon(rings) => rings.clone().enumerate().try_for_each(|(k, ring)| {
                ring.segments().try_for_each(|(p, q)| walk(p, q, k == 0))
            }),
        });
        let outcome = match swept {
            ControlFlow::Break(Stop::Hit) => Some(true),
            ControlFlow::Break(_) => None,
            ControlFlow::Continue(()) if !clear => None,
            ControlFlow::Continue(()) if has_area(right) => {
                self.vertex_in_right(left.exterior().point(0), right, meter)
            }
            ControlFlow::Continue(()) => Some(false),
        };
        (outcome, classified)
    }

    /// Where the exact test looks for a right polygon around the left
    /// one: `v`, located in each polygon of `right` by the exact test's
    /// point-in-polygon code. `Some(true)` when it lies inside or on one,
    /// `Some(false)` when outside all, `None` when the budget left cannot
    /// pay for every edge of the next one.
    fn vertex_in_right(&self, v: Point, right: &GeomRef<'_>, meter: &mut Meter) -> Option<bool> {
        let located = right.form().parts(&mut |part| {
            let Part::Polygon(rings) = part else {
                return ControlFlow::Continue(());
            };
            let edges = rings.clone().map(|r| r.num_points() as u64 - 1).sum();
            meter.afford(edges)?;
            meter.examined += edges;
            match locate_in_rings(v, rings.clone().map(Coords::segments)) {
                PointLocation::Outside => ControlFlow::Continue(()),
                _ => ControlFlow::Break(Stop::Hit),
            }
        });
        match located {
            ControlFlow::Continue(()) => Some(false),
            ControlFlow::Break(Stop::Hit) => Some(true),
            ControlFlow::Break(_) => None,
        }
    }
}

impl Row {
    /// Classifies the rows in the mask `need` in one pass over every edge
    /// of `left`'s rings: a cell whose span, grown by `eps`, meets an edge
    /// is boundary, and every other is interior when its centre's ray
    /// along the row's centre line crosses the shell an odd number of
    /// times and every hole an even number. Hands each row to `store`,
    /// lowest first, and returns the cost: the rows' cells and the edges
    /// scanned.
    fn classify(
        grid: &Grid,
        eps: f64,
        left: &PolygonRef<'_>,
        need: u32,
        mut store: impl FnMut(usize, Row),
    ) -> u64 {
        let (first, last) = (
            need.trailing_zeros() as usize,
            31 - need.leading_zeros() as usize,
        );
        let (lo, hi) = (grid.row(first).0 - eps, grid.row(last).1 + eps);
        let (mut interior, mut boundary, mut odd) = ([0u32; CELLS], [0u32; CELLS], [0u32; CELLS]);
        let mut scanned = 0;
        for (k, ring) in left.rings().enumerate() {
            for (a, b) in ring.segments() {
                scanned += 1;
                let (ylo, yhi) = (a.y.min(b.y), a.y.max(b.y));
                if yhi < lo || ylo > hi {
                    continue;
                }
                for r in bits(mask(grid.rows(ylo - eps, yhi + eps)) & need) {
                    let (rlo, rhi) = grid.row(r);
                    if let Some((xa, xb)) = band_x(a, b, rlo - eps, rhi + eps, true) {
                        boundary[r] |= grid.cols(xa - eps, xb + eps);
                    }
                    // The crossing test of the exact point-in-polygon
                    // code, its crossing kept on the edge: the cells
                    // around it are boundary, so only its side of every
                    // other cell counts.
                    let centre = grid.y0 + (r as f64 + 0.5) * grid.h;
                    if (a.y > centre) != (b.y > centre) {
                        let x = a.x + (centre - a.y) / (b.y - a.y) * (b.x - a.x);
                        odd[r] ^= grid.centred_left_of(x.clamp(a.x.min(b.x), a.x.max(b.x)));
                    }
                }
            }
            for r in bits(need) {
                interior[r] = if k == 0 {
                    odd[r]
                } else {
                    interior[r] & !odd[r]
                };
                odd[r] = 0;
            }
        }
        for r in bits(need) {
            let row = Row {
                interior: interior[r] & !boundary[r],
                boundary: boundary[r],
            };
            store(r, row);
        }
        scanned + CELLS as u64 * u64::from(need.count_ones())
    }
}

impl Grid {
    /// The grid over `envelope` grown by `eps` on every side, so that
    /// nothing within the tie band of the polygon lies off it; `None`
    /// when a coordinate so large overflows it, which no pair decides
    /// on.
    fn over(envelope: &Rect, eps: f64) -> Option<Grid> {
        let w = (envelope.width() + 2.0 * eps) / CELLS as f64;
        let h = (envelope.height() + 2.0 * eps) / CELLS as f64;
        let grid = Grid {
            x0: envelope.min_x - eps,
            y0: envelope.min_y - eps,
            h,
            per_w: 1.0 / w,
            per_h: 1.0 / h,
        };
        let finite = [grid.x0, grid.y0, w, h, grid.per_w, grid.per_h];
        finite.iter().all(|v| v.is_finite()).then_some(grid)
    }

    /// The y-span of row `r`.
    fn row(&self, r: usize) -> (f64, f64) {
        (
            self.y0 + r as f64 * self.h,
            self.y0 + (r + 1) as f64 * self.h,
        )
    }

    /// The rows whose y-span meets `lo..=hi`.
    fn rows(&self, lo: f64, hi: f64) -> Range<usize> {
        spans(self.y0, self.per_h, lo, hi)
    }

    /// The columns whose x-span meets `lo..=hi`, as a mask. With `lo >
    /// hi`, the columns whose span holds `hi..=lo`.
    fn cols(&self, lo: f64, hi: f64) -> u32 {
        mask(spans(self.x0, self.per_w, lo, hi))
    }

    /// The columns whose centre lies left of `x`, as a mask.
    fn centred_left_of(&self, x: f64) -> u32 {
        let n = (-floor(0.5 - (x - self.x0) * self.per_w)).clamp(0, CELLS as i64);
        // audit: clamped to 0..=CELLS above.
        mask(0..n as usize)
    }
}

/// The cells `range` (within `0..CELLS`) as a mask.
fn mask(range: Range<usize>) -> u32 {
    if range.is_empty() {
        return 0;
    }
    // audit: a non-empty range within 0..CELLS has 1..=32 cells.
    (u32::MAX >> (u32::BITS - range.len() as u32)) << range.start
}

/// The indices of the set bits of `m`, lowest first.
fn bits(mut m: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let i = m.trailing_zeros() as usize;
        m &= m.wrapping_sub(1);
        (i < CELLS).then_some(i)
    })
}

/// The indices `k` in `0..CELLS` of the spans `[o + k/f, o + (k+1)/f]`
/// that reach `hi` from the left and `lo` from the right: for `lo ≤ hi`,
/// the spans that meet `lo..=hi`.
fn spans(o: f64, f: f64, lo: f64, hi: f64) -> Range<usize> {
    // ⌈(lo − o)·f⌉ − 1 and ⌊(hi − o)·f⌋, within the grid.
    let first = (-floor((o - lo) * f) - 1).max(0);
    let last = floor((hi - o) * f).min(CELLS as i64 - 1);
    if first > last {
        return 0..0;
    }
    // audit: both lie in 0..CELLS here.
    first as usize..last as usize + 1
}

/// `⌊v⌋`, saturating at the ends of `i64`: a conversion and a compare,
/// where `f64::floor` is a library call on the baseline x86-64 target.
fn floor(v: f64) -> i64 {
    let t = v as i64;
    t.saturating_sub(i64::from(t as f64 > v))
}

/// The x-extent of the part of the segment `p..q` in the band `lo ≤ y ≤
/// hi`, or `None` when the segment misses the band. A shallow segment
/// (see [`SHALLOW`]) only partly in the band counts with its whole
/// x-extent when `widen`, and as `None` otherwise.
fn band_x(p: Point, q: Point, lo: f64, hi: f64, widen: bool) -> Option<(f64, f64)> {
    let (ylo, yhi) = (p.y.min(q.y), p.y.max(q.y));
    if yhi < lo || ylo > hi {
        return None;
    }
    let whole = (p.x.min(q.x), p.x.max(q.x));
    if ylo >= lo && yhi <= hi {
        return Some(whole);
    }
    let (dx, dy) = (q.x - p.x, q.y - p.y);
    if dx.abs() > SHALLOW * dy.abs() {
        return widen.then_some(whole);
    }
    let slope = dx / dy;
    let at = |y: f64| p.x + (y.clamp(ylo, yhi) - p.y) * slope;
    let (a, b) = (at(lo), at(hi));
    // An overflow, on coordinates near the ends of `f64`, counts as
    // shallow.
    if !(a.is_finite() && b.is_finite()) {
        return widen.then_some(whole);
    }
    Some((a.min(b), a.max(b)))
}

/// Calls `f` on every vertex of `g` — of every part, ring (or only the
/// shell of each polygon, without `holes`) and member, in order — until
/// `f` breaks.
fn each_vertex(
    g: &GeomRef<'_>,
    holes: bool,
    f: &mut impl FnMut(Point) -> ControlFlow<Stop>,
) -> ControlFlow<Stop> {
    let rings = if holes { usize::MAX } else { 1 };
    g.form().parts(&mut |part| match part {
        Part::Point(v) => f(*v),
        Part::Line(coords) => coords.points().try_for_each(&mut *f),
        Part::Polygon(all) => all
            .clone()
            .take(rings)
            .flat_map(Coords::points)
            .try_for_each(&mut *f),
    })
}

/// Why a sweep over the right side's parts stopped early.
enum Stop {
    /// A right point or segment lies inside the disc, or a right vertex
    /// inside the polygon.
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

    /// The tests left in the budget, at most a raster's rows.
    fn left(&self) -> usize {
        // audit: at most CELLS.
        (self.budget - self.examined).min(CELLS as u64) as usize
    }

    /// Breaks with [`Stop::Spent`] unless `n` more tests fit the budget.
    fn afford(&self, n: u64) -> ControlFlow<Stop> {
        if self.examined + n > self.budget {
            return ControlFlow::Break(Stop::Spent);
        }
        ControlFlow::Continue(())
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

    /// Decides `right` against `left` (both WKT) with a fresh table.
    fn decide(left: &str, right: &str) -> (Option<bool>, u64) {
        let (l, r) = (
            wkb::encode(&wkt::parse(left).unwrap()),
            wkb::encode(&wkt::parse(right).unwrap()),
        );
        let mut table = ApproxTable::default();
        table.reset(1);
        let left = wkb::decode_ref(&l).unwrap().0;
        table.prepare(0, &left);
        let d = table.decide(0, &left, &wkb::decode_ref(&r).unwrap().0);
        (d.outcome, d.examined)
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
        // Open: a segment crossing a spike near its tip, where every
        // cell is boundary, which only the exact test can settle.
        assert_eq!(decide(&star, "LINESTRING (3.5 -0.2, 4.5 0.2)").0, None);
    }

    #[test]
    fn the_raster_settles_what_the_vertex_step_leaves_open() {
        let star = star();
        for (right, hit) in [
            // In a notch, inside the hull: its cells are exterior.
            ("POINT (2.4 1)", false),
            ("LINESTRING (2.5 0.9, 2.6 1.2)", false),
            // Across a spike, both ends in the notches beside it: no
            // vertex is inside, but the segment crosses interior cells.
            ("LINESTRING (2.8 -0.6, 2.8 0.6)", true),
            // A polygon around the star, with the star in its hole: no
            // right edge reaches the raster, and the star's first vertex
            // lies in the hole. Without the hole, that vertex proves the
            // hit.
            (
                "POLYGON ((-9 -9, 9 -9, 9 9, -9 9, -9 -9), (-5 -5, -5 5, 5 5, 5 -5, -5 -5))",
                false,
            ),
            ("POLYGON ((-9 -9, 9 -9, 9 9, -9 9, -9 -9))", true),
        ] {
            let exact =
                crate::algo::intersects(&wkt::parse(&star).unwrap(), &wkt::parse(right).unwrap());
            assert_eq!(exact, hit, "{right}");
            assert_eq!(decide(&star, right).0, Some(hit), "{right}");
        }
    }

    #[test]
    fn a_grid_that_overflows_decides_nothing() {
        // The square's width overflows to infinity: it gets no raster,
        // and a line across it stays with the exact test.
        let square =
            "POLYGON ((-1e308 -1e308, 1e308 -1e308, 1e308 1e308, -1e308 1e308, -1e308 -1e308))";
        assert_eq!(decide(square, "LINESTRING (-1.5e308 0, 1.5e308 1)").0, None);
    }

    #[test]
    fn a_raster_row_is_classified_once_per_frame_until_cleared() {
        let (star, right) = (star(), "LINESTRING (2.8 -0.6, 2.8 0.6)");
        let (l, r) = (
            wkb::encode(&wkt::parse(&star).unwrap()),
            wkb::encode(&wkt::parse(right).unwrap()),
        );
        let (left, right) = (
            wkb::decode_ref(&l).unwrap().0,
            wkb::decode_ref(&r).unwrap().0,
        );
        let mut table = ApproxTable::default();
        table.reset(1);
        table.prepare(0, &left);
        // The segment reaches six rows, classified in one pass over the
        // star's 16 edges: the edges once, and each row's 32 cells.
        let first = table.decide(0, &left, &right);
        assert_eq!(first.outcome, Some(true));
        assert_eq!(first.classified, 16 + 6 * 32, "{first:?}");
        // The same rows again: walked and charged as tests, not built.
        let second = table.decide(0, &left, &right);
        assert_eq!(
            second,
            Decision {
                classified: 0,
                ..first
            }
        );
        // Cleared, the rows are classified afresh.
        table.clear_rasters();
        assert_eq!(table.decide(0, &left, &right), first);
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
        // proves a miss, and the raster's exterior cells one in the hole.
        let holed = "POLYGON ((-4 -4, 4 -4, 4 4, -4 4, -4 -4), (-1 -1, -1 1, 1 1, 1 -1, -1 -1))";
        assert_eq!(decide(holed, "POINT (5 0)").0, Some(false));
        assert_eq!(decide(holed, "POINT (0 0)").0, Some(false));
        // The centroid is a vertex of a notched square: no disc, so a line
        // passing it at 0.5 with one end in the notch and one beyond the
        // hull is left to the exact test: the hull's tests and one vertex
        // located spend its budget before the raster walks a row.
        let notched = "POLYGON ((0 0, 3 -3, 3 3, -3 3, -3 -3, 0 0))";
        assert_eq!(
            decide(notched, "LINESTRING (-0.5 -2.5, -0.5 5)"),
            (None, 10)
        );
    }

    #[test]
    fn a_right_vertex_inside_the_polygon_proves_the_hit() {
        // Centroid in the hole: no disc, 8 left edges. A point inside the
        // hull costs its four edges, then the vertex step: one test per
        // vertex outside the envelope, and the edges visited per vertex
        // located — the shell's four, then the hole's up to the one it
        // lies on. Two right vertices allow 2 × 8 tests in all.
        let holed = "POLYGON ((-4 -4, 4 -4, 4 4, -4 4, -4 -4), (-1 -1, -1 1, 1 1, 1 -1, -1 -1))";
        assert_eq!(
            decide(holed, "MULTIPOINT ((2 2), (9 9))"),
            (Some(true), 4 + 8)
        );
        // A point in the hole: located outside, and then the raster
        // proves the miss, walking the two rows its row edge touches, and
        // one test for the point off the raster.
        assert_eq!(
            decide(holed, "MULTIPOINT ((0.5 0), (9 9))"),
            (Some(false), 4 + 8 + 1 + 2 + 1)
        );
        assert_eq!(
            decide(holed, "MULTIPOINT ((1 0), (9 9))"),
            (Some(true), 4 + 7)
        );
        assert_eq!(
            decide(holed, "MULTIPOINT ((4 1), (9 9))"),
            (Some(true), 4 + 2)
        );
        // The first vertex is beyond the envelope (and a hull edge), the
        // second inside: 2 + 4 hull tests, then 1 + 8.
        assert_eq!(
            decide(holed, "MULTIPOINT ((9 -2), (2 2))"),
            (Some(true), 6 + 9)
        );
        // A vertex is located only when the budget left pays for all 8
        // edges: after the hull's 4, one point allows none, and two allow
        // one location. The raster then walks each point's two rows, but
        // (2, 2) lies within the tie band of a cell corner, so no interior
        // cell shrunk by the band holds it.
        assert_eq!(decide(holed, "POINT (2 2)"), (None, 4 + 2));
        assert_eq!(
            decide(holed, "MULTIPOINT ((0.5 0), (2 2))"),
            (None, 4 + 8 + 2 + 2)
        );
        // A spike of the star, entered from outside: the disc and hull
        // leave it open, the end inside the spike proves it, also as a
        // collection's last vertex.
        let star = star();
        assert_eq!(decide(&star, "LINESTRING (3.5 0, 4.5 0.2)").0, Some(true));
        assert_eq!(
            decide(
                &star,
                "GEOMETRYCOLLECTION (POINT (2.4 1), LINESTRING (4.5 0.2, 3.5 0))"
            )
            .0,
            Some(true)
        );
        // A hole outside its shell: its vertex inside the square proves
        // nothing, and the exact test finds no intersection.
        let (square, stray) = (
            "POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))",
            "POLYGON ((-5 2, 2 -5, 3 -5, -5 2), (0.2 0.2, 0.8 0.2, 0.5 0.8, 0.2 0.2))",
        );
        assert_eq!(decide(square, stray).0, None);
        let exact =
            crate::algo::intersects(&wkt::parse(square).unwrap(), &wkt::parse(stray).unwrap());
        assert!(!exact);
    }

    #[test]
    fn prepare_builds_once_and_the_hull_drops_collinear_points() {
        let square =
            wkb::encode(&wkt::parse("POLYGON ((0 0, 1 0, 2 0, 2 2, 0 2, 0 1, 0 0))").unwrap());
        let view = wkb::decode_ref(&square).unwrap().0;
        let mut table = ApproxTable::default();
        table.reset(2);
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
}
