//! The per-rank half of the resident engine: the replica store, the
//! index over it (an STR tree plus a per-cell delta), and the owner-side
//! answering of one query.

use crate::answer::write_answer_blocks;
use mvio_core::decomp::{Decomposition, SpatialDecomposition};
use mvio_core::exchange::RecordFrame;
use mvio_core::framework::{claims_reference, is_reference_replica, routing_window};
use mvio_core::resident::ResidentStore;
use mvio_core::{CoreError, Result};
use mvio_geom::index::RTree;
use mvio_geom::wkb::{self, GeomRef};
use mvio_geom::{algo, Point, Rect};
use mvio_msim::{Comm, Work};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::ControlFlow;

/// The per-rank resident state: the replicas as validated wire records
/// ([`ResidentStore`], which also caches their envelopes), the index over
/// them, and the global decomposition. Split out from
/// [`crate::QueryEngine`] so `serve` can walk it from inside exchange
/// sinks while the cache (a sibling field) stays independently
/// borrowable.
///
/// The index is a base STR tree plus a per-cell delta (an LSM-style
/// split; O'Neil et al., *The log-structured merge-tree*, Acta
/// Informatica 1996). The tree covers the slots that were live at its
/// last build; a slot deleted or departed since stays in it as a
/// tombstone, which every walk skips ([`ResidentStore::is_live`]). A
/// slot appended since — an insert, or a replica a migration landed —
/// goes to its cell's delta list, which queries overlapping that cell
/// scan. So an update batch or a migration costs index work in
/// proportion to what it changed, and only [`ResidentIndex::refresh`],
/// once the changes outweigh the store, compacts and repacks it.
///
/// No geometry object is resident, and none is built to answer: a
/// straddler's vertex scan and exact test and a kNN candidate's distance
/// run on the record's borrowed view, the join's idiom.
pub(crate) struct ResidentIndex {
    pub(crate) sd: Decomposition,
    pub(crate) store: ResidentStore,
    rtree: RTree<usize>,
    /// The tree covers slots `0..built`, every one live when it was
    /// packed.
    pub(crate) built: usize,
    /// The slots appended since the last build that were live when the
    /// index took them in, by cell, in slot order. A cell the rank no
    /// longer owns drops its list.
    delta: BTreeMap<u32, Vec<usize>>,
    /// Whether slot `i` holds the replica in its feature's reference cell
    /// — the one copy that represents it in kNN scans. One entry per slot
    /// the index has taken in.
    pub(crate) reference: Vec<bool>,
}

/// The borrowed geometry view of a resident record.
fn view<'a>(frame: &RecordFrame<'a>) -> GeomRef<'a> {
    // audit: the store only holds validated records.
    wkb::decode_ref(frame.wkb).expect("validated frame").0
}

impl ResidentIndex {
    /// Indexes a replica store under its decomposition (charged as
    /// [`Work::RtreeInserts`]). Not collective — the communicator only
    /// charges.
    pub(crate) fn build(comm: &mut Comm, sd: Decomposition, store: ResidentStore) -> Self {
        let mut index = ResidentIndex {
            sd,
            store,
            rtree: RTree::bulk_load(Vec::new()),
            built: 0,
            delta: BTreeMap::new(),
            reference: Vec::new(),
        };
        index.rebuild(comm);
        index
    }

    /// Compacts the store (dropping what deletes and departures left
    /// behind, [`ResidentStore::compact`]), STR-packs one tree over every
    /// replica and recomputes every reference flag; the delta empties.
    /// Not collective — the communicator only charges.
    fn rebuild(&mut self, comm: &mut Comm) {
        self.store.compact(comm);
        let n = self.store.len();
        comm.charge(Work::RtreeInserts { n: n as u64 });
        self.rtree = RTree::bulk_load((0..n).map(|i| (*self.store.envelope(i), i)).collect());
        self.reference = (0..n)
            .map(|i| is_reference_replica(&self.sd, self.store.cell(i), self.store.envelope(i)))
            .collect();
        self.built = n;
        self.delta.clear();
    }

    /// Brings the index up to date after an update batch changed the
    /// store. The changes since the last build — dead slots plus appended
    /// ones — are counted against the live replicas, and against the
    /// slots the tree was built over when those are fewer. Once they
    /// reach that count the store is compacted and repacked
    /// ([`ResidentIndex::rebuild`]; global rebuilding: each rebuild is
    /// paid for by at least half as many changes as it packs, and a
    /// delete-only or insert-only stream trips it too). Otherwise the
    /// appended slots join the delta ([`ResidentIndex::absorb`]).
    /// Not collective — the communicator only charges.
    pub(crate) fn refresh(&mut self, comm: &mut Comm) {
        let (live, slots) = (self.store.len(), self.store.slots());
        let changes = (slots - live) + (slots - self.built);
        if changes > 0 && changes >= live.min(self.built) {
            self.rebuild(comm);
        } else {
            self.absorb(comm);
        }
    }

    /// Takes in the slots appended since the index last looked: each gets
    /// its reference flag (charged one [`Work::MbrTests`] per slot) and,
    /// while live, a place in its cell's delta list. Lists of cells this
    /// rank no longer owns — what a migration took away — are dropped.
    /// Never touches the tree, so a migration costs no index build.
    /// Not collective — the communicator only charges.
    pub(crate) fn absorb(&mut self, comm: &mut Comm) {
        let (first, slots) = (self.reference.len(), self.store.slots());
        if first < slots {
            comm.charge(Work::MbrTests {
                n: (slots - first) as u64,
            });
        }
        for i in first..slots {
            let cell = self.store.cell(i);
            let reference = is_reference_replica(&self.sd, cell, self.store.envelope(i));
            self.reference.push(reference);
            if self.store.is_live(i) {
                self.delta.entry(cell).or_default().push(i);
            }
        }
        let (sd, rank) = (&self.sd, comm.rank());
        self.delta.retain(|&cell, _| sd.cell_to_rank(cell) == rank);
    }

    /// Filter + refine for one rectangle over the local replicas,
    /// returning the claimed matches' userdata **sorted**. The claiming
    /// rule: cell overlap, MBR overlap, reference-corner dedup
    /// ([`claims_reference`]), exact predicate — the last only where the
    /// filter and the vertex scan left it open. The tree's live hits and
    /// the delta lists of the cells whose rectangle meets the window (the
    /// cell test every hit passes) are the candidates; each delta slot
    /// scanned is charged one [`Work::MbrTests`]. Both cell tests take
    /// the window clamped onto the bounds ([`routing_window`]), the one
    /// the issuer routed by, so a window outside the bounds still finds
    /// the inserts that reach out to it.
    /// Not collective — the communicator only charges the walk.
    pub(crate) fn rect_matches(&self, comm: &mut Comm, query: &Rect) -> Vec<&str> {
        let within = routing_window(&self.sd, query);
        let mut hits: Vec<usize> = Vec::new();
        self.rtree.query_with(query, &mut |i| hits.push(*i));
        comm.charge(Work::RtreeQueries {
            n: 1,
            results: hits.len() as u64,
        });
        hits.retain(|&i| self.store.is_live(i));
        let mut scanned = 0u64;
        for (&cell, slots) in &self.delta {
            if self.sd.cell_rect(cell).intersects(&within) {
                scanned += slots.len() as u64;
                let meets =
                    |&i: &usize| self.store.is_live(i) && self.store.envelope(i).intersects(query);
                hits.extend(slots.iter().copied().filter(meets));
            }
        }
        if scanned > 0 {
            comm.charge(Work::MbrTests { n: scanned });
        }
        let mut out = Vec::new();
        for i in hits {
            let cell = self.store.cell(i);
            if !self.sd.cell_rect(cell).intersects(&within) {
                continue;
            }
            let mbr = self.store.envelope(i);
            comm.charge(Work::MbrTests { n: 1 });
            if !claims_reference(&self.sd, cell, mbr, query) {
                continue;
            }
            let frame = self.store.frame(i);
            // A true hit (Brinkhoff et al., SIGMOD '94): a geometry whose
            // envelope lies inside the window intersects it by
            // construction, and so does a straddler with a vertex inside
            // the window — a point-in-rect test is the four comparisons
            // of an MBR test, and is charged as one. Only a straddler
            // with every vertex outside (a long segment crossing a small
            // window, or an envelope-only overlap) goes on to the exact
            // test. `contains` is false for an empty envelope, which has
            // no vertex either and therefore keeps the exact path.
            if !query.contains(mbr) {
                let geometry = view(&frame);
                let (vertex_inside, examined) = algo::rect_contains_shape_vertex(query, geometry);
                comm.charge(Work::MbrTests { n: examined });
                let hit = vertex_inside || {
                    comm.charge(Work::RefinePair {
                        verts_a: geometry.num_points() as u64,
                        verts_b: 4,
                    });
                    algo::rect_intersects_shape(query, geometry)
                };
                if !hit {
                    continue;
                }
            }
            out.push(frame.userdata);
        }
        out.sort_unstable();
        out
    }

    /// Local top-`k` by `(distance, userdata)` over the live reference
    /// replicas (each feature counted exactly once globally), as
    /// `(distance, slot)`. The delta's candidates go first, nearest
    /// envelope first; then a best-first walk of the tree. Both compute
    /// exact distances only until the next envelope or box is farther
    /// than the k-th best candidate; one at exactly that distance is
    /// still opened — a tie can win on userdata.
    ///
    /// Only the owners [`ReachSummary::knn_owners`] selects walk. Charged
    /// one [`Work::MbrTests`] per box examined and per delta slot scanned,
    /// and a single [`Work::RefinePair`] per walk over the summed vertices
    /// of the candidates whose exact distance was computed; pricing each
    /// candidate as its own refine would raise every walk by the fixed
    /// refine cost per extra candidate, so it waits for a measured change.
    /// Not collective.
    pub(crate) fn knn_local(&self, comm: &mut Comm, at: &Point, k: usize) -> Vec<(f64, usize)> {
        let userdata = |i: usize| self.store.frame(i).userdata;
        let mut verts = 0u64;
        // Sorted by `(distance, userdata)` and never longer than `k`;
        // grown on demand, since `k` may be `u32::MAX`.
        let mut best: Vec<(f64, usize)> = Vec::new();
        // Offers slot `i`, whose envelope or box lies `near` away, unless
        // the k-th best is already nearer; `Break` once it is.
        let mut offer = |near: f64, i: usize| {
            if best.len() == k && near > best[k - 1].0 {
                return ControlFlow::Break(());
            }
            if !self.store.is_live(i) || !self.reference[i] {
                return ControlFlow::Continue(());
            }
            let frame = self.store.frame(i);
            let geometry = view(&frame);
            verts += geometry.num_points() as u64;
            let d = algo::point_shape_distance(at, geometry);
            let pos = best.partition_point(|&(bd, bi)| {
                bd.total_cmp(&d)
                    .then_with(|| userdata(bi).cmp(frame.userdata))
                    != Ordering::Greater
            });
            if pos < k {
                best.insert(pos, (d, i));
                best.truncate(k);
            }
            ControlFlow::Continue(())
        };
        let mut scanned = 0u64;
        let mut pending: Vec<(f64, usize)> = Vec::new();
        for slots in self.delta.values() {
            scanned += slots.len() as u64;
            let candidates = slots
                .iter()
                .filter(|&&i| self.store.is_live(i) && self.reference[i]);
            pending.extend(candidates.map(|&i| (self.store.envelope(i).linf_distance(at), i)));
        }
        pending.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        for (near, i) in pending {
            if offer(near, i).is_break() {
                break;
            }
        }
        let boxes = self.rtree.nearest_with(at, &mut |near, &i| offer(near, i));
        comm.charge(Work::MbrTests { n: boxes + scanned });
        comm.charge(Work::RefinePair {
            verts_a: verts,
            verts_b: 1,
        });
        best
    }

    /// Answers one query frame straight off the received wire buffer —
    /// the query geometry is decoded as a borrowed view, never
    /// materialized — appending the answer to `out` as answer blocks
    /// ([`write_answer_blocks`]) tagged with the issuer's query index,
    /// the userdata borrowed from the resident records. kNN queries ride
    /// as a `Point` with `k=<n>` userdata; range and point queries as the
    /// diagonal of their rect (whose envelope recovers it exactly).
    /// Returns the number of blocks written (none for an empty answer).
    /// A block holds distances and userdata copied from the resident
    /// records, no geometry, so nothing is encoded: the charge is the
    /// block bytes written ([`Work::CopyBytes`]), and the cost of
    /// returning an answer grows with its bytes, not with a per-match
    /// or per-block constant.
    /// Not collective — called from inside the query trip's sink.
    pub(crate) fn serve_one(
        &self,
        comm: &mut Comm,
        fr: &RecordFrame<'_>,
        cap: u64,
        out: &mut Vec<u8>,
    ) -> Result<u64> {
        let qid = fr.cell;
        // audit: the sink validated the round before walking its frames.
        let (g, _) = wkb::decode_ref(fr.wkb).expect("validated frame");
        let before = out.len();
        let blocks = if let Some(kstr) = fr.userdata.strip_prefix("k=") {
            // `k = 0` never passes the issuer's validation; the walk
            // relies on a k-th candidate existing.
            let k: usize = kstr.parse().ok().filter(|&k| k > 0).ok_or_else(|| {
                CoreError::Partition(format!(
                    "serve protocol: malformed knn payload {:?}",
                    fr.userdata
                ))
            })?;
            let at = match &g {
                GeomRef::Point(p) => p.point(),
                g => {
                    return Err(CoreError::Partition(format!(
                        "serve protocol: knn query carries a {:?} geometry",
                        g.geometry_type()
                    )))
                }
            };
            let (distances, neighbors): (Vec<f64>, Vec<&str>) = self
                .knn_local(comm, &at, k)
                .into_iter()
                .map(|(distance, i)| (distance, self.store.frame(i).userdata))
                .unzip();
            write_answer_blocks(qid, &distances, &neighbors, cap, out)?
        } else {
            let matches = self.rect_matches(comm, &g.envelope());
            write_answer_blocks(qid, &[], &matches, cap, out)?
        };
        comm.charge(Work::CopyBytes {
            n: (out.len() - before) as u64,
        });
        Ok(blocks)
    }
}

/// The side of the sub-cell split the kNN reach summary reports each
/// cell at: `REACH_SPLIT × REACH_SPLIT` sub-cells. A finer split bounds
/// the k-th neighbour tighter, and so asks fewer owners, but widens the
/// one `serve.reach` allgather and the summary every rank keeps. On the
/// e2e `serve_mixed` workload (seed 1), 8 cuts the 64-rank virtual time
/// only 2.6 % below 4 (0.0542 against 0.0556 s), while its p99 rises
/// 3.8 % (2.18 against 2.10 ms) and its allocated bytes 4.3 %.
const REACH_SPLIT: usize = 4;

/// On the wire, the high bit of a sub-cell's count word marks the first
/// sub-cell of a cell; the low 31 bits carry the count, saturated. An
/// undercount only loosens the bound, so saturating is sound.
const OPENS_CELL: u32 = 1 << 31;

/// Bytes per sub-cell on the wire: the count word and the union as four
/// `f32`s, all little-endian.
const REACH_ENTRY: usize = 20;

/// The sub-cell of `cell` holding `env`'s centre, clamped into the cell:
/// row-major in `0..REACH_SPLIT²`.
fn reach_sub(cell: &Rect, env: &Rect) -> usize {
    let c = env.center();
    let at = |v: f64, lo: f64, hi: f64| {
        // `as` saturates and maps NaN (a zero-width cell) to 0.
        (((v - lo) / (hi - lo) * REACH_SPLIT as f64).max(0.0) as usize).min(REACH_SPLIT - 1)
    };
    at(c.y, cell.min_y, cell.max_y) * REACH_SPLIT + at(c.x, cell.min_x, cell.max_x)
}

/// `r` with each coordinate rounded to the nearest `f32` outward — the
/// min corner down, the max corner up — so the rounded box covers `r`.
fn round_outward(r: &Rect) -> [f32; 4] {
    let round = |v: f64, down: bool| {
        let f = v as f32;
        match f64::from(f).partial_cmp(&v) {
            Some(Ordering::Greater) if down => f.next_down(),
            Some(Ordering::Less) if !down => f.next_up(),
            _ => f,
        }
    };
    [
        round(r.min_x, true),
        round(r.min_y, true),
        round(r.max_x, false),
        round(r.max_y, false),
    ]
}

/// The distance at which `reach`, `(farthest corner, count)` pairs, first
/// hold `k` features, times `1 + 1e-9` so that rounding cannot cut a tie
/// off, or `∞` when they hold fewer. Sorts `reach` in place.
fn kth_reach(reach: &mut [(f64, u64)], k: u64) -> f64 {
    reach.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    let mut seen = 0;
    let kth = reach.iter().find(|&&(_, n)| {
        seen += n;
        seen >= k
    });
    kth.map_or(f64::INFINITY, |&(d, _)| d * (1.0 + 1e-9))
}

/// A count of reference replicas and the union of their envelopes,
/// kept in the `f32`s it was sent as: one sub-cell, or one cell rebuilt
/// from its sub-cells. Counts saturate, which only loosens a bound.
#[derive(Debug, Clone, Copy)]
struct Reach {
    n: u32,
    env: [f32; 4],
}

impl Reach {
    /// The union as a rectangle.
    fn rect(&self) -> Rect {
        Rect::from_array(self.env.map(f64::from))
    }
}

/// One cell holding a feature's reference replica: its owner, its count
/// and union (those of its sub-cells together), and its non-empty
/// sub-cells, a range of [`ReachSummary`]'s sub-cell list.
#[derive(Debug, Clone)]
struct ReachCell {
    owner: usize,
    reach: Reach,
    subs: std::ops::Range<usize>,
}

/// The engine's global kNN routing summary: per cell holding a reference
/// replica (never one with an empty envelope, [`is_reference_replica`]),
/// the count and envelope union of each non-empty sub-cell of a fixed
/// [`REACH_SPLIT`]² split, a replica going to the sub-cell holding its
/// envelope's centre. No feature of a cell or sub-cell lies farther from
/// a query centre than its union's farthest corner, so the distance at
/// which the entries, nearest farthest corner first, hold `k` features
/// bounds the k-th neighbour's (MAXDIST; Roussopoulos, Kelley & Vincent,
/// SIGMOD '95). Any feature within it lies in a sub-cell whose union is
/// within it in L∞, and that cell's owner's local top-k holds it if it is
/// a global top-k feature: asking those owners alone keeps answers exact.
/// A sub-cell's union is far smaller than its cell's, so its bound is
/// far tighter than the cell's, and fewer owners are asked.
pub(crate) struct ReachSummary {
    cells: Vec<ReachCell>,
    subs: Vec<Reach>,
}

impl ReachSummary {
    /// Summarizes this rank's cells by sub-cell from the live slots of
    /// its store — charged one [`Work::MbrTests`] per slot scanned,
    /// tombstones included — and allgathers every rank's sub-cells, each
    /// as its count word ([`OPENS_CELL`]) and its union rounded outward
    /// to `f32`s. The receiver rebuilds each cell's count and union from
    /// its sub-cells. Collective: every rank must call it.
    pub(crate) fn gather(comm: &mut Comm, index: &ResidentIndex) -> Self {
        let (store, sd) = (&index.store, &index.sd);
        comm.charge(Work::MbrTests {
            n: store.slots() as u64,
        });
        let mut local: Vec<(u32, usize, Rect)> = (0..store.slots())
            .filter(|&i| store.is_live(i) && index.reference[i])
            .map(|i| {
                let (cell, env) = (store.cell(i), *store.envelope(i));
                (cell, reach_sub(&sd.cell_rect(cell), &env), env)
            })
            .collect();
        local.sort_unstable_by_key(|&(cell, sub, _)| (cell, sub));
        let mut payload = Vec::new();
        let mut open = None;
        for run in local.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let env = run.iter().fold(Rect::EMPTY, |u, (_, _, e)| u.union(e));
            let n = u32::try_from(run.len()).map_or(!OPENS_CELL, |n| n.min(!OPENS_CELL));
            let opens = OPENS_CELL * u32::from(open != Some(run[0].0));
            open = Some(run[0].0);
            payload.extend_from_slice(&(n | opens).to_le_bytes());
            for c in round_outward(&env) {
                payload.extend_from_slice(&c.to_le_bytes());
            }
        }
        let (mut cells, mut subs) = (Vec::<ReachCell>::new(), Vec::new());
        for (owner, entries) in comm.allgather(payload).iter().enumerate() {
            for entry in entries.chunks_exact(REACH_ENTRY) {
                let word = |w: usize| u32::from_le_bytes(std::array::from_fn(|b| entry[4 * w + b]));
                let sub = Reach {
                    n: word(0) & !OPENS_CELL,
                    env: [1, 2, 3, 4].map(|w| f32::from_bits(word(w))),
                };
                if word(0) & OPENS_CELL != 0 {
                    let (reach, at) = (Reach { n: 0, ..sub }, subs.len());
                    cells.push(ReachCell {
                        owner,
                        reach,
                        subs: at..at,
                    });
                }
                // audit: every rank's payload opens with a cell's first sub-cell.
                let cell = cells.last_mut().expect("a sub-cell follows its cell");
                // Exact: both unions are already `f32`s.
                let env = cell.reach.rect().union(&sub.rect());
                cell.reach.env = env.to_array().map(|v| v as f32);
                cell.reach.n = cell.reach.n.saturating_add(sub.n);
                subs.push(sub);
                cell.subs.end = subs.len();
            }
        }
        ReachSummary { cells, subs }
    }

    /// Appends to `dests` the owners `at`'s `k` nearest features can live
    /// on, in three steps:
    /// 1. a coarse bound `R₁`, the k-th-neighbour bound (type docs) over
    ///    the cells;
    /// 2. a fine bound `R₂`, the same over the sub-cells of the cells
    ///    within L∞ distance `R₁` only — no other cell can hold a feature
    ///    within `R₁`, and `R₂ ≤ R₁` since each sub-cell lies in its cell;
    /// 3. the owner of every cell with a sub-cell within L∞ distance `R₂`.
    ///
    /// Both bounds carry the `1 + 1e-9` slack and are `∞` when the world
    /// holds fewer than `k` features. `scratch` is the caller's buffer,
    /// reused across queries. Charged one [`Work::MbrTests`] per cell and
    /// per sub-cell examined. Not collective.
    pub(crate) fn knn_owners(
        &self,
        comm: &mut Comm,
        at: &Point,
        k: u64,
        scratch: &mut Vec<(f64, u64)>,
        dests: &mut Vec<usize>,
    ) {
        // Measured as `Point::distance` measures: a point feature on the
        // farthest corner is exactly as far.
        let farthest = |r: &Reach| {
            let env = r.rect();
            let dx = (at.x - env.min_x).abs().max((at.x - env.max_x).abs());
            let dy = (at.y - env.min_y).abs().max((at.y - env.max_y).abs());
            (dx.hypot(dy), u64::from(r.n))
        };
        scratch.clear();
        scratch.extend(self.cells.iter().map(|c| farthest(&c.reach)));
        let coarse = kth_reach(scratch, k);
        let subs = |c: &ReachCell| &self.subs[c.subs.clone()];
        let near = |c: &&ReachCell| c.reach.rect().linf_distance(at) <= coarse;
        scratch.clear();
        for c in self.cells.iter().filter(near) {
            scratch.extend(subs(c).iter().map(farthest));
        }
        comm.charge(Work::MbrTests {
            n: (self.cells.len() + scratch.len()) as u64,
        });
        let fine = kth_reach(scratch, k);
        let reached = |c: &&ReachCell| subs(c).iter().any(|s| s.rect().linf_distance(at) <= fine);
        dests.extend(
            self.cells
                .iter()
                .filter(near)
                .filter(reached)
                .map(|c| c.owner),
        );
    }
}
