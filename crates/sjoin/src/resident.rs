//! The per-rank half of the resident engine: the replica store, the
//! index over it (an STR tree plus a per-cell delta), and the owner-side
//! answering of one query.

use crate::answer::write_answer_blocks;
use mvio_core::decomp::{Decomposition, SpatialDecomposition};
use mvio_core::exchange::RecordFrame;
use mvio_core::framework::{claims_reference, is_reference_replica};
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
    /// scanned is charged one [`Work::MbrTests`].
    /// Not collective — the communicator only charges the walk.
    pub(crate) fn rect_matches(&self, comm: &mut Comm, query: &Rect) -> Vec<&str> {
        let mut hits: Vec<usize> = Vec::new();
        self.rtree.query_with(query, &mut |i| hits.push(*i));
        comm.charge(Work::RtreeQueries {
            n: 1,
            results: hits.len() as u64,
        });
        hits.retain(|&i| self.store.is_live(i));
        let mut scanned = 0u64;
        for (&cell, slots) in &self.delta {
            if self.sd.cell_rect(cell).intersects(query) {
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
            if !self.sd.cell_rect(cell).intersects(query) {
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

/// One cell holding a feature's reference replica: its owner, how many
/// such replicas it holds (`n_c`) and the union of their envelopes (`U_c`).
#[derive(Debug, Clone, Copy)]
struct ReachCell {
    owner: usize,
    n: u64,
    env: Rect,
}

/// The engine's global kNN routing summary, one [`ReachCell`] per cell
/// holding a reference replica (never one with an empty envelope,
/// [`is_reference_replica`]). No feature of a cell lies farther from a
/// query centre than its union's farthest corner, so the distance at
/// which the cells, nearest farthest corner first, hold `k` features
/// bounds the k-th neighbour's (MAXDIST; Roussopoulos, Kelley & Vincent,
/// SIGMOD '95). Any feature within it lies in a cell whose union is
/// within it in L∞, and that cell's owner's local top-k holds it if it is
/// a global top-k feature: asking those owners alone keeps answers exact.
pub(crate) struct ReachSummary(Vec<ReachCell>);

impl ReachSummary {
    /// Summarizes this rank's cells from the live slots of its store —
    /// charged one [`Work::MbrTests`] per slot scanned, tombstones
    /// included — and allgathers every rank's cells. Collective: every
    /// rank must call it.
    pub(crate) fn gather(comm: &mut Comm, index: &ResidentIndex) -> Self {
        let store = &index.store;
        comm.charge(Work::MbrTests {
            n: store.slots() as u64,
        });
        let mut local: Vec<(u32, Rect)> = (0..store.slots())
            .filter(|&i| store.is_live(i) && index.reference[i])
            .map(|i| (store.cell(i), *store.envelope(i)))
            .collect();
        local.sort_unstable_by_key(|&(cell, _)| cell);
        // Per cell, `n_c` and `U_c`'s coordinate bits: five LE `u64`s.
        let mut payload = Vec::new();
        for run in local.chunk_by(|a, b| a.0 == b.0) {
            let env = run.iter().fold(Rect::EMPTY, |u, (_, e)| u.union(e));
            let words = [run.len() as u64].into_iter();
            for w in words.chain(env.to_array().map(f64::to_bits)) {
                payload.extend_from_slice(&w.to_le_bytes());
            }
        }
        let mut cells = Vec::new();
        for (owner, entries) in comm.allgather(payload).iter().enumerate() {
            for entry in entries.chunks_exact(40) {
                let w: [u64; 5] = std::array::from_fn(|w| {
                    u64::from_le_bytes(std::array::from_fn(|b| entry[8 * w + b]))
                });
                let n = w[0];
                let env = Rect::from_array([1, 2, 3, 4].map(|i| f64::from_bits(w[i])));
                cells.push(ReachCell { owner, n, env });
            }
        }
        ReachSummary(cells)
    }

    /// Appends to `dests` the owner of every cell whose union lies within
    /// L∞ distance `R` of `at`, `R` being the k-th-neighbour bound (type
    /// docs) times `1 + 1e-9`, so that rounding cannot cut a tie off, or
    /// `∞` when the world holds fewer than `k` features. `scratch` is the
    /// caller's buffer, reused across queries. Charged one
    /// [`Work::MbrTests`] per cell examined. Not collective.
    pub(crate) fn knn_owners(
        &self,
        comm: &mut Comm,
        at: &Point,
        k: u64,
        scratch: &mut Vec<(f64, u64)>,
        dests: &mut Vec<usize>,
    ) {
        let n = self.0.len() as u64;
        comm.charge(Work::MbrTests { n });
        // Measured as `Point::distance` measures: a point feature on the
        // farthest corner is exactly as far.
        let farthest = |r: &Rect| {
            let dx = (at.x - r.min_x).abs().max((at.x - r.max_x).abs());
            let dy = (at.y - r.min_y).abs().max((at.y - r.max_y).abs());
            dx.hypot(dy)
        };
        scratch.clear();
        scratch.extend(self.0.iter().map(|c| (farthest(&c.env), c.n)));
        scratch.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let mut seen = 0;
        let kth = scratch.iter().find(|&&(_, n)| {
            seen += n;
            seen >= k
        });
        let bound = kth.map_or(f64::INFINITY, |&(d, _)| d * (1.0 + 1e-9));
        let near = self.0.iter().filter(|c| c.env.linf_distance(at) <= bound);
        dests.extend(near.map(|c| c.owner));
    }
}
