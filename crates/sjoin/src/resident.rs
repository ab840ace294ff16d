//! The per-rank half of the resident engine: the replica store, the
//! R-tree over it, and the owner-side answering of one query.

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
use std::ops::ControlFlow;

/// The per-rank resident state: the replicas as validated wire records
/// ([`ResidentStore`], which also caches their envelopes), the R-tree
/// over them, and the global decomposition. Split out from
/// [`crate::QueryEngine`] so `serve` can walk it from inside exchange
/// sinks while the cache (a sibling field) stays independently
/// borrowable.
///
/// No geometry object is resident, and none is built to answer: a
/// straddler's vertex scan and exact test and a kNN candidate's distance
/// run on the record's borrowed view, the join's idiom.
pub(crate) struct ResidentIndex {
    pub(crate) sd: Decomposition,
    pub(crate) store: ResidentStore,
    /// Over the store's slots, which [`ResidentIndex::reindex`] leaves
    /// dense (`0..store.len()`).
    rtree: RTree<usize>,
    /// Whether slot `i` holds the replica in its feature's reference cell
    /// — the one copy that represents the feature in kNN scans.
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
            reference: Vec::new(),
        };
        index.reindex(comm);
        index
    }

    /// Compacts the store (dropping what deletes and departures left
    /// behind, [`ResidentStore::compact`]) and recomputes every derived
    /// structure — R-tree and reference-replica flags — from the current
    /// `sd` + `store`. Called at construction and again after updates or
    /// a migration changed the replica set.
    /// Not collective — the communicator only charges.
    pub(crate) fn reindex(&mut self, comm: &mut Comm) {
        self.store.compact(comm);
        let n = self.store.len();
        comm.charge(Work::RtreeInserts { n: n as u64 });
        self.rtree = RTree::bulk_load((0..n).map(|i| (*self.store.envelope(i), i)).collect());
        self.reference = (0..n)
            .map(|i| is_reference_replica(&self.sd, self.store.cell(i), self.store.envelope(i)))
            .collect();
    }

    /// Filter + refine for one rectangle over the local replicas,
    /// returning the claimed matches' userdata **sorted**. The claiming
    /// rule: cell overlap, MBR overlap, reference-corner dedup
    /// ([`claims_reference`]), exact predicate — the last only where the
    /// filter and the vertex scan left it open.
    /// Not collective — the communicator only charges the walk.
    pub(crate) fn rect_matches(&self, comm: &mut Comm, query: &Rect) -> Vec<&str> {
        let mut hits: Vec<usize> = Vec::new();
        self.rtree.query_with(query, &mut |i| hits.push(*i));
        comm.charge(Work::RtreeQueries {
            n: 1,
            results: hits.len() as u64,
        });
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

    /// Local top-`k` by `(distance, userdata)` over the reference
    /// replicas (each feature counted exactly once globally), as
    /// `(distance, slot)`: a best-first walk of the resident R-tree that
    /// computes exact distances only until the next box is farther than
    /// the k-th best candidate. Boxes at exactly that distance are still
    /// opened — a tie can win on userdata.
    ///
    /// Only the owners [`ReachSummary::knn_owners`] selects walk. Charged
    /// one [`Work::MbrTests`] per box examined and a single
    /// [`Work::RefinePair`] per walk over the summed vertices of the
    /// candidates whose exact distance was computed; pricing each
    /// candidate as its own refine would raise every walk by the fixed
    /// refine cost per extra candidate, so it waits for a measured change.
    /// Not collective.
    pub(crate) fn knn_local(&self, comm: &mut Comm, at: &Point, k: usize) -> Vec<(f64, usize)> {
        let userdata = |i: usize| self.store.frame(i).userdata;
        let mut verts = 0u64;
        // Sorted by `(distance, userdata)` and never longer than `k`;
        // grown on demand, since `k` may be `u32::MAX`.
        let mut best: Vec<(f64, usize)> = Vec::new();
        let boxes = self.rtree.nearest_with(at, &mut |box_distance, &i| {
            if best.len() == k && box_distance > best[k - 1].0 {
                return ControlFlow::Break(());
            }
            if !self.reference[i] {
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
        });
        comm.charge(Work::MbrTests { n: boxes });
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
    /// Summarizes this rank's cells from its store — charged one
    /// [`Work::MbrTests`] per resident replica scanned — and allgathers
    /// every rank's cells. Collective: every rank must call it.
    pub(crate) fn gather(comm: &mut Comm, index: &ResidentIndex) -> Self {
        let (store, n) = (&index.store, index.store.len() as u64);
        comm.charge(Work::MbrTests { n });
        let mut local: Vec<(u32, Rect)> = (0..store.len())
            .filter(|&i| index.reference[i])
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
