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
    /// One representative cell per rank (`None` for ranks owning no
    /// cells), used to route kNN queries to every data-holding rank.
    pub(crate) rank_cells: Vec<Option<u32>>,
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
            rank_cells: Vec::new(),
        };
        index.reindex(comm);
        index
    }

    /// Compacts the store (dropping what deletes and departures left
    /// behind, [`ResidentStore::compact`]) and recomputes every derived
    /// structure — R-tree, reference-replica flags, per-rank routing
    /// cells — from the current `sd` + `store`. Called at construction
    /// and again after updates or a migration changed the replica set.
    /// Not collective — the communicator only charges.
    pub(crate) fn reindex(&mut self, comm: &mut Comm) {
        self.store.compact(comm);
        let n = self.store.len();
        comm.charge(Work::RtreeInserts { n: n as u64 });
        self.rtree = RTree::bulk_load((0..n).map(|i| (*self.store.envelope(i), i)).collect());
        self.reference = (0..n)
            .map(|i| is_reference_replica(&self.sd, self.store.cell(i), self.store.envelope(i)))
            .collect();
        self.rank_cells = vec![None; self.sd.num_ranks()];
        for cell in 0..self.sd.num_cells() {
            let r = self.sd.cell_to_rank(cell);
            if self.rank_cells[r].is_none() {
                self.rank_cells[r] = Some(cell);
            }
        }
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
    /// Charged one [`Work::MbrTests`] per box examined and a single
    /// [`Work::RefinePair`] per walk over the summed vertices of the
    /// candidates whose exact distance was computed; pricing each
    /// candidate as a refine of its own waits for the two-step distance
    /// bound (ROADMAP, "Serve: the two-step kNN, then the tail"), without
    /// which every rank pays it.
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
