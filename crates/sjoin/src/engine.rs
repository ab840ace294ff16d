//! Resident distributed query serving: the ROADMAP "serve millions of
//! queries" shape over the partitioned spatial index.
//!
//! Everything else in the workspace is one-shot batch ingest→answer;
//! [`QueryEngine`] is the long-lived counterpart. It is constructed once
//! — from an [`IngestOutput`] or a binary snapshot — and keeps the
//! per-rank R-tree and the global [`SpatialDecomposition`] resident
//! across [`QueryEngine::serve`] calls, so a serving batch costs only
//! routing + tree walks + two pipelined exchanges instead of a full
//! read/partition/exchange pass per query.
//!
//! ## Serving protocol
//!
//! One [`QueryEngine::serve`] call is collective and runs five steps:
//!
//! 1. **Validate** every query locally, then agree globally (one
//!    `allreduce`) whether any rank holds an invalid query. Rejection is
//!    symmetric: every rank returns a typed
//!    [`CoreError::InvalidOptions`] and nobody enters the exchange, so a
//!    bad batch can never strand a peer in a collective. The engine
//!    stays usable for the next batch.
//! 2. **Cache lookup + in-batch dedup**: answers already in the
//!    hot-query LRU (see [`ServeCache`]) are returned without shipping
//!    anything — the peers still rendezvous in the exchange, where this
//!    rank simply contributes fewer records. The misses are grouped by
//!    query identity: the first instance of each distinct query is
//!    routed, its repeats in the same batch receive a copy of its merged
//!    answer in step 5, and the cache is filled once per distinct query.
//!    This is the one saving a batch has over a query-per-call loop
//!    beyond amortized collectives, and [`ServeStats::routed`] counts it.
//! 3. **Route + ship**: each routed query is serialized once per
//!    destination rank (the owners of the cells overlapping a
//!    range/point query; every cell-owning rank for kNN) and shipped
//!    through the chunked nonblocking [`ExchangePlan`]. Received queries
//!    are answered in the exchange *sink*, so later query rounds are
//!    still in flight while this rank walks its R-tree — query shipping
//!    overlaps local tree walks. The owner pays only for what the answer
//!    needs. A range/point candidate whose envelope lies inside the
//!    window is a *true hit* (Brinkhoff et al., SIGMOD '94) and is
//!    emitted without the exact test, and so is a straddler — an envelope
//!    crossing the window's edge — with a vertex inside the window
//!    ([`algo::rect_contains_any_vertex`]); only straddlers with every
//!    vertex outside are refined. A kNN query is a best-first walk of the
//!    resident R-tree ([`RTree::nearest_with`]; Hjaltason & Samet,
//!    TODS '99) that computes exact distances only until the next box
//!    is farther than the k-th best candidate.
//! 4. **Ship results back** over a second plan run: each owner returns
//!    its matches for a query as one *answer block* (`docs/FORMAT.md`
//!    §4) — the issuer's query index, the packed kNN distances, and the
//!    userdata of the matches in the owner's sorted order, copied
//!    straight from the resident replicas. No geometry travels, an empty
//!    answer ships nothing, and a block closes at the plan's chunk cap
//!    (the next one reopens the same query), so the owner's buffer
//!    management is charged per block, not per match.
//! 5. **Merge**: the issuer walks the received blocks with the
//!    validating [`answer_entries`] iterator; per query, results from
//!    all owners are sorted (lexicographic for matches, by
//!    `(distance, userdata)` for kNN) and truncated to `k` where
//!    applicable, inserted into the cache, and returned aligned with the
//!    input slice.
//!
//! Duplicate-free semantics follow `range_query`'s reference-corner rule
//! ([`mvio_core::framework::claims_reference`]): a feature replicated
//! into several cells is claimed by exactly one owner, so an answer
//! contains each matching feature exactly once — deterministically, in
//! sorted order, regardless of decomposition policy, chunk size, rank
//! count, or cache state.
//!
//! ## Mutability
//!
//! The engine is no longer write-once: [`QueryEngine::apply_updates`]
//! absorbs streaming inserts/deletes between serve batches (routing them
//! to the owning ranks over the same staged exchange), and
//! [`QueryEngine::maybe_rebalance`] re-decomposes and migrates only the
//! cells whose owner changed once the drifted load crosses the
//! [`RebalancePolicy`] threshold — see [`mvio_core::rebalance`].
//!
//! # Example
//!
//! A two-rank world builds a resident engine, absorbs a streaming
//! insert, and serves a range query over the mutated dataset:
//!
//! ```
//! use mvio_core::decomp::{SpatialDecomposition, UniformDecomposition};
//! use mvio_core::grid::{CellMap, GridSpec, UniformGrid};
//! use mvio_core::rebalance::Update;
//! use mvio_core::Feature;
//! use mvio_geom::{Geometry, Point, Rect};
//! use mvio_msim::{Topology, World, WorldConfig};
//! use mvio_sjoin::{EngineOptions, Query, QueryAnswer, QueryEngine};
//!
//! let out = World::run(WorldConfig::new(Topology::single_node(2)), |comm| {
//!     // Every rank fabricates the same tiny dataset and keeps the
//!     // replicas it owns — the state an ingest would have produced.
//!     let grid = UniformGrid::new(Rect::new(0.0, 0.0, 4.0, 4.0), GridSpec::square(2));
//!     let sd: Box<dyn SpatialDecomposition> =
//!         Box::new(UniformDecomposition::new(grid, CellMap::RoundRobin, comm.size()));
//!     let f = Feature::with_userdata(Geometry::Point(Point::new(1.0, 1.0)), "a");
//!     let owned: Vec<(u32, Feature)> = sd
//!         .cells_for_rect_vec(&f.geometry.envelope())
//!         .into_iter()
//!         .filter(|&c| sd.cell_to_rank(c) == comm.rank())
//!         .map(|c| (c, f.clone()))
//!         .collect();
//!     let mut eng = QueryEngine::from_parts(comm, sd, owned, &EngineOptions::default());
//!     // Rank 0 submits a streaming insert; the batch is collective.
//!     let updates = if comm.rank() == 0 {
//!         vec![Update::Insert(Feature::with_userdata(
//!             Geometry::Point(Point::new(3.0, 3.0)),
//!             "b",
//!         ))]
//!     } else {
//!         Vec::new()
//!     };
//!     eng.apply_updates(comm, &updates).unwrap();
//!     let report = eng
//!         .serve(comm, &[Query::Range(Rect::new(0.0, 0.0, 4.0, 4.0))])
//!         .unwrap();
//!     report.answers
//! });
//! for answers in out {
//!     assert_eq!(
//!         answers,
//!         vec![QueryAnswer::Matches(vec!["a".into(), "b".into()])]
//!     );
//! }
//! ```

use mvio_core::decomp::{
    DecompPolicy, HilbertDecomposition, SpatialDecomposition, UniformDecomposition,
};
use mvio_core::exchange::{
    record_frames, serialize_record, validate_round, ExchangeChunk, ExchangeOptions, ExchangePlan,
    ExchangeStats, RecordFrame, SerializedBatch,
};
use mvio_core::grid::UniformGrid;
use mvio_core::pipeline::IngestOutput;
use mvio_core::rebalance::{
    self, RebalancePolicy, RebalanceReport, Rebalancer, Update, UpdateStats,
};
use mvio_core::snapshot::{self, SnapshotReadOptions};
use mvio_core::{CoreError, Feature, Result};
use mvio_geom::index::RTree;
use mvio_geom::{algo, wkb, Geometry, LineString, Point, Rect};
use mvio_msim::{Comm, Work};
use mvio_pfs::SimFs;
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::ops::ControlFlow;
use std::sync::Arc;

/// One query in a serving batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    /// All features intersecting the (closed) rectangle.
    Range(Rect),
    /// All features containing or touching the point — a degenerate
    /// [`Query::Range`].
    Point(Point),
    /// The `k` nearest features by euclidean point-to-geometry distance
    /// ([`algo::point_geometry_distance`]); ties break on userdata.
    Knn {
        /// Query centre.
        at: Point,
        /// Neighbours requested (must be ≥ 1; capped by dataset size).
        k: u32,
    },
}

/// One kNN result.
#[derive(Debug, Clone, PartialEq)]
pub struct Neighbor {
    /// Euclidean distance from the query centre to the feature.
    pub distance: f64,
    /// The feature's userdata.
    pub userdata: String,
}

/// The engine's answer to one [`Query`], aligned with the input batch.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryAnswer {
    /// Range/point result: matching userdata, sorted, duplicate-free
    /// across replicas (multiset: distinct features sharing userdata
    /// each appear).
    Matches(Vec<String>),
    /// kNN result: at most `k` neighbours sorted by
    /// `(distance, userdata)`.
    Neighbors(Vec<Neighbor>),
}

impl QueryAnswer {
    /// Number of results in the answer.
    pub fn len(&self) -> usize {
        match self {
            QueryAnswer::Matches(v) => v.len(),
            QueryAnswer::Neighbors(v) => v.len(),
        }
    }

    /// Whether the answer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Result-cache sizing policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServeCache {
    /// No caching (the default).
    #[default]
    Off,
    /// LRU over at most this many query→answer entries.
    Entries(usize),
}

impl ServeCache {
    /// The capacity this policy resolves to (`None` = caching off).
    pub fn resolve(self) -> Option<usize> {
        match self {
            ServeCache::Off => None,
            ServeCache::Entries(n) => Some(n.max(1)),
        }
    }
}

/// Construction-time engine configuration. The default is the one-shot
/// wrappers' configuration: blocking exchange, no cache, no rebalancing.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineOptions {
    /// Per-destination byte cap for each pipelined exchange round used
    /// by [`QueryEngine::serve`] (both the query and the result trip).
    pub chunk: ExchangeChunk,
    /// Hot-query result cache policy.
    pub cache: ServeCache,
    /// Online-rebalance policy for [`QueryEngine::maybe_rebalance`].
    /// Must be identical on every rank — the rebalance decision is
    /// collective.
    pub rebalance: RebalancePolicy,
}

/// Per-rank counters for one [`QueryEngine::serve`] call.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Queries this rank submitted in the batch.
    pub queries: u64,
    /// Queries answered straight from the LRU cache (nothing shipped).
    pub answered_from_cache: u64,
    /// Distinct queries that went through routing and the exchange.
    /// In-batch repeats of a routed query share its answer without being
    /// shipped: `queries - answered_from_cache - routed` of them.
    pub routed: u64,
    /// Query records shipped (one per query per destination rank).
    pub shipped_records: u64,
    /// Matches received back for this rank's routed queries, summed over
    /// their owners — the answer sizes before kNN truncation. Counts
    /// matches, not the answer blocks that carried them (those are
    /// [`ServeStats::result_exchange`]'s records).
    pub result_records: u64,
    /// Exchange counters for the query-shipping trip.
    pub query_exchange: ExchangeStats,
    /// Exchange counters for the result return trip. Its
    /// `records_sent` / `records_received` count answer *blocks* (one per
    /// query per owner, more under a chunk cap); the matches inside them
    /// are [`ServeStats::result_records`].
    pub result_exchange: ExchangeStats,
}

/// Per-rank outcome of one [`QueryEngine::serve`] call.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// One answer per submitted query, same order as the input slice.
    pub answers: Vec<QueryAnswer>,
    /// Counters for this call.
    pub stats: ServeStats,
}

/// Rejects queries the engine cannot answer meaningfully: non-finite or
/// inverted (`min > max`) range rects, non-finite points, and `k = 0`
/// kNN requests, each with a typed [`CoreError::InvalidOptions`].
///
/// This is the serving boundary's input firewall — the WKT parsers
/// reject NaN coordinates in *data*, but nothing upstream guards
/// *queries*, and a NaN rect silently matches nothing while looking like
/// a valid empty answer.
pub fn validate_query(q: &Query) -> Result<()> {
    let bad = |msg: String| Err(CoreError::InvalidOptions(msg));
    match q {
        Query::Range(r) => {
            if !(r.min_x.is_finite()
                && r.min_y.is_finite()
                && r.max_x.is_finite()
                && r.max_y.is_finite())
            {
                return bad(format!(
                    "range query rect has non-finite coordinates: {r:?}"
                ));
            }
            if r.min_x > r.max_x || r.min_y > r.max_y {
                return bad(format!("range query rect is inverted (min > max): {r:?}"));
            }
            Ok(())
        }
        Query::Point(p) => {
            if !p.is_finite() {
                return bad(format!("point query has non-finite coordinates: {p:?}"));
            }
            Ok(())
        }
        Query::Knn { at, k } => {
            if !at.is_finite() {
                return bad(format!(
                    "knn query centre has non-finite coordinates: {at:?}"
                ));
            }
            if *k == 0 {
                return bad("knn query needs k >= 1 (k = 0 selects nothing)".into());
            }
            Ok(())
        }
    }
}

/// Hashable identity of a query for the result cache (`f64` coordinates
/// compared bit-exactly; sound because validation already rejected NaN).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct QueryKey {
    tag: u8,
    a: u64,
    b: u64,
    c: u64,
    d: u64,
    k: u32,
}

fn query_key(q: &Query) -> QueryKey {
    match q {
        Query::Range(r) => QueryKey {
            tag: 0,
            a: r.min_x.to_bits(),
            b: r.min_y.to_bits(),
            c: r.max_x.to_bits(),
            d: r.max_y.to_bits(),
            k: 0,
        },
        Query::Point(p) => QueryKey {
            tag: 1,
            a: p.x.to_bits(),
            b: p.y.to_bits(),
            c: 0,
            d: 0,
            k: 0,
        },
        Query::Knn { at, k } => QueryKey {
            tag: 2,
            a: at.x.to_bits(),
            b: at.y.to_bits(),
            c: 0,
            d: 0,
            k: *k,
        },
    }
}

/// LRU map from query identity to its full answer. Sound because the
/// dataset only changes through [`QueryEngine::apply_updates`], which
/// clears the cache (a rebalance migrates replicas without changing the
/// dataset, so cached answers survive it). Recency is tracked with lazy
/// deletion — `get`/
/// `insert` push `(key, tick)` markers and eviction skips markers whose
/// tick no longer matches the live entry.
#[derive(Debug)]
struct ResultCache {
    cap: usize,
    map: HashMap<QueryKey, (QueryAnswer, u64)>,
    order: VecDeque<(QueryKey, u64)>,
    tick: u64,
}

impl ResultCache {
    fn new(cap: usize) -> Self {
        ResultCache {
            cap: cap.max(1),
            map: HashMap::new(),
            order: VecDeque::new(),
            tick: 0,
        }
    }

    fn get(&mut self, key: &QueryKey) -> Option<QueryAnswer> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.map.get_mut(key)?;
        entry.1 = tick;
        let ans = entry.0.clone();
        self.order.push_back((key.clone(), tick));
        self.compact();
        Some(ans)
    }

    fn insert(&mut self, key: QueryKey, ans: QueryAnswer) {
        self.tick += 1;
        self.order.push_back((key.clone(), self.tick));
        self.map.insert(key, (ans, self.tick));
        while self.map.len() > self.cap {
            let Some((key, tick)) = self.order.pop_front() else {
                break;
            };
            if self.map.get(&key).is_some_and(|(_, t)| *t == tick) {
                self.map.remove(&key);
            }
        }
    }

    /// Drops every entry (the dataset changed under the cache).
    fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }

    /// Bounds the stale-marker backlog that hit-heavy workloads build up.
    fn compact(&mut self) {
        if self.order.len() <= self.cap.saturating_mul(8).max(64) {
            return;
        }
        let mut live: Vec<(QueryKey, u64)> =
            self.map.iter().map(|(k, (_, t))| (k.clone(), *t)).collect();
        live.sort_unstable_by_key(|(_, t)| *t);
        self.order = live.into();
    }
}

/// The per-rank resident state: owned replicas, their envelopes, the
/// R-tree over them, and the global decomposition. Split out from
/// [`QueryEngine`] so `serve` can walk it from inside exchange sinks
/// while the cache (a sibling field) stays independently borrowable.
struct ResidentIndex {
    sd: Box<dyn SpatialDecomposition>,
    owned: Vec<(u32, Feature)>,
    envelopes: Vec<Rect>,
    rtree: RTree<usize>,
    /// Whether `owned[i]` is the replica in its feature's reference cell
    /// — the one copy that represents the feature in kNN scans.
    reference: Vec<bool>,
    /// One representative cell per rank (`None` for ranks owning no
    /// cells), used to route kNN queries to every data-holding rank.
    rank_cells: Vec<Option<u32>>,
}

impl ResidentIndex {
    /// Indexes an owned replica set under its decomposition (charged as
    /// [`Work::RtreeInserts`]). Local — the communicator only charges.
    fn build(
        comm: &mut Comm,
        sd: Box<dyn SpatialDecomposition>,
        owned: Vec<(u32, Feature)>,
    ) -> Self {
        let mut index = ResidentIndex {
            sd,
            owned,
            envelopes: Vec::new(),
            rtree: RTree::bulk_load(Vec::new()),
            reference: Vec::new(),
            rank_cells: Vec::new(),
        };
        index.reindex(comm);
        index
    }

    /// Recomputes every derived structure — envelopes, R-tree,
    /// reference-replica flags, per-rank routing cells — from the
    /// current `sd` + `owned`. Called at construction and again after
    /// updates or a migration mutate the replica set.
    fn reindex(&mut self, comm: &mut Comm) {
        self.envelopes = self
            .owned
            .iter()
            .map(|(_, f)| f.geometry.envelope())
            .collect();
        comm.charge(Work::RtreeInserts {
            n: self.owned.len() as u64,
        });
        self.rtree = RTree::bulk_load(
            self.envelopes
                .iter()
                .enumerate()
                .map(|(i, r)| (*r, i))
                .collect(),
        );
        self.reference = self
            .owned
            .iter()
            .zip(&self.envelopes)
            .map(|((cell, _), mbr)| match self.sd.reference_cell(mbr) {
                Some(c) => c == *cell,
                // Degenerate (out-of-bounds reference corner): claim in
                // the lowest overlapping cell — deterministic everywhere.
                None => self.sd.cells_for_rect_vec(mbr).first() == Some(cell),
            })
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
    /// returning the claimed matches' userdata **sorted**. Identical
    /// claiming rule to `range_query`: cell overlap, MBR overlap,
    /// reference-corner dedup, exact predicate — the last only where the
    /// filter and the vertex scan left it open.
    fn rect_matches(&self, comm: &mut Comm, query: &Rect) -> Vec<&str> {
        let mut hits: Vec<usize> = Vec::new();
        self.rtree.query_with(query, &mut |i| hits.push(*i));
        comm.charge(Work::RtreeQueries {
            n: 1,
            results: hits.len() as u64,
        });
        let mut out = Vec::new();
        for i in hits {
            let (cell, f) = &self.owned[i];
            if !self.sd.cell_rect(*cell).intersects(query) {
                continue;
            }
            let mbr = &self.envelopes[i];
            comm.charge(Work::MbrTests { n: 1 });
            if !mvio_core::framework::claims_reference(&*self.sd, *cell, mbr, query) {
                continue;
            }
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
                let (vertex_inside, examined) = algo::rect_contains_any_vertex(query, &f.geometry);
                comm.charge(Work::MbrTests { n: examined });
                if !vertex_inside {
                    comm.charge(Work::RefinePair {
                        verts_a: f.geometry.num_points() as u64,
                        verts_b: 4,
                    });
                    if !algo::rect_intersects_geometry(query, &f.geometry) {
                        continue;
                    }
                }
            }
            out.push(f.userdata.as_str());
        }
        out.sort_unstable();
        out
    }

    /// Local top-`k` by `(distance, userdata)` over the reference
    /// replicas (each feature counted exactly once globally), as
    /// `(distance, index into owned)`: a best-first walk of the resident
    /// R-tree that computes exact distances only until the next box is
    /// farther than the k-th best candidate. Boxes at exactly that
    /// distance are still opened — a tie can win on userdata.
    ///
    /// Charged one [`Work::MbrTests`] per box examined and a single
    /// [`Work::RefinePair`] per walk over the summed vertices of the
    /// candidates whose exact distance was computed; pricing each
    /// candidate as a refine of its own waits for the two-step distance
    /// bound (ROADMAP item 2), without which every rank pays it.
    fn knn_local(&self, comm: &mut Comm, at: &Point, k: usize) -> Vec<(f64, usize)> {
        let userdata = |i: usize| self.owned[i].1.userdata.as_str();
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
            let f = &self.owned[i].1;
            verts += f.geometry.num_points() as u64;
            let d = algo::point_geometry_distance(at, &f.geometry);
            let pos = best.partition_point(|&(bd, bi)| {
                bd.total_cmp(&d).then_with(|| userdata(bi).cmp(&f.userdata)) != Ordering::Greater
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
    /// the userdata borrowed from the resident replicas. kNN queries ride
    /// as a `Point` with `k=<n>` userdata; range and point queries as the
    /// diagonal of their rect (whose envelope recovers it exactly).
    /// Returns the number of blocks written (none for an empty answer)
    /// and charges them as that many buffer-managed objects
    /// ([`Work::SerializeGeoms`]): the cost of returning an answer grows
    /// with its bytes, not with a per-match constant.
    fn serve_one(
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
                wkb::GeomRef::Point(p) => p.point(),
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
                .map(|(distance, i)| (distance, self.owned[i].1.userdata.as_str()))
                .unzip();
            write_answer_blocks(qid, &distances, &neighbors, cap, out)?
        } else {
            let matches = self.rect_matches(comm, &g.envelope());
            write_answer_blocks(qid, &[], &matches, cap, out)?
        };
        comm.charge(Work::SerializeGeoms {
            n: blocks,
            bytes: (out.len() - before) as u64,
        });
        Ok(blocks)
    }
}

/// Fixed bytes of one answer block: the query-index word and the two
/// length fields — the §1 record envelope, so the exchange's
/// record-aligned chunking cuts between blocks unchanged.
const BLOCK_OVERHEAD: u64 = 16;

/// The largest block a `u32` length field can describe.
const BLOCK_CAP_MAX: u64 = u32::MAX as u64;

/// Appends one owner's answer to query `qid` to `out` as answer blocks
/// (`docs/FORMAT.md` §4): `[u64 qid][u32 len][a][u32 len][b]` with `a`
/// the packed little-endian `f64` distances (kNN; `distances` is empty
/// for range/point answers, else one per match) and `b` the matches as
/// `[u32 len][utf-8]` entries, in the order given. Nothing is written for
/// an empty answer. A block closes, and the next reopens the same `qid`,
/// before the entry that would take it past `cap` bytes; a single entry
/// larger than the cap still ships whole, as an oversized record does.
/// Returns the number of blocks written.
fn write_answer_blocks(
    qid: u32,
    distances: &[f64],
    matches: &[&str],
    cap: u64,
    out: &mut Vec<u8>,
) -> Result<u64> {
    debug_assert!(distances.is_empty() || distances.len() == matches.len());
    // Length fields are checked conversions, as in the record format: an
    // oversized payload is an error, never a wrapped length.
    let put_len = |out: &mut Vec<u8>, len: u64| -> Result<()> {
        let len = u32::try_from(len).map_err(|_| {
            CoreError::Partition(format!(
                "serve protocol: answer block field of {len} bytes exceeds the u32 \
                 wire-format limit"
            ))
        })?;
        out.extend_from_slice(&len.to_le_bytes());
        Ok(())
    };
    let per_entry: u64 = if distances.is_empty() { 4 } else { 12 };
    let mut blocks = 0u64;
    let mut start = 0usize;
    while start < matches.len() {
        let (mut end, mut len) = (start, BLOCK_OVERHEAD);
        while end < matches.len() {
            let entry = per_entry + matches[end].len() as u64;
            if end > start && len + entry > cap {
                break;
            }
            len += entry;
            end += 1;
        }
        // Empty for a range/point answer, which has no distances at all.
        let block_distances = distances.get(start..end).unwrap_or_default();
        let a_len = 8 * block_distances.len() as u64;
        // audit: the block's payload is in memory already, so its length fits a usize.
        out.reserve(len as usize);
        out.extend_from_slice(&u64::from(qid).to_le_bytes());
        put_len(out, a_len)?;
        for d in block_distances {
            out.extend_from_slice(&d.to_le_bytes());
        }
        put_len(out, len - BLOCK_OVERHEAD - a_len)?;
        for m in &matches[start..end] {
            put_len(out, m.len() as u64)?;
            out.extend_from_slice(m.as_bytes());
        }
        blocks += 1;
        start = end;
    }
    Ok(blocks)
}

/// One match of a received answer block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnswerEntry<'a> {
    /// The issuing rank's index of the query this match answers.
    pub qid: u32,
    /// The match's distance from the query centre — `Some` in a kNN
    /// block, `None` in a range/point block.
    pub distance: Option<f64>,
    /// The matching feature's userdata.
    pub userdata: &'a str,
}

/// Walks one received buffer of answer blocks (`docs/FORMAT.md` §4),
/// validating as it goes: every length field is bounds-checked against
/// the bytes that remain, userdata must be UTF-8, a block must hold at
/// least one match, and its distance array must be empty or hold exactly
/// one `f64` per match. Any violation is yielded once as a typed
/// [`CoreError::Frame`], after which the walk ends; no input can make it
/// panic. Matches come out in wire order, each tagged with its block's
/// query index — which only the issuer can check against its batch.
pub fn answer_entries(buf: &[u8]) -> AnswerEntries<'_> {
    AnswerEntries {
        rest: buf,
        qid: 0,
        knn: false,
        distances: &[],
        matches: &[],
        blocks: 0,
    }
}

/// Validating iterator over the matches of one answer-block buffer; see
/// [`answer_entries`].
#[derive(Debug, Clone)]
pub struct AnswerEntries<'a> {
    /// The blocks not yet opened.
    rest: &'a [u8],
    /// The open block's query index, whether it carries distances, and
    /// its unread distances and matches.
    qid: u32,
    knn: bool,
    distances: &'a [u8],
    matches: &'a [u8],
    blocks: u64,
}

impl<'a> AnswerEntries<'a> {
    /// Blocks opened so far — after the walk, the buffer's block count.
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    fn step(&mut self) -> Result<Option<AnswerEntry<'a>>> {
        if self.matches.is_empty() {
            if !self.distances.is_empty() {
                return Err(bad_block("more distances than matches"));
            }
            if self.rest.is_empty() {
                return Ok(None);
            }
            let qid = u64::from_le_bytes(take_array(&mut self.rest, "query index")?);
            self.qid = u32::try_from(qid)
                .map_err(|_| bad_block("query index exceeds the u32 index space"))?;
            self.distances = take_prefixed(&mut self.rest, "distances")?;
            self.matches = take_prefixed(&mut self.rest, "matches")?;
            if self.matches.is_empty() {
                return Err(bad_block("block holds no match"));
            }
            self.knn = !self.distances.is_empty();
            self.blocks += 1;
        }
        let userdata = std::str::from_utf8(take_prefixed(&mut self.matches, "userdata")?)
            .map_err(|_| bad_block("non-UTF8 userdata"))?;
        let distance = if self.knn {
            let bits = take_array(&mut self.distances, "distance (fewer than matches)")?;
            Some(f64::from_le_bytes(bits))
        } else {
            None
        };
        Ok(Some(AnswerEntry {
            qid: self.qid,
            distance,
            userdata,
        }))
    }
}

impl<'a> Iterator for AnswerEntries<'a> {
    type Item = Result<AnswerEntry<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        let step = self.step();
        if step.is_err() {
            (self.rest, self.distances, self.matches) = (&[], &[], &[]);
        }
        step.transpose()
    }
}

/// The issuer's half of the result trip for one received buffer: walks
/// its answer blocks with [`answer_entries`] and files every match under
/// the query it answers, as `(distance, userdata)` (distance 0 for
/// range/point matches). Beyond the walk's own checks, a block must name
/// a query of this batch and carry distances exactly when that query is
/// a kNN; a violation is a typed `serve protocol` error. Returns the
/// buffer's `(blocks, matches)`.
fn collect_answers(
    queries: &[Query],
    buf: &[u8],
    collected: &mut [Vec<(f64, String)>],
) -> Result<(u64, u64)> {
    let mut matches = 0u64;
    let mut entries = answer_entries(buf);
    for entry in entries.by_ref() {
        let AnswerEntry {
            qid,
            distance,
            userdata,
        } = entry?;
        // audit: u32 → usize is lossless; `get` rejects out-of-range ids.
        let at = qid as usize;
        let (Some(query), Some(slot)) = (queries.get(at), collected.get_mut(at)) else {
            return Err(CoreError::Partition(format!(
                "serve protocol: result for unknown query index {qid}"
            )));
        };
        if distance.is_some() != matches!(query, Query::Knn { .. }) {
            return Err(CoreError::Partition(format!(
                "serve protocol: answer block for query {qid} ({query:?}) {} distances",
                if distance.is_some() {
                    "carries"
                } else {
                    "lacks"
                }
            )));
        }
        slot.push((distance.unwrap_or(0.0), userdata.into()));
        matches += 1;
    }
    Ok((entries.blocks(), matches))
}

fn bad_block(msg: &str) -> CoreError {
    CoreError::Frame(format!("serve protocol: answer block: {msg}"))
}

/// Splits `n` bytes off the front of `buf`, or reports `what` truncated.
fn take<'a>(buf: &mut &'a [u8], n: usize, what: &str) -> Result<&'a [u8]> {
    if buf.len() < n {
        return Err(bad_block(&format!(
            "truncated {what}: {n} bytes wanted, {} left",
            buf.len()
        )));
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

/// Splits a fixed-width little-endian field off the front of `buf`.
fn take_array<const N: usize>(buf: &mut &[u8], what: &str) -> Result<[u8; N]> {
    let bytes = take(buf, N, what)?;
    // audit: `take` returned exactly N bytes.
    Ok(bytes.try_into().expect("N-byte slice"))
}

/// Splits a `[u32 len][len bytes]` field off the front of `buf`.
fn take_prefixed<'a>(buf: &mut &'a [u8], what: &str) -> Result<&'a [u8]> {
    let len = u32::from_le_bytes(take_array(buf, what)?);
    let len = usize::try_from(len).map_err(|_| {
        bad_block(&format!(
            "{what} length {len} does not fit this target's usize"
        ))
    })?;
    take(buf, len, what)
}

/// Encodes a query rect as the 2-point diagonal linestring whose
/// envelope recovers it exactly (WKB coordinates round-trip `f64`s
/// bit-for-bit).
fn wire_rect(r: &Rect) -> Feature {
    let diagonal = LineString::new(vec![
        Point::new(r.min_x, r.min_y),
        Point::new(r.max_x, r.max_y),
    ])
    // audit: a validated rectangle's corners always form a >= 2-point linestring.
    .expect("validated rect corners form a linestring");
    Feature::with_userdata(Geometry::LineString(diagonal), String::new())
}

/// A resident distributed query engine (see the [module docs](self)).
///
/// Collective lifecycle: every rank constructs it together (the
/// constructors run collective exchanges/reads) and every rank calls
/// [`QueryEngine::serve`] together, each with its own — possibly empty,
/// possibly different-sized — query batch.
pub struct QueryEngine {
    index: ResidentIndex,
    chunk: ExchangeChunk,
    cache: Option<ResultCache>,
    /// The online-rebalance driver (`None` when the policy resolves to
    /// off); its drift tracker absorbs every applied update.
    rebalancer: Option<Rebalancer>,
}

impl QueryEngine {
    /// Builds the engine from an ingest run's output, indexing the owned
    /// replicas (charged as [`Work::RtreeInserts`]).
    /// Collective: every rank must call it.
    pub fn from_ingest(comm: &mut Comm, out: IngestOutput, opts: &EngineOptions) -> Self {
        Self::from_parts(comm, out.decomp, out.owned, opts)
    }

    /// Builds the engine from an already-partitioned `(cell, feature)`
    /// set and its decomposition — the seam `range_query` and
    /// `batch_query` drive after their own read/exchange phases.
    /// Collective: every rank must call it.
    pub fn from_parts(
        comm: &mut Comm,
        sd: Box<dyn SpatialDecomposition>,
        owned: Vec<(u32, Feature)>,
        opts: &EngineOptions,
    ) -> Self {
        let index = ResidentIndex::build(comm, sd, owned);
        let rebalancer = Rebalancer::from_policy(opts.rebalance, &*index.sd, &index.owned);
        QueryEngine {
            index,
            chunk: opts.chunk,
            cache: opts.cache.resolve().map(ResultCache::new),
            rebalancer,
        }
    }

    /// Builds the engine from a PR 5 binary snapshot: header read,
    /// decomposition rebuild under `policy`, collective
    /// [`snapshot::read_partitioned`]. The adaptive policy is rejected
    /// with [`CoreError::InvalidOptions`] — a snapshot does not carry
    /// the feature histogram it needs (same contract as snapshot joins).
    pub fn from_snapshot(
        comm: &mut Comm,
        fs: &Arc<SimFs>,
        path: &str,
        policy: DecompPolicy,
        read: &SnapshotReadOptions,
        opts: &EngineOptions,
    ) -> Result<Self> {
        let meta = snapshot::read_meta_timed(comm, fs, path)?;
        let grid = UniformGrid::try_new(meta.bounds, meta.spec)?;
        let sd: Box<dyn SpatialDecomposition> = match policy {
            DecompPolicy::Uniform(map) => {
                Box::new(UniformDecomposition::new(grid, map, comm.size()))
            }
            DecompPolicy::Hilbert => Box::new(HilbertDecomposition::new(grid, comm.size())),
            DecompPolicy::Adaptive { .. } => {
                return Err(CoreError::InvalidOptions(
                    "adaptive bisection needs the feature histogram, which a snapshot \
                     does not carry; serve snapshots with the uniform or hilbert policy"
                        .into(),
                ))
            }
        };
        let (owned, _) = snapshot::read_partitioned(comm, fs, path, &*sd, read)?;
        Ok(Self::from_parts(comm, sd, owned, opts))
    }

    /// The resident decomposition (e.g. for generating in-bounds query
    /// workloads against `bounds()`).
    pub fn decomposition(&self) -> &dyn SpatialDecomposition {
        &*self.index.sd
    }

    /// Number of feature replicas resident on this rank.
    pub fn resident_replicas(&self) -> usize {
        self.index.owned.len()
    }

    /// Read-only view of this rank's resident `(cell, feature)` replicas
    /// — what a full re-shuffle would have to ship. The rebalance
    /// experiment serializes these to report migrated bytes as a
    /// fraction of the partition.
    pub fn resident(&self) -> &[(u32, Feature)] {
        &self.index.owned
    }

    /// Answers one rectangle against this rank's replicas only — no
    /// communication, no cache. The one-shot `range_query` wrapper uses
    /// this for its compute phase; the union of every rank's local
    /// matches is the global answer (duplicate-free by the
    /// reference-corner rule).
    /// Not collective — answers from this rank's replicas only; the
    /// communicator only charges the tree walk.
    pub fn local_range_matches(&self, comm: &mut Comm, query: &Rect) -> Result<Vec<String>> {
        validate_query(&Query::Range(*query))?;
        let matches = self.index.rect_matches(comm, query);
        Ok(matches.into_iter().map(String::from).collect())
    }

    /// The configured rebalance threshold (`None` = rebalancing off).
    pub fn rebalance_threshold(&self) -> Option<f64> {
        self.rebalancer.as_ref().map(Rebalancer::threshold)
    }

    /// Applies a batch of streaming [`Update`]s to the resident
    /// partition, reindexes the local replicas, and drops the result
    /// cache (cached answers may name deleted features or miss inserted
    /// ones; see [`rebalance::apply_updates`] for the routing protocol
    /// and the drift-histogram bookkeeping).
    /// Collective — every rank must call it together, each with its own
    /// (possibly empty) batch. Invalid updates anywhere in the world
    /// reject the whole call symmetrically with
    /// [`CoreError::InvalidOptions`] before anything ships, leaving the
    /// engine untouched and usable for the next batch.
    pub fn apply_updates(&mut self, comm: &mut Comm, updates: &[Update]) -> Result<UpdateStats> {
        let result = rebalance::apply_updates(
            comm,
            &*self.index.sd,
            &mut self.index.owned,
            updates,
            self.chunk,
            self.rebalancer.as_mut().map(Rebalancer::tracker_mut),
        );
        // Reindex and invalidate even on the deferred-error path: the
        // exchange applies whatever arrived before winding down, and a
        // remote rank's updates can stale this rank's cached answers
        // without shipping this rank a single record.
        self.index.reindex(comm);
        if let Some(cache) = self.cache.as_mut() {
            cache.clear();
        }
        result
    }

    /// Checks the drifted load balance and — when the configured
    /// threshold has tripped — re-decomposes over the same cell tiling
    /// and migrates only the cells whose owner changed (see
    /// [`Rebalancer::maybe_rebalance`]). A no-op all-zero report comes
    /// back when rebalancing is off. The result cache survives: a
    /// migration moves replicas between ranks without changing the
    /// dataset, so cached answers stay exact.
    /// Collective — every rank must call it together (the construction
    /// contract requires the same policy on every rank, so all ranks
    /// take the same branch).
    pub fn maybe_rebalance(&mut self, comm: &mut Comm) -> Result<RebalanceReport> {
        let Some(reb) = self.rebalancer.as_mut() else {
            return Ok(RebalanceReport::default());
        };
        let report =
            reb.maybe_rebalance(comm, &mut self.index.sd, &mut self.index.owned, self.chunk)?;
        if report.rebalanced {
            self.index.reindex(comm);
        }
        Ok(report)
    }

    /// Serves one batch of queries; collective — every rank must call it
    /// (with its own batch; empty is fine).
    ///
    /// Answers come back aligned with `queries`, deterministic and
    /// duplicate-free (module docs). Invalid queries anywhere in the
    /// world reject the whole call symmetrically with
    /// [`CoreError::InvalidOptions`] before any shipping; the engine
    /// remains usable for the next batch.
    pub fn serve(&mut self, comm: &mut Comm, queries: &[Query]) -> Result<ServeReport> {
        let p = comm.size();

        // 1. Validate locally, agree globally. The u32 wire limit on
        // query indices folds into the same symmetric rejection.
        let mut local_err = queries.iter().map(validate_query).find_map(Result::err);
        if local_err.is_none() && queries.len() > u32::MAX as usize {
            local_err = Some(CoreError::InvalidOptions(format!(
                "serve batch of {} queries exceeds the u32 wire-format index space",
                queries.len()
            )));
        }
        let bad_ranks = comm.labeled("serve.status", |c| {
            c.allreduce_u64(u64::from(local_err.is_some()), |a, b| a + b)
        });
        if bad_ranks > 0 {
            return Err(local_err.unwrap_or_else(|| {
                CoreError::InvalidOptions(format!(
                    "query batch aborted: {bad_ranks} rank(s) submitted invalid queries"
                ))
            }));
        }

        let mut stats = ServeStats {
            queries: queries.len() as u64,
            ..Default::default()
        };

        // 2. Cache lookups; the misses are grouped by query identity so
        // each distinct query is routed once, by its first instance.
        let mut answers: Vec<Option<QueryAnswer>> = vec![None; queries.len()];
        let mut routed: Vec<usize> = Vec::new();
        let mut first_instance: HashMap<QueryKey, usize> = HashMap::new();
        // `(instance, routed first instance)` of every in-batch repeat.
        let mut repeats: Vec<(usize, usize)> = Vec::new();
        for (qi, q) in queries.iter().enumerate() {
            let key = query_key(q);
            if let Some(cache) = self.cache.as_mut() {
                if let Some(ans) = cache.get(&key) {
                    answers[qi] = Some(ans);
                    stats.answered_from_cache += 1;
                    continue;
                }
            }
            match first_instance.entry(key) {
                Entry::Occupied(first) => repeats.push((qi, *first.get())),
                Entry::Vacant(slot) => {
                    slot.insert(qi);
                    routed.push(qi);
                }
            }
        }
        stats.routed = routed.len() as u64;

        // 3. Serialize each routed query once per destination rank.
        let mut qbatch = SerializedBatch::empty(p);
        let mut scratch = Vec::new();
        let mut cells: Vec<u32> = Vec::new();
        let mut dests: Vec<usize> = Vec::new();
        for &qi in &routed {
            let q = &queries[qi];
            dests.clear();
            let feat = match q {
                Query::Range(r) => {
                    self.index.sd.cells_for_rect(r, &mut cells);
                    dests.extend(cells.iter().map(|&c| self.index.sd.cell_to_rank(c)));
                    wire_rect(r)
                }
                Query::Point(pt) => {
                    self.index.sd.cells_for_rect(&pt.envelope(), &mut cells);
                    dests.extend(cells.iter().map(|&c| self.index.sd.cell_to_rank(c)));
                    wire_rect(&pt.envelope())
                }
                Query::Knn { at, k } => {
                    dests.extend(
                        self.index
                            .rank_cells
                            .iter()
                            .enumerate()
                            .filter_map(|(r, c)| c.map(|_| r)),
                    );
                    Feature::with_userdata(Geometry::Point(*at), format!("k={k}"))
                }
            };
            dests.sort_unstable();
            dests.dedup();
            for &d in &dests {
                // audit: qi indexes the caller's query slice, far below u32::MAX.
                serialize_record(qi as u32, &feat, &mut scratch, &mut qbatch.bufs[d])?;
                qbatch.records[d] += 1;
            }
        }
        stats.shipped_records = qbatch.records.iter().sum();
        comm.charge(Work::SerializeGeoms {
            n: stats.shipped_records,
            bytes: qbatch.bufs.iter().map(|b| b.len() as u64).sum(),
        });

        // 4. Ship queries; answer each received round in the sink while
        // later rounds fly. Per-rank failures wind down inside the plan
        // (empty rounds), and this rank still runs the result trip so
        // the collectives stay matched world-wide.
        let plan = ExchangePlan::new(comm, &ExchangeOptions::with_chunk(self.chunk));
        // Answer blocks close at the plan's chunk cap, and in any case
        // before their u32 length fields would overflow.
        let block_cap = self.chunk.resolve().unwrap_or(u64::MAX).min(BLOCK_CAP_MAX);
        let mut rbatch = SerializedBatch::empty(p);
        let index = &self.index;
        let mut deferred: Option<CoreError> = None;
        match comm.labeled("serve.queries", |c| {
            plan.run(c, &mut qbatch.into_feed(&plan), &mut |comm, bufs| {
                let received = validate_round(comm, &bufs)?;
                for (src, buf) in bufs.iter().enumerate() {
                    for fr in record_frames(buf) {
                        rbatch.records[src] +=
                            index.serve_one(comm, &fr, block_cap, &mut rbatch.bufs[src])?;
                    }
                }
                Ok(received)
            })
        }) {
            Ok(s) => stats.query_exchange = s,
            Err(e) => {
                deferred = Some(e);
                rbatch = SerializedBatch::empty(p);
            }
        }

        // 5. Ship the answer blocks back to the issuing ranks, which
        // validate them as they collect.
        let mut collected: Vec<Vec<(f64, String)>> = vec![Vec::new(); queries.len()];
        match comm.labeled("serve.results", |c| {
            plan.run(c, &mut rbatch.into_feed(&plan), &mut |comm, bufs| {
                let (mut blocks, mut bytes) = (0u64, 0u64);
                for buf in &bufs {
                    let (b, matches) = collect_answers(queries, buf, &mut collected)?;
                    blocks += b;
                    stats.result_records += matches;
                    bytes += buf.len() as u64;
                }
                comm.charge(Work::CopyBytes { n: bytes });
                Ok(blocks)
            })
        }) {
            Ok(s) => stats.result_exchange = s,
            Err(e) => {
                if deferred.is_none() {
                    deferred = Some(e);
                }
            }
        }
        if let Some(e) = deferred {
            return Err(e);
        }

        // 6. Merge, cache, align.
        for &qi in &routed {
            let ans = match &queries[qi] {
                Query::Range(_) | Query::Point(_) => {
                    let mut v: Vec<String> = collected[qi].drain(..).map(|(_, ud)| ud).collect();
                    v.sort_unstable();
                    QueryAnswer::Matches(v)
                }
                Query::Knn { k, .. } => {
                    let mut v = std::mem::take(&mut collected[qi]);
                    v.sort_unstable_by(|x, y| x.0.total_cmp(&y.0).then_with(|| x.1.cmp(&y.1)));
                    // audit: u32 → usize is lossless on every supported target.
                    v.truncate(*k as usize);
                    QueryAnswer::Neighbors(
                        v.into_iter()
                            .map(|(distance, userdata)| Neighbor { distance, userdata })
                            .collect(),
                    )
                }
            };
            if let Some(cache) = self.cache.as_mut() {
                cache.insert(query_key(&queries[qi]), ans.clone());
            }
            answers[qi] = Some(ans);
        }
        for (qi, first) in repeats {
            answers[qi] = answers[first].clone();
        }
        let answers = answers
            .into_iter()
            .map(|a| a.unwrap_or(QueryAnswer::Matches(Vec::new())))
            .collect();
        Ok(ServeReport { answers, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvio_core::decomp::{self, DecompConfig};
    use mvio_core::exchange::exchange_features;
    use mvio_core::grid::{CellMap, GridSpec};
    use mvio_core::partition::{read_features, ReadOptions};
    use mvio_core::reader::WktLineParser;
    use mvio_msim::{Topology, World, WorldConfig};
    use mvio_pfs::FsConfig;

    fn lattice_fs(n: u32) -> Arc<SimFs> {
        let fs = SimFs::new(FsConfig::gpfs_roger());
        let f = fs.create("pts.wkt", None).unwrap();
        let mut text = String::new();
        for y in 0..n {
            for x in 0..n {
                text.push_str(&format!("POINT ({x} {y})\tp{x}_{y}\n"));
            }
        }
        f.append(text.as_bytes());
        fs
    }

    fn build_engine(comm: &mut Comm, fs: &Arc<SimFs>, opts: &EngineOptions) -> QueryEngine {
        let features =
            read_features(comm, fs, "pts.wkt", &ReadOptions::default(), &WktLineParser).unwrap();
        let cfg = DecompConfig {
            grid: GridSpec::square(4),
            policy: DecompPolicy::Uniform(CellMap::RoundRobin),
        };
        let sd = decomp::build_global(comm, &[&features], &cfg);
        let rtree = decomp::build_cell_rtree(comm, &*sd);
        let pairs = decomp::project_to_cells(comm, &rtree, &features);
        let owned: Vec<(u32, Feature)> = pairs
            .into_iter()
            .map(|(cell, idx)| (cell, features[idx].clone()))
            .collect();
        let (mine, _) = exchange_features(comm, owned, &*sd, &ExchangeOptions::default()).unwrap();
        QueryEngine::from_parts(comm, sd, mine, opts)
    }

    #[test]
    fn serve_answers_mixed_batch_identically_on_every_rank() {
        let fs = lattice_fs(10);
        let out = World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
            let mut eng = build_engine(comm, &fs, &EngineOptions::default());
            let batch = vec![
                Query::Range(Rect::new(2.5, 2.5, 5.5, 4.5)),
                Query::Point(Point::new(7.0, 7.0)),
                Query::Point(Point::new(7.5, 7.5)),
                Query::Knn {
                    at: Point::new(0.2, 0.0),
                    k: 2,
                },
            ];
            eng.serve(comm, &batch).unwrap().answers
        });
        for answers in &out {
            assert_eq!(
                answers[0],
                QueryAnswer::Matches(
                    ["p3_3", "p3_4", "p4_3", "p4_4", "p5_3", "p5_4"]
                        .map(String::from)
                        .to_vec()
                )
            );
            assert_eq!(answers[1], QueryAnswer::Matches(vec!["p7_7".into()]));
            assert_eq!(answers[2], QueryAnswer::Matches(vec![]));
            let QueryAnswer::Neighbors(nb) = &answers[3] else {
                panic!("knn answer expected");
            };
            let labels: Vec<&str> = nb.iter().map(|n| n.userdata.as_str()).collect();
            assert_eq!(labels, vec!["p0_0", "p1_0"]);
        }
    }

    #[test]
    fn knn_handles_ties_and_oversized_k() {
        let fs = lattice_fs(3); // 9 points
        let out = World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
            let mut eng = build_engine(comm, &fs, &EngineOptions::default());
            let batch = vec![
                // Centre of the lattice: 4 neighbours at distance 1 tie;
                // ties break lexicographically on userdata.
                Query::Knn {
                    at: Point::new(1.0, 1.0),
                    k: 5,
                },
                // k beyond the dataset returns everything.
                Query::Knn {
                    at: Point::new(0.0, 0.0),
                    k: 100,
                },
            ];
            eng.serve(comm, &batch).unwrap().answers
        });
        for answers in &out {
            let QueryAnswer::Neighbors(nb) = &answers[0] else {
                panic!()
            };
            let labels: Vec<&str> = nb.iter().map(|n| n.userdata.as_str()).collect();
            assert_eq!(labels, vec!["p1_1", "p0_1", "p1_0", "p1_2", "p2_1"]);
            assert_eq!(answers[1].len(), 9);
        }
    }

    /// A one-rank engine over `features` on a `side × side` grid of
    /// `[0, 8]²` (a single rank owns every cell, so every replica of a
    /// cell-spanning feature is resident and all but one are
    /// non-reference).
    fn one_rank_engine(comm: &mut Comm, side: u32, features: &[Feature]) -> QueryEngine {
        let grid = UniformGrid::new(Rect::new(0.0, 0.0, 8.0, 8.0), GridSpec::square(side));
        let sd: Box<dyn SpatialDecomposition> =
            Box::new(UniformDecomposition::new(grid, CellMap::RoundRobin, 1));
        let owned: Vec<(u32, Feature)> = features
            .iter()
            .flat_map(|f| {
                sd.cells_for_rect_vec(&f.geometry.envelope())
                    .into_iter()
                    .map(|c| (c, f.clone()))
            })
            .collect();
        QueryEngine::from_parts(comm, sd, owned, &EngineOptions::default())
    }

    fn segment(x0: f64, y0: f64, x1: f64, y1: f64, label: &str) -> Feature {
        let line = LineString::new(vec![Point::new(x0, y0), Point::new(x1, y1)]).unwrap();
        Feature::with_userdata(Geometry::LineString(line), label)
    }

    #[test]
    fn vertex_hits_skip_refine_and_crossers_keep_it() {
        World::run(WorldConfig::new(Topology::single_node(1)), |comm| {
            // Nine short segments around (2, 2); nine longer ones in the
            // top-left cell, each starting at x = 1.2 and ending at
            // x = 2.8; and one long anti-diagonal whose envelope [5, 8]²
            // covers the top-right corner without the line coming near it.
            let mut features: Vec<Feature> = (0..9)
                .map(|i| {
                    let (x, y) = (1.5 + (i % 3) as f64 * 0.4, 1.5 + (i / 3) as f64 * 0.4);
                    segment(x, y, x + 0.2, y + 0.1, &format!("s{i}"))
                })
                .collect();
            features.extend((0..9).map(|i| {
                let y = 4.5 + i as f64 * 0.1;
                segment(1.2, y, 2.8, y + 0.05, &format!("v{i}"))
            }));
            features.push(segment(5.0, 8.0, 8.0, 5.0, "diagonal"));
            let eng = one_rank_engine(comm, 2, &features);
            let refine_fixed = comm.cost_model().refine_fixed;
            let mut timed = |window: Rect| {
                let t = comm.now();
                let matches = eng.local_range_matches(comm, &window).unwrap();
                (matches, comm.now() - t)
            };

            // Every hit's envelope lies inside the window: none is refined.
            let (inside, spent) = timed(Rect::new(1.0, 1.0, 3.0, 3.0));
            assert_eq!(inside.len(), 9);
            assert!(
                spent < refine_fixed,
                "9 contained hits cost {spent} s, one refine alone is {refine_fixed} s"
            );

            // The window's right edge cuts all nine `v` segments, whose
            // first vertex lies inside it: true hits, none refined.
            let (cut, spent) = timed(Rect::new(1.0, 4.2, 2.0, 6.0));
            assert_eq!(cut.len(), 9, "{cut:?}");
            assert!(
                spent < refine_fixed,
                "9 vertex hits cost {spent} s, one refine alone is {refine_fixed} s"
            );

            // The corner window overlaps the diagonal's envelope, but
            // neither end of the line is inside it: refined, and excluded
            // by the exact test.
            let (corner, spent) = timed(Rect::new(7.2, 7.2, 7.9, 7.9));
            assert!(corner.is_empty(), "the line misses the corner: {corner:?}");
            assert!(spent >= refine_fixed, "an envelope-only overlap is refined");

            // A window the line crosses with both ends outside is still
            // found — through refine.
            let (crossing, spent) = timed(Rect::new(6.0, 6.0, 7.0, 7.0));
            assert_eq!(crossing, vec!["diagonal".to_string()]);
            assert!(spent >= refine_fixed, "a crosser must be refined");
        });
    }

    #[test]
    fn returning_an_answer_is_not_charged_per_match() {
        World::run(WorldConfig::new(Topology::single_node(1)), |comm| {
            // 500 points in the left half of the world, one in the right.
            let mut features: Vec<Feature> = (0..500)
                .map(|i| {
                    let (x, y) = (0.5 + (i % 25) as f64 * 0.1, 0.5 + (i / 25) as f64 * 0.1);
                    Feature::with_userdata(Geometry::Point(Point::new(x, y)), format!("p{i:03}"))
                })
                .collect();
            features.push(Feature::with_userdata(
                Geometry::Point(Point::new(6.0, 6.0)),
                "lone",
            ));
            let eng = one_rank_engine(comm, 1, &features);
            let mut answer = |window: Rect| {
                // The query frame `serve` would ship for the window.
                let mut query = Vec::new();
                serialize_record(7, &wire_rect(&window), &mut Vec::new(), &mut query).unwrap();
                let fr = record_frames(&query).next().unwrap();
                let mut out = Vec::new();
                let t = comm.now();
                let blocks = eng
                    .index
                    .serve_one(comm, &fr, BLOCK_CAP_MAX, &mut out)
                    .unwrap();
                (blocks, out, comm.now() - t)
            };
            let (blocks, many, cost_many) = answer(Rect::new(0.0, 0.0, 4.0, 4.0));
            let (_, one, cost_one) = answer(Rect::new(5.0, 5.0, 7.0, 7.0));
            assert_eq!(blocks, 1, "an uncapped answer is one block");
            let labels: Vec<String> = answer_entries(&many)
                .map(|e| e.unwrap().userdata.to_string())
                .collect();
            assert_eq!(labels.len(), 500);
            assert!(
                labels.windows(2).all(|w| w[0] < w[1]),
                "owner order is sorted"
            );
            assert_eq!(answer_entries(&one).count(), 1);
            // The whole owner-side cost of 499 more matches — tree walk,
            // filter and the block's bytes included — stays far below one
            // microsecond each; a per-match buffer-management charge
            // (12 µs at the parent) cannot creep back unnoticed.
            assert!(
                cost_many - cost_one < 500.0 * 1e-6,
                "500 matches cost {cost_many} s, 1 match {cost_one} s"
            );
        });
    }

    /// A buffer of answer blocks decoded: `(qid, distance, userdata)`.
    type Decoded = Vec<(u32, Option<f64>, String)>;

    /// A valid three-block buffer — a kNN answer split in two by an
    /// 80-byte cap, then a range answer — with the batch it answers and
    /// its decoded form.
    fn sample_blocks() -> (Vec<Query>, Vec<u8>, Decoded) {
        let queries = vec![
            Query::Range(Rect::new(0.0, 0.0, 1.0, 1.0)),
            Query::Knn {
                at: Point::new(0.0, 0.0),
                k: 4,
            },
        ];
        let mut buf = Vec::new();
        let neighbors = ["alpha", "beta", "gamma-gamma", "δelta"];
        let distances = [0.0, 0.5, 0.5, 2.25];
        let knn_blocks = write_answer_blocks(1, &distances, &neighbors, 80, &mut buf).unwrap();
        assert_eq!(knn_blocks, 2, "the cap must split the kNN answer");
        let matches = ["a", "", "ccc"];
        assert_eq!(
            write_answer_blocks(0, &[], &matches, 80, &mut buf).unwrap(),
            1
        );
        assert_eq!(write_answer_blocks(0, &[], &[], 80, &mut buf).unwrap(), 0);
        let mut parsed: Decoded = neighbors
            .iter()
            .zip(distances)
            .map(|(n, d)| (1, Some(d), n.to_string()))
            .collect();
        parsed.extend(matches.iter().map(|m| (0, None, m.to_string())));
        (queries, buf, parsed)
    }

    /// Walks `buf` as the issuer does; `Ok` holds the decoded entries.
    fn decode(queries: &[Query], buf: &[u8]) -> Result<Decoded> {
        let mut collected = vec![Vec::new(); queries.len()];
        collect_answers(queries, buf, &mut collected)?;
        answer_entries(buf)
            .map(|e| e.map(|e| (e.qid, e.distance, e.userdata.to_string())))
            .collect()
    }

    /// Byte offsets of every block's start and of every `u32` length
    /// field in a valid buffer.
    fn block_layout(buf: &[u8]) -> (Vec<usize>, Vec<usize>) {
        let u32_at = |at: usize| u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()) as usize;
        let (mut starts, mut fields) = (Vec::new(), Vec::new());
        let mut pos = 0;
        while pos < buf.len() {
            starts.push(pos);
            let a_len = u32_at(pos + 8);
            let b_at = pos + 12 + a_len;
            fields.extend([pos + 8, b_at]);
            let b_end = b_at + 4 + u32_at(b_at);
            let mut entry = b_at + 4;
            while entry < b_end {
                fields.push(entry);
                entry += 4 + u32_at(entry);
            }
            pos = b_end;
        }
        (starts, fields)
    }

    #[test]
    fn answer_block_decoder_survives_every_mutation() {
        let (queries, valid, parsed) = sample_blocks();
        assert_eq!(decode(&queries, &valid).unwrap(), parsed);
        let (starts, fields) = block_layout(&valid);
        assert_eq!(starts.len(), 3);
        // Every outcome must be a typed error or a parse — a panic (also
        // an arithmetic overflow under debug assertions) fails the test.
        let typed = |r: Result<Decoded>| match r {
            Ok(entries) => Some(entries),
            Err(CoreError::Frame(_) | CoreError::Partition(_)) => None,
            Err(other) => panic!("untyped decoder error: {other:?}"),
        };

        // Truncation at every offset: a cut between blocks is the valid
        // prefix, any other cut is an error.
        for cut in 0..valid.len() {
            let got = typed(decode(&queries, &valid[..cut]));
            if let Some(blocks) = starts.iter().position(|&s| s == cut) {
                let entries = got.unwrap_or_else(|| panic!("cut {cut} is block-aligned"));
                assert!(parsed.starts_with(&entries), "cut {cut}");
                assert_eq!(entries.is_empty(), blocks == 0);
            } else {
                assert!(got.is_none(), "cut {cut} inside a block parsed: {got:?}");
            }
        }

        // Every length field set to 0, u32::MAX and ±1.
        for &at in &fields {
            let len = u32::from_le_bytes(valid[at..at + 4].try_into().unwrap());
            for value in [0, u32::MAX, len.wrapping_add(1), len.wrapping_sub(1)] {
                let mut buf = valid.clone();
                buf[at..at + 4].copy_from_slice(&value.to_le_bytes());
                let got = typed(decode(&queries, &buf));
                if value != len {
                    assert_ne!(got.as_ref(), Some(&parsed), "field at {at} set to {value}");
                }
            }
        }

        // One distance dropped from, or added to, the first kNN block.
        let a_len = u32::from_le_bytes(valid[8..12].try_into().unwrap());
        let mut dropped = valid.clone();
        dropped.drain(12..20);
        dropped[8..12].copy_from_slice(&(a_len - 8).to_le_bytes());
        assert!(typed(decode(&queries, &dropped)).is_none());
        let mut added = valid.clone();
        added.splice(12..12, 1.0f64.to_le_bytes());
        added[8..12].copy_from_slice(&(a_len + 8).to_le_bytes());
        assert!(typed(decode(&queries, &added)).is_none());

        // Non-UTF-8 userdata, in the last entry of the last block.
        let mut spliced = valid.clone();
        *spliced.last_mut().unwrap() = 0xFF;
        assert!(typed(decode(&queries, &spliced)).is_none());

        // A query index outside the batch, one past the u32 index space,
        // and one naming a query of the other kind.
        for (block, qid) in [(0, 2u64), (0, 1 << 32), (0, 0), (2, 1)] {
            let mut buf = valid.clone();
            buf[starts[block]..starts[block] + 8].copy_from_slice(&qid.to_le_bytes());
            assert!(
                typed(decode(&queries, &buf)).is_none(),
                "block {block} retagged as query {qid}"
            );
        }
    }

    /// `knn_local`'s oracle: exact distance to every reference replica,
    /// sorted, truncated.
    fn knn_scan<'a>(index: &'a ResidentIndex, at: &Point, k: usize) -> Vec<(f64, &'a str)> {
        let mut best: Vec<(f64, &str)> = index
            .owned
            .iter()
            .zip(&index.reference)
            .filter(|(_, reference)| **reference)
            .map(|((_, f), _)| {
                (
                    algo::point_geometry_distance(at, &f.geometry),
                    f.userdata.as_str(),
                )
            })
            .collect();
        best.sort_unstable_by(|x, y| x.0.total_cmp(&y.0).then_with(|| x.1.cmp(y.1)));
        best.truncate(k);
        best
    }

    #[test]
    fn knn_walk_matches_the_scan_oracle_on_ties() {
        World::run(WorldConfig::new(Topology::single_node(1)), |comm| {
            // Three clusters of lattice points a quarter apart — rings of
            // equal distances around every lattice site — each site held
            // twice under different labels, plus squares that span cells
            // (so non-reference replicas are resident).
            let mut features = Vec::new();
            for (c, (cx, cy)) in [(1.0, 1.0), (4.0, 4.5), (6.5, 2.0)].into_iter().enumerate() {
                for i in 0..49 {
                    let (x, y) = (cx + (i % 7) as f64 * 0.25, cy + (i / 7) as f64 * 0.25);
                    for twin in ["a", "b"] {
                        features.push(Feature::with_userdata(
                            Geometry::Point(Point::new(x, y)),
                            format!("c{c}_{i:02}{twin}"),
                        ));
                    }
                }
            }
            for (i, (x, y)) in [(1.8, 1.8), (3.9, 3.9), (5.9, 1.9)].into_iter().enumerate() {
                let square = mvio_geom::Polygon::from_coords(
                    vec![
                        Point::new(x, y),
                        Point::new(x + 0.5, y),
                        Point::new(x + 0.5, y + 0.5),
                        Point::new(x, y + 0.5),
                        Point::new(x, y),
                    ],
                    vec![],
                )
                .unwrap();
                features.push(Feature::with_userdata(
                    Geometry::Polygon(square),
                    format!("sq{i}"),
                ));
            }
            let eng = one_rank_engine(comm, 4, &features);
            let index = &eng.index;
            assert!(index.reference.iter().any(|r| !r), "need ghost replicas");
            let dataset = features.len();
            for at in [
                Point::new(1.75, 1.75),   // a lattice site
                Point::new(1.875, 1.875), // the centre of a lattice square
                Point::new(4.0, 4.5),     // a cluster corner
                Point::new(2.0, 2.0),     // inside a square, on a cell corner
                Point::new(-3.0, 9.5),    // outside the world
            ] {
                for k in [
                    1,
                    2,
                    5,
                    8,
                    33,
                    dataset - 1,
                    dataset,
                    dataset + 7,
                    u32::MAX as usize,
                ] {
                    let walked: Vec<(f64, &str)> = index
                        .knn_local(comm, &at, k)
                        .into_iter()
                        .map(|(d, i)| (d, index.owned[i].1.userdata.as_str()))
                        .collect();
                    assert_eq!(walked, knn_scan(index, &at, k), "at {at:?}, k {k}");
                }
            }
            // The walk is what makes a small k cheap: far fewer exact
            // distances than the dataset holds.
            let t = comm.now();
            index.knn_local(comm, &Point::new(1.75, 1.75), 3);
            let model = comm.cost_model();
            let scan_floor = model.cost(Work::MbrTests { n: dataset as u64 })
                + model.cost(Work::RefinePair {
                    verts_a: dataset as u64,
                    verts_b: 1,
                });
            assert!(comm.now() - t < scan_floor);
        });
    }

    #[test]
    fn cache_hits_preserve_answers() {
        let fs = lattice_fs(10);
        let out = World::run(WorldConfig::new(Topology::single_node(4)), move |comm| {
            let mut eng = build_engine(
                comm,
                &fs,
                &EngineOptions {
                    cache: ServeCache::Entries(8),
                    ..Default::default()
                },
            );
            let batch = vec![
                Query::Range(Rect::new(2.5, 2.5, 5.5, 4.5)),
                Query::Knn {
                    at: Point::new(0.0, 0.0),
                    k: 3,
                },
            ];
            let first = eng.serve(comm, &batch).unwrap();
            let second = eng.serve(comm, &batch).unwrap();
            assert_eq!(first.stats.answered_from_cache, 0);
            assert_eq!(second.stats.answered_from_cache, 2);
            assert_eq!(second.stats.shipped_records, 0);
            (first.answers, second.answers)
        });
        for (first, second) in &out {
            assert_eq!(first, second);
        }
    }

    #[test]
    fn lru_evicts_oldest_entry() {
        let mut cache = ResultCache::new(2);
        let k = |i: u32| QueryKey {
            tag: 0,
            a: i as u64,
            b: 0,
            c: 0,
            d: 0,
            k: 0,
        };
        cache.insert(k(1), QueryAnswer::Matches(vec!["a".into()]));
        cache.insert(k(2), QueryAnswer::Matches(vec!["b".into()]));
        assert!(cache.get(&k(1)).is_some()); // touch 1: now 2 is LRU
        cache.insert(k(3), QueryAnswer::Matches(vec!["c".into()]));
        assert!(cache.get(&k(1)).is_some());
        assert!(cache.get(&k(2)).is_none());
        assert!(cache.get(&k(3)).is_some());
    }

    #[test]
    fn snapshot_engine_matches_ingest_engine() {
        let fs = lattice_fs(8);
        let out = World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
            let mut eng = build_engine(comm, &fs, &EngineOptions::default());
            // Round-trip through a snapshot and serve the same query.
            let query = vec![Query::Range(Rect::new(1.5, 1.5, 4.5, 4.5))];
            let direct = eng.serve(comm, &query).unwrap().answers;
            let owned: Vec<(u32, Feature)> = eng.index.owned.clone();
            snapshot::write_partitioned(
                comm,
                &fs,
                "pts.snap",
                &owned,
                &*eng.index.sd,
                &Default::default(),
            )
            .unwrap();
            let mut snap_eng = QueryEngine::from_snapshot(
                comm,
                &fs,
                "pts.snap",
                DecompPolicy::Uniform(CellMap::RoundRobin),
                &SnapshotReadOptions::default(),
                &EngineOptions::default(),
            )
            .unwrap();
            let from_snap = snap_eng.serve(comm, &query).unwrap().answers;
            (direct, from_snap)
        });
        for (direct, from_snap) in &out {
            assert_eq!(direct, from_snap);
            assert!(!direct[0].is_empty());
        }
    }

    #[test]
    fn snapshot_engine_rejects_adaptive_policy() {
        let fs = lattice_fs(4);
        let out = World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
            let mut eng = build_engine(comm, &fs, &EngineOptions::default());
            let owned: Vec<(u32, Feature)> = eng.index.owned.clone();
            snapshot::write_partitioned(
                comm,
                &fs,
                "pts.snap",
                &owned,
                &*eng.index.sd,
                &Default::default(),
            )
            .unwrap();
            // Keep `eng` alive so the borrowck story stays simple.
            let _ = eng.serve(comm, &[]).unwrap();
            QueryEngine::from_snapshot(
                comm,
                &fs,
                "pts.snap",
                DecompPolicy::adaptive(),
                &SnapshotReadOptions::default(),
                &EngineOptions::default(),
            )
            .err()
            .map(|e| matches!(e, CoreError::InvalidOptions(_)))
        });
        assert_eq!(out, vec![Some(true), Some(true)]);
    }

    #[test]
    fn updates_invalidate_cached_answers() {
        let fs = lattice_fs(6);
        let out = World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
            let mut eng = build_engine(
                comm,
                &fs,
                &EngineOptions {
                    cache: ServeCache::Entries(8),
                    ..Default::default()
                },
            );
            let batch = vec![Query::Range(Rect::new(1.5, 1.5, 3.5, 3.5))];
            let first = eng.serve(comm, &batch).unwrap();
            // Rank 0 deletes p2_2 (inside the window) and inserts a new
            // point there; a stale cache would replay the old answer.
            let updates = if comm.rank() == 0 {
                vec![
                    Update::Delete(Feature::with_userdata(
                        Geometry::Point(Point::new(2.0, 2.0)),
                        "p2_2",
                    )),
                    Update::Insert(Feature::with_userdata(
                        Geometry::Point(Point::new(2.1, 2.1)),
                        "fresh",
                    )),
                ]
            } else {
                Vec::new()
            };
            eng.apply_updates(comm, &updates).unwrap();
            let second = eng.serve(comm, &batch).unwrap();
            assert_eq!(second.stats.answered_from_cache, 0, "cache must be cold");
            (first.answers, second.answers)
        });
        for (first, second) in &out {
            let QueryAnswer::Matches(before) = &first[0] else {
                panic!()
            };
            let QueryAnswer::Matches(after) = &second[0] else {
                panic!()
            };
            assert!(before.contains(&"p2_2".to_string()));
            assert!(!after.contains(&"p2_2".to_string()));
            assert!(after.contains(&"fresh".to_string()));
        }
    }

    #[test]
    fn rebalance_triggers_under_drift_and_preserves_answers() {
        let fs = lattice_fs(8);
        let out = World::run(WorldConfig::new(Topology::single_node(4)), move |comm| {
            let mut eng = build_engine(
                comm,
                &fs,
                &EngineOptions {
                    rebalance: RebalancePolicy::Threshold(1.5),
                    ..Default::default()
                },
            );
            assert_eq!(eng.rebalance_threshold(), Some(1.5));
            // Pour a hotspot into the bottom-left quarter of the world:
            // rank 0 submits all of it, the batch lands spread by cell.
            let updates: Vec<Update> = if comm.rank() == 0 {
                (0..96)
                    .map(|i| {
                        let x = 0.05 + (i % 10) as f64 * 0.33;
                        let y = 0.05 + ((i / 10) % 10) as f64 * 0.33;
                        Update::Insert(Feature::with_userdata(
                            Geometry::Point(Point::new(x, y)),
                            format!("h{i:02}"),
                        ))
                    })
                    .collect()
            } else {
                Vec::new()
            };
            eng.apply_updates(comm, &updates).unwrap();
            let batch = vec![
                Query::Range(Rect::new(0.0, 0.0, 3.0, 3.0)),
                Query::Knn {
                    at: Point::new(1.0, 1.0),
                    k: 7,
                },
            ];
            let before = eng.serve(comm, &batch).unwrap().answers;
            let report = eng.maybe_rebalance(comm).unwrap();
            assert!(report.rebalanced, "drift must trip the 1.5 threshold");
            assert!(report.imbalance_after < report.imbalance_before);
            let after = eng.serve(comm, &batch).unwrap().answers;
            assert_eq!(before, after, "a migration must not change answers");
            // A second check right away is a no-op: nothing drifted.
            let again = eng.maybe_rebalance(comm).unwrap();
            assert!(!again.rebalanced);
            (report.imbalance_before, report.imbalance_after)
        });
        for (before, after) in &out {
            assert!(before > &1.5, "hotspot should degrade balance: {before}");
            assert!(after < before);
        }
    }

    #[test]
    fn rebalance_off_is_a_noop() {
        let fs = lattice_fs(4);
        let out = World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
            let mut eng = build_engine(comm, &fs, &EngineOptions::default());
            assert_eq!(eng.rebalance_threshold(), None);
            let report = eng.maybe_rebalance(comm).unwrap();
            (report.rebalanced, report.migration.shipped_bytes)
        });
        assert_eq!(out, vec![(false, 0), (false, 0)]);
    }

    #[test]
    fn validate_rejects_malformed_queries() {
        assert!(validate_query(&Query::Range(Rect::new(0.0, 0.0, 1.0, 1.0))).is_ok());
        assert!(validate_query(&Query::Range(Rect::new(f64::NAN, 0.0, 1.0, 1.0))).is_err());
        assert!(validate_query(&Query::Range(Rect::new(2.0, 0.0, 1.0, 1.0))).is_err());
        assert!(validate_query(&Query::Point(Point::new(f64::INFINITY, 0.0))).is_err());
        assert!(validate_query(&Query::Knn {
            at: Point::new(0.0, 0.0),
            k: 0
        })
        .is_err());
        assert!(validate_query(&Query::Knn {
            at: Point::new(0.0, 0.0),
            k: 1
        })
        .is_ok());
    }
}
