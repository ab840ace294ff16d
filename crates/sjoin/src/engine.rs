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
//!    emitted without the exact test; only envelopes straddling the
//!    window's edge are refined. A kNN query is a best-first walk of the
//!    resident R-tree ([`RTree::nearest_with`]; Hjaltason & Samet,
//!    TODS '99) that computes exact distances only until the next box
//!    is farther than the k-th best candidate.
//! 4. **Ship results back** over a second plan run: each match travels
//!    as one wire record tagged with the issuing rank's query index,
//!    framed straight from the resident replica's userdata.
//! 5. **Merge**: per query, results are sorted (lexicographic for
//!    matches, by `(distance, userdata)` for kNN) and truncated to `k`
//!    where applicable, inserted into the cache, and returned aligned
//!    with the input slice.
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
    record_frames, serialize_frame, serialize_record, validate_round, ExchangeChunk,
    ExchangeOptions, ExchangePlan, ExchangeStats, RecordFrame, SerializedBatch,
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
    /// Result records received back for this rank's queries.
    pub result_records: u64,
    /// Exchange counters for the query-shipping trip.
    pub query_exchange: ExchangeStats,
    /// Exchange counters for the result return trip.
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
    /// filter left it open.
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
            // construction, so only envelopes straddling the window's
            // edge go on to the exact test. `contains` is false for an
            // empty envelope, which therefore keeps the exact path.
            if !query.contains(mbr) {
                comm.charge(Work::RefinePair {
                    verts_a: f.geometry.num_points() as u64,
                    verts_b: 4,
                });
                if !algo::rect_intersects_geometry(query, &f.geometry) {
                    continue;
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
    /// materialized — serializing each result as a record tagged with the
    /// issuer's query index, its userdata borrowed from the resident
    /// replica. kNN queries ride as a `Point` with `k=<n>` userdata;
    /// range and point queries as the diagonal of their rect (whose
    /// envelope recovers it exactly). Result records carry the distance
    /// in the point's `x`.
    fn serve_one(
        &self,
        comm: &mut Comm,
        fr: &RecordFrame<'_>,
        scratch: &mut Vec<u8>,
        out: &mut Vec<u8>,
        produced: &mut u64,
    ) -> Result<()> {
        let qid = fr.cell;
        // audit: the sink validated the round before walking its frames.
        let (g, _) = wkb::decode_ref(fr.wkb).expect("validated frame");
        let mut emit = |wkb: &[u8], userdata: &str| {
            *produced += 1;
            let result = RecordFrame {
                cell: qid,
                wkb,
                userdata,
            };
            serialize_frame(&result, out)
        };
        if let Some(kstr) = fr.userdata.strip_prefix("k=") {
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
            for (distance, i) in self.knn_local(comm, &at, k) {
                wkb::encode_into_scratch(&Geometry::Point(Point::new(distance, 0.0)), scratch);
                emit(scratch, &self.owned[i].1.userdata)?;
            }
        } else {
            let rect = g.envelope();
            // Every match of a range query ships the same placeholder point.
            wkb::encode_into_scratch(&Geometry::Point(Point::new(0.0, 0.0)), scratch);
            for userdata in self.rect_matches(comm, &rect) {
                emit(scratch, userdata)?;
            }
        }
        Ok(())
    }
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
        let mut rbatch = SerializedBatch::empty(p);
        let mut rscratch = Vec::new();
        let index = &self.index;
        let mut deferred: Option<CoreError> = None;
        match comm.labeled("serve.queries", |c| {
            plan.run(c, &mut qbatch.into_feed(&plan), &mut |comm, bufs| {
                let received = validate_round(comm, &bufs)?;
                for (src, buf) in bufs.iter().enumerate() {
                    let before = rbatch.bufs[src].len() as u64;
                    let mut produced = 0u64;
                    for fr in record_frames(buf) {
                        index.serve_one(
                            comm,
                            &fr,
                            &mut rscratch,
                            &mut rbatch.bufs[src],
                            &mut produced,
                        )?;
                    }
                    rbatch.records[src] += produced;
                    comm.charge(Work::SerializeGeoms {
                        n: produced,
                        bytes: rbatch.bufs[src].len() as u64 - before,
                    });
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

        // 5. Ship results back to the issuing ranks.
        let mut collected: Vec<Vec<(f64, String)>> = vec![Vec::new(); queries.len()];
        match comm.labeled("serve.results", |c| {
            plan.run(c, &mut rbatch.into_feed(&plan), &mut |comm, bufs| {
                let received = validate_round(comm, &bufs)?;
                for fr in bufs.iter().flat_map(|buf| record_frames(buf)) {
                    let qid = fr.cell;
                    // audit: u32 → usize is lossless; get_mut rejects out-of-range ids.
                    let slot = collected.get_mut(qid as usize).ok_or_else(|| {
                        CoreError::Partition(format!(
                            "serve protocol: result for unknown query index {qid}"
                        ))
                    })?;
                    // audit: validate_round accepted every frame of this round.
                    let (g, _) = wkb::decode_ref(fr.wkb).expect("validated frame");
                    let distance = match &g {
                        wkb::GeomRef::Point(pt) => pt.x(),
                        _ => 0.0,
                    };
                    slot.push((distance, fr.userdata.to_string()));
                }
                Ok(received)
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
        stats.result_records = stats.result_exchange.records_received;

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
    fn true_hits_skip_refine_and_straddlers_keep_it() {
        World::run(WorldConfig::new(Topology::single_node(1)), |comm| {
            // Nine short segments around (2, 2), and one long
            // anti-diagonal whose envelope [5, 8]² covers the top-right
            // corner without the line coming near it.
            let mut features: Vec<Feature> = (0..9)
                .map(|i| {
                    let (x, y) = (1.5 + (i % 3) as f64 * 0.4, 1.5 + (i / 3) as f64 * 0.4);
                    segment(x, y, x + 0.2, y + 0.1, &format!("s{i}"))
                })
                .collect();
            features.push(segment(5.0, 8.0, 8.0, 5.0, "diagonal"));
            let eng = one_rank_engine(comm, 2, &features);
            let refine_fixed = comm.cost_model().refine_fixed;

            // Every hit's envelope lies inside the window: none is refined.
            let t = comm.now();
            let inside = eng
                .local_range_matches(comm, &Rect::new(1.0, 1.0, 3.0, 3.0))
                .unwrap();
            let spent = comm.now() - t;
            assert_eq!(inside.len(), 9);
            assert!(
                spent < refine_fixed,
                "9 true hits cost {spent} s, one refine alone is {refine_fixed} s"
            );

            // The corner window overlaps the diagonal's envelope but does
            // not contain it: refined, and excluded by the exact test.
            let t = comm.now();
            let corner = eng
                .local_range_matches(comm, &Rect::new(7.2, 7.2, 7.9, 7.9))
                .unwrap();
            assert!(corner.is_empty(), "the line misses the corner: {corner:?}");
            assert!(
                comm.now() - t >= refine_fixed,
                "a straddler must be refined"
            );

            // A window the line does cross still finds it through refine.
            let crossing = eng
                .local_range_matches(comm, &Rect::new(6.0, 6.0, 7.0, 7.0))
                .unwrap();
            assert_eq!(crossing, vec!["diagonal".to_string()]);
        });
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
