//! Resident distributed query serving: the ROADMAP "serve millions of
//! queries" shape over the partitioned spatial index.
//!
//! Everything else in the workspace is one-shot batch ingest→answer;
//! [`QueryEngine`] is the long-lived counterpart. It is constructed once
//! — from an [`IngestOutput`], a binary snapshot, or a [`ResidentStore`]
//! whose every record entered through [`validate_round`]; no constructor
//! takes a geometry object — balanced once before the first batch (see
//! [`QueryEngine::from_store`]), and keeps the per-rank R-tree and the
//! global [`Decomposition`] resident
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
//!    stays usable for the next batch. The same word counts the ranks
//!    holding a kNN, for which a stale reach summary (step 3) is gathered.
//! 2. **Cache lookup + in-batch dedup**: answers already in the
//!    hot-query LRU (see [`ServeCache`]) are returned without shipping
//!    anything — the peers still rendezvous in the exchange, where this
//!    rank simply contributes fewer records. The misses are grouped by
//!    query identity: the first instance of each distinct query is
//!    routed, its repeats in the same batch receive a copy of its merged
//!    answer in step 5, and the cache is filled once per distinct query.
//!    This is the one saving a batch has over a query-per-call loop
//!    beyond amortized collectives, and [`ServeStats::routed`] counts it.
//! 3. **Route + ship**: each routed query is encoded once and its wire
//!    record copied to every destination rank (the owners of the cells
//!    a range/point query's window, clamped onto the bounds, overlaps;
//!    for a kNN, only the owners that distance bounds from the reach
//!    summary — per cell and per sub-cell, feature count and envelope
//!    union — say can hold one of its `k` neighbours),
//!    then shipped through the chunked nonblocking [`ExchangePlan`].
//!    Received queries are answered in the exchange *sink*, so later
//!    query rounds are still in flight while this rank walks its R-tree
//!    — query shipping overlaps local tree walks. The owner pays only for what the answer
//!    needs. A range/point candidate whose envelope lies inside the
//!    window is a *true hit* (Brinkhoff et al., SIGMOD '94) and is
//!    emitted without the exact test, and so is a straddler — an envelope
//!    crossing the window's edge — with a vertex inside the window
//!    ([`mvio_geom::algo::rect_contains_shape_vertex`]); only straddlers with every
//!    vertex outside are refined. A kNN query is a best-first walk of the
//!    resident R-tree ([`mvio_geom::index::RTree::nearest_with`]; Hjaltason & Samet,
//!    TODS '99) that computes exact distances only until the next box
//!    is farther than the k-th best candidate.
//! 4. **Ship results back** over a second plan run: each owner returns
//!    its matches for a query as one *answer block* (`docs/FORMAT.md`
//!    §4) — the issuer's query index, the packed kNN distances, and the
//!    userdata of the matches in the owner's sorted order, copied
//!    straight from the resident replicas. No geometry travels, an empty
//!    answer ships nothing, and a block closes at the plan's chunk cap
//!    (the next one reopens the same query). Nothing is encoded, so the
//!    owner is charged the block bytes it copies, not a per-match or
//!    per-block constant.
//! 5. **Merge**: the issuer walks the received blocks with the
//!    validating [`answer_entries`] iterator; per query, results from
//!    all owners are sorted (lexicographic for matches, by
//!    `(distance, userdata)` for kNN) and truncated to `k` where
//!    applicable, inserted into the cache, and returned aligned with the
//!    input slice.
//!
//! Duplicate-free semantics follow the reference-corner rule
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
//! use mvio_core::decomp::{DecompPolicy, Decomposition, SpatialDecomposition};
//! use mvio_core::exchange::serialize_record;
//! use mvio_core::grid::{CellMap, GridSpec, UniformGrid};
//! use mvio_core::rebalance::Update;
//! use mvio_core::{Feature, ResidentStore};
//! use mvio_geom::{Geometry, Point, Rect};
//! use mvio_msim::{Topology, World, WorldConfig};
//! use mvio_sjoin::{EngineOptions, Query, QueryAnswer, QueryEngine};
//!
//! let out = World::run(WorldConfig::new(Topology::single_node(2)), |comm| {
//!     // Every rank fabricates the same tiny dataset and lands the
//!     // replicas it owns as one received round — the state an ingest
//!     // would have produced.
//!     let grid = UniformGrid::new(Rect::new(0.0, 0.0, 4.0, 4.0), GridSpec::square(2));
//!     let policy = DecompPolicy::Uniform(CellMap::RoundRobin);
//!     let sd = Decomposition::new(grid, policy, None, comm.size()).unwrap();
//!     let f = Feature::with_userdata(Geometry::Point(Point::new(1.0, 1.0)), "a");
//!     let mut wire = Vec::new();
//!     for cell in sd.cells_for_rect_vec(&f.geometry.envelope()) {
//!         if sd.cell_to_rank(cell) == comm.rank() {
//!             serialize_record(cell, &f, &mut Vec::new(), &mut wire).unwrap();
//!         }
//!     }
//!     let mut store = ResidentStore::new();
//!     store.append_round(comm, &[wire]).unwrap();
//!     let mut eng = QueryEngine::from_store(comm, sd, store, &EngineOptions::default());
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

use crate::answer::{collect_answers, BLOCK_CAP_MAX};
use crate::resident::{ReachSummary, ResidentIndex};
use mvio_core::decomp::{DecompPolicy, Decomposition, SpatialDecomposition};
use mvio_core::exchange::{
    record_frames, serialize_frame, validate_round, ExchangeChunk, ExchangePlan, ExchangeStats,
    RecordFrame, SerializedBatch,
};
use mvio_core::framework::routing_window;
use mvio_core::pipeline::IngestOutput;
use mvio_core::rebalance::{self, RebalancePolicy, RebalanceReport, Update, UpdateStats};
use mvio_core::resident::ResidentStore;
use mvio_core::snapshot::{self, SnapshotReadOptions};
use mvio_core::{CoreError, Feature, Result};
use mvio_geom::{wkb, Geometry, LineString, Point, Rect};
use mvio_msim::{Comm, Work};
use mvio_pfs::SimFs;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

pub use crate::answer::{answer_entries, AnswerEntries, AnswerEntry};

/// One query in a serving batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    /// All features intersecting the (closed) rectangle.
    Range(Rect),
    /// All features containing or touching the point — a degenerate
    /// [`Query::Range`].
    Point(Point),
    /// The `k` nearest features by euclidean point-to-geometry distance
    /// ([`mvio_geom::algo::point_geometry_distance`]); ties break on userdata.
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

/// Construction-time engine configuration. The default is a blocking
/// exchange, no cache and no rebalancing.
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
fn validate_query(q: &Query) -> Result<()> {
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

/// Appends to `dests` the owners of the cells a range or point query's
/// `window` is routed to — those its [`routing_window`] meets — and
/// returns the window's wire feature.
fn route_window(
    sd: &Decomposition,
    window: &Rect,
    cells: &mut Vec<u32>,
    dests: &mut Vec<usize>,
) -> Feature {
    sd.cells_for_rect(&routing_window(sd, window), cells);
    dests.extend(cells.iter().map(|&c| sd.cell_to_rank(c)));
    wire_rect(window)
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
    /// The online-rebalance threshold (`None` when the policy resolves
    /// to off).
    rebalance_threshold: Option<f64>,
    /// The kNN routing summary; `None` (stale) at construction and after
    /// every update batch or migration, calls every rank makes together.
    reach: Option<ReachSummary>,
}

impl QueryEngine {
    /// Builds the engine from an ingest run's output: its decomposition,
    /// and the store its exchange landed, adopted as it is, then balanced
    /// ([`QueryEngine::from_store`]).
    /// Collective: every rank must call it.
    pub fn from_ingest(comm: &mut Comm, out: IngestOutput, opts: &EngineOptions) -> Self {
        Self::from_store(comm, out.decomp, out.owned, opts)
    }

    /// Builds the engine over replicas that already are validated wire
    /// records — what an exchange or a snapshot reload landed — and
    /// evens out the resident load once before the first batch:
    /// [`rebalance::rebalance`] at threshold 1.0, so `sd` is re-bisected
    /// on the per-cell histogram of the landed replicas, and if that
    /// predicts a lower max/mean the cells whose owner changed migrate
    /// over `opts.chunk`'s exchange. A serve call
    /// waits for the rank holding the most replicas, so a partition
    /// skewed by its data (clustered layers under a round-robin map) would
    /// slow every batch. A grid past
    /// [`mvio_core::decomp::MAX_TABLE_CELLS`] cannot be re-bisected and is
    /// served as it was landed, with no histogram built. Nothing is
    /// decoded. Charged: the histogram allreduce, a migration when one
    /// runs (the sender's byte copy, the receiver's validation scan and
    /// the exchange), and one index build ([`Work::RtreeInserts`]).
    /// Collective: every rank must call it.
    pub fn from_store(
        comm: &mut Comm,
        mut sd: Decomposition,
        mut store: ResidentStore,
        opts: &EngineOptions,
    ) -> Self {
        let balanced = rebalance::rebalance(comm, 1.0, &mut sd, &mut store, opts.chunk);
        if !matches!(balanced, Err(CoreError::InvalidOptions(_))) {
            // audit: the re-bisection tiles `sd`'s grid for this world, and
            // every shipped record is a byte copy of a validated resident
            // record, so the receiving validation cannot reject it.
            balanced.expect("build-time migration of validated records");
        }
        QueryEngine {
            index: ResidentIndex::build(comm, sd, store),
            chunk: opts.chunk,
            cache: opts.cache.resolve().map(ResultCache::new),
            rebalance_threshold: opts.rebalance.resolve(),
            reach: None,
        }
    }

    /// Builds the engine from a binary snapshot: one collective
    /// metadata read ([`snapshot::read_meta_timed`]), decomposition
    /// rebuild under `policy` ([`snapshot::SnapshotMeta::decomposition`]),
    /// collective [`snapshot::read_partitioned`] over that metadata — the
    /// routed records stay the wire frames they were persisted as — then
    /// the balanced build of [`QueryEngine::from_store`]. The
    /// adaptive policy is rejected with [`CoreError::InvalidOptions`] — a
    /// snapshot does not carry the feature histogram it needs (same
    /// contract as snapshot joins) — and so is a Hilbert owner table past
    /// [`mvio_core::decomp::MAX_TABLE_CELLS`]. Rank 0 reads the metadata
    /// for everyone, so every rank refuses alike.
    pub fn from_snapshot(
        comm: &mut Comm,
        fs: &Arc<SimFs>,
        path: &str,
        policy: DecompPolicy,
        read: &SnapshotReadOptions,
        opts: &EngineOptions,
    ) -> Result<Self> {
        let meta = snapshot::read_meta_timed(comm, fs, path)?;
        let sd = meta.decomposition(policy, comm.size())?;
        let (store, _) = snapshot::read_partitioned(comm, fs, path, &meta, &sd, read)?;
        Ok(Self::from_store(comm, sd, store, opts))
    }

    /// The resident decomposition (e.g. for generating in-bounds query
    /// workloads against `bounds()`).
    pub fn decomposition(&self) -> &Decomposition {
        &self.index.sd
    }

    /// Number of feature replicas resident on this rank.
    pub fn resident_replicas(&self) -> usize {
        self.index.store.len()
    }

    /// This rank's resident replicas as the wire records they are kept
    /// as — what a full re-shuffle would have to ship.
    /// [`RecordFrame::to_feature`] decodes one (it cannot fail here:
    /// resident records are validated).
    pub fn resident(&self) -> impl Iterator<Item = RecordFrame<'_>> {
        self.index.store.frames()
    }

    /// Applies a batch of streaming [`Update`]s to the resident
    /// partition and drops the result cache and the kNN routing summary
    /// (cached answers may name deleted features or miss inserted ones;
    /// see [`rebalance::apply_updates`] for the routing protocol and what
    /// each side is charged). The index follows in proportion to what
    /// the batch changed: received replicas join its per-cell delta and
    /// deleted ones stay in its tree as tombstones, and only once the
    /// changes since its last build reach the live count does the rank
    /// compact its store and repack the tree (`ResidentIndex::refresh`).
    /// A rank this batch left unchanged does no index work, unless a
    /// migration since the last build already brought the changes there.
    /// Collective — every rank must call it together, each with its own
    /// (possibly empty) batch. Invalid updates anywhere in the world
    /// reject the whole call symmetrically with
    /// [`CoreError::InvalidOptions`] before anything ships, leaving the
    /// engine untouched and usable for the next batch.
    pub fn apply_updates(&mut self, comm: &mut Comm, updates: &[Update]) -> Result<UpdateStats> {
        let result = rebalance::apply_updates(
            comm,
            &self.index.sd,
            &mut self.index.store,
            updates,
            self.chunk,
        );
        // Also on the deferred-error path: the exchange applies whatever
        // arrived before winding down.
        self.index.refresh(comm);
        // Unconditional: a remote rank's updates can stale this rank's
        // cached answers and summary without shipping it a record.
        if let Some(cache) = self.cache.as_mut() {
            cache.clear();
        }
        self.reach = None;
        result
    }

    /// Checks the drifted load balance and — when the configured
    /// threshold has tripped — re-decomposes over the same cell tiling
    /// and migrates only the cells whose owner changed (one
    /// [`rebalance::rebalance`] step, the one the build takes at 1.0). A
    /// no-op all-zero report comes back when rebalancing is off; a grid
    /// past [`mvio_core::decomp::MAX_TABLE_CELLS`] returns
    /// [`CoreError::InvalidOptions`] on every rank, and the engine keeps
    /// serving as it was. The index is never rebuilt here: landed
    /// replicas join its per-cell delta and departed ones stay in its
    /// tree as tombstones, so after the migration's last collective a
    /// rank only flags what it received before the next batch. The
    /// result cache survives: a migration moves replicas between ranks
    /// without changing the dataset, so cached answers stay exact.
    /// Collective — every rank must call it together (the construction
    /// contract requires the same policy on every rank, so all ranks
    /// take the same branch).
    pub fn maybe_rebalance(&mut self, comm: &mut Comm) -> Result<RebalanceReport> {
        let Some(threshold) = self.rebalance_threshold else {
            return Ok(RebalanceReport::default());
        };
        let index = &mut self.index;
        let report =
            rebalance::rebalance(comm, threshold, &mut index.sd, &mut index.store, self.chunk);
        // A failed migration may have moved replicas its peers report.
        if report.as_ref().map_or(true, |r| r.rebalanced) {
            self.reach = None;
            self.index.absorb(comm);
        }
        report
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
        // The ranks holding an invalid query (low half) and a kNN (high).
        let has_knn = queries.iter().any(|q| matches!(q, Query::Knn { .. }));
        let status = comm.labeled("serve.status", |c| {
            let word = u64::from(local_err.is_some()) | u64::from(has_knn) << 32;
            c.allreduce_u64(word, |a, b| a + b)
        });
        let bad_ranks = status & u64::from(u32::MAX);
        if bad_ranks > 0 {
            return Err(local_err.unwrap_or_else(|| {
                CoreError::InvalidOptions(format!(
                    "query batch aborted: {bad_ranks} rank(s) submitted invalid queries"
                ))
            }));
        }

        if status >> 32 > 0 && self.reach.is_none() {
            self.reach =
                Some(comm.labeled("serve.reach", |c| ReachSummary::gather(c, &self.index)));
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

        // 3. Encode each routed query once, then copy its wire record to
        // every destination rank: one `SerializeGeoms` per query, and
        // the records emitted are `CopyBytes`.
        let mut qbatch = SerializedBatch::empty(p);
        let (mut encoded, mut encoded_bytes) = (0u64, 0u64);
        let mut scratch = Vec::new();
        let mut cells: Vec<u32> = Vec::new();
        let mut dests: Vec<usize> = Vec::new();
        let mut reach_scratch: Vec<(f64, u64)> = Vec::new();
        for &qi in &routed {
            let q = &queries[qi];
            dests.clear();
            let feat = match q {
                Query::Range(r) => route_window(&self.index.sd, r, &mut cells, &mut dests),
                Query::Point(pt) => {
                    route_window(&self.index.sd, &pt.envelope(), &mut cells, &mut dests)
                }
                Query::Knn { at, k } => {
                    // audit: this batch holds a kNN, so the summary was gathered above.
                    let reach = self.reach.as_ref().expect("fresh kNN reach summary");
                    reach.knn_owners(comm, at, u64::from(*k), &mut reach_scratch, &mut dests);
                    Feature::with_userdata(Geometry::Point(*at), format!("k={k}"))
                }
            };
            dests.sort_unstable();
            dests.dedup();
            if dests.is_empty() {
                continue;
            }
            wkb::encode_into_scratch(&feat.geometry, &mut scratch);
            encoded += 1;
            encoded_bytes += scratch.len() as u64;
            let frame = RecordFrame {
                // audit: qi indexes the caller's query slice, far below u32::MAX.
                cell: qi as u32,
                wkb: &scratch,
                userdata: &feat.userdata,
            };
            for &d in &dests {
                serialize_frame(&frame, &mut qbatch.bufs[d])?;
                qbatch.records[d] += 1;
            }
        }
        stats.shipped_records = qbatch.records.iter().sum();
        comm.charge(Work::SerializeGeoms {
            n: encoded,
            bytes: encoded_bytes,
        });
        comm.charge(Work::CopyBytes {
            n: qbatch.bufs.iter().map(|b| b.len() as u64).sum(),
        });

        // 4. Ship queries; answer each received round in the sink while
        // later rounds fly. Per-rank failures wind down inside the plan
        // (empty rounds), and this rank still runs the result trip so
        // the collectives stay matched world-wide.
        let plan = ExchangePlan::new(comm, self.chunk);
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
    use crate::breakdown::PhaseTimer;
    use crate::PhaseBreakdown;
    use mvio_core::decomp::DecompConfig;
    use mvio_core::exchange::serialize_record;
    use mvio_core::framework::is_reference_replica;
    use mvio_core::grid::{CellMap, GridSpec, UniformGrid};
    use mvio_core::partition::ReadOptions;
    use mvio_core::pipeline::{ingest, ingest_layers, PipelineOptions};
    use mvio_core::reader::WktLineParser;
    use mvio_geom::algo;
    use mvio_msim::{Slot, Topology, World, WorldConfig};
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
        let cfg = DecompConfig::uniform(GridSpec::square(4));
        let (read, pipe) = (ReadOptions::default(), Default::default());
        let out = ingest(comm, fs, "pts.wkt", &read, &WktLineParser, &cfg, &pipe).unwrap();
        QueryEngine::from_ingest(comm, out, opts)
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

    /// This rank's local walk for `window`: no communication, no cache.
    fn local_matches(eng: &QueryEngine, comm: &mut Comm, window: &Rect) -> Vec<String> {
        let matches = eng.index.rect_matches(comm, window);
        matches.into_iter().map(String::from).collect()
    }

    #[test]
    fn range_window_finds_exact_lattice_subset() {
        let fs = lattice_fs(10);
        let window = Rect::new(2.5, 2.5, 5.5, 4.5);
        let out = World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
            let mut eng = build_engine(comm, &fs, &EngineOptions::default());
            let local = local_matches(&eng, comm, &window);
            (
                local,
                eng.serve(comm, &[Query::Range(window)]).unwrap().answers,
            )
        });
        // Points with x in {3,4,5}, y in {3,4}. The ranks' local walks
        // split the answer between them: each match is claimed once.
        let expected = ["p3_3", "p3_4", "p4_3", "p4_4", "p5_3", "p5_4"].map(String::from);
        let mut union: Vec<String> = out.iter().flat_map(|(local, _)| local.clone()).collect();
        union.sort();
        assert_eq!(union, expected);
        for (_, served) in &out {
            assert_eq!(served, &[QueryAnswer::Matches(expected.to_vec())]);
        }
    }

    /// Every rank's answer sizes for `batch`, served over the 10×10
    /// lattice.
    fn lattice_counts(topo: Topology, batch: Vec<Query>) -> Vec<Vec<usize>> {
        let fs = lattice_fs(10);
        World::run(WorldConfig::new(topo), move |comm| {
            let mut eng = build_engine(comm, &fs, &EngineOptions::default());
            let answers = eng.serve(comm, &batch).unwrap().answers;
            answers.iter().map(QueryAnswer::len).collect()
        })
    }

    #[test]
    fn empty_query_region_matches_nothing() {
        let window = Query::Range(Rect::new(50.0, 50.0, 60.0, 60.0));
        let out = lattice_counts(Topology::single_node(2), vec![window]);
        assert_eq!(out, vec![vec![0]; 2]);
    }

    #[test]
    fn boundary_touching_points_match() {
        // Points (0,0), (1,0), (0,1), (1,1) all touch the closed box.
        let window = Query::Range(Rect::new(0.0, 0.0, 1.0, 1.0));
        let out = lattice_counts(Topology::single_node(2), vec![window]);
        assert_eq!(out, vec![vec![4]; 2]);
    }

    #[test]
    fn batch_matches_individual_queries() {
        let batch = [
            Rect::new(2.5, 2.5, 5.5, 4.5),     // 6 lattice points
            Rect::new(0.0, 0.0, 1.0, 1.0),     // 4 corner points
            Rect::new(50.0, 50.0, 60.0, 60.0), // none
            Rect::new(-1.0, -1.0, 9.5, 9.5),   // 100 points
        ]
        .map(Query::Range);
        let fs = lattice_fs(10);
        let out = World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
            let mut eng = build_engine(comm, &fs, &EngineOptions::default());
            let together = eng.serve(comm, &batch).unwrap().answers;
            let alone: Vec<QueryAnswer> = batch
                .iter()
                .map(|q| eng.serve(comm, &[*q]).unwrap().answers.remove(0))
                .collect();
            (together, alone)
        });
        for (together, alone) in &out {
            assert_eq!(together, alone);
            let counts: Vec<usize> = together.iter().map(QueryAnswer::len).collect();
            assert_eq!(counts, vec![6, 4, 0, 100]);
        }
    }

    /// An engine over `features` on a `side × side` grid of `[0, 8]²`,
    /// cells dealt round-robin over the world's ranks. In a one-rank world
    /// a single rank owns every cell, so every replica of a cell-spanning
    /// feature is resident and all but one are non-reference.
    fn grid_engine(comm: &mut Comm, side: u32, features: &[Feature]) -> QueryEngine {
        let grid = UniformGrid::new(Rect::new(0.0, 0.0, 8.0, 8.0), GridSpec::square(side));
        let rr = DecompPolicy::Uniform(CellMap::RoundRobin);
        let sd = Decomposition::new(grid, rr, None, comm.size()).unwrap();
        let mut wire = Vec::new();
        for f in features {
            for c in sd.cells_for_rect_vec(&f.geometry.envelope()) {
                if sd.cell_to_rank(c) == comm.rank() {
                    serialize_record(c, f, &mut Vec::new(), &mut wire).unwrap();
                }
            }
        }
        let mut store = ResidentStore::new();
        store.append_round(comm, &[wire]).unwrap();
        QueryEngine::from_store(comm, sd, store, &EngineOptions::default())
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
            let eng = grid_engine(comm, 2, &features);
            let refine_fixed = comm.cost_model().refine_fixed;
            let mut timed = |window: Rect| {
                let t = comm.now();
                let matches = local_matches(&eng, comm, &window);
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
            let eng = grid_engine(comm, 1, &features);
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

    /// `knn_local`'s oracle: exact distance to every reference replica,
    /// sorted, truncated.
    fn knn_scan<'a>(index: &'a ResidentIndex, at: &Point, k: usize) -> Vec<(f64, &'a str)> {
        let mut best: Vec<(f64, &str)> = index
            .store
            .frames()
            .zip(&index.reference)
            .filter(|(_, reference)| **reference)
            .map(|(fr, _)| {
                let f = fr.to_feature().unwrap();
                (algo::point_geometry_distance(at, &f.geometry), fr.userdata)
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
            let eng = grid_engine(comm, 4, &features);
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
                        .map(|(d, i)| (d, index.store.frame(i).userdata))
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
            snapshot::write_partitioned(
                comm,
                &fs,
                "pts.snap",
                eng.resident(),
                &eng.index.sd,
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
            snapshot::write_partitioned(
                comm,
                &fs,
                "pts.snap",
                eng.resident(),
                &eng.index.sd,
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
    fn snapshot_engine_refuses_a_hilbert_table_past_the_cap() {
        let fs = lattice_fs(4);
        let out = World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
            let eng = build_engine(comm, &fs, &EngineOptions::default());
            let opts = Default::default();
            snapshot::write_partitioned(
                comm,
                &fs,
                "pts.snap",
                eng.resident(),
                &eng.index.sd,
                &opts,
            )
            .unwrap();
            // A corrupt header: 65535 × 65535 cells still fit the u32 id
            // space, so only the owner-table cap stands between it and
            // two 4.29 G-entry vectors.
            if comm.rank() == 0 {
                let file = fs.open("pts.snap").unwrap();
                file.poke(16, &65_535u32.to_le_bytes());
                file.poke(20, &65_535u32.to_le_bytes());
            }
            comm.barrier();
            QueryEngine::from_snapshot(
                comm,
                &fs,
                "pts.snap",
                DecompPolicy::Hilbert,
                &SnapshotReadOptions::default(),
                &EngineOptions::default(),
            )
            .err()
            .map(|e| matches!(e, CoreError::InvalidOptions(_)))
        });
        assert_eq!(out, vec![Some(true), Some(true)]);
    }

    /// Index upkeep follows the change: no rank packs a tree for one
    /// insert, a rank that received nothing charges nothing for its
    /// index, and the receiver charges one flag test per received replica
    /// — not a rebuild of its whole store.
    #[test]
    fn a_rank_that_received_no_update_does_not_reindex() {
        let fs = lattice_fs(60);
        let landed = World::run(WorldConfig::new(Topology::single_node(4)), move |comm| {
            let mut eng = build_engine(comm, &fs, &EngineOptions::default());
            let window = Rect::new(10.5, 10.5, 30.5, 40.5);
            let before = local_matches(&eng, comm, &window);
            // One insert from rank 0; it lands on a single rank.
            let updates: Vec<Update> = (comm.rank() == 0)
                .then(|| Update::Insert(point(20.25, 20.25, "fresh")))
                .into_iter()
                .collect();
            let (ledger, built) = (comm.ledger(), eng.index.built);
            let stats = eng.apply_updates(comm, &updates).unwrap();
            let spent = |comm: &Comm, slot| comm.ledger()[slot] - ledger[slot];
            assert_eq!(spent(comm, Slot::RtreeInserts), 0.0, "no tree is packed");
            assert_eq!(eng.index.built, built);
            // The submitter's routing test per update, then per received
            // replica the landing's envelope and the index's flag.
            let received = stats.inserted_replicas;
            let tests = updates.len() as u64 + 2 * received;
            let want = comm.cost_model().cost(Work::MbrTests { n: tests });
            let got = spent(comm, Slot::MbrTests);
            assert!(
                (got - want).abs() <= 1e-9 * ledger[Slot::MbrTests],
                "{got} s of MBR tests, {want} s modelled"
            );
            let rebuild = comm.cost_model().cost(Work::RtreeInserts {
                n: eng.resident_replicas() as u64,
            });
            assert!(
                got < rebuild / 10.0,
                "{got} s against a {rebuild} s rebuild"
            );
            let store = &eng.index.store;
            assert_eq!(store.slots() - eng.index.built, received as usize);
            let after = local_matches(&eng, comm, &window);
            if received == 0 {
                assert_eq!(after, before);
            } else {
                assert_eq!(after.len(), before.len() + 1);
                assert!(after.contains(&"fresh".to_string()));
            }
            received
        });
        assert_eq!(landed.iter().sum::<u64>(), 1, "{landed:?}");
    }

    /// Global rebuilding: the tree is repacked in the update call where
    /// dead plus appended slots first reach the live count — or the
    /// count the tree was built over, when that is smaller — and not a
    /// batch before.
    #[test]
    fn a_rebuild_trips_when_the_changes_reach_the_live_count() {
        World::run(WorldConfig::new(Topology::single_node(1)), |comm| {
            let label = |i: usize| format!("f{i:03}");
            let feature = |i: usize| {
                let (col, row) = ((i % 40) as f64, (i / 40) as f64);
                point(0.1 + col * 0.19, 0.1 + row * 0.19, &label(i))
            };
            let mut eng = grid_engine(comm, 4, &(0..40).map(feature).collect::<Vec<_>>());
            let mut live: Vec<String> = (0..40).map(label).collect();
            // Inserts and deletes per step, and whether it rebuilds.
            let steps = [
                (40..79, 0..0, false), // 39 appended against 40 built
                (79..80, 0..0, true),  // 40 against 40
                (0..0, 0..39, false),  // 39 dead against 41 live
                (0..0, 39..40, true),  // 40 against 40
                (80..81, 40..41, false),
            ];
            for (step, (inserts, deletes, rebuilds)) in steps.into_iter().enumerate() {
                let updates: Vec<Update> = deletes
                    .clone()
                    .map(|i| Update::Delete(feature(i)))
                    .chain(inserts.clone().map(|i| Update::Insert(feature(i))))
                    .collect();
                live.retain(|l| !deletes.clone().any(|i| *l == label(i)));
                live.extend(inserts.clone().map(label));
                live.sort();
                let (ledger, built) = (comm.ledger(), eng.index.built);
                eng.apply_updates(comm, &updates).unwrap();
                let packed = comm.ledger()[Slot::RtreeInserts] > ledger[Slot::RtreeInserts];
                let store = &eng.index.store;
                assert_eq!(packed, rebuilds, "step {step}");
                assert_eq!(eng.index.built != built, rebuilds, "step {step}");
                if rebuilds {
                    assert_eq!((store.slots(), eng.index.built), (live.len(), live.len()));
                }
                let world = Rect::new(0.0, 0.0, 8.0, 8.0);
                assert_eq!(local_matches(&eng, comm, &world), live, "step {step}");
            }
        });
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

    /// Inserts whose envelope starts left of or below the bounds have no
    /// in-bounds reference corner; the lowest overlapping cell stands in
    /// (`is_reference_replica`), so each still counts once in the rebalance
    /// histogram and comes back once from kNN. A range window claims by
    /// its reference point clamped onto the bounds (`claims_reference`),
    /// so each also comes back once from a window that is the bounds and
    /// from one that itself starts outside them.
    #[test]
    fn an_insert_starting_outside_the_bounds_has_one_reference_replica() {
        let fs = lattice_fs(6); // bounds [0, 5]², 36 points
        let out = World::run(WorldConfig::new(Topology::single_node(4)), move |comm| {
            let opts = EngineOptions {
                rebalance: RebalancePolicy::Threshold(f64::MAX),
                ..Default::default()
            };
            let mut eng = build_engine(comm, &fs, &opts);
            let insert = |wkt: &str, tag: &str| {
                Update::Insert(Feature::with_userdata(
                    mvio_geom::wkt::parse(wkt).unwrap(),
                    tag,
                ))
            };
            let updates = match comm.rank() {
                0 => vec![insert("LINESTRING (-1 -1, 2.6 0.6)", "sw")],
                1 => vec![insert("LINESTRING (-2 3.3, 1.6 3.4)", "w")],
                _ => Vec::new(),
            };
            let stats = eng.apply_updates(comm, &updates).unwrap();
            // What the rebalance histogram counts on this rank.
            let index = &eng.index;
            let references = index
                .store
                .replicas()
                .filter(|&(cell, mbr)| is_reference_replica(&index.sd, cell, mbr))
                .count();
            let batch = [
                Query::Knn {
                    at: Point::new(-1.0, -1.0),
                    k: 100,
                },
                Query::Range(Rect::new(0.0, 0.0, 5.0, 5.0)),
                Query::Range(Rect::new(-3.0, -3.0, 5.0, 5.0)),
            ];
            let answers = eng.serve(comm, &batch).unwrap().answers;
            (stats.inserted_replicas, references, answers)
        });
        let replicas: u64 = out.iter().map(|o| o.0).sum();
        assert!(replicas > 2, "each insert spans several cells: {replicas}");
        let references: usize = out.iter().map(|o| o.1).sum();
        assert_eq!(references, 38, "each feature counts once");
        for (_, _, answers) in &out {
            let QueryAnswer::Neighbors(nb) = &answers[0] else {
                panic!("knn answer expected");
            };
            assert_eq!(nb[0].userdata, "sw");
            let windows = answers[1..].iter().map(|a| match a {
                QueryAnswer::Matches(m) => m.iter().map(String::as_str).collect(),
                _ => panic!("range answer expected"),
            });
            let knn = nb.iter().map(|n| n.userdata.as_str()).collect::<Vec<_>>();
            for labels in std::iter::once(knn).chain(windows) {
                assert_eq!(labels.len(), 38);
                for tag in ["sw", "w"] {
                    assert_eq!(labels.iter().filter(|&&l| l == tag).count(), 1, "{tag}");
                }
            }
        }
    }

    #[test]
    fn rebalance_off_is_a_noop() {
        let fs = lattice_fs(4);
        let out = World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
            let mut eng = build_engine(comm, &fs, &EngineOptions::default());
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

    fn point(x: f64, y: f64, label: &str) -> Feature {
        Feature::with_userdata(Geometry::Point(Point::new(x, y)), label)
    }

    /// The kNN's answer as labels, with the query records it shipped.
    fn knn_labels(eng: &mut QueryEngine, comm: &mut Comm, at: Point, k: u32) -> (Vec<String>, u64) {
        let report = eng.serve(comm, &[Query::Knn { at, k }]).unwrap();
        let QueryAnswer::Neighbors(nb) = &report.answers[0] else {
            panic!("knn answer expected");
        };
        let labels = nb.iter().map(|n| n.userdata.clone()).collect();
        (labels, report.stats.shipped_records)
    }

    /// A grid past the owner-table cap cannot be re-bisected: the build
    /// migrates nothing and neither sizes nor allreduces a histogram of
    /// one count per cell, and every `maybe_rebalance`, even below its
    /// threshold, is refused on every rank while the engine keeps serving.
    #[test]
    fn a_grid_past_the_table_cap_builds_no_histogram() {
        const SIDE: u32 = 2049;
        let features: Vec<Feature> = (0..40)
            .map(|i| {
                let (x, y) = (0.1 + 0.19 * i as f64, 7.9 - 0.17 * i as f64);
                point(x, y, &format!("f{i:02}"))
            })
            .collect();
        let window = Rect::new(1.0, 4.0, 2.5, 6.5);
        let at = Point::new(0.1 + 0.19 * 7.0, 7.9 - 0.17 * 7.0);
        let scan = |hit: &dyn Fn(&Rect) -> bool| {
            let labels = features.iter().filter(|f| hit(&f.geometry.envelope()));
            QueryAnswer::Matches(labels.map(|f| f.userdata.clone()).collect())
        };
        let want = vec![
            scan(&|env| env.intersects(&window)),
            scan(&|env| env.contains_point(&at)),
        ];
        assert!(matches!(&want[0], QueryAnswer::Matches(m) if m.len() > 2));
        let out = World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
            let grid = UniformGrid::new(Rect::new(0.0, 0.0, 8.0, 8.0), GridSpec::square(SIDE));
            let block = DecompPolicy::Uniform(CellMap::Block);
            let sd = Decomposition::new(grid, block, None, comm.size()).unwrap();
            let mut wire = Vec::new();
            for (cell, f) in features.iter().flat_map(|f| {
                let cells = sd.cells_for_rect_vec(&f.geometry.envelope());
                cells.into_iter().map(move |c| (c, f))
            }) {
                if sd.cell_to_rank(cell) == comm.rank() {
                    serialize_record(cell, f, &mut Vec::new(), &mut wire).unwrap();
                }
            }
            let mut store = ResidentStore::new();
            store.append_round(comm, &[wire]).unwrap();
            let landed = store.len();
            let opts = EngineOptions {
                rebalance: RebalancePolicy::Threshold(f64::MAX),
                ..Default::default()
            };
            let t = comm.now();
            let mut eng = QueryEngine::from_store(comm, sd.clone(), store, &opts);
            let built = comm.now() - t;
            let histogram = comm.cost_model().reduce(2, SIDE as u64 * SIDE as u64 * 8);
            assert!(
                built < histogram,
                "build {built} s, histogram {histogram} s"
            );
            assert_eq!(
                (eng.decomposition(), eng.resident_replicas()),
                (&sd, landed)
            );
            let refused = eng.maybe_rebalance(comm);
            let Err(CoreError::InvalidOptions(why)) = refused else {
                panic!("{refused:?}");
            };
            let cap = mvio_core::decomp::MAX_TABLE_CELLS.to_string();
            assert!(why.contains(&cap), "{why}");
            assert!(!why.contains("uniform cell map"), "{why}");
            let batch = [Query::Range(window), Query::Point(at)];
            (landed, eng.serve(comm, &batch).unwrap().answers)
        });
        assert!(
            out.iter().all(|(landed, _)| *landed > 0),
            "both ranks hold replicas"
        );
        for (_, answers) in &out {
            assert_eq!(answers, &want);
        }
    }

    /// An insert may reach out of the bounds, and a window wholly outside
    /// them must still find it: the window is routed, and cell-tested, as
    /// clamped onto the bounds, and claimed by its reference point clamped
    /// on both sides. On 2-wide cells of [0, 8]², `east` reaches past the
    /// max edge and `west` starts left of the min edge.
    #[test]
    fn a_window_outside_the_bounds_finds_the_inserts_reaching_there() {
        let out = World::run(WorldConfig::new(Topology::single_node(4)), |comm| {
            let mut eng = grid_engine(comm, 4, &[point(1.0, 1.0, "base")]);
            let updates = match comm.rank() {
                0 => vec![Update::Insert(segment(7.5, 2.5, 10.0, 2.5, "east"))],
                1 => vec![Update::Insert(segment(-2.0, 5.0, 0.5, 5.0, "west"))],
                _ => Vec::new(),
            };
            eng.apply_updates(comm, &updates).unwrap();
            let batch = [
                Query::Range(Rect::new(8.5, 2.0, 9.0, 3.0)),
                Query::Range(Rect::new(7.75, 2.0, 9.0, 3.0)),
                Query::Point(Point::new(9.0, 2.5)),
                Query::Range(Rect::new(-1.5, 4.5, -1.0, 5.5)),
                Query::Point(Point::new(-1.0, 5.0)),
                Query::Range(Rect::new(20.0, 20.0, 21.0, 21.0)),
            ];
            eng.serve(comm, &batch).unwrap().answers
        });
        let matches =
            |labels: &[&str]| QueryAnswer::Matches(labels.iter().map(|l| l.to_string()).collect());
        for answers in out {
            let want = [
                matches(&["east"]),
                matches(&["east"]),
                matches(&["east"]),
                matches(&["west"]),
                matches(&["west"]),
                matches(&[]),
            ];
            assert_eq!(answers, want);
        }
    }

    #[test]
    fn an_update_restales_the_reach_summary() {
        let out = World::run(WorldConfig::new(Topology::single_node(4)), |comm| {
            // 2-wide cells dealt round-robin: `a` in cell 0 (rank 0), `c`
            // in cell 6 (rank 2), `d` in cell 15 (rank 3).
            let features = [
                point(0.5, 0.5, "a"),
                point(5.9, 3.9, "c"),
                point(7.5, 7.5, "d"),
            ];
            let mut eng = grid_engine(comm, 4, &features);
            // `a` alone bounds the first neighbour at 2.26, and cell 6's
            // union, 3.8 away in L∞, is not asked.
            let at = Point::new(2.1, 2.1);
            let before = knn_labels(&mut eng, comm, at, 1);
            // A point 2.0 away lands in cell 6, which the old bound
            // excluded; a summary kept across the update misses it.
            let insert = vec![Update::Insert(point(4.1, 2.1, "fresh"))];
            let updates = if comm.rank() == 0 { insert } else { Vec::new() };
            eng.apply_updates(comm, &updates).unwrap();
            (before, knn_labels(&mut eng, comm, at, 1))
        });
        for (before, after) in out {
            assert_eq!(before, (vec!["a".to_string()], 1));
            assert_eq!(after, (vec!["fresh".to_string()], 2));
        }
    }

    #[test]
    fn a_migrating_rebalance_leaves_knn_answers_unchanged() {
        let fs = lattice_fs(8);
        let out = World::run(WorldConfig::new(Topology::single_node(4)), move |comm| {
            let opts = EngineOptions {
                rebalance: RebalancePolicy::Threshold(1.5),
                ..Default::default()
            };
            let mut eng = build_engine(comm, &fs, &opts);
            // A hotspot of inserts in the bottom-left corner.
            let updates: Vec<Update> = (0..96)
                .filter(|_| comm.rank() == 0)
                .map(|i| {
                    let (x, y) = ((i % 10) as f64 * 0.3, (i / 10) as f64 * 0.3);
                    Update::Insert(point(0.05 + x, 0.05 + y, &format!("h{i:02}")))
                })
                .collect();
            eng.apply_updates(comm, &updates).unwrap();
            // Every rank submits the whole sweep, so each kNN is routed
            // from every rank.
            let batch: Vec<Query> = [(0.5, 0.5), (3.3, 6.1), (7.0, 0.2), (-2.0, 9.0)]
                .into_iter()
                .flat_map(|(x, y)| {
                    [1, 4, 30].map(|k| Query::Knn {
                        at: Point::new(x, y),
                        k,
                    })
                })
                .collect();
            let before = eng.serve(comm, &batch).unwrap().answers;
            let (ledger, built) = (comm.ledger(), eng.index.built);
            let dead = eng.index.store.slots() - eng.index.store.len();
            let report = eng.maybe_rebalance(comm).unwrap();
            assert!(report.rebalanced && report.migration.shipped_bytes > 0);
            // A migration only tombstones and appends: no tree is packed,
            // and what departed stays behind until an update rebuilds.
            let packed = comm.ledger()[Slot::RtreeInserts] - ledger[Slot::RtreeInserts];
            assert_eq!((packed, eng.index.built), (0.0, built));
            let shipped = report.migration.shipped_records as usize;
            let store = &eng.index.store;
            assert_eq!(store.slots() - store.len(), dead + shipped);
            (before, eng.serve(comm, &batch).unwrap().answers)
        });
        for (before, after) in &out {
            assert_eq!(before, after, "a migration must not change answers");
            assert_eq!(before, &out[0].0);
        }
    }

    #[test]
    fn a_batch_without_a_knn_never_gathers() {
        let fs = lattice_fs(10);
        let out = World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
            let mut eng = build_engine(comm, &fs, &EngineOptions::default());
            let timed = |eng: &mut QueryEngine, comm: &mut Comm, batch: &[Query]| {
                comm.barrier();
                let t = comm.now();
                eng.serve(comm, batch).unwrap();
                comm.now() - t
            };
            let ranges = [
                Query::Range(Rect::new(2.5, 2.5, 5.5, 4.5)),
                Query::Point(Point::new(7.0, 7.0)),
            ];
            // Only rank 0 asks a kNN; every rank gathers for it.
            let knn = [Query::Knn {
                at: Point::new(4.0, 4.0),
                k: 3,
            }];
            let knn = if comm.rank() == 0 { &knn[..] } else { &[] };
            let stale_ranges = timed(&mut eng, comm, &ranges);
            let stale_knn = timed(&mut eng, comm, knn);
            let fresh_knn = timed(&mut eng, comm, knn);
            let fresh_ranges = timed(&mut eng, comm, &ranges);
            eng.apply_updates(comm, &[]).unwrap();
            let restaled_ranges = timed(&mut eng, comm, &ranges);
            (
                stale_ranges,
                fresh_ranges,
                restaled_ranges,
                stale_knn,
                fresh_knn,
            )
        });
        for (stale, fresh, restaled, stale_knn, fresh_knn) in out {
            // A range/point batch costs the same whether or not the
            // summary is stale: it never gathers.
            assert!((stale - fresh).abs() < 1e-12, "{stale} vs {fresh}");
            assert!((restaled - fresh).abs() < 1e-12, "{restaled} vs {fresh}");
            // The first kNN batch pays for the gather, the second does not.
            assert!(stale_knn > fresh_knn + 1e-7, "{stale_knn} vs {fresh_knn}");
        }
    }

    #[test]
    fn a_knn_bounded_inside_one_cell_ships_one_record() {
        let fs = lattice_fs(10);
        let out = World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
            let mut eng = build_engine(comm, &fs, &EngineOptions::default());
            // Cell 0 holds the lattice's [0, 2]² corner: its farthest
            // corner from (1, 1) bounds the nearest neighbour at √2, and
            // every other cell's points are 2 away in L∞.
            knn_labels(&mut eng, comm, Point::new(1.0, 1.0), 1)
        });
        for answer in out {
            assert_eq!(answer, (vec!["p1_1".to_string()], 1));
        }
    }

    // Figure 20's distributed spatial index is this engine.

    fn build_dataset(fs: &Arc<SimFs>, n: usize) {
        let f = fs.create("data.wkt", None).unwrap();
        let mut text = String::new();
        for i in 0..n {
            let x = (i % 20) as f64;
            let y = (i / 20) as f64;
            text.push_str(&format!(
                "POLYGON (({x} {y}, {} {y}, {} {}, {x} {}, {x} {y}))\tid={i}\n",
                x + 0.5,
                x + 0.5,
                y + 0.5,
                y + 0.5
            ));
        }
        f.append(text.as_bytes());
    }

    /// Builds the engine index over `data.wkt` with Figure 20's phase
    /// split and returns it with this rank's breakdown.
    fn build_index(comm: &mut Comm, fs: &Arc<SimFs>, side: u32) -> (QueryEngine, PhaseBreakdown) {
        let mut timer = PhaseTimer::start(comm);
        let cfg = DecompConfig::uniform(GridSpec::square(side));
        let (read, pipe) = (ReadOptions::default(), PipelineOptions::default());
        let (paths, chunk) = (["data.wkt"], ExchangeChunk::Unlimited);
        let mut ingested =
            ingest_layers(comm, fs, &paths, &read, &WktLineParser, &cfg, &pipe, chunk).unwrap();
        timer.end_partition(ingested.partition_end);
        let store = ingested.layers.swap_remove(0).owned;
        timer.end_communication(comm);
        let eng = QueryEngine::from_store(comm, ingested.decomp, store, &EngineOptions::default());
        timer.end_compute(comm);
        let local = timer.finish(comm);
        (eng, local)
    }

    #[test]
    fn index_covers_every_feature() {
        let fs = SimFs::new(FsConfig::gpfs_roger());
        build_dataset(&fs, 200);
        let out = World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
            let (eng, breakdown) = build_index(comm, &fs, 4);
            let d = eng.decomposition();
            let mine = (0..d.num_cells())
                .filter(|&c| d.cell_to_rank(c) == comm.rank())
                .count();
            (eng.resident_replicas(), mine, breakdown)
        });
        // Non-spanning features appear exactly once; these squares sit
        // strictly inside the grid so most are single-cell. Every feature
        // appears at least once across ranks.
        let total: usize = out.iter().map(|(n, _, _)| n).sum();
        assert!(total >= 200, "indexed {total}");
        // All 16 cells are owned by exactly one rank.
        let cells: usize = out.iter().map(|(_, c, _)| c).sum();
        assert_eq!(cells, 16);
        assert!(out[0].2.total > 0.0);
    }

    #[test]
    fn indexes_answer_queries_locally() {
        let fs = SimFs::new(FsConfig::gpfs_roger());
        build_dataset(&fs, 100);
        let out = World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
            let (mut eng, _) = build_index(comm, &fs, 2);
            let probe = Query::Range(Rect::new(0.0, 0.0, 3.0, 3.0));
            eng.serve(comm, &[probe]).unwrap().answers
        });
        // Squares with x in 0..=3 and y in 0..=3 touch the probe box; the
        // served answer names each once, whichever cells hold replicas.
        for answers in &out {
            let QueryAnswer::Matches(ids) = &answers[0] else {
                panic!("range answer expected");
            };
            let mut want: Vec<String> = (0..4)
                .flat_map(|y| (0..4).map(move |x| format!("id={}", y * 20 + x)))
                .collect();
            want.sort();
            let mut got = ids.clone();
            got.sort();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn breakdown_phases_scale_down_with_ranks() {
        // Enough data that parsing (which parallelizes) dominates the
        // per-request I/O latency floor.
        let n = 6000;
        let run = |topo: Topology| {
            let fs = SimFs::new(FsConfig::gpfs_roger());
            build_dataset(&fs, n);
            World::run(WorldConfig::new(topo), move |comm| {
                let (_, local) = build_index(comm, &fs, 4);
                PhaseBreakdown::reduce_max(comm, local)
            })[0]
        };
        let b1 = run(Topology::single_node(1));
        let b4 = run(Topology::new(2, 2));
        // The dominant partition (read+parse) phase must shrink with more
        // ranks — Figure 20's scaling claim.
        assert!(
            b4.partition < b1.partition,
            "partition {} -> {}",
            b1.partition,
            b4.partition
        );
    }
}
