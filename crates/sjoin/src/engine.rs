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
//!    ([`mvio_geom::algo::rect_contains_any_vertex`]); only straddlers with every
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

use crate::answer::{collect_answers, BLOCK_CAP_MAX};
use crate::join::snapshot_decomposition;
use crate::resident::ResidentIndex;
use mvio_core::decomp::{DecompPolicy, SpatialDecomposition};
use mvio_core::exchange::{
    record_frames, serialize_record, validate_round, ExchangeChunk, ExchangeOptions, ExchangePlan,
    ExchangeStats, RecordFrame, SerializedBatch,
};
use mvio_core::pipeline::IngestOutput;
use mvio_core::rebalance::{
    self, RebalancePolicy, RebalanceReport, Rebalancer, Update, UpdateStats,
};
use mvio_core::resident::ResidentStore;
use mvio_core::snapshot::{self, SnapshotReadOptions};
use mvio_core::{CoreError, Feature, Result};
use mvio_geom::refkernel::RefineArena;
use mvio_geom::{Geometry, LineString, Point, Rect};
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
    /// Coordinate buffers `serve` materializes candidates into, recycled
    /// across calls.
    arena: RefineArena,
}

impl QueryEngine {
    /// Builds the engine from an ingest run's output
    /// ([`QueryEngine::from_parts`] over its decomposition and owned
    /// replicas). Collective: every rank must call it.
    pub fn from_ingest(comm: &mut Comm, out: IngestOutput, opts: &EngineOptions) -> Self {
        Self::from_parts(comm, out.decomp, out.owned, opts)
    }

    /// Builds the engine from an already-partitioned `(cell, feature)`
    /// set and its decomposition. The engine keeps its replicas as wire
    /// records ([`ResidentStore`]), so the owned pairs are encoded once
    /// here — charged [`Work::SerializeGeoms`] per replica, the price of
    /// handing the engine objects instead of the frames an exchange
    /// delivers ([`QueryEngine::from_store`]) — and then indexed
    /// ([`Work::RtreeInserts`]).
    /// Collective: every rank must call it.
    ///
    /// # Panics
    ///
    /// If a replica's geometry or userdata exceeds the wire format's
    /// `u32` length fields (4 GiB) — such a replica could never have
    /// been exchanged either.
    pub fn from_parts(
        comm: &mut Comm,
        sd: Box<dyn SpatialDecomposition>,
        owned: Vec<(u32, Feature)>,
        opts: &EngineOptions,
    ) -> Self {
        let store = ResidentStore::from_owned(comm, owned)
            // audit: documented panic; only a > 4 GiB field can fail the encode.
            .expect("replica within the wire format's u32 length limits");
        Self::from_store(comm, sd, store, opts)
    }

    /// Builds the engine over replicas that already are validated wire
    /// records — what an exchange or a snapshot reload delivered
    /// ([`ResidentStore::from_frames`]). Nothing is decoded; only the
    /// index build is charged ([`Work::RtreeInserts`]).
    /// Collective: every rank must call it.
    pub fn from_store(
        comm: &mut Comm,
        sd: Box<dyn SpatialDecomposition>,
        store: ResidentStore,
        opts: &EngineOptions,
    ) -> Self {
        let index = ResidentIndex::build(comm, sd, store);
        let rebalancer = Rebalancer::from_policy(opts.rebalance, &*index.sd, &index.store);
        QueryEngine {
            index,
            chunk: opts.chunk,
            cache: opts.cache.resolve().map(ResultCache::new),
            rebalancer,
            arena: RefineArena::new(),
        }
    }

    /// Builds the engine from a binary snapshot: one collective
    /// metadata read ([`snapshot::read_meta_timed`]), decomposition
    /// rebuild under `policy`, collective
    /// [`snapshot::read_partitioned_frames`] over that metadata — the
    /// routed records stay the wire frames they were persisted as. The
    /// adaptive policy is rejected with [`CoreError::InvalidOptions`] — a
    /// snapshot does not carry the feature histogram it needs (same
    /// contract as snapshot joins).
    pub fn from_snapshot(
        comm: &mut Comm,
        fs: &Arc<SimFs>,
        path: &str,
        policy: DecompPolicy,
        read: &SnapshotReadOptions,
        opts: &EngineOptions,
    ) -> Result<Self> {
        let meta = snapshot::read_meta_timed(comm, fs, path)?;
        let sd = snapshot_decomposition(&meta, policy, comm.size(), "serve")?;
        let (frames, _) = snapshot::read_partitioned_frames(comm, fs, path, &meta, &*sd, read)?;
        let store = ResidentStore::from_frames(comm, std::slice::from_ref(&frames));
        Ok(Self::from_store(comm, sd, store, opts))
    }

    /// The resident decomposition (e.g. for generating in-bounds query
    /// workloads against `bounds()`).
    pub fn decomposition(&self) -> &dyn SpatialDecomposition {
        &*self.index.sd
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

    /// Answers one rectangle against this rank's replicas only — no
    /// communication, no cache. The one-shot `range_query` wrapper uses
    /// this for its compute phase; the union of every rank's local
    /// matches is the global answer (duplicate-free by the
    /// reference-corner rule).
    /// Not collective — answers from this rank's replicas only; the
    /// communicator only charges the tree walk.
    pub fn local_range_matches(&self, comm: &mut Comm, query: &Rect) -> Result<Vec<String>> {
        validate_query(&Query::Range(*query))?;
        let matches = self
            .index
            .rect_matches(comm, &mut RefineArena::new(), query);
        Ok(matches.into_iter().map(String::from).collect())
    }

    /// The configured rebalance threshold (`None` = rebalancing off).
    pub fn rebalance_threshold(&self) -> Option<f64> {
        self.rebalancer.as_ref().map(Rebalancer::threshold)
    }

    /// Applies a batch of streaming [`Update`]s to the resident
    /// partition and drops the result cache (cached answers may name
    /// deleted features or miss inserted ones; see
    /// [`rebalance::apply_updates`] for the routing protocol, what each
    /// side is charged, and the drift-histogram bookkeeping). A rank
    /// whose replica set changed reindexes — which also compacts its
    /// store; a rank that received nothing keeps its index as it is.
    /// Collective — every rank must call it together, each with its own
    /// (possibly empty) batch. Invalid updates anywhere in the world
    /// reject the whole call symmetrically with
    /// [`CoreError::InvalidOptions`] before anything ships, leaving the
    /// engine untouched and usable for the next batch.
    pub fn apply_updates(&mut self, comm: &mut Comm, updates: &[Update]) -> Result<UpdateStats> {
        let before = (self.index.store.len(), self.index.store.slots());
        let result = rebalance::apply_updates(
            comm,
            &*self.index.sd,
            &mut self.index.store,
            updates,
            self.chunk,
            self.rebalancer.as_mut().map(Rebalancer::tracker_mut),
        );
        // Also on the deferred-error path: the exchange applies whatever
        // arrived before winding down. An insert grows the slot table and
        // a delete shrinks the live count, so an unchanged pair means no
        // replica arrived or left.
        if (self.index.store.len(), self.index.store.slots()) != before {
            self.index.reindex(comm);
        }
        // Unconditional: a remote rank's updates can stale this rank's
        // cached answers without shipping this rank a single record.
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
            reb.maybe_rebalance(comm, &mut self.index.sd, &mut self.index.store, self.chunk)?;
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
        let (index, arena) = (&self.index, &mut self.arena);
        let mut deferred: Option<CoreError> = None;
        match comm.labeled("serve.queries", |c| {
            plan.run(c, &mut qbatch.into_feed(&plan), &mut |comm, bufs| {
                let received = validate_round(comm, &bufs)?;
                for (src, buf) in bufs.iter().enumerate() {
                    for fr in record_frames(buf) {
                        rbatch.records[src] +=
                            index.serve_one(comm, arena, &fr, block_cap, &mut rbatch.bufs[src])?;
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
    use mvio_core::decomp::{self, DecompConfig, UniformDecomposition};
    use mvio_core::exchange::exchange_features;
    use mvio_core::grid::{CellMap, GridSpec, UniformGrid};
    use mvio_core::partition::{read_features, ReadOptions};
    use mvio_core::reader::WktLineParser;
    use mvio_geom::algo;
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

    /// The engine's resident replicas, decoded (for the snapshot writer).
    fn resident_features(eng: &QueryEngine) -> Vec<(u32, Feature)> {
        eng.resident()
            .map(|fr| (fr.cell, fr.to_feature().unwrap()))
            .collect()
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
                    .serve_one(comm, &mut RefineArena::new(), &fr, BLOCK_CAP_MAX, &mut out)
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
            let eng = one_rank_engine(comm, 4, &features);
            let index = &eng.index;
            let mut arena = RefineArena::new();
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
                        .knn_local(comm, &mut arena, &at, k)
                        .into_iter()
                        .map(|(d, i)| (d, index.store.frame(i).userdata))
                        .collect();
                    assert_eq!(walked, knn_scan(index, &at, k), "at {at:?}, k {k}");
                }
            }
            // The walk is what makes a small k cheap: far fewer exact
            // distances than the dataset holds.
            let t = comm.now();
            index.knn_local(comm, &mut arena, &Point::new(1.75, 1.75), 3);
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
            let owned = resident_features(&eng);
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
            let owned = resident_features(&eng);
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
    fn a_rank_that_received_no_update_does_not_reindex() {
        let fs = lattice_fs(60);
        let landed = World::run(WorldConfig::new(Topology::single_node(4)), move |comm| {
            let mut eng = build_engine(comm, &fs, &EngineOptions::default());
            let window = Rect::new(10.5, 10.5, 30.5, 40.5);
            let before = eng.local_range_matches(comm, &window).unwrap();
            // One insert from rank 0; it lands on a single rank.
            let updates: Vec<Update> = (comm.rank() == 0)
                .then(|| {
                    Update::Insert(Feature::with_userdata(
                        Geometry::Point(Point::new(20.25, 20.25)),
                        "fresh",
                    ))
                })
                .into_iter()
                .collect();
            let t = comm.now();
            let stats = eng.apply_updates(comm, &updates).unwrap();
            let spent = comm.now() - t;
            let rebuild = comm.cost_model().cost(Work::RtreeInserts {
                n: eng.resident_replicas() as u64,
            });
            let after = eng.local_range_matches(comm, &window).unwrap();
            if stats.inserted_replicas == 0 {
                // The whole call — collectives included — costs an idle
                // rank less than the rebuild it used to be charged.
                assert!(spent < rebuild, "idle rank spent {spent} s of {rebuild} s");
                assert_eq!(after, before);
            } else {
                assert!(spent >= rebuild, "the receiver must reindex");
                assert_eq!(after.len(), before.len() + 1);
                assert!(after.contains(&"fresh".to_string()));
            }
            stats.inserted_replicas
        });
        assert_eq!(landed.iter().sum::<u64>(), 1, "{landed:?}");
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
