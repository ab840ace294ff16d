//! The end-to-end distributed spatial join (paper §5.2, Figures 17–19).

use crate::breakdown::{PhaseBreakdown, PhaseTimer};
use mvio_core::decomp::{DecompConfig, DecompPolicy, Decomposition, SpatialDecomposition};
use mvio_core::exchange::{exchange_serialized, serialize_frame, ExchangeChunk, SerializedBatch};
use mvio_core::framework::claims_reference;
use mvio_core::grid::{CellMap, GridSpec};
use mvio_core::partition::ReadOptions;
use mvio_core::pipeline::{ingest_layers, PipelineOptions};
use mvio_core::reader::WktLineParser;
use mvio_core::resident::ResidentStore;
use mvio_core::snapshot::{self, SnapshotReadOptions};
use mvio_core::{CoreError, Result};
use mvio_geom::index::RTree;
use mvio_geom::refkernel::ApproxTable;
use mvio_geom::wkb::GeomRef;
use mvio_geom::{algo, Rect};
use mvio_msim::{Comm, CostModel, Work};
use mvio_pfs::SimFs;
use std::sync::Arc;

/// Options for one distributed join.
#[derive(Debug, Clone, Copy)]
pub struct JoinOptions {
    /// Grid resolution (the Figure 17 sweep axis).
    pub grid: GridSpec,
    /// Spatial decomposition policy (cell tiling + cell→rank assignment).
    /// Defaults to the paper's uniform round-robin grid. The join
    /// *answer* is identical under every policy.
    /// The policy decides where records land — the exchange volume and
    /// the filter load — but no longer the refine makespan: surviving
    /// candidate pairs are re-balanced across ranks after the filter
    /// (see [`BALANCE_MIN_SURPLUS_NS`]).
    pub decomp: DecompPolicy,
    /// File read configuration for both layers.
    pub read: ReadOptions,
    /// Per-destination byte cap for each pipelined exchange round.
    /// Defaults to [`ExchangeChunk::Unlimited`]: one blocking round per
    /// layer. A finite cap streams each layer's cell-map and copies into
    /// the exchange rounds of [`mvio_core::pipeline::ingest_layers`]:
    /// round `r`'s transfer overlaps round `r + 1`'s copies, and both
    /// steps count as communication. Refine starts after the last round;
    /// the join *answer* is identical for every chunk policy.
    pub chunk: ExchangeChunk,
    /// Intra-rank streaming pipeline configuration: its workers are
    /// modelled lanes, on the rank's own thread, that the parse and the
    /// cell-map/serialize stages of both layers charge chunk by chunk. The
    /// exchanged records are bit-identical for any worker count, so this
    /// only affects the virtual-time breakdown, never the join result.
    /// Defaults to [`PipelineOptions::default`] (**1 worker**), so the
    /// repro harness's paper figures are identical on every host.
    pub pipeline: PipelineOptions,
}

impl Default for JoinOptions {
    fn default() -> Self {
        JoinOptions {
            grid: GridSpec::square(16),
            decomp: DecompPolicy::Uniform(CellMap::RoundRobin),
            read: ReadOptions::default(),
            chunk: ExchangeChunk::Unlimited,
            pipeline: PipelineOptions::default(),
        }
    }
}

/// Per-rank result of a distributed join.
#[derive(Debug, Clone)]
pub struct JoinReport {
    /// Intersecting pairs found by this rank, as `(left userdata, right
    /// userdata)` — duplicate-free across all ranks thanks to the
    /// reference-point rule.
    pub pairs: Vec<(String, String)>,
    /// Candidate pairs the per-cell R-tree probe produced for this rank's
    /// own cells (work shipped in by the balance step is not counted
    /// again, so the sum over ranks is a property of the input).
    pub filter_candidates: u64,
    /// Candidates of this rank's own cells that survived the MBR filter
    /// and the reference-point dedup — the refine load the decomposition
    /// gave this rank, before balancing.
    pub owned_refine_tests: u64,
    /// Surviving pairs refined on this rank, after balancing — the load
    /// the balance step evens out. The sum over ranks equals the sum of
    /// `owned_refine_tests`: balancing moves tests, it never adds or drops
    /// one.
    pub refine_tests: u64,
    /// The part of `refine_tests` the approximation step left undecided,
    /// which ran the exact `intersects` test.
    pub exact_tests: u64,
    /// Wire bytes this rank shipped to other ranks in the balance step
    /// (0 when the plan was empty or this rank had no surplus).
    pub balance_shipped_bytes: u64,
    /// Peak geometry-payload heap allocations resident on this rank
    /// during the join phase. Always 0: received records stay borrowed
    /// wire frames and refine reads them in place. Kept because the
    /// benchmark reports it.
    pub max_resident_allocs: u64,
    /// Global max-over-ranks phase breakdown (identical on every rank).
    /// The balance step (count allgather, shipping, the receiver's
    /// re-filter) is part of `compute`.
    pub breakdown: PhaseBreakdown,
}

/// Runs the full distributed spatial join of two WKT files. Every rank
/// must call this; each returns its share of the result pairs plus the
/// global breakdown.
/// Collective: every rank must call it with the same options.
pub fn spatial_join(
    comm: &mut Comm,
    fs: &Arc<SimFs>,
    left_path: &str,
    right_path: &str,
    opts: &JoinOptions,
) -> Result<JoinReport> {
    let mut timer = PhaseTimer::start(comm);

    // --- Partitioning and communication: the one text front half. -------
    // One decomposition over both layers; the received records stay
    // validated wire frames, bit-identical for every chunk policy.
    let cfg = DecompConfig {
        grid: opts.grid,
        policy: opts.decomp,
    };
    let (paths, read, pipe) = ([left_path, right_path], &opts.read, &opts.pipeline);
    let chunk = opts.chunk;
    let ingested = ingest_layers(comm, fs, &paths, read, &WktLineParser, &cfg, pipe, chunk)?;
    timer.end_partition(ingested.partition_end);
    timer.end_communication(comm);

    // --- Join phase: filter, balance, refine over frames. ----------------
    let [left, right] = [0, 1].map(|i| &ingested.layers[i].owned);
    let report = run_refine_frames(comm, &ingested.decomp, left, right, chunk);
    finish(comm, timer, report)
}

/// Closes the compute phase and fills in the global breakdown. Takes the
/// join phase's result rather than its report: a rank whose join phase
/// failed still enters the breakdown reduction its peers are in, and
/// returns its error afterwards.
fn finish(
    comm: &mut Comm,
    mut timer: PhaseTimer,
    report: Result<JoinReport>,
) -> Result<JoinReport> {
    timer.end_compute(comm);
    let local = timer.finish(comm);
    let breakdown = PhaseBreakdown::reduce_max(comm, local);
    report.map(|report| JoinReport {
        breakdown,
        ..report
    })
}

/// Options for a join over two binary snapshots.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotJoinOptions {
    /// Cell→rank assignment rebuilt for the reader world over the
    /// snapshots' shared grid ([`snapshot::SnapshotMeta::decomposition`]).
    /// Must be [`DecompPolicy::Uniform`] or [`DecompPolicy::Hilbert`]:
    /// adaptive bisection needs the feature histogram, which a snapshot
    /// does not carry.
    pub decomp: DecompPolicy,
    /// Collective-read + routing-exchange configuration.
    pub read: SnapshotReadOptions,
}

impl Default for SnapshotJoinOptions {
    fn default() -> Self {
        SnapshotJoinOptions {
            decomp: DecompPolicy::Uniform(CellMap::RoundRobin),
            read: SnapshotReadOptions::default(),
        }
    }
}

/// Runs the distributed spatial join directly off two **binary
/// snapshots** written by [`mvio_core::snapshot::write_partitioned`] —
/// no WKT parsing, no cell projection: the persisted records already
/// carry their cells, so the partitioning phase collapses to one
/// collective metadata read per file plus the decomposition rebuild,
/// and the communication phase is the two collective payload reads
/// (each with its routing exchange), which reuse that metadata. Both
/// snapshots must tile the same grid over the same bounds (they were
/// partitioned together, or with the same decomposition). The join
/// answer is identical to [`spatial_join`] over the original text
/// layers. Collective: every rank must call it.
pub fn spatial_join_snapshots(
    comm: &mut Comm,
    fs: &Arc<SimFs>,
    left_path: &str,
    right_path: &str,
    opts: &SnapshotJoinOptions,
) -> Result<JoinReport> {
    let mut timer = PhaseTimer::start(comm);

    // --- Partitioning phase: headers + decomposition rebuild. ------------
    // Each meta is read once, by rank 0, and decoded from the same
    // broadcast bytes on every rank, so every rejection below is
    // symmetric — nobody enters the collective reads unless everybody
    // does. The timed reads charge the header I/O to this phase, so it
    // does not cost zero virtual seconds.
    let left_meta = snapshot::read_meta_timed(comm, fs, left_path)?;
    let right_meta = snapshot::read_meta_timed(comm, fs, right_path)?;
    if left_meta.spec != right_meta.spec || left_meta.bounds != right_meta.bounds {
        return Err(CoreError::Snapshot(format!(
            "snapshot layers disagree: left tiles {}x{} over {:?}, right {}x{} over {:?}",
            left_meta.spec.cells_x,
            left_meta.spec.cells_y,
            left_meta.bounds,
            right_meta.spec.cells_x,
            right_meta.spec.cells_y,
            right_meta.bounds,
        )));
    }
    let sd = left_meta.decomposition(opts.decomp, comm.size())?;
    timer.end_partition(comm.now());

    // --- Communication phase: collective reads + routing exchanges. ------
    // The routed records stay as validated wire frames.
    let (left, _) = snapshot::read_partitioned(comm, fs, left_path, &left_meta, &sd, &opts.read)?;
    let (right, _) =
        snapshot::read_partitioned(comm, fs, right_path, &right_meta, &sd, &opts.read)?;
    timer.end_communication(comm);

    // --- Join phase: identical to the text path. --------------------------
    let report = run_refine_frames(comm, &sd, &left, &right, opts.read.chunk);
    finish(comm, timer, report)
}

/// The balance step is skipped unless the busiest rank's refine load is
/// at least this far above the balanced share `ceil(total / p)`. Loads are
/// predicted refine nanoseconds (the cost model's [`Work::RefinePair`] of
/// each surviving pair), so the constant means the same on 150 µs tests
/// and on millisecond ones. The prediction deliberately prices every
/// survivor as an exact test, although the approximation step
/// ([`ApproxTable`]) settles most of them for far less. Weighing by what
/// is left after it would take 6 % off the benchmark's clustered join
/// (3.61 → 3.38 virtual s at 16 ranks, seed 1) but spread the survivor
/// counts per rank — the join's load measure — from 1.003 to 2.35 times
/// max over mean. 10 ms is a few times what a non-empty plan
/// costs before it saves anything: four collectives (about 1 ms of
/// latency at 80 ranks and 4 ms at 320 under the calibrated model) and,
/// per shipped test, about a fifth of its refine time for serializing its
/// records and filtering them again on the receiver. The sampling noise
/// of a near-uniform input — 3 to 4 ms on the benchmark's uniform joins —
/// stays under it, so such inputs pay only the 8-byte allgather.
pub const BALANCE_MIN_SURPLUS_NS: u64 = 10_000_000;

/// One planned shipment of refine work: survivors worth `load` predicted
/// nanoseconds move from rank `from` to rank `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Transfer {
    from: usize,
    to: usize,
    load: u64,
}

/// The balance plan for the given per-rank refine loads: ranks above the
/// target `ceil(total / p)` hand their surplus to ranks below it, both
/// taken in ascending rank order, so afterwards no rank exceeds the
/// target. A pure function of `loads` — every rank computes the same
/// plan from the allgathered loads, with no further agreement round.
/// Empty when the largest surplus is under [`BALANCE_MIN_SURPLUS_NS`].
fn plan(loads: &[u64]) -> Vec<Transfer> {
    let total: u64 = loads.iter().sum();
    let target = total.div_ceil(loads.len().max(1) as u64);
    let max = loads.iter().copied().max().unwrap_or(0);
    let mut transfers = Vec::new();
    if max - target < BALANCE_MIN_SURPLUS_NS {
        return transfers;
    }
    let mut deficits = loads
        .iter()
        .enumerate()
        .filter(|&(_, &l)| l < target)
        .map(|(rank, &l)| (rank, target - l));
    let mut open = deficits.next();
    for (from, &own) in loads.iter().enumerate() {
        let mut surplus = own.saturating_sub(target);
        while surplus > 0 {
            // Σ surplus ≤ Σ deficit because target ≥ the mean.
            let Some((to, room)) = open else { break };
            let load = surplus.min(room);
            transfers.push(Transfer { from, to, load });
            surplus -= load;
            open = if room > load {
                Some((to, room - load))
            } else {
                deficits.next()
            };
        }
    }
    transfers
}

/// One side of the join phase: the landed store, read by slot, and each
/// record's decoded view.
struct Side<'a> {
    store: &'a ResidentStore,
    refs: Vec<GeomRef<'a>>,
}

impl<'a> Side<'a> {
    /// Decodes each of the store's records into its borrowed view once,
    /// in slot order — the exchange's record order.
    fn new(store: &'a ResidentStore) -> Result<Self> {
        // Survivor lists index slots with u32.
        if u32::try_from(store.slots()).is_err() {
            return Err(CoreError::Partition(format!(
                "join: {} records on one rank exceed the u32 index space",
                store.slots()
            )));
        }
        // A store the join gets is freshly landed, so every slot is live.
        debug_assert_eq!(store.len(), store.slots(), "tombstone in a landed store");
        fn view(wkb: &[u8]) -> GeomRef<'_> {
            // audit: the store only holds records the exchange validated.
            mvio_geom::wkb::decode_ref(wkb).expect("validated frame").0
        }
        let refs = (0..store.slots()).map(|i| view(store.frame(i).wkb));
        Ok(Side {
            store,
            refs: refs.collect(),
        })
    }

    /// Slots grouped by cell: stable-sorted, so within a cell they keep
    /// record order.
    fn by_cell(&self) -> Vec<u32> {
        // audit: `new` checked that every slot fits u32.
        let mut order: Vec<u32> = (0..self.refs.len() as u32).collect();
        order.sort_by_key(|&i| self.store.cell(i as usize));
        order
    }
}

/// The filter step: for every cell holding records of both sides,
/// bulk-loads an R-tree over the left MBRs (the paper uses GEOS's STRtree
/// the same way), probes it with each right MBR, and keeps the candidates
/// whose MBRs overlap and whose reference point the cell claims
/// ([`claims_reference`]). Returns the survivors as flat `(left, right)`
/// slots in cell / probe-record / hit order — one right record's
/// survivors are contiguous — plus the candidate count before the dedup.
fn filter(
    comm: &mut Comm,
    sd: &Decomposition,
    left: &Side<'_>,
    right: &Side<'_>,
) -> (Vec<(u32, u32)>, u64) {
    let (lorder, rorder) = (left.by_cell(), right.by_cell());
    let cell_of = |side: &Side<'_>, i: u32| side.store.cell(i as usize);
    let mut survivors = Vec::new();
    let mut total_candidates = 0u64;
    let (mut l, mut r) = (0, 0);
    while l < lorder.len() && r < rorder.len() {
        let cell = cell_of(left, lorder[l]).min(cell_of(right, rorder[r]));
        let ls = run_of(&lorder[l..], |i| cell_of(left, i) == cell);
        let rs = run_of(&rorder[r..], |i| cell_of(right, i) == cell);
        l += ls.len();
        r += rs.len();
        if ls.is_empty() || rs.is_empty() {
            continue;
        }
        let items: Vec<(Rect, u32)> = ls
            .iter()
            .map(|&i| (*left.store.envelope(i as usize), i))
            .collect();
        comm.charge(Work::RtreeInserts { n: ls.len() as u64 });
        let index = RTree::bulk_load(items);

        // Candidates in (right outer, hit inner) order, so the per-rank
        // output order is deterministic; each is kept only if the MBRs
        // overlap and then only if the cell claims its reference point.
        let mut candidates = 0u64;
        for &ri in rs {
            let b = right.store.envelope(ri as usize);
            index.query_with(b, &mut |&li| {
                candidates += 1;
                let a = left.store.envelope(li as usize);
                if a.intersects(b) && claims_reference(sd, cell, a, b) {
                    survivors.push((li, ri));
                }
            });
        }
        comm.charge(Work::RtreeQueries {
            n: rs.len() as u64,
            results: candidates,
        });
        total_candidates += candidates;
    }
    (survivors, total_candidates)
}

/// The leading run of `items` satisfying `pred`.
fn run_of(items: &[u32], pred: impl Fn(u32) -> bool) -> &[u32] {
    let len = items.iter().take_while(|&&i| pred(i)).count();
    &items[..len]
}

/// The exact test of one surviving pair as the cost model's work unit:
/// what [`refine`] charges for a pair that reaches the exact test, and
/// what the balance step weighs every survivor at.
fn refine_work(left: &Side<'_>, right: &Side<'_>, (li, ri): (u32, u32)) -> Work {
    Work::RefinePair {
        verts_a: left.refs[li as usize].num_points() as u64,
        verts_b: right.refs[ri as usize].num_points() as u64,
    }
}

/// Predicted refine time of one surviving pair, in nanoseconds under
/// `model` — the unit the balance step counts load in. A count of tests
/// would misjudge inputs whose polygons are large: one test costs the
/// fixed call overhead plus the product of the two vertex counts. It is
/// the pre-approximation cost on purpose, so that the plan evens out
/// survivors, not exact tests (see [`BALANCE_MIN_SURPLUS_NS`]).
fn test_cost(model: &CostModel, left: &Side<'_>, right: &Side<'_>, pair: (u32, u32)) -> u64 {
    (model.cost(refine_work(left, right, pair)) * 1e9) as u64
}

/// The refine step, in two: the approximation step ([`ApproxTable`]:
/// one edge of the left polygon's convex hull proves misses, a right
/// vertex located inside the polygon proves hits, its raster's interior
/// cells prove hits and its exterior cells misses), then the
/// exact intersection test for the pairs it leaves open, run on the two
/// frames' views as they are. Appends the userdata of every intersecting
/// pair to `pairs` and returns the number of exact tests. Charges
/// [`Work::MbrTests`] per vertex the approximations touched, per raster
/// cell and left edge they classified and per test they examined, and
/// [`Work::RefinePair`] per exact test. `survivors` come in cell order
/// and a left frame belongs to one cell, so the rasters are dropped
/// whenever the cell changes. `approx` is reset for `left`; one table
/// serves every call of a join, so its buffers are allocated once.
fn refine(
    comm: &mut Comm,
    approx: &mut ApproxTable,
    left: &Side<'_>,
    right: &Side<'_>,
    survivors: &[(u32, u32)],
    pairs: &mut Vec<(String, String)>,
) -> u64 {
    approx.reset(left.refs.len());
    let (mut examined, mut exact, mut cell) = (0, 0, None);
    for &pair in survivors {
        let (li, ri) = (pair.0 as usize, pair.1 as usize);
        let at = left.store.cell(li);
        if cell.replace(at) != Some(at) {
            approx.clear_rasters();
        }
        examined += approx.prepare(li, &left.refs[li]);
        let decision = approx.decide(li, &left.refs[li], &right.refs[ri]);
        examined += decision.examined + decision.classified;
        let hit = decision.outcome.unwrap_or_else(|| {
            exact += 1;
            comm.charge(refine_work(left, right, pair));
            algo::shapes_intersect(left.refs[li], right.refs[ri])
        });
        if hit {
            pairs.push((
                left.store.frame(li).userdata.to_string(),
                right.store.frame(ri).userdata.to_string(),
            ));
        }
    }
    comm.charge(Work::MbrTests { n: examined });
    exact
}

/// Copies the records in the given slots of `side` into `buf` as wire
/// records, allocated once at its exact size. Returns the record count.
fn emit_frames(side: &Side<'_>, slots: &[u32], buf: &mut Vec<u8>) -> Result<u64> {
    let frames = || slots.iter().map(|&i| side.store.frame(i as usize));
    buf.reserve_exact(frames().map(|frame| frame.wire_len()).sum());
    for frame in frames() {
        serialize_frame(&frame, buf)?;
    }
    Ok(slots.len() as u64)
}

/// Cuts the tail of `survivors` into this rank's planned shipments and
/// copies them out: per destination, the right frames of the shipped
/// probe records once, and the deduplicated left frames they pair with.
/// The frames are already wire records, so nothing is encoded and the
/// charge is the bytes copied ([`Work::CopyBytes`]).
/// A cut falls where the running [`test_cost`] reaches the planned load,
/// moved forward to the next probe-record boundary (one right record's
/// survivors never split), so a shipment may exceed its planned load by
/// less than one record's survivors. `own_load` is the cost of the whole
/// list. Returns the number of survivors this rank keeps — a prefix of
/// the list — and the two batches.
fn cut_shipments(
    comm: &mut Comm,
    left: &Side<'_>,
    right: &Side<'_>,
    survivors: &[(u32, u32)],
    own_load: u64,
    outgoing: &[Transfer],
) -> Result<(usize, SerializedBatch, SerializedBatch)> {
    let p = comm.size();
    let model = *comm.cost_model();
    let mut left_batch = SerializedBatch::empty(p);
    let mut right_batch = SerializedBatch::empty(p);
    if outgoing.is_empty() {
        return Ok((survivors.len(), left_batch, right_batch));
    }
    // One forward walk over the list: the planned intervals are the kept
    // prefix, then the destinations in plan order. A probe record goes to
    // the interval its first survivor falls in.
    let (mut at, mut load) = (0, 0u64);
    let mut cut_at = |boundary: u64| {
        let same_record = |at: usize| at > 0 && survivors[at].1 == survivors[at - 1].1;
        while at < survivors.len() && (load < boundary || same_record(at)) {
            load += test_cost(&model, left, right, survivors[at]);
            at += 1;
        }
        at
    };
    let shipped: u64 = outgoing.iter().map(|t| t.load).sum();
    let mut boundary = own_load.saturating_sub(shipped);
    let kept = cut_at(boundary);
    let mut start = kept;
    let (mut lefts, mut rights) = (Vec::new(), Vec::new());
    for t in outgoing {
        boundary += t.load;
        let end = cut_at(boundary);
        let slice = &survivors[start..end];
        start = end;
        lefts.clear();
        lefts.extend(slice.iter().map(|&(li, _)| li));
        lefts.sort_unstable();
        lefts.dedup();
        rights.clear();
        rights.extend(slice.iter().map(|&(_, ri)| ri));
        rights.dedup();
        left_batch.records[t.to] = emit_frames(left, &lefts, &mut left_batch.bufs[t.to])?;
        right_batch.records[t.to] = emit_frames(right, &rights, &mut right_batch.bufs[t.to])?;
    }
    comm.charge(Work::CopyBytes {
        n: (left_batch.bufs.iter().chain(&right_batch.bufs))
            .map(|b| b.len() as u64)
            .sum(),
    });
    Ok((kept, left_batch, right_batch))
}

/// The join phase, in three steps.
///
/// **Filter** ([`filter`]): every rank reduces the frames of its own
/// cells to the exact list of candidate pairs that need an exact test.
///
/// **Balance**: the ranks allgather the predicted refine time of their
/// survivors ([`test_cost`]) and compute the same [`plan`]. When it is
/// empty — the common, near-balanced case — nothing else happens.
/// Otherwise each surplus rank cuts the tail of its list at probe-record
/// boundaries and ships, per destination, those right frames plus the
/// left frames they pair with, as ordinary wire records through two
/// staged exchanges. A receiver runs the same [`filter`] on what it got:
/// cell ids and cell rectangles are unchanged, so the reference-point
/// rule keeps exactly the pairs the sender cut. Every `(cell, right
/// replica)` is therefore refined on exactly one rank, together with
/// every left replica of that cell it can intersect.
///
/// **Refine** ([`refine`]): approximate, then exact tests for what the
/// approximations leave open — over what the rank kept, then over what it
/// received. A receiver decides exactly as the sender would have: the
/// decision is a function of the two frames' bytes. Heap allocation for
/// geometry on the receive side is zero by construction, so
/// `max_resident_allocs` is 0.
///
/// Collective: every rank must call it (one allgather; two staged
/// exchanges when the plan is non-empty, which every rank decides alike).
/// Deferred-error rule: a rank that fails before or in one of these
/// collectives does not leave them — it still enters every one that
/// remains, with no frames, a zero load or an empty batch, so its peers
/// never wait on a rank that has quit — and it returns its first error
/// only after the last of them. The returned report's `breakdown` is left
/// for the caller ([`finish`]) to fill.
fn run_refine_frames(
    comm: &mut Comm,
    sd: &Decomposition,
    left_store: &ResidentStore,
    right_store: &ResidentStore,
    chunk: ExchangeChunk,
) -> Result<JoinReport> {
    let rank = comm.rank();
    let none = ResidentStore::new();
    let sides = Side::new(left_store).and_then(|l| Ok((l, Side::new(right_store)?)));
    let (left, right, mut first_error) = match sides {
        Ok((left, right)) => (left, right, None),
        Err(e) => {
            let empty = || Side {
                store: &none,
                refs: Vec::new(),
            };
            (empty(), empty(), Some(e))
        }
    };
    debug_assert!(
        (left.store.replicas())
            .chain(right.store.replicas())
            .all(|(cell, _)| sd.cell_to_rank(cell) == rank),
        "record misrouted"
    );
    let (survivors, filter_candidates) = filter(comm, sd, &left, &right);

    let model = *comm.cost_model();
    let own_load: u64 = survivors
        .iter()
        .map(|&pair| test_cost(&model, &left, &right, pair))
        .sum();
    let gathered = comm.labeled("join.balance.counts", |c| {
        c.allgather(own_load.to_le_bytes().to_vec())
    });
    let loads: Vec<u64> = gathered
        .iter()
        // audit: every rank contributes exactly the 8 bytes written above.
        .map(|word| u64::from_le_bytes(word.as_slice().try_into().expect("8-byte load")))
        .collect();
    let transfers = plan(&loads);

    let mut kept = survivors.len();
    let mut incoming = None;
    if !transfers.is_empty() {
        let outgoing: Vec<Transfer> = transfers.into_iter().filter(|t| t.from == rank).collect();
        let empty = || SerializedBatch::empty(loads.len());
        let (left_batch, right_batch);
        (kept, left_batch, right_batch) =
            match cut_shipments(comm, &left, &right, &survivors, own_load, &outgoing) {
                Ok(cut) => cut,
                Err(e) => {
                    first_error.get_or_insert(e);
                    (0, empty(), empty())
                }
            };
        let left_in = comm.labeled("join.balance.left", |c| {
            exchange_serialized(c, left_batch, chunk)
        });
        let right_batch = if left_in.is_ok() {
            right_batch
        } else {
            empty()
        };
        let right_in = comm.labeled("join.balance.right", |c| {
            exchange_serialized(c, right_batch, chunk)
        });
        incoming = Some((left_in, right_in));
    }
    // Every collective of the phase is behind this rank now.
    if let Some(e) = first_error {
        return Err(e);
    }
    let incoming = match incoming {
        Some((left_in, right_in)) => Some((left_in?, right_in?)),
        None => None,
    };

    let mut report = JoinReport {
        pairs: Vec::new(),
        filter_candidates,
        owned_refine_tests: survivors.len() as u64,
        refine_tests: kept as u64,
        exact_tests: 0,
        balance_shipped_bytes: 0,
        max_resident_allocs: 0,
        breakdown: PhaseBreakdown::default(),
    };
    let pairs = &mut report.pairs;
    let approx = &mut ApproxTable::default();
    report.exact_tests = refine(comm, approx, &left, &right, &survivors[..kept], pairs);
    if let Some(((left_in, left_stats), (right_in, right_stats))) = incoming {
        report.balance_shipped_bytes = left_stats.bytes_sent + right_stats.bytes_sent;
        let left_in = Side::new(&left_in)?;
        let right_in = Side::new(&right_in)?;
        let (received, _) = filter(comm, sd, &left_in, &right_in);
        report.exact_tests += refine(comm, approx, &left_in, &right_in, &received, pairs);
        report.refine_tests += received.len() as u64;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvio_core::decomp;
    use mvio_geom::wkt;
    use mvio_msim::{Topology, World, WorldConfig};
    use mvio_pfs::FsConfig;

    /// Builds two tiny layers with a known exact join answer.
    fn build_layers(fs: &Arc<SimFs>) {
        // Left: 4 unit squares labelled L0..L3 at x = 0, 10, 20, 30.
        let left = fs.create("left.wkt", None).unwrap();
        let mut text = String::new();
        for i in 0..4 {
            let x = i as f64 * 10.0;
            text.push_str(&format!(
                "POLYGON (({x} 0, {} 0, {} 1, {x} 1, {x} 0))\tL{i}\n",
                x + 1.0,
                x + 1.0
            ));
        }
        left.append(text.as_bytes());
        // Right: squares overlapping L1 and L3 only, plus one far away.
        let right = fs.create("right.wkt", None).unwrap();
        let mut text = String::new();
        text.push_str("POLYGON ((10.5 0.5, 11.5 0.5, 11.5 1.5, 10.5 1.5, 10.5 0.5))\tR_a\n");
        text.push_str("POLYGON ((30.2 0.2, 30.8 0.2, 30.8 0.8, 30.2 0.8, 30.2 0.2))\tR_b\n");
        text.push_str("POLYGON ((90 90, 91 90, 91 91, 90 91, 90 90))\tR_far\n");
        right.append(text.as_bytes());
    }

    fn expected() -> Vec<(String, String)> {
        vec![
            ("L1".to_string(), "R_a".to_string()),
            ("L3".to_string(), "R_b".to_string()),
        ]
    }

    fn run_join(topo: Topology, opts: JoinOptions) -> (Vec<(String, String)>, PhaseBreakdown) {
        let fs = SimFs::new(FsConfig::gpfs_roger());
        build_layers(&fs);
        // Tiny test files: keep the block comfortably above one record so
        // the equal split never lands inside a record with many ranks.
        let mut opts = opts;
        opts.read.block_size = Some(512);
        let out = World::run(WorldConfig::new(topo), move |comm| {
            spatial_join(comm, &fs, "left.wkt", "right.wkt", &opts).unwrap()
        });
        let mut pairs: Vec<(String, String)> = out.iter().flat_map(|r| r.pairs.clone()).collect();
        pairs.sort();
        (pairs, out[0].breakdown)
    }

    #[test]
    fn join_finds_exact_pairs_single_rank() {
        let (pairs, b) = run_join(Topology::single_node(1), JoinOptions::default());
        assert_eq!(pairs, expected());
        assert!(b.total > 0.0);
    }

    #[test]
    fn join_is_identical_across_rank_counts() {
        let (p1, _) = run_join(Topology::single_node(1), JoinOptions::default());
        let (p4, _) = run_join(Topology::new(2, 2), JoinOptions::default());
        let (p6, _) = run_join(Topology::new(3, 2), JoinOptions::default());
        assert_eq!(p1, p4);
        assert_eq!(p1, p6);
    }

    #[test]
    fn join_is_identical_across_grid_sizes_no_duplicates() {
        // Finer grids replicate more; dedup must keep results exact.
        for cells in [1u32, 2, 8, 32] {
            let opts = JoinOptions {
                grid: GridSpec::square(cells),
                ..Default::default()
            };
            let (pairs, _) = run_join(Topology::new(2, 2), opts);
            assert_eq!(pairs, expected(), "grid {cells}x{cells}");
        }
    }

    #[test]
    fn join_with_block_map() {
        let opts = JoinOptions {
            decomp: DecompPolicy::Uniform(mvio_core::grid::CellMap::Block),
            grid: GridSpec::square(8),
            ..Default::default()
        };
        let (pairs, _) = run_join(Topology::new(2, 2), opts);
        assert_eq!(pairs, expected());
    }

    #[test]
    fn join_answer_is_identical_for_every_chunk_policy() {
        // Finite chunks pipeline the exchange in rounds, but each
        // layer's batch is reassembled in source order before refine —
        // so the per-rank output must be identical *unsorted*, not just
        // as a set, to the blocking configuration.
        let run_raw = |chunk: ExchangeChunk| {
            let fs = SimFs::new(FsConfig::gpfs_roger());
            build_layers(&fs);
            let mut opts = JoinOptions {
                chunk,
                grid: GridSpec::square(8),
                ..Default::default()
            };
            opts.read.block_size = Some(512);
            World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
                let r = spatial_join(comm, &fs, "left.wkt", "right.wkt", &opts).unwrap();
                // Received records stay borrowed frames, and refine reads
                // them in place: no geometry is ever built.
                assert_eq!(r.max_resident_allocs, 0);
                (r.pairs, r.filter_candidates, r.refine_tests)
            })
        };
        let blocking = run_raw(ExchangeChunk::Unlimited);
        for chunk in [ExchangeChunk::Bytes(64), ExchangeChunk::Bytes(4096)] {
            assert_eq!(run_raw(chunk), blocking, "{chunk:?}");
        }
        let mut all: Vec<(String, String)> = blocking.into_iter().flat_map(|r| r.0).collect();
        all.sort();
        assert_eq!(all, expected());
    }

    #[test]
    fn join_answer_is_identical_under_every_decomposition_policy() {
        for policy in [
            DecompPolicy::Uniform(mvio_core::grid::CellMap::RoundRobin),
            DecompPolicy::Hilbert,
            DecompPolicy::adaptive(),
        ] {
            let opts = JoinOptions {
                decomp: policy,
                grid: GridSpec::square(8),
                ..Default::default()
            };
            let (pairs, _) = run_join(Topology::new(2, 2), opts);
            assert_eq!(pairs, expected(), "{policy:?}");
        }
    }

    #[test]
    fn snapshot_join_matches_the_text_join() {
        use mvio_core::snapshot::SnapshotWriteOptions;
        // Reference answer from the text path.
        let (expect_pairs, _) = run_join(Topology::new(2, 2), JoinOptions::default());
        assert_eq!(expect_pairs, expected());

        // Persist both layers as snapshots from a single-rank world
        // (every pair is owned by rank 0 there), sharing one
        // decomposition so the layers tile the same grid.
        let fs = SimFs::new(FsConfig::gpfs_roger());
        build_layers(&fs);
        {
            let fs = Arc::clone(&fs);
            World::run(WorldConfig::new(Topology::single_node(1)), move |comm| {
                let ingested = ingest_layers(
                    comm,
                    &fs,
                    &["left.wkt", "right.wkt"],
                    &ReadOptions::default().with_block_size(512),
                    &WktLineParser,
                    &DecompConfig::uniform(GridSpec::square(8)),
                    &PipelineOptions::default(),
                    ExchangeChunk::Unlimited,
                )
                .unwrap();
                let sd = &ingested.decomp;
                for (path, layer) in ["left.snap", "right.snap"].iter().zip(&ingested.layers) {
                    let opts = SnapshotWriteOptions::default();
                    snapshot::write_partitioned(comm, &fs, path, layer.owned.frames(), sd, &opts)
                        .unwrap();
                }
            });
        }

        // Join straight off the snapshots, at several world sizes and
        // rebuild policies: the answer must match the text join exactly.
        for policy in [
            DecompPolicy::Uniform(mvio_core::grid::CellMap::RoundRobin),
            DecompPolicy::Hilbert,
        ] {
            for topo in [Topology::single_node(1), Topology::new(2, 2)] {
                let fs = Arc::clone(&fs);
                let out = World::run(WorldConfig::new(topo), move |comm| {
                    let opts = SnapshotJoinOptions {
                        decomp: policy,
                        ..Default::default()
                    };
                    spatial_join_snapshots(comm, &fs, "left.snap", "right.snap", &opts).unwrap()
                });
                let mut pairs: Vec<(String, String)> =
                    out.iter().flat_map(|r| r.pairs.clone()).collect();
                pairs.sort();
                assert_eq!(pairs, expected(), "{policy:?} {topo:?}");
                assert!(out[0].breakdown.total > 0.0);
            }
        }

        // Adaptive cannot be rebuilt from a snapshot: typed rejection.
        let out = World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
            let opts = SnapshotJoinOptions {
                decomp: DecompPolicy::adaptive(),
                ..Default::default()
            };
            matches!(
                spatial_join_snapshots(comm, &fs, "left.snap", "right.snap", &opts),
                Err(mvio_core::CoreError::InvalidOptions(_))
            )
        });
        assert!(out.iter().all(|&ok| ok));
    }

    #[test]
    fn breakdown_phases_are_populated() {
        let (_, b) = run_join(Topology::new(2, 2), JoinOptions::default());
        assert!(b.partition > 0.0, "partition {:?}", b);
        assert!(b.communication > 0.0);
        assert!(b.compute >= 0.0);
        assert!(b.total > 0.0);
        // Max-over-ranks phases can exceed the max total, but each phase
        // alone cannot.
        assert!(b.partition <= b.total + 1e-9);
    }

    #[test]
    fn self_join_reports_every_overlap_once() {
        let fs = SimFs::new(FsConfig::gpfs_roger());
        // A layer of two overlapping squares, self-joined.
        let layer = fs.create("layer.wkt", None).unwrap();
        layer.append(
            "POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))\tA\n\
             POLYGON ((1 1, 3 1, 3 3, 1 3, 1 1))\tB\n"
                .as_bytes(),
        );
        let out = World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
            let opts = JoinOptions {
                grid: GridSpec::square(4),
                ..Default::default()
            };
            spatial_join(comm, &fs, "layer.wkt", "layer.wkt", &opts).unwrap()
        });
        let mut pairs: Vec<(String, String)> = out.iter().flat_map(|r| r.pairs.clone()).collect();
        pairs.sort();
        // A∩A, A∩B, B∩A, B∩B — each exactly once.
        assert_eq!(
            pairs,
            vec![
                ("A".into(), "A".into()),
                ("A".into(), "B".into()),
                ("B".into(), "A".into()),
                ("B".into(), "B".into()),
            ]
        );
    }

    /// A store landed from one round holding `(cell, name, MBR)` records,
    /// each geometry its rectangle, in the given order.
    fn landed(comm: &mut Comm, records: &[(u32, &str, Rect)]) -> ResidentStore {
        let mut buf = Vec::new();
        for &(cell, name, r) in records {
            let line = rect_wkt(name, &r, 1);
            let (text, _) = line.split_once('\t').unwrap();
            let feature = mvio_core::Feature::with_userdata(wkt::parse(text).unwrap(), name);
            mvio_core::exchange::serialize_record(cell, &feature, &mut Vec::new(), &mut buf)
                .unwrap();
        }
        let mut store = ResidentStore::new();
        store.append_round(comm, &[buf]).unwrap();
        store
    }

    #[test]
    fn filter_rejects_by_mbr_then_by_reference_cell() {
        // 2 x 2 cells of side 2 over [0, 4]², all on one rank. L1 and R1
        // straddle cells 0 and 3 and have a replica in each.
        let grid =
            mvio_core::grid::UniformGrid::new(Rect::new(0.0, 0.0, 4.0, 4.0), GridSpec::square(2));
        let sd =
            Decomposition::new(grid, DecompPolicy::Uniform(CellMap::RoundRobin), None, 1).unwrap();
        let square = |lo: f64, hi: f64| Rect::new(lo, lo, hi, hi);
        let l1 = square(1.5, 2.5);
        let r1 = square(1.8, 3.0);
        let left = [
            (0, "L0", square(0.0, 1.0)),
            (0, "L1", l1),
            (3, "L1", l1),
            (0, "L2", Rect::new(0.0, 1.6, 0.5, 1.9)),
        ];
        let right = [
            // Overlaps L1 at (1.8, 1.8), which cell 0 claims and cell 3
            // does not: kept once, from cell 0.
            (0, "R1", r1),
            (3, "R1", r1),
            // In cell 0, its MBR disjoint from every left one: dropped.
            (0, "R2", Rect::new(1.2, 0.1, 1.4, 0.3)),
            // Overlaps L0 inside cell 0: kept, after R1's pair.
            (0, "R0", square(0.5, 1.2)),
        ];
        let out = World::run(WorldConfig::new(Topology::single_node(1)), move |comm| {
            let (left, right) = (landed(comm, &left), landed(comm, &right));
            let (left, right) = (Side::new(&left).unwrap(), Side::new(&right).unwrap());
            filter(comm, &sd, &left, &right)
        });
        // Survivors in probe order, as (left slot, right slot): the
        // reference-cell rule drops the replica pair of cell 3, which the
        // R-tree still counted as a candidate.
        assert_eq!(out[0], (vec![(1, 0), (0, 3)], 3));
    }

    /// Per-rank loads after applying `transfers` to `loads`.
    fn apply(loads: &[u64], transfers: &[Transfer]) -> Vec<u64> {
        let mut after = loads.to_vec();
        for t in transfers {
            after[t.from] -= t.load;
            after[t.to] += t.load;
        }
        after
    }

    /// One millisecond of predicted refine, the plan's unit being 1 ns.
    const MS: u64 = 1_000_000;

    #[test]
    fn plan_moves_surplus_to_deficit_and_caps_every_rank_at_the_target() {
        let cases: [&[u64]; 5] = [
            &[5000, 0, 0, 0],
            &[10, 4000, 20, 900, 3000, 0, 0, 70],
            &[1000, 1000, 1000, 5000],
            &[0, 0, 0, 0, 0, 0, 0, 9001],
            &[400, 1, 1, 1],
        ];
        for case in cases {
            let loads: Vec<u64> = case.iter().map(|ms| ms * MS).collect();
            let transfers = plan(&loads);
            assert!(!transfers.is_empty(), "{loads:?}");
            assert_eq!(transfers, plan(&loads), "plan must be deterministic");
            let total: u64 = loads.iter().sum();
            let target = total.div_ceil(loads.len() as u64);
            for t in &transfers {
                assert!(t.load > 0);
                assert!(loads[t.from] > target, "{t:?} sender is not a surplus rank");
                assert!(loads[t.to] < target, "{t:?} receiver is not a deficit rank");
            }
            let after = apply(&loads, &transfers);
            assert_eq!(after.iter().sum::<u64>(), total, "sent != received");
            assert!(after.iter().all(|&l| l <= target), "{loads:?} -> {after:?}");
            // Every surplus rank is cut down to exactly the target.
            for (rank, &l) in loads.iter().enumerate() {
                if l > target {
                    assert_eq!(after[rank], target);
                }
            }
        }
    }

    #[test]
    fn plan_is_empty_below_the_threshold_and_in_a_single_rank_world() {
        assert!(plan(&[]).is_empty());
        assert!(plan(&[123_456 * MS]).is_empty());
        assert!(plan(&[0, 0, 0]).is_empty());
        assert!(plan(&[200 * MS, 207 * MS, 190 * MS, 201 * MS]).is_empty());
        // target = 2000 ms / 4 = 500 ms: a surplus one nanosecond short of
        // the threshold skips, the threshold itself balances.
        assert_eq!(BALANCE_MIN_SURPLUS_NS, 10 * MS);
        assert!(plan(&[510 * MS - 1, 490 * MS + 1, 500 * MS, 500 * MS]).is_empty());
        assert!(!plan(&[510 * MS, 490 * MS, 500 * MS, 500 * MS]).is_empty());
    }

    /// A layer pair whose refine work sits in one grid cell: an 8 x 8
    /// lattice of unit squares joined with `rights` small squares that
    /// each overlap one to four of them, plus one sparse pair per other
    /// cell of a 4 x 4 grid over [0, 40]². Every right square lies inside
    /// one cell. Axis-aligned squares, so MBR overlap is exact.
    fn skewed_layers(rights: usize) -> (Vec<(String, Rect)>, Vec<(String, Rect)>) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut left = Vec::new();
        let mut right = Vec::new();
        for i in 0..8 {
            for j in 0..8 {
                let (x, y) = (1.0 + i as f64, 1.0 + j as f64);
                left.push((format!("L{i}_{j}"), Rect::new(x, y, x + 1.0, y + 1.0)));
            }
        }
        for k in 0..rights {
            let x = rng.gen_range(1.0..8.4);
            let y = rng.gen_range(1.0..8.4);
            right.push((format!("R{k}"), Rect::new(x, y, x + 0.6, y + 0.6)));
        }
        for cx in 0..4 {
            for cy in 0..4 {
                if (cx, cy) != (0, 0) {
                    let (x, y) = (cx as f64 * 10.0 + 4.0, cy as f64 * 10.0 + 4.0);
                    left.push((format!("Lbg{cx}_{cy}"), Rect::new(x, y, x + 2.0, y + 2.0)));
                    right.push((
                        format!("Rbg{cx}_{cy}"),
                        Rect::new(x + 1.0, y + 1.0, x + 1.5, y + 1.5),
                    ));
                }
            }
        }
        // Pin the global MBR to [0, 40]².
        left.push(("Lmin".into(), Rect::new(0.0, 0.0, 0.5, 0.5)));
        left.push(("Lmax".into(), Rect::new(39.5, 39.5, 40.0, 40.0)));
        (left, right)
    }

    /// One WKT record for the rectangle `r`, each edge drawn with
    /// `per_edge` segments: the same point set for any `per_edge`, but
    /// `4 * per_edge + 1` vertices for the exact test to walk.
    fn rect_wkt(name: &str, r: &Rect, per_edge: u32) -> String {
        let corners = [
            (r.min_x, r.min_y),
            (r.max_x, r.min_y),
            (r.max_x, r.max_y),
            (r.min_x, r.max_y),
            (r.min_x, r.min_y),
        ];
        let mut ring = Vec::new();
        for edge in corners.windows(2) {
            let ((x0, y0), (x1, y1)) = (edge[0], edge[1]);
            for i in 0..per_edge {
                let t = i as f64 / per_edge as f64;
                ring.push(format!("{} {}", x0 + (x1 - x0) * t, y0 + (y1 - y0) * t));
            }
        }
        ring.push(format!("{} {}", r.min_x, r.min_y));
        format!("POLYGON (({}))\t{name}\n", ring.join(", "))
    }

    fn rect_layer_wkt(layer: &[(String, Rect)]) -> String {
        layer.iter().map(|(name, r)| rect_wkt(name, r, 1)).collect()
    }

    fn brute_force(left: &[(String, Rect)], right: &[(String, Rect)]) -> Vec<(String, String)> {
        let mut expect = Vec::new();
        for (ln, lr) in left {
            for (rn, rr) in right {
                if lr.intersects(rr) {
                    expect.push((ln.clone(), rn.clone()));
                }
            }
        }
        expect.sort();
        expect
    }

    fn join_rect_layers(
        topo: Topology,
        opts: JoinOptions,
        left: &[(String, Rect)],
        right: &[(String, Rect)],
    ) -> Vec<JoinReport> {
        join_wkt(topo, opts, &rect_layer_wkt(left), &rect_layer_wkt(right))
    }

    fn join_wkt(topo: Topology, mut opts: JoinOptions, left: &str, right: &str) -> Vec<JoinReport> {
        let fs = SimFs::new(FsConfig::gpfs_roger());
        fs.create("l.wkt", None).unwrap().append(left.as_bytes());
        fs.create("r.wkt", None).unwrap().append(right.as_bytes());
        // Small blocks so every rank reads a share, but above one record.
        let longest = left.lines().chain(right.lines()).map(str::len).max();
        opts.read.block_size = Some(2048.max(2 * longest.unwrap_or(0) as u64));
        World::run(WorldConfig::new(topo), move |comm| {
            spatial_join(comm, &fs, "l.wkt", "r.wkt", &opts).unwrap()
        })
    }

    fn sorted_pairs(reports: &[JoinReport]) -> Vec<(String, String)> {
        let mut pairs: Vec<(String, String)> =
            reports.iter().flat_map(|r| r.pairs.clone()).collect();
        pairs.sort();
        pairs
    }

    /// 4 x 4 cells under the round-robin map: what [`skewed_layers`] is
    /// laid out for.
    fn skewed_opts() -> JoinOptions {
        JoinOptions {
            grid: GridSpec::square(4),
            decomp: DecompPolicy::Uniform(CellMap::RoundRobin),
            ..Default::default()
        }
    }

    #[test]
    fn skewed_join_is_balanced_after_the_filter() {
        let (left, right) = skewed_layers(900);
        let expect = brute_force(&left, &right);
        for topo in [Topology::new(2, 2), Topology::new(4, 4)] {
            let out = join_rect_layers(topo, skewed_opts(), &left, &right);
            assert_eq!(sorted_pairs(&out), expect, "{topo:?}");

            // Balancing moves tests; it never adds or drops one.
            let owned: Vec<u64> = out.iter().map(|r| r.owned_refine_tests).collect();
            let executed: Vec<u64> = out.iter().map(|r| r.refine_tests).collect();
            assert_eq!(owned.iter().sum::<u64>(), executed.iter().sum::<u64>());
            // Squares: every test is a result pair.
            assert_eq!(executed.iter().sum::<u64>(), expect.len() as u64);
            // The hot cell's owner shipped, and only it.
            assert!(decomp::imbalance_ratio(&owned) > 2.0, "{owned:?}");
            assert!(out[0].balance_shipped_bytes > 0);
            assert!(out[1..].iter().all(|r| r.balance_shipped_bytes == 0));
            assert!(
                decomp::imbalance_ratio(&executed) <= 1.1,
                "{topo:?}: {executed:?}"
            );
            // The filter counts own cells only: its sum is the input's.
            let candidates: u64 = out.iter().map(|r| r.filter_candidates).sum();
            assert_eq!(candidates, expect.len() as u64);

            // No right record's tests are split: each right square lies
            // in one cell, so all its pairs come from one rank.
            let mut home: std::collections::BTreeMap<&str, usize> = Default::default();
            for (rank, report) in out.iter().enumerate() {
                for (_, r) in &report.pairs {
                    assert_eq!(
                        *home.entry(r).or_insert(rank),
                        rank,
                        "{r} split across ranks"
                    );
                }
            }
        }
    }

    #[test]
    fn balance_weighs_tests_by_cost_not_by_count() {
        // One left square per cell of the 4 x 4 grid with 30 small right
        // squares inside it: every cell holds 30 tests, every rank 120.
        // Only the squares of cell 0 are drawn with 100 segments per edge,
        // so its tests cost ~1.1 ms each against 0.15 ms elsewhere: rank 0
        // owns no more tests than anyone, and more than twice the work.
        let (mut left, mut right) = (Vec::new(), Vec::new());
        let (mut left_wkt, mut right_wkt) = (String::new(), String::new());
        for cx in 0..4 {
            for cy in 0..4 {
                let per_edge = if (cx, cy) == (0, 0) { 100 } else { 1 };
                let (x, y) = (cx as f64 * 10.0 + 1.0, cy as f64 * 10.0 + 1.0);
                let l = (format!("L{cx}_{cy}"), Rect::new(x, y, x + 8.0, y + 8.0));
                left_wkt.push_str(&rect_wkt(&l.0, &l.1, per_edge));
                left.push(l);
                for k in 0..30 {
                    let (rx, ry) = (x + 1.0 + (k % 6) as f64, y + 1.0 + (k / 6) as f64);
                    let r = (
                        format!("R{cx}_{cy}_{k}"),
                        Rect::new(rx, ry, rx + 0.5, ry + 0.5),
                    );
                    right_wkt.push_str(&rect_wkt(&r.0, &r.1, per_edge));
                    right.push(r);
                }
            }
        }
        // Pin the global MBR to [0, 40]².
        for (name, r) in [
            ("Lmin", Rect::new(0.0, 0.0, 0.5, 0.5)),
            ("Lmax", Rect::new(39.5, 39.5, 40.0, 40.0)),
        ] {
            left_wkt.push_str(&rect_wkt(name, &r, 1));
            left.push((name.into(), r));
        }
        let out = join_wkt(Topology::new(2, 2), skewed_opts(), &left_wkt, &right_wkt);
        assert_eq!(sorted_pairs(&out), brute_force(&left, &right));

        let owned: Vec<u64> = out.iter().map(|r| r.owned_refine_tests).collect();
        let executed: Vec<u64> = out.iter().map(|r| r.refine_tests).collect();
        assert_eq!(owned, [120; 4], "the grid assigns equal counts");
        assert_eq!(executed.iter().sum::<u64>(), 480);
        // Rank 0 gave tests away although it had no more than its peers.
        assert!(out[0].balance_shipped_bytes > 0);
        assert!(out[1..].iter().all(|r| r.balance_shipped_bytes == 0));
        assert!(executed[0] < 120 && executed[1..].iter().all(|&n| n >= 120));
    }

    /// One eight-pointed star (outer radius `r`, inner `r / 2`) around
    /// `(x, y)`, as a WKT record.
    fn star_wkt(name: &str, (x, y): (f64, f64), r: f64) -> String {
        let mut ring: Vec<String> = (0..16)
            .map(|i| {
                let (a, d) = (i as f64 * std::f64::consts::PI / 8.0, [r, r / 2.0][i % 2]);
                format!("{} {}", x + d * a.cos(), y + d * a.sin())
            })
            .collect();
        ring.push(ring[0].clone());
        format!("POLYGON (({}))\t{name}\n", ring.join(", "))
    }

    /// The exact answer of a WKT layer pair, and the number of pairs
    /// whose MBRs overlap — what the filter hands to refine.
    fn brute_force_wkt(left: &str, right: &str) -> (Vec<(String, String)>, u64) {
        let parse = |text: &str| -> Vec<(String, mvio_geom::Geometry)> {
            text.lines()
                .map(|l| {
                    let (g, name) = l.split_once('\t').unwrap();
                    (name.to_string(), wkt::parse(g).unwrap())
                })
                .collect()
        };
        let (left, right) = (parse(left), parse(right));
        let (mut pairs, mut overlapping) = (Vec::new(), 0);
        for (ln, lg) in &left {
            for (rn, rg) in &right {
                overlapping += u64::from(lg.envelope().intersects(&rg.envelope()));
                if algo::intersects(lg, rg) {
                    pairs.push((ln.clone(), rn.clone()));
                }
            }
        }
        pairs.sort();
        (pairs, overlapping)
    }

    #[test]
    fn approximations_decide_most_pairs_and_the_answer_stays_exact() {
        // A 4 x 4 lattice of stars in cell 0 of a 4 x 4 grid over
        // [0, 40]², each paired with short lines of six kinds, plus one
        // star and one deep line in every other cell: the hot cell's owner
        // ships refine work at 4 and 16 ranks.
        let r = 0.9;
        let (mut left, mut right) = (String::new(), String::new());
        let line = |name: String, (x, y): (f64, f64), pts: &[(f64, f64)]| {
            let pts: Vec<String> = pts
                .iter()
                .map(|(dx, dy)| format!("{} {}", x + dx * r, y + dy * r))
                .collect();
            format!("LINESTRING ({})\t{name}\n", pts.join(", "))
        };
        let polar = |d: f64, deg: f64| {
            let a = deg.to_radians();
            (d * a.cos(), d * a.sin())
        };
        for i in 0..4 {
            for j in 0..4 {
                let c = (1.5 + 2.3 * i as f64, 1.5 + 2.3 * j as f64);
                left.push_str(&star_wkt(&format!("S{i}_{j}"), c, r));
                // Deep inside: a right vertex located inside proves the hit.
                right.push_str(&line(format!("D{i}_{j}"), c, &[(-0.1, 0.05), (0.1, -0.05)]));
                right.push_str(&line(format!("E{i}_{j}"), c, &[(0.2, -0.3), (0.05, 0.25)]));
                // In each corner of the star's MBR, beyond its hull: the
                // hull proves the miss.
                for (k, (sx, sy)) in [(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)]
                    .into_iter()
                    .enumerate()
                {
                    let pts = [(0.8 * sx, 0.95 * sy), (0.95 * sx, 0.8 * sy)];
                    right.push_str(&line(format!("C{i}_{j}_{k}"), c, &pts));
                }
                // Into a spike from outside: its end inside the spike
                // proves the hit.
                right.push_str(&line(format!("X{i}_{j}"), c, &[(0.8, -0.05), (1.2, 0.05)]));
                // Straddlers the hull and vertex steps leave open:
                // across a spike with both ends in the notches beside it (a
                // hit), and through a notch inside the hull (a miss). The
                // raster settles both: Y crosses interior cells of the
                // spike, N meets only exterior cells of the notch.
                right.push_str(&line(format!("Y{i}_{j}"), c, &[(0.7, -0.15), (0.7, 0.15)]));
                right.push_str(&line(
                    format!("N{i}_{j}"),
                    c,
                    &[polar(0.75, 20.0), polar(0.75, 25.0)],
                ));
                // Across a spike near its tip, where the spike is narrower
                // than a raster cell, so every cell it meets there is
                // boundary: a hit only the exact test can settle.
                right.push_str(&line(
                    format!("T{i}_{j}"),
                    c,
                    &[(0.95, -0.05), (0.95, 0.05)],
                ));
            }
        }
        for cx in 0..4 {
            for cy in 0..4 {
                if (cx, cy) != (0, 0) {
                    let c = (cx as f64 * 10.0 + 5.0, cy as f64 * 10.0 + 5.0);
                    left.push_str(&star_wkt(&format!("B{cx}_{cy}"), c, r));
                    right.push_str(&line(format!("BD{cx}_{cy}"), c, &[(-0.1, 0.0), (0.1, 0.1)]));
                }
            }
        }
        // Pin the global MBR to [0, 40]².
        left.push_str(&rect_wkt("Lmin", &Rect::new(0.0, 0.0, 0.5, 0.5), 1));
        left.push_str(&rect_wkt("Lmax", &Rect::new(39.5, 39.5, 40.0, 40.0), 1));
        let (expect, overlapping) = brute_force_wkt(&left, &right);
        // 16 x (2 deep + 3 spike) + 15 background hits.
        assert_eq!(expect.len(), 95);

        let refine_fixed = CostModel::calibrated().refine_fixed;
        for topo in [
            Topology::single_node(1),
            Topology::new(2, 2),
            Topology::new(4, 4),
        ] {
            let out = join_wkt(topo, skewed_opts(), &left, &right);
            assert_eq!(sorted_pairs(&out), expect, "{topo:?}");
            let sum = |f: fn(&JoinReport) -> u64| out.iter().map(f).sum::<u64>();
            // Every survivor is still refined once, as without the
            // approximation step...
            assert_eq!(sum(|r| r.refine_tests), overlapping, "{topo:?}");
            assert_eq!(sum(|r| r.owned_refine_tests), overlapping, "{topo:?}");
            // ...but only the tip straddlers, T, reach the exact test.
            assert_eq!(sum(|r| r.exact_tests), 16, "{topo:?}");
            if topo.ranks() > 1 {
                assert!(out[0].balance_shipped_bytes > 0, "{topo:?}");
            }
            // The whole join phase costs less than the exact tests the
            // approximation step skipped would have cost on their own.
            let decided = overlapping - 16;
            let compute = out[0].breakdown.compute;
            assert!(
                compute < refine_fixed * decided as f64,
                "{topo:?}: {compute} s"
            );
        }
    }

    #[test]
    fn near_uniform_join_ships_nothing() {
        // One sparse pair per cell: nothing to balance, so every rank
        // refines exactly its own survivors and ships no byte.
        let (left, right) = skewed_layers(0);
        let out = join_rect_layers(Topology::new(2, 2), skewed_opts(), &left, &right);
        assert_eq!(sorted_pairs(&out), brute_force(&left, &right));
        for r in &out {
            assert_eq!(r.balance_shipped_bytes, 0);
            assert_eq!(r.refine_tests, r.owned_refine_tests);
        }
    }

    #[test]
    fn join_against_brute_force_on_random_data() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let (mut left, mut right) = (Vec::new(), Vec::new());
        for i in 0..40 {
            let x = rng.gen_range(0.0..50.0);
            let y = rng.gen_range(0.0..50.0);
            let w = rng.gen_range(0.5..4.0);
            let h = rng.gen_range(0.5..4.0);
            let r = Rect::new(x, y, x + w, y + h);
            if i % 2 == 0 {
                left.push((format!("L{i}"), r));
            } else {
                right.push((format!("R{i}"), r));
            }
        }
        let opts = JoinOptions {
            grid: GridSpec::square(6),
            ..Default::default()
        };
        let out = join_rect_layers(Topology::new(2, 2), opts, &left, &right);
        assert_eq!(sorted_pairs(&out), brute_force(&left, &right));
        let _ = wkt::parse("POINT (0 0)").unwrap(); // keep wkt import used
    }
}
