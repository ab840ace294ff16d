//! Online rebalancing for mutable partitions (ROADMAP item 2): streaming
//! inserts/deletes into an already-ingested partition, and cell-diff
//! migration when the resident load imbalance crosses a threshold.
//!
//! The paper's pipeline is write-once — ingest, decompose, join — but a
//! resident deployment keeps serving while the data drifts. This module
//! adds the three mutability primitives the serving layer composes:
//!
//! * [`apply_updates`] routes an [`Update`] batch through the staged
//!   chunked [`ExchangePlan`] to the ranks owning the overlapping cells
//!   (exactly the ingest pipeline's routing rule), applying received
//!   inserts and deletes to the local replica set as rounds complete;
//! * [`rebalance`] reads the per-cell feature histogram off the resident
//!   replicas — the same count-per-cell signal the adaptive
//!   [`DecompPolicy`] bisects at ingest time — with one element-wise
//!   allreduce, and when the max/mean per-rank load has reached its
//!   threshold re-bisects it over the same cell tiling;
//! * `migrate_cells` then ships **only the replicas of cells whose owner
//!   changed** between the old and new `cell_to_rank` maps — a diff, not
//!   a full re-shuffle (generalizing the snapshot any-world re-route).
//!
//! The cell tiling itself never changes — rebalancing reassigns whole
//! cells to ranks, so resident `(cell, feature)` pairs, reference-cell
//! claims and the snapshot cell-id space all stay valid across a
//! rebalance. Everything is deterministic: all ranks derive the same
//! histogram (allreduced), hence the same decision, the same new
//! decomposition, and the same moved-cell diff.
//!
//! Selected by [`RebalancePolicy`] (off by default); a resident engine
//! also takes the step once, at threshold 1.0, when it is built.

use crate::decomp::{
    imbalance_ratio, DecompPolicy, Decomposition, SpatialDecomposition, SumCounts, MAX_TABLE_CELLS,
};
use crate::exchange::{
    serialize_record, ExchangeChunk, ExchangePlan, ExchangeStats, SerializedBatch,
};
use crate::framework::is_reference_replica;
use crate::resident::ResidentStore;
use crate::{CoreError, Feature, Result};
use mvio_msim::{Comm, Work};

/// Online-rebalance sizing policy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RebalancePolicy {
    /// Never rebalance (updates still apply; the default).
    #[default]
    Off,
    /// Rebalance when the measured imbalance ratio reaches this value.
    Threshold(f64),
}

impl RebalancePolicy {
    /// The imbalance threshold this policy resolves to (`None` =
    /// rebalancing off; thresholds clamp to ≥ 1).
    pub fn resolve(self) -> Option<f64> {
        match self {
            RebalancePolicy::Off => None,
            RebalancePolicy::Threshold(t) => Some(t.max(1.0)),
        }
    }
}

/// One streaming mutation against a resident partition.
#[derive(Debug, Clone, PartialEq)]
pub enum Update {
    /// Add a feature: replicas are installed in every overlapping cell,
    /// exactly as ingest would have placed them.
    Insert(Feature),
    /// Remove one feature matching this geometry + userdata exactly
    /// (all of its cell replicas). Deleting an absent feature is a
    /// no-op, mirroring the fresh-ingest semantics of a dataset that
    /// never contained it.
    Delete(Feature),
}

/// Per-rank counters for one [`apply_updates`] call.
#[derive(Debug, Clone, Default)]
pub struct UpdateStats {
    /// Updates this rank submitted in the batch.
    pub submitted: u64,
    /// Replicas installed locally (received inserts, cell-replicated).
    pub inserted_replicas: u64,
    /// Replicas removed locally (received deletes that matched).
    pub deleted_replicas: u64,
    /// Received delete records that matched no resident replica.
    pub missing_deletes: u64,
    /// Exchange counters for the insert trip.
    pub insert_exchange: ExchangeStats,
    /// Exchange counters for the delete trip.
    pub delete_exchange: ExchangeStats,
}

/// Applies a batch of streaming updates to a resident partition.
/// Collective — every rank must call it together, each with its own
/// (possibly empty) batch.
///
/// Inserts and deletes are routed to the ranks owning their overlapping
/// cells over two staged [`ExchangePlan`] runs (inserts first, then
/// deletes, so a batch that inserts a feature and deletes it again
/// resolves to its absence on every rank). Received rounds are applied to
/// `store` inside the exchange sinks, overlapped with the rounds still in
/// flight, **as bytes**: a round is validated whole and then its records
/// are appended ([`ResidentStore::append_round`]) or matched and removed
/// ([`ResidentStore::delete_round`], which documents the match rule) —
/// no [`Feature`] is built on the receiving side. Nothing else is kept
/// up to date: [`rebalance`] reads the histogram off the store.
///
/// What is charged: the submitting rank pays [`Work::SerializeGeoms`] for
/// every record it encodes from its `updates` (one per overlapped cell);
/// a receiving rank pays the validation scan ([`Work::CopyBytes`]) and
/// one [`Work::MbrTests`] per record, for an insert's envelope and for a
/// delete's keyed compare.
///
/// Validation is symmetric: an insert with a non-finite/empty envelope
/// or one not intersecting the resident bounds (the fixed cell tiling
/// could only drop it silently) rejects the whole call on every rank
/// with [`CoreError::InvalidOptions`] before anything ships, and the
/// partition is left untouched world-wide. A rank that receives a corrupt
/// round returns the typed error alone, after completing every
/// collective; its store holds the rounds that arrived before and nothing
/// of the corrupt one or of those after it.
pub fn apply_updates(
    comm: &mut Comm,
    sd: &Decomposition,
    store: &mut ResidentStore,
    updates: &[Update],
    chunk: ExchangeChunk,
) -> Result<UpdateStats> {
    let p = comm.size();
    let bounds = sd.bounds();

    // Serialize both trips up front; any local failure (out-of-bounds
    // insert, oversized record) folds into one symmetric rejection.
    let mut local_err: Option<CoreError> = None;
    let mut inserts = SerializedBatch::empty(p);
    let mut deletes = SerializedBatch::empty(p);
    let mut scratch = Vec::new();
    let mut cells: Vec<u32> = Vec::new();
    let mut routed_bytes = 0u64;
    'updates: for u in updates {
        let (f, batch) = match u {
            Update::Insert(f) => {
                let env = f.geometry.envelope();
                if env.is_empty() || !env.intersects(&bounds) {
                    local_err = Some(CoreError::InvalidOptions(format!(
                        "insert outside the resident bounds {bounds:?} (envelope {env:?}) \
                         cannot be indexed by the fixed cell tiling"
                    )));
                    break 'updates;
                }
                (f, &mut inserts)
            }
            // Deletes of never-indexed features route nowhere = no-op.
            Update::Delete(f) => (f, &mut deletes),
        };
        sd.cells_for_rect(&f.geometry.envelope(), &mut cells);
        for &cell in &cells {
            let dest = sd.cell_to_rank(cell);
            if let Err(e) = serialize_record(cell, f, &mut scratch, &mut batch.bufs[dest]) {
                local_err = Some(e);
                break 'updates;
            }
            batch.records[dest] += 1;
        }
    }
    comm.charge(Work::MbrTests {
        n: updates.len() as u64,
    });
    for b in inserts.bufs.iter().chain(deletes.bufs.iter()) {
        routed_bytes += b.len() as u64;
    }
    comm.charge(Work::SerializeGeoms {
        n: inserts.records.iter().sum::<u64>() + deletes.records.iter().sum::<u64>(),
        bytes: routed_bytes,
    });

    let bad_ranks = comm.labeled("rebalance.status", |c| {
        c.allreduce_u64(u64::from(local_err.is_some()), |a, b| a + b)
    });
    if bad_ranks > 0 {
        return Err(local_err.unwrap_or_else(|| {
            CoreError::InvalidOptions(format!(
                "update batch aborted: {bad_ranks} rank(s) submitted invalid updates"
            ))
        }));
    }

    let mut stats = UpdateStats {
        submitted: updates.len() as u64,
        ..Default::default()
    };
    let plan = ExchangePlan::new(comm, chunk);

    // Trip 1: inserts land as fresh replicas.
    stats.insert_exchange = comm.labeled("rebalance.inserts", |c| {
        plan.run(c, &mut inserts.into_feed(&plan), &mut |c, bufs| {
            let records = store.append_round(c, &bufs)?.len() as u64;
            stats.inserted_replicas += records;
            Ok(records)
        })
    })?;

    // Trip 2: each delete record removes one matching resident replica.
    stats.delete_exchange = comm.labeled("rebalance.deletes", |c| {
        plan.run(c, &mut deletes.into_feed(&plan), &mut |c, bufs| {
            let out = store.delete_round(c, &bufs)?;
            stats.deleted_replicas += out.records - out.missing;
            stats.missing_deletes += out.missing;
            Ok(out.records)
        })
    })?;
    Ok(stats)
}

/// Per-rank outcome of one cell-diff migration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MigrationStats {
    /// Cells whose owner differs between the two maps (identical on
    /// every rank — both decompositions are replicated).
    pub moved_cells: u64,
    /// Replicas this rank shipped away.
    pub shipped_records: u64,
    /// Wire bytes this rank shipped away.
    pub shipped_bytes: u64,
    /// Exchange counters for the migration trip (all zero when no cell
    /// moved — the exchange is skipped entirely).
    pub exchange: ExchangeStats,
}

/// Rewires a resident partition from decomposition `from` to `to` by
/// shipping **only the replicas of cells whose owner changed** — the
/// diff of the two `cell_to_rank` maps — through the staged exchange.
/// Collective — every rank must call it together; all ranks derive the
/// identical moved-cell diff from the replicated decompositions, and
/// when the diff is empty the call returns immediately without posting
/// any collective (and without touching a byte).
///
/// Replicas travel as the records they are resident as: the sender copies
/// a moved replica's bytes into its new owner's buffer
/// ([`ResidentStore::drain_to`], charged [`Work::CopyBytes`] over the
/// shipped bytes) and the receiver validates each round and appends it
/// ([`ResidentStore::append_round`]: the validation scan plus one
/// [`Work::MbrTests`] per record) — nothing is decoded or re-encoded on
/// either side. A rank that receives a corrupt round returns the typed
/// error alone, after the exchange has completed everywhere; it keeps
/// the replicas that stayed and the rounds that arrived intact, and has
/// already given up what it shipped.
///
/// Both decompositions must tile the same cell space (same bounds, same
/// grid, same world size): the whole point of cell-granular rebalancing
/// is that `(cell, feature)` pairs survive unchanged. A mismatch is
/// rejected symmetrically with [`CoreError::InvalidOptions`].
fn migrate_cells(
    comm: &mut Comm,
    from: &Decomposition,
    to: &Decomposition,
    store: &mut ResidentStore,
    chunk: ExchangeChunk,
) -> Result<MigrationStats> {
    if from.grid_spec() != to.grid_spec()
        || from.bounds() != to.bounds()
        || from.num_ranks() != to.num_ranks()
    {
        // Symmetric: decompositions are replicated, so every rank takes
        // this branch together and nobody is stranded in a collective.
        return Err(CoreError::InvalidOptions(format!(
            "cell-diff migration needs both decompositions over the same cell space: \
             {:?}/{:?} cells, {:?} vs {:?}, {} vs {} ranks",
            from.grid_spec(),
            to.grid_spec(),
            from.bounds(),
            to.bounds(),
            from.num_ranks(),
            to.num_ranks()
        )));
    }
    let mut stats = MigrationStats::default();
    let moved: Vec<bool> = (0..from.num_cells())
        .map(|c| from.cell_to_rank(c) != to.cell_to_rank(c))
        .collect();
    stats.moved_cells = moved.iter().filter(|&&m| m).count() as u64;
    if stats.moved_cells == 0 {
        return Ok(stats);
    }

    // Split the resident set: replicas in moved cells are copied toward
    // their new owner, everything else stays put untouched.
    let mut batch = SerializedBatch::empty(comm.size());
    let new_owner = |cell: u32| moved[cell as usize].then(|| to.cell_to_rank(cell));
    stats.shipped_bytes = store.drain_to(new_owner, &mut batch);
    stats.shipped_records = batch.records.iter().sum();
    comm.charge(Work::CopyBytes {
        n: stats.shipped_bytes,
    });

    let plan = ExchangePlan::new(comm, chunk);
    stats.exchange = comm.labeled("rebalance.migrate", |c| {
        plan.run(c, &mut batch.into_feed(&plan), &mut |c, bufs| {
            Ok(store.append_round(c, &bufs)?.len() as u64)
        })
    })?;
    Ok(stats)
}

/// Per-rank outcome of one [`rebalance`] call.
#[derive(Debug, Clone, Default)]
pub struct RebalanceReport {
    /// Whether the threshold tripped and a migration ran.
    pub rebalanced: bool,
    /// Estimated max/mean per-rank load before the call (from the
    /// allreduced histogram under the old decomposition).
    pub imbalance_before: f64,
    /// Estimated imbalance under the decomposition in force after the
    /// call (equal to `imbalance_before` when nothing tripped).
    pub imbalance_after: f64,
    /// Migration counters ([`MigrationStats::default`] when nothing
    /// tripped).
    pub migration: MigrationStats,
}

/// Folds the global per-cell histogram into per-rank loads under `sd`.
fn per_rank_loads(sd: &Decomposition, hist: &[u64]) -> Vec<u64> {
    let mut loads = vec![0u64; sd.num_ranks()];
    for (cell, &n) in hist.iter().enumerate() {
        loads[sd.cell_to_rank(cell as u32)] += n;
    }
    loads
}

/// The fresh adaptive bisection of `hist` over `sd`'s cell tiling, its
/// rank labels aligned to `sd`'s owners, with its predicted max/mean —
/// or `None` when that is not lower than `before`, the imbalance under
/// `sd` (e.g. one cell holds everything): keep the current decomposition
/// rather than pay a migration for nothing. A pure function of the
/// allreduced histogram, so every rank gets the same verdict.
fn rebisect(sd: &Decomposition, hist: &[u64], before: f64) -> Result<Option<(Decomposition, f64)>> {
    // Align the fresh bisection's rank labels to the outgoing owner map
    // before diffing: balance is label-invariant, but migration cost is
    // not, and recursion-order labels would otherwise move cells whose
    // region barely changed.
    let (grid, policy) = (sd.grid().clone(), DecompPolicy::adaptive());
    let next = Decomposition::new(grid, policy, Some(hist), sd.num_ranks())?.aligned_to(sd, hist);
    let after = imbalance_ratio(&per_rank_loads(&next, hist));
    Ok((after < before).then_some((next, after)))
}

/// One rebalance step over a resident partition. Each rank counts its
/// reference replicas in `store` by cell — each feature once world-wide,
/// in its reference cell ([`is_reference_replica`]) — and one
/// element-wise allreduce makes that the global per-cell histogram. When
/// the max/mean per-rank load under `sd` has reached `threshold`, the
/// histogram is re-bisected adaptively over the same cell tiling, and
/// when that predicts a lower max/mean the cells whose owner changed
/// migrate (`migrate_cells`) and `sd` becomes the new decomposition.
/// The store comes back with the departed replicas' slots still in it;
/// compacting is the caller's reindex.
///
/// A grid past [`crate::decomp::MAX_TABLE_CELLS`] has no owner table to
/// re-bisect into: the call returns [`CoreError::InvalidOptions`] before
/// it allocates a histogram or enters a collective — on every rank,
/// since every rank holds the same `sd`.
///
/// Collective — every rank must call it together, with the same `sd` and
/// `threshold`: the decision is a pure function of the allreduced
/// histogram, so all ranks take the same branch.
pub fn rebalance(
    comm: &mut Comm,
    threshold: f64,
    sd: &mut Decomposition,
    store: &mut ResidentStore,
    chunk: ExchangeChunk,
) -> Result<RebalanceReport> {
    let cells = sd.grid().num_cells();
    if cells > MAX_TABLE_CELLS {
        let spec = sd.grid().spec();
        return Err(CoreError::InvalidOptions(format!(
            "rebalancing a {}x{} grid needs a {cells}-cell histogram, over the \
             {MAX_TABLE_CELLS}-cell cap; use a coarser grid",
            spec.cells_x, spec.cells_y
        )));
    }
    let mut counts = vec![0u64; cells as usize];
    for (cell, mbr) in store.replicas() {
        if is_reference_replica(sd, cell, mbr) {
            counts[cell as usize] += 1;
        }
    }
    let bytes = counts.len() as u64 * 8;
    let hist = comm.labeled("rebalance.histogram", |c| {
        c.allreduce(counts, bytes, &SumCounts)
    });
    let imbalance_before = imbalance_ratio(&per_rank_loads(sd, &hist));
    let mut report = RebalanceReport {
        rebalanced: false,
        imbalance_before,
        imbalance_after: imbalance_before,
        migration: MigrationStats::default(),
    };
    if imbalance_before < threshold {
        return Ok(report);
    }
    let Some((next, imbalance_after)) = rebisect(sd, &hist, imbalance_before)? else {
        return Ok(report);
    };
    report.migration = migrate_cells(comm, sd, &next, store, chunk)?;
    *sd = next;
    report.rebalanced = true;
    report.imbalance_after = imbalance_after;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{CellMap, GridSpec, UniformGrid};
    use mvio_geom::{Geometry, Point, Rect};
    use mvio_msim::{Topology, World, WorldConfig};

    fn grid(side: u32, world: f64) -> UniformGrid {
        UniformGrid::new(Rect::new(0.0, 0.0, world, world), GridSpec::square(side))
    }

    /// The `map` decomposition of `grid` for a `ranks`-rank world.
    fn uniform(grid: UniformGrid, map: CellMap, ranks: usize) -> Decomposition {
        Decomposition::new(grid, DecompPolicy::Uniform(map), None, ranks).unwrap()
    }

    fn pt(x: f64, y: f64, tag: &str) -> Feature {
        Feature::with_userdata(Geometry::Point(Point::new(x, y)), tag)
    }

    /// Replicas each rank would own if `features` were freshly ingested
    /// under `sd`.
    fn fresh_owned(sd: &Decomposition, features: &[Feature], rank: usize) -> Vec<(u32, Feature)> {
        let mut owned = Vec::new();
        for f in features {
            for cell in sd.cells_for_rect_vec(&f.geometry.envelope()) {
                if sd.cell_to_rank(cell) == rank {
                    owned.push((cell, f.clone()));
                }
            }
        }
        owned
    }

    /// [`fresh_owned`] as the store an engine would hold, landed as one
    /// received round.
    fn fresh_store(comm: &mut Comm, sd: &Decomposition, features: &[Feature]) -> ResidentStore {
        let mut wire = Vec::new();
        for (cell, f) in fresh_owned(sd, features, comm.rank()) {
            serialize_record(cell, &f, &mut Vec::new(), &mut wire).unwrap();
        }
        let mut store = ResidentStore::new();
        store.append_round(comm, &[wire]).unwrap();
        store
    }

    /// The store's live `(cell, userdata)` pairs, sorted.
    fn sorted(store: &ResidentStore) -> Vec<(u32, String)> {
        let mut v: Vec<(u32, String)> = store
            .frames()
            .map(|fr| (fr.cell, fr.userdata.to_string()))
            .collect();
        v.sort();
        v
    }

    /// The store's live records, byte for byte, in slot order.
    fn records(store: &ResidentStore) -> Vec<(u32, Vec<u8>, String)> {
        store
            .frames()
            .map(|fr| (fr.cell, fr.wkb.to_vec(), fr.userdata.to_string()))
            .collect()
    }

    #[test]
    fn policy_resolution() {
        assert_eq!(RebalancePolicy::Off.resolve(), None);
        assert_eq!(RebalancePolicy::Threshold(3.0).resolve(), Some(3.0));
        assert_eq!(
            RebalancePolicy::Threshold(0.5).resolve(),
            Some(1.0),
            "clamped"
        );
    }

    #[test]
    fn updates_converge_to_a_fresh_ingest_of_the_final_dataset() {
        let out = World::run(WorldConfig::new(Topology::single_node(4)), move |comm| {
            let sd = uniform(grid(4, 8.0), CellMap::RoundRobin, comm.size());
            let base: Vec<Feature> = vec![pt(1.0, 1.0, "a"), pt(6.5, 6.5, "b")];
            let mut owned = fresh_store(comm, &sd, &base);
            // Rank 0 inserts, rank 1 deletes; everyone participates.
            let updates: Vec<Update> = match comm.rank() {
                0 => vec![
                    Update::Insert(pt(3.2, 3.2, "c")),
                    Update::Insert(pt(6.5, 6.5, "d")),
                ],
                1 => vec![Update::Delete(pt(1.0, 1.0, "a"))],
                _ => Vec::new(),
            };
            let stats =
                apply_updates(comm, &sd, &mut owned, &updates, ExchangeChunk::Bytes(64)).unwrap();
            let want = fresh_store(
                comm,
                &sd,
                &[pt(6.5, 6.5, "b"), pt(3.2, 3.2, "c"), pt(6.5, 6.5, "d")],
            );
            assert_eq!(sorted(&owned), sorted(&want));
            assert_eq!(stats.missing_deletes, 0);
            stats.inserted_replicas + stats.deleted_replicas
        });
        // Point inserts land in exactly one cell each; the delete removed
        // one replica. 2 inserts + 1 delete = 3 applied replicas total.
        assert_eq!(out.iter().sum::<u64>(), 3);
    }

    #[test]
    fn out_of_bounds_insert_rejects_symmetrically_and_leaves_state_alone() {
        let out = World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
            let sd = uniform(grid(2, 4.0), CellMap::RoundRobin, comm.size());
            let base = vec![pt(1.0, 1.0, "a")];
            let mut owned = fresh_store(comm, &sd, &base);
            let before = records(&owned);
            // Only rank 0 submits the bad insert; both must reject.
            let updates = if comm.rank() == 0 {
                vec![Update::Insert(pt(99.0, 99.0, "far"))]
            } else {
                vec![Update::Insert(pt(2.0, 2.0, "fine"))]
            };
            let err =
                apply_updates(comm, &sd, &mut owned, &updates, ExchangeChunk::Unlimited).err();
            assert_eq!(records(&owned), before, "rejected batch must not mutate");
            matches!(err, Some(CoreError::InvalidOptions(_)))
        });
        assert_eq!(out, vec![true, true]);
    }

    #[test]
    fn deleting_an_absent_feature_is_a_counted_noop() {
        let out = World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
            let sd = uniform(grid(2, 4.0), CellMap::RoundRobin, comm.size());
            let mut owned = fresh_store(comm, &sd, &[pt(1.0, 1.0, "a")]);
            let updates = if comm.rank() == 0 {
                vec![Update::Delete(pt(1.0, 1.0, "ghost"))]
            } else {
                Vec::new()
            };
            let stats =
                apply_updates(comm, &sd, &mut owned, &updates, ExchangeChunk::Unlimited).unwrap();
            (stats.missing_deletes, owned.len())
        });
        let missing: u64 = out.iter().map(|(m, _)| m).sum();
        assert_eq!(missing, 1);
    }

    #[test]
    fn migration_with_unchanged_owner_map_moves_zero_bytes() {
        let out = World::run(WorldConfig::new(Topology::single_node(4)), move |comm| {
            let sd = uniform(grid(4, 8.0), CellMap::RoundRobin, comm.size());
            let same = uniform(grid(4, 8.0), CellMap::RoundRobin, comm.size());
            let features: Vec<Feature> = (0..12)
                .map(|i| pt(i as f64 * 0.6, 3.0, &format!("f{i}")))
                .collect();
            let mut owned = fresh_store(comm, &sd, &features);
            let before = records(&owned);
            let stats =
                migrate_cells(comm, &sd, &same, &mut owned, ExchangeChunk::Unlimited).unwrap();
            assert_eq!(records(&owned), before);
            (
                stats.moved_cells,
                stats.shipped_bytes,
                stats.exchange.bytes_sent,
                stats.exchange.rounds,
            )
        });
        for (moved, shipped, wire, rounds) in out {
            assert_eq!(moved, 0);
            assert_eq!(shipped, 0, "identical owner maps must ship nothing");
            assert_eq!(wire, 0);
            assert_eq!(rounds, 0, "no collective is posted for an empty diff");
        }
    }

    #[test]
    fn migration_rejects_mismatched_cell_spaces() {
        let out = World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
            let a = uniform(grid(4, 8.0), CellMap::RoundRobin, comm.size());
            let b = uniform(grid(2, 8.0), CellMap::RoundRobin, comm.size());
            let mut owned = ResidentStore::new();
            migrate_cells(comm, &a, &b, &mut owned, ExchangeChunk::Unlimited)
                .err()
                .map(|e| matches!(e, CoreError::InvalidOptions(_)))
        });
        assert_eq!(out, vec![Some(true), Some(true)]);
    }

    #[test]
    fn rebalance_trips_on_a_hotspot_and_migrates_only_the_diff() {
        let out = World::run(WorldConfig::new(Topology::single_node(4)), move |comm| {
            // Start balanced: one feature per cell, block map.
            let sd = uniform(grid(8, 8.0), CellMap::Block, comm.size());
            let base: Vec<Feature> = (0..64)
                .map(|c| {
                    let r = sd.cell_rect(c);
                    pt(
                        (r.min_x + r.max_x) / 2.0,
                        (r.min_y + r.max_y) / 2.0,
                        &format!("base{c}"),
                    )
                })
                .collect();
            let mut sd = sd;
            let mut owned = fresh_store(comm, &sd, &base);
            // Pour a hotspot over the bottom-left 3×3-cell patch (rank
            // 0's block rows), spread in 2D so bisection has cuts to use.
            let hotspot: Vec<Update> = (0..128)
                .map(|i| {
                    let x = 0.15 + (i % 12) as f64 * 0.24;
                    let y = 0.15 + ((i / 12) % 12) as f64 * 0.24;
                    Update::Insert(pt(x, y, &format!("h{i}")))
                })
                .collect();
            let mine = if comm.rank() == 0 {
                hotspot
            } else {
                Vec::new()
            };
            apply_updates(comm, &sd, &mut owned, &mine, ExchangeChunk::Bytes(256)).unwrap();
            let report =
                rebalance(comm, 1.5, &mut sd, &mut owned, ExchangeChunk::Bytes(256)).unwrap();
            assert!(report.rebalanced, "hotspot must trip the 1.5 threshold");
            assert!(
                report.imbalance_after < report.imbalance_before,
                "{} -> {}",
                report.imbalance_before,
                report.imbalance_after
            );
            assert!(
                report.migration.moved_cells < sd.num_cells() as u64,
                "cell-diff migration must not move every cell"
            );
            // Replicas still live on the ranks that own their cells.
            for (cell, _) in owned.replicas() {
                assert_eq!(sd.cell_to_rank(cell), comm.rank());
            }
            (report.imbalance_before, report.imbalance_after, owned.len())
        });
        let total: usize = out.iter().map(|(_, _, n)| n).sum();
        assert_eq!(total, 192, "64 base + 128 hotspot point replicas");
        for (before, after, _) in out {
            assert!(before > 2.0, "static imbalance should be severe: {before}");
            assert!(after <= 1.5, "post-rebalance imbalance {after} > 1.5");
        }
    }

    /// The per-object price cannot creep back: landing an update and
    /// shipping or landing a migrated replica each cost a small fraction
    /// of one `serialize_per_geometry`.
    #[test]
    fn landing_and_leaving_replicas_are_not_charged_per_object() {
        const N: u64 = 1024;
        let features: Vec<Feature> = (0..N)
            .map(|i| {
                let (x, y) = (0.1 + (i % 32) as f64 * 0.24, 0.1 + (i / 32) as f64 * 0.24);
                pt(x, y, &format!("f{i:04}"))
            })
            .collect();

        // A receiver of N inserts, then of N deletes. In a one-rank world
        // the receiver is also the sender, whose documented charge — one
        // `SerializeGeoms` per record it encodes — is taken off.
        let batch = features.clone();
        World::run(WorldConfig::new(Topology::single_node(1)), move |comm| {
            let sd = uniform(grid(4, 8.0), CellMap::RoundRobin, 1);
            let model = *comm.cost_model();
            let budget = N as f64 * model.serialize_per_geometry / 4.0;
            let mut store = ResidentStore::new();
            for (insert, resident_after) in [(true, N), (false, 0)] {
                let make = if insert {
                    Update::Insert
                } else {
                    Update::Delete
                };
                let updates: Vec<Update> = batch.iter().cloned().map(make).collect();
                let t = comm.now();
                let stats =
                    apply_updates(comm, &sd, &mut store, &updates, ExchangeChunk::Unlimited)
                        .unwrap();
                let trip = if insert {
                    stats.insert_exchange
                } else {
                    stats.delete_exchange
                };
                assert_eq!(
                    (trip.records_received, store.len() as u64),
                    (N, resident_after)
                );
                let sender = model.cost(Work::SerializeGeoms {
                    n: N,
                    bytes: trip.bytes_sent,
                });
                let receiver = comm.now() - t - sender;
                assert!(
                    receiver < budget,
                    "insert={insert}: receiving {N} records cost {receiver} s, budget {budget} s"
                );
            }
        });

        // Two ranks swap half their cells: each ships and lands replicas.
        World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
            let from = uniform(grid(4, 8.0), CellMap::RoundRobin, 2);
            let to = uniform(grid(4, 8.0), CellMap::Block, 2);
            let mut store = fresh_store(comm, &from, &features);
            let t = comm.now();
            let stats =
                migrate_cells(comm, &from, &to, &mut store, ExchangeChunk::Unlimited).unwrap();
            let spent = comm.now() - t;
            let moved = stats.shipped_records.min(stats.exchange.records_received);
            assert!(moved >= N / 8, "{stats:?}");
            let budget = moved as f64 * comm.cost_model().serialize_per_geometry / 4.0;
            assert!(
                spent < budget,
                "shipping {} and landing {} replicas cost {spent} s, budget {budget} s",
                stats.shipped_records,
                stats.exchange.records_received
            );
            assert_eq!(sorted(&store), sorted(&fresh_store(comm, &to, &features)));
        });
    }

    #[test]
    fn below_threshold_is_a_cheap_noop() {
        let out = World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
            let mut sd = uniform(grid(2, 4.0), CellMap::RoundRobin, comm.size());
            let features = vec![pt(1.0, 1.0, "a"), pt(3.0, 3.0, "b")];
            let mut owned = fresh_store(comm, &sd, &features);
            let before = records(&owned);
            let report =
                rebalance(comm, 4.0, &mut sd, &mut owned, ExchangeChunk::Unlimited).unwrap();
            assert!(!report.rebalanced);
            assert_eq!(report.imbalance_before, report.imbalance_after);
            assert_eq!(records(&owned), before);
            report.migration.shipped_bytes
        });
        assert_eq!(out, vec![0, 0]);
    }
}
