//! Online-rebalancing experiment: a moving insert hotspot versus a
//! frozen ingest-time decomposition.
//!
//! Not a paper figure — the paper partitions once ("the distribution of
//! the data is not known a priori", §4.2) — but its mutable-deployment
//! continuation: the skew that motivates adaptive decomposition at
//! ingest does not stay where it was measured. This experiment streams
//! the [`MovingHotspot`] workload (point inserts in a box that glides
//! corner-to-corner, each batch deleted again `WINDOW` steps later)
//! into a resident [`QueryEngine`] in two modes:
//!
//! * **static** — rebalancing off; the bisection computed for the base
//!   dataset serves the whole stream, and the drifting hotspot piles
//!   onto whichever ranks happen to own its current position;
//! * **rebalanced** — [`RebalancePolicy::Threshold`]: after every update
//!   batch the per-cell histogram of the resident replicas is allreduced,
//!   and when the measured imbalance crosses the threshold the
//!   decomposition is re-bisected and **only the cells whose owner
//!   changed** migrate.
//!
//! Both modes build their engine through [`QueryEngine::from_store`],
//! which takes the same rebalance step once, at threshold 1.0.
//!
//! Reported imbalance is max-over-mean of per-rank resident replica
//! counts, sampled after each step. Migrated bytes are compared against
//! what full re-shuffles at the same trigger points would have shipped
//! (the whole partition each time). The trajectory is written to
//! `BENCH_rebalance.json`.

use super::{cost_scaled, Scale};
use crate::report::{write_trajectory, Cell::*, Table};
use mvio_core::decomp::{imbalance_ratio, DecompPolicy, Decomposition, SpatialDecomposition};
use mvio_core::exchange::{serialize_record, ExchangeChunk};
use mvio_core::grid::{GridSpec, UniformGrid};
use mvio_core::{Feature, ResidentStore};
use mvio_datagen::MovingHotspot;
use mvio_geom::{Geometry, Point, Rect};
use mvio_msim::{Ledger, Topology, Work, World, WorldConfig};
use mvio_sjoin::{EngineOptions, QueryEngine, RebalancePolicy, ServeCache, Update};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tracked ceiling: with rebalancing on, the post-rebalance imbalance
/// at the end of the hotspot stream must not exceed this at any
/// measured rank count. Shared by the unit test and the CI gate (which
/// pins the ratio below), so the two can never enforce different
/// thresholds. Also the rebalance trigger threshold, so the policy is
/// asked to hold exactly the ceiling it is graded on.
pub const REBALANCED_IMBALANCE_CEILING: f64 = 1.5;

/// Tracked floor: the frozen static decomposition must end the stream
/// at least this many times more imbalanced than the rebalanced run at
/// 16 ranks — the degradation that justifies the machinery.
pub const STATIC_DEGRADATION_FLOOR: f64 = 2.0;

/// Tracked ceiling: total bytes shipped by cell-diff migration, as a
/// fraction of what full re-shuffles at the same trigger points would
/// have shipped, must stay below this. "Migrate only the diff" is the
/// point; a fraction near 1.0 would mean we rebuilt the partition.
pub const MIGRATED_FRACTION_CEILING: f64 = 0.5;

/// One measurement: one mode at one rank count.
#[derive(Debug, Clone)]
pub struct Row {
    /// Serving mode label (`static`, `rebalanced`).
    pub mode: &'static str,
    /// World size.
    pub ranks: usize,
    /// Steps in the update stream.
    pub steps: usize,
    /// Total updates applied (inserts + deletes, global).
    pub updates: u64,
    /// Replica-count imbalance after the final step.
    pub final_imbalance: f64,
    /// Worst post-step imbalance seen during the stream.
    pub peak_imbalance: f64,
    /// Rebalances that actually committed.
    pub rebalances: u64,
    /// Bytes shipped by cell-diff migration (global, all rebalances).
    pub migrated_bytes: u64,
    /// Bytes full re-shuffles at the same trigger points would have
    /// shipped: the whole resident partition, each time.
    pub reshuffle_bytes: u64,
    /// `migrated_bytes / reshuffle_bytes` (0 when nothing triggered).
    pub migrated_fraction: f64,
    /// Max-over-ranks virtual seconds for the whole update stream (the
    /// simulator's clock at this scale).
    pub update_s: f64,
}

/// Grid resolution of the resident decomposition. Fine enough that the
/// hotspot box spans many whole cells in both axes — cell granularity
/// is what the diff migration and the re-bisection both work in.
const GRID_SIDE: u32 = 32;

/// World rectangle (anchored, so every run shares the cell tiling).
const WORLD: f64 = 100.0;

/// Uniform base features ingested before the stream starts (~2 per
/// cell). Sized so the live hotspot settles at ~20% of total weight:
/// heavy enough that a frozen decomposition visibly degrades, light
/// enough that the re-bisection's cuts stay put in cold regions and
/// the cell-diff migration stays far below a full re-shuffle.
const BASE_FEATURES: u64 = 2048;

/// Steps in the moving-hotspot stream.
const STEPS: usize = 8;

/// Point inserts per step.
const INSERTS_PER_STEP: usize = 256;

/// Steps an insert lives before the stream deletes it again.
const WINDOW: usize = 2;

/// Fraction of each world dimension the hotspot box covers: 18 units
/// ≈ 6 whole cells per axis, so the hottest single cell stays well
/// below a 64-rank per-rank mean and re-bisection has cuts available,
/// while the box is small enough to overload a frozen rank assignment.
const SPREAD: f64 = 0.18;

/// Per-destination byte cap for update routing and cell migration.
const CHUNK: u64 = 4096;

/// The moving-hotspot stream every measurement replays.
fn stream_spec() -> MovingHotspot {
    MovingHotspot {
        world: Rect::new(0.0, 0.0, WORLD, WORLD),
        steps: STEPS,
        inserts_per_step: INSERTS_PER_STEP,
        window: WINDOW,
        spread: SPREAD,
        seed: 0xD41F7,
    }
}

/// The uniform base dataset, fabricated identically on every rank.
fn base_features() -> Vec<Feature> {
    let mut rng = StdRng::seed_from_u64(0xBA5E);
    (0..BASE_FEATURES)
        .map(|i| {
            let p = Point::new(rng.gen_range(0.0..WORLD), rng.gen_range(0.0..WORLD));
            Feature::with_userdata(Geometry::Point(p), format!("base={i:05}"))
        })
        .collect()
}

/// The ingest-time decomposition: adaptive bisection balanced for the
/// base dataset (the best any one-shot partitioner can do — the drift
/// is what it cannot see).
fn base_decomposition(ranks: usize) -> (Decomposition, Vec<Feature>) {
    let grid = UniformGrid::new(
        Rect::new(0.0, 0.0, WORLD, WORLD),
        GridSpec::square(GRID_SIDE),
    );
    let base = base_features();
    let mut counts = vec![0u64; grid.num_cells() as usize];
    for f in &base {
        for cell in grid.cells_overlapping(&f.geometry.envelope()) {
            counts[cell as usize] += 1;
        }
    }
    let policy = DecompPolicy::adaptive();
    // audit: a 32x32 grid is far below the owner-table cap.
    let sd = Decomposition::new(grid, policy, Some(&counts), ranks).expect("small grid");
    (sd, base)
}

/// Per-rank, per-step sample returned from the simulation closure.
struct StepSample {
    owned: u64,
    rebalanced: bool,
    shipped_bytes: u64,
    /// Wire size of this rank's resident partition — what a full
    /// re-shuffle would ship from this rank.
    partition_bytes: u64,
}

/// Replays the stream against one engine configuration and aggregates
/// the per-step samples into a row, with each rank's ledger over the
/// stream.
fn measure_one(
    scale: Scale,
    ranks: usize,
    mode: &'static str,
    policy: RebalancePolicy,
) -> (Row, Vec<Ledger>) {
    let nodes = ranks.div_ceil(16).max(1);
    let topo = Topology::new(nodes, ranks.div_ceil(nodes));
    let world = WorldConfig::new(topo).with_cost(cost_scaled(scale));
    let spec = stream_spec();
    let out = World::run(world, move |comm| {
        let (sd, base) = base_decomposition(comm.size());
        // The replicas this rank owns, encoded (and charged as the encode
        // it is) and landed as one received round.
        let (mut wire, mut n) = (Vec::new(), 0u64);
        for f in &base {
            for c in sd.cells_for_rect_vec(&f.geometry.envelope()) {
                if sd.cell_to_rank(c) == comm.rank() {
                    serialize_record(c, f, &mut Vec::new(), &mut wire).expect("small records");
                    n += 1;
                }
            }
        }
        let bytes = wire.len() as u64;
        comm.charge(Work::SerializeGeoms { n, bytes });
        let mut store = ResidentStore::new();
        store.append_round(comm, &[wire]).expect("valid records");
        let opts = EngineOptions {
            chunk: ExchangeChunk::Bytes(CHUNK),
            cache: ServeCache::Off,
            rebalance: policy,
        };
        let mut eng = QueryEngine::from_store(comm, sd, store, &opts);
        let mut samples = Vec::with_capacity(spec.steps);
        // The set-up above costs each rank differently; the clock times
        // the stream alone, from a common start.
        comm.barrier();
        let (start, booked) = (comm.now(), comm.ledger());
        for step in spec.stream() {
            // Each rank is a frontend submitting a disjoint shard of the
            // global stream (an update must enter the system exactly
            // once; the routing exchange ships it to its owner).
            let (rank, size) = (comm.rank(), comm.size());
            let shard = move |i: &usize| i % size == rank;
            let updates: Vec<Update> = step
                .deletes
                .iter()
                .enumerate()
                .filter(|(i, _)| shard(i))
                .map(|(_, (p, id))| {
                    Update::Delete(Feature::with_userdata(Geometry::Point(*p), id.clone()))
                })
                .chain(
                    step.inserts
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| shard(i))
                        .map(|(_, (p, id))| {
                            Update::Insert(Feature::with_userdata(Geometry::Point(*p), id.clone()))
                        }),
                )
                .collect();
            eng.apply_updates(comm, &updates)
                .expect("in-bounds updates");
            let rep = eng.maybe_rebalance(comm).expect("cell spaces match");
            samples.push(StepSample {
                owned: eng.resident_replicas() as u64,
                rebalanced: rep.rebalanced,
                shipped_bytes: rep.migration.shipped_bytes,
                partition_bytes: eng.resident().map(|fr| fr.wire_len() as u64).sum(),
            });
        }
        (comm.now() - start, samples, comm.ledger().since(&booked))
    });

    let mut peak = 0.0f64;
    let mut final_imbalance = 0.0;
    let (mut rebalances, mut migrated, mut reshuffle) = (0u64, 0u64, 0u64);
    for step in 0..STEPS {
        let loads: Vec<u64> = out.iter().map(|r| r.1[step].owned).collect();
        let imb = imbalance_ratio(&loads);
        peak = peak.max(imb);
        final_imbalance = imb;
        // `rebalanced` is collective state — identical on every rank.
        if out[0].1[step].rebalanced {
            rebalances += 1;
            migrated += out.iter().map(|r| r.1[step].shipped_bytes).sum::<u64>();
            // What a full re-shuffle at this trigger would have shipped:
            // every resident replica, on every rank.
            reshuffle += out.iter().map(|r| r.1[step].partition_bytes).sum::<u64>();
        }
    }
    let updates = (STEPS * INSERTS_PER_STEP
        + STEPS.saturating_sub(WINDOW).min(STEPS) * INSERTS_PER_STEP) as u64;
    let row = Row {
        mode,
        ranks,
        steps: STEPS,
        updates,
        final_imbalance,
        peak_imbalance: peak,
        rebalances,
        migrated_bytes: migrated,
        reshuffle_bytes: reshuffle,
        migrated_fraction: if reshuffle > 0 {
            migrated as f64 / reshuffle as f64
        } else {
            0.0
        },
        update_s: out.iter().map(|r| r.0).fold(0.0, f64::max),
    };
    (row, out.iter().map(|r| r.2).collect())
}

/// Each rank's ledger over the rebalanced stream at `ranks`: the
/// scenario [`measure`]'s `rebalanced` rows time.
pub(crate) fn rebalanced_ledgers(scale: Scale, ranks: usize) -> Vec<Ledger> {
    let policy = RebalancePolicy::Threshold(REBALANCED_IMBALANCE_CEILING);
    measure_one(scale, ranks, "rebalanced", policy).1
}

/// Measures both modes at every rank count.
pub fn measure(scale: Scale, rank_counts: &[usize]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &ranks in rank_counts {
        rows.push(measure_one(scale, ranks, "static", RebalancePolicy::Off).0);
        let policy = RebalancePolicy::Threshold(REBALANCED_IMBALANCE_CEILING);
        rows.push(measure_one(scale, ranks, "rebalanced", policy).0);
    }
    rows
}

/// Runs the sweep, writes `BENCH_rebalance.json`, and renders the table.
pub fn run(scale: Scale, quick: bool) -> String {
    let rank_counts: &[usize] = if quick { &[16] } else { &[16, 64] };
    let rows = measure(scale, rank_counts);

    let mut t = Table::new(
        format!(
            "Online rebalancing: {BASE_FEATURES} uniform base features, moving hotspot \
             ({STEPS} steps x {INSERTS_PER_STEP} inserts, {WINDOW}-step TTL), \
             frozen decomposition vs threshold-{REBALANCED_IMBALANCE_CEILING} cell-diff rebalancing"
        ),
        &[
            "ranks",
            "mode",
            "updates",
            "final imb",
            "peak imb",
            "rebalances",
            "migrated",
            "vs reshuffle",
            "update s",
        ],
    );
    for r in &rows {
        t.row(vec![
            r.ranks.to_string(),
            r.mode.to_string(),
            r.updates.to_string(),
            format!("{:.2}", r.final_imbalance),
            format!("{:.2}", r.peak_imbalance),
            r.rebalances.to_string(),
            format!("{} B", r.migrated_bytes),
            if r.reshuffle_bytes > 0 {
                format!("{:.0}%", r.migrated_fraction * 100.0)
            } else {
                "-".to_string()
            },
            format!("{:.7}", r.update_s),
        ]);
    }
    t.note(
        "imbalance is max-over-mean of per-rank resident replica counts, sampled after each step",
    );
    t.note("answers are identical across modes (oracle-checked by tests/proptest_rebalance.rs)");
    t.note("expectation: the frozen decomposition degrades as the hotspot drifts; re-bisection holds the ceiling while shipping only owner-changed cells");
    write_trajectory(&mut t, "rebalance", "replica_imbalance_ratio", &rows, |r| {
        vec![
            ("mode", Str(r.mode)),
            ("ranks", Int(r.ranks as u64)),
            ("steps", Int(r.steps as u64)),
            ("updates", Int(r.updates)),
            ("final_imbalance", Float(r.final_imbalance, 4)),
            ("peak_imbalance", Float(r.peak_imbalance, 4)),
            ("rebalances", Int(r.rebalances)),
            ("migrated_bytes", Int(r.migrated_bytes)),
            ("reshuffle_bytes", Int(r.reshuffle_bytes)),
            ("migrated_fraction", Float(r.migrated_fraction, 4)),
            ("update_s", Float(r.update_s, 9)),
        ]
    });
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The PR's acceptance criterion, same measurement the CI gate
    /// pins: under the moving hotspot the rebalanced engine must end
    /// within [`REBALANCED_IMBALANCE_CEILING`] at both 16 and 64 ranks
    /// while the static path degrades past
    /// [`STATIC_DEGRADATION_FLOOR`] times worse, and the cell-diff
    /// migration must ship at most [`MIGRATED_FRACTION_CEILING`] of
    /// full-reshuffle bytes.
    #[test]
    fn rebalancing_holds_the_ceiling_where_the_static_path_degrades() {
        let rows = measure(Scale::default_repro(), &[16, 64]);
        for &ranks in &[16usize, 64] {
            let stat = rows
                .iter()
                .find(|r| r.mode == "static" && r.ranks == ranks)
                .unwrap();
            let reb = rows
                .iter()
                .find(|r| r.mode == "rebalanced" && r.ranks == ranks)
                .unwrap();
            assert!(
                reb.final_imbalance <= REBALANCED_IMBALANCE_CEILING,
                "@{ranks}: rebalanced ends at {:.2}, ceiling {REBALANCED_IMBALANCE_CEILING}",
                reb.final_imbalance
            );
            assert!(
                reb.rebalances >= 1,
                "@{ranks}: drift never tripped the threshold"
            );
            assert!(
                reb.migrated_bytes > 0 && reb.migrated_fraction <= MIGRATED_FRACTION_CEILING,
                "@{ranks}: migrated {} of {} reshuffle bytes ({:.2}), ceiling {MIGRATED_FRACTION_CEILING}",
                reb.migrated_bytes,
                reb.reshuffle_bytes,
                reb.migrated_fraction
            );
            assert_eq!(stat.rebalances, 0, "@{ranks}: static mode must not migrate");
        }
        let stat16 = rows
            .iter()
            .find(|r| r.mode == "static" && r.ranks == 16)
            .unwrap();
        let reb16 = rows
            .iter()
            .find(|r| r.mode == "rebalanced" && r.ranks == 16)
            .unwrap();
        assert!(
            stat16.final_imbalance / reb16.final_imbalance >= STATIC_DEGRADATION_FLOOR,
            "static {:.2} vs rebalanced {:.2}: degradation {:.2}x under floor {STATIC_DEGRADATION_FLOOR}x",
            stat16.final_imbalance,
            reb16.final_imbalance,
            stat16.final_imbalance / reb16.final_imbalance
        );
    }
}
