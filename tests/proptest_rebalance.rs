//! Property-based oracle tests of online rebalancing: after any
//! generated stream of insert/delete batches — with threshold
//! rebalancing on or off — the engine's resident partition must be
//! bit-identical to a fresh ingest of the final dataset under the same
//! decomposition, and its served answers must match the brute-force
//! oracle, for every decomposition policy, rank count and chunk size.

mod common;

use common::{canon, mk_decomp, mk_features, mk_queries, oracle, owned_replicas, WORLD};
use mpi_vector_io::core::decomp::SpatialDecomposition;
use mpi_vector_io::core::exchange::ExchangeChunk;
use mpi_vector_io::geom::wkb;
use mpi_vector_io::prelude::*;
use mpi_vector_io::sjoin::{RebalancePolicy, Update};
use proptest::prelude::*;
use std::sync::Arc;

/// `g` with every `0.0` coordinate spelled `-0.0` — an equal geometry
/// (`-0.0 == 0.0`) with different bytes, so a delete spelled this way
/// only matches through the coordinate comparison.
fn negate_zeros(g: &Geometry) -> Geometry {
    let z = |v: f64| if v == 0.0 { -0.0 } else { v };
    let flip = |p: &Point| Point::new(z(p.x), z(p.y));
    match g {
        Geometry::Point(p) => Geometry::Point(flip(p)),
        Geometry::LineString(l) => {
            Geometry::LineString(LineString::new(l.points().iter().map(flip).collect()).unwrap())
        }
        Geometry::Polygon(p) => Geometry::Polygon(
            Polygon::from_coords(p.exterior().points().iter().map(flip).collect(), vec![]).unwrap(),
        ),
        other => other.clone(),
    }
}

/// Turns the generated op stream into concrete update batches, the
/// model dataset they leave behind and the deletes that must find
/// nothing, mirroring the engine's batch semantics exactly: within
/// one batch all inserts apply before all deletes, each delete removes
/// one instance equal to it (`Feature ==`), and a delete that finds none
/// is a counted no-op. The model is a multiset — duplicates are real.
///
/// Per op (`op % 8`): 0–1 delete a feature live before the batch (spelled
/// with negated zeros; a `ghost` when nothing is live); 2 insert a point
/// (a quarter of them at `x = 0.0`); 3 a line and 4 a square long enough
/// to span cells; 5 a second instance of a live feature, same geometry
/// and userdata; 6 a fresh feature inserted and deleted in this one
/// batch; 7 the re-insert of a feature deleted in an earlier batch.
fn mk_script(
    base: &[Feature],
    ops: &[Vec<(u8, f64, f64)>],
) -> (Vec<Vec<Update>>, Vec<Feature>, Vec<Feature>) {
    let mut model: Vec<Feature> = base.to_vec();
    let mut graveyard: Vec<Feature> = Vec::new();
    let mut next_id = 0usize;
    let mut ghosts: Vec<Feature> = Vec::new();
    let mut batches = Vec::new();
    for batch_ops in ops {
        let live = model.clone();
        let pick = |x: f64| (((x / WORLD) * live.len() as f64) as usize).min(live.len() - 1);
        let mut fresh = |g: Geometry| {
            next_id += 1;
            Feature::with_userdata(g, format!("u{:03}", next_id - 1))
        };
        let point = |x: f64, y: f64| Geometry::Point(Point::new(x, y));
        let mut inserts: Vec<Feature> = Vec::new();
        let mut deletes: Vec<Feature> = Vec::new();
        for &(op, x, y) in batch_ops {
            match op % 8 {
                0 | 1 if live.is_empty() => {
                    deletes.push(Feature::with_userdata(point(x, y), "ghost"))
                }
                0 | 1 => {
                    let target = &live[pick(x)];
                    deletes.push(Feature::with_userdata(
                        negate_zeros(&target.geometry),
                        target.userdata.clone(),
                    ));
                }
                2 => inserts.push(fresh(point(if x < WORLD / 4.0 { 0.0 } else { x }, y))),
                3 => {
                    let to = Point::new((x + 5.0).min(WORLD), (y + 3.0).min(WORLD));
                    let line = LineString::new(vec![Point::new(x, y), to]).unwrap();
                    inserts.push(fresh(Geometry::LineString(line)));
                }
                4 => {
                    let (x1, y1) = ((x + 4.0).min(WORLD), (y + 4.0).min(WORLD));
                    let (x0, y0) = (x.min(x1 - 1e-6), y.min(y1 - 1e-6));
                    let ring = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)];
                    let ring = ring.iter().map(|&(x, y)| Point::new(x, y)).collect();
                    let square = Polygon::from_coords(ring, vec![]).unwrap();
                    inserts.push(fresh(Geometry::Polygon(square)));
                }
                5 if !live.is_empty() => inserts.push(live[pick(x)].clone()),
                6 => {
                    let f = fresh(point(x, y));
                    inserts.push(f.clone());
                    deletes.push(f);
                }
                7 if !graveyard.is_empty() => inserts.push(graveyard.remove(0)),
                _ => inserts.push(fresh(point(x, y))),
            }
        }
        model.extend(inserts.iter().cloned());
        for d in &deletes {
            match model.iter().position(|m| m == d) {
                Some(p) => graveyard.push(model.remove(p)),
                None => ghosts.push(d.clone()),
            }
        }
        batches.push(
            inserts
                .into_iter()
                .map(Update::Insert)
                .chain(deletes.into_iter().map(Update::Delete))
                .collect(),
        );
    }
    (batches, model, ghosts)
}

/// The replicas `rank` would hold if `features` were freshly ingested
/// under `sd` — the bit-identical target the mutated engine must hit.
fn fresh_partition(
    sd: &dyn SpatialDecomposition,
    features: &[Feature],
    rank: usize,
) -> Vec<(u32, String, Vec<u8>)> {
    let mut owned: Vec<(u32, String, Vec<u8>)> = owned_replicas(sd, features, rank)
        .into_iter()
        .map(|(cell, f)| (cell, f.userdata, wkb::encode(&f.geometry)))
        .collect();
    owned.sort();
    owned
}

proptest! {
    // Worlds spawn threads; keep case counts moderate. Seed pinned so
    // CI failures are reproducible (PROPTEST_SEED overrides).
    #![proptest_config(ProptestConfig::with_cases(20).with_seed(0x6d76_696f_7265_6261))]

    /// The tentpole's contract: for every rank count, decomposition
    /// policy, chunk size and rebalance setting, a mutated engine is
    /// indistinguishable from one freshly ingested from the final
    /// dataset — replica-for-replica under its (possibly re-bisected)
    /// decomposition, and answer-for-answer against the brute-force
    /// oracle — through duplicates, deletes spelled with `-0.0`,
    /// cell-spanning lines and squares deleted on several owners at once,
    /// insert-and-delete in one batch and delete-then-reinsert across
    /// batches. Deletes that find nothing must be counted, never applied.
    #[test]
    fn updates_and_rebalance_converge_to_a_fresh_ingest(
        ranks_idx in 0usize..3,
        side in 1u32..6,
        policy in 0u8..5,
        chunk_idx in 0usize..4,
        rebalance in any::<bool>(),
        coords in proptest::collection::vec((0.0..WORLD, 0.0..WORLD), 0..20),
        ops in proptest::collection::vec(
            proptest::collection::vec((0u8..8, 0.0..WORLD, 0.0..WORLD), 0..10),
            1..4
        ),
        qseeds in proptest::collection::vec(
            (0u8..6, 0.0..WORLD, 0.0..WORLD, 0.05f64..4.0),
            1..6
        ),
    ) {
        let ranks = [2usize, 4, 16][ranks_idx];
        let chunk = [
            ExchangeChunk::Unlimited,
            ExchangeChunk::Bytes(64),
            ExchangeChunk::Bytes(96),
            ExchangeChunk::Bytes(1024),
        ][chunk_idx];
        let base = mk_features(&coords);
        let (batches, final_model, ghosts) = mk_script(&base, &ops);
        // A delete is routed to every cell it overlaps, and each of those
        // records finds nothing.
        let tiling = mk_decomp(WORLD, policy, side, ranks);
        let expected_ghosts: u64 = ghosts
            .iter()
            .map(|g| tiling.cells_for_rect_vec(&g.geometry.envelope()).len() as u64)
            .sum();
        let queries = mk_queries(&qseeds);
        let expected: Vec<QueryAnswer> =
            queries.iter().map(|q| oracle(&final_model, q)).collect();
        let base = Arc::new(base);
        let batches = Arc::new(batches);
        let final_model = Arc::new(final_model);
        let qseeds = Arc::new(qseeds);
        let out = World::run(
            WorldConfig::new(Topology::single_node(ranks)),
            move |comm| {
                let sd = mk_decomp(WORLD, policy, side, comm.size());
                let owned = owned_replicas(&*sd, &base, comm.rank());
                let opts = EngineOptions {
                    chunk,
                    cache: ServeCache::Off,
                    rebalance: if rebalance {
                        // Low threshold so small generated datasets
                        // actually trip it.
                        RebalancePolicy::Threshold(1.05)
                    } else {
                        RebalancePolicy::Off
                    },
                };
                let mut eng = QueryEngine::from_parts(comm, sd, owned, &opts);
                let mut ghosts = 0u64;
                let mut rebalances = 0u64;
                for batch in batches.iter() {
                    // Each rank submits a disjoint shard: an update must
                    // enter the system exactly once.
                    let mine: Vec<Update> = batch
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % comm.size() == comm.rank())
                        .map(|(_, u)| u.clone())
                        .collect();
                    let stats = eng.apply_updates(comm, &mine).unwrap();
                    ghosts += stats.missing_deletes;
                    let rep = eng.maybe_rebalance(comm).unwrap();
                    rebalances += rep.rebalanced as u64;
                }
                let mut resident: Vec<(u32, String, Vec<u8>)> = eng
                    .resident()
                    .map(|fr| (fr.cell, fr.userdata.to_string(), fr.wkb.to_vec()))
                    .collect();
                resident.sort();
                let fresh =
                    fresh_partition(eng.decomposition(), &final_model, comm.rank());
                let answers: Vec<QueryAnswer> = eng
                    .serve(comm, &mk_queries(&qseeds))
                    .unwrap()
                    .answers
                    .iter()
                    .map(canon)
                    .collect();
                (resident, fresh, answers, ghosts, rebalances)
            },
        );
        let total_ghosts: u64 = out.iter().map(|r| r.3).sum();
        prop_assert_eq!(total_ghosts, expected_ghosts, "ghost deletes must be counted no-ops");
        for (rank, (resident, fresh, answers, _, rebalances)) in out.iter().enumerate() {
            prop_assert_eq!(
                resident, fresh,
                "rank {}/{} diverged from a fresh ingest (policy {}, side {}, chunk {:?}, rebalance {})",
                rank, ranks, policy, side, chunk, rebalance
            );
            prop_assert_eq!(
                answers, &expected,
                "served answers diverged on rank {}/{} (policy {}, side {}, chunk {:?}, rebalance {})",
                rank, ranks, policy, side, chunk, rebalance
            );
            if !rebalance {
                prop_assert_eq!(*rebalances, 0u64, "rebalancing off must never migrate");
            }
        }
    }
}
