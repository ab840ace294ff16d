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
use mpi_vector_io::prelude::*;
use mpi_vector_io::sjoin::{RebalancePolicy, Update};
use proptest::prelude::*;
use std::sync::Arc;

/// Turns the generated op stream into concrete update batches plus the
/// model dataset they leave behind, mirroring the engine's batch
/// semantics exactly: within one batch all inserts apply before all
/// deletes, and delete targets are drawn from the pre-batch dataset
/// (op `% 3 == 0` deletes — against an empty model it becomes a
/// deliberately-absent delete, which must be a counted no-op).
fn mk_script(base: &[Feature], ops: &[Vec<(u8, f64, f64)>]) -> (Vec<Vec<Update>>, Vec<Feature>) {
    let mut model: Vec<Feature> = base.to_vec();
    let mut next_id = 0usize;
    let mut batches = Vec::new();
    for batch_ops in ops {
        let mut inserts: Vec<Feature> = Vec::new();
        let mut deletes: Vec<Feature> = Vec::new();
        for &(op, x, y) in batch_ops {
            if op % 3 == 0 {
                if model.is_empty() {
                    deletes.push(Feature::with_userdata(
                        Geometry::Point(Point::new(x, y)),
                        "ghost",
                    ));
                } else {
                    let k = (((x / WORLD) * model.len() as f64) as usize).min(model.len() - 1);
                    let target = model[k].clone();
                    // One delete per distinct live instance: a second
                    // submission would be a missing-delete no-op and
                    // fall out of the model/engine equivalence below.
                    if !deletes.contains(&target) {
                        deletes.push(target);
                    }
                }
            } else {
                let f = Feature::with_userdata(
                    Geometry::Point(Point::new(x, y)),
                    format!("u{next_id:03}"),
                );
                next_id += 1;
                inserts.push(f);
            }
        }
        model.extend(inserts.iter().cloned());
        for d in &deletes {
            if let Some(p) = model.iter().position(|m| m == d) {
                model.remove(p);
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
    (batches, model)
}

/// The replicas `rank` would hold if `features` were freshly ingested
/// under `sd` — the bit-identical target the mutated engine must hit.
fn fresh_partition(
    sd: &dyn SpatialDecomposition,
    features: &[Feature],
    rank: usize,
) -> Vec<(u32, String)> {
    let mut owned: Vec<(u32, String)> = owned_replicas(sd, features, rank)
        .into_iter()
        .map(|(cell, f)| (cell, f.userdata))
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
    /// oracle. Ghost deletes must be counted, never applied.
    #[test]
    fn updates_and_rebalance_converge_to_a_fresh_ingest(
        ranks_idx in 0usize..3,
        side in 1u32..6,
        policy in 0u8..5,
        chunk_idx in 0usize..3,
        rebalance in any::<bool>(),
        coords in proptest::collection::vec((0.0..WORLD, 0.0..WORLD), 0..20),
        ops in proptest::collection::vec(
            proptest::collection::vec((0u8..6, 0.0..WORLD, 0.0..WORLD), 0..10),
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
            ExchangeChunk::Bytes(96),
            ExchangeChunk::Bytes(1024),
        ][chunk_idx];
        let base = mk_features(&coords);
        let (batches, final_model) = mk_script(&base, &ops);
        let queries = mk_queries(&qseeds);
        let expected: Vec<QueryAnswer> =
            queries.iter().map(|q| oracle(&final_model, q)).collect();
        let expected_ghosts: u64 = batches
            .iter()
            .flatten()
            .filter(|u| matches!(u, Update::Delete(f) if f.userdata == "ghost"))
            .count() as u64;

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
                let mut resident: Vec<(u32, String)> = eng
                    .resident()
                    .iter()
                    .map(|(c, f)| (*c, f.userdata.clone()))
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
