//! Property-based oracle tests of online rebalancing: after any
//! generated stream of insert/delete batches — with threshold
//! rebalancing on or off — the engine's resident partition must be
//! bit-identical to a fresh ingest of the final dataset under the same
//! decomposition, and its served answers must match the brute-force
//! oracle, for every decomposition policy, rank count and chunk size.

use mpi_vector_io::core::decomp::{
    AdaptiveBisection, HilbertDecomposition, SpatialDecomposition, UniformDecomposition,
};
use mpi_vector_io::core::exchange::ExchangeChunk;
use mpi_vector_io::geom::algo::{point_geometry_distance, rect_intersects_geometry};
use mpi_vector_io::prelude::*;
use mpi_vector_io::sjoin::{
    EngineOptions, Query, QueryAnswer, QueryEngine, RebalancePolicy, ServeCache, Update,
};
use proptest::prelude::*;
use std::sync::Arc;

/// The fixed world every generated dataset and update lives in.
const WORLD: f64 = 16.0;

/// Builds one of the five decomposition variants over a `side × side`
/// grid spanning the `[0, WORLD]²` world (same shapes as the serve
/// proptests: three classic cell maps, Hilbert runs, adaptive bisection
/// over a deterministic synthetic histogram).
fn mk_decomp(policy: u8, side: u32, ranks: usize) -> Box<dyn SpatialDecomposition> {
    let grid = UniformGrid::new(Rect::new(0.0, 0.0, WORLD, WORLD), GridSpec::square(side));
    match policy {
        0 => Box::new(UniformDecomposition::new(grid, CellMap::RoundRobin, ranks)),
        1 => Box::new(UniformDecomposition::new(grid, CellMap::Block, ranks)),
        2 => Box::new(UniformDecomposition::new(
            grid,
            CellMap::Hilbert { cells_x: side },
            ranks,
        )),
        3 => Box::new(HilbertDecomposition::new(grid, ranks)),
        _ => {
            let counts: Vec<u64> = (0..grid.num_cells() as u64).map(|c| (c * 7) % 13).collect();
            Box::new(AdaptiveBisection::from_counts(grid, &counts, ranks))
        }
    }
}

/// Expands the generated `(x, y)` seeds into a mixed-geometry base
/// dataset — points, small squares and short segments — labelled by
/// index. Identical fabrication inside every rank and in the oracle.
fn mk_features(coords: &[(f64, f64)]) -> Vec<Feature> {
    coords
        .iter()
        .enumerate()
        .map(|(i, &(x, y))| {
            let g = match i % 5 {
                0 => {
                    let h = 0.6;
                    let (x0, y0) = ((x - h).max(0.0), (y - h).max(0.0));
                    let x1 = (x + h).min(WORLD).max(x0 + 1e-6);
                    let y1 = (y + h).min(WORLD).max(y0 + 1e-6);
                    Geometry::Polygon(
                        Polygon::from_coords(
                            vec![
                                Point::new(x0, y0),
                                Point::new(x1, y0),
                                Point::new(x1, y1),
                                Point::new(x0, y1),
                            ],
                            vec![],
                        )
                        .unwrap(),
                    )
                }
                1 => Geometry::LineString(
                    LineString::new(vec![
                        Point::new(x, y),
                        Point::new((x + 0.8).min(WORLD), (y + 0.4).min(WORLD)),
                    ])
                    .unwrap(),
                ),
                _ => Geometry::Point(Point::new(x, y)),
            };
            Feature::with_userdata(g, format!("f{i:03}"))
        })
        .collect()
}

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
    let mut owned = Vec::new();
    for f in features {
        for cell in sd.cells_for_rect_vec(&f.geometry.envelope()) {
            if sd.cell_to_rank(cell) == rank {
                owned.push((cell, f.userdata.clone()));
            }
        }
    }
    owned.sort();
    owned
}

/// Expands generated query seeds into a mixed range/point/kNN batch.
fn mk_queries(seeds: &[(u8, f64, f64, f64)]) -> Vec<Query> {
    seeds
        .iter()
        .map(|&(kind, x, y, w)| match kind % 3 {
            0 => Query::Range(Rect::new(
                (x - w).max(0.0),
                (y - w).max(0.0),
                (x + w).min(WORLD),
                (y + w).min(WORLD),
            )),
            1 => Query::Point(Point::new(x, y)),
            _ => Query::Knn {
                at: Point::new(x, y),
                k: (w * 10.0) as u32 + 1,
            },
        })
        .collect()
}

/// The naive oracle: answers one query by a full scan of the global
/// dataset (same total order as the engine, including kNN ties).
fn oracle(features: &[Feature], q: &Query) -> QueryAnswer {
    match *q {
        Query::Range(r) => {
            let mut m: Vec<String> = features
                .iter()
                .filter(|f| rect_intersects_geometry(&r, &f.geometry))
                .map(|f| f.userdata.clone())
                .collect();
            m.sort();
            QueryAnswer::Matches(m)
        }
        Query::Point(p) => oracle(features, &Query::Range(p.envelope())),
        Query::Knn { at, k } => {
            let mut d: Vec<(f64, String)> = features
                .iter()
                .map(|f| {
                    (
                        point_geometry_distance(&at, &f.geometry),
                        f.userdata.clone(),
                    )
                })
                .collect();
            d.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            d.truncate(k as usize);
            QueryAnswer::Matches(
                d.into_iter()
                    .map(|(dist, u)| format!("{dist:.9}:{u}"))
                    .collect(),
            )
        }
    }
}

/// Flattens an engine answer into the oracle's comparable form.
fn canon(a: &QueryAnswer) -> QueryAnswer {
    match a {
        QueryAnswer::Matches(m) => QueryAnswer::Matches(m.clone()),
        QueryAnswer::Neighbors(ns) => QueryAnswer::Matches(
            ns.iter()
                .map(|n| format!("{:.9}:{}", n.distance, n.userdata))
                .collect(),
        ),
    }
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
                let sd = mk_decomp(policy, side, comm.size());
                let mut owned: Vec<(u32, Feature)> = Vec::new();
                for f in base.iter() {
                    for cell in sd.cells_for_rect_vec(&f.geometry.envelope()) {
                        if sd.cell_to_rank(cell) == comm.rank() {
                            owned.push((cell, f.clone()));
                        }
                    }
                }
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
