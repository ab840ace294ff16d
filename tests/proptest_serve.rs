//! Property-based oracle tests of the resident query engine: batched
//! distributed serving must answer exactly like a naive single-machine
//! brute-force pass over the whole dataset, for every decomposition
//! policy, rank count, exchange chunk size and cache setting.

use mpi_vector_io::core::decomp::{
    AdaptiveBisection, HilbertDecomposition, SpatialDecomposition, UniformDecomposition,
};
use mpi_vector_io::core::exchange::ExchangeChunk;
use mpi_vector_io::geom::algo::{point_geometry_distance, rect_intersects_geometry};
use mpi_vector_io::prelude::*;
use mpi_vector_io::sjoin::{EngineOptions, Query, QueryAnswer, QueryEngine, ServeCache};
use proptest::prelude::*;
use std::sync::Arc;

/// The fixed world every generated dataset and query lives in.
const WORLD: f64 = 16.0;

/// Builds one of the five decomposition variants over a `side × side`
/// grid spanning the `[0, WORLD]²` world (same shapes as the exchange
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

/// Expands the generated `(x, y)` seeds into a mixed-geometry dataset —
/// points, small squares and short segments — labelled by index. The
/// same list is fabricated inside every rank and by the oracle, so the
/// comparison needs no channel besides determinism.
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

/// Expands generated query seeds into a mixed batch: `kind` selects
/// range / point / kNN, `(x, y)` places it, `w` doubles as the window
/// half-width or (scaled) the `k` of a kNN probe — deliberately allowed
/// to exceed the dataset size.
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
/// dataset — intersection test per feature for range/point, brute-force
/// distance sort (ties broken by userdata, exactly the engine's total
/// order) truncated to `k` for kNN.
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
    #![proptest_config(ProptestConfig::with_cases(20).with_seed(0x6d76_696f_7365_7276))]

    /// The tentpole's contract: for every rank count, decomposition
    /// policy, chunk size and cache setting, a served batch of mixed
    /// queries answers identically on every rank and identically to the
    /// naive brute-force oracle — including kNN ties and `k` larger
    /// than the dataset. Serving the same batch twice must also be
    /// idempotent (the second pass exercises the cache when enabled).
    #[test]
    fn serve_matches_bruteforce_oracle_everywhere(
        ranks_idx in 0usize..3,
        side in 1u32..6,
        policy in 0u8..5,
        chunk_idx in 0usize..3,
        cache in any::<bool>(),
        coords in proptest::collection::vec((0.0..WORLD, 0.0..WORLD), 0..28),
        qseeds in proptest::collection::vec(
            (0u8..6, 0.0..WORLD, 0.0..WORLD, 0.05f64..4.0),
            1..7
        ),
    ) {
        let ranks = [2usize, 4, 16][ranks_idx];
        let chunk = [
            ExchangeChunk::Unlimited,
            ExchangeChunk::Bytes(96),
            ExchangeChunk::Bytes(1024),
        ][chunk_idx];
        let features = mk_features(&coords);
        let queries = mk_queries(&qseeds);
        let expected: Vec<QueryAnswer> =
            queries.iter().map(|q| oracle(&features, q)).collect();

        let coords = Arc::new(coords);
        let qseeds = Arc::new(qseeds);
        let out = World::run(
            WorldConfig::new(Topology::single_node(ranks)),
            move |comm| {
                // Every rank fabricates the same global dataset and
                // keeps the replicas it owns under the decomposition —
                // the resident state an ingest would have produced.
                let sd = mk_decomp(policy, side, comm.size());
                let features = mk_features(&coords);
                let mut owned: Vec<(u32, Feature)> = Vec::new();
                for f in &features {
                    for cell in sd.cells_for_rect_vec(&f.geometry.envelope()) {
                        if sd.cell_to_rank(cell) == comm.rank() {
                            owned.push((cell, f.clone()));
                        }
                    }
                }
                let opts = EngineOptions {
                    chunk,
                    cache: if cache { ServeCache::Entries(64) } else { ServeCache::Off },
                    ..Default::default()
                };
                let mut eng = QueryEngine::from_parts(comm, sd, owned, &opts);
                let queries = mk_queries(&qseeds);
                let first = eng.serve(comm, &queries).unwrap();
                let second = eng.serve(comm, &queries).unwrap();
                let canon1: Vec<QueryAnswer> = first.answers.iter().map(canon).collect();
                let canon2: Vec<QueryAnswer> = second.answers.iter().map(canon).collect();
                let cache_hits = second.stats.answered_from_cache;
                (canon1, canon2, cache_hits)
            },
        );
        for (rank, (first, second, cache_hits)) in out.iter().enumerate() {
            prop_assert_eq!(
                first, &expected,
                "rank {}/{} ranks, policy {}, side {}, chunk {:?}, cache {}",
                rank, ranks, policy, side, chunk, cache
            );
            prop_assert_eq!(second, &expected, "second serve diverged on rank {}", rank);
            if cache {
                // Every repeated query must come from the cache.
                prop_assert_eq!(*cache_hits as usize, expected.len());
            } else {
                prop_assert_eq!(*cache_hits, 0u64);
            }
        }
    }

    /// The one-shot `range_query` path and the resident engine are two
    /// routes to the same answer: the sorted union of per-rank
    /// `range_query` matches must equal the engine's (already global)
    /// batch answer, which must equal the brute-force oracle.
    #[test]
    fn resident_engine_agrees_with_one_shot_range_query(
        ranks in 1usize..5,
        coords in proptest::collection::vec((0.0..WORLD, 0.0..WORLD), 1..24),
        window in (0.0..WORLD, 0.0..WORLD, 0.2f64..6.0),
    ) {
        let rect = Rect::new(
            (window.0 - window.2).max(0.0),
            (window.1 - window.2).max(0.0),
            (window.0 + window.2).min(WORLD),
            (window.1 + window.2).min(WORLD),
        );
        let features = mk_features(&coords);
        let expected = match oracle(&features, &Query::Range(rect)) {
            QueryAnswer::Matches(m) => m,
            _ => unreachable!(),
        };

        // Install the dataset as a WKT layer so range_query's whole
        // pipeline (read → partition → exchange → walk) runs for real.
        let fs = SimFs::new(FsConfig::gpfs_roger());
        let f = fs.create("oracle.wkt", None).unwrap();
        let mut text = format!("POINT (0.0 0.0)\tanchor-min\nPOINT ({WORLD} {WORLD})\tanchor-max\n");
        for feat in &features {
            text.push_str(&format!("{}\t{}\n", wkt::write(&feat.geometry), feat.userdata));
        }
        f.append(text.as_bytes());

        // Anchors are point features too: they match windows touching
        // the world's corners.
        let mut expected = expected;
        if rect.contains_point(&Point::new(0.0, 0.0)) {
            expected.push("anchor-min".into());
        }
        if rect.contains_point(&Point::new(WORLD, WORLD)) {
            expected.push("anchor-max".into());
        }
        expected.sort();

        let out = World::run(
            WorldConfig::new(Topology::single_node(ranks)),
            move |comm| {
                let rep = range_query(
                    comm,
                    &fs,
                    "oracle.wkt",
                    rect,
                    GridSpec::square(4),
                    // A fixed block size: the generated file can be
                    // smaller than `ranks × longest record`, where the
                    // default equal split would leave some rank a block
                    // with no record boundary in it.
                    &ReadOptions {
                        block_size: Some(1024),
                        ..Default::default()
                    },
                )
                .unwrap();
                rep.matches
            },
        );
        let mut union: Vec<String> = out.into_iter().flatten().collect();
        union.sort();
        prop_assert_eq!(union, expected);
    }
}
