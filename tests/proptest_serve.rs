//! Property-based oracle tests of the resident query engine: batched
//! distributed serving must answer exactly like a naive single-machine
//! brute-force pass over the whole dataset, for every decomposition
//! policy, rank count, exchange chunk size and cache setting.

mod common;

use common::{canon, mk_decomp, mk_features, mk_queries, oracle, owned_replicas, WORLD};
use mpi_vector_io::core::exchange::ExchangeChunk;
use mpi_vector_io::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

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
                let sd = mk_decomp(WORLD, policy, side, comm.size());
                let owned = owned_replicas(&*sd, &mk_features(&coords), comm.rank());
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
