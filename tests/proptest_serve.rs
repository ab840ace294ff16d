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
    /// queries — some of them submitted several times over — answers
    /// identically on every rank and identically to the naive
    /// brute-force oracle at every instance, including kNN ties (twin
    /// features at one location), `k` larger than the dataset and
    /// `k = u32::MAX`. Each distinct query is routed once; serving the
    /// same batch twice must also be idempotent (the second pass
    /// answers every instance from the cache when enabled).
    #[test]
    fn serve_matches_bruteforce_oracle_everywhere(
        (ranks_idx, side, policy, chunk_idx, cache) in
            (0usize..3, 1u32..6, 0u8..5, 0usize..3, any::<bool>()),
        coords in proptest::collection::vec((0.0..WORLD, 0.0..WORLD), 0..28),
        twins in proptest::collection::vec(any::<usize>(), 0..4),
        qseeds in proptest::collection::vec(
            (0u8..6, 0.0..WORLD, 0.0..WORLD, 0.05f64..4.0),
            1..7
        ),
        repeats in proptest::collection::vec(any::<usize>(), 0..5),
        all_at in proptest::collection::vec((0.0..WORLD, 0.0..WORLD), 0..2),
    ) {
        let ranks = [2usize, 4, 16][ranks_idx];
        let chunk = [
            ExchangeChunk::Unlimited,
            ExchangeChunk::Bytes(96),
            ExchangeChunk::Bytes(1024),
        ][chunk_idx];
        // A twin shares its original's location under another label: two
        // point features there are equidistant from everything.
        let mut coords = coords;
        if !coords.is_empty() {
            for t in twins {
                coords.push(coords[t % coords.len()]);
            }
        }
        let features = mk_features(&coords);
        // The batch: the generated queries, some of them submitted again
        // bit for bit, and sometimes a kNN asking for everything.
        let mut queries = mk_queries(&qseeds);
        for r in repeats {
            queries.push(queries[r % qseeds.len()]);
        }
        if let Some(&(x, y)) = all_at.first() {
            queries.push(Query::Knn {
                at: Point::new(x, y),
                k: u32::MAX,
            });
        }
        let expected: Vec<QueryAnswer> =
            queries.iter().map(|q| oracle(&features, q)).collect();
        let mut distinct: Vec<Query> = Vec::new();
        for q in &queries {
            if !distinct.contains(q) {
                distinct.push(*q);
            }
        }
        // `ServeStats::result_records` counts matches, not the answer
        // blocks that carry them: summed over the routed queries, the
        // range/point answer sizes plus, for a kNN, every owner's local
        // top-k — the answer's size before the issuer truncates it. A
        // feature counts on the rank owning its reference cell.
        let sd = mk_decomp(WORLD, policy, side, ranks);
        let mut reference_features = vec![0u64; ranks];
        for f in &features {
            let cell = sd
                .reference_cell(&f.geometry.envelope())
                .expect("features lie inside the world");
            reference_features[sd.cell_to_rank(cell)] += 1;
        }
        let routed_matches: u64 = distinct
            .iter()
            .map(|q| match q {
                Query::Knn { k, .. } => {
                    reference_features.iter().map(|&n| n.min(u64::from(*k))).sum()
                }
                q => oracle(&features, q).len() as u64,
            })
            .sum();

        let coords = Arc::new(coords);
        let batch = Arc::new(queries);
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
                let first = eng.serve(comm, &batch).unwrap();
                let second = eng.serve(comm, &batch).unwrap();
                let canon1: Vec<QueryAnswer> = first.answers.iter().map(canon).collect();
                let canon2: Vec<QueryAnswer> = second.answers.iter().map(canon).collect();
                (canon1, canon2, first.stats, second.stats)
            },
        );
        for (rank, (first, second, stats1, stats2)) in out.iter().enumerate() {
            prop_assert_eq!(
                first, &expected,
                "rank {}/{} ranks, policy {}, side {}, chunk {:?}, cache {}",
                rank, ranks, policy, side, chunk, cache
            );
            prop_assert_eq!(second, &expected, "second serve diverged on rank {}", rank);
            // The cold pass routes each distinct query exactly once.
            prop_assert_eq!(stats1.answered_from_cache, 0u64);
            prop_assert_eq!(stats1.routed as usize, distinct.len());
            prop_assert_eq!(stats1.result_records, routed_matches);
            // Blocks carry at least one match each, and never more
            // matches than were found.
            let blocks = stats1.result_exchange.records_received;
            prop_assert!(blocks <= routed_matches && (blocks > 0) == (routed_matches > 0));
            match chunk {
                // Uncapped, a query's answer is one block per owner.
                ExchangeChunk::Unlimited => {
                    prop_assert!(blocks <= (distinct.len() * ranks) as u64)
                }
                // A block closes at the cap (no entry here is near it).
                ExchangeChunk::Bytes(cap) => {
                    prop_assert!(stats1.result_exchange.bytes_received <= blocks * cap)
                }
            }
            if cache {
                // Every instance, repeats included, comes from the cache.
                prop_assert_eq!(stats2.answered_from_cache as usize, expected.len());
                prop_assert_eq!(stats2.routed, 0u64);
                prop_assert_eq!(stats2.result_records, 0u64);
            } else {
                prop_assert_eq!(stats2.answered_from_cache, 0u64);
                prop_assert_eq!(stats2.routed as usize, distinct.len());
                prop_assert_eq!(stats2.result_records, routed_matches);
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
