//! Property-based oracle tests of the resident query engine: batched
//! distributed serving must answer exactly like a naive single-machine
//! brute-force pass over the whole dataset, for every decomposition
//! policy, rank count, exchange chunk size and cache setting.

mod common;

use common::{
    assert_ledger_balances, canon, knn_reach_ranks, mk_decomp, mk_features, mk_queries, oracle,
    owned_replicas, reference_counts, resident, window_ranks, WORLD,
};
use mpi_vector_io::core::exchange::ExchangeChunk;
use mpi_vector_io::prelude::*;
use mpi_vector_io::sjoin::ServeStats;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Arc;

/// One serving configuration: world size, decomposition variant
/// ([`mk_decomp`]), grid side, exchange chunk and cache setting.
#[derive(Debug, Clone, Copy)]
struct Setup {
    ranks: usize,
    policy: u8,
    side: u32,
    chunk: ExchangeChunk,
    cache: bool,
}

/// Serves `queries` twice on every rank of a world holding `features`
/// and checks the answers against the brute-force oracle and the
/// traffic against its derivation from the feature list. Returns each
/// rank's first-pass counters.
///
/// `ServeStats::result_records` counts matches, not the answer blocks
/// that carry them: summed over the routed queries, the range/point
/// answer sizes plus, for a kNN, the local top-k of every rank its
/// reach bound selects ([`knn_reach_ranks`]) — the answer's size before
/// the issuer truncates it. A feature counts on the rank owning its
/// reference cell.
fn check_serve(
    setup: Setup,
    features: Vec<Feature>,
    queries: Vec<Query>,
) -> Result<Vec<ServeStats>, TestCaseError> {
    let Setup {
        ranks,
        policy,
        side,
        chunk,
        cache,
    } = setup;
    let expected: Vec<QueryAnswer> = queries.iter().map(|q| oracle(&features, q)).collect();
    let mut distinct: Vec<Query> = Vec::new();
    for q in &queries {
        if !distinct.contains(q) {
            distinct.push(*q);
        }
    }
    let features = Arc::new(features);
    let batch = Arc::new(queries);
    let shared = Arc::clone(&features);
    let out = World::run(
        WorldConfig::new(Topology::single_node(ranks)),
        move |comm| {
            // Every rank holds the same global dataset and keeps the
            // replicas it owns under the decomposition — the resident
            // state an ingest would have produced.
            let sd = mk_decomp(WORLD, policy, side, comm.size());
            let owned = owned_replicas(&sd, &shared, comm.rank());
            let opts = EngineOptions {
                chunk,
                cache: if cache {
                    ServeCache::Entries(64)
                } else {
                    ServeCache::Off
                },
                ..Default::default()
            };
            let store = resident(comm, &owned);
            let mut eng = QueryEngine::from_store(comm, sd, store, &opts);
            let first = eng.serve(comm, &batch).unwrap();
            let second = eng.serve(comm, &batch).unwrap();
            let canon1: Vec<QueryAnswer> = first.answers.iter().map(canon).collect();
            let canon2: Vec<QueryAnswer> = second.answers.iter().map(canon).collect();
            assert_ledger_balances(comm);
            let sd = eng.decomposition().clone();
            (canon1, canon2, first.stats, second.stats, sd)
        },
    );
    // The traffic follows the decomposition the engine serves under: the
    // build may have re-balanced the one the replicas were landed with.
    let sd = out[0].4.clone();
    let reference = reference_counts(&sd, &features);
    let (mut routed_matches, mut shipped) = (0u64, 0u64);
    for q in &distinct {
        let (dests, matches) = match *q {
            Query::Knn { at, k } => {
                let dests = knn_reach_ranks(&sd, &features, &at, k);
                let local = |r: &usize| reference[*r].min(u64::from(k));
                let matches = dests.iter().map(local).sum();
                (dests, matches)
            }
            Query::Range(r) => (window_ranks(&sd, &r), oracle(&features, q).len() as u64),
            Query::Point(p) => {
                let matches = oracle(&features, q).len() as u64;
                (window_ranks(&sd, &p.envelope()), matches)
            }
        };
        shipped += dests.len() as u64;
        routed_matches += matches;
    }

    let mut firsts = Vec::new();
    for (rank, (first, second, stats1, stats2, _)) in out.into_iter().enumerate() {
        prop_assert_eq!(&first, &expected, "rank {}, {:?}", rank, setup);
        prop_assert_eq!(&second, &expected, "second serve diverged on rank {}", rank);
        // The cold pass routes each distinct query exactly once, to the
        // ranks derived above.
        prop_assert_eq!(stats1.answered_from_cache, 0u64);
        prop_assert_eq!(stats1.routed as usize, distinct.len());
        prop_assert_eq!(stats1.shipped_records, shipped);
        prop_assert_eq!(stats1.result_records, routed_matches);
        // Blocks carry at least one match each, and never more
        // matches than were found.
        let blocks = stats1.result_exchange.records_received;
        prop_assert!(blocks <= routed_matches && (blocks > 0) == (routed_matches > 0));
        match chunk {
            // Uncapped, a query's answer is one block per owner.
            ExchangeChunk::Unlimited => prop_assert!(blocks <= shipped),
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
        firsts.push(stats1);
    }
    Ok(firsts)
}

/// kNN traffic at its edges, on a 4 × 4 grid of the world where every
/// feature of the five below sits in a cell of its own: twin points
/// exactly at the k-th distance in cells of different owners, a centre
/// outside the bounds, a centre on a feature (a zero bound), `k` at and
/// past the dataset, and `k = u32::MAX`, which reaches every rank holding
/// data and no other.
#[test]
fn knn_traffic_edge_cases() {
    // Indices 0 and 1 are a square and a segment (`mk_features`), the
    // rest points: the twins f002 and f003 lie 3 from (8, 6), one cell
    // column apart.
    let coords = [
        (1.0, 1.0),
        (2.0, 14.0),
        (5.0, 6.0),
        (11.0, 6.0),
        (15.0, 15.0),
    ];
    let twins_at = Point::new(8.0, 6.0);
    // A centre outside the bounds, and one on f002 itself, alone in its
    // cell: that cell's bound is exactly 0.
    let mut queries = vec![
        Query::Knn {
            at: Point::new(-5.0, 20.0),
            k: 1,
        },
        Query::Knn {
            at: Point::new(5.0, 6.0),
            k: 1,
        },
    ];
    for k in [1, 2, 3, 5, 6] {
        queries.push(Query::Knn { at: twins_at, k });
    }
    let everything = Query::Knn {
        at: twins_at,
        k: u32::MAX,
    };
    queries.push(everything);
    for (ranks, policy) in [(4, 0), (16, 0), (16, 1), (2, 2)] {
        let setup = Setup {
            ranks,
            policy,
            side: 4,
            chunk: ExchangeChunk::Unlimited,
            cache: false,
        };
        let features = mk_features(&coords);
        let sd = mk_decomp(WORLD, policy, 4, ranks);
        let holding = reference_counts(&sd, &features)
            .iter()
            .filter(|&&n| n > 0)
            .count();
        check_serve(setup, features.clone(), queries.clone()).unwrap();
        let stats = check_serve(setup, features, vec![everything]).unwrap();
        for s in stats {
            assert_eq!(s.shipped_records as usize, holding, "{setup:?}");
        }
    }
    // The twins tie at the first neighbour's distance and the lower
    // label wins; their cells belong to different ranks under the
    // 16-rank round-robin map, and both are asked.
    let sd = mk_decomp(WORLD, 0, 4, 16);
    assert_eq!(
        knn_reach_ranks(&sd, &mk_features(&coords), &twins_at, 1),
        vec![5, 6]
    );
    let QueryAnswer::Matches(first) = oracle(&mk_features(&coords), &queries[2]) else {
        unreachable!()
    };
    assert_eq!(first, vec!["3.000000000:f002".to_string()]);
}

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
    /// `k = u32::MAX`. Each distinct query is routed once, to exactly
    /// the ranks derived from the feature list; serving the same batch
    /// twice must also be idempotent (the second pass answers every
    /// instance from the cache when enabled).
    #[test]
    fn serve_matches_bruteforce_oracle_everywhere(
        (ranks_idx, side, policy, chunk_idx, cache) in
            (0usize..3, 1u32..6, 0u8..4, 0usize..3, any::<bool>()),
        coords in proptest::collection::vec((0.0..WORLD, 0.0..WORLD), 0..28),
        twins in proptest::collection::vec(any::<usize>(), 0..4),
        qseeds in proptest::collection::vec(
            (0u8..6, 0.0..WORLD, 0.0..WORLD, 0.05f64..4.0),
            1..7
        ),
        repeats in proptest::collection::vec(any::<usize>(), 0..5),
        all_at in proptest::collection::vec((0.0..WORLD, 0.0..WORLD), 0..2),
    ) {
        let setup = Setup {
            ranks: [2usize, 4, 16][ranks_idx],
            policy,
            side,
            chunk: [
                ExchangeChunk::Unlimited,
                ExchangeChunk::Bytes(96),
                ExchangeChunk::Bytes(1024),
            ][chunk_idx],
            cache,
        };
        // A twin shares its original's location under another label: two
        // point features there are equidistant from everything.
        let mut coords = coords;
        if !coords.is_empty() {
            for t in twins {
                coords.push(coords[t % coords.len()]);
            }
        }
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
        check_serve(setup, mk_features(&coords), queries)?;
    }

    /// An engine built from a WKT file — read, partition, exchange,
    /// index — answers a range window on every rank exactly like the
    /// brute-force oracle.
    #[test]
    fn ingested_engine_range_matches_bruteforce_oracle(
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

        // Install the dataset as a WKT layer so the whole pipeline
        // (read → partition → exchange → index → serve) runs for real.
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
                // A fixed block size: the generated file can be smaller
                // than `ranks × longest record`, where the default equal
                // split would leave some rank a block with no record
                // boundary in it.
                let read = ReadOptions {
                    block_size: Some(1024),
                    ..Default::default()
                };
                let (cfg, pipe) = (DecompConfig::uniform(GridSpec::square(4)), Default::default());
                let out = pipeline::ingest(comm, &fs, "oracle.wkt", &read, &WktLineParser, &cfg, &pipe);
                let mut eng = QueryEngine::from_ingest(comm, out.unwrap(), &EngineOptions::default());
                eng.serve(comm, &[Query::Range(rect)]).unwrap().answers
            },
        );
        for answers in out {
            prop_assert_eq!(answers, vec![QueryAnswer::Matches(expected.clone())]);
        }
    }
}
