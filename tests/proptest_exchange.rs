//! Property-based tests of the decomposition/exchange layer: conservation
//! of features through arbitrary exchanges, decomposition policies,
//! windows and rank counts.

mod common;

use common::mk_decomp;
use mpi_vector_io::core::exchange::{
    exchange_features, exchange_serialized_with, ExchangeChunk, ExchangeOptions,
};
use mpi_vector_io::core::pipeline::{partition_chunked, partition_exchange_overlapped};
use mpi_vector_io::prelude::*;
use proptest::prelude::*;

proptest! {
    // Worlds spawn threads; keep case counts moderate. Seed pinned so
    // CI failures are reproducible (PROPTEST_SEED overrides).
    #![proptest_config(ProptestConfig::with_cases(24).with_seed(0x6d76_696f_6578_6368))]

    #[test]
    fn exchange_conserves_every_pair(
        ranks in 1usize..5,
        side in 1u32..6,
        windows in 1u32..4,
        policy in 0u8..5,
        items_per_rank in 0usize..30,
    ) {
        let num_cells = side * side;
        let out = World::run(
            WorldConfig::new(Topology::single_node(ranks)),
            move |comm| {
                let decomp = mk_decomp(side as f64, policy, side, comm.size());
                // Each rank fabricates pairs tagged with origin info.
                let pairs: Vec<(u32, Feature)> = (0..items_per_rank)
                    .map(|i| {
                        let cell = ((comm.rank() * 31 + i * 7) as u32) % num_cells;
                        let f = Feature::with_userdata(
                            Geometry::Point(Point::new(i as f64, comm.rank() as f64)),
                            format!("r{}i{}", comm.rank(), i),
                        );
                        (cell, f)
                    })
                    .collect();
                let opts = ExchangeOptions {
                    windows,
                    ..Default::default()
                };
                let (mine, stats) = exchange_features(comm, pairs, &*decomp, &opts).unwrap();
                // Ownership: every received pair belongs to me.
                for (cell, _) in &mine {
                    assert_eq!(decomp.cell_to_rank(*cell), comm.rank());
                }
                let tags: Vec<String> =
                    mine.iter().map(|(c, f)| format!("{c}:{}", f.userdata)).collect();
                (tags, stats.records_sent, stats.records_received)
            },
        );
        // Global conservation: the multiset of (cell, origin) tags equals
        // what was fabricated.
        let mut got: Vec<String> = out.iter().flat_map(|(t, _, _)| t.clone()).collect();
        got.sort();
        let mut expect: Vec<String> = (0..ranks)
            .flat_map(|r| {
                (0..items_per_rank).map(move |i| {
                    let cell = ((r * 31 + i * 7) as u32) % num_cells;
                    format!("{cell}:r{r}i{i}")
                })
            })
            .collect();
        expect.sort();
        prop_assert_eq!(got, expect);
        // Sent == received globally.
        let sent: u64 = out.iter().map(|(_, s, _)| s).sum();
        let recv: u64 = out.iter().map(|(_, _, r)| r).sum();
        prop_assert_eq!(sent, recv);
    }

    #[test]
    fn projection_covers_envelope_for_arbitrary_rects(
        side in 1u32..8,
        rects in proptest::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.1f64..30.0, 0.1f64..30.0),
            1..40
        ),
    ) {
        let grid = UniformGrid::new(Rect::new(0.0, 0.0, 100.0, 100.0), GridSpec::square(side));
        for (x, y, w, h) in rects {
            let r = Rect::new(x, y, (x + w).min(100.0), (y + h).min(100.0));
            let cells = grid.cells_overlapping(&r);
            prop_assert!(!cells.is_empty(), "in-bounds rect must map somewhere");
            // Union of mapped cells covers the rect.
            let union = cells
                .iter()
                .fold(Rect::EMPTY, |a, &c| a.union(&grid.cell_rect(c)));
            prop_assert!(union.contains(&r), "cells {cells:?} must cover {r:?}");
            // And every mapped cell genuinely intersects the rect.
            for &c in &cells {
                prop_assert!(grid.cell_rect(c).intersects(&r));
            }
        }
    }

    /// The PR's oracle: for arbitrary chunk sizes, windows and
    /// decomposition policies, the chunked overlapped exchange returns
    /// exactly — bit for bit, order included — what the single-round
    /// blocking protocol returns.
    #[test]
    fn chunked_exchange_is_bit_identical_to_blocking(
        ranks in 1usize..5,
        side in 1u32..6,
        windows in 1u32..3,
        policy in 0u8..5,
        chunk in prop_oneof![1u64..48, 48u64..4096],
        items_per_rank in 0usize..30,
    ) {
        let num_cells = side * side;
        let run = |chunk: ExchangeChunk| {
            World::run(
                WorldConfig::new(Topology::single_node(ranks)),
                move |comm| {
                    let decomp = mk_decomp(side as f64, policy, side, comm.size());
                    let pairs: Vec<(u32, Feature)> = (0..items_per_rank)
                        .map(|i| {
                            let cell = ((comm.rank() * 31 + i * 7) as u32) % num_cells;
                            let f = Feature::with_userdata(
                                Geometry::Point(Point::new(i as f64, comm.rank() as f64)),
                                format!("r{}i{}", comm.rank(), i),
                            );
                            (cell, f)
                        })
                        .collect();
                    let opts = ExchangeOptions { windows, chunk };
                    exchange_features(comm, pairs, &*decomp, &opts).unwrap().0
                },
            )
        };
        let blocking = run(ExchangeChunk::Unlimited);
        let chunked = run(ExchangeChunk::Bytes(chunk));
        prop_assert_eq!(chunked, blocking);
    }

    /// Same oracle for the fused partition+exchange overlap path: the
    /// owned pairs match the unfused serialize-everything-then-block
    /// pipeline for any chunk size, worker count and policy.
    #[test]
    fn overlapped_partition_exchange_matches_unfused(
        ranks in 1usize..4,
        side in 2u32..6,
        policy in 0u8..5,
        workers in 1usize..5,
        chunk in prop_oneof![1u64..64, 64u64..8192],
        features_per_rank in 0usize..25,
    ) {
        let mk_features = |rank: usize| -> Vec<Feature> {
            (0..features_per_rank)
                .map(|i| {
                    let x = ((rank * 17 + i * 3) % (side as usize * 10)) as f64 / 10.0;
                    let y = ((rank * 5 + i * 11) % (side as usize * 10)) as f64 / 10.0;
                    Feature::with_userdata(
                        Geometry::Point(Point::new(x, y)),
                        format!("r{rank}f{i}"),
                    )
                })
                .collect()
        };
        let popts = PipelineOptions::default()
            .with_workers(workers)
            .with_partition_chunk_records(7);
        let unfused = World::run(
            WorldConfig::new(Topology::single_node(ranks)),
            move |comm| {
                let decomp = mk_decomp(side as f64, policy, side, comm.size());
                let feats = mk_features(comm.rank());
                let (batch, _) = partition_chunked(comm, &*decomp, &feats, &popts).unwrap();
                exchange_serialized_with(
                    comm,
                    batch,
                    &ExchangeOptions::with_chunk(ExchangeChunk::Unlimited),
                )
                .unwrap()
                .0
            },
        );
        let fused = World::run(
            WorldConfig::new(Topology::single_node(ranks)),
            move |comm| {
                let decomp = mk_decomp(side as f64, policy, side, comm.size());
                let feats = mk_features(comm.rank());
                partition_exchange_overlapped(comm, &*decomp, &feats, &popts, chunk)
                    .unwrap()
                    .0
            },
        );
        prop_assert_eq!(fused, unfused);
    }

    #[test]
    fn every_decomposition_partitions_cells(
        side in 1u32..9,
        ranks in 1usize..9,
        policy in 0u8..5,
    ) {
        let decomp = mk_decomp(side as f64, policy, side, ranks);
        let mut seen = vec![0u32; decomp.num_cells() as usize];
        for rank in 0..ranks {
            for c in decomp.cells_of_rank(rank) {
                seen[c as usize] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&n| n == 1), "{decomp:?}: {seen:?}");
    }
}
