//! Property-based tests of the decomposition/exchange layer: conservation
//! of features through arbitrary exchanges, decomposition policies,
//! chunk policies and rank counts.

mod common;

use common::{fs_with, materialize, mk_decomp, mk_policy};
use mpi_vector_io::core::exchange::{
    exchange_serialized, serialize_record, ExchangeChunk, ExchangeStats, FrameStore, RecordFrame,
    SerializedBatch,
};
use mpi_vector_io::core::pipeline::ingest_layers;
use mpi_vector_io::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Every rank's received frames, compared byte for byte.
fn frames(per_rank: &[FrameStore]) -> Vec<Vec<RecordFrame<'_>>> {
    per_rank
        .iter()
        .map(|store| store.frames().collect())
        .collect()
}

/// Rank `rank`'s `items` fabricated pairs, as `(cell, tag)`: cells spread
/// over all `num_cells`, tags naming their origin.
fn fabricated(rank: usize, items: usize, num_cells: u32) -> Vec<(u32, String)> {
    (0..items)
        .map(|i| {
            (
                ((rank * 31 + i * 7) as u32) % num_cells,
                format!("r{rank}i{i}"),
            )
        })
        .collect()
}

/// Ships every fabricated pair as a point at the centre of its cell,
/// serialized to the cell's owner, through `exchange_serialized`.
fn exchange_items(
    comm: &mut Comm,
    decomp: &Decomposition,
    items: &[(u32, String)],
    chunk: ExchangeChunk,
) -> (FrameStore, ExchangeStats) {
    let mut batch = SerializedBatch::empty(comm.size());
    for (cell, tag) in items {
        let centre = Geometry::Point(decomp.cell_rect(*cell).center());
        let dst = decomp.cell_to_rank(*cell);
        let f = Feature::with_userdata(centre, tag);
        serialize_record(*cell, &f, &mut Vec::new(), &mut batch.bufs[dst]).unwrap();
        batch.records[dst] += 1;
    }
    exchange_serialized(comm, batch, chunk).unwrap()
}

proptest! {
    // Worlds spawn threads; keep case counts moderate. Seed pinned so
    // CI failures are reproducible (PROPTEST_SEED overrides).
    #![proptest_config(ProptestConfig::with_cases(24).with_seed(0x6d76_696f_6578_6368))]

    #[test]
    fn exchange_conserves_every_pair(
        ranks in 1usize..5,
        side in 1u32..6,
        policy in 0u8..4,
        items_per_rank in 0usize..30,
    ) {
        let num_cells = side * side;
        let out = World::run(
            WorldConfig::new(Topology::single_node(ranks)),
            move |comm| {
                let decomp = mk_decomp(side as f64, policy, side, comm.size());
                // Each rank fabricates pairs tagged with origin info.
                let items = fabricated(comm.rank(), items_per_rank, num_cells);
                let chunk = ExchangeChunk::Unlimited;
                let (store, stats) = exchange_items(comm, &decomp, &items, chunk);
                let mine = materialize(store.frames());
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

    /// The chunked plan's oracle: for arbitrary chunk sizes and
    /// decomposition policies, the chunked overlapped exchange returns
    /// exactly — bit for bit, order included — what the single-round
    /// blocking protocol returns.
    #[test]
    fn chunked_exchange_is_bit_identical_to_blocking(
        ranks in 1usize..5,
        side in 1u32..6,
        policy in 0u8..4,
        chunk in prop_oneof![1u64..48, 48u64..4096],
        items_per_rank in 0usize..30,
    ) {
        let num_cells = side * side;
        let run = |chunk: ExchangeChunk| {
            World::run(
                WorldConfig::new(Topology::single_node(ranks)),
                move |comm| {
                    let decomp = mk_decomp(side as f64, policy, side, comm.size());
                    let items = fabricated(comm.rank(), items_per_rank, num_cells);
                    exchange_items(comm, &decomp, &items, chunk).0
                },
            )
        };
        let blocking = run(ExchangeChunk::Unlimited);
        let chunked = run(ExchangeChunk::Bytes(chunk));
        prop_assert_eq!(frames(&chunked), frames(&blocking));
    }

    /// Same oracle for the fused partition+exchange overlap path: the
    /// frames `ingest_layers` receives under a byte cap match its
    /// unfused map-everything-then-block path for any chunk size, worker
    /// count and decomposition policy.
    #[test]
    fn overlapped_partition_exchange_matches_unfused(
        ranks in 1usize..4,
        side in 2u32..6,
        policy in 0u8..4,
        workers in 1usize..5,
        chunk in prop_oneof![1u64..64, 64u64..8192],
        features_per_rank in 0usize..25,
    ) {
        let mut text = String::new();
        for rank in 0..ranks {
            for i in 0..features_per_rank {
                let x = ((rank * 17 + i * 3) % (side as usize * 10)) as f64 / 10.0;
                let y = ((rank * 5 + i * 11) % (side as usize * 10)) as f64 / 10.0;
                text.push_str(&format!("POINT ({x} {y})\tr{rank}f{i}\n"));
            }
        }
        let fs = fs_with(FsConfig::lustre_comet(), "d.wkt", &text);
        fs.set_active_ranks(ranks);
        let cfg = DecompConfig {
            grid: GridSpec::square(side),
            policy: mk_policy(policy),
        };
        let popts = PipelineOptions::default()
            .with_workers(workers)
            .with_partition_chunk_records(7);
        let run = |chunk: ExchangeChunk| {
            let fs = Arc::clone(&fs);
            World::run(WorldConfig::new(Topology::single_node(ranks)), move |comm| {
                let read = ReadOptions::default().with_block_size(256);
                let paths = ["d.wkt"];
                let parser = &WktLineParser;
                let out = ingest_layers(comm, &fs, &paths, &read, parser, &cfg, &popts, chunk);
                out.unwrap().layers.pop().unwrap().owned
            })
        };
        let unfused = run(ExchangeChunk::Unlimited);
        let fused = run(ExchangeChunk::Bytes(chunk));
        prop_assert_eq!(frames(&fused), frames(&unfused));
    }

    #[test]
    fn every_decomposition_partitions_cells(
        side in 1u32..9,
        ranks in 1usize..9,
        policy in 0u8..4,
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
