//! Property-based test of the streaming ingest pipeline: for *any* worker
//! count, chunk sizes, rank count, chunk policy, window count and input,
//! the pipelined parse → cell-map → serialize → exchange produces exactly
//! the pairs a sequential parse → project → serialize → exchange produces
//! (with sliding windows: the same records of every cell, in the same
//! order).

mod common;

use common::{dataset_text, fs_with, materialize};
use mpi_vector_io::core::decomp::{self, DecompConfig};
use mpi_vector_io::core::exchange::{exchange_serialized, serialize_record, SerializedBatch};
use mpi_vector_io::core::grid::GridSpec;
use mpi_vector_io::core::pipeline::{self, PipelineOptions};
use mpi_vector_io::core::reader::parse_buffer_serial;
use mpi_vector_io::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    // Every case spawns 2 worlds of threads; keep the count moderate.
    // Seed pinned so CI failures are reproducible (PROPTEST_SEED overrides).
    #![proptest_config(ProptestConfig::with_cases(12).with_seed(0x6d76_696f_7069_7065))]

    #[test]
    fn pipelined_ingest_equals_the_sequential_path(
        records in 0usize..150,
        salt in 0u64..1_000,
        workers in 1usize..9,
        ranks in 1usize..4,
        chunk_bytes in 32usize..2048,
        chunk_records in 1usize..64,
        windows in 1u32..4,
        // Below 64: the blocking exchange; otherwise a per-round cap.
        cap in 0u64..4096,
    ) {
        let text = dataset_text(records, salt, (50.0, 30.0), (4.0, 3.0), 1.0);
        let fs = fs_with(FsConfig::lustre_comet(), "d.wkt", &text);
        fs.set_active_ranks(ranks);
        let read = ReadOptions::default().with_block_size(4 << 10);
        let spec = GridSpec::square(5);

        let sequential = {
            let fs = Arc::clone(&fs);
            World::run(WorldConfig::new(Topology::single_node(ranks)), move |comm| {
                let text = read_partition_text(comm, &fs, "d.wkt", &read).unwrap();
                let feats = parse_buffer_serial(&text, &WktLineParser).unwrap();
                let sd = decomp::build_global(comm, &[&feats], &DecompConfig::uniform(spec));
                let mut batch = SerializedBatch::empty(comm.size());
                for f in &feats {
                    for cell in sd.cells_for_rect_vec(&f.geometry.envelope()) {
                        let dst = sd.cell_to_rank(cell);
                        serialize_record(cell, f, &mut Vec::new(), &mut batch.bufs[dst]).unwrap();
                        batch.records[dst] += 1;
                    }
                }
                let (store, _) =
                    exchange_serialized(comm, batch, &ExchangeOptions::default()).unwrap();
                materialize(store.frames())
            })
        };

        let chunk = if cap < 64 { ExchangeChunk::Unlimited } else { ExchangeChunk::Bytes(cap) };
        let pipelined = {
            let fs = Arc::clone(&fs);
            World::run(WorldConfig::new(Topology::single_node(ranks)), move |comm| {
                let opts = PipelineOptions::default()
                    .with_workers(workers)
                    .with_parse_chunk_bytes(chunk_bytes)
                    .with_partition_chunk_records(chunk_records);
                let rep = pipeline::ingest_with_exchange(
                    comm,
                    &fs,
                    "d.wkt",
                    &read,
                    &WktLineParser,
                    &DecompConfig::uniform(spec),
                    &opts,
                    &ExchangeOptions { windows, chunk },
                )
                .unwrap();
                materialize(rep.owned.frames())
            })
        };

        if windows == 1 {
            prop_assert_eq!(sequential, pipelined);
        } else {
            // Each rank's records grouped by cell, each cell's in order.
            let by_cell = |per_rank: Vec<Vec<(u32, Feature)>>| -> Vec<Vec<(u32, Feature)>> {
                per_rank
                    .into_iter()
                    .map(|mut pairs| {
                        pairs.sort_by_key(|(cell, _)| *cell);
                        pairs
                    })
                    .collect()
            };
            prop_assert_eq!(by_cell(sequential), by_cell(pipelined));
        }
    }
}
