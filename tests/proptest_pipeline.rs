//! Property-based test of the streaming ingest pipeline: for *any* worker
//! count, chunk sizes, rank count and input, the pipelined
//! parse → cell-map → serialize → exchange produces exactly the pairs the
//! sequential parse → project → exchange path produces.

mod common;

use common::{dataset_text, fs_with, materialize};
use mpi_vector_io::core::decomp::{self, DecompConfig};
use mpi_vector_io::core::exchange::{exchange_features, ExchangeOptions, FrameStore};
use mpi_vector_io::core::grid::GridSpec;
use mpi_vector_io::core::pipeline::{self, PipelineOptions};
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
    ) {
        let text = dataset_text(records, salt, (50.0, 30.0), (4.0, 3.0), 1.0);
        let fs = fs_with(FsConfig::lustre_comet(), "d.wkt", &text);
        fs.set_active_ranks(ranks);
        let read = ReadOptions::default().with_block_size(4 << 10);
        let spec = GridSpec::square(5);

        let sequential = {
            let fs = Arc::clone(&fs);
            World::run(WorldConfig::new(Topology::single_node(ranks)), move |comm| {
                let feats = read_features(comm, &fs, "d.wkt", &read, &WktLineParser).unwrap();
                let sd = decomp::build_global(comm, &[&feats], &DecompConfig::uniform(spec));
                let pairs: Vec<(u32, Feature)> = feats
                    .iter()
                    .flat_map(|f| {
                        sd.cells_for_rect_vec(&f.geometry.envelope())
                            .into_iter()
                            .map(|c| (c, f.clone()))
                            .collect::<Vec<_>>()
                    })
                    .collect();
                let (stores, _) =
                    exchange_features(comm, pairs, &*sd, &ExchangeOptions::default()).unwrap();
                materialize(stores.iter().flat_map(FrameStore::frames))
            })
        };

        let pipelined = {
            let fs = Arc::clone(&fs);
            World::run(WorldConfig::new(Topology::single_node(ranks)), move |comm| {
                let opts = PipelineOptions::default()
                    .with_workers(workers)
                    .with_parse_chunk_bytes(chunk_bytes)
                    .with_partition_chunk_records(chunk_records);
                let rep = pipeline::ingest(
                    comm,
                    &fs,
                    "d.wkt",
                    &read,
                    &WktLineParser,
                    &DecompConfig::uniform(spec),
                    &opts,
                )
                .unwrap();
                materialize(rep.owned.frames())
            })
        };

        prop_assert_eq!(sequential, pipelined);
    }
}
