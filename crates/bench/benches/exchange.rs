//! Criterion micro-benchmarks of the staged exchange: host wall-clock
//! cost of partitioning a layer and shipping it with the blocking
//! single-round protocol versus the chunked [`ExchangePlan`] at several
//! chunk sizes, on one simulated 4-rank world. (On a shared-memory host
//! the chunked plan mostly measures the per-round protocol overhead —
//! the splitter walk, the extra size exchanges, the per-round validation
//! — since the "network" is a memcpy; the deterministic virtual-time
//! overlap win is reported by `repro -- exchange`.)

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use mvio_core::decomp::UniformDecomposition;
use mvio_core::exchange::{exchange_serialized, ExchangeChunk, ExchangeOptions};
use mvio_core::grid::{CellMap, GridSpec, UniformGrid};
use mvio_core::pipeline::{partition_chunked, PipelineOptions};
use mvio_core::Feature;
use mvio_geom::{Geometry, Point, Rect};
use mvio_msim::{Topology, World, WorldConfig};
use std::sync::Arc;

const RANKS: usize = 4;
const CELLS: u32 = 12;

/// Per-rank features: every rank contributes userdata-weighted points
/// inside every cell, so each destination receives a multi-record stream
/// the chunked plan can split.
fn features_for(rank: usize, per_cell: usize) -> Vec<Feature> {
    let num_cells = CELLS * CELLS;
    (0..num_cells)
        .flat_map(move |c| {
            (0..per_cell).map(move |i| {
                let (x, y) = ((c % CELLS) as f64, (c / CELLS) as f64);
                let at = Point::new(x + (i as f64 + 0.5) / per_cell as f64, y + 0.5);
                Feature::with_userdata(
                    Geometry::Point(at),
                    format!("r{rank}c{c}i{i}:{}", "x".repeat(96)),
                )
            })
        })
        .collect()
}

fn decomp() -> UniformDecomposition {
    UniformDecomposition::new(
        UniformGrid::new(Rect::new(0.0, 0.0, CELLS as f64, CELLS as f64), {
            GridSpec::square(CELLS)
        }),
        CellMap::RoundRobin,
        RANKS,
    )
}

fn bench_exchange(c: &mut Criterion) {
    let per_cell = 6;
    let inputs: Arc<Vec<Vec<Feature>>> =
        Arc::new((0..RANKS).map(|r| features_for(r, per_cell)).collect());
    let bytes: u64 = inputs
        .iter()
        .flatten()
        .map(|f| f.userdata.len() as u64 + 64)
        .sum();
    let mut g = c.benchmark_group("exchange");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(bytes));
    for (label, chunk) in [
        ("blocking", ExchangeChunk::Unlimited),
        ("chunk-64KiB", ExchangeChunk::Bytes(64 << 10)),
        ("chunk-8KiB", ExchangeChunk::Bytes(8 << 10)),
    ] {
        let opts = ExchangeOptions::with_chunk(chunk);
        g.bench_function(label, |b| {
            b.iter(|| {
                let inputs = Arc::clone(&inputs);
                let out = World::run(
                    WorldConfig::new(Topology::single_node(RANKS)),
                    move |comm| {
                        let d = decomp();
                        let popts = PipelineOptions::default();
                        let feats = &inputs[comm.rank()];
                        let (batch, _) = partition_chunked(comm, &d, feats, &popts).unwrap();
                        let (mine, stats) = exchange_serialized(comm, batch, &opts).unwrap();
                        (mine.len(), stats.rounds)
                    },
                );
                black_box(out)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_exchange);
criterion_main!(benches);
