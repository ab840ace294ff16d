//! Criterion micro-benchmarks of the staged exchange: host wall-clock
//! cost of the blocking single-round protocol versus the chunked
//! [`ExchangePlan`] at several chunk sizes, on one simulated 4-rank
//! world. (On a shared-memory host the chunked plan mostly measures the
//! per-round protocol overhead — the splitter walk, the extra size
//! exchanges, the per-round validation — since the "network" is a
//! memcpy; the deterministic virtual-time overlap win is reported by
//! `repro -- exchange`.)

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use mvio_core::decomp::UniformDecomposition;
use mvio_core::exchange::{exchange_features, ExchangeChunk, ExchangeOptions, FrameStore};
use mvio_core::grid::{CellMap, GridSpec, UniformGrid};
use mvio_core::Feature;
use mvio_geom::{Geometry, Point, Rect};
use mvio_msim::{Topology, World, WorldConfig};
use std::sync::Arc;

const RANKS: usize = 4;
const CELLS: u32 = 12;

/// Per-rank pair list: every rank contributes userdata-weighted points
/// across every cell, so each destination receives a multi-record stream
/// the chunked plan can split.
fn pairs_for(rank: usize, per_cell: usize) -> Vec<(u32, Feature)> {
    let num_cells = CELLS * CELLS;
    (0..num_cells)
        .flat_map(move |c| {
            (0..per_cell).map(move |i| {
                (
                    c,
                    Feature::with_userdata(
                        Geometry::Point(Point::new(c as f64, i as f64)),
                        format!("r{rank}c{c}i{i}:{}", "x".repeat(96)),
                    ),
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
    let inputs: Arc<Vec<Vec<(u32, Feature)>>> =
        Arc::new((0..RANKS).map(|r| pairs_for(r, per_cell)).collect());
    let bytes: u64 = inputs
        .iter()
        .flatten()
        .map(|(_, f)| f.userdata.len() as u64 + 64)
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
                        let pairs = inputs[comm.rank()].clone();
                        let (mine, stats) = exchange_features(comm, pairs, &d, &opts).unwrap();
                        (
                            mine.iter().map(FrameStore::len).sum::<usize>(),
                            stats.rounds,
                        )
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
