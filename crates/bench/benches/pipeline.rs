//! Criterion micro-benchmarks of the streaming ingest pipeline: wall-clock
//! cost of the chunked parallel parse and the fused cell-map + serialize
//! stage at several worker counts. (On a single hardware thread the worker
//! sweep mostly measures the fan-out overhead; the deterministic
//! virtual-time speedup is reported by `repro -- pipeline`.)

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use mvio_core::decomp::{DecompPolicy, Decomposition};
use mvio_core::grid::{CellMap, GridSpec, UniformGrid};
use mvio_core::pipeline::{parse_chunked, partition_chunked, PipelineOptions};
use mvio_core::reader::{parse_buffer_serial, WktLineParser};
use mvio_geom::Rect;
use mvio_msim::{Topology, World, WorldConfig};
use std::sync::Arc;

fn sample_text(records: usize) -> String {
    let mut text = String::new();
    for i in 0..records {
        let x = (i % 64) as f64 * 0.8;
        let y = (i / 64) as f64 * 1.2;
        text.push_str(&format!(
            "POLYGON (({x} {y}, {} {y}, {} {}, {x} {}, {x} {y}))\tpoly-{i}\n",
            x + 1.4,
            x + 1.4,
            y + 0.9,
            y + 0.9
        ));
    }
    text
}

fn bench_parse(c: &mut Criterion) {
    // Arc-shared input: iterations clone a pointer, not the payload, so
    // the reported throughput measures the pipeline rather than memcpy.
    let text = Arc::new(sample_text(4000));
    let mut g = c.benchmark_group("pipeline_parse");
    g.throughput(Throughput::Bytes(text.len() as u64));
    for workers in [1usize, 2, 4] {
        let opts = PipelineOptions::default()
            .with_workers(workers)
            .with_parse_chunk_bytes(16 << 10);
        g.bench_function(&format!("workers/{workers}"), |b| {
            b.iter(|| {
                let text = Arc::clone(&text);
                World::run(WorldConfig::new(Topology::single_node(1)), move |comm| {
                    parse_chunked(comm, &text, &WktLineParser, &opts)
                        .unwrap()
                        .0
                        .len()
                })
            })
        });
    }
    g.finish();
}

fn bench_partition(c: &mut Criterion) {
    let text = sample_text(4000);
    let feats = Arc::new(parse_buffer_serial(&text, &WktLineParser).unwrap());
    let mut g = c.benchmark_group("pipeline_partition");
    g.throughput(Throughput::Elements(feats.len() as u64));
    for workers in [1usize, 2, 4] {
        let opts = PipelineOptions::default()
            .with_workers(workers)
            .with_partition_chunk_records(512);
        let feats = Arc::clone(&feats);
        g.bench_function(&format!("workers/{workers}"), |b| {
            b.iter(|| {
                let feats = Arc::clone(&feats);
                World::run(WorldConfig::new(Topology::single_node(4)), move |comm| {
                    let grid =
                        UniformGrid::new(Rect::new(0.0, 0.0, 60.0, 80.0), GridSpec::square(16));
                    let rr = DecompPolicy::Uniform(CellMap::RoundRobin);
                    let decomp = Decomposition::new(grid, rr, None, comm.size()).unwrap();
                    let (batch, _) = partition_chunked(comm, &decomp, &feats, &opts).unwrap();
                    black_box(batch.bufs.iter().map(|b| b.len()).sum::<usize>())
                })
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_parse, bench_partition);
criterion_main!(benches);
