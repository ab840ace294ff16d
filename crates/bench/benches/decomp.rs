//! Criterion micro-benchmarks of the spatial decompositions: wall-clock
//! cost of building each policy and of the fused cell-map/serialize stage
//! routed through it, on a clustered (skewed) feature set. The
//! deterministic virtual-time and load-imbalance comparison lives in
//! `repro -- decomp`; this measures the host-side overhead of the
//! policies themselves (table lookups vs arithmetic round-robin).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use mvio_core::decomp::{DecompPolicy, Decomposition, SpatialDecomposition};
use mvio_core::grid::{CellMap, GridSpec, UniformGrid};
use mvio_core::pipeline::{partition_chunked, PipelineOptions};
use mvio_core::reader::{parse_buffer_serial, WktLineParser};
use mvio_core::Feature;
use mvio_geom::Rect;
use mvio_msim::{Topology, World, WorldConfig};
use std::sync::Arc;

const RANKS: usize = 4;

/// A clustered synthetic layer: most features piled into one corner
/// hotspot, the remainder spread out — the skew the adaptive policy
/// targets.
fn clustered_features(records: usize) -> Vec<Feature> {
    let mut text = String::new();
    for i in 0..records {
        let (x, y) = if i % 4 != 0 {
            // Hotspot: a tight pile near the origin.
            ((i % 13) as f64 * 0.08, ((i / 13) % 11) as f64 * 0.09)
        } else {
            // Background: spread over the full extent.
            ((i % 53) as f64 * 1.8, ((i / 53) % 37) as f64 * 2.5)
        };
        text.push_str(&format!(
            "POLYGON (({x} {y}, {} {y}, {} {}, {x} {}, {x} {y}))\tf-{i}\n",
            x + 0.6,
            x + 0.6,
            y + 0.5,
            y + 0.5
        ));
    }
    parse_buffer_serial(&text, &WktLineParser).unwrap()
}

fn grid(spec: GridSpec) -> UniformGrid {
    UniformGrid::new(Rect::new(0.0, 0.0, 96.0, 93.0), spec)
}

/// Per-cell reference-corner histogram for the adaptive build.
fn histogram(g: &UniformGrid, feats: &[Feature]) -> Vec<u64> {
    let mut counts = vec![0u64; g.num_cells() as usize];
    for f in feats {
        let env = f.geometry.envelope();
        let corner = Rect::new(env.min_x, env.min_y, env.min_x, env.min_y);
        if let Some(&c) = g.cells_overlapping(&corner).first() {
            counts[c as usize] += 1;
        }
    }
    counts
}

fn mk_decomp(name: &str, feats: &[Feature]) -> Decomposition {
    let base = grid(GridSpec::square(16));
    match name {
        "uniform" => {
            let rr = DecompPolicy::Uniform(CellMap::RoundRobin);
            Decomposition::new(base, rr, None, RANKS)
        }
        "hilbert" => Decomposition::new(base, DecompPolicy::Hilbert, None, RANKS),
        _ => {
            let g = grid(GridSpec::square(128));
            let counts = histogram(&g, feats);
            Decomposition::new(g, DecompPolicy::adaptive(), Some(&counts), RANKS)
        }
    }
    .unwrap()
}

fn bench_build(c: &mut Criterion) {
    let feats = clustered_features(4000);
    let mut g = c.benchmark_group("decomp_build");
    for name in ["uniform", "hilbert", "adaptive"] {
        g.bench_function(name, |b| {
            b.iter(|| black_box(mk_decomp(name, &feats).num_cells()))
        });
    }
    g.finish();
}

fn bench_partition(c: &mut Criterion) {
    let feats = Arc::new(clustered_features(4000));
    let mut g = c.benchmark_group("decomp_partition");
    g.throughput(Throughput::Elements(feats.len() as u64));
    for name in ["uniform", "hilbert", "adaptive"] {
        let feats = Arc::clone(&feats);
        g.bench_function(name, |b| {
            b.iter(|| {
                let feats = Arc::clone(&feats);
                World::run(
                    WorldConfig::new(Topology::single_node(RANKS)),
                    move |comm| {
                        let decomp = mk_decomp(name, &feats);
                        let opts = PipelineOptions::default()
                            .with_workers(1)
                            .with_partition_chunk_records(512);
                        let (batch, _) = partition_chunked(comm, &decomp, &feats, &opts).unwrap();
                        black_box(batch.bufs.iter().map(|b| b.len()).sum::<usize>())
                    },
                )
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_build, bench_partition);
criterion_main!(benches);
