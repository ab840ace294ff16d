//! Single-layer probes for the traced run: `msim` collectives and world
//! spawn, and the `geom` kernels on a sample of the workload's input.
//! Host probes run on the driver thread with no world alive and report
//! the minimum of [`REPEATS`] runs (the least-disturbed one).

use crate::api::{
    decode_ref, encode_to, envelope_batch, intersects, parse_wkt, point_geometry_distance, Feature,
    Point, RTree, Rect, Topology, World, WorldConfig,
};
use std::hint::black_box;
use std::time::Instant;

const REPEATS: usize = 5;

/// Geometries sampled from the workload's input (half from each layer).
const SAMPLE: usize = 20_000;

/// Candidate pairs the `intersects` probe refines.
const PAIRS: usize = 20_000;

const ALLREDUCES: usize = 2000;
const ALLTOALLVS: usize = 200;

/// `(name suffix under its layer prefix, value)` pairs.
pub type Values = Vec<(&'static str, f64)>;

fn min_seconds(mut f: impl FnMut()) -> f64 {
    (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Collective cost on both clocks (mean over a fixed mix of 2000
/// `allreduce_u64` and 200 `alltoallv` of 1 KiB per destination at 16
/// ranks) and the host cost of spawning and joining a 16-rank world.
pub fn msim() -> Values {
    let layout = || WorldConfig::new(Topology::new(1, 16));
    let mut host = f64::INFINITY;
    let mut virt = 0.0;
    for _ in 0..REPEATS {
        let out = World::run(layout(), |comm| {
            comm.barrier();
            let (v0, t) = (comm.now(), Instant::now());
            for i in 0..ALLREDUCES {
                black_box(comm.allreduce_u64(i as u64, |a, b| a + b));
            }
            for _ in 0..ALLTOALLVS {
                black_box(comm.alltoallv(vec![vec![0u8; 1024]; comm.size()]));
            }
            (comm.now() - v0, t.elapsed().as_secs_f64())
        });
        virt = out.iter().map(|o| o.0).fold(0.0, f64::max);
        host = host.min(out.iter().map(|o| o.1).fold(0.0, f64::max));
    }
    let calls = (ALLREDUCES + ALLTOALLVS) as f64;
    let spawn = min_seconds(|| {
        black_box(World::run(layout(), |comm| comm.rank()));
    });
    vec![
        ("msim.collective_host_us", host / calls * 1e6),
        ("msim.collective_virtual_us", virt / calls * 1e6),
        ("msim.world_spawn_host_ms", spawn * 1e3),
    ]
}

/// The `geom` kernels, single-threaded, on the first `SAMPLE / 2`
/// records of each layer (`text` holds the layers' file bytes).
pub fn geom(text: &[&[u8]], left: &[Feature], right: &[Feature]) -> Values {
    let half = SAMPLE / 2;
    let left = &left[..left.len().min(half)];
    let right = &right[..right.len().min(half)];
    let geoms = || left.iter().chain(right).map(|f| &f.geometry);
    let n = geoms().count().max(1) as f64;

    // WKT parse: the WKT column of the same records.
    let wkt: Vec<&str> = text
        .iter()
        .flat_map(|bytes| {
            std::str::from_utf8(bytes)
                .expect("generated WKT is ASCII")
                .lines()
                .take(half)
                .map(|line| line.split_once('\t').map_or(line, |(wkt, _)| wkt))
        })
        .collect();
    let wkt_bytes: usize = wkt.iter().map(|w| w.len()).sum();
    let parse = min_seconds(|| {
        for w in &wkt {
            black_box(parse_wkt(black_box(w)).expect("generated WKT parses"));
        }
    });

    // WKB encode, then borrowed decode and batched envelopes over it.
    let mut wkb = Vec::new();
    let encode = min_seconds(|| {
        wkb.clear();
        for g in geoms() {
            encode_to(black_box(g), &mut wkb);
        }
    });
    let mut offsets = Vec::new();
    let mut at = 0;
    while at < wkb.len() {
        let (_, used) = decode_ref(&wkb[at..]).expect("own encoding decodes");
        offsets.push(at);
        at += used;
    }
    let decode = min_seconds(|| {
        for &at in &offsets {
            black_box(decode_ref(black_box(&wkb[at..])).expect("own encoding decodes"));
        }
    });
    let refs: Vec<_> = offsets
        .iter()
        .map(|&at| decode_ref(&wkb[at..]).expect("own encoding decodes").0)
        .collect();
    let mut envelopes: Vec<Rect> = Vec::new();
    let envelope = min_seconds(|| {
        envelope_batch(black_box(&refs), &mut envelopes);
        black_box(&envelopes);
    });

    // R-tree over the sample's envelopes, probed with each of them.
    let items = || -> Vec<(Rect, usize)> { envelopes.iter().copied().zip(0..).collect() };
    let bulk = min_seconds(|| {
        black_box(RTree::bulk_load(black_box(items())));
    });
    let clone_only = min_seconds(|| {
        black_box(items());
    });
    let tree = RTree::bulk_load(items());
    let query = min_seconds(|| {
        for r in &envelopes {
            black_box(tree.count(black_box(r)));
        }
    });

    // Refine: the first PAIRS envelope-overlapping (left, right) pairs.
    let left_tree = RTree::bulk_load(
        left.iter()
            .enumerate()
            .map(|(i, f)| (f.geometry.envelope(), i))
            .collect(),
    );
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for (j, r) in right.iter().enumerate() {
        left_tree.query_with(&r.geometry.envelope(), &mut |&i| pairs.push((i, j)));
        if pairs.len() >= PAIRS {
            break;
        }
    }
    pairs.truncate(PAIRS);
    let vertex_pairs: usize = pairs
        .iter()
        .map(|&(i, j)| left[i].geometry.num_points() * right[j].geometry.num_points())
        .sum();
    let refine = min_seconds(|| {
        for &(i, j) in &pairs {
            black_box(intersects(&left[i].geometry, &right[j].geometry));
        }
    });

    let centre = envelopes
        .iter()
        .fold(Rect::EMPTY, |acc, r| acc.union(r))
        .center();
    let at = Point::new(centre.x, centre.y);
    let distance = min_seconds(|| {
        for g in geoms() {
            black_box(point_geometry_distance(black_box(&at), g));
        }
    });

    vec![
        (
            "geom.wkt_parse_ns_per_byte",
            parse * 1e9 / wkt_bytes.max(1) as f64,
        ),
        (
            "geom.wkb_encode_ns_per_byte",
            encode * 1e9 / wkb.len().max(1) as f64,
        ),
        ("geom.wkb_decode_ref_ns_per_geom", decode * 1e9 / n),
        ("geom.envelope_batch_ns_per_geom", envelope * 1e9 / n),
        (
            "geom.intersects_ns_per_pair",
            refine * 1e9 / pairs.len().max(1) as f64,
        ),
        ("geom.intersects_vertex_pairs", vertex_pairs as f64),
        (
            "geom.rtree_bulk_load_ns_per_item",
            (bulk - clone_only).max(0.0) * 1e9 / n,
        ),
        ("geom.rtree_query_ns_per_query", query * 1e9 / n),
        ("geom.rtree_depth", tree.depth() as f64),
        ("geom.point_distance_ns_per_geom", distance * 1e9 / n),
    ]
}
