//! Criterion micro-benchmarks of the zero-copy read path: borrowed WKB
//! views versus the owned decoder, and the batched MBR/refine kernels
//! versus their scalar per-candidate equivalents. These are the real-CPU
//! hot paths of everything that reads validated wire frames in place: the
//! join's filter and arena refine, and the resident engine's envelope
//! pass and candidate materialization.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use mvio_geom::refkernel::{envelope_batch, filter_pairs_batch, RefineArena};
use mvio_geom::wkb::{self, GeomRef};
use mvio_geom::{Geometry, LineString, Point, Polygon, Rect};

/// A closed lattice ring with exactly `verts` stored vertices: a zigzag
/// walk over a unit grid — the dense-geometry shape (500-vertex lattice)
/// where decoding and materializing dominate.
fn lattice_polygon(verts: usize, origin: (f64, f64)) -> Geometry {
    let half = verts / 2;
    let mut pts = Vec::with_capacity(verts + 1);
    // Out along a comb profile, back along the baseline.
    for i in 0..half {
        let x = origin.0 + i as f64;
        let y = origin.1 + if i % 2 == 0 { 0.5 } else { 1.5 };
        pts.push(Point::new(x, y));
    }
    for i in (0..(verts - half)).rev() {
        let x = origin.0 + i as f64 * (half as f64 / (verts - half) as f64);
        pts.push(Point::new(x, origin.1));
    }
    pts.push(pts[0]);
    Geometry::Polygon(Polygon::from_coords(pts, vec![]).expect("lattice ring valid"))
}

/// A lattice polyline with `verts` vertices.
fn lattice_linestring(verts: usize, origin: (f64, f64)) -> Geometry {
    let pts: Vec<Point> = (0..verts)
        .map(|i| {
            Point::new(
                origin.0 + i as f64,
                origin.1 + if i % 2 == 0 { 0.0 } else { 1.0 },
            )
        })
        .collect();
    Geometry::LineString(LineString::new(pts).expect("lattice polyline valid"))
}

fn lattice_corpus(n: usize, verts: usize) -> Vec<Geometry> {
    (0..n)
        .map(|i| {
            let origin = ((i % 16) as f64 * 600.0, (i / 16) as f64 * 600.0);
            if i % 2 == 0 {
                lattice_polygon(verts, origin)
            } else {
                lattice_linestring(verts, origin)
            }
        })
        .collect()
}

/// The acceptance-bar comparison: decoding 500-vertex lattice geometries
/// as borrowed views must beat the allocating owned decoder by ≥ 1.3×.
/// Both sides run the identical validation walk (type markers, counts,
/// per-coordinate finiteness, ring closure) and report the same vertex
/// count; the delta is the buffer allocation and 16-bytes-per-vertex
/// copy that only the owned path performs.
fn bench_decode_ref_vs_decode(c: &mut Criterion) {
    let geoms = lattice_corpus(64, 500);
    let encoded: Vec<Vec<u8>> = geoms.iter().map(wkb::encode).collect();
    let bytes: u64 = encoded.iter().map(|b| b.len() as u64).sum();

    let mut group = c.benchmark_group("zerocopy_decode_500v_lattice");
    group.throughput(Throughput::Bytes(bytes));
    group.bench_function("decode_owned", |b| {
        b.iter(|| {
            let mut pts = 0usize;
            for e in &encoded {
                let (g, _) = wkb::decode(black_box(e)).unwrap();
                pts += g.num_points();
            }
            black_box(pts)
        })
    });
    group.bench_function("decode_ref", |b| {
        b.iter(|| {
            let mut pts = 0usize;
            for e in &encoded {
                let (g, _) = wkb::decode_ref(black_box(e)).unwrap();
                pts += g.num_points();
            }
            black_box(pts)
        })
    });
    group.finish();
}

/// Batched MBR computation over borrowed views versus the per-candidate
/// scalar recompute the pre-hoist join performed (envelope on every
/// candidate hit instead of once per record).
fn bench_envelope_batch(c: &mut Criterion) {
    let geoms = lattice_corpus(256, 64);
    let encoded: Vec<Vec<u8>> = geoms.iter().map(wkb::encode).collect();
    let views: Vec<GeomRef<'_>> = encoded
        .iter()
        .map(|e| wkb::decode_ref(e).unwrap().0)
        .collect();

    let mut group = c.benchmark_group("zerocopy_mbr_kernels");
    group.throughput(Throughput::Elements(views.len() as u64));
    group.bench_function("envelope_scalar_per_candidate", |b| {
        // Each record's MBR recomputed 8 times, as a candidate loop
        // without the hoist would.
        b.iter(|| {
            let mut acc = Rect::EMPTY;
            for _ in 0..8 {
                for g in &views {
                    acc = acc.union(&black_box(g).envelope());
                }
            }
            black_box(acc)
        })
    });
    group.bench_function("envelope_batch_hoisted", |b| {
        let mut mbrs = Vec::new();
        b.iter(|| {
            envelope_batch(black_box(&views), &mut mbrs);
            let mut acc = Rect::EMPTY;
            for _ in 0..8 {
                for r in &mbrs {
                    acc = acc.union(black_box(r));
                }
            }
            black_box(acc)
        })
    });
    group.finish();
}

/// The candidate filter: batched MBR + claim pass over index pairs
/// versus the scalar decode-and-test equivalent, plus the arena's
/// recycled materialization versus fresh allocation per survivor.
fn bench_filter_and_arena(c: &mut Criterion) {
    let geoms = lattice_corpus(128, 64);
    let encoded: Vec<Vec<u8>> = geoms.iter().map(wkb::encode).collect();
    let views: Vec<GeomRef<'_>> = encoded
        .iter()
        .map(|e| wkb::decode_ref(e).unwrap().0)
        .collect();
    let mut mbrs = Vec::new();
    envelope_batch(&views, &mut mbrs);
    let candidates: Vec<(usize, usize)> = (0..views.len())
        .flat_map(|i| (0..views.len()).step_by(7).map(move |j| (i, j)))
        .collect();
    let cell = Rect::new(-1e9, -1e9, 1e9, 1e9);

    let mut group = c.benchmark_group("zerocopy_refine_kernels");
    group.throughput(Throughput::Elements(candidates.len() as u64));
    group.bench_function("filter_scalar", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            for &(li, ri) in black_box(&candidates) {
                let a = views[li].envelope();
                let bb = views[ri].envelope();
                if a.intersects(&bb) {
                    let i = a.intersection(&bb);
                    if cell.contains_point(&Point::new(i.min_x, i.min_y)) {
                        out.push((li, ri));
                    }
                }
            }
            black_box(out.len())
        })
    });
    group.bench_function("filter_pairs_batch", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            filter_pairs_batch(
                black_box(&candidates),
                &mbrs,
                &mbrs,
                |a, bb| {
                    let i = a.intersection(bb);
                    cell.contains_point(&Point::new(i.min_x, i.min_y))
                },
                &mut out,
            );
            black_box(out.len())
        })
    });
    group.bench_function("materialize_fresh", |b| {
        b.iter(|| {
            let mut pts = 0usize;
            for e in &encoded {
                let (g, _) = wkb::decode(black_box(e)).unwrap();
                pts += g.num_points();
            }
            black_box(pts)
        })
    });
    group.bench_function("materialize_arena_recycled", |b| {
        let mut arena = RefineArena::new();
        b.iter(|| {
            let mut pts = 0usize;
            for g in &views {
                let owned = arena.materialize(black_box(g));
                pts += owned.num_points();
                arena.recycle(owned);
            }
            black_box(pts)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_decode_ref_vs_decode,
    bench_envelope_batch,
    bench_filter_and_arena
);
criterion_main!(benches);
