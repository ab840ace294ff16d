//! Harness helpers shared by the integration suites: filesystem setup,
//! decomposition variants, the mixed-geometry dataset and query
//! generators with their brute-force oracles, and the deterministic WKT
//! text generator. Every generator is a pure function of its arguments,
//! so the same list can be fabricated inside every rank and by the
//! oracle.

// Each test binary compiles this module and uses only its share of it.
#![allow(dead_code)]

use mpi_vector_io::core::decomp::{
    AdaptiveBisection, HilbertDecomposition, SpatialDecomposition, UniformDecomposition,
};
use mpi_vector_io::datagen;
use mpi_vector_io::geom::algo::{intersects, point_geometry_distance, rect_intersects_geometry};
use mpi_vector_io::prelude::*;
use std::sync::Arc;

/// The fixed world the serve/rebalance datasets, updates and queries
/// live in.
pub const WORLD: f64 = 16.0;

/// A filesystem holding one file `path` with contents `text`.
pub fn fs_with(cfg: FsConfig, path: &str, text: &str) -> Arc<SimFs> {
    let fs = SimFs::new(cfg);
    fs.create(path, None).unwrap().append(text.as_bytes());
    fs
}

/// The catalog's Lakes and Cemetery layers, generated at `1/denom` scale
/// from `seed` and installed as `lakes.wkt` / `cemetery.wkt`.
pub fn catalog_fs(denom: u64, seed: u64) -> Arc<SimFs> {
    let fs = SimFs::new(FsConfig::gpfs_roger());
    for name in ["Lakes", "Cemetery"] {
        let spec = datagen::table3()
            .into_iter()
            .find(|s| s.name == name)
            .unwrap();
        let rep = datagen::catalog::generate(&fs, &spec, denom, seed);
        let bytes = fs.open(&rep.path).unwrap().snapshot();
        fs.create(&format!("{}.wkt", name.to_lowercase()), None)
            .unwrap()
            .append(&bytes);
    }
    fs
}

/// The serial join oracle: every `(left, right)` userdata pair whose
/// geometries intersect exactly, sorted.
pub fn brute_force_join(left: &[Feature], right: &[Feature]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for l in left {
        for r in right {
            if intersects(&l.geometry, &r.geometry) {
                out.push((l.userdata.clone(), r.userdata.clone()));
            }
        }
    }
    out.sort();
    out
}

/// The `(cell, feature)` replicas `rank` holds when `features` are
/// partitioned under `sd` — the resident state an ingest produces.
pub fn owned_replicas(
    sd: &dyn SpatialDecomposition,
    features: &[Feature],
    rank: usize,
) -> Vec<(u32, Feature)> {
    let mut owned = Vec::new();
    for f in features {
        for cell in sd.cells_for_rect_vec(&f.geometry.envelope()) {
            if sd.cell_to_rank(cell) == rank {
                owned.push((cell, f.clone()));
            }
        }
    }
    owned
}

/// Builds one of the five decomposition variants over a `side × side`
/// grid spanning `[0, extent]²`: the three classic cell maps, Hilbert
/// runs, and an adaptive bisection over a deterministic synthetic
/// histogram.
pub fn mk_decomp(
    extent: f64,
    policy: u8,
    side: u32,
    ranks: usize,
) -> Box<dyn SpatialDecomposition> {
    let grid = UniformGrid::new(Rect::new(0.0, 0.0, extent, extent), GridSpec::square(side));
    match policy {
        0 => Box::new(UniformDecomposition::new(grid, CellMap::RoundRobin, ranks)),
        1 => Box::new(UniformDecomposition::new(grid, CellMap::Block, ranks)),
        2 => Box::new(UniformDecomposition::new(
            grid,
            CellMap::Hilbert { cells_x: side },
            ranks,
        )),
        3 => Box::new(HilbertDecomposition::new(grid, ranks)),
        _ => {
            let counts: Vec<u64> = (0..grid.num_cells() as u64).map(|c| (c * 7) % 13).collect();
            Box::new(AdaptiveBisection::from_counts(grid, &counts, ranks))
        }
    }
}

/// Expands generated `(x, y)` seeds into a mixed-geometry dataset —
/// points, small squares and short segments — labelled by index.
pub fn mk_features(coords: &[(f64, f64)]) -> Vec<Feature> {
    coords
        .iter()
        .enumerate()
        .map(|(i, &(x, y))| {
            let g = match i % 5 {
                0 => {
                    let h = 0.6;
                    let (x0, y0) = ((x - h).max(0.0), (y - h).max(0.0));
                    let x1 = (x + h).min(WORLD).max(x0 + 1e-6);
                    let y1 = (y + h).min(WORLD).max(y0 + 1e-6);
                    Geometry::Polygon(
                        Polygon::from_coords(
                            vec![
                                Point::new(x0, y0),
                                Point::new(x1, y0),
                                Point::new(x1, y1),
                                Point::new(x0, y1),
                            ],
                            vec![],
                        )
                        .unwrap(),
                    )
                }
                1 => Geometry::LineString(
                    LineString::new(vec![
                        Point::new(x, y),
                        Point::new((x + 0.8).min(WORLD), (y + 0.4).min(WORLD)),
                    ])
                    .unwrap(),
                ),
                _ => Geometry::Point(Point::new(x, y)),
            };
            Feature::with_userdata(g, format!("f{i:03}"))
        })
        .collect()
}

/// Expands generated query seeds into a mixed batch: `kind` selects
/// range / point / kNN, `(x, y)` places it, `w` doubles as the window
/// half-width or (scaled) the `k` of a kNN probe — deliberately allowed
/// to exceed the dataset size.
pub fn mk_queries(seeds: &[(u8, f64, f64, f64)]) -> Vec<Query> {
    seeds
        .iter()
        .map(|&(kind, x, y, w)| match kind % 3 {
            0 => Query::Range(Rect::new(
                (x - w).max(0.0),
                (y - w).max(0.0),
                (x + w).min(WORLD),
                (y + w).min(WORLD),
            )),
            1 => Query::Point(Point::new(x, y)),
            _ => Query::Knn {
                at: Point::new(x, y),
                k: (w * 10.0) as u32 + 1,
            },
        })
        .collect()
}

/// The naive oracle: answers one query by a full scan of the global
/// dataset — intersection test per feature for range/point, brute-force
/// distance sort (ties broken by userdata, exactly the engine's total
/// order) truncated to `k` for kNN.
pub fn oracle(features: &[Feature], q: &Query) -> QueryAnswer {
    match *q {
        Query::Range(r) => {
            let mut m: Vec<String> = features
                .iter()
                .filter(|f| rect_intersects_geometry(&r, &f.geometry))
                .map(|f| f.userdata.clone())
                .collect();
            m.sort();
            QueryAnswer::Matches(m)
        }
        Query::Point(p) => oracle(features, &Query::Range(p.envelope())),
        Query::Knn { at, k } => {
            let mut d: Vec<(f64, String)> = features
                .iter()
                .map(|f| {
                    (
                        point_geometry_distance(&at, &f.geometry),
                        f.userdata.clone(),
                    )
                })
                .collect();
            d.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            d.truncate(k as usize);
            QueryAnswer::Matches(
                d.into_iter()
                    .map(|(dist, u)| format!("{dist:.9}:{u}"))
                    .collect(),
            )
        }
    }
}

/// Flattens an engine answer into the oracle's comparable form.
pub fn canon(a: &QueryAnswer) -> QueryAnswer {
    match a {
        QueryAnswer::Matches(m) => QueryAnswer::Matches(m.clone()),
        QueryAnswer::Neighbors(ns) => QueryAnswer::Matches(
            ns.iter()
                .map(|n| format!("{:.9}:{}", n.distance, n.userdata))
                .collect(),
        ),
    }
}

/// Maps a drawn byte count to a chunk policy: low values select the
/// blocking single round, the rest sweep finite record-aligned caps.
pub fn mk_chunk(chunk_bytes: u64) -> ExchangeChunk {
    if chunk_bytes < 16 {
        ExchangeChunk::Unlimited
    } else {
        ExchangeChunk::Bytes(chunk_bytes)
    }
}

/// The generators' deterministic uniform `[0, 1)` stream for `salt`.
pub fn lcg(salt: u64) -> impl FnMut() -> f64 {
    let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    }
}

/// Deterministic pseudo-random WKT dataset (mixed shapes + userdata).
/// Record origins fall in `[0, world.0 × spread] × [0, world.1 × spread]`;
/// `sizes` bounds a line's reach and a polygon's side, which do not
/// scale with `spread` — a small spread piles the shapes onto one
/// hotspot where nearly every pair overlaps.
pub fn dataset_text(
    records: usize,
    salt: u64,
    world: (f64, f64),
    sizes: (f64, f64),
    spread: f64,
) -> String {
    let mut next = lcg(salt);
    let mut text = String::new();
    for i in 0..records {
        let x = next() * world.0 * spread;
        let y = next() * world.1 * spread;
        match i % 3 {
            0 => text.push_str(&format!("POINT ({x} {y})\tp{i}\n")),
            1 => text.push_str(&format!(
                "LINESTRING ({x} {y}, {} {})\tl{i}\n",
                x + next() * sizes.0 + 0.1,
                y + next() * sizes.0 + 0.1
            )),
            _ => {
                let w = next() * sizes.1 + 0.1;
                let h = next() * sizes.1 + 0.1;
                text.push_str(&format!(
                    "POLYGON (({x} {y}, {} {y}, {} {}, {x} {}, {x} {y}))\tg{i}\n",
                    x + w,
                    x + w,
                    y + h,
                    y + h
                ));
            }
        }
    }
    text
}
