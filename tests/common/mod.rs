//! Harness helpers shared by the integration suites: filesystem setup,
//! decomposition variants, the mixed-geometry dataset and query
//! generators with their brute-force oracles, and the deterministic WKT
//! text generator. Every generator is a pure function of its arguments,
//! so the same list can be fabricated inside every rank and by the
//! oracle.

// Each test binary compiles this module and uses only its share of it.
#![allow(dead_code)]

use mpi_vector_io::core::decomp::{DecompPolicy, Decomposition, SpatialDecomposition};
use mpi_vector_io::core::exchange::{serialize_record, validate_frames, RecordFrame};
use mpi_vector_io::core::resident::ResidentStore;
use mpi_vector_io::datagen;
use mpi_vector_io::geom::algo::{intersects, point_geometry_distance, rect_intersects_geometry};
use mpi_vector_io::prelude::*;
use std::sync::Arc;

/// The fixed world the serve/rebalance datasets, updates and queries
/// live in.
pub const WORLD: f64 = 16.0;

/// Asserts that this rank's ledger accounts for its whole clock: the
/// slots of [`Comm::ledger`] sum to [`Comm::now`] within 1e-9 relative.
pub fn assert_ledger_balances(comm: &Comm) {
    let (booked, now) = (comm.ledger().total(), comm.now());
    assert!(
        (booked - now).abs() <= 1e-9 * now.abs(),
        "rank {}: the ledger books {booked} s of a {now} s clock: {:?}",
        comm.rank(),
        comm.ledger()
    );
}

/// A filesystem holding one file `path` with contents `text`.
pub fn fs_with(cfg: FsConfig, path: &str, text: &str) -> Arc<SimFs> {
    let fs = SimFs::new(cfg);
    fs.create(path, None).unwrap().append(text.as_bytes());
    fs
}

/// This rank's share of the WKT file `path`: the partitioned read, then
/// the parse.
pub fn read_share(
    comm: &mut Comm,
    fs: &Arc<SimFs>,
    path: &str,
    read: &ReadOptions,
) -> mpi_vector_io::core::Result<Vec<Feature>> {
    let text = read_partition_text(comm, fs, path, read)?;
    let opts = PipelineOptions::default();
    Ok(pipeline::parse_chunked(comm, &text, &WktLineParser, &opts)?.0)
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
    sd: &Decomposition,
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

/// `pairs` encoded as one wire buffer that `validate_frames` accepted —
/// walk it with `record_frames` to hand owned test data to
/// `write_partitioned`.
pub fn wire(pairs: &[(u32, Feature)]) -> Vec<u8> {
    let mut buf = Vec::new();
    for (cell, f) in pairs {
        serialize_record(*cell, f, &mut Vec::new(), &mut buf).unwrap();
    }
    validate_frames(&buf).unwrap();
    buf
}

/// `pairs` landed in a fresh store as one received round — the resident
/// state an ingest's exchange leaves, entered through `append_round`.
pub fn resident(comm: &mut Comm, pairs: &[(u32, Feature)]) -> ResidentStore {
    let mut store = ResidentStore::new();
    store.append_round(comm, &[wire(pairs)]).unwrap();
    store
}

/// Received frames decoded, in order — the owned form the oracles
/// compare against.
pub fn materialize<'a>(frames: impl IntoIterator<Item = RecordFrame<'a>>) -> Vec<(u32, Feature)> {
    frames
        .into_iter()
        .map(|fr| (fr.cell, fr.to_feature().unwrap()))
        .collect()
}

/// One of the four decomposition policies by index: the two cell maps,
/// Hilbert runs, and adaptive bisection.
pub fn mk_policy(policy: u8) -> DecompPolicy {
    match policy {
        0 => DecompPolicy::Uniform(CellMap::RoundRobin),
        1 => DecompPolicy::Uniform(CellMap::Block),
        2 => DecompPolicy::Hilbert,
        _ => DecompPolicy::adaptive(),
    }
}

/// Builds one of the four decomposition variants ([`mk_policy`]) over a
/// `side × side` grid spanning `[0, extent]²`; the adaptive bisection
/// runs over a deterministic synthetic histogram.
pub fn mk_decomp(extent: f64, policy: u8, side: u32, ranks: usize) -> Decomposition {
    let grid = UniformGrid::new(Rect::new(0.0, 0.0, extent, extent), GridSpec::square(side));
    let counts: Vec<u64> = (0..grid.num_cells() as u64).map(|c| (c * 7) % 13).collect();
    Decomposition::new(grid, mk_policy(policy), Some(&counts), ranks).unwrap()
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

/// Per rank, the features whose reference cell (the cell of their
/// envelope's min corner) it owns under `sd` — the replicas its kNN walk
/// considers.
pub fn reference_counts(sd: &Decomposition, features: &[Feature]) -> Vec<u64> {
    let mut counts = vec![0u64; sd.num_ranks()];
    for f in features {
        let cell = sd
            .reference_cell(&f.geometry.envelope())
            .expect("features lie inside the world");
        counts[sd.cell_to_rank(cell)] += 1;
    }
    counts
}

/// The side of the engine's kNN reach split: each cell is summarized as
/// `REACH_SPLIT × REACH_SPLIT` sub-cells.
const REACH_SPLIT: usize = 4;

/// The distance from `at` to the farthest corner of `r`, as a point
/// feature there would measure.
fn farthest_corner(at: &Point, r: &Rect) -> f64 {
    let dx = (at.x - r.min_x).abs().max((at.x - r.max_x).abs());
    let dy = (at.y - r.min_y).abs().max((at.y - r.max_y).abs());
    dx.hypot(dy)
}

/// The distance at which `(farthest corner, count)` entries, nearest
/// first, hold `k` features, times `1 + 1e-9`; infinite when they hold
/// fewer.
fn kth_bound(mut entries: Vec<(f64, u64)>, k: u32) -> f64 {
    entries.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut seen = 0;
    entries
        .iter()
        .find(|(_, n)| {
            seen += n;
            seen >= u64::from(k)
        })
        .map_or(f64::INFINITY, |(d, _)| d * (1.0 + 1e-9))
}

/// `r` rounded outward onto `f32` coordinates: the min corner to the
/// nearest `f32` at or below it, the max corner at or above.
fn round_outward(r: &Rect) -> Rect {
    let down = |v: f64| {
        let f = v as f32;
        f64::from(if f64::from(f) > v { f.next_down() } else { f })
    };
    let up = |v: f64| {
        let f = v as f32;
        f64::from(if f64::from(f) < v { f.next_up() } else { f })
    };
    Rect::new(down(r.min_x), down(r.min_y), up(r.max_x), up(r.max_y))
}

/// The ranks a kNN at `at` for `k` neighbours is routed to, derived from
/// the feature list alone. Each feature is counted in its reference cell,
/// in the sub-cell of a `REACH_SPLIT`² split holding its envelope's
/// centre (clamped into the cell); a sub-cell's union is rounded outward
/// to `f32`, and a cell's count and union are its sub-cells'. The coarse
/// bound is [`knn_cell_reach_ranks`]'s over these cells; the fine bound
/// is the same over the sub-cells of the cells within L∞ distance of the
/// coarse one; every owner of a cell with a sub-cell within L∞ distance
/// of the fine bound is asked. Ascending, duplicate-free.
pub fn knn_reach_ranks(sd: &Decomposition, features: &[Feature], at: &Point, k: u32) -> Vec<usize> {
    let mut subs: std::collections::BTreeMap<u32, std::collections::BTreeMap<usize, (u64, Rect)>> =
        Default::default();
    for f in features {
        let env = f.geometry.envelope();
        let cell = sd
            .reference_cell(&env)
            .expect("features lie inside the world");
        let r = sd.cell_rect(cell);
        let c = env.center();
        let split = REACH_SPLIT as f64;
        let col = (((c.x - r.min_x) / (r.max_x - r.min_x) * split).max(0.0) as usize)
            .min(REACH_SPLIT - 1);
        let row = (((c.y - r.min_y) / (r.max_y - r.min_y) * split).max(0.0) as usize)
            .min(REACH_SPLIT - 1);
        let (n, union) = subs
            .entry(cell)
            .or_default()
            .entry(row * REACH_SPLIT + col)
            .or_insert((0, Rect::EMPTY));
        *n += 1;
        *union = union.union(&env);
    }
    let cells: Vec<(u32, u64, Rect, Vec<(u64, Rect)>)> = subs
        .into_iter()
        .map(|(cell, subs)| {
            let subs: Vec<(u64, Rect)> = subs
                .into_values()
                .map(|(n, u)| (n, round_outward(&u)))
                .collect();
            let n = subs.iter().map(|s| s.0).sum();
            let union = subs.iter().fold(Rect::EMPTY, |u, s| u.union(&s.1));
            (cell, n, union, subs)
        })
        .collect();
    let coarse = kth_bound(
        cells
            .iter()
            .map(|(_, n, u, _)| (farthest_corner(at, u), *n))
            .collect(),
        k,
    );
    let near: Vec<_> = cells
        .iter()
        .filter(|(_, _, u, _)| u.linf_distance(at) <= coarse)
        .collect();
    let fine = kth_bound(
        near.iter()
            .flat_map(|(_, _, _, subs)| subs.iter().map(|(n, u)| (farthest_corner(at, u), *n)))
            .collect(),
        k,
    );
    let mut ranks: Vec<usize> = near
        .iter()
        .filter(|(_, _, _, subs)| subs.iter().any(|(_, u)| u.linf_distance(at) <= fine))
        .map(|(cell, ..)| sd.cell_to_rank(*cell))
        .collect();
    ranks.sort_unstable();
    ranks.dedup();
    ranks
}

/// The ranks the per-cell rule alone routes a kNN to: per reference cell,
/// the features counted there and the exact union of their envelopes; the
/// bound is the farthest-corner distance at which the cells, nearest
/// farthest corner first, hold `k` features (times `1 + 1e-9`, infinite
/// when the world holds fewer), and every owner of a cell whose union is
/// within L∞ distance of the bound is asked. [`knn_reach_ranks`] must ask
/// no rank outside these. Ascending, duplicate-free.
pub fn knn_cell_reach_ranks(
    sd: &Decomposition,
    features: &[Feature],
    at: &Point,
    k: u32,
) -> Vec<usize> {
    let mut cells: std::collections::BTreeMap<u32, (u64, Rect)> = Default::default();
    for f in features {
        let env = f.geometry.envelope();
        let cell = sd
            .reference_cell(&env)
            .expect("features lie inside the world");
        let (n, union) = cells.entry(cell).or_insert((0, Rect::EMPTY));
        *n += 1;
        *union = union.union(&env);
    }
    let bound = kth_bound(
        cells
            .values()
            .map(|(n, u)| (farthest_corner(at, u), *n))
            .collect(),
        k,
    );
    let mut ranks: Vec<usize> = cells
        .iter()
        .filter(|(_, (_, union))| union.linf_distance(at) <= bound)
        .map(|(&cell, _)| sd.cell_to_rank(cell))
        .collect();
    ranks.sort_unstable();
    ranks.dedup();
    ranks
}

/// The owners of the reference cells of a kNN's true top-`k` features by
/// `(distance, userdata)`: the ranks any exact routing must ask.
/// Ascending, duplicate-free.
pub fn knn_top_ranks(sd: &Decomposition, features: &[Feature], at: &Point, k: u32) -> Vec<usize> {
    let mut by_distance: Vec<(f64, &Feature)> = features
        .iter()
        .map(|f| (point_geometry_distance(at, &f.geometry), f))
        .collect();
    by_distance.sort_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then_with(|| a.1.userdata.cmp(&b.1.userdata))
    });
    let mut ranks: Vec<usize> = by_distance
        .iter()
        .take(k as usize)
        .map(|(_, f)| {
            let cell = sd.reference_cell(&f.geometry.envelope());
            sd.cell_to_rank(cell.expect("features lie inside the world"))
        })
        .collect();
    ranks.sort_unstable();
    ranks.dedup();
    ranks
}

/// The ranks a range or point query is routed to: the owners of the
/// cells its window, clamped onto the bounds, overlaps. Ascending,
/// duplicate-free.
pub fn window_ranks(sd: &Decomposition, window: &Rect) -> Vec<usize> {
    let b = sd.bounds();
    let clamp = |v: f64, lo: f64, hi: f64| v.max(lo).min(hi);
    let window = Rect::new(
        clamp(window.min_x, b.min_x, b.max_x),
        clamp(window.min_y, b.min_y, b.max_y),
        clamp(window.max_x, b.min_x, b.max_x),
        clamp(window.max_y, b.min_y, b.max_y),
    );
    let mut ranks: Vec<usize> = sd
        .cells_for_rect_vec(&window)
        .into_iter()
        .map(|c| sd.cell_to_rank(c))
        .collect();
    ranks.sort_unstable();
    ranks.dedup();
    ranks
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
