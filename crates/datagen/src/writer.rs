//! Dataset writers: WKT-per-line text and fixed-size binary records.

use crate::catalog::ShapeKind;
use crate::distributions::{PlacementSampler, SpatialDistribution};
use crate::shapes::ShapeGen;
use mvio_geom::{wkt, Rect};
use mvio_pfs::SimFs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Derives the cluster-center seed from a dataset seed — the single
/// definition of the split shared by the file writer and the in-memory
/// generator, so their datasets can never diverge.
fn center_seed(seed: u64) -> u64 {
    seed ^ 0x9E37_79B9_7F4A_7C15
}

/// Appends record `i` (a `WKT \t id=<i>` line) to `out` — the single
/// definition of the text record format shared by the file writer and
/// the in-memory generator.
fn append_wkt_record(
    kind: ShapeKind,
    gen: ShapeGen,
    sampler: &mut PlacementSampler,
    i: u64,
    out: &mut String,
) {
    let g = gen.geometry(kind, sampler);
    wkt::write_to(&g, out);
    out.push('\t');
    out.push_str("id=");
    out.push_str(&i.to_string());
    out.push('\n');
}

/// Writes `count` WKT records (`WKT \t id=<n>` lines) to `path`, streaming
/// in 4 MiB batches so generation of large replicas stays memory-flat.
/// Returns the bytes written.
#[allow(clippy::too_many_arguments)]
pub fn write_wkt_dataset(
    fs: &Arc<SimFs>,
    path: &str,
    kind: ShapeKind,
    gen: ShapeGen,
    dist: &SpatialDistribution,
    world: Rect,
    count: u64,
    seed: u64,
) -> u64 {
    write_wkt_dataset_with_centers(
        fs,
        path,
        kind,
        gen,
        dist,
        world,
        count,
        center_seed(seed),
        seed,
    )
}

/// [`write_wkt_dataset`] with independently-seeded cluster centers, so
/// multiple layers can share hotspot locations (the catalog's behaviour).
#[allow(clippy::too_many_arguments)]
pub fn write_wkt_dataset_with_centers(
    fs: &Arc<SimFs>,
    path: &str,
    kind: ShapeKind,
    gen: ShapeGen,
    dist: &SpatialDistribution,
    world: Rect,
    count: u64,
    center_seed: u64,
    jitter_seed: u64,
) -> u64 {
    let file = fs
        .create(path, None)
        // audit: create fails only when the file exists, so open succeeds.
        .unwrap_or_else(|_| fs.open(path).expect("exists"));
    let mut sampler = dist.sampler_with_centers(world, center_seed, jitter_seed);
    let mut batch = String::with_capacity(4 << 20);
    let mut bytes = 0u64;
    for i in 0..count {
        append_wkt_record(kind, gen, &mut sampler, i, &mut batch);
        if batch.len() >= 4 << 20 {
            bytes += batch.len() as u64;
            file.append(batch.as_bytes());
            batch.clear();
        }
    }
    bytes += batch.len() as u64;
    file.append(batch.as_bytes());
    bytes
}

/// Generates `count` WKT records straight into memory — the bytes
/// [`write_wkt_dataset`] would append to a file, without needing a
/// filesystem. Benchmark harnesses generate a dataset once this way and
/// install the bytes onto a fresh cold [`SimFs`] per measurement, so
/// every run sees identical data over empty simulated OST queues.
pub fn wkt_dataset_bytes(
    kind: ShapeKind,
    gen: ShapeGen,
    dist: &SpatialDistribution,
    world: Rect,
    count: u64,
    seed: u64,
) -> Vec<u8> {
    let mut sampler = dist.sampler_with_centers(world, center_seed(seed), seed);
    let mut text = String::new();
    for i in 0..count {
        append_wkt_record(kind, gen, &mut sampler, i, &mut text);
    }
    text.into_bytes()
}

/// Writes `count` random MBR records (4 little-endian doubles each) for
/// the binary-file experiments (Figures 12 and 15). Returns the rects.
pub fn write_rect_records(
    fs: &Arc<SimFs>,
    path: &str,
    world: Rect,
    count: u64,
    seed: u64,
) -> Vec<Rect> {
    let file = fs
        .create(path, None)
        // audit: create fails only when the file exists, so open succeeds.
        .unwrap_or_else(|_| fs.open(path).expect("exists"));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rects = Vec::with_capacity(count as usize);
    let mut buf = Vec::with_capacity((count as usize * 32).min(8 << 20));
    for _ in 0..count {
        let cx = rng.gen_range(world.min_x..world.max_x);
        let cy = rng.gen_range(world.min_y..world.max_y);
        let w = rng.gen_range(0.0001..0.01) * world.width();
        let h = rng.gen_range(0.0001..0.01) * world.height();
        let r = Rect::new(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0);
        for v in r.to_array() {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        rects.push(r);
        if buf.len() >= 8 << 20 {
            file.append(&buf);
            buf.clear();
        }
    }
    file.append(&buf);
    rects
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvio_pfs::FsConfig;

    fn world() -> Rect {
        Rect::new(0.0, 0.0, 10.0, 10.0)
    }

    #[test]
    fn wkt_writer_produces_parse_clean_lines() {
        let fs = SimFs::new(FsConfig::gpfs_roger());
        let bytes = write_wkt_dataset(
            &fs,
            "t.wkt",
            ShapeKind::Line,
            ShapeGen::road_edges(),
            &SpatialDistribution::Uniform,
            world(),
            50,
            1,
        );
        let file = fs.open("t.wkt").unwrap();
        assert_eq!(file.len(), bytes);
        let text = String::from_utf8(file.snapshot()).unwrap();
        assert_eq!(text.lines().count(), 50);
        for line in text.lines() {
            let (w, ud) = line.split_once('\t').unwrap();
            wkt::parse(w).unwrap();
            assert!(ud.starts_with("id="));
        }
    }

    #[test]
    fn in_memory_generation_matches_the_file_writer() {
        let fs = SimFs::new(FsConfig::gpfs_roger());
        write_wkt_dataset(
            &fs,
            "f.wkt",
            ShapeKind::Point,
            ShapeGen::small_polygons(),
            &SpatialDistribution::Uniform,
            world(),
            40,
            7,
        );
        let mem = wkt_dataset_bytes(
            ShapeKind::Point,
            ShapeGen::small_polygons(),
            &SpatialDistribution::Uniform,
            world(),
            40,
            7,
        );
        assert_eq!(fs.open("f.wkt").unwrap().snapshot(), mem);
    }

    #[test]
    fn rect_records_round_trip() {
        let fs = SimFs::new(FsConfig::gpfs_roger());
        let rects = write_rect_records(&fs, "r.bin", world(), 100, 2);
        let file = fs.open("r.bin").unwrap();
        assert_eq!(file.len(), 100 * 32);
        let data = file.snapshot();
        for (i, r) in rects.iter().enumerate() {
            let at = i * 32;
            let v = f64::from_le_bytes(data[at..at + 8].try_into().unwrap());
            assert_eq!(v, r.min_x);
        }
        assert!(rects.iter().all(|r| !r.is_empty()));
    }
}
