//! Input generation. Everything derives from `--seed`; the program under
//! test only ever sees the generated bytes, queries and updates.

use crate::api::{
    parse_wkt, write_wkt_dataset_with_centers, Feature, FsConfig, Rect, ShapeGen, ShapeKind, SimFs,
    SpatialDistribution,
};
use std::sync::Arc;

/// Hotspot centres of the clustered layers. The centres decide *which*
/// ranks are hot, so they are part of a workload's definition, like its
/// cluster count; `--seed` drives every per-feature draw (which cluster,
/// the jitter around it, vertex counts, shapes) and every query and
/// update stream. Both layers of a join share the centres, as OSM layers
/// share cities.
const CENTER_SEED: u64 = 0x5EED_CE17;

/// The one seed at which `generate_queries` places its query hotspots on
/// [`CENTER_SEED`]'s centres (it derives the centres from its seed by
/// this xor), so that hot queries land on hot cells, as its docs intend.
/// The generator takes a single seed, so a query stream aligned with the
/// data is the same stream for every `--seed`; the data under it varies.
pub const ALIGNED_QUERY_SEED: u64 = CENTER_SEED ^ 0x9E37_79B9_7F4A_7C15;

/// Distance of the anchor points from the world's corners.
const ANCHOR_MARGIN: f64 = 1.0;

/// The paper's 12-hotspot Zipf placement (`examples/spatial_join.rs`).
pub fn clustered() -> SpatialDistribution {
    SpatialDistribution::Clustered {
        clusters: 12,
        skew: 1.1,
        spread: 0.03,
    }
}

/// A `size × size` world anchored at the origin.
pub fn world(size: f64) -> Rect {
    Rect::new(0.0, 0.0, size, size)
}

/// One generated WKT layer: the file bytes the program reads.
pub struct Layer {
    /// File name on the simulated file system.
    pub path: &'static str,
    /// `WKT \t id=<n>` lines, anchors last.
    pub bytes: Vec<u8>,
    /// Records in `bytes`, anchors included.
    pub records: u64,
}

impl Layer {
    /// Generates `count` records plus two anchor points one unit outside
    /// the world's corners. Feature centres are clamped to the world and
    /// no generated shape reaches further than half a unit from its
    /// centre, so the anchors pin every layer's extent to the same
    /// rectangle: separately ingested layers tile the same grid, and
    /// streamed updates stay inside it.
    pub fn generate(
        path: &'static str,
        kind: ShapeKind,
        dist: &SpatialDistribution,
        world: Rect,
        count: u64,
        seed: u64,
    ) -> Layer {
        let gen = match kind {
            ShapeKind::Polygon => ShapeGen::lake_polygons(),
            _ => ShapeGen::road_edges(),
        };
        let fs = SimFs::new(FsConfig::gpfs_roger());
        write_wkt_dataset_with_centers(&fs, path, kind, gen, dist, world, count, CENTER_SEED, seed);
        let mut bytes = fs.open(path).expect("just written").snapshot();
        bytes.extend_from_slice(
            format!(
                "POINT ({} {})\tid=lo\nPOINT ({} {})\tid=hi\n",
                world.min_x - ANCHOR_MARGIN,
                world.min_y - ANCHOR_MARGIN,
                world.max_x + ANCHOR_MARGIN,
                world.max_y + ANCHOR_MARGIN
            )
            .as_bytes(),
        );
        Layer {
            path,
            bytes,
            records: count + 2,
        }
    }

    /// Installs the layer on `fs` (no virtual time is charged).
    pub fn install(&self, fs: &Arc<SimFs>) {
        fs.create(self.path, None)
            .expect("fresh file system")
            .append(&self.bytes);
    }

    /// Serial reference parse of the whole layer (the oracle's input, and
    /// the sample the `geom` probes run on).
    pub fn parse(&self) -> Vec<Feature> {
        let text = std::str::from_utf8(&self.bytes).expect("generated WKT is ASCII");
        text.lines()
            .map(|line| {
                let (wkt, userdata) = line.split_once('\t').expect("generated record has an id");
                Feature::with_userdata(parse_wkt(wkt).expect("generated WKT parses"), userdata)
            })
            .collect()
    }

    /// FNV-1a digest of the file bytes.
    pub fn digest(&self) -> u64 {
        fnv1a(&self.bytes)
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A fresh, cold file system with the paper's ROGER configuration.
pub fn fresh_fs(ranks: usize) -> Arc<SimFs> {
    let fs = SimFs::new(FsConfig::gpfs_roger());
    fs.set_active_ranks(ranks);
    fs
}
