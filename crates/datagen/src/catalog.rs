//! The Table 3 dataset catalog, scaled.

use crate::distributions::SpatialDistribution;
use crate::shapes::ShapeGen;

use mvio_geom::Rect;
use mvio_pfs::SimFs;
use std::sync::Arc;

/// Shape class of a dataset (mirrors the paper's Shape column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeKind {
    Point,
    Line,
    Polygon,
}

impl ShapeKind {
    /// Display name matching Table 3.
    pub fn name(self) -> &'static str {
        match self {
            ShapeKind::Point => "Point",
            ShapeKind::Line => "Line",
            ShapeKind::Polygon => "Polygon",
        }
    }
}

/// How a dataset's spatial distribution scales with the replica size.
///
/// Scaled replicas cannot preserve every statistic at once; each dataset
/// preserves the one its experiments depend on:
/// * [`DistPolicy::Broad`] — extent-preserving: features stay spread over
///   wide hotspots regardless of scale. Used for the I/O- and
///   communication-bound datasets (Roads, Road Network, All Nodes, All
///   Objects), where per-rank balance is the load-bearing property.
/// * [`DistPolicy::DensityPreserving`] — the hotspot radius shrinks with
///   `1/sqrt(denominator)`, keeping features-per-area (and therefore
///   join-candidate density) equal to the full-scale value. Used for the
///   join layers (Lakes, Cemetery), where refine work per feature is the
///   load-bearing property (Figures 17–18).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DistPolicy {
    Broad {
        clusters: usize,
        skew: f64,
        spread: f64,
    },
    DensityPreserving {
        clusters: usize,
        skew: f64,
        spread_full: f64,
    },
}

impl DistPolicy {
    /// Resolves the policy into a concrete distribution at a given scale.
    fn at_scale(&self, denominator: u64) -> SpatialDistribution {
        match *self {
            DistPolicy::Broad {
                clusters,
                skew,
                spread,
            } => SpatialDistribution::Clustered {
                clusters,
                skew,
                spread,
            },
            DistPolicy::DensityPreserving {
                clusters,
                skew,
                spread_full,
            } => SpatialDistribution::Clustered {
                clusters,
                skew,
                spread: spread_full / (denominator.max(1) as f64).sqrt(),
            },
        }
    }
}

/// One Table 3 row: the paper's full-size statistics plus the generator
/// recipe used to synthesize a scaled replica.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Row number in Table 3 (1-based).
    pub id: usize,
    /// Dataset name.
    pub name: &'static str,
    /// Shape class.
    pub kind: ShapeKind,
    /// Full-size file bytes reported by the paper.
    pub paper_bytes: u64,
    /// Full-size shape count reported by the paper.
    pub paper_count: u64,
    /// Sequential I/O + parse seconds reported by the paper.
    pub paper_io_seconds: f64,
    /// Shape generator recipe.
    pub gen: ShapeGen,
    /// Spatial distribution scaling policy.
    pub dist: DistPolicy,
}

impl DatasetSpec {
    /// Shape count at `1/denominator` scale (at least 16 so tiny scales
    /// stay non-trivial).
    fn scaled_count(&self, denominator: u64) -> u64 {
        (self.paper_count / denominator).max(16)
    }

    /// The canonical file path for this dataset at a given scale.
    pub fn path(&self, denominator: u64) -> String {
        format!(
            "datasets/{}-1over{}.wkt",
            self.name.to_lowercase().replace(' ', "_"),
            denominator
        )
    }
}

/// Shared cluster-center seed: all datasets place hotspots at the same
/// locations, as real OSM layers do (populated areas are populated for
/// every feature class at once).
const WORLD_CENTER_SEED: u64 = 0xC1A5_7E25_0CEA_11A5;

/// The six datasets of Table 3.
pub fn table3() -> Vec<DatasetSpec> {
    vec![
        DatasetSpec {
            id: 1,
            name: "Cemetery",
            kind: ShapeKind::Polygon,
            paper_bytes: 56 << 20,
            paper_count: 193_000,
            paper_io_seconds: 2.1,
            gen: ShapeGen::small_polygons(),
            dist: DistPolicy::DensityPreserving {
                clusters: 200,
                skew: 0.2,
                spread_full: 0.0063,
            },
        },
        DatasetSpec {
            id: 2,
            name: "Lakes",
            kind: ShapeKind::Polygon,
            paper_bytes: 9 << 30,
            paper_count: 8_000_000,
            paper_io_seconds: 328.0,
            gen: ShapeGen::lake_polygons(),
            dist: DistPolicy::DensityPreserving {
                clusters: 200,
                skew: 0.2,
                spread_full: 0.0063,
            },
        },
        DatasetSpec {
            id: 3,
            name: "Roads",
            kind: ShapeKind::Polygon,
            paper_bytes: 24 << 30,
            paper_count: 72_000_000,
            paper_io_seconds: 786.0,
            gen: ShapeGen::small_polygons(),
            dist: DistPolicy::Broad {
                clusters: 64,
                skew: 0.7,
                spread: 0.08,
            },
        },
        DatasetSpec {
            id: 4,
            name: "All Objects",
            kind: ShapeKind::Polygon,
            paper_bytes: 92 << 30,
            paper_count: 263_000_000,
            paper_io_seconds: 4728.0,
            gen: ShapeGen::small_polygons(),
            dist: DistPolicy::Broad {
                clusters: 64,
                skew: 0.9,
                spread: 0.06,
            },
        },
        DatasetSpec {
            id: 5,
            name: "Road Network",
            kind: ShapeKind::Line,
            paper_bytes: 137 << 30,
            paper_count: 717_000_000,
            paper_io_seconds: 2873.0,
            gen: ShapeGen::road_edges(),
            dist: DistPolicy::Broad {
                clusters: 64,
                skew: 0.6,
                spread: 0.12,
            },
        },
        DatasetSpec {
            id: 6,
            name: "All Nodes",
            kind: ShapeKind::Point,
            paper_bytes: 96 << 30,
            paper_count: 2_700_000_000,
            paper_io_seconds: 3782.0,
            gen: ShapeGen::small_polygons(), // radius unused for points
            dist: DistPolicy::Broad {
                clusters: 64,
                skew: 0.8,
                spread: 0.08,
            },
        },
    ]
}

/// Outcome of generating one dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenReport {
    /// Path written.
    pub path: String,
    /// Records written.
    pub count: u64,
    /// Bytes written.
    pub bytes: u64,
}

/// Generates a scaled replica of `spec` onto `fs`, returning the report.
/// All datasets share hotspot centers (`WORLD_CENTER_SEED`); the
/// per-dataset distribution follows the spec's [`DistPolicy`].
pub fn generate(fs: &Arc<SimFs>, spec: &DatasetSpec, denominator: u64, seed: u64) -> GenReport {
    let world = Rect::new(-180.0, -90.0, 180.0, 90.0);
    let dist = spec.dist.at_scale(denominator);
    let path = spec.path(denominator);
    let count = spec.scaled_count(denominator);
    let bytes = crate::writer::write_wkt_dataset_with_centers(
        fs,
        &path,
        spec.kind,
        spec.gen,
        &dist,
        world,
        count,
        WORLD_CENTER_SEED,
        seed ^ spec.id as u64,
    );
    GenReport { path, count, bytes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvio_pfs::FsConfig;

    #[test]
    fn table3_matches_paper_rows() {
        let t = table3();
        assert_eq!(t.len(), 6);
        assert_eq!(t[0].name, "Cemetery");
        assert_eq!(t[4].kind, ShapeKind::Line);
        assert_eq!(t[5].kind, ShapeKind::Point);
        assert_eq!(t[5].paper_count, 2_700_000_000);
        // Ordered by id.
        for (i, s) in t.iter().enumerate() {
            assert_eq!(s.id, i + 1);
        }
    }

    #[test]
    fn scaled_counts_floor_at_16() {
        let t = table3();
        assert_eq!(t[0].scaled_count(1_000_000), 16);
        assert_eq!(t[1].scaled_count(1000), 8000);
    }

    #[test]
    fn generate_writes_plausible_wkt() {
        let fs = SimFs::new(FsConfig::gpfs_roger());
        let spec = &table3()[0];
        let rep = generate(&fs, spec, 10_000, 99);
        assert_eq!(rep.count, 19);
        let file = fs.open(&rep.path).unwrap();
        assert_eq!(file.len(), rep.bytes);
        let text = String::from_utf8(file.snapshot()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 19);
        assert!(lines.iter().all(|l| l.starts_with("POLYGON")));
        // Every line parses.
        for l in &lines {
            let wkt_part = l.split('\t').next().unwrap();
            mvio_geom::wkt::parse(wkt_part).unwrap();
        }
    }

    #[test]
    fn generation_is_reproducible() {
        let mk = || {
            let fs = SimFs::new(FsConfig::gpfs_roger());
            let rep = generate(&fs, &table3()[4], 10_000_000, 7);
            fs.open(&rep.path).unwrap().snapshot()
        };
        assert_eq!(mk(), mk());
    }
}
