//! End-to-end distributed spatial join — the paper's exemplar
//! application ("find all pairs of rivers and cities that intersect").
//!
//! Generates two synthetic OSM-like layers (lake polygons and road
//! polylines), joins them on a 4-node × 4-rank job, and prints the
//! per-phase breakdown the paper reports in Figures 17–19.
//!
//! ```text
//! cargo run --release --example spatial_join
//! ```

use mpi_vector_io::datagen::{ShapeGen, SpatialDistribution};
use mpi_vector_io::prelude::*;

fn main() {
    let fs = SimFs::new(FsConfig::gpfs_roger());
    let world = Rect::new(0.0, 0.0, 100.0, 100.0);
    let dist = SpatialDistribution::Clustered {
        clusters: 12,
        skew: 1.1,
        spread: 0.03,
    };

    // Layer A: lake-like polygons. Layer B: road-like polylines.
    let lakes_bytes = mpi_vector_io::datagen::write_wkt_dataset(
        &fs,
        "lakes.wkt",
        ShapeKind::Polygon,
        ShapeGen::lake_polygons(),
        &dist,
        world,
        3000,
        42,
    );
    let roads_bytes = mpi_vector_io::datagen::write_wkt_dataset(
        &fs,
        "roads.wkt",
        ShapeKind::Line,
        ShapeGen::road_edges(),
        &dist,
        world,
        6000,
        43,
    );
    println!("lakes: 3000 polygons / {lakes_bytes} bytes");
    println!("roads: 6000 polylines / {roads_bytes} bytes");

    let topo = Topology::new(4, 4);
    fs.set_active_ranks(topo.ranks());
    let opts = JoinOptions {
        grid: GridSpec::square(16),
        decomp: mpi_vector_io::core::decomp::DecompPolicy::Uniform(CellMap::RoundRobin),
        read: ReadOptions::default(),
        ..Default::default()
    };
    let reports = World::run(WorldConfig::new(topo), move |comm| {
        spatial_join(comm, &fs, "lakes.wkt", "roads.wkt", &opts).expect("join")
    });

    let pairs: usize = reports.iter().map(|r| r.pairs.len()).sum();
    let candidates: u64 = reports.iter().map(|r| r.filter_candidates).sum();
    let refined: u64 = reports.iter().map(|r| r.refine_tests).sum();
    let exact: u64 = reports.iter().map(|r| r.exact_tests).sum();
    let exact_max = reports.iter().map(|r| r.exact_tests).max().unwrap_or(0);
    let b = reports[0].breakdown;

    println!("\nfilter candidates : {candidates}");
    println!("refine tests       : {refined} (after reference-point dedup)");
    println!(
        "exact tests        : {exact}, max/mean over ranks {:.3} (the rest decided by disc, hull and vertex)",
        exact_max as f64 * reports.len() as f64 / exact.max(1) as f64
    );
    println!("intersecting pairs : {pairs}");
    println!("\nphase breakdown (max over ranks, virtual seconds):");
    println!("{}", b.row("lakes ⋈ roads"));
    println!("\nsample results:");
    for (l, r) in reports.iter().flat_map(|r| &r.pairs).take(5) {
        println!("  {l} intersects {r}");
    }
    assert!(pairs > 0, "clustered layers must intersect somewhere");
}
