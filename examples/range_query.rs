//! Distributed range query over a point dataset — the "less compute
//! intensive" workload class the paper contrasts with spatial join when
//! discussing block-size granularity (§5.1.1).
//!
//! Generates an All-Nodes-style point cloud, ingests it into a resident
//! [`QueryEngine`] on an 8-rank job, serves one window query, and
//! cross-checks the distributed answer against a serial scan.
//!
//! ```text
//! cargo run --release --example range_query
//! ```

use mpi_vector_io::core::reader::parse_buffer_serial;
use mpi_vector_io::datagen::{ShapeGen, SpatialDistribution};
use mpi_vector_io::prelude::*;

fn main() {
    let fs = SimFs::new(FsConfig::gpfs_roger());
    let world = Rect::new(-180.0, -90.0, 180.0, 90.0);
    let dist = SpatialDistribution::Clustered {
        clusters: 16,
        skew: 1.0,
        spread: 0.05,
    };
    mpi_vector_io::datagen::write_wkt_dataset(
        &fs,
        "nodes.wkt",
        ShapeKind::Point,
        ShapeGen::small_polygons(),
        &dist,
        world,
        20_000,
        7,
    );
    println!(
        "dataset: 20,000 points ({} bytes)",
        fs.open("nodes.wkt").unwrap().len()
    );

    // Query window: a 30° x 20° box.
    let query = Rect::new(-20.0, -10.0, 10.0, 10.0);

    // Serial ground truth.
    let text = String::from_utf8(fs.open("nodes.wkt").unwrap().snapshot()).unwrap();
    let serial = parse_buffer_serial(&text, &WktLineParser)
        .unwrap()
        .iter()
        .filter(|f| {
            query.contains_point(match &f.geometry {
                Geometry::Point(p) => p,
                _ => unreachable!("point dataset"),
            })
        })
        .count() as u64;

    // Distributed query on 2 nodes x 4 ranks: ingest, index, serve.
    let topo = Topology::new(2, 4);
    fs.set_active_ranks(topo.ranks());
    let out = World::run(WorldConfig::new(topo), move |comm| {
        let cfg = DecompConfig::uniform(GridSpec::square(16));
        let (read, pipe) = (ReadOptions::default(), PipelineOptions::default());
        let ingested = pipeline::ingest(comm, &fs, "nodes.wkt", &read, &WktLineParser, &cfg, &pipe)
            .expect("ingest");
        let mut engine = QueryEngine::from_ingest(comm, ingested, &EngineOptions::default());
        let report = engine.serve(comm, &[Query::Range(query)]).expect("query");
        (engine.resident_replicas(), report.answers[0].len() as u64)
    });

    // Every rank receives the whole answer.
    let total = out[0].1;
    let replicas: usize = out.iter().map(|o| o.0).sum();
    println!("\nquery window      : {query}");
    println!("serial matches    : {serial}");
    println!("distributed total : {total}");
    println!("resident replicas : {replicas} over {} ranks", out.len());
    assert!(out.iter().all(|o| o.1 == serial), "distributed == serial");
    println!("\nOK: distributed range query matches the serial scan exactly.");
}
