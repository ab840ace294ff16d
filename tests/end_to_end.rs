//! Cross-crate integration tests: the full catalog → partition → grid →
//! exchange → join/index/query pipeline, validated against brute force.

mod common;

use common::{brute_force_join, catalog_fs, materialize, read_share};
use mpi_vector_io::core::grid::{CellMap, GridSpec, UniformGrid};
use mpi_vector_io::datagen;
use mpi_vector_io::prelude::*;
use std::sync::Arc;

/// Serially parses one WKT file of `fs`.
fn parse_file(fs: &Arc<SimFs>, path: &str) -> Vec<Feature> {
    let text = String::from_utf8(fs.open(path).unwrap().snapshot()).unwrap();
    mpi_vector_io::core::reader::parse_buffer_serial(&text, &WktLineParser).unwrap()
}

#[test]
fn distributed_join_matches_brute_force_on_catalog_data() {
    let denom = 50_000; // Lakes 160, Cemetery 16 — brute force affordable
    let fs = catalog_fs(denom, 7);
    let expect = brute_force_join(
        &parse_file(&fs, "lakes.wkt"),
        &parse_file(&fs, "cemetery.wkt"),
    );

    for (nodes, ppn, cells) in [(1, 1, 4u32), (2, 2, 8), (2, 3, 16)] {
        let fs = Arc::clone(&fs);
        let topo = Topology::new(nodes, ppn);
        let out = World::run(WorldConfig::new(topo), move |comm| {
            let opts = JoinOptions {
                grid: GridSpec::square(cells),
                read: ReadOptions::default().with_block_size(256 << 10),
                ..Default::default()
            };
            spatial_join(comm, &fs, "lakes.wkt", "cemetery.wkt", &opts).unwrap()
        });
        let mut pairs: Vec<(String, String)> = out.iter().flat_map(|r| r.pairs.clone()).collect();
        pairs.sort();
        assert_eq!(
            pairs, expect,
            "join must equal brute force at {nodes}x{ppn} ranks, {cells}x{cells} cells"
        );
    }
}

#[test]
fn exchange_preserves_every_feature_with_real_data() {
    let denom = 100_000;
    let fs = catalog_fs(denom, 7);
    let out = World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
        let rep = pipeline::ingest(
            comm,
            &fs,
            "lakes.wkt",
            &ReadOptions::default().with_block_size(128 << 10),
            &WktLineParser,
            &DecompConfig::uniform(GridSpec::square(8)),
            &PipelineOptions::default(),
        )
        .unwrap();
        let mine = materialize(rep.owned.frames());
        // Every received pair belongs to a cell this rank owns.
        for (cell, _) in &mine {
            assert_eq!(rep.decomp.cell_to_rank(*cell), comm.rank());
        }
        let total_sent = comm.allreduce_u64(rep.stats.pairs, |a, b| a + b);
        let total_recv = comm.allreduce_u64(rep.exchange.records_received, |a, b| a + b);
        assert_eq!(
            total_sent, total_recv,
            "no pair lost or duplicated in flight"
        );
        mine.len()
    });
    assert!(out.iter().sum::<usize>() > 0);
}

#[test]
fn range_query_matches_serial_filter() {
    let denom = 100_000;
    let fs = catalog_fs(denom, 7);
    let query = {
        // Use the densest region: the global MBR's middle third.
        let text = String::from_utf8(fs.open("lakes.wkt").unwrap().snapshot()).unwrap();
        let feats =
            mpi_vector_io::core::reader::parse_buffer_serial(&text, &WktLineParser).unwrap();
        let mbr = feats
            .iter()
            .fold(Rect::EMPTY, |a, f| a.union(&f.geometry.envelope()));
        Rect::new(
            mbr.min_x + mbr.width() * 0.2,
            mbr.min_y + mbr.height() * 0.2,
            mbr.max_x - mbr.width() * 0.2,
            mbr.max_y - mbr.height() * 0.2,
        )
    };

    // Serial ground truth with the exact predicate.
    let text = String::from_utf8(fs.open("lakes.wkt").unwrap().snapshot()).unwrap();
    let feats = mpi_vector_io::core::reader::parse_buffer_serial(&text, &WktLineParser).unwrap();
    let expect: u64 = feats
        .iter()
        .filter(|f| mpi_vector_io::geom::algo::rect_intersects_geometry(&query, &f.geometry))
        .count() as u64;

    let out = World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
        range_query(
            comm,
            &fs,
            "lakes.wkt",
            query,
            GridSpec::square(8),
            &ReadOptions::default().with_block_size(128 << 10),
        )
        .unwrap()
        .total_matches
    });
    assert!(
        out.iter().all(|&n| n == expect),
        "got {out:?}, want {expect}"
    );
}

#[test]
fn distributed_index_preserves_feature_multiset() {
    let denom = 100_000;
    let fs = catalog_fs(denom, 7);
    // Serial: project features to cells and count replicas.
    let text = String::from_utf8(fs.open("lakes.wkt").unwrap().snapshot()).unwrap();
    let feats = mpi_vector_io::core::reader::parse_buffer_serial(&text, &WktLineParser).unwrap();
    let mbr = feats
        .iter()
        .fold(Rect::EMPTY, |a, f| a.union(&f.geometry.envelope()));
    let grid = UniformGrid::new(mbr, GridSpec::square(8));
    let expect: u64 = feats
        .iter()
        .map(|f| grid.cells_overlapping(&f.geometry.envelope()).len() as u64)
        .sum();

    let out = World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
        build_distributed_index(
            comm,
            &fs,
            "lakes.wkt",
            GridSpec::square(8),
            mpi_vector_io::core::decomp::DecompPolicy::Uniform(CellMap::RoundRobin),
            &ReadOptions::default().with_block_size(128 << 10),
        )
        .unwrap()
        .indexed
    });
    let total: u64 = out.iter().sum();
    assert_eq!(
        total, expect,
        "cell-replicated feature count must match serial projection"
    );
}

#[test]
fn full_pipeline_runs_on_every_catalog_dataset() {
    // Smoke the reader across all six Table 3 datasets at micro scale.
    let fs = SimFs::new(FsConfig::gpfs_roger());
    for spec in datagen::table3() {
        let rep = datagen::catalog::generate(&fs, &spec, 5_000_000, 3);
        let fs = Arc::clone(&fs);
        let path = rep.path.clone();
        let out = World::run(WorldConfig::new(Topology::single_node(3)), move |comm| {
            let read = ReadOptions::default().with_block_size(64 << 10);
            let feats = read_share(comm, &fs, &path, &read).unwrap();
            comm.allreduce_u64(feats.len() as u64, |a, b| a + b)
        });
        assert_eq!(out[0], rep.count, "dataset {} round-trips", spec.name);
    }
}
