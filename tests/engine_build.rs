//! The engine is built balanced: `QueryEngine::from_store` (behind
//! `from_ingest` and `from_snapshot`) re-bisects the resident load once
//! and migrates the cells whose owner changed, when that lowers the
//! max/mean. These tests check that a skewed layer comes out more even
//! than the decomposition it was landed under and still answers like a
//! full scan, that a layer already even is left exactly as it landed,
//! and that a snapshot reload takes the same path.

mod common;

use common::{canon, lcg, mk_features, mk_queries, oracle, WORLD};
use mpi_vector_io::core::decomp::imbalance_ratio;
use mpi_vector_io::core::exchange::RecordFrame;
use mpi_vector_io::prelude::*;
use std::sync::Arc;

/// A mixed layer piled into two grid columns (x in [2, 4), y in
/// [1, 15)) with a sparse uniform background, plus anchor points at the
/// world's corners so the bounds are the whole world. Under the
/// round-robin map of a 16 × 16 grid, a column is one rank's, so a few
/// ranks hold nearly everything.
fn clustered_layer() -> Vec<Feature> {
    let mut next = lcg(0xB1A5);
    let mut coords: Vec<(f64, f64)> = (0..240)
        .map(|_| (2.0 + 1.9 * next(), 1.0 + 14.0 * next()))
        .collect();
    coords.extend((0..60).map(|_| (WORLD * next(), WORLD * next())));
    let mut features = mk_features(&coords);
    for (x, y, tag) in [(0.0, 0.0, "anchor-min"), (WORLD, WORLD, "anchor-max")] {
        features.push(Feature::with_userdata(
            Geometry::Point(Point::new(x, y)),
            tag,
        ));
    }
    features
}

/// A filesystem holding `features` as the WKT layer `layer.wkt`.
fn layer_fs(features: &[Feature]) -> Arc<SimFs> {
    let fs = SimFs::new(FsConfig::gpfs_roger());
    let mut text = String::new();
    for f in features {
        text.push_str(&format!("{}\t{}\n", wkt::write(&f.geometry), f.userdata));
    }
    fs.create("layer.wkt", None)
        .unwrap()
        .append(text.as_bytes());
    fs
}

/// Ingests `layer.wkt` under the round-robin map of a `side`² grid.
fn ingest(comm: &mut Comm, fs: &Arc<SimFs>, side: u32) -> pipeline::IngestOutput {
    let read = ReadOptions {
        block_size: Some(2048),
        ..Default::default()
    };
    let cfg = DecompConfig::uniform(GridSpec::square(side));
    let pipe = PipelineOptions::default();
    pipeline::ingest(comm, fs, "layer.wkt", &read, &WktLineParser, &cfg, &pipe).unwrap()
}

/// A fixed mixed batch of range, point and kNN queries over the world.
fn queries() -> Vec<Query> {
    let mut next = lcg(0x0E41);
    let seeds: Vec<(u8, f64, f64, f64)> = (0..24)
        .map(|i| (i as u8, WORLD * next(), WORLD * next(), 0.1 + 3.0 * next()))
        .collect();
    mk_queries(&seeds)
}

/// Checks one rank's answers against a full scan of `features`.
fn assert_scan_answers(features: &[Feature], got: &[QueryAnswer], what: &str) {
    for (q, answer) in queries().iter().zip(got) {
        assert_eq!(canon(answer), canon(&oracle(features, q)), "{what}: {q:?}");
    }
}

/// What one rank reports: replicas landed by the ingest, replicas
/// resident once the engine is built, and the answers it served.
type Built = (u64, u64, Vec<QueryAnswer>);

/// Max/mean over ranks of the landed and of the resident replica counts.
fn imbalances(out: &[Built]) -> (f64, f64) {
    let landed: Vec<u64> = out.iter().map(|o| o.0).collect();
    let resident: Vec<u64> = out.iter().map(|o| o.1).collect();
    (imbalance_ratio(&landed), imbalance_ratio(&resident))
}

#[test]
fn a_clustered_layer_builds_balanced_and_answers_like_a_scan() {
    let features = Arc::new(clustered_layer());
    for ranks in [4, 16] {
        let fs = layer_fs(&features);
        let out: Vec<Built> = World::run(WorldConfig::new(Topology::single_node(ranks)), |comm| {
            let ing = ingest(comm, &fs, 16);
            let landed = ing.owned.len() as u64;
            let mut eng = QueryEngine::from_ingest(comm, ing, &EngineOptions::default());
            let answers = eng.serve(comm, &queries()).unwrap().answers;
            (landed, eng.resident_replicas() as u64, answers)
        });
        let (landed, resident) = imbalances(&out);
        assert!(
            resident < landed,
            "{ranks} ranks: resident max/mean {resident} is not below the landed {landed}"
        );
        let total = |pick: fn(&Built) -> u64| out.iter().map(pick).sum::<u64>();
        assert_eq!(
            total(|o| o.0),
            total(|o| o.1),
            "{ranks} ranks: a replica was lost"
        );
        for (rank, o) in out.iter().enumerate() {
            assert_scan_answers(&features, &o.2, &format!("{ranks} ranks, rank {rank}"));
        }
    }
}

/// Records as owned `(cell, wkb, userdata)`, in store order.
fn records<'a>(frames: impl Iterator<Item = RecordFrame<'a>>) -> Vec<(u32, Vec<u8>, String)> {
    frames
        .map(|fr| (fr.cell, fr.wkb.to_vec(), fr.userdata.to_string()))
        .collect()
}

#[test]
fn a_layer_the_rebisection_cannot_improve_builds_unchanged() {
    // An 8 × 8 lattice over [0, 7]² puts four points in every cell of a
    // 4 × 4 grid, so the round-robin map is already exact: max/mean 1.
    let mut text = String::new();
    for y in 0..8 {
        for x in 0..8 {
            text.push_str(&format!("POINT ({x} {y})\tp{x}_{y}\n"));
        }
    }
    let fs = SimFs::new(FsConfig::gpfs_roger());
    fs.create("layer.wkt", None)
        .unwrap()
        .append(text.as_bytes());
    let out = World::run(WorldConfig::new(Topology::single_node(4)), |comm| {
        let ing = ingest(comm, &fs, 4);
        let landed = ing.decomp.clone();
        let before = records(ing.owned.frames());
        let eng = QueryEngine::from_ingest(comm, ing, &EngineOptions::default());
        let owners_kept = (0..landed.num_cells())
            .all(|c| eng.decomposition().cell_to_rank(c) == landed.cell_to_rank(c));
        (owners_kept, before == records(eng.resident()), before.len())
    });
    for (rank, (owners_kept, same_records, n)) in out.into_iter().enumerate() {
        assert!(owners_kept, "rank {rank}: a cell changed owner");
        assert!(same_records, "rank {rank}: the resident records moved");
        assert_eq!(n, 16, "rank {rank}: four cells of four points each");
    }
}

#[test]
fn a_snapshot_engine_builds_balanced_too() {
    let features = Arc::new(clustered_layer());
    let fs = layer_fs(&features);
    let out: Vec<Built> = World::run(WorldConfig::new(Topology::single_node(8)), |comm| {
        let ing = ingest(comm, &fs, 16);
        let landed = ing.owned.len() as u64;
        ing.write_partitioned(comm, &fs, "layer.snap", &SnapshotWriteOptions::default())
            .unwrap();
        // Reloaded under the map it was written with, each rank lands
        // what the ingest landed; the build then balances it.
        let mut eng = QueryEngine::from_snapshot(
            comm,
            &fs,
            "layer.snap",
            DecompPolicy::Uniform(CellMap::RoundRobin),
            &SnapshotReadOptions::default(),
            &EngineOptions::default(),
        )
        .unwrap();
        let answers = eng.serve(comm, &queries()).unwrap().answers;
        (landed, eng.resident_replicas() as u64, answers)
    });
    let (landed, resident) = imbalances(&out);
    assert!(
        resident < landed,
        "resident max/mean {resident} is not below the landed {landed}"
    );
    for (rank, o) in out.iter().enumerate() {
        assert_scan_answers(&features, &o.2, &format!("snapshot engine, rank {rank}"));
    }
}
