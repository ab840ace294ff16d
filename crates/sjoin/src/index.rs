//! Distributed spatial indexing (paper Figure 20: "indexing up to 700M
//! geometries in 137 GB single file in 90 seconds" with 320 processes).

use crate::breakdown::{PhaseBreakdown, PhaseTimer};
use mvio_core::decomp::{DecompConfig, DecompPolicy};
use mvio_core::grid::GridSpec;
use mvio_core::partition::ReadOptions;
use mvio_core::pipeline::{ingest_layers, PipelineOptions};
use mvio_core::reader::WktLineParser;
use mvio_core::{Feature, Result};
use mvio_geom::index::RTree;
use mvio_geom::Rect;
use mvio_msim::{Comm, Work};
use mvio_pfs::SimFs;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-rank outcome of distributed index construction.
pub struct IndexReport {
    /// The per-cell R-trees this rank owns (cell id → index over the
    /// cell's features).
    pub cell_indexes: BTreeMap<u32, RTree<Feature>>,
    /// Total features indexed on this rank (replicas included).
    pub indexed: u64,
    /// Global max-over-ranks breakdown (partition / communication /
    /// indexing).
    pub breakdown: PhaseBreakdown,
}

/// Reads a WKT dataset, globally partitions it under `policy` over
/// `grid`, and builds one R-tree per owned cell — the paper's in-memory
/// spatial indexing workload.
/// Collective: every rank must call it.
pub fn build_distributed_index(
    comm: &mut Comm,
    fs: &Arc<SimFs>,
    path: &str,
    grid: GridSpec,
    policy: DecompPolicy,
    read: &ReadOptions,
) -> Result<IndexReport> {
    let mut timer = PhaseTimer::start(comm);

    // Partition phase (read, parse, decomposition, cell-map), then the
    // communication phase with the default options: single window, one
    // blocking round.
    let cfg = DecompConfig { grid, policy };
    let (pipe, ex) = (PipelineOptions::default(), Default::default());
    let ingested = ingest_layers(comm, fs, &[path], read, &WktLineParser, &cfg, &pipe, &ex)?;
    timer.end_partition(ingested.partition_end);

    // The per-cell R-trees hold objects, so what arrived is decoded here:
    // the exchange's validation scan already charged the received bytes,
    // the decode adds the per-object cost — together what the paper's
    // buffer management charges for deserializing the records.
    let layer = &ingested.layers[0];
    let mine = layer
        .owned
        .frames()
        .map(|frame| Ok((frame.cell, frame.to_feature()?)))
        .collect::<Result<Vec<_>>>()?;
    comm.charge(Work::SerializeGeoms {
        n: layer.exchange.records_received,
        bytes: 0,
    });
    timer.end_communication(comm);

    // Indexing phase: bulk-build one R-tree per owned cell.
    let mut by_cell: BTreeMap<u32, Vec<(Rect, Feature)>> = BTreeMap::new();
    let mut indexed = 0u64;
    for (cell, f) in mine {
        let mbr = f.geometry.envelope();
        by_cell.entry(cell).or_default().push((mbr, f));
        indexed += 1;
    }
    comm.charge(Work::RtreeInserts { n: indexed });
    let cell_indexes: BTreeMap<u32, RTree<Feature>> = by_cell
        .into_iter()
        .map(|(cell, items)| (cell, RTree::bulk_load(items)))
        .collect();
    timer.end_compute(comm);

    let local = timer.finish(comm);
    let breakdown = PhaseBreakdown::reduce_max(comm, local);
    Ok(IndexReport {
        cell_indexes,
        indexed,
        breakdown,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvio_msim::{Topology, World, WorldConfig};
    use mvio_pfs::FsConfig;

    fn build_dataset(fs: &Arc<SimFs>, n: usize) {
        let f = fs.create("data.wkt", None).unwrap();
        let mut text = String::new();
        for i in 0..n {
            let x = (i % 20) as f64;
            let y = (i / 20) as f64;
            text.push_str(&format!(
                "POLYGON (({x} {y}, {} {y}, {} {}, {x} {}, {x} {y}))\tid={i}\n",
                x + 0.5,
                x + 0.5,
                y + 0.5,
                y + 0.5
            ));
        }
        f.append(text.as_bytes());
    }

    #[test]
    fn index_covers_every_feature() {
        let fs = SimFs::new(FsConfig::gpfs_roger());
        build_dataset(&fs, 200);
        let out = World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
            let rep = build_distributed_index(
                comm,
                &fs,
                "data.wkt",
                GridSpec::square(4),
                DecompPolicy::Uniform(mvio_core::grid::CellMap::RoundRobin),
                &ReadOptions::default(),
            )
            .unwrap();
            (rep.indexed, rep.cell_indexes.len(), rep.breakdown)
        });
        // Non-spanning features appear exactly once; these squares sit
        // strictly inside the grid so most are single-cell. Every feature
        // appears at least once across ranks.
        let total: u64 = out.iter().map(|(n, _, _)| n).sum();
        assert!(total >= 200, "indexed {total}");
        // All 16 cells are owned somewhere.
        let cells: usize = out.iter().map(|(_, c, _)| c).sum();
        assert!(cells >= 16);
        assert!(out[0].2.total > 0.0);
    }

    #[test]
    fn indexes_answer_queries_locally() {
        let fs = SimFs::new(FsConfig::gpfs_roger());
        build_dataset(&fs, 100);
        let out = World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
            let rep = build_distributed_index(
                comm,
                &fs,
                "data.wkt",
                GridSpec::square(2),
                DecompPolicy::Uniform(mvio_core::grid::CellMap::RoundRobin),
                &ReadOptions::default(),
            )
            .unwrap();
            // Count features whose MBR touches a probe box, across my cells.
            let probe = Rect::new(0.0, 0.0, 3.0, 3.0);
            rep.cell_indexes
                .values()
                .map(|t| t.count(&probe))
                .sum::<usize>()
        });
        let found: usize = out.iter().sum();
        // Squares with x in 0..=3 (cols 0..3) and y in 0..=3 intersect;
        // possibly counted once per overlapping cell replica, so >= exact.
        assert!(found >= 16, "found {found}");
    }

    #[test]
    fn breakdown_phases_scale_down_with_ranks() {
        // Enough data that parsing (which parallelizes) dominates the
        // per-request I/O latency floor.
        let n = 6000;
        let fs1 = SimFs::new(FsConfig::gpfs_roger());
        build_dataset(&fs1, n);
        let b1 = World::run(WorldConfig::new(Topology::single_node(1)), move |comm| {
            build_distributed_index(
                comm,
                &fs1,
                "data.wkt",
                GridSpec::square(4),
                DecompPolicy::Uniform(mvio_core::grid::CellMap::RoundRobin),
                &ReadOptions::default(),
            )
            .unwrap()
            .breakdown
        })[0];
        let fs4 = SimFs::new(FsConfig::gpfs_roger());
        build_dataset(&fs4, n);
        let b4 = World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
            build_distributed_index(
                comm,
                &fs4,
                "data.wkt",
                GridSpec::square(4),
                DecompPolicy::Uniform(mvio_core::grid::CellMap::RoundRobin),
                &ReadOptions::default(),
            )
            .unwrap()
            .breakdown
        })[0];
        // The dominant partition (read+parse) phase must shrink with more
        // ranks — Figure 20's scaling claim.
        assert!(
            b4.partition < b1.partition,
            "partition {} -> {}",
            b1.partition,
            b4.partition
        );
    }
}
