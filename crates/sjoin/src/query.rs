//! Distributed range query: the "less compute intensive" workload the
//! paper contrasts with join when discussing block-size granularity
//! (§5.1.1: "a user can specify coarse-grained block size if the
//! application is less compute intensive e.g. range query").

use crate::breakdown::{PhaseBreakdown, PhaseTimer};
use crate::engine::{self, EngineOptions, Query, QueryEngine};
use mvio_core::decomp::{self, DecompConfig, SpatialDecomposition};
use mvio_core::exchange::{exchange_features_frames_windows, ExchangeOptions};
use mvio_core::grid::GridSpec;
use mvio_core::partition::{read_features, ReadOptions};
use mvio_core::reader::WktLineParser;
use mvio_core::resident::ResidentStore;
use mvio_core::{Feature, Result};
use mvio_geom::Rect;
use mvio_msim::Comm;
use mvio_pfs::SimFs;
use std::sync::Arc;

/// Shared partition+exchange front half of the one-shot query paths:
/// read the WKT layer, build the paper's uniform round-robin
/// decomposition, project to cells, and exchange to owners — who keep
/// what they receive as the validated wire frames it arrived as.
fn read_and_partition(
    comm: &mut Comm,
    fs: &Arc<SimFs>,
    path: &str,
    grid: GridSpec,
    read: &ReadOptions,
    timer: Option<&mut PhaseTimer>,
) -> Result<(Box<dyn SpatialDecomposition>, ResidentStore)> {
    let features = read_features(comm, fs, path, read, &WktLineParser)?;
    let sd = decomp::build_global(comm, &[&features], &DecompConfig::uniform(grid));
    let rtree = decomp::build_cell_rtree(comm, &*sd);
    let pairs = decomp::project_to_cells(comm, &rtree, &features);
    let owned: Vec<(u32, Feature)> = pairs
        .into_iter()
        .map(|(cell, idx)| (cell, features[idx].clone()))
        .collect();
    if let Some(timer) = timer {
        timer.end_partition(comm);
    }
    let (frames, _) =
        exchange_features_frames_windows(comm, owned, &*sd, &ExchangeOptions::default())?;
    let mine = ResidentStore::from_frames(comm, &frames);
    Ok((sd, mine))
}

/// Per-rank outcome of a distributed range query.
#[derive(Debug, Clone)]
pub struct RangeQueryReport {
    /// Userdata of matching features found by this rank (duplicate-free:
    /// each replica is claimed only by the cell containing its MBR's
    /// reference corner).
    pub matches: Vec<String>,
    /// Global match count (allreduced; identical on every rank).
    pub total_matches: u64,
    /// Global max-over-ranks breakdown.
    pub breakdown: PhaseBreakdown,
}

/// Finds all features intersecting `query`: filter on cell/MBR overlap,
/// refine with the exact predicate, over the paper's uniform round-robin
/// grid.
///
/// A one-shot wrapper over [`crate::engine::QueryEngine`]: the
/// partition/communication phases build a throwaway engine and the
/// compute phase is its local filter+refine walk, so this path and the
/// resident serving path share one claiming/refine implementation. The
/// query rect is validated up front (NaN or inverted rects are a typed
/// [`mvio_core::CoreError::InvalidOptions`]); every rank passes the same
/// rect, so rejection is symmetric and nobody is stranded mid-collective.
pub fn range_query(
    comm: &mut Comm,
    fs: &Arc<SimFs>,
    path: &str,
    query: Rect,
    grid: GridSpec,
    read: &ReadOptions,
) -> Result<RangeQueryReport> {
    engine::validate_query(&Query::Range(query))?;
    let mut timer = PhaseTimer::start(comm);
    let (sd, mine) = read_and_partition(comm, fs, path, grid, read, Some(&mut timer))?;
    timer.end_communication(comm);

    let eng = QueryEngine::from_store(comm, sd, mine, &EngineOptions::default());
    let matches = eng.local_range_matches(comm, &query)?;
    timer.end_compute(comm);

    let local = timer.finish(comm);
    let breakdown = PhaseBreakdown::reduce_max(comm, local);
    let total_matches = comm.allreduce_u64(matches.len() as u64, |a, b| a + b);
    Ok(RangeQueryReport {
        matches,
        total_matches,
        breakdown,
    })
}

/// Distributed **batch** query: many windows answered in one pass over
/// the pipeline (paper §4.3: "for spatial query workload, the second
/// collection can be treated as geometries from batch query").
///
/// Every rank passes the same `queries` slice; the result is the global
/// per-query match count (identical on every rank). Queries are not
/// exchanged — they are replicated, and each owned cell answers the
/// queries overlapping it, deduplicated by the reference-point rule.
/// Collective: every rank must call it with its own batch.
pub fn batch_query(
    comm: &mut Comm,
    fs: &Arc<SimFs>,
    path: &str,
    queries: &[Rect],
    grid: GridSpec,
    read: &ReadOptions,
) -> Result<Vec<u64>> {
    let (sd, mine) = read_and_partition(comm, fs, path, grid, read, None)?;
    let mut eng = QueryEngine::from_store(comm, sd, mine, &EngineOptions::default());
    // Every rank issues the whole batch, so every rank receives the full
    // global answer for every query — the counts come out identical
    // everywhere without a final reduction.
    let qs: Vec<Query> = queries.iter().map(|r| Query::Range(*r)).collect();
    let report = eng.serve(comm, &qs)?;
    Ok(report.answers.iter().map(|a| a.len() as u64).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvio_msim::{Topology, World, WorldConfig};
    use mvio_pfs::FsConfig;

    fn build(fs: &Arc<SimFs>) {
        let f = fs.create("pts.wkt", None).unwrap();
        let mut text = String::new();
        // 10x10 lattice of points labelled by coordinates.
        for y in 0..10 {
            for x in 0..10 {
                text.push_str(&format!("POINT ({x} {y})\tp{x}_{y}\n"));
            }
        }
        f.append(text.as_bytes());
    }

    #[test]
    fn range_query_finds_exact_lattice_subset() {
        let fs = SimFs::new(FsConfig::gpfs_roger());
        build(&fs);
        let out = World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
            range_query(
                comm,
                &fs,
                "pts.wkt",
                Rect::new(2.5, 2.5, 5.5, 4.5),
                GridSpec::square(4),
                &ReadOptions::default(),
            )
            .unwrap()
        });
        // Points with x in {3,4,5}, y in {3,4}: 6 matches.
        assert!(out.iter().all(|r| r.total_matches == 6));
        let mut all: Vec<String> = out.iter().flat_map(|r| r.matches.clone()).collect();
        all.sort();
        assert_eq!(all, vec!["p3_3", "p3_4", "p4_3", "p4_4", "p5_3", "p5_4"]);
    }

    #[test]
    fn empty_query_region_matches_nothing() {
        let fs = SimFs::new(FsConfig::gpfs_roger());
        build(&fs);
        let out = World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
            range_query(
                comm,
                &fs,
                "pts.wkt",
                Rect::new(50.0, 50.0, 60.0, 60.0),
                GridSpec::square(4),
                &ReadOptions::default(),
            )
            .unwrap()
            .total_matches
        });
        assert_eq!(out, vec![0, 0]);
    }

    #[test]
    fn batch_query_matches_individual_queries() {
        let fs = SimFs::new(FsConfig::gpfs_roger());
        build(&fs);
        let queries = vec![
            Rect::new(2.5, 2.5, 5.5, 4.5),     // 6 lattice points
            Rect::new(0.0, 0.0, 1.0, 1.0),     // 4 corner points
            Rect::new(50.0, 50.0, 60.0, 60.0), // none
            Rect::new(-1.0, -1.0, 9.5, 9.5),   // 100 points
        ];
        let q = queries.clone();
        let out = World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
            batch_query(
                comm,
                &fs,
                "pts.wkt",
                &q,
                GridSpec::square(4),
                &ReadOptions::default(),
            )
            .unwrap()
        });
        for counts in &out {
            assert_eq!(counts, &vec![6, 4, 0, 100]);
        }
    }

    #[test]
    fn boundary_touching_points_match() {
        let fs = SimFs::new(FsConfig::gpfs_roger());
        build(&fs);
        let out = World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
            range_query(
                comm,
                &fs,
                "pts.wkt",
                Rect::new(0.0, 0.0, 1.0, 1.0),
                GridSpec::square(4),
                &ReadOptions::default(),
            )
            .unwrap()
            .total_matches
        });
        // Points (0,0), (1,0), (0,1), (1,1) all touch the closed box.
        assert_eq!(out, vec![4, 4]);
    }
}
