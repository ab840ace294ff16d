//! Distributed spatial indexing (Figure 20) as the resident
//! [`QueryEngine`](crate::QueryEngine) builds it: ingest one WKT file, adopt
//! the received frames, then build each rank's R-tree over its replicas.
//! Only tests live here; the index itself is the engine.

#[cfg(test)]
mod tests {
    use crate::breakdown::PhaseTimer;
    use crate::{EngineOptions, PhaseBreakdown, Query, QueryAnswer, QueryEngine};
    use mvio_core::decomp::{DecompConfig, SpatialDecomposition};
    use mvio_core::grid::GridSpec;
    use mvio_core::partition::ReadOptions;
    use mvio_core::pipeline::{ingest_layers, PipelineOptions};
    use mvio_core::reader::WktLineParser;
    use mvio_core::resident::ResidentStore;
    use mvio_geom::Rect;
    use mvio_msim::{Comm, Topology, World, WorldConfig};
    use mvio_pfs::{FsConfig, SimFs};
    use std::sync::Arc;

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

    /// Builds the engine index over `data.wkt` with Figure 20's phase
    /// split and returns it with this rank's breakdown.
    fn build_index(comm: &mut Comm, fs: &Arc<SimFs>, side: u32) -> (QueryEngine, PhaseBreakdown) {
        let mut timer = PhaseTimer::start(comm);
        let cfg = DecompConfig::uniform(GridSpec::square(side));
        let (read, pipe) = (ReadOptions::default(), PipelineOptions::default());
        let (paths, ex) = (["data.wkt"], Default::default());
        let ingested =
            ingest_layers(comm, fs, &paths, &read, &WktLineParser, &cfg, &pipe, &ex).unwrap();
        timer.end_partition(ingested.partition_end);
        let owned = std::slice::from_ref(&ingested.layers[0].owned);
        let store = ResidentStore::from_frames(comm, owned);
        timer.end_communication(comm);
        let eng = QueryEngine::from_store(comm, ingested.decomp, store, &EngineOptions::default());
        timer.end_compute(comm);
        let local = timer.finish(comm);
        (eng, local)
    }

    #[test]
    fn index_covers_every_feature() {
        let fs = SimFs::new(FsConfig::gpfs_roger());
        build_dataset(&fs, 200);
        let out = World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
            let (eng, breakdown) = build_index(comm, &fs, 4);
            let d = eng.decomposition();
            let mine = (0..d.num_cells())
                .filter(|&c| d.cell_to_rank(c) == comm.rank())
                .count();
            (eng.resident_replicas(), mine, breakdown)
        });
        // Non-spanning features appear exactly once; these squares sit
        // strictly inside the grid so most are single-cell. Every feature
        // appears at least once across ranks.
        let total: usize = out.iter().map(|(n, _, _)| n).sum();
        assert!(total >= 200, "indexed {total}");
        // All 16 cells are owned by exactly one rank.
        let cells: usize = out.iter().map(|(_, c, _)| c).sum();
        assert_eq!(cells, 16);
        assert!(out[0].2.total > 0.0);
    }

    #[test]
    fn indexes_answer_queries_locally() {
        let fs = SimFs::new(FsConfig::gpfs_roger());
        build_dataset(&fs, 100);
        let out = World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
            let (mut eng, _) = build_index(comm, &fs, 2);
            let probe = Query::Range(Rect::new(0.0, 0.0, 3.0, 3.0));
            eng.serve(comm, &[probe]).unwrap().answers
        });
        // Squares with x in 0..=3 and y in 0..=3 touch the probe box; the
        // served answer names each once, whichever cells hold replicas.
        for answers in &out {
            let QueryAnswer::Matches(ids) = &answers[0] else {
                panic!("range answer expected");
            };
            let mut want: Vec<String> = (0..4)
                .flat_map(|y| (0..4).map(move |x| format!("id={}", y * 20 + x)))
                .collect();
            want.sort();
            let mut got = ids.clone();
            got.sort();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn breakdown_phases_scale_down_with_ranks() {
        // Enough data that parsing (which parallelizes) dominates the
        // per-request I/O latency floor.
        let n = 6000;
        let run = |topo: Topology| {
            let fs = SimFs::new(FsConfig::gpfs_roger());
            build_dataset(&fs, n);
            World::run(WorldConfig::new(topo), move |comm| {
                let (_, local) = build_index(comm, &fs, 4);
                PhaseBreakdown::reduce_max(comm, local)
            })[0]
        };
        let b1 = run(Topology::single_node(1));
        let b4 = run(Topology::new(2, 2));
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
