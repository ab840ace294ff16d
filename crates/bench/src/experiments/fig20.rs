//! Figure 20: execution-time breakdown for distributed spatial indexing
//! of Road Network (137 GB, 717 M edges) over 2048 grid cells —
//! "indexing of 717M edges takes only 90 seconds" with 320 processes.

use super::{cost_scaled, gpfs_scaled, install_dataset, spec, Scale};
use crate::report::Table;
use mvio_core::decomp::DecompConfig;
use mvio_core::exchange::ExchangeChunk;
use mvio_core::grid::GridSpec;
use mvio_core::partition::ReadOptions;
use mvio_core::pipeline::{ingest_layers, PipelineOptions};
use mvio_core::reader::WktLineParser;
use mvio_core::resident::ResidentStore;
use mvio_msim::{Topology, World, WorldConfig};
use mvio_pfs::SimFs;
use mvio_sjoin::breakdown::PhaseTimer;
use mvio_sjoin::{EngineOptions, PhaseBreakdown, QueryEngine};

/// Runs one distributed-indexing job — ingest, then the resident
/// engine's R-tree build — and returns `(breakdown, total indexed)`.
pub fn index_run(scale: Scale, procs: usize, cells_per_side: u32) -> (PhaseBreakdown, u64) {
    let fs = SimFs::new(gpfs_scaled(scale));
    let nodes = procs.div_ceil(20).max(1);
    let topo = Topology::new(nodes, procs.div_ceil(nodes));
    fs.set_active_ranks(topo.ranks());
    install_dataset(&fs, &spec("Road Network"), scale, "roadnet.wkt", None);
    let cfg = WorldConfig::new(topo).with_cost(cost_scaled(scale));
    let out = World::run(cfg, move |comm| {
        let mut timer = PhaseTimer::start(comm);
        let cfg = DecompConfig::uniform(GridSpec::square(cells_per_side));
        let (read, pipe) = (ReadOptions::default(), PipelineOptions::default());
        let (paths, chunk) = (["roadnet.wkt"], ExchangeChunk::Unlimited);
        let ingested =
            ingest_layers(comm, &fs, &paths, &read, &WktLineParser, &cfg, &pipe, chunk).unwrap();
        timer.end_partition(ingested.partition_end);
        // Adopting the received frames is the last of the communication
        // phase; the R-tree build is the indexing phase.
        let store = ResidentStore::from_frames(comm, &ingested.layers[0].owned);
        timer.end_communication(comm);
        let eng = QueryEngine::from_store(comm, ingested.decomp, store, &EngineOptions::default());
        timer.end_compute(comm);
        let local = timer.finish(comm);
        (
            PhaseBreakdown::reduce_max(comm, local),
            eng.resident_replicas() as u64,
        )
    });
    let indexed: u64 = out.iter().map(|(_, n)| n).sum();
    (out[0].0, indexed)
}

/// Runs the Figure 20 sweep and renders the table.
pub fn run(scale: Scale, quick: bool) -> String {
    // 2048 cells ≈ 45x45 grid; quick mode shrinks everything.
    let side: u32 = if quick { 8 } else { 45 };
    let procs_sweep: Vec<usize> = if quick {
        vec![4, 8]
    } else {
        vec![80, 160, 320]
    };
    let mut t = Table::new(
        format!(
            "Figure 20: indexing breakdown, Road Network over {} cells (scaled 1/{})",
            side * side,
            scale.denominator
        ),
        &[
            "procs",
            "partition (s)",
            "comm (s)",
            "indexing (s)",
            "total (s)",
            "edges indexed",
        ],
    );
    let d = scale.denominator as f64;
    for procs in procs_sweep {
        let (b, indexed) = index_run(scale, procs, side);
        t.row(vec![
            procs.to_string(),
            format!("{:.2}", b.partition * d),
            format!("{:.2}", b.communication * d),
            format!("{:.2}", b.compute * d),
            format!("{:.2}", b.total * d),
            indexed.to_string(),
        ]);
    }
    t.note(
        "paper: every phase improves with process count; 717M edges index in ~90 s at 320 procs",
    );
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_phases_improve_with_processes() {
        let scale = Scale {
            denominator: 20_000,
        };
        let (b2, n2) = index_run(scale, 2, 8);
        let (b8, n8) = index_run(scale, 8, 8);
        assert_eq!(n2, n8, "indexed count is invariant");
        assert!(
            b8.partition < b2.partition,
            "partition {} -> {}",
            b2.partition,
            b8.partition
        );
        assert!(b8.total < b2.total, "total {} -> {}", b2.total, b8.total);
    }

    #[test]
    fn full_scale_estimate_lands_near_paper_magnitude() {
        // The headline: 137 GB / 717 M edges indexed in ~90 s at 320
        // procs. Our full-scale-equivalent total should land within the
        // same order of magnitude (tens to a few hundred seconds).
        let scale = Scale {
            denominator: 50_000,
        };
        let (b, _) = index_run(scale, 320, 16);
        let full = b.total * scale.denominator as f64;
        assert!(
            (10.0..1000.0).contains(&full),
            "full-scale-equivalent indexing time {full:.1}s should be within 10x of the paper's 90s"
        );
    }
}
