//! Pipeline experiment: the text front half every workload runs
//! ([`ingest_layers`]: posted read → parse → decomposition → cell-map →
//! copy → exchange over modelled worker lanes) swept over 1/2/4/8
//! workers. Each rank runs every chunk on its own thread; chunk `k`'s
//! virtual seconds go to lane `k % workers`.
//!
//! Not a paper figure — the paper's ranks are single-threaded — but the
//! natural extension of its overlap argument: the related parallel-I/O
//! systems in PAPERS.md overlap I/O with compute inside each process.
//! Reported times are deterministic virtual seconds (max over ranks). The
//! *front half* runs from the start to the end of the cell-map, where
//! the ingest's communication phase begins (`partition_end`); the
//! copies into wire buffers and the exchange follow, and *total* is both
//! (Amdahl's law in miniature: the read and the exchange take no lanes).

use super::{cost_scaled, gpfs_scaled, install_dataset, spec, Scale};
use crate::report::Table;
use mvio_core::decomp::DecompConfig;
use mvio_core::grid::GridSpec;
use mvio_core::partition::ReadOptions;
use mvio_core::pipeline::{ingest_layers, PipelineOptions};
use mvio_core::reader::WktLineParser;
use mvio_core::{ExchangeChunk, ExchangeStats};
use mvio_msim::{Topology, World, WorldConfig};
use mvio_pfs::SimFs;

/// Per-worker-count measurement: `(front half, serialize + exchange,
/// total)` max-over-ranks virtual seconds for one [`ingest_layers`] run
/// over `dataset`, plus the busiest rank's exchange counters (rounds,
/// sent/received bytes).
pub fn ingest_times(
    dataset: &str,
    scale: Scale,
    nodes: usize,
    ppn: usize,
    workers: usize,
) -> (f64, f64, f64, ExchangeStats) {
    let fs = SimFs::new(gpfs_scaled(scale));
    let topo = Topology::new(nodes, ppn);
    fs.set_active_ranks(topo.ranks());
    install_dataset(&fs, &spec(dataset), scale, "data.wkt", None);
    let read = ReadOptions::default().with_block_size(64 << 10);
    let popts = PipelineOptions::default().with_workers(workers);
    let cfg = WorldConfig::new(topo).with_cost(cost_scaled(scale));
    let out = World::run(cfg, move |comm| {
        let start = comm.now();
        let decomp = DecompConfig::uniform(GridSpec::square(16));
        let chunk = ExchangeChunk::Unlimited;
        let parser = &WktLineParser;
        let ingested = ingest_layers(
            comm,
            &fs,
            &["data.wkt"],
            &read,
            parser,
            &decomp,
            &popts,
            chunk,
        )
        .unwrap();
        let (mid, end) = (ingested.partition_end, comm.now());
        let stats = ingested.layers.into_iter().next().unwrap().exchange;
        (mid - start, end - mid, end - start, stats)
    });
    let max = |f: fn(&(f64, f64, f64, ExchangeStats)) -> f64| out.iter().map(f).fold(0.0, f64::max);
    let busiest = out
        .iter()
        .map(|t| t.3.clone())
        .max_by_key(|s| s.bytes_sent)
        .unwrap_or_default();
    (max(|t| t.0), max(|t| t.1), max(|t| t.2), busiest)
}

/// Runs the worker sweep and renders the table.
pub fn run(scale: Scale, quick: bool) -> String {
    let (nodes, ppn) = if quick { (1, 2) } else { (2, 4) };
    let dataset = "Lakes";
    let mut t = Table::new(
        format!(
            "Pipeline: streaming text ingest, {dataset} (scaled 1/{}), {} procs",
            scale.denominator,
            nodes * ppn
        ),
        &[
            "workers",
            "front half s",
            "front speedup",
            "serialize+exch s",
            "ingest total s",
            "total speedup",
            "exch rounds",
            "exch sent/recv MB",
        ],
    );
    let (mut base_front, mut base_total) = (0.0f64, 0.0f64);
    for workers in [1usize, 2, 4, 8] {
        let (front, exch, total, xstats) = ingest_times(dataset, scale, nodes, ppn, workers);
        if workers == 1 {
            (base_front, base_total) = (front, total);
        }
        t.row(vec![
            workers.to_string(),
            format!("{front:.6}"),
            format!("{:.2}x", base_front / front),
            format!("{exch:.6}"),
            format!("{total:.6}"),
            format!("{:.2}x", base_total / total),
            xstats.rounds.to_string(),
            format!(
                "{:.1}/{:.1}",
                xstats.bytes_sent as f64 / (1 << 20) as f64,
                xstats.bytes_received as f64 / (1 << 20) as f64
            ),
        ]);
    }
    t.note("front half = read, parse, decomposition and cell-map (start to partition_end); serialize+exch = the copies into wire buffers and the exchange");
    t.note("output is bit-identical at every worker count (asserted by the test suite)");
    t.note("exchange counters are the busiest rank's; rounds = 1 is the blocking exchange");
    t.note("expectation: the front half speeds up with the workers until the posted read bounds the parse; total obeys Amdahl (the read and the exchange take no lanes)");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_workers_speed_up_the_overlapped_stages() {
        let scale = Scale {
            denominator: 20_000,
        };
        let (f1, _, t1, x1) = ingest_times("Lakes", scale, 1, 2, 1);
        let (f4, _, t4, x4) = ingest_times("Lakes", scale, 1, 2, 4);
        // The exchanged volume is a property of the data, not the workers.
        assert_eq!(x1.bytes_sent, x4.bytes_sent);
        assert!(x1.rounds >= 1);
        let speedup = f1 / f4;
        assert!(
            speedup >= 1.5,
            "the front half at 4 workers must be >= 1.5x over 1 worker, got {speedup:.2}x \
             ({f1:.6} -> {f4:.6})"
        );
        assert!(
            t4 < t1,
            "end-to-end ingest must also shrink: {t1:.6} -> {t4:.6}"
        );
    }
}
