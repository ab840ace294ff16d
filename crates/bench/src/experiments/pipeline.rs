//! Pipeline experiment: the intra-rank streaming ingest
//! (parse → cell-map → serialize over modelled worker lanes) swept over
//! 1/2/4/8 workers. Each rank runs every chunk on its own thread; chunk
//! `k`'s virtual seconds go to lane `k % workers`.
//!
//! Not a paper figure — the paper's ranks are single-threaded — but the
//! natural extension of its overlap argument: the related parallel-I/O
//! systems in PAPERS.md overlap I/O with compute inside each process.
//! Reported times are deterministic virtual seconds (max over ranks); the
//! *overlap* column isolates the two pipelined stages, where the speedup
//! must approach the worker count, while *ingest total* includes the
//! unaccelerated read and exchange (Amdahl's law in miniature).

use super::{cost_scaled, gpfs_scaled, install_dataset, spec, Scale};
use crate::report::Table;
use mvio_core::decomp::{DecompConfig, Decomposition};
use mvio_core::grid::GridSpec;
use mvio_core::partition::{read_partition_text, ReadOptions};
use mvio_core::pipeline::{parse_chunked, partition_chunked, PipelineOptions};
use mvio_core::reader::WktLineParser;
use mvio_msim::{Topology, World, WorldConfig};
use mvio_pfs::SimFs;

/// Per-worker-count measurement: `(parse, partition, exchange, total)`
/// max-over-ranks virtual seconds for one full ingest of `dataset`, plus
/// the busiest rank's exchange counters (rounds, sent/received bytes).
#[allow(clippy::type_complexity)]
pub fn ingest_times(
    dataset: &str,
    scale: Scale,
    nodes: usize,
    ppn: usize,
    workers: usize,
) -> (f64, f64, f64, f64, mvio_core::ExchangeStats) {
    let fs = SimFs::new(gpfs_scaled(scale));
    let topo = Topology::new(nodes, ppn);
    fs.set_active_ranks(topo.ranks());
    install_dataset(&fs, &spec(dataset), scale, "data.wkt", None);
    let read = ReadOptions::default().with_block_size(64 << 10);
    let popts = PipelineOptions::default().with_workers(workers);
    let cfg = WorldConfig::new(topo).with_cost(cost_scaled(scale));
    let out = World::run(cfg, move |comm| {
        let t0 = comm.now();
        let text = read_partition_text(comm, &fs, "data.wkt", &read).unwrap();
        let t1 = comm.now();
        let (feats, _) = parse_chunked(comm, &text, &WktLineParser, &popts).unwrap();
        drop(text);
        let t2 = comm.now();
        let cfg = DecompConfig::uniform(GridSpec::square(16));
        let envelopes: Vec<_> = feats.iter().map(|f| f.geometry.envelope()).collect();
        let sd = Decomposition::build_global(comm, &[&envelopes], &cfg, false).unwrap();
        let (batch, _) = partition_chunked(comm, &sd, &feats, &popts).unwrap();
        drop(feats);
        let t3 = comm.now();
        let chunk = mvio_core::ExchangeChunk::Unlimited;
        let (_, stats) = mvio_core::exchange::exchange_serialized(comm, batch, chunk).unwrap();
        let t4 = comm.now();
        (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t4, stats)
    });
    let max = |f: fn(&(f64, f64, f64, f64, f64, mvio_core::ExchangeStats)) -> f64| {
        out.iter().map(f).fold(0.0, f64::max)
    };
    let times = (max(|t| t.1), max(|t| t.2), max(|t| t.3), max(|t| t.4));
    let busiest = out
        .iter()
        .map(|t| t.5.clone())
        .max_by_key(|s| s.bytes_sent)
        .unwrap_or_default();
    (times.0, times.1, times.2, times.3, busiest)
}

/// Runs the worker sweep and renders the table.
pub fn run(scale: Scale, quick: bool) -> String {
    let (nodes, ppn) = if quick { (1, 2) } else { (2, 4) };
    let dataset = "Lakes";
    let mut t = Table::new(
        format!(
            "Pipeline: streaming parse→partition ingest, {dataset} (scaled 1/{}), {} procs",
            scale.denominator,
            nodes * ppn
        ),
        &[
            "workers",
            "parse s",
            "partition s",
            "overlap s",
            "overlap speedup",
            "ingest total s",
            "total speedup",
            "exch rounds",
            "exch sent/recv MB",
        ],
    );
    let mut base_overlap = 0.0f64;
    let mut base_total = 0.0f64;
    for workers in [1usize, 2, 4, 8] {
        let (parse, part, _exch, total, xstats) = ingest_times(dataset, scale, nodes, ppn, workers);
        let overlap = parse + part;
        if workers == 1 {
            base_overlap = overlap;
            base_total = total;
        }
        t.row(vec![
            workers.to_string(),
            format!("{parse:.6}"),
            format!("{part:.6}"),
            format!("{overlap:.6}"),
            format!("{:.2}x", base_overlap / overlap),
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
    t.note("output is bit-identical at every worker count (asserted by the test suite)");
    t.note("exchange counters are the busiest rank's; rounds = 1 is the blocking exchange");
    t.note("expectation: overlap speedup tracks the worker count; total obeys Amdahl (read+exchange stay serial)");
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
        let (p1, s1, _, t1, x1) = ingest_times("Lakes", scale, 1, 2, 1);
        let (p4, s4, _, t4, x4) = ingest_times("Lakes", scale, 1, 2, 4);
        // The exchanged volume is a property of the data, not the workers.
        assert_eq!(x1.bytes_sent, x4.bytes_sent);
        assert!(x1.rounds >= 1);
        let speedup = (p1 + s1) / (p4 + s4);
        assert!(
            speedup >= 1.5,
            "parse+partition at 4 workers must be >= 1.5x over 1 worker, got {speedup:.2}x \
             (1w {:.6}+{:.6}, 4w {:.6}+{:.6})",
            p1,
            s1,
            p4,
            s4
        );
        assert!(
            t4 < t1,
            "end-to-end ingest must also shrink: {t1:.6} -> {t4:.6}"
        );
    }
}
