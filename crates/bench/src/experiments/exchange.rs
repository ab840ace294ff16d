//! Exchange-overlap experiment: ingest virtual time with the blocking
//! single-round all-to-all versus the chunked
//! [`ExchangePlan`](mvio_core::ExchangePlan) that overlaps each round's
//! `ialltoallv` with the serialization of the next chunk (and the
//! deserialization of the previous one).
//!
//! Not a paper figure — the paper's exchange is one blocking
//! `MPI_Alltoallv` — but the direct continuation of its overlap argument:
//! the critical path of the partitioning pipeline is the personalized
//! all-to-all, and the two-phase collective-aggregation literature in
//! PAPERS.md hides exactly this kind of transfer behind compute. The
//! workload is heavyweight polygons replicated across many grid cells, so
//! the payload volume is large relative to the (already pipelined)
//! per-object serialization — the regime where a single blocking round
//! leaves the most time on the table. Reported times are deterministic
//! virtual seconds (max over ranks); the trajectory is written to
//! `BENCH_exchange.json` so future PRs can track it.

use super::{cost_scaled, gpfs_scaled, Scale};
use crate::report::Table;
use mvio_core::decomp::DecompConfig;
use mvio_core::exchange::{ExchangeChunk, ExchangeOptions};
use mvio_core::grid::GridSpec;
use mvio_core::partition::ReadOptions;
use mvio_core::pipeline::{ingest_with_exchange, PipelineOptions};
use mvio_core::reader::WktLineParser;
use mvio_msim::{Topology, World, WorldConfig};
use mvio_pfs::SimFs;

/// Tracked floor: the chunked overlapped exchange must beat blocking
/// ingest at 16 ranks by at least this factor. Asserted by both the
/// unit test and the CI bench-regression gate, so the two can never
/// enforce different thresholds.
pub const CHUNKED_INGEST_SPEEDUP_FLOOR: f64 = 1.02;

/// One measurement: one chunk policy at one rank count.
#[derive(Debug, Clone)]
pub struct Row {
    /// Chunk policy label (`unlimited` or the byte cap).
    pub chunk: String,
    /// World size.
    pub ranks: usize,
    /// Pipelined `Alltoallv` rounds executed (max over ranks).
    pub rounds: u32,
    /// Bytes sent by the busiest rank.
    pub bytes_sent: u64,
    /// Virtual seconds of communication left exposed on the critical
    /// path (max over ranks).
    pub exposed_wait_s: f64,
    /// Max-over-ranks virtual seconds for the full ingest.
    pub ingest_s: f64,
    /// Blocking-ingest time over this ingest time (1.0 for the blocking
    /// row itself).
    pub speedup: f64,
}

/// Grid resolution: 25×25 cells over the anchored `[0,100]²` extent, so
/// one cell is exactly 4.0 units wide.
const GRID_SIDE: u32 = 25;

/// Heavyweight identical polygons, laid out for perfect balance: a
/// lattice of 500-vertex circles of radius 9.9 whose bounding boxes span
/// **exactly** 5×5 grid cells each (centers sit at `10 + 4k`, so every
/// box runs from `0.1` to `19.9` past a cell boundary), every record
/// rendered at a fixed byte width. Equal records ⇒ the file partitioner
/// hands every rank the same feature count; equal replication ⇒ every
/// rank serializes, ships and deserializes the same volume per round.
/// That isolates the overlap effect from load skew — with skewed data
/// the per-round collectives would also be measuring stragglers. Two
/// anchor points pin the global MBR to `[0,100]²`.
fn dataset_bytes(features: u64) -> Vec<u8> {
    let per_row = 21u64; // centers 10, 14, …, 90
    assert!(features <= per_row * per_row, "lattice capacity exceeded");
    let mut text = String::new();
    text.push_str("POINT (000.0000 000.0000)\tanchor-min\n");
    text.push_str("POINT (100.0000 100.0000)\tanchor-max\n");
    let verts = 500usize;
    let radius = 9.9f64;
    for i in 0..features {
        let cx = 10.0 + (i % per_row) as f64 * 4.0;
        let cy = 10.0 + (i / per_row) as f64 * 4.0;
        text.push_str("POLYGON ((");
        let mut first = String::new();
        for k in 0..verts {
            let a = k as f64 / verts as f64 * std::f64::consts::TAU;
            let coord = format!(
                "{:08.4} {:08.4}",
                cx + radius * a.cos(),
                cy + radius * a.sin()
            );
            if k == 0 {
                first = coord.clone();
            } else {
                text.push_str(", ");
            }
            text.push_str(&coord);
        }
        text.push_str(", ");
        text.push_str(&first); // close the ring
        text.push_str(&format!("))\tf{i:04}\n"));
    }
    text.into_bytes()
}

/// Workers per rank: both paths run 4 serializer lanes so the comparison
/// isolates the overlap, not the intra-rank parallelism.
const WORKERS: usize = 4;

/// Target pipelined rounds for the chunked run. Each round carries one
/// full lane group of partition chunks, so the fused path keeps the same
/// 4-lane serialization parallelism as the unfused one.
const TARGET_ROUNDS: u64 = 4;

/// Measures one full ingest of `bytes` on `ranks` ranks under `chunk`.
fn measure_one(
    scale: Scale,
    bytes: &[u8],
    ranks: usize,
    features: u64,
    chunk: ExchangeChunk,
) -> Row {
    let fs = SimFs::new(gpfs_scaled(scale));
    fs.set_active_ranks(ranks);
    fs.create("exchange.wkt", None)
        .expect("fresh fs")
        .append(bytes);
    let nodes = ranks.div_ceil(16).max(1);
    let topo = Topology::new(nodes, ranks.div_ceil(nodes));
    let world = WorldConfig::new(topo).with_cost(cost_scaled(scale));
    let ex = ExchangeOptions::with_chunk(chunk);
    // One lane group's worth of features per pipelined round.
    let feats_per_rank = features.div_ceil(ranks as u64).max(1);
    let chunk_records = (feats_per_rank / (WORKERS as u64 * TARGET_ROUNDS)).max(1) as usize;
    let out = World::run(world, move |comm| {
        let rep = ingest_with_exchange(
            comm,
            &fs,
            "exchange.wkt",
            // `None` block size = one equal split per rank: with the
            // fixed-width lattice records every rank parses the same
            // feature count.
            &ReadOptions::default(),
            &WktLineParser,
            &DecompConfig::uniform(GridSpec::square(GRID_SIDE)),
            &PipelineOptions::default()
                .with_workers(WORKERS)
                .with_partition_chunk_records(chunk_records),
            &ex,
        )
        .unwrap();
        (
            comm.now(),
            rep.exchange.rounds,
            rep.exchange.bytes_sent,
            rep.exchange.exposed_wait_s,
        )
    });
    Row {
        chunk: match chunk {
            ExchangeChunk::Unlimited => "unlimited".to_string(),
            ExchangeChunk::Bytes(b) => format!("{b}"),
        },
        ranks,
        rounds: out.iter().map(|r| r.1).max().unwrap_or(0),
        bytes_sent: out.iter().map(|r| r.2).max().unwrap_or(0),
        exposed_wait_s: out.iter().map(|r| r.3).fold(0.0, f64::max),
        ingest_s: out.iter().map(|r| r.0).fold(0.0, f64::max),
        speedup: 1.0,
    }
}

/// Measures blocking vs chunked ingest at every rank count, filling in
/// the per-rank-count speedups. The chunked run's per-destination byte
/// cap is derived from the blocking run's measured payload so each
/// destination splits into ~`TARGET_ROUNDS` (4) record-aligned rounds.
pub fn measure(scale: Scale, features: u64, rank_counts: &[usize]) -> Vec<Row> {
    let bytes = dataset_bytes(features);
    let mut rows = Vec::new();
    for &ranks in rank_counts {
        let blocking = measure_one(scale, &bytes, ranks, features, ExchangeChunk::Unlimited);
        let cap = (blocking.bytes_sent / ranks as u64 / TARGET_ROUNDS).max(1);
        let mut chunked = measure_one(scale, &bytes, ranks, features, ExchangeChunk::Bytes(cap));
        chunked.speedup = blocking.ingest_s / chunked.ingest_s;
        rows.push(blocking);
        rows.push(chunked);
    }
    rows
}

/// Renders the measurement rows as a JSON trajectory file body.
pub fn to_json(rows: &[Row]) -> String {
    let mut s = String::from(
        "{\n  \"experiment\": \"exchange\",\n  \"metric\": \"max_over_ranks_virtual_ingest_seconds\",\n  \"rows\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"chunk\": \"{}\", \"ranks\": {}, \"rounds\": {}, \"bytes_sent\": {}, \"exposed_wait_s\": {:.6}, \"ingest_s\": {:.6}, \"speedup\": {:.4}}}{}\n",
            r.chunk,
            r.ranks,
            r.rounds,
            r.bytes_sent,
            r.exposed_wait_s,
            r.ingest_s,
            r.speedup,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Runs the sweep, writes `BENCH_exchange.json`, and renders the table.
pub fn run(scale: Scale, quick: bool) -> String {
    let rank_counts: &[usize] = if quick { &[16] } else { &[16, 64] };
    let features = if quick { 192 } else { 320 };
    let rows = measure(scale, features, rank_counts);

    let mut t = Table::new(
        format!(
            "Exchange overlap: {features} heavyweight polygons (500 verts, exact 25x replication), \
             blocking vs chunked+overlapped all-to-all (~{TARGET_ROUNDS} rounds)"
        ),
        &[
            "ranks",
            "chunk",
            "rounds",
            "sent MB",
            "exposed comm s",
            "ingest s",
            "speedup",
        ],
    );
    for r in &rows {
        t.row(vec![
            r.ranks.to_string(),
            r.chunk.clone(),
            r.rounds.to_string(),
            format!("{:.1}", r.bytes_sent as f64 / (1 << 20) as f64),
            format!("{:.6}", r.exposed_wait_s),
            format!("{:.6}", r.ingest_s),
            format!("{:.2}x", r.speedup),
        ]);
    }
    t.note("owned pairs are bit-identical between the two policies (asserted by the test suite)");
    t.note("expectation: chunked rounds hide the payload transfer under next-round serialization and previous-round deserialization");
    match std::fs::write("BENCH_exchange.json", to_json(&rows)) {
        Ok(()) => t.note("trajectory written to BENCH_exchange.json"),
        Err(e) => t.note(format!("could not write BENCH_exchange.json: {e}")),
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The PR's acceptance criterion: the chunked overlapped exchange
    /// must reduce max-over-ranks virtual ingest time versus the
    /// blocking single-round protocol at 16 and 64 ranks.
    ///
    /// The 16-rank times repeat to 1e-6. At 64 ranks the read phase both
    /// policies share moves ±3 % with the order host threads reach the
    /// simulated file servers (blocking 0.005827–0.006259, chunked
    /// 0.005479–0.005909 over 40 runs; an open pfs defect), which is as
    /// much as the overlap margin, so that comparison is between the
    /// medians of five repetitions (0.006002 vs 0.005652).
    #[test]
    fn overlap_reduces_virtual_ingest_time_at_16_and_64_ranks() {
        let scale = Scale { denominator: 1000 };
        let median = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        for (ranks, reps) in [(16usize, 1), (64, 5)] {
            // Each run is `[blocking, chunked]`.
            let runs: Vec<Vec<Row>> = (0..reps).map(|_| measure(scale, 320, &[ranks])).collect();
            for run in &runs {
                assert!(run[1].rounds > 1, "{ranks} ranks: cap must multi-round");
                assert!(
                    run[1].exposed_wait_s < run[0].exposed_wait_s,
                    "{ranks} ranks: exposed communication must shrink"
                );
            }
            let blocking_s = median(runs.iter().map(|r| r[0].ingest_s).collect());
            let chunked_s = median(runs.iter().map(|r| r[1].ingest_s).collect());
            assert!(
                chunked_s < blocking_s,
                "{ranks} ranks: overlap must reduce ingest time \
                 ({blocking_s:.6} -> {chunked_s:.6})"
            );
            // And at 16 ranks the win must be a measurable margin, not noise.
            if ranks == 16 {
                let speedup = blocking_s / chunked_s;
                assert!(
                    speedup >= CHUNKED_INGEST_SPEEDUP_FLOOR,
                    "16 ranks: speedup {speedup:.3}x must be >= {CHUNKED_INGEST_SPEEDUP_FLOOR}x"
                );
            }
        }
    }

    #[test]
    fn json_trajectory_is_well_formed() {
        let rows = vec![Row {
            chunk: "98304".into(),
            ranks: 16,
            rounds: 6,
            bytes_sent: 1 << 20,
            exposed_wait_s: 0.001,
            ingest_s: 0.025,
            speedup: 1.15,
        }];
        let s = to_json(&rows);
        assert!(s.contains("\"experiment\": \"exchange\""));
        assert!(s.contains("\"speedup\": 1.1500"));
        assert!(!s.contains(",\n  ]"), "no trailing comma");
    }
}
