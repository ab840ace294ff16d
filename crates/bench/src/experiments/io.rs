//! Collective two-phase I/O experiment: persist a partitioned dataset as
//! a binary snapshot ([`mvio_core::snapshot`]) and re-read it, sweeping
//! the aggregator count, reporting aggregate **virtual bandwidth**.
//!
//! The source paper is fundamentally about parallel I/O, yet its
//! evaluation only ever *reads* text — partitioned results evaporate at
//! the end of each run. This experiment closes that loop: ingest once,
//! write the owned `(cell, feature)` records through the ROMIO-style
//! staged two-phase collective writer (stripe-aligned aggregator
//! flushes in `cb_buffer_size` cycles), then load them back through the
//! inverse scatter and verify the round-trip bit-identically. The
//! aggregator sweep reproduces the two-phase tradeoff the paper's §5.1.1
//! discusses: one aggregator serializes every collective-buffer cycle
//! through one rank and its node link, while the full divisor-rule width
//! spreads the cycles across OSTs and links. Reported times are
//! deterministic virtual seconds (identical on every rank for writes;
//! max over ranks for reads); the trajectory is written to
//! `BENCH_io.json` so future PRs can track it.

use super::{cost_scaled, lustre_scaled, Scale};
use crate::report::Table;
use mvio_core::decomp::DecompConfig;
use mvio_core::grid::GridSpec;
use mvio_core::partition::ReadOptions;
use mvio_core::pipeline::{ingest, PipelineOptions};
use mvio_core::reader::WktLineParser;
use mvio_core::snapshot::{
    read_meta_timed, read_partitioned, SnapshotReadOptions, SnapshotWriteOptions,
};
use mvio_datagen::{writer, ShapeGen, ShapeKind, SpatialDistribution};
use mvio_geom::Rect;
use mvio_msim::{Hints, Topology, World, WorldConfig};
use mvio_pfs::{SimFs, StripeSpec};

/// Tracked floor: the best aggregator width must beat a single
/// aggregator on the collective snapshot write at 16 ranks by at least
/// this factor. Asserted by both the unit test and the CI
/// bench-regression gate, so the two can never enforce different
/// thresholds.
pub const AGGREGATOR_WRITE_SPEEDUP_FLOOR: f64 = 1.2;

/// One measurement: one direction (`write` or `read`) at one aggregator
/// request and one rank count.
#[derive(Debug, Clone)]
pub struct Row {
    /// `"write"` or `"read"`.
    pub op: &'static str,
    /// World size.
    pub ranks: usize,
    /// Requested aggregator count (`0` = the heuristic / divisor rule).
    pub aggregators: usize,
    /// Exact snapshot payload bytes (all sections, padding excluded).
    pub payload_bytes: u64,
    /// Virtual seconds for the collective operation (write: identical on
    /// every rank; read: max over ranks, routing exchange included).
    pub io_s: f64,
    /// Aggregate virtual bandwidth, bytes / virtual second.
    pub bandwidth: f64,
    /// Single-aggregator time over this time (1.0 for the 1-aggregator
    /// row itself) — the tracked two-phase speedup.
    pub speedup: f64,
}

/// Stripe count of the snapshot file: 8 OSTs, so every swept aggregator
/// count (1, 2, 4, 8) survives the Lustre divisor rule unchanged.
const STRIPE_COUNT: u32 = 8;
/// Stripe size, chosen so per-rank sections span several stripes.
const STRIPE_SIZE: u64 = 16 << 10;
/// Collective-buffer cycle: small enough that every aggregator runs
/// multiple chained cycles — the regime where the aggregator count
/// governs two-phase performance.
const CB_BUFFER: u64 = 64 << 10;

/// Clustered small polygons over a world extent: replication across grid
/// cells inflates the persisted payload the way real partitioned layers
/// do.
fn dataset_bytes(features: u64) -> Vec<u8> {
    writer::wkt_dataset_bytes(
        ShapeKind::Polygon,
        ShapeGen::small_polygons(),
        &SpatialDistribution::Clustered {
            clusters: 5,
            skew: 1.2,
            spread: 0.02,
        },
        Rect::new(-180.0, -90.0, 180.0, 90.0),
        features,
        0x10_BE7C4,
    )
}

/// Runs one full ingest → write snapshot → read snapshot cycle on a
/// fresh cold filesystem, returning `(write row, read row)` with
/// `speedup` left at 1.0. Panics if the reloaded pairs differ from the
/// ingested ones — the experiment carries its own round-trip oracle.
fn measure_one(scale: Scale, bytes: &[u8], ranks: usize, aggregators: usize) -> (Row, Row) {
    let fs = SimFs::new(lustre_scaled(scale));
    fs.set_active_ranks(ranks);
    fs.create("io.wkt", None).expect("fresh fs").append(bytes);
    // Two ranks per node: aggregators are per-node, so the sweep needs
    // node counts at least as large as the largest aggregator request.
    let nodes = (ranks / 2).max(1);
    let topo = Topology::new(nodes, ranks.div_ceil(nodes));
    let world = WorldConfig::new(topo).with_cost(cost_scaled(scale));
    let hints = Hints {
        cb_nodes: (aggregators > 0).then_some(aggregators),
        cb_buffer_size: CB_BUFFER,
    };
    let out = World::run(world, move |comm| {
        let rep = ingest(
            comm,
            &fs,
            "io.wkt",
            &ReadOptions::default(),
            &WktLineParser,
            &DecompConfig::uniform(GridSpec::square(16)),
            &PipelineOptions::default().with_workers(1),
        )
        .unwrap();
        let w = rep
            .write_partitioned(
                comm,
                &fs,
                "io.snap",
                &SnapshotWriteOptions::default()
                    .with_stripe(StripeSpec::new(STRIPE_COUNT, STRIPE_SIZE))
                    .with_hints(hints),
            )
            .unwrap();
        let ropts = SnapshotReadOptions {
            hints,
            ..Default::default()
        };
        // The reload's time includes its collective metadata read.
        let t0 = comm.now();
        let meta = read_meta_timed(comm, &fs, "io.snap").unwrap();
        let (back, _) =
            read_partitioned(comm, &fs, "io.snap", &meta, &*rep.decomp, &ropts).unwrap();
        let read_s = comm.now() - t0;
        assert!(
            back.frames().eq(rep.owned.frames()),
            "snapshot round-trip must be bit-identical"
        );
        (w.write_seconds, w.bytes_total, read_s)
    });
    let payload = out[0].1;
    let write_s = out.iter().map(|o| o.0).fold(0.0, f64::max);
    let read_s = out.iter().map(|o| o.2).fold(0.0, f64::max);
    let row = |op: &'static str, io_s: f64| Row {
        op,
        ranks,
        aggregators,
        payload_bytes: payload,
        io_s,
        bandwidth: if io_s > 0.0 {
            payload as f64 / io_s
        } else {
            0.0
        },
        speedup: 1.0,
    };
    (row("write", write_s), row("read", read_s))
}

/// Sweeps the aggregator counts at every rank count, filling in the
/// speedups relative to the 1-aggregator rows.
///
/// # Panics
///
/// Panics when `aggs` does not contain the 1-aggregator baseline — the
/// speedup ratios (and the regression gate built on them) would be
/// meaningless without it.
pub fn measure(scale: Scale, features: u64, rank_counts: &[usize], aggs: &[usize]) -> Vec<Row> {
    let bytes = dataset_bytes(features);
    let mut rows = Vec::new();
    for &ranks in rank_counts {
        let start = rows.len();
        let mut base: Option<(f64, f64)> = None; // 1-aggregator (write, read)
        for &a in aggs {
            let (w, r) = measure_one(scale, &bytes, ranks, a);
            if a == 1 {
                base = Some((w.io_s, r.io_s));
            }
            rows.push(w);
            rows.push(r);
        }
        // Back-filled after the whole sweep so rows measured before the
        // 1-aggregator baseline get real ratios too — the baseline's
        // position in `aggs` must not matter. Without a baseline row the
        // ratio would be meaningless, so demand one loudly rather than
        // hand the regression gate a silent 1.0.
        let (bw, br) = base.expect("aggs must include the 1-aggregator baseline");
        for row in &mut rows[start..] {
            let b = if row.op == "write" { bw } else { br };
            row.speedup = b / row.io_s;
        }
    }
    rows
}

/// The largest write speedup over the 1-aggregator baseline at the given
/// rank count — the ratio the bench-regression gate tracks.
pub fn best_write_speedup(rows: &[Row], ranks: usize) -> f64 {
    rows.iter()
        .filter(|r| r.op == "write" && r.ranks == ranks)
        .map(|r| r.speedup)
        .fold(0.0, f64::max)
}

/// Renders the measurement rows as a JSON trajectory file body.
pub fn to_json(rows: &[Row]) -> String {
    let mut s = String::from(
        "{\n  \"experiment\": \"io\",\n  \"metric\": \"virtual_bandwidth_bytes_per_second\",\n  \"rows\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"op\": \"{}\", \"ranks\": {}, \"aggregators\": {}, \"payload_bytes\": {}, \"io_s\": {:.6}, \"bandwidth\": {:.0}, \"speedup\": {:.4}}}{}\n",
            r.op,
            r.ranks,
            r.aggregators,
            r.payload_bytes,
            r.io_s,
            r.bandwidth,
            r.speedup,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Runs the sweep, writes `BENCH_io.json`, and renders the table.
pub fn run(scale: Scale, quick: bool) -> String {
    let rank_counts: &[usize] = if quick { &[16] } else { &[16, 64] };
    let aggs: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8, 0] };
    let features = if quick { 600 } else { 2_000 };
    let rows = measure(scale, features, rank_counts, aggs);

    let mut t = Table::new(
        format!(
            "Collective two-phase snapshot I/O: {features} clustered polygons, \
             write + re-read vs aggregator count (0 = divisor-rule heuristic)"
        ),
        &[
            "ranks",
            "op",
            "aggs",
            "payload MB",
            "io s",
            "MB/s",
            "speedup",
        ],
    );
    for r in &rows {
        t.row(vec![
            r.ranks.to_string(),
            r.op.to_string(),
            r.aggregators.to_string(),
            format!("{:.2}", r.payload_bytes as f64 / (1 << 20) as f64),
            format!("{:.6}", r.io_s),
            format!("{:.1}", r.bandwidth / (1 << 20) as f64),
            format!("{:.2}x", r.speedup),
        ]);
    }
    t.note("every run re-reads the snapshot and asserts bit-identical pairs (round-trip oracle)");
    t.note("expectation: one aggregator serializes the cb cycles; wider aggregation spreads them across OSTs and node links until the divisor-rule width");
    match std::fs::write("BENCH_io.json", to_json(&rows)) {
        Ok(()) => t.note("trajectory written to BENCH_io.json"),
        Err(e) => t.note(format!("could not write BENCH_io.json: {e}")),
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The PR's acceptance criterion: widening the aggregator set must
    /// speed the collective snapshot write up measurably over a single
    /// aggregator at 16 ranks. The same floor is enforced by the CI
    /// bench-regression gate.
    #[test]
    fn two_phase_write_scales_with_aggregators_at_16_ranks() {
        let scale = Scale { denominator: 1000 };
        let rows = measure(scale, 600, &[16], &[1, 4]);
        let best = best_write_speedup(&rows, 16);
        assert!(
            best >= AGGREGATOR_WRITE_SPEEDUP_FLOOR,
            "4 aggregators must beat 1 by >= {AGGREGATOR_WRITE_SPEEDUP_FLOOR}x, \
             got {best:.3}x"
        );
        // Bandwidth is coherent with time.
        for r in &rows {
            assert!(r.io_s > 0.0 && r.bandwidth > 0.0);
        }
    }

    #[test]
    fn json_trajectory_is_well_formed() {
        let rows = vec![Row {
            op: "write",
            ranks: 16,
            aggregators: 4,
            payload_bytes: 1 << 20,
            io_s: 0.004,
            bandwidth: 2.5e8,
            speedup: 1.42,
        }];
        let s = to_json(&rows);
        assert!(s.contains("\"experiment\": \"io\""));
        assert!(s.contains("\"speedup\": 1.4200"));
        assert!(!s.contains(",\n  ]"), "no trailing comma");
    }
}
