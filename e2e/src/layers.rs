//! Per-layer metrics: the traced pass's spans and counts, folded into
//! the names of [`crate::metrics::PER_LAYER`]. Virtual seconds are the
//! maximum over ranks of each rank's summed spans, host seconds likewise.

use crate::api::imbalance_ratio;
use crate::probes::Values;
use crate::trace::{Span, SpanSet};
use crate::workloads::{Pass, Workload};

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Max ÷ mean of a per-rank vector of counts.
fn imbalance(per_rank: &[f64]) -> f64 {
    if per_rank.iter().all(|&v| v == 0.0) {
        return 0.0;
    }
    imbalance_ratio(&per_rank.iter().map(|&v| v as u64).collect::<Vec<_>>())
}

/// Host seconds of the calls a traced pass shares with an untraced one
/// (the workload proper, without the staged and probe calls a traced
/// pass adds): what an untraced pass's `host_s` is compared with to get
/// the tracing overhead.
pub fn main_calls_host_s(traced: &Pass) -> f64 {
    const MAIN: [(&str, &str); 6] = [
        ("sjoin.join", "spatial_join"),
        ("sjoin.join", "spatial_join_snapshots"),
        ("core.snapshot", "write_partitioned"),
        ("sjoin.engine", "serve"),
        ("core.rebalance", "apply_updates"),
        ("core.rebalance", "maybe_rebalance"),
    ];
    traced
        .spans
        .iter()
        .map(|spans| {
            spans
                .iter()
                .filter(|sp| MAIN.contains(&(sp.layer, sp.name)))
                .map(Span::host_s)
                .sum()
        })
        .fold(0.0, f64::max)
}

/// Every per-layer metric of one traced run. `overhead` is the tracing
/// overhead measured over several passes (`trace.overhead_frac`),
/// `probes` the `msim` and `geom` probe values.
pub fn per_layer(w: &dyn Workload, overhead: f64, traced: &Pass, probes: Values) -> Values {
    let s = SpanSet::new(&traced.spans);
    let mut out: Values = probes;
    // `+ 0.0` turns the `-0.0` an empty sum yields into `0.0`.
    let mut put = |name: &'static str, value: f64| out.push((name, value + 0.0));

    // pfs
    let fs = &traced.fs;
    put("pfs.read_ops", fs.read_ops as f64);
    put("pfs.write_ops", fs.write_ops as f64);
    put("pfs.bytes_read", fs.bytes_read as f64);
    put("pfs.bytes_written", fs.bytes_written as f64);
    put("pfs.chunk_requests", fs.chunk_requests as f64);
    put(
        "pfs.unaligned_frac",
        ratio(
            fs.unaligned_ops as f64,
            (fs.aligned_ops + fs.unaligned_ops) as f64,
        ),
    );
    put(
        "pfs.ost_byte_imbalance",
        imbalance(
            &fs.per_ost_bytes
                .iter()
                .map(|&b| b as f64)
                .collect::<Vec<_>>(),
        ),
    );

    // The joins: one traced join call per pass, text or snapshot.
    let join = if s.calls("sjoin.join", "spatial_join") > 0.0 {
        "spatial_join"
    } else {
        "spatial_join_snapshots"
    };
    let from_snapshots = join == "spatial_join_snapshots" && s.calls("sjoin.join", join) > 0.0;
    // The phase maxima are global: identical on every rank.
    let phase = |key| s.count_max("sjoin.join", join, key);

    // msim I/O: bytes moved per virtual second of the calls that move them.
    let write_s = s.virtual_max("core.snapshot", "write_partitioned");
    let read_s = if from_snapshots {
        phase("communication_s")
    } else {
        s.virtual_max("core.partition", "read_partition_text")
    };
    let read_bytes = if from_snapshots {
        fs.bytes_read as f64
    } else {
        s.count_sum("core.partition", "read_partition_text", "bytes")
    };
    put(
        "msim.io.write_virtual_gbps",
        ratio(fs.bytes_written as f64, write_s) / 1e9,
    );
    put("msim.io.read_virtual_gbps", ratio(read_bytes, read_s) / 1e9);

    // core.partition / core.pipeline / core.decomp: the staged calls.
    let read = ("core.partition", "read_partition_text");
    put(
        "core.partition.read_virtual_s",
        s.virtual_max(read.0, read.1),
    );
    put(
        "core.partition.read_virtual_mean_s",
        s.virtual_mean(read.0, read.1),
    );
    put("core.partition.read_host_s", s.host_max(read.0, read.1));
    put(
        "core.partition.read_bytes",
        s.count_sum(read.0, read.1, "bytes"),
    );
    let parse = ("core.pipeline", "parse_chunked");
    let parse_host = s.host_max(parse.0, parse.1);
    put(
        "core.pipeline.parse_virtual_s",
        s.virtual_max(parse.0, parse.1),
    );
    put("core.pipeline.parse_host_s", parse_host);
    put(
        "core.pipeline.parse_mb_per_host_s",
        // Ranks parse concurrently: the slowest rank's share of the bytes.
        ratio(s.count_max(parse.0, parse.1, "bytes") / 1e6, parse_host),
    );
    let ingest = ("core.pipeline", "ingest");
    let records = s.count_sum(ingest.0, ingest.1, "records");
    put("core.pipeline.records", records);
    put(
        "core.pipeline.replication_factor",
        ratio(s.count_sum(ingest.0, ingest.1, "pairs"), records),
    );
    let build = ("core.decomp", "build_global");
    put(
        "core.decomp.build_virtual_s",
        s.virtual_max(build.0, build.1),
    );
    put("core.decomp.build_host_s", s.host_max(build.0, build.1));
    put(
        "core.decomp.replica_imbalance",
        imbalance(&s.per_rank(ingest.0, ingest.1, |sp| sp.count("owned"))),
    );
    put(
        "core.decomp.cells_per_rank_max",
        s.count_max(build.0, build.1, "cells_per_rank_max"),
    );

    // core.exchange: counters of every exchange of the workload proper:
    // inside the root span (set-up ingests sit outside it) and not one of
    // the probe calls the traced pass adds.
    let in_region = |sp: &Span| sp.parent.is_some() && !sp.name.starts_with("serve_");
    let ex = |key: &'static str| -> Vec<f64> {
        traced
            .spans
            .iter()
            .map(|spans| {
                spans
                    .iter()
                    .filter(|sp| in_region(sp))
                    .map(|sp| sp.count(key))
                    .sum()
            })
            .collect()
    };
    let sum = |v: Vec<f64>| v.iter().sum::<f64>();
    let max = |v: Vec<f64>| v.into_iter().fold(0.0, f64::max);
    let exposed = max(ex("ex_exposed_s"));
    let communication = if from_snapshots {
        0.0
    } else {
        phase("communication_s")
    };
    put(
        "core.exchange.virtual_s",
        // A join names its exchange phase; elsewhere only the exposed
        // wait is visible from outside.
        if communication > 0.0 {
            communication
        } else {
            exposed
        },
    );
    put("core.exchange.bytes_sent", sum(ex("ex_bytes_sent")));
    put("core.exchange.records_sent", sum(ex("ex_records_sent")));
    put("core.exchange.rounds", max(ex("ex_rounds")));
    put("core.exchange.exposed_wait_virtual_s", exposed);
    let (exposed_sum, overlapped_sum) = (sum(ex("ex_exposed_s")), sum(ex("ex_overlapped_s")));
    put(
        "core.exchange.hidden_frac",
        ratio(overlapped_sum, overlapped_sum + exposed_sum),
    );

    // core.snapshot
    let write = ("core.snapshot", "write_partitioned");
    put("core.snapshot.write_virtual_s", write_s);
    put("core.snapshot.write_host_s", s.host_max(write.0, write.1));
    // `bytes_total` is global: identical on every rank, one per file.
    put(
        "core.snapshot.bytes_total",
        s.count_max(write.0, write.1, "bytes_total"),
    );
    put(
        "core.snapshot.read_virtual_s",
        if from_snapshots {
            phase("communication_s")
        } else {
            0.0
        },
    );
    put(
        "core.snapshot.read_host_s",
        // The reload is opaque from outside: the whole call, refine included.
        if from_snapshots {
            s.host_max("sjoin.join", join)
        } else {
            0.0
        },
    );

    // core.rebalance
    let upd = ("core.rebalance", "apply_updates");
    let reb = ("core.rebalance", "maybe_rebalance");
    let update_s = s.virtual_max(upd.0, upd.1);
    put("core.rebalance.update_virtual_s", update_s);
    put("core.rebalance.update_host_s", s.host_max(upd.0, upd.1));
    put(
        "core.rebalance.updates_per_virtual_s",
        ratio(s.count_sum(upd.0, upd.1, "submitted"), update_s),
    );
    put(
        "core.rebalance.decide_migrate_virtual_s",
        s.virtual_max(reb.0, reb.1),
    );
    put(
        "core.rebalance.decide_migrate_host_s",
        s.host_max(reb.0, reb.1),
    );
    // The decision is collective: rank 0 saw every one.
    put(
        "core.rebalance.rebalances",
        s.count_max(reb.0, reb.1, "rebalanced"),
    );
    put(
        "core.rebalance.migrated_bytes",
        s.count_sum(reb.0, reb.1, "shipped_bytes"),
    );
    put(
        "core.rebalance.migrated_frac",
        // Replicas shipped ÷ replicas resident at the trigger points: what
        // full re-shuffles at the same points would have shipped.
        ratio(
            s.count_sum(reb.0, reb.1, "shipped_records"),
            s.count_sum(reb.0, reb.1, "resident_at_trigger"),
        ),
    );
    put(
        "core.rebalance.missing_deletes",
        s.count_sum(upd.0, upd.1, "missing_deletes"),
    );
    put(
        "core.rebalance.peak_imbalance",
        traced
            .spans
            .first()
            .into_iter()
            .flatten()
            .filter(|sp| sp.layer == reb.0 && sp.name == reb.1)
            .map(|sp| sp.count("imbalance_before"))
            .fold(0.0, f64::max),
    );

    // sjoin.join
    let candidates = s.count_sum("sjoin.join", join, "filter_candidates");
    let tests = s.count_sum("sjoin.join", join, "refine_tests");
    let pairs = s.count_sum("sjoin.join", join, "pairs");
    put("sjoin.join.partition_virtual_s", phase("partition_s"));
    put(
        "sjoin.join.communication_virtual_s",
        phase("communication_s"),
    );
    put("sjoin.join.compute_virtual_s", phase("compute_s"));
    put("sjoin.join.filter_candidates", candidates);
    put("sjoin.join.refine_tests", tests);
    put("sjoin.join.pairs", pairs);
    put("sjoin.join.filter_selectivity", ratio(tests, candidates));
    put("sjoin.join.refine_selectivity", ratio(pairs, tests));
    put(
        "sjoin.join.max_resident_allocs",
        s.count_max("sjoin.join", join, "max_resident_allocs"),
    );
    put(
        "sjoin.join.refine_tests_imbalance",
        imbalance(&s.per_rank("sjoin.join", join, |sp| sp.count("refine_tests"))),
    );

    // sjoin.engine
    let eng = "sjoin.engine";
    put(
        "sjoin.engine.build_virtual_s",
        s.virtual_max(eng, "from_ingest"),
    );
    put("sjoin.engine.build_host_s", s.host_max(eng, "from_ingest"));
    put(
        "sjoin.engine.resident_replicas",
        s.count_sum(eng, "from_ingest", "resident"),
    );
    let floor_calls = s.calls(eng, "serve_floor");
    put(
        "sjoin.engine.serve_call_floor_virtual_us",
        ratio(s.virtual_max(eng, "serve_floor"), floor_calls) * 1e6,
    );
    put(
        "sjoin.engine.serve_call_floor_host_us",
        ratio(s.host_max(eng, "serve_floor"), floor_calls) * 1e6,
    );
    // Homogeneous probe batches: a rank's call duration over its batch.
    for (probe, virtual_name, host_name) in [
        (
            "serve_range",
            "sjoin.engine.serve_range_virtual_us_per_query",
            "sjoin.engine.serve_range_host_us_per_query",
        ),
        (
            "serve_knn",
            "sjoin.engine.serve_knn_virtual_us_per_query",
            "sjoin.engine.serve_knn_host_us_per_query",
        ),
    ] {
        let per_rank_batch = s.count_max(eng, probe, "queries");
        put(
            virtual_name,
            ratio(s.virtual_max(eng, probe), per_rank_batch) * 1e6,
        );
        put(
            host_name,
            ratio(s.host_max(eng, probe), per_rank_batch) * 1e6,
        );
    }
    let queries = s.count_sum(eng, "serve", "queries");
    put(
        "sjoin.engine.cache_hit_rate",
        ratio(s.count_sum(eng, "serve", "from_cache"), queries),
    );
    put(
        "sjoin.engine.shipped_records_per_query",
        ratio(s.count_sum(eng, "serve", "shipped"), queries),
    );
    put(
        "sjoin.engine.result_records_per_query",
        ratio(s.count_sum(eng, "serve", "results"), queries),
    );
    put(
        "sjoin.engine.query_exchange_rounds",
        s.count_max(eng, "serve", "q_rounds"),
    );
    put(
        "sjoin.engine.result_exchange_bytes",
        s.count_sum(eng, "serve", "r_bytes"),
    );

    // Bookkeeping.
    put("oracle.serial_join_host_s", w.oracle_host_s());
    put(
        "oracle.checked_queries",
        if queries > 0.0 {
            (queries / crate::workloads::SAMPLE_EVERY as f64).ceil()
        } else {
            0.0
        },
    );
    put("trace.spans", s.len() as f64);
    put("trace.coverage_frac", s.coverage_frac());
    put("trace.overhead_frac", overhead);
    out
}
