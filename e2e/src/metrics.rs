//! The metric registry: names, units, directions and regression bounds.
//! `BENCHMARK.json` at the repository root lists the same metrics (a unit
//! test keeps the two in step); `e2e compare` applies the bounds.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen
    /// before it counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the system would see, on every workload. All are
/// better when lower. Each bound is about three times the widest spread
/// the metric showed over ten seeds on any workload (README, "Measured
/// spreads"), capped at a quarter.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", 0.25),
    e2e("virtual_s", "s", 0.08),
    e2e("virtual_s_r64", "s", 0.10),
    e2e("host_s", "s", 0.25),
    e2e("host_allocs", "count", 0.05),
    e2e("host_alloc_mb", "MB", 0.15),
    e2e("host_peak_rss_mb", "MB", 0.20),
    e2e("load_imbalance", "ratio", 0.15),
    e2e("query_p50_virtual_ms", "ms", 0.12),
    e2e("query_p99_virtual_ms", "ms", 0.25),
];

/// Single-layer numbers from the traced run, outside-in. A metric reads
/// 0 on a workload in which its layer does not run.
pub const PER_LAYER: &[Metric] = &[
    // pfs: SimFs::stats() of the pass's file systems.
    lo("pfs.read_ops", "count"),
    lo("pfs.write_ops", "count"),
    lo("pfs.bytes_read", "B"),
    lo("pfs.bytes_written", "B"),
    lo("pfs.chunk_requests", "count"),
    lo("pfs.unaligned_frac", "ratio"),
    lo("pfs.ost_byte_imbalance", "ratio"),
    // msim: collective probe, world spawn, aggregate I/O bandwidth.
    lo("msim.collective_host_us", "us"),
    lo("msim.collective_virtual_us", "us"),
    lo("msim.world_spawn_host_ms", "ms"),
    hi("msim.io.write_virtual_gbps", "GB/s"),
    hi("msim.io.read_virtual_gbps", "GB/s"),
    // geom: single-thread host probes on a sample of the workload's input.
    lo("geom.wkt_parse_ns_per_byte", "ns/B"),
    lo("geom.wkb_encode_ns_per_byte", "ns/B"),
    lo("geom.wkb_decode_ref_ns_per_geom", "ns"),
    lo("geom.envelope_batch_ns_per_geom", "ns"),
    lo("geom.intersects_ns_per_pair", "ns"),
    lo("geom.intersects_vertex_pairs", "count"),
    lo("geom.rtree_bulk_load_ns_per_item", "ns"),
    lo("geom.rtree_query_ns_per_query", "ns"),
    lo("geom.rtree_depth", "count"),
    lo("geom.point_distance_ns_per_geom", "ns"),
    // core.partition: read_partition_text spans.
    lo("core.partition.read_virtual_s", "s"),
    lo("core.partition.read_virtual_mean_s", "s"),
    lo("core.partition.read_host_s", "s"),
    lo("core.partition.read_bytes", "B"),
    // core.pipeline: parse_chunked spans, ingest counters.
    lo("core.pipeline.parse_virtual_s", "s"),
    lo("core.pipeline.parse_host_s", "s"),
    hi("core.pipeline.parse_mb_per_host_s", "MB/s"),
    lo("core.pipeline.records", "count"),
    lo("core.pipeline.replication_factor", "ratio"),
    // core.decomp: build_global span, ingest's owned replicas.
    lo("core.decomp.build_virtual_s", "s"),
    lo("core.decomp.build_host_s", "s"),
    lo("core.decomp.replica_imbalance", "ratio"),
    lo("core.decomp.cells_per_rank_max", "count"),
    // core.exchange: ExchangeStats of every exchange the pass ran.
    lo("core.exchange.virtual_s", "s"),
    lo("core.exchange.bytes_sent", "B"),
    lo("core.exchange.records_sent", "count"),
    lo("core.exchange.rounds", "count"),
    lo("core.exchange.exposed_wait_virtual_s", "s"),
    hi("core.exchange.hidden_frac", "ratio"),
    // core.snapshot: write_partitioned spans, the reload's phases.
    lo("core.snapshot.write_virtual_s", "s"),
    lo("core.snapshot.write_host_s", "s"),
    lo("core.snapshot.bytes_total", "B"),
    lo("core.snapshot.read_virtual_s", "s"),
    lo("core.snapshot.read_host_s", "s"),
    // core.rebalance: apply_updates and maybe_rebalance spans.
    lo("core.rebalance.update_virtual_s", "s"),
    lo("core.rebalance.update_host_s", "s"),
    hi("core.rebalance.updates_per_virtual_s", "1/s"),
    lo("core.rebalance.decide_migrate_virtual_s", "s"),
    lo("core.rebalance.decide_migrate_host_s", "s"),
    lo("core.rebalance.rebalances", "count"),
    lo("core.rebalance.migrated_bytes", "B"),
    lo("core.rebalance.migrated_frac", "ratio"),
    lo("core.rebalance.missing_deletes", "count"),
    lo("core.rebalance.peak_imbalance", "ratio"),
    // sjoin.join: JoinReport of the traced join.
    lo("sjoin.join.partition_virtual_s", "s"),
    lo("sjoin.join.communication_virtual_s", "s"),
    lo("sjoin.join.compute_virtual_s", "s"),
    lo("sjoin.join.filter_candidates", "count"),
    lo("sjoin.join.refine_tests", "count"),
    lo("sjoin.join.pairs", "count"),
    lo("sjoin.join.filter_selectivity", "ratio"),
    hi("sjoin.join.refine_selectivity", "ratio"),
    lo("sjoin.join.max_resident_allocs", "count"),
    lo("sjoin.join.refine_tests_imbalance", "ratio"),
    // sjoin.engine: from_ingest and serve spans, homogeneous probes.
    lo("sjoin.engine.build_virtual_s", "s"),
    lo("sjoin.engine.build_host_s", "s"),
    lo("sjoin.engine.resident_replicas", "count"),
    lo("sjoin.engine.serve_call_floor_virtual_us", "us"),
    lo("sjoin.engine.serve_call_floor_host_us", "us"),
    lo("sjoin.engine.serve_range_virtual_us_per_query", "us"),
    lo("sjoin.engine.serve_range_host_us_per_query", "us"),
    lo("sjoin.engine.serve_knn_virtual_us_per_query", "us"),
    lo("sjoin.engine.serve_knn_host_us_per_query", "us"),
    hi("sjoin.engine.cache_hit_rate", "ratio"),
    lo("sjoin.engine.shipped_records_per_query", "ratio"),
    lo("sjoin.engine.result_records_per_query", "ratio"),
    lo("sjoin.engine.query_exchange_rounds", "count"),
    lo("sjoin.engine.result_exchange_bytes", "B"),
    // Bookkeeping.
    lo("oracle.serial_join_host_s", "s"),
    hi("oracle.checked_queries", "count"),
    lo("trace.spans", "count"),
    hi("trace.coverage_frac", "ratio"),
    lo("trace.overhead_frac", "ratio"),
];

/// Looks a metric up by name in both tables.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}
