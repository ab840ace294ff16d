//! The five workloads. Each drives the system through public entry
//! points only, with default options plus the few fields that give the
//! workload its shape, and checks every answer against `oracle`.
//!
//! A *pass* is one execution of a workload's timed region on a fresh
//! file system and a fresh world. The same pass code runs untraced (for
//! the end-to-end metrics) and traced (for the per-layer metrics): the
//! traced pass records a span around each call and adds the *staged*
//! calls — the public stage functions run one by one on the same inputs —
//! that make the inside of the opaque entry points visible.

use crate::api::{
    build_global, generate_queries, imbalance_ratio, ingest, parse_chunked, read_partition_text,
    spatial_join, spatial_join_snapshots, Comm, DecompConfig, EngineOptions, ExchangeStats,
    Feature, Geometry, GridSpec, IngestOutput, JoinOptions, JoinReport, MovingHotspot, Point,
    Query, QueryAnswer, QueryEngine, QueryShape, QueryWorkload, ReadOptions, RebalancePolicy, Rect,
    ServeCache, ServeStats, ShapeKind, SimFs, SnapshotJoinOptions, SnapshotWriteOptions,
    SpatialDecomposition, SpatialDistribution, Topology, Update, WktLineParser, World, WorldConfig,
};
use crate::inputs::{clustered, fnv1a, fresh_fs, world, Layer, ALIGNED_QUERY_SEED};
use crate::oracle::{check_join, pairs_digest, scan_answer, serial_join, Pairs, Verdict};
use crate::trace::{region_totals, RankTiming, Region, Span, Tracer};
use std::sync::Arc;
use std::time::Instant;

/// Workload names, in reporting order. Later issues refer to them.
pub const NAMES: [&str; 5] = [
    "join_uniform",
    "join_clustered",
    "snapshot_cycle",
    "serve_mixed",
    "update_rebalance",
];

/// Grid resolution of every decomposition in the benchmark.
const GRID: u32 = 32;

/// Every `SAMPLE_EVERY`-th query is checked against a full scan.
pub const SAMPLE_EVERY: usize = 16;

/// Node × ranks-per-node layout of one world.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    nodes: usize,
    per_node: usize,
}

impl Layout {
    /// The paper's 16-ranks-per-node layout for `ranks` ranks.
    pub fn of(ranks: usize) -> Layout {
        let nodes = ranks.div_ceil(16);
        Layout {
            nodes,
            per_node: ranks / nodes,
        }
    }

    pub fn ranks(&self) -> usize {
        self.nodes * self.per_node
    }

    fn config(&self) -> WorldConfig {
        WorldConfig::new(Topology::new(self.nodes, self.per_node))
    }
}

/// Which world size a pass runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 16 ranks on one node: the size every end-to-end metric is taken at.
    R16,
    /// 64 ranks on four nodes: the strong-scaling point (virtual clock only).
    R64,
}

impl Scale {
    fn ranks(self) -> usize {
        match self {
            Scale::R16 => 16,
            Scale::R64 => 64,
        }
    }
}

/// Everything one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Max-over-ranks virtual seconds of the timed region.
    pub virtual_s: f64,
    /// Host wall seconds of the timed region.
    pub host_s: f64,
    /// Heap allocation calls / bytes requested inside the timed region.
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Host seconds of untimed in-world preparation (ingest, engine build).
    pub prep_host_s: f64,
    /// Max ÷ mean over ranks of the workload's load measure.
    pub load_imbalance: f64,
    /// Virtual milliseconds of every client-visible operation.
    pub latencies_ms: Vec<f64>,
    /// Oracle outcome.
    pub verdict: Verdict,
    /// Spans per rank (traced passes only).
    pub spans: Vec<Vec<Span>>,
    /// File-system counters of the pass.
    pub fs: FsCounters,
}

/// `SimFs::stats()` of the file systems a pass used (each starts fresh).
#[derive(Debug, Default, Clone)]
pub struct FsCounters {
    pub read_ops: u64,
    pub write_ops: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub chunk_requests: u64,
    pub aligned_ops: u64,
    pub unaligned_ops: u64,
    pub per_ost_bytes: Vec<u64>,
}

impl FsCounters {
    fn absorb(&mut self, fs: &SimFs) {
        let s = fs.stats();
        self.read_ops += s.read_ops();
        self.write_ops += s.write_ops();
        self.bytes_read += s.bytes_read();
        self.bytes_written += s.bytes_written();
        self.chunk_requests += s.chunk_requests();
        self.aligned_ops += s.stripe_aligned_ops();
        self.unaligned_ops += s.unaligned_ops();
        let per_ost = s.per_ost_bytes();
        if self.per_ost_bytes.len() < per_ost.len() {
            self.per_ost_bytes.resize(per_ost.len(), 0);
        }
        for (acc, b) in self.per_ost_bytes.iter_mut().zip(per_ost) {
            *acc += b;
        }
    }
}

/// A built (set-up) workload.
pub trait Workload {
    /// Operations per timed pass at 16 ranks (fixed by the workload).
    fn ops(&self) -> u64;
    /// `(name, size, FNV-1a digest)` of each generated input: files by
    /// their bytes, query and update streams by their coordinate bits.
    fn inputs(&self) -> Vec<(&'static str, u64, u64)>;
    /// Host seconds the serial oracle took in set-up (0 if none).
    fn oracle_host_s(&self) -> f64;
    /// One line describing the reference the answers are checked against.
    fn reference_note(&self) -> String;
    /// The input layers' file bytes and their parsed features (left and
    /// right; a single layer stands for both), for the `geom` probes.
    fn sample(&self) -> (Vec<&[u8]>, &[Feature], &[Feature]);
    /// Runs one pass.
    fn pass(&self, scale: Scale, traced: bool) -> Pass;
}

/// Sets up workload `name` from `seed` at `1/div` of its full size.
pub fn build(name: &str, seed: u64, div: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "join_uniform" => Box::new(Join::build("join_uniform", seed, div)),
        "join_clustered" => Box::new(Join::build("join_clustered", seed, div)),
        "snapshot_cycle" => Box::new(Join::build(SNAPSHOT_CYCLE, seed, div)),
        "serve_mixed" => Box::new(ServeMixed::build(seed, div)),
        "update_rebalance" => Box::new(UpdateRebalance::build(seed, div)),
        _ => return None,
    })
}

// ---------------------------------------------------------------------
// Shared pieces

/// Join options: defaults plus the grid.
fn join_options() -> JoinOptions {
    JoinOptions {
        grid: GridSpec::square(GRID),
        ..Default::default()
    }
}

/// The decomposition an ingest builds: the join's default policy over
/// the benchmark grid, so every workload partitions the same way.
fn decomp_config() -> DecompConfig {
    DecompConfig {
        grid: GridSpec::square(GRID),
        policy: JoinOptions::default().decomp,
    }
}

/// One result slot per rank, as `World::run` returns them.
struct RankOut<T> {
    timing: RankTiming,
    allocs: (u64, u64),
    prep_host_s: f64,
    spans: Vec<Span>,
    value: T,
}

/// Runs `body` on every rank of a fresh world: `prep` first (untimed),
/// then `timed` inside the region and inside the pass's root span.
fn run_world<P, T>(
    layout: Layout,
    traced: bool,
    prep: impl Fn(&mut Comm, &mut Tracer<'_>) -> P + Send + Sync,
    timed: impl Fn(&mut Comm, &mut Tracer<'_>, P) -> T + Send + Sync,
) -> Vec<RankOut<T>>
where
    T: Send,
{
    let region = Region::new(layout.ranks());
    World::run(layout.config(), |comm| {
        let mut tr = Tracer::new(&region, comm.rank(), traced);
        let prepared = prep(comm, &mut tr);
        let prep_host_s = region.host_now();
        let mark = region.enter(comm);
        let value = tr.span(comm, "bench", "pass", |comm, tr| timed(comm, tr, prepared));
        let (timing, allocs) = region.exit(comm, mark);
        RankOut {
            timing,
            allocs,
            prep_host_s,
            spans: tr.spans,
            value,
        }
    })
}

/// Folds the per-rank region measurements into `pass` (adding, so that a
/// pass made of two worlds sums its parts) and returns the rank values.
fn absorb_world<T>(pass: &mut Pass, outs: Vec<RankOut<T>>) -> Vec<T> {
    let timings: Vec<RankTiming> = outs.iter().map(|o| o.timing).collect();
    let (virtual_s, host_s) = region_totals(&timings);
    // Spans of a second world follow the first on the timeline.
    let offset = pass.virtual_s;
    pass.virtual_s += virtual_s;
    pass.host_s += host_s;
    pass.allocs += outs[0].allocs.0;
    pass.alloc_bytes += outs[0].allocs.1;
    pass.prep_host_s += outs[0].prep_host_s;
    let mut values = Vec::with_capacity(outs.len());
    for (rank, o) in outs.into_iter().enumerate() {
        if pass.spans.len() <= rank {
            pass.spans.resize_with(rank + 1, Vec::new);
        }
        let base = pass.spans[rank].len();
        pass.spans[rank].extend(o.spans.into_iter().map(|mut s| {
            s.v0 += offset;
            s.v1 += offset;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        values.push(o.value);
    }
    values
}

/// Attaches an exchange's counters to the open span (a span's counts
/// under one key add up, so two exchanges of one call may both attach).
fn exchange_counts(tr: &mut Tracer<'_>, x: &ExchangeStats) {
    tr.count("ex_bytes_sent", x.bytes_sent as f64);
    tr.count("ex_records_sent", x.records_sent as f64);
    tr.count("ex_rounds", f64::from(x.rounds));
    tr.count("ex_exposed_s", x.exposed_wait_s);
    tr.count("ex_overlapped_s", x.overlapped_compute_s);
}

/// Attaches a join report's counters to the open span.
fn join_counts(tr: &mut Tracer<'_>, r: &JoinReport) {
    tr.count("filter_candidates", r.filter_candidates as f64);
    tr.count("refine_tests", r.refine_tests as f64);
    tr.count("pairs", r.pairs.len() as f64);
    tr.count("max_resident_allocs", r.max_resident_allocs as f64);
    tr.count("partition_s", r.breakdown.partition);
    tr.count("communication_s", r.breakdown.communication);
    tr.count("compute_s", r.breakdown.compute);
}

/// The full streaming ingest of one layer, in a span.
fn traced_ingest(
    comm: &mut Comm,
    tr: &mut Tracer<'_>,
    fs: &Arc<SimFs>,
    path: &str,
) -> Result<IngestOutput, String> {
    let opts = JoinOptions::default();
    tr.span(comm, "core.pipeline", "ingest", |comm, tr| {
        let out = ingest(
            comm,
            fs,
            path,
            &opts.read,
            &WktLineParser,
            &decomp_config(),
            &opts.pipeline,
        )
        .map_err(|e| format!("ingest {path}: {e}"))?;
        tr.count("records", out.stats.records as f64);
        tr.count("pairs", out.stats.pairs as f64);
        tr.count("owned", out.owned.len() as f64);
        exchange_counts(tr, &out.exchange);
        Ok(out)
    })
}

/// Cells owned by the busiest rank.
fn cells_per_rank_max(sd: &dyn SpatialDecomposition) -> f64 {
    let mut per_rank = vec![0u64; sd.num_ranks()];
    for cell in 0..sd.num_cells() {
        per_rank[sd.cell_to_rank(cell)] += 1;
    }
    per_rank.into_iter().max().unwrap_or(0) as f64
}

/// The staged form of a text join's front half (traced passes only):
/// read → parse → decomposition build → full ingest, per layer, each in
/// its own span. The join itself then runs as one opaque call.
fn staged_text_stages(
    comm: &mut Comm,
    tr: &mut Tracer<'_>,
    fs: &Arc<SimFs>,
    paths: [&str; 2],
) -> Result<(), String> {
    let opts = JoinOptions::default();
    let mut layers: Vec<Vec<Feature>> = Vec::new();
    for path in paths {
        let text = tr.span(comm, "core.partition", "read_partition_text", |comm, tr| {
            let text = read_partition_text(comm, fs, path, &ReadOptions::default())
                .map_err(|e| format!("read {path}: {e}"))?;
            tr.count("bytes", text.len() as f64);
            Ok::<_, String>(text)
        })?;
        let features = tr.span(comm, "core.pipeline", "parse_chunked", |comm, tr| {
            let (features, stats) = parse_chunked(comm, &text, &WktLineParser, &opts.pipeline)
                .map_err(|e| format!("parse {path}: {e}"))?;
            tr.count("records", stats.records as f64);
            tr.count("bytes", stats.record_bytes as f64);
            Ok::<_, String>(features)
        })?;
        layers.push(features);
    }
    tr.span(comm, "core.decomp", "build_global", |comm, tr| {
        let sd = build_global(comm, &[&layers[0], &layers[1]], &decomp_config());
        tr.count("cells_per_rank_max", cells_per_rank_max(&*sd));
    });
    drop(layers);
    for path in paths {
        traced_ingest(comm, tr, fs, path)?;
    }
    Ok(())
}

/// Max ÷ mean of per-rank loads.
fn imbalance(loads: impl IntoIterator<Item = u64>) -> f64 {
    imbalance_ratio(&loads.into_iter().collect::<Vec<_>>())
}

/// Collects per-rank join reports into a pass: pairs against the
/// reference, refine tests as the load measure, and one latency sample
/// (a batch job is one client-visible operation).
fn finish_join(
    pass: &mut Pass,
    label: &str,
    reference: &Pairs,
    reports: Vec<Result<JoinReport, String>>,
) {
    let mut got = Pairs::new();
    let mut loads = Vec::new();
    for r in reports {
        match r {
            Ok(rep) => {
                loads.push(rep.refine_tests);
                got.extend(rep.pairs);
            }
            Err(e) => {
                pass.verdict.attempted += 1;
                pass.verdict.fail(|| e);
            }
        }
    }
    pass.load_imbalance = imbalance(loads);
    pass.latencies_ms.push(pass.virtual_s * 1e3);
    pass.verdict.absorb(check_join(label, reference, got));
}

// ---------------------------------------------------------------------
// join_uniform, join_clustered, snapshot_cycle

/// A polygon layer joined with a line layer: from WKT text
/// (`join_uniform`, `join_clustered`) or through binary snapshots
/// (`snapshot_cycle`).
pub struct Join {
    name: &'static str,
    left: Layer,
    right: Layer,
    left_features: Vec<Feature>,
    right_features: Vec<Feature>,
    reference: Pairs,
    oracle_host_s: f64,
    /// `snapshot_cycle` only: per-rank `(left, right)` ingest results at
    /// 16 ranks, made in set-up.
    ingested: Vec<(IngestOutput, IngestOutput)>,
}

/// Side of the uniform layers' world: wide enough that the join's result
/// is sparse (refine is a few percent of the run), narrow enough that
/// every rank still refines a few hundred pairs, so that the imbalance
/// of that count is not sampling noise.
const UNIFORM_WORLD: f64 = 300.0;

/// Full-size record counts of the join layers.
const JOIN_LAKES: u64 = 50_000;
const JOIN_ROADS: u64 = 100_000;

const SNAPSHOT_CYCLE: &str = "snapshot_cycle";
const SNAPSHOTS: [&str; 2] = ["lakes.snap", "roads.snap"];

impl Join {
    fn build(name: &'static str, seed: u64, div: u64) -> Join {
        // `snapshot_cycle` takes `join_uniform`'s layers: a sparse join,
        // so that snapshot I/O and not refine is what it spends its time on.
        let (dist, size) = match name {
            "join_clustered" => (clustered(), 100.0),
            _ => (SpatialDistribution::Uniform, UNIFORM_WORLD),
        };
        let left = Layer::generate(
            "lakes.wkt",
            ShapeKind::Polygon,
            &dist,
            world(size),
            JOIN_LAKES / div,
            seed,
        );
        let right = Layer::generate(
            "roads.wkt",
            ShapeKind::Line,
            &dist,
            world(size),
            JOIN_ROADS / div,
            seed.wrapping_add(0x1000),
        );
        let (left_features, right_features) = (left.parse(), right.parse());
        let t = Instant::now();
        let reference = serial_join(&left_features, &right_features);
        let mut this = Join {
            name,
            left,
            right,
            left_features,
            right_features,
            reference,
            oracle_host_s: t.elapsed().as_secs_f64(),
            ingested: Vec::new(),
        };
        if name == SNAPSHOT_CYCLE {
            this.ingested = this.ingest_layers(Layout::of(16));
        }
        this
    }

    /// A cold file system holding both text layers.
    fn text_fs(&self, ranks: usize) -> Arc<SimFs> {
        let fs = fresh_fs(ranks);
        self.left.install(&fs);
        self.right.install(&fs);
        fs
    }

    /// Ingests both layers in a world of `layout` (untimed preparation).
    fn ingest_layers(&self, layout: Layout) -> Vec<(IngestOutput, IngestOutput)> {
        let fs = self.text_fs(layout.ranks());
        World::run(layout.config(), |comm| {
            let mut tr = Tracer::off(comm.rank());
            let l = traced_ingest(comm, &mut tr, &fs, self.left.path).expect("set-up ingest");
            let r = traced_ingest(comm, &mut tr, &fs, self.right.path).expect("set-up ingest");
            (l, r)
        })
    }

    /// `spatial_join` of the two WKT files.
    fn text_pass(&self, scale: Scale, traced: bool) -> Pass {
        let layout = Layout::of(scale.ranks());
        let fs = self.text_fs(layout.ranks());
        let (l, r) = (self.left.path, self.right.path);
        let outs = run_world(
            layout,
            traced,
            |_, _| (),
            |comm, tr, ()| {
                if tr.on() {
                    staged_text_stages(comm, tr, &fs, [l, r])?;
                }
                tr.span(comm, "sjoin.join", "spatial_join", |comm, tr| {
                    let rep = spatial_join(comm, &fs, l, r, &join_options())
                        .map_err(|e| format!("spatial_join: {e}"))?;
                    join_counts(tr, &rep);
                    Ok(rep)
                })
            },
        );
        let mut pass = Pass::default();
        let reports = absorb_world(&mut pass, outs);
        pass.fs.absorb(&fs);
        finish_join(&mut pass, self.name, &self.reference, reports);
        pass
    }

    /// Write both ingested layers as binary snapshots, then reload them
    /// in a smaller world (which forces the re-route) and join.
    fn snapshot_pass(&self, scale: Scale, traced: bool) -> Pass {
        // Reload at three quarters of the writing world, so no reader's
        // sections line up with what it owns.
        let (writers, readers) = match scale {
            Scale::R16 => (Layout::of(16), Layout::of(12)),
            Scale::R64 => (Layout::of(64), Layout::of(48)),
        };
        let scaled_out;
        let ingested = match scale {
            Scale::R16 => &self.ingested,
            Scale::R64 => {
                scaled_out = self.ingest_layers(writers);
                &scaled_out
            }
        };
        let mut pass = Pass::default();

        let write_fs = fresh_fs(writers.ranks());
        let outs = run_world(
            writers,
            traced,
            |_, _| (),
            |comm, tr, ()| {
                let (l, r) = &ingested[comm.rank()];
                for (out, path) in [(l, SNAPSHOTS[0]), (r, SNAPSHOTS[1])] {
                    tr.span(comm, "core.snapshot", "write_partitioned", |comm, tr| {
                        let rep = out
                            .write_partitioned(
                                comm,
                                &write_fs,
                                path,
                                &SnapshotWriteOptions::default(),
                            )
                            .map_err(|e| format!("write {path}: {e}"))?;
                        tr.count("bytes_total", rep.bytes_total as f64);
                        Ok::<_, String>(())
                    })?;
                }
                Ok::<_, String>(())
            },
        );
        for r in absorb_world(&mut pass, outs) {
            if let Err(e) = r {
                pass.verdict.attempted += 1;
                pass.verdict.fail(|| e);
            }
        }
        pass.fs.absorb(&write_fs);

        // Server-side state of a file system carries across worlds, so
        // the reload reads copies of the bytes on a cold one.
        let read_fs = fresh_fs(readers.ranks());
        for path in SNAPSHOTS {
            let Ok(file) = write_fs.open(path) else {
                continue; // the write already failed and was counted
            };
            read_fs
                .create(path, None)
                .expect("fresh file system")
                .append(file.snapshot());
        }
        let outs = run_world(
            readers,
            traced,
            |_, _| (),
            |comm, tr, ()| {
                tr.span(comm, "sjoin.join", "spatial_join_snapshots", |comm, tr| {
                    let rep = spatial_join_snapshots(
                        comm,
                        &read_fs,
                        SNAPSHOTS[0],
                        SNAPSHOTS[1],
                        &SnapshotJoinOptions::default(),
                    )
                    .map_err(|e| format!("spatial_join_snapshots: {e}"))?;
                    join_counts(tr, &rep);
                    Ok(rep)
                })
            },
        );
        let reports = absorb_world(&mut pass, outs);
        pass.fs.absorb(&read_fs);
        finish_join(&mut pass, self.name, &self.reference, reports);
        pass
    }
}

impl Workload for Join {
    fn ops(&self) -> u64 {
        self.left.records + self.right.records
    }

    fn inputs(&self) -> Vec<(&'static str, u64, u64)> {
        [&self.left, &self.right]
            .map(|l| (l.path, l.bytes.len() as u64, l.digest()))
            .to_vec()
    }

    fn oracle_host_s(&self) -> f64 {
        self.oracle_host_s
    }

    fn reference_note(&self) -> String {
        format!(
            "serial R-tree join: {} pairs, digest {:#018x}",
            self.reference.len(),
            pairs_digest(&self.reference)
        )
    }

    fn sample(&self) -> (Vec<&[u8]>, &[Feature], &[Feature]) {
        (
            vec![&self.left.bytes, &self.right.bytes],
            &self.left_features,
            &self.right_features,
        )
    }

    fn pass(&self, scale: Scale, traced: bool) -> Pass {
        if self.name == SNAPSHOT_CYCLE {
            self.snapshot_pass(scale, traced)
        } else {
            self.text_pass(scale, traced)
        }
    }
}

// ---------------------------------------------------------------------
// serve_mixed, update_rebalance: shared engine plumbing

/// FNV-1a over the bit patterns of a query stream's coordinates.
fn queries_digest(queries: &[Query]) -> u64 {
    let mut bytes = Vec::with_capacity(queries.len() * 33);
    for q in queries {
        let (tag, v) = match *q {
            Query::Range(r) => (0u8, r.to_array()),
            Query::Point(p) => (1, [p.x, p.y, 0.0, 0.0]),
            Query::Knn { at, k } => (2, [at.x, at.y, f64::from(k), 0.0]),
        };
        bytes.push(tag);
        for x in v {
            bytes.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

fn to_query(q: &QueryShape) -> Query {
    match *q {
        QueryShape::Range(r) => Query::Range(r),
        QueryShape::Point(p) => Query::Point(p),
        QueryShape::Knn { at, k } => Query::Knn { at, k },
    }
}

/// Ingests `layer` and builds the resident engine over it (untimed
/// preparation of a serving pass).
fn build_engine(
    comm: &mut Comm,
    tr: &mut Tracer<'_>,
    fs: &Arc<SimFs>,
    path: &str,
    opts: &EngineOptions,
) -> Result<QueryEngine, String> {
    let out = traced_ingest(comm, tr, fs, path)?;
    Ok(tr.span(comm, "sjoin.engine", "from_ingest", |comm, tr| {
        let eng = QueryEngine::from_ingest(comm, out, opts);
        tr.count("resident", eng.resident_replicas() as f64);
        eng
    }))
}

/// Attaches one serve call's counters to the open span.
fn serve_counts(tr: &mut Tracer<'_>, s: &ServeStats) {
    tr.count("queries", s.queries as f64);
    tr.count("from_cache", s.answered_from_cache as f64);
    tr.count("shipped", s.shipped_records as f64);
    tr.count("results", s.result_records as f64);
    tr.count("q_rounds", f64::from(s.query_exchange.rounds));
    tr.count("r_bytes", s.result_exchange.bytes_sent as f64);
    exchange_counts(tr, &s.query_exchange);
    exchange_counts(tr, &s.result_exchange);
}

/// The traced pass's homogeneous probe calls: the fixed cost of a
/// `serve` call (one trivial point query per rank, eight times), then
/// one batch of [`PROBE_BATCH`] range queries and one of kNN queries per
/// rank (an empty pool skips its probe).
fn engine_probes(
    comm: &mut Comm,
    tr: &mut Tracer<'_>,
    eng: &mut QueryEngine,
    ranges: &[Query],
    knns: &[Query],
) {
    let mut probe = Served::default();
    let origin = [Query::Point(Point::new(0.0, 0.0))];
    for _ in 0..8 {
        probe.serve(comm, tr, eng, "serve_floor", 1, &origin);
    }
    let at = comm.rank() * PROBE_BATCH;
    for (name, pool) in [("serve_range", ranges), ("serve_knn", knns)] {
        if !pool.is_empty() {
            probe.serve(comm, tr, eng, name, 1, &pool[at..at + PROBE_BATCH]);
        }
    }
}

/// What one rank's serving loop produced.
#[derive(Default)]
struct Served {
    /// Virtual ms of each query, in issue order.
    latencies_ms: Vec<f64>,
    /// `(global query index, answer)` of the sampled queries.
    sampled: Vec<(usize, QueryAnswer)>,
    /// Queries whose serve call returned an error, with the first error.
    errored: u64,
    first_error: Option<String>,
    /// Resident replicas when the loop ended.
    resident: u64,
    /// Missing deletes summed over update batches.
    missing_deletes: u64,
}

impl Served {
    /// One collective `serve` of `batch`, whose first query has global
    /// index `first`; every query inherits the call's virtual duration.
    fn serve(
        &mut self,
        comm: &mut Comm,
        tr: &mut Tracer<'_>,
        eng: &mut QueryEngine,
        name: &'static str,
        first: usize,
        batch: &[Query],
    ) {
        let t0 = comm.now();
        let result = tr.span(comm, "sjoin.engine", name, |comm, tr| {
            let r = eng.serve(comm, batch);
            if let Ok(rep) = &r {
                serve_counts(tr, &rep.stats);
            }
            r
        });
        let ms = (comm.now() - t0) * 1e3;
        self.latencies_ms.extend(batch.iter().map(|_| ms));
        match result {
            Ok(rep) => {
                for (i, ans) in rep.answers.into_iter().enumerate() {
                    if (first + i).is_multiple_of(SAMPLE_EVERY) {
                        self.sampled.push((first + i, ans));
                    }
                }
            }
            Err(e) => {
                self.errored += batch.len() as u64;
                self.first_error
                    .get_or_insert_with(|| format!("serve: {e}"));
            }
        }
    }
}

/// Folds the ranks' serving results into `pass`; `reference(i)` is the
/// full-scan answer to global query `i`.
fn finish_served(
    pass: &mut Pass,
    label: &str,
    queries: &[Query],
    served: Vec<Result<Served, String>>,
    reference: impl Fn(usize) -> QueryAnswer,
) {
    let mut loads = Vec::new();
    for s in served {
        let s = match s {
            Ok(s) => s,
            Err(e) => {
                pass.verdict.attempted += 1;
                pass.verdict.fail(|| e);
                continue;
            }
        };
        loads.push(s.resident);
        pass.verdict.attempted += s.latencies_ms.len() as u64;
        pass.latencies_ms.extend(s.latencies_ms);
        if s.errored > 0 {
            pass.verdict.failed += s.errored - 1;
            pass.verdict.fail(|| s.first_error.unwrap_or_default());
        }
        if s.missing_deletes > 0 {
            pass.verdict
                .fail(|| format!("{label}: {} deletes matched nothing", s.missing_deletes));
        }
        for (i, got) in s.sampled {
            let want = reference(i);
            if got != want {
                pass.verdict.fail(|| {
                    format!(
                        "{label}: query #{i} {:?} answered {} results, full scan finds {}",
                        queries[i],
                        got.len(),
                        want.len()
                    )
                });
            }
        }
    }
    pass.load_imbalance = imbalance(loads);
}

// ---------------------------------------------------------------------
// serve_mixed

/// A closed loop of mixed range/point/kNN batches against a resident
/// engine: one client per rank, each submitting its next batch when the
/// collective `serve` returns.
pub struct ServeMixed {
    roads: Layer,
    features: Vec<Feature>,
    /// `calls × 16 × BATCH` queries; call `j` of rank `r` in a `p`-rank
    /// world takes the `r`-th batch of the `j`-th window of `p` batches.
    queries: Vec<Query>,
    /// Homogeneous probe batches for the traced pass.
    probe_ranges: Vec<Query>,
    probe_knns: Vec<Query>,
    cache_entries: usize,
}

const SERVE_ROADS: u64 = 25_000;
const SERVE_CALLS: usize = 64;
const SERVE_BATCH: usize = 8;
const SERVE_POOL: usize = 1024;
const SERVE_CACHE: usize = 256;
/// Queries per rank in each homogeneous probe batch of the traced pass.
const PROBE_BATCH: usize = 64;

fn mixed_queries(
    pool: usize,
    skew: f64,
    range: f64,
    point: f64,
    draws: usize,
    seed: u64,
) -> Vec<Query> {
    let spec = QueryWorkload {
        pool,
        popularity_skew: skew,
        range_fraction: range,
        point_fraction: point,
        knn_k: 8,
        extent: 0.01,
        placement: clustered(),
    };
    generate_queries(world(100.0), &spec, draws, seed)
        .iter()
        .map(to_query)
        .collect()
}

impl ServeMixed {
    fn build(seed: u64, div: u64) -> ServeMixed {
        let div_us = div as usize;
        let roads = Layer::generate(
            "roads.wkt",
            ShapeKind::Line,
            &clustered(),
            world(100.0),
            SERVE_ROADS / div,
            seed,
        );
        let features = roads.parse();
        let calls = (SERVE_CALLS / div_us).max(4);
        // Working set four times the cache: the hot head hits, the tail misses.
        let cache_entries = (SERVE_CACHE / div_us).max(4);
        let queries = mixed_queries(
            cache_entries * SERVE_POOL / SERVE_CACHE,
            1.0,
            0.7,
            0.2,
            calls * 16 * SERVE_BATCH,
            ALIGNED_QUERY_SEED,
        );
        let probes = PROBE_BATCH * 64;
        ServeMixed {
            roads,
            features,
            queries,
            probe_ranges: mixed_queries(probes, 0.0, 1.0, 0.0, probes, ALIGNED_QUERY_SEED),
            probe_knns: mixed_queries(probes, 0.0, 0.0, 0.0, probes, ALIGNED_QUERY_SEED),
            cache_entries,
        }
    }
}

impl Workload for ServeMixed {
    fn ops(&self) -> u64 {
        self.queries.len() as u64
    }

    fn inputs(&self) -> Vec<(&'static str, u64, u64)> {
        vec![
            (
                self.roads.path,
                self.roads.bytes.len() as u64,
                self.roads.digest(),
            ),
            (
                "queries",
                self.queries.len() as u64,
                queries_digest(&self.queries),
            ),
        ]
    }

    fn oracle_host_s(&self) -> f64 {
        0.0
    }

    fn reference_note(&self) -> String {
        format!("full scan of every {SAMPLE_EVERY}th query's answer")
    }

    fn sample(&self) -> (Vec<&[u8]>, &[Feature], &[Feature]) {
        (vec![&self.roads.bytes], &self.features, &self.features)
    }

    fn pass(&self, scale: Scale, traced: bool) -> Pass {
        let layout = Layout::of(scale.ranks());
        let p = layout.ranks();
        let fs = fresh_fs(p);
        self.roads.install(&fs);
        let opts = EngineOptions {
            cache: ServeCache::Entries(self.cache_entries),
            ..Default::default()
        };
        let calls = self.queries.len() / (p * SERVE_BATCH);
        let outs = run_world(
            layout,
            traced,
            |comm, tr| build_engine(comm, tr, &fs, self.roads.path, &opts),
            |comm, tr, eng| {
                let mut eng = eng?;
                let mut served = Served::default();
                for call in 0..calls {
                    let first = (call * p + comm.rank()) * SERVE_BATCH;
                    let batch = &self.queries[first..first + SERVE_BATCH];
                    served.serve(comm, tr, &mut eng, "serve", first, batch);
                }
                if tr.on() {
                    engine_probes(comm, tr, &mut eng, &self.probe_ranges, &self.probe_knns);
                }
                served.resident = eng.resident_replicas() as u64;
                Ok(served)
            },
        );
        let mut pass = Pass::default();
        let served = absorb_world(&mut pass, outs);
        finish_served(&mut pass, "serve_mixed", &self.queries, served, |i| {
            scan_answer(self.features.iter(), &self.queries[i])
        });
        pass
    }
}

// ---------------------------------------------------------------------
// update_rebalance

/// A moving insert hotspot streamed into a resident engine: per step,
/// apply the updates, let the engine decide on a rebalance, then serve
/// one small range/point batch per rank.
pub struct UpdateRebalance {
    roads: Layer,
    base: Vec<Feature>,
    stream: MovingHotspot,
    /// Inserts born at each step, as features.
    born: Vec<Vec<Feature>>,
    /// `steps × UPDATE_QUERIES_PER_STEP` range/point queries, then the
    /// final probe: the last hotspot box, which holds every live insert.
    queries: Vec<Query>,
    /// Homogeneous range batches for the traced pass.
    probe_ranges: Vec<Query>,
}

const UPDATE_ROADS: u64 = 50_000;
const UPDATE_STEPS: usize = 24;
const UPDATE_INSERTS: usize = 2048;
const UPDATE_WINDOW: usize = 2;
/// Seed of the update stream and of the queries served beside it. Which
/// steps trip the rebalance threshold depends on the stream's every
/// point, and one tripped step more or less moves every number of the
/// run by several percent; so the streams are a fixed part of the
/// workload, like `serve_mixed`'s queries, and `--seed` varies the
/// resident layer under them.
const STREAM_SEED: u64 = 0x57EA_4D00;

/// Imbalance at which the engine re-decomposes. The default round-robin
/// cell map spreads the hotspot box over all ranks, so the drift stays
/// under the library's default of 1.5 and nothing would ever migrate;
/// 1.1 makes the stream trip it, which is what this workload is for.
const REBALANCE_THRESHOLD: f64 = 1.1;

/// Queries served per step, over all ranks (8 per rank at 16 ranks).
const UPDATE_QUERIES_PER_STEP: usize = 128;

impl UpdateRebalance {
    fn build(seed: u64, div: u64) -> UpdateRebalance {
        let div_us = div as usize;
        let roads = Layer::generate(
            "roads.wkt",
            ShapeKind::Line,
            &SpatialDistribution::Uniform,
            world(100.0),
            UPDATE_ROADS / div,
            seed,
        );
        let base = roads.parse();
        let stream = MovingHotspot {
            world: world(100.0),
            steps: UPDATE_STEPS,
            inserts_per_step: (UPDATE_INSERTS / div_us).max(64),
            window: UPDATE_WINDOW,
            spread: 0.18,
            seed: STREAM_SEED,
        };
        let born = (0..stream.steps)
            .map(|s| stream.inserts_at(s).iter().map(point_feature).collect())
            .collect();
        let spec = QueryWorkload {
            // Every update batch empties the cache, so popularity buys
            // nothing here; distinct queries keep the load an average
            // over the whole pool instead of a bet on its hottest entry.
            pool: UPDATE_STEPS * UPDATE_QUERIES_PER_STEP,
            popularity_skew: 0.0,
            range_fraction: 0.75,
            point_fraction: 0.25,
            extent: 0.01,
            placement: SpatialDistribution::Uniform,
            ..Default::default()
        };
        let mut queries: Vec<Query> = generate_queries(
            world(100.0),
            &spec,
            UPDATE_STEPS * UPDATE_QUERIES_PER_STEP,
            STREAM_SEED,
        )
        .iter()
        .map(to_query)
        .collect();
        let c = stream.center_at(stream.steps - 1);
        let half = stream.spread * 50.0;
        queries.push(Query::Range(Rect::new(
            c.x - half,
            c.y - half,
            c.x + half,
            c.y + half,
        )));
        let probes = PROBE_BATCH * 64;
        let probe_spec = QueryWorkload {
            pool: probes,
            popularity_skew: 0.0,
            range_fraction: 1.0,
            point_fraction: 0.0,
            ..spec
        };
        let probe_ranges = generate_queries(world(100.0), &probe_spec, probes, STREAM_SEED + 1)
            .iter()
            .map(to_query)
            .collect();
        UpdateRebalance {
            roads,
            base,
            stream,
            born,
            queries,
            probe_ranges,
        }
    }

    /// Steps whose inserts are live once step `step` has been applied.
    fn live_steps(&self, step: usize) -> std::ops::RangeInclusive<usize> {
        (step + 1).saturating_sub(self.stream.window)..=step
    }

    /// Full-scan answer over base + the inserts live after `step`.
    fn reference(&self, step: usize, q: &Query) -> QueryAnswer {
        let live = self.live_steps(step).flat_map(|s| self.born[s].iter());
        scan_answer(self.base.iter().chain(live), q)
    }
}

/// Every `p`-th feature of `batch`, starting at `rank`.
fn shard(batch: &[Feature], rank: usize, p: usize) -> impl Iterator<Item = Feature> + '_ {
    batch.iter().skip(rank).step_by(p).cloned()
}

fn point_feature((p, id): &(Point, String)) -> Feature {
    Feature::with_userdata(Geometry::Point(*p), id.clone())
}

impl Workload for UpdateRebalance {
    fn ops(&self) -> u64 {
        let updates: usize = (0..self.stream.steps)
            .map(|s| {
                self.born[s].len()
                    + s.checked_sub(self.stream.window)
                        .map_or(0, |b| self.born[b].len())
            })
            .sum();
        (updates + self.queries.len()) as u64
    }

    fn inputs(&self) -> Vec<(&'static str, u64, u64)> {
        let updates: Vec<Query> = self
            .born
            .iter()
            .flatten()
            .map(|f| Query::Point(f.geometry.envelope().center()))
            .collect();
        vec![
            (
                self.roads.path,
                self.roads.bytes.len() as u64,
                self.roads.digest(),
            ),
            (
                "queries",
                self.queries.len() as u64,
                queries_digest(&self.queries),
            ),
            ("inserts", updates.len() as u64, queries_digest(&updates)),
        ]
    }

    fn oracle_host_s(&self) -> f64 {
        0.0
    }

    fn reference_note(&self) -> String {
        format!(
            "full scan of every {SAMPLE_EVERY}th query's answer over base + live inserts, \
             no missing deletes, final probe of the last hotspot box"
        )
    }

    fn sample(&self) -> (Vec<&[u8]>, &[Feature], &[Feature]) {
        (vec![&self.roads.bytes], &self.base, &self.base)
    }

    fn pass(&self, scale: Scale, traced: bool) -> Pass {
        let layout = Layout::of(scale.ranks());
        let p = layout.ranks();
        let fs = fresh_fs(p);
        self.roads.install(&fs);
        let opts = EngineOptions {
            cache: ServeCache::Entries(1024),
            rebalance: RebalancePolicy::Threshold(REBALANCE_THRESHOLD),
            ..Default::default()
        };
        let per_rank = UPDATE_QUERIES_PER_STEP / p;
        let probe_at = self.queries.len() - 1;
        let outs = run_world(
            layout,
            traced,
            |comm, tr| {
                // Each rank is a front end submitting its shard of every
                // step (the routing exchange finds the owners). The
                // batches are made here so that the load generator's
                // clones are not in the timed region.
                let rank = comm.rank();
                let mine = |batch| shard(batch, rank, p);
                let batches: Vec<Vec<Update>> = (0..self.stream.steps)
                    .map(|step| {
                        let deletes = step.checked_sub(self.stream.window).map(|b| &self.born[b]);
                        deletes
                            .into_iter()
                            .flat_map(|b| mine(b).map(Update::Delete))
                            .chain(mine(&self.born[step]).map(Update::Insert))
                            .collect()
                    })
                    .collect();
                build_engine(comm, tr, &fs, self.roads.path, &opts).map(|eng| (eng, batches))
            },
            |comm, tr, prepared| {
                let (mut eng, batches) = prepared?;
                let mut served = Served::default();
                for (step, updates) in batches.iter().enumerate() {
                    tr.span(comm, "core.rebalance", "apply_updates", |comm, tr| {
                        let stats = eng
                            .apply_updates(comm, updates)
                            .map_err(|e| format!("apply_updates step {step}: {e}"))?;
                        tr.count("submitted", stats.submitted as f64);
                        tr.count("missing_deletes", stats.missing_deletes as f64);
                        exchange_counts(tr, &stats.insert_exchange);
                        exchange_counts(tr, &stats.delete_exchange);
                        served.missing_deletes += stats.missing_deletes;
                        Ok::<_, String>(())
                    })?;
                    tr.span(comm, "core.rebalance", "maybe_rebalance", |comm, tr| {
                        let resident = eng.resident_replicas();
                        let rep = eng
                            .maybe_rebalance(comm)
                            .map_err(|e| format!("maybe_rebalance step {step}: {e}"))?;
                        tr.count("rebalanced", f64::from(u8::from(rep.rebalanced)));
                        tr.count("imbalance_before", rep.imbalance_before);
                        tr.count("shipped_bytes", rep.migration.shipped_bytes as f64);
                        tr.count("shipped_records", rep.migration.shipped_records as f64);
                        if rep.rebalanced {
                            tr.count("resident_at_trigger", resident as f64);
                        }
                        exchange_counts(tr, &rep.migration.exchange);
                        Ok::<_, String>(())
                    })?;
                    let first = (step * p + comm.rank()) * per_rank;
                    let batch = &self.queries[first..first + per_rank];
                    served.serve(comm, tr, &mut eng, "serve", first, batch);
                }
                // Rank 0 asks for everything in the last hotspot box.
                let probe = &self.queries[probe_at..][..usize::from(comm.rank() == 0)];
                served.serve(comm, tr, &mut eng, "serve", probe_at, probe);
                if tr.on() {
                    engine_probes(comm, tr, &mut eng, &self.probe_ranges, &[]);
                }
                served.resident = eng.resident_replicas() as u64;
                Ok(served)
            },
        );
        let mut pass = Pass::default();
        let served = absorb_world(&mut pass, outs);
        let last = self.stream.steps - 1;
        finish_served(&mut pass, "update_rebalance", &self.queries, served, |i| {
            self.reference((i / UPDATE_QUERIES_PER_STEP).min(last), &self.queries[i])
        });
        pass
    }
}
