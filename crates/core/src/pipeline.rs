//! The intra-rank streaming ingest pipeline: chunked parse → cell-map →
//! copy over modelled worker lanes.
//!
//! The paper's end-to-end win comes from overlapping I/O, parsing and
//! spatial partitioning. This module is the one text front half every
//! text workload runs on ([`ingest_layers`]: ingest, join, range and
//! batch query, index build), and it splits each compute stage into
//! chunks charged to worker lanes:
//!
//! 1. every layer's Level 0 read is **posted up front** as stripe pieces
//!    (`crate::partition`); layer by layer its ring is finished and the
//!    owned text split into record-aligned **chunks**
//!    (`split_record_chunks`), so a later layer's read lands under an
//!    earlier layer's transcode (a read that cannot stream is issued
//!    here, just before its own layer's transcode);
//! 2. the chunks' records are transcoded, in order, straight from their
//!    text into the layer's arena of WKB bytes (`docs/FORMAT.md` §2),
//!    userdata, spans and envelopes, by the parser's
//!    [`GeometryParser::transcode`] — no geometry object is built, and
//!    each record is encoded exactly once, here;
//! 3. a second fan-out maps each run of records onto grid cells from their
//!    envelopes, sizing every replica's wire record from the spans, and a
//!    third copies the replicas straight into exactly sized
//!    per-destination wire buffers — whatever a record's replica count,
//!    its bytes are only copied;
//! 4. the staged exchange ships the buffers with the usual two-round
//!    `Alltoall` + `Alltoallv` protocol — or, under a finite
//!    [`crate::exchange::ExchangeChunk::Bytes`] cap (the memory bound of
//!    the paper's "Handling large data exchange"), the cell-map, copy and
//!    exchange stages fuse and stream through the chunked
//!    [`crate::exchange::ExchangePlan`], each round's `ialltoallv`
//!    overlapping the next round's copies;
//! 5. each rank keeps what it receives as the validated wire records it
//!    arrived as ([`IngestOutput::owned`], a
//!    [`crate::exchange::FrameStore`]) — nothing is decoded back into
//!    features, and [`IngestOutput::write_partitioned`] persists those
//!    records byte for byte.
//!
//! Text is the only way in: no stage takes a geometry object, and none
//! encodes one.
//!
//! # Determinism
//!
//! MPI-Vector-IO runs one single-threaded process per core, and so does
//! this pipeline: every stage runs on the rank's own thread, and its
//! workers are **modelled lanes**, not threads. Output is
//! **bit-identical to the sequential path regardless of worker count**:
//! chunk boundaries depend only on the input and the chunk-size knobs
//! (never on the worker count), and per-chunk results are concatenated
//! in ascending chunk order. The existing test suite therefore doubles
//! as a correctness oracle for the pipeline.
//!
//! Virtual-time accounting is equally deterministic: each chunk's work
//! is priced by [`mvio_msim::CostModel::cost`] and added onto a lane by
//! the fixed rule `lane = chunk_index % workers`, in chunk order; in the
//! parse stage arrival gates each chunk, relative to the stage's start:
//! `lane = max(lane, ready) + seconds`, where a chunk is ready when its
//! last byte has landed (the landings come from one pfs batch per post).
//! The rank clock then advances by the **slowest lane**
//! ([`Comm::advance_parallel`]) — the virtual wall-time of a perfectly
//! overlapped parallel region — where the stage runs: under a finite
//! exchange cap, inside the exchange feed that produces each round, so
//! the round's lanes overlap the previous round in flight. Charges
//! follow the work. The parse stage charges each record's calibrated
//! parse (`Work::ParseWkt`) and the copy of the WKB it wrote
//! (`Work::CopyBytes`); with one worker that is exactly what a
//! record-by-record parse charges (the lane is the
//! sequential sum). The cell-map stage charges the grid-filter lookup
//! (`Work::RtreeQueries`, the paper's cell-filter mechanism) and the copy
//! stage `Work::CopyBytes` for every replica's record, each as its own
//! slowest lane. No stage charges `Work::SerializeGeoms`: none encodes an
//! object. Either way the reported speedup at `w` workers is a property
//! of the partitioned work, not of the host machine.
//!
//! # Worker count
//!
//! [`PipelineOptions::workers`] defaults to 1 and is only ever set in
//! code, so a default `ingest`'s virtual parse time never depends on the
//! host it runs on.
//!
//! # Example
//!
//! A two-rank world ingests a tiny WKT file end to end — read, parse,
//! decompose, exchange — leaving each rank holding the replicas of the
//! cells it owns, as wire frames:
//!
//! ```
//! use mvio_core::decomp::{DecompConfig, SpatialDecomposition};
//! use mvio_core::grid::GridSpec;
//! use mvio_core::partition::ReadOptions;
//! use mvio_core::pipeline::{ingest, PipelineOptions};
//! use mvio_core::reader::WktLineParser;
//! use mvio_msim::{Topology, World, WorldConfig};
//! use mvio_pfs::{FsConfig, SimFs};
//!
//! let fs = SimFs::new(FsConfig::gpfs_roger());
//! fs.create("pts.wkt", None)
//!     .unwrap()
//!     .append(b"POINT (0.5 0.5)\ta\nPOINT (3.5 3.5)\tb\nPOINT (3.5 0.5)\tc\n");
//! let out = World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
//!     let ingested = ingest(
//!         comm,
//!         &fs,
//!         "pts.wkt",
//!         &ReadOptions::default(),
//!         &WktLineParser,
//!         &DecompConfig::uniform(GridSpec::square(2)),
//!         &PipelineOptions::default(),
//!     )
//!     .unwrap();
//!     // Every replica landed on the rank owning its cell.
//!     assert!(ingested
//!         .owned
//!         .frames()
//!         .all(|frame| ingested.decomp.cell_to_rank(frame.cell) == comm.rank()));
//!     ingested.owned.len()
//! });
//! // The three features exist exactly once across the world.
//! assert_eq!(out.iter().sum::<usize>(), 3);
//! ```

use crate::decomp::{DecompConfig, Decomposition, SpatialDecomposition};
// The persistence half of the pipeline: `ingest` once, `write_partitioned`
// the result, `read_partitioned` it back on any later run (bit-identically
// under the same world size and decomposition).
use crate::exchange::{
    emit_record, exchange_serialized, ExchangeChunk, ExchangePlan, ExchangeRound, ExchangeStats,
    FrameStore, SerializedBatch, RECORD_OVERHEAD,
};
use crate::partition::{post_partition_text, ReadOptions, RECORD_DELIMITER};
use crate::reader::{GeometryParser, Records};
pub use crate::snapshot::{
    read_partitioned, write_partitioned, SnapshotReadOptions, SnapshotWriteOptions,
};
use crate::{CoreError, Feature, Result};
use mvio_geom::Rect;
use mvio_msim::{Comm, Work};
use mvio_pfs::SimFs;
use std::sync::Arc;

/// Knobs for the streaming ingest pipeline.
#[derive(Debug, Clone, Copy)]
pub struct PipelineOptions {
    /// Modelled worker lanes per stage (default 1; clamped to
    /// `1..=`[`MAX_WORKERS`]). Every stage runs on the rank's own thread.
    pub workers: usize,
    /// Target bytes per parse chunk (record-aligned; a chunk never splits
    /// a record).
    pub parse_chunk_bytes: usize,
    /// Features per cell-map/serialize chunk.
    pub partition_chunk_records: usize,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            workers: 1,
            parse_chunk_bytes: 64 << 10,
            partition_chunk_records: 1024,
        }
    }
}

impl PipelineOptions {
    /// Sets the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the parse-chunk size in bytes.
    pub fn with_parse_chunk_bytes(mut self, bytes: usize) -> Self {
        self.parse_chunk_bytes = bytes;
        self
    }

    /// Sets the partition-chunk size in records.
    pub fn with_partition_chunk_records(mut self, records: usize) -> Self {
        self.partition_chunk_records = records;
        self
    }

    /// The worker count this configuration runs with: `workers`
    /// clamped to `1..=`[`MAX_WORKERS`].
    fn effective_workers(&self) -> usize {
        self.workers.clamp(1, MAX_WORKERS)
    }
}

/// Upper bound on the worker count. It bounds the lane vectors each
/// stage allocates, not OS threads: lanes are modelled on the rank's own
/// thread.
pub const MAX_WORKERS: usize = 64;

/// Counters describing one pipeline run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Modelled worker lanes used.
    pub workers: usize,
    /// Record-aligned text chunks parsed.
    pub parse_chunks: u64,
    /// Record chunks cell-mapped and copied into wire buffers.
    pub partition_chunks: u64,
    /// Records parsed.
    pub records: u64,
    /// Record bytes parsed (including delimiters).
    pub record_bytes: u64,
    /// `(cell, feature)` replicas copied into wire buffers.
    pub pairs: u64,
}

/// Splits `text` into record-aligned chunks of roughly `target_bytes`
/// each: every chunk ends on a record delimiter (or the end of input), so
/// chunks can be parsed independently. Boundaries depend only on the
/// input and the target — never on the worker count — which is what makes
/// the lane fold independent of how the chunks are grouped.
fn split_record_chunks(text: &str, target_bytes: usize) -> Vec<&str> {
    let target = target_bytes.max(1);
    let mut out = Vec::new();
    let mut rest = text;
    while rest.len() > target {
        // First newline at or after the target. Newlines are ASCII, so
        // the byte offset is always a valid char boundary.
        match rest.as_bytes()[target - 1..]
            .iter()
            .position(|&b| b == RECORD_DELIMITER)
        {
            Some(off) => {
                let cut = target + off;
                out.push(&rest[..cut]);
                rest = &rest[cut..];
            }
            None => break,
        }
    }
    if !rest.is_empty() {
        out.push(rest);
    }
    out
}

/// Runs `job` over `jobs` in order on the rank's own thread, returning
/// the results in job order and the per-lane virtual-second totals: job
/// `k` reports `(result, ready, seconds)` and goes to modelled lane
/// `k % lanes`, in ascending `k`, which starts it once the lane is free
/// and `ready` seconds have passed since the stage began.
fn fan_out<J, O>(
    workers: usize,
    jobs: Vec<J>,
    mut job: impl FnMut(&J) -> (O, f64, f64),
) -> (Vec<O>, Vec<f64>) {
    let mut lanes = vec![0.0f64; workers.min(jobs.len()).max(1)];
    let n = lanes.len();
    let results = jobs
        .iter()
        .enumerate()
        .map(|(k, j)| {
            let (out, ready, secs) = job(j);
            lanes[k % n] = lanes[k % n].max(ready) + secs;
            out
        })
        .collect();
    (results, lanes)
}

/// The chunked parse stage: splits `text` into record-aligned chunks and
/// transcodes them, in order on the rank's own thread, into one records
/// arena. Chunk `k` goes to modelled lane `k % workers`, which takes it
/// up once the chunk's last byte has landed (`ready(byte range)`, −∞
/// for text that is already there), and the clock advances by the
/// slowest lane.
/// Not collective — local parse; the communicator only charges the
/// worker lanes.
pub(crate) fn parse_records(
    comm: &mut Comm,
    text: &str,
    ready: &dyn Fn(std::ops::Range<usize>) -> f64,
    parser: &dyn GeometryParser,
    opts: &PipelineOptions,
) -> Result<(Records, PipelineStats)> {
    let workers = opts.effective_workers();
    let chunks = split_record_chunks(text, opts.parse_chunk_bytes);
    let (cost, now) = (*comm.cost_model(), comm.now());
    let mut records = Records::default();
    let (results, lanes) = fan_out(workers, chunks, |chunk: &&str| {
        let at = chunk.as_ptr() as usize - text.as_ptr() as usize;
        let mut seconds = 0.0;
        let parsed = records.parse(chunk, parser, |work| seconds += cost.cost(work));
        (parsed, ready(at..at + chunk.len()) - now, seconds)
    });
    let parse_chunks = results.len() as u64;
    // Error of the lowest-index failed chunk — what the sequential scan
    // would have hit first.
    results.into_iter().collect::<Result<()>>()?;
    comm.advance_parallel(&lanes);
    let stats = PipelineStats {
        workers,
        parse_chunks,
        records: records.len() as u64,
        record_bytes: records.text_bytes,
        ..Default::default()
    };
    Ok((records, stats))
}

/// The chunked parse stage for callers that want objects: its records,
/// decoded into features — bit-identical to
/// [`crate::reader::parse_buffer_serial`] for any worker count, and
/// charged exactly as the stage is.
/// Not collective — local parse; the communicator only charges the
/// worker lanes.
pub fn parse_chunked(
    comm: &mut Comm,
    text: &str,
    parser: &dyn GeometryParser,
    opts: &PipelineOptions,
) -> Result<(Vec<Feature>, PipelineStats)> {
    let (records, stats) = parse_records(comm, text, &|_| f64::NEG_INFINITY, parser, opts)?;
    Ok((records.to_features()?, stats))
}

/// Record-range boundaries of the partition stage: depends only on the
/// record count and the chunk-size knob, never on the worker count.
fn partition_ranges(records: usize, step: usize) -> Vec<std::ops::Range<usize>> {
    (0..records)
        .step_by(step.max(1))
        .map(|lo| lo..(lo + step.max(1)).min(records))
        .collect()
}

/// One partition chunk mapped onto cells: every replica as
/// `(record index, cell)`, record-major with cells ascending, and the
/// exact wire bytes the replicas add to each destination buffer.
#[derive(Debug, Default)]
pub(crate) struct ChunkCells {
    replicas: Vec<(usize, u32)>,
    sizes: Vec<usize>,
}

/// One layer's transcoded records on their way to the exchange:
/// cell-mapped under `decomp` and copied into one batch.
pub(crate) struct Partition<'a> {
    decomp: &'a Decomposition,
    records: &'a Records,
}

impl<'a> Partition<'a> {
    pub(crate) fn new(decomp: &'a Decomposition, records: &'a Records) -> Self {
        Partition { decomp, records }
    }

    /// The cell-map step of one chunk: looks up the cells of every record's
    /// envelope in `range` and sizes their wire records from the spans.
    /// Returns the map and its work: the lookup (`Work::RtreeQueries`,
    /// the paper's cell-filter probe).
    fn map_chunk(&self, range: std::ops::Range<usize>) -> (ChunkCells, Work) {
        let mut map = ChunkCells {
            sizes: vec![0; self.decomp.num_ranks()],
            ..Default::default()
        };
        let mut cells = Vec::new();
        for i in range.clone() {
            self.decomp
                .cells_for_rect(&self.records.envelopes()[i], &mut cells);
            let (wkb, userdata) = self.records.get(i);
            let len = RECORD_OVERHEAD + wkb.len() + userdata.len();
            for &cell in &cells {
                map.sizes[self.decomp.cell_to_rank(cell)] += len;
                map.replicas.push((i, cell));
            }
        }
        let work = Work::RtreeQueries {
            n: range.len() as u64,
            results: map.replicas.len() as u64,
        };
        (map, work)
    }

    /// The serialize step of one mapped chunk, the one body behind every
    /// serializing path: appends one wire record per replica to `out`, a
    /// copy of its record's transcoded bytes. Returns its work: the
    /// copied bytes (`Work::CopyBytes`).
    fn serialize_chunk(&self, map: &ChunkCells, out: &mut SerializedBatch) -> Result<Work> {
        let n = map.sizes.iter().sum::<usize>() as u64;
        for &(i, cell) in &map.replicas {
            let (wkb, userdata) = self.records.get(i);
            let dst = self.decomp.cell_to_rank(cell);
            emit_record(cell, wkb, userdata, &mut out.bufs[dst])?;
            out.records[dst] += 1;
        }
        Ok(Work::CopyBytes { n })
    }

    /// The cell-map stage: maps record chunks onto cells in order on
    /// the rank's own thread, chunk `k`'s seconds on modelled lane
    /// `k % workers`, and advances the clock by the slowest lane.
    /// Not collective — the communicator only charges the worker lanes.
    pub(crate) fn map(&self, comm: &mut Comm, opts: &PipelineOptions) -> Vec<ChunkCells> {
        let cost = *comm.cost_model();
        let ranges = partition_ranges(self.records.len(), opts.partition_chunk_records);
        let (maps, lanes) = fan_out(opts.effective_workers(), ranges, |range| {
            let (map, work) = self.map_chunk(range.clone());
            (map, 0.0, cost.cost(work))
        });
        comm.advance_parallel(&lanes);
        maps
    }

    /// The serialize stage over [`Partition::map`]'s chunks, on the
    /// rank's own thread: every chunk writes straight into one batch whose
    /// buffers are allocated once at their exact size, and chunk `k`'s
    /// seconds go to modelled lane `k % workers`. Advances the clock by
    /// the slowest lane. Not collective — the communicator only charges
    /// the lanes.
    pub(crate) fn serialize(
        &self,
        comm: &mut Comm,
        maps: &[ChunkCells],
        opts: &PipelineOptions,
    ) -> Result<(SerializedBatch, PipelineStats)> {
        let (workers, cost) = (opts.effective_workers(), *comm.cost_model());
        let mut out = SerializedBatch::empty(self.decomp.num_ranks());
        for (dst, buf) in out.bufs.iter_mut().enumerate() {
            buf.reserve_exact(maps.iter().map(|map| map.sizes[dst]).sum());
        }
        let mut lanes = vec![0.0f64; workers.min(maps.len()).max(1)];
        let n = lanes.len();
        for (k, map) in maps.iter().enumerate() {
            lanes[k % n] += cost.cost(self.serialize_chunk(map, &mut out)?);
        }
        comm.advance_parallel(&lanes);
        let stats = PipelineStats {
            workers,
            partition_chunks: maps.len() as u64,
            pairs: maps.iter().map(|m| m.replicas.len() as u64).sum(),
            ..Default::default()
        };
        Ok((out, stats))
    }
}

/// Fused partition + exchange stage with communication/compute overlap:
/// cell-maps and copies the records' replicas chunk by chunk and ships
/// them through the chunked [`ExchangePlan`], so round `r`'s `ialltoallv`
/// is in flight while round `r+1` is copied (and round `r-1`'s receives
/// are validated). A round closes once any destination's buffer reaches
/// `chunk_bytes`. The received frames are **bit-identical** to the
/// unfused map → serialize → [`exchange_serialized`] path (same chunks,
/// same order); only the virtual time moves, because the chunks' lanes
/// (the same `chunk % workers` rule) overlap the in-flight rounds.
/// Collective: every rank must call it.
fn exchange_overlapped(
    comm: &mut Comm,
    decomp: &Decomposition,
    records: &Records,
    opts: &PipelineOptions,
    chunk_bytes: u64,
) -> Result<(FrameStore, PipelineStats, ExchangeStats)> {
    let (workers, p, cost) = (opts.effective_workers(), comm.size(), *comm.cost_model());
    debug_assert_eq!(decomp.num_ranks(), p, "decomposition for another world");
    let chunk_bytes = chunk_bytes.max(1);
    let ranges = partition_ranges(records.len(), opts.partition_chunk_records);
    let mut stats = PipelineStats {
        workers,
        ..Default::default()
    };
    let mut next = 0usize;
    let part = Partition::new(decomp, records);

    // Copies partition chunks into one exchange round until a
    // destination fills up, each chunk's work on its deterministic lane,
    // and folds the lanes into the clock. Runs between the plan's post
    // and wait, so the lanes overlap the in-flight round. A round always
    // carries at least one chunk per worker lane (when that many remain):
    // closing on the byte cap alone could shrink rounds to a single
    // chunk, copying on one lane what the unfused stage spreads over all
    // of them.
    let mut feed = |comm: &mut Comm| -> Result<Option<ExchangeRound>> {
        if next >= ranges.len() {
            return Ok(None);
        }
        let mut batch = SerializedBatch::empty(p);
        let mut lanes = vec![0.0f64; workers];
        let mut chunks_in_round = 0usize;
        while next < ranges.len() {
            let (map, work) = part.map_chunk(ranges[next].clone());
            for (buf, &n) in batch.bufs.iter_mut().zip(&map.sizes) {
                buf.reserve(n);
            }
            let copy = part.serialize_chunk(&map, &mut batch)?;
            lanes[next % workers] += cost.cost(work) + cost.cost(copy);
            stats.partition_chunks += 1;
            stats.pairs += map.replicas.len() as u64;
            next += 1;
            chunks_in_round += 1;
            if chunks_in_round >= workers
                && batch.bufs.iter().any(|b| b.len() as u64 >= chunk_bytes)
            {
                break;
            }
        }
        comm.advance_parallel(&lanes);
        Ok(Some(ExchangeRound {
            batch,
            more: next < ranges.len(),
        }))
    };

    let plan = ExchangePlan::new(comm, ExchangeChunk::Bytes(chunk_bytes));
    let mut owned = FrameStore::new(p);
    let ex_stats = plan.run(comm, &mut feed, &mut |c, bufs| owned.append_round(c, bufs))?;
    Ok((owned, stats, ex_stats))
}

/// Per-rank result of a full pipelined ingest.
#[derive(Debug)]
pub struct IngestOutput {
    /// The collectively built global decomposition.
    pub decomp: Decomposition,
    /// The `(cell, feature)` replicas this rank owns after the exchange,
    /// kept as the validated wire records they arrived as — bit-identical
    /// to the sequential parse→project→exchange path.
    pub owned: FrameStore,
    /// Features this rank parsed from its file partition.
    pub local_features: u64,
    /// Exchange counters.
    pub exchange: ExchangeStats,
    /// Pipeline counters.
    pub stats: PipelineStats,
}

impl IngestOutput {
    /// Persists this ingest's partitioned result as a binary snapshot at
    /// `path` via the collective two-phase writer
    /// ([`crate::snapshot::write_partitioned`]) — the received records,
    /// copied as they are — so later runs can [`read_partitioned`] it
    /// instead of re-ingesting the text.
    /// Collective: every rank must call it.
    pub fn write_partitioned(
        &self,
        comm: &mut Comm,
        fs: &Arc<SimFs>,
        path: &str,
        opts: &SnapshotWriteOptions,
    ) -> Result<crate::snapshot::SnapshotWriteReport> {
        crate::snapshot::write_partitioned(comm, fs, path, self.owned.frames(), &self.decomp, opts)
    }
}

/// The full streaming per-rank ingest of one layer: partitioned read →
/// parallel parse → collective decomposition build → parallel cell-map
/// and serialize → staged `Alltoall`/`Alltoallv` exchange, in one
/// blocking round ([`ingest_layers`] over one layer with
/// [`ExchangeChunk::Unlimited`]).
/// Collective: every rank must call it — it chains the partitioned
/// read, the decomposition reductions, and the exchange.
pub fn ingest(
    comm: &mut Comm,
    fs: &Arc<SimFs>,
    path: &str,
    read: &ReadOptions,
    parser: &dyn GeometryParser,
    cfg: &DecompConfig,
    opts: &PipelineOptions,
) -> Result<IngestOutput> {
    let chunk = ExchangeChunk::Unlimited;
    let ingested = ingest_layers(comm, fs, &[path], read, parser, cfg, opts, chunk)?;
    let (decomp, mut layers) = (ingested.decomp, ingested.layers);
    // audit: ingest_layers returns one layer per path.
    let layer = layers.pop().expect("one layer");
    Ok(IngestOutput {
        decomp,
        owned: layer.owned,
        local_features: layer.local_features,
        exchange: layer.exchange,
        stats: layer.stats,
    })
}

/// One layer of an [`ingest_layers`] run: [`IngestOutput`] without the
/// shared decomposition.
#[derive(Debug)]
pub struct IngestedLayer {
    /// The layer's replicas this rank owns, as validated wire records.
    pub owned: FrameStore,
    /// Features of the layer this rank parsed.
    pub local_features: u64,
    /// Exchange counters.
    pub exchange: ExchangeStats,
    /// Pipeline counters.
    pub stats: PipelineStats,
}

/// Per-rank result of [`ingest_layers`].
#[derive(Debug)]
pub struct IngestedLayers {
    /// The one decomposition built over every layer.
    pub decomp: Decomposition,
    /// The layers, in the order of their paths.
    pub layers: Vec<IngestedLayer>,
    /// This rank's virtual clock when the partition phase (read, parse,
    /// decomposition, cell-map) ended and the communication phase
    /// (serialization, exchange, validation) began.
    pub partition_end: f64,
}

/// The one text front half, which [`ingest`], the join, the range and
/// batch queries and the index build all run on: every layer's read
/// posted up front, then per layer a parallel parse whose chunks start
/// as their bytes land; then **one** decomposition over all layers
/// ([`Decomposition::build_global`]), so joined layers share their cells. The
/// partition phase ends with every layer cell-mapped; the communication
/// phase serializes each layer and exchanges it into one [`FrameStore`]
/// in one blocking round. A finite `chunk` instead streams cell-map and
/// serialization into byte-capped exchange rounds, both then counting as
/// communication. The frames are bit-identical under every chunk policy.
/// Collective: every rank must call it with the same paths and options.
#[allow(clippy::too_many_arguments)]
pub fn ingest_layers(
    comm: &mut Comm,
    fs: &Arc<SimFs>,
    paths: &[&str],
    read: &ReadOptions,
    parser: &dyn GeometryParser,
    cfg: &DecompConfig,
    opts: &PipelineOptions,
    chunk: ExchangeChunk,
) -> Result<IngestedLayers> {
    // A failed read or parse is parked and its layer left empty: the
    // decomposition build's extent allreduce tells every rank.
    let mut deferred: Option<CoreError> = None;
    let posted: Vec<_> = (paths.iter())
        .map(|path| post_partition_text(comm, fs, path, read))
        .collect();
    let mut parsed = Vec::with_capacity(paths.len());
    for post in posted {
        let layer = post.and_then(|finish| finish(comm)).and_then(|landed| {
            let ready = |range| landed.ready(range);
            let layer = parse_records(comm, &landed.text, &ready, parser, opts);
            landed.wait(comm);
            layer
        });
        parsed.push(layer.unwrap_or_else(|e| {
            deferred.get_or_insert(e);
            Default::default()
        }));
    }
    let envelopes: Vec<&[Rect]> = parsed.iter().map(|(r, _)| r.envelopes()).collect();
    let decomp = Decomposition::build_global(comm, &envelopes, cfg, deferred.is_some())
        .map_err(|peer| deferred.take().unwrap_or(peer))?;
    let streamed = chunk.resolve();
    // Cell-map every layer now, unless the exchange rounds stream it.
    let maps: Vec<_> = parsed
        .iter()
        .filter(|_| streamed.is_none())
        .map(|(records, _)| Partition::new(&decomp, records).map(comm, opts))
        .collect();
    let partition_end = comm.now();

    let mut maps = maps.into_iter();
    let mut layers = Vec::with_capacity(parsed.len());
    for (records, parse_stats) in parsed {
        let local_features = records.len() as u64;
        let (owned, part, exchange) = match streamed {
            Some(cap) => exchange_overlapped(comm, &decomp, &records, opts, cap)?,
            None => {
                let map = maps.next().unwrap_or_default();
                let (batch, part) =
                    Partition::new(&decomp, &records).serialize(comm, &map, opts)?;
                drop(records);
                let (owned, exchange) = exchange_serialized(comm, batch, chunk)?;
                (owned, part, exchange)
            }
        };
        let stats = PipelineStats {
            partition_chunks: part.partition_chunks,
            pairs: part.pairs,
            ..parse_stats
        };
        layers.push(IngestedLayer {
            owned,
            local_features,
            exchange,
            stats,
        });
    }
    Ok(IngestedLayers {
        decomp,
        layers,
        partition_end,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::decomp::DecompPolicy;
    use crate::exchange::{exchange_serialized, serialize_record, ExchangeChunk, RecordFrame};
    use crate::grid::{CellMap, GridSpec, UniformGrid};
    use crate::partition::read_partition_text;
    use crate::reader::tests::parse_buffer;
    use crate::reader::{parse_buffer_serial, WktLineParser};
    use mvio_geom::Rect;
    use mvio_msim::{Topology, World, WorldConfig};

    /// A store's records in order, compared byte for byte.
    fn frames(store: &FrameStore) -> Vec<RecordFrame<'_>> {
        store.frames().collect()
    }

    /// The sequential reference serializer: every replica of every
    /// feature, feature-major with cells ascending, one record at a time.
    fn sequential_batch(decomp: &Decomposition, feats: &[Feature]) -> SerializedBatch {
        let mut batch = SerializedBatch::empty(decomp.num_ranks());
        for f in feats {
            for cell in decomp.cells_for_rect_vec(&f.geometry.envelope()) {
                let dst = decomp.cell_to_rank(cell);
                serialize_record(cell, f, &mut Vec::new(), &mut batch.bufs[dst]).unwrap();
                batch.records[dst] += 1;
            }
        }
        batch
    }

    /// The partition stage of [`ingest_layers`] over WKT `text` that is
    /// already in memory: transcodes it uncharged, then cell-maps and
    /// copies every replica under `decomp`, charging both as the stage
    /// does.
    pub(crate) fn partition_text(
        comm: &mut Comm,
        decomp: &Decomposition,
        text: &str,
        opts: &PipelineOptions,
    ) -> (SerializedBatch, PipelineStats) {
        let mut records = Records::default();
        records.parse(text, &WktLineParser, |_| {}).unwrap();
        let part = Partition::new(decomp, &records);
        let maps = part.map(comm, opts);
        part.serialize(comm, &maps, opts).unwrap()
    }

    /// A deterministic synthetic WKT buffer mixing shapes and userdata.
    fn sample_text(records: usize) -> String {
        let mut text = String::new();
        for i in 0..records {
            let x = (i % 37) as f64 * 0.7;
            let y = (i / 37) as f64 * 1.3;
            match i % 3 {
                0 => text.push_str(&format!("POINT ({x} {y})\tid={i}\n")),
                1 => text.push_str(&format!(
                    "LINESTRING ({x} {y}, {} {})\troad-{i}\n",
                    x + 2.5,
                    y + 0.4
                )),
                _ => text.push_str(&format!(
                    "POLYGON (({x} {y}, {} {y}, {} {}, {x} {}, {x} {y}))\tlake-{i}\n",
                    x + 1.9,
                    x + 1.9,
                    y + 1.1,
                    y + 1.1
                )),
            }
        }
        text
    }

    #[test]
    fn chunks_reassemble_to_the_input_and_respect_records() {
        let text = sample_text(100);
        for target in [1, 17, 256, 4096, text.len() + 10] {
            let chunks = split_record_chunks(&text, target);
            assert_eq!(chunks.concat(), text, "target {target}");
            for c in &chunks[..chunks.len().saturating_sub(1)] {
                assert!(c.ends_with('\n'), "interior chunk must end a record");
            }
        }
        assert!(split_record_chunks("", 64).is_empty());
    }

    #[test]
    fn parallel_parse_is_bit_identical_for_any_worker_count() {
        let text = sample_text(300);
        let expect = parse_buffer_serial(&text, &WktLineParser).unwrap();
        for workers in [1, 2, 4, 8] {
            let text = text.clone();
            let out = World::run(WorldConfig::new(Topology::single_node(1)), move |comm| {
                let opts = PipelineOptions::default()
                    .with_workers(workers)
                    .with_parse_chunk_bytes(512);
                let (feats, stats) = parse_chunked(comm, &text, &WktLineParser, &opts).unwrap();
                assert_eq!(stats.records, 300);
                assert!(stats.parse_chunks > 4, "chunk size must fragment input");
                (feats, comm.now())
            });
            assert_eq!(out[0].0, expect, "workers={workers}");
            assert!(out[0].1 > 0.0);
        }
    }

    #[test]
    fn parallel_parse_speedup_is_modelled_deterministically() {
        // The virtual clock must report the max-lane time: 4 workers over
        // many uniform chunks ≈ 1/4 of the single-worker time.
        let text = sample_text(2000);
        let time_at = |workers: usize| -> f64 {
            let text = text.clone();
            World::run(WorldConfig::new(Topology::single_node(1)), move |comm| {
                let opts = PipelineOptions::default()
                    .with_workers(workers)
                    .with_parse_chunk_bytes(1 << 10);
                let before = comm.now();
                parse_chunked(comm, &text, &WktLineParser, &opts).unwrap();
                comm.now() - before
            })[0]
        };
        let t1 = time_at(1);
        let t4 = time_at(4);
        assert!(
            t1 / t4 >= 1.5,
            "4-worker virtual speedup {:.2} must be >= 1.5x (t1={t1:.6}, t4={t4:.6})",
            t1 / t4
        );
    }

    #[test]
    fn single_worker_parse_time_matches_sequential_charge() {
        let text = sample_text(200);
        let out = World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
            let before = comm.now();
            if comm.rank() == 0 {
                let opts = PipelineOptions::default()
                    .with_workers(1)
                    .with_parse_chunk_bytes(777);
                parse_chunked(comm, &text, &WktLineParser, &opts).unwrap();
            } else {
                parse_buffer(comm, &text, &WktLineParser).unwrap();
            }
            comm.now() - before
        });
        let rel = (out[0] - out[1]).abs() / out[1];
        assert!(
            rel < 1e-9,
            "1-worker pipeline ({}) ~= sequential ({})",
            out[0],
            out[1]
        );
    }

    #[test]
    fn arrival_gates_each_parse_chunk() {
        // Every chunk but the first lands at t = 10 s: one lane parses
        // the first chunk at once, idles until 10 s, then parses the rest.
        let text = sample_text(200);
        let chunks = split_record_chunks(&text, 512);
        let clock = |text: &str, ready: &(dyn Fn(std::ops::Range<usize>) -> f64 + Sync)| {
            World::run(WorldConfig::new(Topology::single_node(1)), |comm| {
                let opts = PipelineOptions::default().with_parse_chunk_bytes(512);
                parse_records(comm, text, ready, &WktLineParser, &opts).unwrap();
                comm.now()
            })[0]
        };
        let landed = |_| f64::NEG_INFINITY;
        let (first, all) = (clock(chunks[0], &landed), clock(&text, &landed));
        let gated = clock(&text, &|r| {
            if r.start == 0 {
                f64::NEG_INFINITY
            } else {
                10.0
            }
        });
        assert!(chunks.len() > 2 && first < 10.0);
        assert!(
            (gated - (10.0 + all - first)).abs() < 1e-9,
            "{gated} {all} {first}"
        );
    }

    #[test]
    fn lane_fold_is_bit_exact() {
        // Each stage's clock advance at w lanes is exactly the slowest
        // lane of the per-chunk seconds, each taken from a one-chunk run
        // at one lane and added in chunk order onto lane k % w.
        let text = sample_text(300);
        let lines: Vec<&str> = crate::reader::records(&text).collect();
        let parse_lines = |lines: &[&str]| {
            let mut records = Records::default();
            records
                .parse(&lines.join("\n"), &WktLineParser, |_| {})
                .unwrap();
            records
        };
        let records = parse_lines(&lines);
        let grid = UniformGrid::new(Rect::new(0.0, 0.0, 30.0, 75.0), GridSpec::square(8));
        let policy = DecompPolicy::Uniform(CellMap::RoundRobin);
        let decomp = Decomposition::new(grid, policy, None, 3).unwrap();
        let opts = |workers: usize| {
            PipelineOptions::default()
                .with_workers(workers)
                .with_parse_chunk_bytes(512)
                .with_partition_chunk_records(17)
        };
        // A fresh rank's clock starts at 0: the clock after a stage is
        // its advance, bit for bit.
        let clock_after = |stage: &(dyn Fn(&mut Comm) + Sync)| {
            World::run(WorldConfig::new(Topology::single_node(1)), |comm| {
                stage(comm);
                comm.now()
            })[0]
        };
        let max_lane = |secs: &[f64], workers: usize| {
            let mut lanes = vec![0.0f64; workers];
            for (k, s) in secs.iter().enumerate() {
                lanes[k % workers] += s;
            }
            lanes.into_iter().fold(0.0f64, f64::max)
        };

        let one = opts(1).with_parse_chunk_bytes(usize::MAX);
        let parse: Vec<f64> = split_record_chunks(&text, 512)
            .into_iter()
            .map(|chunk| {
                clock_after(&|c| {
                    parse_chunked(c, chunk, &WktLineParser, &one).unwrap();
                })
            })
            .collect();
        let (mut map, mut serialize, mut maps) = (Vec::new(), Vec::new(), Vec::new());
        for range in partition_ranges(records.len(), 17) {
            let sub_records = parse_lines(&lines[range.clone()]);
            let sub = Partition::new(&decomp, &sub_records);
            let one = opts(1).with_partition_chunk_records(range.len());
            map.push(clock_after(&|c| {
                sub.map(c, &one);
            }));
            let (cells, _) = sub.map_chunk(0..range.len());
            serialize.push(clock_after(&|c| {
                sub.serialize(c, std::slice::from_ref(&cells), &one)
                    .unwrap();
            }));
            let part = Partition::new(&decomp, &records);
            maps.push(part.map_chunk(range).0);
        }
        assert!(parse.len() > 8 && map.len() > 8, "more chunks than lanes");

        let part = Partition::new(&decomp, &records);
        for workers in [2, 3, 8] {
            let opts = opts(workers);
            let parsed = clock_after(&|c| {
                parse_chunked(c, &text, &WktLineParser, &opts).unwrap();
            });
            assert_eq!(parsed, max_lane(&parse, workers), "parse, w={workers}");
            let mapped = clock_after(&|c| {
                part.map(c, &opts);
            });
            assert_eq!(mapped, max_lane(&map, workers), "map, w={workers}");
            let serialized = clock_after(&|c| {
                part.serialize(c, &maps, &opts).unwrap();
            });
            assert_eq!(
                serialized,
                max_lane(&serialize, workers),
                "serialize, w={workers}"
            );
            assert!(serialized < serialize.iter().sum::<f64>(), "lanes overlap");
        }
    }

    #[test]
    fn parse_errors_surface_the_first_bad_record() {
        let mut text = sample_text(50);
        text.push_str("POLYGON ((broken\n");
        text.push_str(&sample_text(5));
        text.push_str("POINT (also broken\n");
        for workers in [1, 4] {
            let text = text.clone();
            let msg = World::run(WorldConfig::new(Topology::single_node(1)), move |comm| {
                let opts = PipelineOptions::default()
                    .with_workers(workers)
                    .with_parse_chunk_bytes(128);
                parse_chunked(comm, &text, &WktLineParser, &opts)
                    .unwrap_err()
                    .to_string()
            });
            assert!(
                msg[0].contains("POLYGON ((broken"),
                "workers={workers}: must report the first bad record, got {}",
                msg[0]
            );
        }
    }

    #[test]
    fn partition_buffers_are_identical_for_any_worker_count_and_match_sequential() {
        let text = sample_text(240);
        let feats = parse_buffer_serial(&text, &WktLineParser).unwrap();
        let mk_decomp = || {
            let grid = UniformGrid::new(Rect::new(0.0, 0.0, 30.0, 75.0), GridSpec::square(8));
            Decomposition::new(grid, DecompPolicy::Uniform(CellMap::RoundRobin), None, 3).unwrap()
        };
        let run = |workers: usize| {
            let text = text.clone();
            World::run(WorldConfig::new(Topology::single_node(3)), move |comm| {
                let decomp = mk_decomp();
                let opts = PipelineOptions::default()
                    .with_workers(workers)
                    .with_partition_chunk_records(17);
                partition_text(comm, &decomp, &text, &opts)
            })
        };
        let reference = sequential_batch(&mk_decomp(), &feats);
        let base = run(1);
        assert_eq!(
            base[0].0, reference,
            "1-worker output must match sequential"
        );
        for workers in [2, 4, 8] {
            let out = run(workers);
            for rank in 0..3 {
                assert_eq!(out[rank].0, base[rank].0, "workers={workers} rank={rank}");
            }
        }
    }

    #[test]
    fn full_ingest_matches_the_sequential_exchange_path() {
        let text = sample_text(180);
        let fs = SimFs::new(mvio_pfs::FsConfig::lustre_comet());
        fs.create("data.wkt", None).unwrap().append(text.as_bytes());
        let spec = GridSpec::square(6);
        let read = ReadOptions::default().with_block_size(2 << 10);

        let sequential = {
            let fs = Arc::clone(&fs);
            World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
                let text = read_partition_text(comm, &fs, "data.wkt", &read).unwrap();
                let feats = parse_buffer(comm, &text, &WktLineParser).unwrap();
                let cfg = DecompConfig::uniform(spec);
                let envelopes: Vec<Rect> = feats.iter().map(|f| f.geometry.envelope()).collect();
                let decomp = Decomposition::build_global(comm, &[&envelopes], &cfg, false).unwrap();
                let batch = sequential_batch(&decomp, &feats);
                exchange_serialized(comm, batch, ExchangeChunk::Unlimited)
                    .unwrap()
                    .0
            })
        };
        for workers in [1, 2, 4, 8] {
            let fs = Arc::clone(&fs);
            let out = World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
                let opts = PipelineOptions::default()
                    .with_workers(workers)
                    .with_parse_chunk_bytes(512)
                    .with_partition_chunk_records(13);
                let rep = ingest(
                    comm,
                    &fs,
                    "data.wkt",
                    &read,
                    &WktLineParser,
                    &DecompConfig::uniform(spec),
                    &opts,
                )
                .unwrap();
                assert_eq!(rep.exchange.records_sent, rep.stats.pairs);
                rep.owned
            });
            for rank in 0..4 {
                assert_eq!(
                    frames(&out[rank]),
                    frames(&sequential[rank]),
                    "workers={workers} rank={rank}"
                );
            }
        }
    }

    #[test]
    fn ingest_routes_identically_under_every_decomposition_policy() {
        // The *partitioning* differs per policy, but the union of all
        // ranks' owned pairs — and each pair's arrival at its cell's
        // owner — must hold for every decomposition.
        let text = sample_text(120);
        let fs = SimFs::new(mvio_pfs::FsConfig::lustre_comet());
        fs.create("data.wkt", None).unwrap().append(text.as_bytes());
        let read = ReadOptions::default().with_block_size(2 << 10);
        let mut totals = Vec::new();
        for cfg in [
            DecompConfig::uniform(GridSpec::square(6)),
            DecompConfig::hilbert(GridSpec::square(6)),
            DecompConfig::adaptive(GridSpec::square(6), 4),
        ] {
            let fs = Arc::clone(&fs);
            let out = World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
                let rep = ingest(
                    comm,
                    &fs,
                    "data.wkt",
                    &read,
                    &WktLineParser,
                    &cfg,
                    &PipelineOptions::default().with_workers(2),
                )
                .unwrap();
                for frame in rep.owned.frames() {
                    assert_eq!(
                        rep.decomp.cell_to_rank(frame.cell),
                        comm.rank(),
                        "pair misrouted under {cfg:?}"
                    );
                }
                (rep.owned.len() as u64, rep.local_features)
            });
            let pairs: u64 = out.iter().map(|(p, _)| p).sum();
            let feats: u64 = out.iter().map(|(_, f)| f).sum();
            assert_eq!(feats, 120, "{cfg:?}");
            totals.push(pairs);
        }
        // Uniform and Hilbert share cells, so replica counts match
        // exactly; adaptive uses finer cells and replicates at least as
        // much.
        assert_eq!(totals[0], totals[1]);
        assert!(totals[2] >= totals[0]);
    }

    #[test]
    fn overlapped_ingest_is_bit_identical_to_the_blocking_path() {
        let text = sample_text(200);
        let fs = SimFs::new(mvio_pfs::FsConfig::lustre_comet());
        fs.create("data.wkt", None).unwrap().append(text.as_bytes());
        let spec = GridSpec::square(5);
        let read = ReadOptions::default().with_block_size(2 << 10);
        let run = |chunk: ExchangeChunk, workers: usize| {
            let fs = Arc::clone(&fs);
            World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
                let rep = ingest_layers(
                    comm,
                    &fs,
                    &["data.wkt"],
                    &read,
                    &WktLineParser,
                    &DecompConfig::uniform(spec),
                    &PipelineOptions::default()
                        .with_workers(workers)
                        .with_partition_chunk_records(11),
                    chunk,
                )
                .unwrap();
                let layer = rep.layers.into_iter().next().unwrap();
                // The streamed feed folds its lanes itself: every clock
                // move is still booked exactly once.
                let (booked, now) = (comm.ledger().total(), comm.now());
                assert!((booked - now).abs() <= 1e-9 * now, "{booked} vs {now}");
                (layer.owned, layer.exchange.rounds, layer.stats.pairs)
            })
        };
        let blocking = run(ExchangeChunk::Unlimited, 2);
        assert!(blocking.iter().all(|r| r.1 == 1), "unlimited = one round");
        for chunk in [64u64, 700, 1 << 20] {
            for workers in [1usize, 4] {
                let fused = run(ExchangeChunk::Bytes(chunk), workers);
                for rank in 0..4 {
                    assert_eq!(
                        frames(&fused[rank].0),
                        frames(&blocking[rank].0),
                        "chunk={chunk} workers={workers} rank={rank}"
                    );
                    assert_eq!(fused[rank].2, blocking[rank].2, "pair counts");
                }
                if chunk == 64 {
                    assert!(fused[0].1 > 1, "small cap must take multiple rounds");
                }
            }
        }
    }

    #[test]
    fn ingest_persist_reload_is_bit_identical() {
        // The persistence loop: ingest text once, snapshot the
        // partitioned result, re-load it — the records (and their order)
        // must match the live ingest exactly, for every policy.
        let text = sample_text(150);
        let fs = SimFs::new(mvio_pfs::FsConfig::lustre_comet());
        fs.create("data.wkt", None).unwrap().append(text.as_bytes());
        let read = ReadOptions::default().with_block_size(2 << 10);
        for (i, cfg) in [
            DecompConfig::uniform(GridSpec::square(5)),
            DecompConfig::hilbert(GridSpec::square(5)),
            DecompConfig::adaptive(GridSpec::square(5), 2),
        ]
        .into_iter()
        .enumerate()
        {
            let fs = Arc::clone(&fs);
            let snap = format!("snap-{i}.bin");
            let ok = World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
                let rep = ingest(
                    comm,
                    &fs,
                    "data.wkt",
                    &read,
                    &WktLineParser,
                    &cfg,
                    &PipelineOptions::default().with_workers(2),
                )
                .unwrap();
                rep.write_partitioned(
                    comm,
                    &fs,
                    &snap,
                    &crate::snapshot::SnapshotWriteOptions::default(),
                )
                .unwrap();
                let meta = crate::snapshot::read_meta_timed(comm, &fs, &snap).unwrap();
                let (back, _) = crate::snapshot::read_partitioned(
                    comm,
                    &fs,
                    &snap,
                    &meta,
                    &rep.decomp,
                    &crate::snapshot::SnapshotReadOptions::default(),
                )
                .unwrap();
                frames(&back) == frames(&rep.owned)
            });
            assert!(ok.iter().all(|&b| b), "{cfg:?}");
        }
    }

    #[test]
    fn worker_counts_default_to_one_and_clamp() {
        let workers = |n| {
            PipelineOptions::default()
                .with_workers(n)
                .effective_workers()
        };
        assert_eq!(PipelineOptions::default().effective_workers(), 1);
        assert_eq!(workers(3), 3);
        assert_eq!(workers(0), 1);
        // Runaway requests clamp the lane count.
        assert_eq!(workers(1_000_000), MAX_WORKERS);
    }
}
