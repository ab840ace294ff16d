//! The intra-rank streaming ingest pipeline: multi-threaded
//! parse → cell-map → serialize with deterministic merge.
//!
//! The paper's end-to-end win comes from overlapping I/O, parsing and
//! spatial partitioning. This module is the one text front half every
//! text workload runs on ([`ingest_layers`]: ingest, join, range and
//! batch query, index build), and it fans each compute stage out to
//! worker threads:
//!
//! 1. the rank's record buffer is split into record-aligned **chunks**
//!    ([`split_record_chunks`]);
//! 2. N workers pull chunks from an MPMC channel and parse them into
//!    per-chunk feature batches ([`parse_chunked`]);
//! 3. a second fan-out maps each parsed batch onto grid cells, sizing
//!    every replica's record, and a third serializes the replicas
//!    straight into exactly sized per-destination wire buffers
//!    ([`partition_chunked`]) — each feature is encoded once whatever its
//!    replica count, and no `Vec<(u32, Feature)>` snapshot is built;
//! 4. the staged exchange ships the buffers with the usual two-round
//!    `Alltoall` + `Alltoallv` protocol, once per sliding window — or,
//!    under a finite [`crate::exchange::ExchangeChunk::Bytes`] cap, the
//!    partition and exchange stages fuse into
//!    [`partition_exchange_overlapped`] and stream through the chunked
//!    [`crate::exchange::ExchangePlan`], each round's `ialltoallv`
//!    overlapping the next round's serialization;
//! 5. each rank keeps what it receives as the validated wire records it
//!    arrived as ([`IngestOutput::owned`], a
//!    [`crate::exchange::FrameStore`]) — nothing is decoded back into
//!    features, and [`IngestOutput::write_partitioned`] persists those
//!    records byte for byte.
//!
//! # Determinism
//!
//! Output is **bit-identical to the sequential path regardless of worker
//! count**: chunk boundaries depend only on the input and the chunk-size
//! knobs (never on the worker count or OS scheduling), and the merge
//! concatenates per-chunk results in ascending chunk order. The existing
//! test suite therefore doubles as a correctness oracle for the pipeline.
//!
//! Virtual-time accounting is equally deterministic: worker threads
//! cannot touch the rank's [`Comm`] clock, so each chunk's work is
//! charged to a [`WorkTally`] and folded into per-worker *lanes* by the
//! fixed rule `lane = chunk_index % workers`. The rank clock then
//! advances by the **slowest lane** ([`Comm::advance_parallel`]) — the
//! virtual wall-time of a perfectly overlapped parallel region. With one
//! worker the parse stage charges exactly what a record-by-record parse
//! would (the lane is the sequential sum); the cell-map stage charges
//! the grid-filter lookup (`Work::RtreeQueries`, the paper's cell-filter
//! mechanism) and the serialize stage `Work::SerializeGeoms` per
//! replica, each as its own slowest lane. Either way the reported speedup
//! at `w` workers is a property of the partitioned work, not of the
//! host machine.
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
//! use mvio_core::decomp::DecompConfig;
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

use crate::decomp::{self, DecompConfig, SpatialDecomposition};
// The persistence half of the pipeline: `ingest` once, `write_partitioned`
// the result, `read_partitioned` it back on any later run (bit-identically
// under the same world size and decomposition).
use crate::exchange::{
    emit_record, exchange_windows, ExchangeOptions, ExchangePlan, ExchangeRound, ExchangeStats,
    FrameStore, SerializedBatch, RECORD_OVERHEAD,
};
use crate::partition::{read_partition_text, ReadOptions};
use crate::reader::{parse_records_into, GeometryParser};
pub use crate::snapshot::{
    read_partitioned, write_partitioned, SnapshotReadOptions, SnapshotWriteOptions,
};
use crate::{Feature, Result};
use crossbeam::channel;
use mvio_geom::wkb;
use mvio_msim::{Comm, Work, WorkTally};
use mvio_pfs::SimFs;
use std::sync::Arc;

/// Knobs for the streaming ingest pipeline.
#[derive(Debug, Clone, Copy)]
pub struct PipelineOptions {
    /// Worker threads per stage (default 1; clamped to
    /// `1..=`[`MAX_WORKERS`]).
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
    pub fn effective_workers(&self) -> usize {
        self.workers.clamp(1, MAX_WORKERS)
    }
}

/// Upper bound on the worker count. Each rank thread spawns its own
/// workers, so a runaway request must clamp rather than exhaust OS
/// threads inside `thread::scope`.
pub const MAX_WORKERS: usize = 64;

/// Counters describing one pipeline run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Worker threads used.
    pub workers: usize,
    /// Record-aligned text chunks parsed.
    pub parse_chunks: u64,
    /// Feature chunks cell-mapped and serialized.
    pub partition_chunks: u64,
    /// Records parsed.
    pub records: u64,
    /// Record bytes parsed (including delimiters).
    pub record_bytes: u64,
    /// `(cell, feature)` replicas serialized.
    pub pairs: u64,
}

/// Splits `text` into record-aligned chunks of roughly `target_bytes`
/// each: every chunk ends on a record delimiter (or the end of input), so
/// chunks can be parsed independently. Boundaries depend only on the
/// input and the target — never on the worker count — which is what makes
/// the parallel merge bit-identical to the sequential scan.
pub fn split_record_chunks(text: &str, target_bytes: usize) -> Vec<&str> {
    let target = target_bytes.max(1);
    let mut out = Vec::new();
    let mut rest = text;
    while rest.len() > target {
        // First newline at or after the target. Newlines are ASCII, so
        // the byte offset is always a valid char boundary.
        match rest.as_bytes()[target - 1..]
            .iter()
            .position(|&b| b == b'\n')
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

/// Runs `job` over `jobs.len()` indexed work items on `workers` threads
/// fed by an MPMC channel, returning results ordered by job index and the
/// per-lane virtual-second totals (`lane = index % lanes`). The
/// single-worker case runs inline — same code path, no threads.
fn fan_out<J, O>(
    workers: usize,
    jobs: Vec<J>,
    job: impl Fn(&J) -> (O, f64) + Sync,
) -> (Vec<O>, Vec<f64>)
where
    J: Sync,
    O: Send,
{
    let n = jobs.len();
    let lanes_n = workers.min(n).max(1);
    let mut secs_by_idx = vec![0.0f64; n];
    let mut results: Vec<Option<O>> = (0..n).map(|_| None).collect();

    if lanes_n <= 1 {
        for (i, j) in jobs.iter().enumerate() {
            let (out, secs) = job(j);
            secs_by_idx[i] = secs;
            results[i] = Some(out);
        }
    } else {
        std::thread::scope(|s| {
            let (job_tx, job_rx) = channel::unbounded::<(usize, &J)>();
            let (res_tx, res_rx) = channel::unbounded::<(usize, O, f64)>();
            for _ in 0..lanes_n {
                let job_rx = job_rx.clone();
                let res_tx = res_tx.clone();
                let job = &job;
                s.spawn(move || {
                    while let Ok((idx, item)) = job_rx.recv() {
                        let (out, secs) = job(item);
                        if res_tx.send((idx, out, secs)).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(res_tx);
            for pair in jobs.iter().enumerate() {
                // audit: workers hold the receiver until `job_tx` drops below; a failed send means a worker panicked, and propagating that panic is intended.
                job_tx.send(pair).expect("workers alive");
            }
            drop(job_tx);
            for _ in 0..n {
                // audit: a recv error means a worker panicked mid-job; propagating the panic is intended.
                let (idx, out, secs) = res_rx.recv().expect("worker panicked");
                secs_by_idx[idx] = secs;
                results[idx] = Some(out);
            }
        });
    }
    // Deterministic lane accounting: fold per-chunk seconds in ascending
    // chunk order, never completion order — f64 addition is not
    // associative, so summing as results arrive would make the virtual
    // clock depend on OS scheduling at the ULP level.
    let mut lanes = vec![0.0f64; lanes_n];
    for (idx, secs) in secs_by_idx.iter().enumerate() {
        lanes[idx % lanes_n] += secs;
    }
    let results = results
        .into_iter()
        // audit: the collection loop above stored exactly one result per job index.
        .map(|r| r.expect("every job produced a result"))
        .collect();
    (results, lanes)
}

/// Parallel parse stage: splits `text` into record-aligned chunks, parses
/// them on worker threads, and merges the per-chunk feature batches in
/// chunk order. The feature vector is bit-identical to
/// [`crate::reader::parse_buffer_serial`] for any worker count; the clock
/// advances by the slowest deterministic worker lane.
/// Not collective — local parse; the communicator only charges the
/// worker lanes.
pub fn parse_chunked(
    comm: &mut Comm,
    text: &str,
    parser: &dyn GeometryParser,
    opts: &PipelineOptions,
) -> Result<(Vec<Feature>, PipelineStats)> {
    let workers = opts.effective_workers();
    let chunks = split_record_chunks(text, opts.parse_chunk_bytes);
    let cost = *comm.cost_model();

    struct ChunkOut {
        feats: Vec<Feature>,
        records: u64,
        bytes: u64,
    }

    let (results, lanes) = fan_out(workers, chunks, |chunk: &&str| {
        let mut tally = WorkTally::new(cost);
        let mut feats = Vec::new();
        let mut bytes = 0u64;
        let parsed = parse_records_into(
            chunk,
            parser,
            |b, class| {
                bytes += b;
                tally.charge(Work::ParseWkt { bytes: b, class });
            },
            &mut feats,
        );
        let out = parsed.map(|records| ChunkOut {
            feats,
            records,
            bytes,
        });
        (out, tally.seconds())
    });
    let parse_chunks = results.len() as u64;
    // Error of the lowest-index failed chunk — what the sequential scan
    // would have hit first.
    let batches = results.into_iter().collect::<Result<Vec<_>>>()?;
    comm.advance_parallel(&lanes);

    let mut stats = PipelineStats {
        workers,
        parse_chunks,
        ..Default::default()
    };
    let total: usize = batches.iter().map(|b| b.feats.len()).sum();
    let mut features = Vec::with_capacity(total);
    for b in batches {
        stats.records += b.records;
        stats.record_bytes += b.bytes;
        features.extend(b.feats);
    }
    Ok((features, stats))
}

/// Record-range boundaries of the partition stage: depends only on the
/// feature count and the chunk-size knob, never on the worker count.
fn partition_ranges(features: usize, step: usize) -> Vec<std::ops::Range<usize>> {
    (0..features)
        .step_by(step.max(1))
        .map(|lo| lo..(lo + step.max(1)).min(features))
        .collect()
}

/// One partition chunk mapped onto cells: every replica as
/// `(feature index, cell)`, feature-major with cells ascending, and the
/// exact wire bytes the replicas add to each window × destination buffer.
#[derive(Debug, Default)]
pub(crate) struct ChunkCells {
    replicas: Vec<(usize, u32)>,
    sizes: Vec<usize>,
}

/// One layer's features on their way to the exchange: cell-mapped under
/// `decomp` and serialized into one batch per sliding window, each window
/// a contiguous run of `span` cell ids.
pub(crate) struct Partition<'a, D: ?Sized> {
    decomp: &'a D,
    features: &'a [Feature],
    windows: usize,
    span: u32,
}

impl<'a, D: SpatialDecomposition + ?Sized> Partition<'a, D> {
    /// `windows` windows: at least one, and at most one per cell.
    pub(crate) fn new(decomp: &'a D, features: &'a [Feature], windows: u32) -> Self {
        let cells = decomp.num_cells();
        let windows = windows.clamp(1, cells.max(1));
        let span = cells.div_ceil(windows).max(1);
        Partition {
            decomp,
            features,
            windows: windows as usize,
            span,
        }
    }

    /// The buffer `cell`'s replicas go to: window-major, then owner rank
    /// (`cell / span < windows` for every cell).
    fn slot(&self, cell: u32) -> usize {
        (cell / self.span) as usize * self.decomp.num_ranks() + self.decomp.cell_to_rank(cell)
    }

    /// The cell-map step of one chunk: looks up the cells of every feature
    /// in `range` and sizes their records, charging the lookup
    /// (`Work::RtreeQueries`, the paper's cell-filter probe) to `tally`.
    fn map_chunk(&self, range: std::ops::Range<usize>, tally: &mut WorkTally) -> ChunkCells {
        let mut map = ChunkCells {
            sizes: vec![0; self.windows * self.decomp.num_ranks()],
            ..Default::default()
        };
        let mut cells = Vec::new();
        for i in range.clone() {
            let f = &self.features[i];
            self.decomp
                .cells_for_rect(&f.geometry.envelope(), &mut cells);
            let len = RECORD_OVERHEAD + wkb::encoded_len(&f.geometry) + f.userdata.len();
            for &cell in &cells {
                map.sizes[self.slot(cell)] += len;
                map.replicas.push((i, cell));
            }
        }
        tally.charge(Work::RtreeQueries {
            n: range.len() as u64,
            results: map.replicas.len() as u64,
        });
        map
    }

    /// The serialize step of one mapped chunk, the one body behind every
    /// serializing path: encodes each feature once and appends one wire
    /// record per replica to `out` (one batch per window), charging
    /// `Work::SerializeGeoms` per replica to `tally`.
    fn serialize_chunk(
        &self,
        map: &ChunkCells,
        tally: &mut WorkTally,
        scratch: &mut Vec<u8>,
        out: &mut [SerializedBatch],
    ) -> Result<()> {
        let bytes = map.sizes.iter().sum::<usize>() as u64;
        let n = map.replicas.len() as u64;
        tally.charge(Work::SerializeGeoms { n, bytes });
        let (p, mut encoded) = (self.decomp.num_ranks(), usize::MAX);
        for &(i, cell) in &map.replicas {
            let f = &self.features[i];
            if i != encoded {
                wkb::encode_into_scratch(&f.geometry, scratch);
                encoded = i;
            }
            let slot = self.slot(cell);
            let batch = &mut out[slot / p];
            emit_record(cell, scratch, &f.userdata, &mut batch.bufs[slot % p])?;
            batch.records[slot % p] += 1;
        }
        Ok(())
    }

    /// The parallel cell-map stage: maps feature chunks onto cells on
    /// worker threads and advances the clock by the slowest lane.
    /// Not collective — the communicator only charges the worker lanes.
    pub(crate) fn map(&self, comm: &mut Comm, opts: &PipelineOptions) -> Vec<ChunkCells> {
        let cost = *comm.cost_model();
        let ranges = partition_ranges(self.features.len(), opts.partition_chunk_records);
        let (maps, lanes) = fan_out(opts.effective_workers(), ranges, |range| {
            let mut tally = WorkTally::new(cost);
            (self.map_chunk(range.clone(), &mut tally), tally.seconds())
        });
        comm.advance_parallel(&lanes);
        maps
    }

    /// `windows` empty batches whose buffers hold exactly `sizes` bytes.
    fn batches(&self, sizes: &[usize]) -> Vec<SerializedBatch> {
        let mut out = vec![SerializedBatch::empty(self.decomp.num_ranks()); self.windows];
        let bufs = out.iter_mut().flat_map(|b| b.bufs.iter_mut());
        bufs.zip(sizes).for_each(|(buf, &n)| buf.reserve_exact(n));
        out
    }

    /// The parallel serialize stage over [`Partition::map`]'s chunks: one
    /// batch per window, every buffer allocated once at its exact size.
    /// One lane writes straight into the batches; more lanes fill exactly
    /// sized buffers per chunk, appended in chunk order, so the bytes do
    /// not depend on the worker count. Advances the clock by the slowest
    /// lane. Not collective — the communicator only charges the lanes.
    pub(crate) fn serialize(
        &self,
        comm: &mut Comm,
        maps: &[ChunkCells],
        opts: &PipelineOptions,
    ) -> Result<(Vec<SerializedBatch>, PipelineStats)> {
        let (workers, cost) = (opts.effective_workers(), *comm.cost_model());
        let mut total = vec![0; self.windows * self.decomp.num_ranks()];
        for map in maps {
            total.iter_mut().zip(&map.sizes).for_each(|(t, n)| *t += n);
        }
        let mut out = self.batches(&total);
        let lanes = if workers.min(maps.len()) <= 1 {
            let (mut lane, mut scratch) = (0.0f64, Vec::new());
            for map in maps {
                let mut tally = WorkTally::new(cost);
                self.serialize_chunk(map, &mut tally, &mut scratch, &mut out)?;
                lane += tally.seconds();
            }
            vec![lane]
        } else {
            let (parts, lanes) = fan_out(workers, maps.iter().collect(), |map| {
                let (mut tally, mut part) = (WorkTally::new(cost), self.batches(&map.sizes));
                let r = self.serialize_chunk(map, &mut tally, &mut Vec::new(), &mut part);
                (r.map(|()| part), tally.seconds())
            });
            // The lowest failed chunk's error: what a sequential scan hits first.
            for part in parts.into_iter().collect::<Result<Vec<_>>>()? {
                for (batch, piece) in out.iter_mut().zip(part) {
                    for (dst, buf) in piece.bufs.iter().enumerate() {
                        batch.bufs[dst].extend_from_slice(buf);
                        batch.records[dst] += piece.records[dst];
                    }
                }
            }
            lanes
        };
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

/// Parallel partition stage: maps feature chunks onto the decomposition's
/// cells, then serializes every `(cell, feature)` replica into exactly
/// sized per-destination wire buffers — the two steps [`ingest_layers`]
/// splits across its partition and communication phases, each charged as
/// its slowest lane. The [`SerializedBatch`] is byte-identical for any
/// worker count: feature-major, cells ascending.
/// Not collective — the communicator only charges the worker lanes.
pub fn partition_chunked<D: SpatialDecomposition + ?Sized>(
    comm: &mut Comm,
    decomp: &D,
    features: &[Feature],
    opts: &PipelineOptions,
) -> Result<(SerializedBatch, PipelineStats)> {
    let part = Partition::new(decomp, features, 1);
    let maps = part.map(comm, opts);
    let (mut batches, stats) = part.serialize(comm, &maps, opts)?;
    Ok((batches.swap_remove(0), stats))
}

/// Fused partition + exchange stage with communication/compute overlap:
/// cell-maps and serializes the features' replicas chunk by chunk and
/// ships them through the chunked [`ExchangePlan`], so round `r`'s
/// `ialltoallv` is in flight while round `r+1` is serialized (and round
/// `r-1`'s receives are validated). A round closes once any destination's
/// buffer reaches `chunk_bytes`. The received frames are **bit-identical**
/// to the unfused `partition_chunked` → `exchange_serialized` path (same
/// chunks, same order); only the virtual time moves, because the chunks'
/// lanes (the same `chunk % workers` rule) overlap the in-flight rounds.
/// Collective: every rank must call it.
pub fn partition_exchange_overlapped<D: SpatialDecomposition + ?Sized>(
    comm: &mut Comm,
    decomp: &D,
    features: &[Feature],
    opts: &PipelineOptions,
    chunk_bytes: u64,
) -> Result<(FrameStore, PipelineStats, ExchangeStats)> {
    let (workers, p, cost) = (opts.effective_workers(), comm.size(), *comm.cost_model());
    debug_assert_eq!(decomp.num_ranks(), p, "decomposition for another world");
    let chunk_bytes = chunk_bytes.max(1);
    let ranges = partition_ranges(features.len(), opts.partition_chunk_records);
    let mut stats = PipelineStats {
        workers,
        ..Default::default()
    };
    let (mut next, mut scratch) = (0usize, Vec::new());
    let part = Partition::new(decomp, features, 1);

    // Serializes partition chunks into one exchange round until a
    // destination fills up, reporting each chunk's work on its
    // deterministic lane. Runs between the plan's post and wait, so the
    // reported lane seconds overlap the in-flight round. A round always
    // carries at least one chunk per worker lane (when that many remain):
    // closing on the byte cap alone could shrink rounds to a single
    // chunk, serializing on one lane what the unfused stage spreads over
    // all of them.
    let mut feed = |_: &mut Comm| -> Result<Option<ExchangeRound>> {
        if next >= ranges.len() {
            return Ok(None);
        }
        let mut round = [SerializedBatch::empty(p)];
        let mut lanes = vec![0.0f64; workers];
        let mut chunks_in_round = 0usize;
        while next < ranges.len() {
            let mut tally = WorkTally::new(cost);
            let map = part.map_chunk(ranges[next].clone(), &mut tally);
            for (buf, &n) in round[0].bufs.iter_mut().zip(&map.sizes) {
                buf.reserve(n);
            }
            part.serialize_chunk(&map, &mut tally, &mut scratch, &mut round)?;
            lanes[next % workers] += tally.seconds();
            stats.partition_chunks += 1;
            stats.pairs += map.replicas.len() as u64;
            next += 1;
            chunks_in_round += 1;
            if chunks_in_round >= workers
                && round[0].bufs.iter().any(|b| b.len() as u64 >= chunk_bytes)
            {
                break;
            }
        }
        let [batch] = round;
        Ok(Some(ExchangeRound {
            batch,
            lanes,
            more: next < ranges.len(),
        }))
    };

    let plan = ExchangePlan::new(
        comm,
        &ExchangeOptions::with_chunk(crate::exchange::ExchangeChunk::Bytes(chunk_bytes)),
    );
    let mut owned = FrameStore::new(p);
    let ex_stats = plan.run(comm, &mut feed, &mut |c, bufs| owned.append_round(c, bufs))?;
    Ok((owned, stats, ex_stats))
}

/// Per-rank result of a full pipelined ingest.
#[derive(Debug)]
pub struct IngestOutput {
    /// The collectively built global decomposition.
    pub decomp: Box<dyn SpatialDecomposition>,
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
        crate::snapshot::write_partitioned(comm, fs, path, self.owned.frames(), &*self.decomp, opts)
    }
}

/// The full streaming per-rank ingest of one layer: partitioned read →
/// parallel parse → collective decomposition build → parallel cell-map
/// and serialize → staged `Alltoall`/`Alltoallv` exchange, in one
/// blocking round ([`ingest_layers`] with the default exchange); use
/// [`ingest_with_exchange`] to pick a chunk policy or sliding windows.
/// Collective: every rank must call it.
pub fn ingest(
    comm: &mut Comm,
    fs: &Arc<SimFs>,
    path: &str,
    read: &ReadOptions,
    parser: &dyn GeometryParser,
    cfg: &DecompConfig,
    opts: &PipelineOptions,
) -> Result<IngestOutput> {
    let ex = ExchangeOptions::default();
    ingest_with_exchange(comm, fs, path, read, parser, cfg, opts, &ex)
}

/// [`ingest`] with an explicit exchange configuration: [`ingest_layers`]
/// over one layer.
/// Collective: every rank must call it — it chains the partitioned
/// read, the decomposition reductions, and the exchange.
#[allow(clippy::too_many_arguments)]
pub fn ingest_with_exchange(
    comm: &mut Comm,
    fs: &Arc<SimFs>,
    path: &str,
    read: &ReadOptions,
    parser: &dyn GeometryParser,
    cfg: &DecompConfig,
    opts: &PipelineOptions,
    exchange_opts: &ExchangeOptions,
) -> Result<IngestOutput> {
    let ingested = ingest_layers(comm, fs, &[path], read, parser, cfg, opts, exchange_opts)?;
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
    /// Exchange counters (all windows).
    pub exchange: ExchangeStats,
    /// Pipeline counters.
    pub stats: PipelineStats,
}

/// Per-rank result of [`ingest_layers`].
#[derive(Debug)]
pub struct IngestedLayers {
    /// The one decomposition built over every layer.
    pub decomp: Box<dyn SpatialDecomposition>,
    /// The layers, in the order of their paths.
    pub layers: Vec<IngestedLayer>,
    /// This rank's virtual clock when the partition phase (read, parse,
    /// decomposition, cell-map) ended and the communication phase
    /// (serialization, exchange, validation) began.
    pub partition_end: f64,
}

/// The one text front half, which [`ingest`], the join, the range and
/// batch queries and the index build all run on: per layer a partitioned
/// read and a parallel parse; then **one** decomposition over all layers
/// ([`decomp::build_global`]), so joined layers share their cells. The
/// partition phase ends with every layer cell-mapped; the communication
/// phase serializes each layer and exchanges it into one [`FrameStore`],
/// one collective exchange per [`ExchangeOptions::windows`] window. A
/// finite [`ExchangeOptions::chunk`] over one window instead streams
/// cell-map and serialization into the exchange rounds
/// ([`partition_exchange_overlapped`]), both then counting as
/// communication. The frames are bit-identical under every chunk policy,
/// and windows keep every cell's frames in order.
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
    exchange_opts: &ExchangeOptions,
) -> Result<IngestedLayers> {
    let mut parsed = Vec::with_capacity(paths.len());
    for path in paths {
        let text = read_partition_text(comm, fs, path, read)?;
        parsed.push(parse_chunked(comm, &text, parser, opts)?);
    }
    let features: Vec<&[Feature]> = parsed.iter().map(|(f, _)| f.as_slice()).collect();
    let decomp = decomp::build_global(comm, &features, cfg);
    let windows = exchange_opts.windows;
    let streamed = exchange_opts.chunk.resolve().filter(|_| windows <= 1);
    // Cell-map every layer now, unless the exchange rounds stream it.
    let maps: Vec<_> = features
        .iter()
        .filter(|_| streamed.is_none())
        .map(|f| Partition::new(&*decomp, f, windows).map(comm, opts))
        .collect();
    let partition_end = comm.now();

    let mut maps = maps.into_iter();
    let mut layers = Vec::with_capacity(parsed.len());
    for (features, parse_stats) in parsed {
        let local_features = features.len() as u64;
        let (owned, part, exchange) = match streamed {
            Some(chunk) => partition_exchange_overlapped(comm, &*decomp, &features, opts, chunk)?,
            None => {
                let map = maps.next().unwrap_or_default();
                let (batches, part) =
                    Partition::new(&*decomp, &features, windows).serialize(comm, &map, opts)?;
                drop(features);
                let (owned, exchange) = exchange_windows(comm, batches, exchange_opts)?;
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
mod tests {
    use super::*;
    use crate::decomp::UniformDecomposition;
    use crate::exchange::{
        exchange_serialized, serialize_record, ExchangeChunk, ExchangeOptions, RecordFrame,
    };
    use crate::grid::{CellMap, GridSpec, UniformGrid};
    use crate::reader::{parse_buffer, parse_buffer_serial, WktLineParser};
    use mvio_geom::Rect;
    use mvio_msim::{Topology, World, WorldConfig};

    /// A store's records in order, compared byte for byte.
    fn frames(store: &FrameStore) -> Vec<RecordFrame<'_>> {
        store.frames().collect()
    }

    /// The sequential reference serializer: every replica of every
    /// feature, feature-major with cells ascending, one record at a time.
    fn sequential_batch(decomp: &dyn SpatialDecomposition, feats: &[Feature]) -> SerializedBatch {
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
            UniformDecomposition::new(
                UniformGrid::new(Rect::new(0.0, 0.0, 30.0, 75.0), GridSpec::square(8)),
                CellMap::RoundRobin,
                3,
            )
        };
        let run = |workers: usize| {
            let feats = feats.clone();
            World::run(WorldConfig::new(Topology::single_node(3)), move |comm| {
                let decomp = mk_decomp();
                let opts = PipelineOptions::default()
                    .with_workers(workers)
                    .with_partition_chunk_records(17);
                partition_chunked(comm, &decomp, &feats, &opts).unwrap()
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
                let decomp =
                    crate::decomp::build_global(comm, &[&feats], &DecompConfig::uniform(spec));
                let batch = sequential_batch(&*decomp, &feats);
                exchange_serialized(comm, batch, &ExchangeOptions::default())
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
                let rep = ingest_with_exchange(
                    comm,
                    &fs,
                    "data.wkt",
                    &read,
                    &WktLineParser,
                    &DecompConfig::uniform(spec),
                    &PipelineOptions::default()
                        .with_workers(workers)
                        .with_partition_chunk_records(11),
                    &ExchangeOptions::with_chunk(chunk),
                )
                .unwrap();
                (rep.owned, rep.exchange.rounds, rep.stats.pairs, comm.now())
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
                    &*rep.decomp,
                    &crate::snapshot::SnapshotReadOptions::default(),
                )
                .unwrap();
                frames(&back) == frames(&rep.owned)
            });
            assert!(ok.iter().all(|&b| b), "{cfg:?}");
        }
    }

    #[test]
    fn windowed_ingest_matches_single_window_per_cell() {
        // Each window is its own collective exchange appending into the
        // one store, so every cell's frames keep their single-window
        // order — for either chunk policy, and for more windows than
        // cells (clamped to one per cell).
        let text = sample_text(160);
        let fs = SimFs::new(mvio_pfs::FsConfig::lustre_comet());
        fs.create("data.wkt", None).unwrap().append(text.as_bytes());
        let read = ReadOptions::default().with_block_size(2 << 10);
        let run = |windows: u32, chunk: ExchangeChunk| {
            let fs = Arc::clone(&fs);
            World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
                let rep = ingest_with_exchange(
                    comm,
                    &fs,
                    "data.wkt",
                    &read,
                    &WktLineParser,
                    &DecompConfig::uniform(GridSpec::square(5)),
                    &PipelineOptions::default().with_partition_chunk_records(9),
                    &ExchangeOptions { windows, chunk },
                )
                .unwrap();
                (rep.owned, rep.exchange.phases)
            })
        };
        // A store's frames grouped by cell, each cell's in arrival order.
        fn per_cell(store: &FrameStore) -> Vec<RecordFrame<'_>> {
            let mut frames = frames(store);
            frames.sort_by_key(|fr| fr.cell);
            frames
        }
        let single = run(1, ExchangeChunk::Unlimited);
        for windows in [1, 2, 4, 40] {
            for chunk in [ExchangeChunk::Unlimited, ExchangeChunk::Bytes(4096)] {
                let out = run(windows, chunk);
                for rank in 0..4 {
                    assert_eq!(out[rank].1, windows.min(25), "windows={windows}");
                    assert_eq!(
                        per_cell(&out[rank].0),
                        per_cell(&single[rank].0),
                        "windows={windows} {chunk:?} rank={rank}"
                    );
                }
            }
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
        // Runaway requests clamp instead of exhausting OS threads.
        assert_eq!(workers(1_000_000), MAX_WORKERS);
    }
}
