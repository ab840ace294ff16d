//! The intra-rank streaming ingest pipeline: multi-threaded
//! parse → cell-map → serialize with deterministic merge.
//!
//! The paper's end-to-end win comes from overlapping I/O, parsing and
//! spatial partitioning. The per-rank path elsewhere in this crate
//! (`reader` → `grid` → `exchange`) is strictly sequential: parse *all*
//! records, then map *all* features to cells, then serialize *all*
//! replicas. This module fans both compute stages out to worker threads:
//!
//! 1. the rank's record buffer is split into record-aligned **chunks**
//!    ([`split_record_chunks`]);
//! 2. N workers pull chunks from an MPMC channel and parse them into
//!    per-chunk feature batches ([`parse_chunked`]);
//! 3. a second fan-out maps each parsed batch onto grid cells and
//!    serializes the replicas straight into per-destination wire buffers
//!    ([`partition_chunked`]) — features stream into the exchange format
//!    without an intermediate `Vec<(u32, Feature)>` snapshot;
//! 4. [`crate::exchange::exchange_serialized_with`] ships the buffers with the
//!    usual two-round `Alltoall` + `Alltoallv` protocol — or, under a
//!    finite [`crate::exchange::ExchangeChunk::Bytes`] cap, the partition
//!    and exchange stages fuse into [`partition_exchange_overlapped`] and
//!    stream through the chunked [`crate::exchange::ExchangePlan`], each
//!    round's `ialltoallv` overlapping the next round's serialization.
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
//! worker the parse stage charges exactly what [`crate::reader::parse_buffer`]
//! would (the lane is the sequential sum); the partition stage
//! additionally charges the grid-filter lookup (`Work::RtreeQueries`,
//! the paper's cell-filter mechanism), which a hand-rolled
//! `cells_overlapping` loop would not. Either way the reported speedup
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
//! cells it owns:
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
//!         .iter()
//!         .all(|(cell, _)| ingested.decomp.cell_to_rank(*cell) == comm.rank()));
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
    decode_records, exchange_serialized_with, serialize_record, ExchangeOptions, ExchangePlan,
    ExchangeRound, ExchangeStats, SerializedBatch,
};
use crate::partition::{read_partition_text, ReadOptions};
use crate::reader::{parse_records_into, GeometryParser};
pub use crate::snapshot::{
    read_partitioned, write_partitioned, SnapshotReadOptions, SnapshotWriteOptions,
};
use crate::{Feature, Result};
use crossbeam::channel;
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

impl PipelineStats {
    /// Combines the stats of two stages of the same run.
    fn merge(a: PipelineStats, b: PipelineStats) -> PipelineStats {
        PipelineStats {
            workers: a.workers.max(b.workers),
            parse_chunks: a.parse_chunks + b.parse_chunks,
            partition_chunks: a.partition_chunks + b.partition_chunks,
            records: a.records + b.records,
            record_bytes: a.record_bytes + b.record_bytes,
            pairs: a.pairs + b.pairs,
        }
    }
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
/// [`crate::reader::parse_buffer`] for any worker count; the clock
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

/// Serializes one partition chunk: maps each feature in `range` onto the
/// decomposition's cells and appends every `(cell, feature)` replica to
/// the per-destination `bufs`/`records`, charging the cell lookup
/// (`Work::RtreeQueries`) and the wire serialization
/// (`Work::SerializeGeoms`) to `tally`. The single body behind both the
/// unfused [`partition_chunked`] stage and the fused
/// [`partition_exchange_overlapped`] feed — the byte streams are
/// identical by construction because this *is* the same code. Returns
/// the number of replicas produced. (The work is charged even when a
/// record fails mid-chunk, matching what the serializer executed.)
#[allow(clippy::too_many_arguments)]
fn serialize_partition_chunk<D: SpatialDecomposition + ?Sized>(
    decomp: &D,
    features: &[Feature],
    range: std::ops::Range<usize>,
    tally: &mut WorkTally,
    cells: &mut Vec<u32>,
    scratch: &mut Vec<u8>,
    bufs: &mut [Vec<u8>],
    records: &mut [u64],
) -> (Result<()>, u64) {
    let before: u64 = bufs.iter().map(|b| b.len() as u64).sum();
    let mut pairs = 0u64;
    let mut run = || -> Result<()> {
        for f in &features[range.clone()] {
            decomp.cells_for_rect(&f.geometry.envelope(), cells);
            pairs += cells.len() as u64;
            for &cell in cells.iter() {
                let dst = decomp.cell_to_rank(cell);
                serialize_record(cell, f, scratch, &mut bufs[dst])?;
                records[dst] += 1;
            }
        }
        Ok(())
    };
    let r = run();
    let after: u64 = bufs.iter().map(|b| b.len() as u64).sum();
    tally.charge(Work::RtreeQueries {
        n: range.len() as u64,
        results: pairs,
    });
    tally.charge(Work::SerializeGeoms {
        n: pairs,
        bytes: after - before,
    });
    (r, pairs)
}

/// Parallel partition stage: maps feature chunks onto the decomposition's
/// cells and serializes every `(cell, feature)` replica straight into
/// per-destination wire buffers, merged per destination in chunk order.
/// One cell-id scratch buffer is reused across all features of a chunk.
/// The resulting [`SerializedBatch`] is byte-identical for any worker
/// count and matches what [`crate::exchange::exchange_features`] would
/// serialize from the equivalent pair list.
/// Not collective — local serialization; the communicator only charges
/// the worker lanes.
pub fn partition_chunked<D: SpatialDecomposition + ?Sized>(
    comm: &mut Comm,
    decomp: &D,
    features: &[Feature],
    opts: &PipelineOptions,
) -> Result<(SerializedBatch, PipelineStats)> {
    let workers = opts.effective_workers();
    let p = comm.size();
    debug_assert_eq!(
        decomp.num_ranks(),
        p,
        "decomposition built for a different world size"
    );
    let step = opts.partition_chunk_records.max(1);
    let cost = *comm.cost_model();

    struct ChunkOut {
        bufs: Vec<Vec<u8>>,
        counts: Vec<u64>,
        pairs: u64,
    }

    let ranges = partition_ranges(features.len(), step);

    let (results, lanes) = fan_out(workers, ranges, |range: &std::ops::Range<usize>| {
        let mut tally = WorkTally::new(cost);
        let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); p];
        let mut counts = vec![0u64; p];
        let (r, pairs) = serialize_partition_chunk(
            decomp,
            features,
            range.clone(),
            &mut tally,
            &mut Vec::new(),
            &mut Vec::new(),
            &mut bufs,
            &mut counts,
        );
        let out = r.map(|()| ChunkOut {
            bufs,
            counts,
            pairs,
        });
        (out, tally.seconds())
    });
    let partition_chunks = results.len() as u64;
    // Error of the lowest-index failed chunk — what the sequential scan
    // would have hit first.
    let batches = results.into_iter().collect::<Result<Vec<_>>>()?;
    comm.advance_parallel(&lanes);

    let mut out = SerializedBatch::empty(p);
    let mut stats = PipelineStats {
        workers,
        partition_chunks,
        ..Default::default()
    };
    for dst in 0..p {
        let total: usize = batches.iter().map(|b| b.bufs[dst].len()).sum();
        out.bufs[dst].reserve(total);
    }
    for b in batches {
        stats.pairs += b.pairs;
        for dst in 0..p {
            out.bufs[dst].extend_from_slice(&b.bufs[dst]);
            out.records[dst] += b.counts[dst];
        }
    }
    Ok((out, stats))
}

/// Fused partition + exchange stage with communication/compute overlap:
/// serializes the features' cell replicas chunk by chunk into
/// per-destination wire buffers and ships them through the chunked
/// [`ExchangePlan`], so round `r`'s `ialltoallv` is in flight while the
/// serializer produces round `r+1` (and round `r-1`'s receives
/// deserialize). A round closes once any destination's buffer reaches
/// `chunk_bytes`.
///
/// The serialized byte streams are identical to
/// [`partition_chunked`]'s (same chunk boundaries, same order), and the
/// collected result is reassembled in source-rank order, so the owned
/// pairs are **bit-identical** to the unfused
/// `partition_chunked` → `exchange_serialized_with` path — only the virtual
/// time moves, because serialization lanes (per-chunk [`WorkTally`]
/// totals under the same `chunk % workers` rule) are folded in overlapped
/// with the in-flight rounds. Collective: every rank must call it.
pub fn partition_exchange_overlapped<D: SpatialDecomposition + ?Sized>(
    comm: &mut Comm,
    decomp: &D,
    features: &[Feature],
    opts: &PipelineOptions,
    chunk_bytes: u64,
) -> Result<(Vec<(u32, Feature)>, PipelineStats, ExchangeStats)> {
    let workers = opts.effective_workers();
    let p = comm.size();
    debug_assert_eq!(
        decomp.num_ranks(),
        p,
        "decomposition built for a different world size"
    );
    let step = opts.partition_chunk_records.max(1);
    let cost = *comm.cost_model();
    let chunk_bytes = chunk_bytes.max(1);

    let ranges = partition_ranges(features.len(), step);

    let mut stats = PipelineStats {
        workers,
        ..Default::default()
    };
    let mut next = 0usize;
    let mut cells: Vec<u32> = Vec::new();
    let mut scratch: Vec<u8> = Vec::new();

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
        let mut batch = SerializedBatch::empty(p);
        let mut lanes = vec![0.0f64; workers];
        let mut chunks_in_round = 0usize;
        while next < ranges.len() {
            let mut tally = WorkTally::new(cost);
            let (r, pairs) = serialize_partition_chunk(
                decomp,
                features,
                ranges[next].clone(),
                &mut tally,
                &mut cells,
                &mut scratch,
                &mut batch.bufs,
                &mut batch.records,
            );
            r?;
            lanes[next % workers] += tally.seconds();
            stats.partition_chunks += 1;
            stats.pairs += pairs;
            next += 1;
            chunks_in_round += 1;
            if chunks_in_round >= workers
                && batch.bufs.iter().any(|b| b.len() as u64 >= chunk_bytes)
            {
                break;
            }
        }
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
    let mut collector = crate::exchange::PerSourceCollector::new(p);
    let ex_stats = plan.run(comm, &mut feed, &mut |c, bufs| {
        Ok(collector.collect(decode_records(c, &bufs)?))
    })?;
    let mut owned = Vec::new();
    collector.drain_into(&mut owned);
    Ok((owned, stats, ex_stats))
}

/// Per-rank result of a full pipelined ingest.
#[derive(Debug)]
pub struct IngestOutput {
    /// The collectively built global decomposition.
    pub decomp: Box<dyn SpatialDecomposition>,
    /// The `(cell, feature)` pairs this rank owns after the exchange —
    /// bit-identical to the sequential parse→project→exchange path.
    pub owned: Vec<(u32, Feature)>,
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
    /// ([`crate::snapshot::write_partitioned`]), so later runs can
    /// [`read_partitioned`] it instead of re-ingesting the text.
    /// Collective: every rank must call it.
    pub fn write_partitioned(
        &self,
        comm: &mut Comm,
        fs: &Arc<SimFs>,
        path: &str,
        opts: &SnapshotWriteOptions,
    ) -> Result<crate::snapshot::SnapshotWriteReport> {
        crate::snapshot::write_partitioned(comm, fs, path, &self.owned, &*self.decomp, opts)
    }
}

/// The full streaming per-rank ingest: partitioned read → parallel parse
/// → collective decomposition build (`MPI_UNION` extent allreduce, plus
/// the histogram allreduce for the adaptive policy) → fused
/// cell-map/serialize + staged `Alltoall`/`Alltoallv` exchange, in one
/// blocking round; use [`ingest_with_exchange`] to pick a chunk policy.
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
    ingest_with_exchange(
        comm,
        fs,
        path,
        read,
        parser,
        cfg,
        opts,
        &ExchangeOptions::default(),
    )
}

/// [`ingest`] with an explicit exchange configuration. With an unlimited
/// chunk the partition stage fully serializes on worker threads before a
/// single blocking exchange round (the historic path, bit-identical in
/// data and virtual time); with a finite chunk the partition and
/// exchange stages fuse into [`partition_exchange_overlapped`], whose
/// owned pairs are still bit-identical — only the ingest time shrinks by
/// whatever communication hides under the pipelined serialization.
///
/// Only [`ExchangeOptions::chunk`] applies here: the sliding-window
/// variant ([`ExchangeOptions::windows`]) is a
/// [`crate::exchange::exchange_features`] feature, so `windows > 1` is
/// rejected with [`crate::CoreError::InvalidOptions`] rather than
/// silently ignored.
#[allow(clippy::too_many_arguments)]
/// Collective: every rank must call it — it chains the partitioned
/// read, the decomposition reductions, and the exchange.
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
    if exchange_opts.windows > 1 {
        return Err(crate::CoreError::InvalidOptions(format!(
            "ingest does not support sliding windows (windows = {}); \
             use exchange_features for the windowed exchange",
            exchange_opts.windows
        )));
    }
    let text = read_partition_text(comm, fs, path, read)?;
    let (features, parse_stats) = parse_chunked(comm, &text, parser, opts)?;
    drop(text);
    let decomp = decomp::build_global(comm, &[&features], cfg);
    let local_features = features.len() as u64;
    let (owned, part_stats, exchange) = match exchange_opts.chunk.resolve() {
        Some(chunk_bytes) => {
            partition_exchange_overlapped(comm, &*decomp, &features, opts, chunk_bytes)?
        }
        None => {
            let (batch, part_stats) = partition_chunked(comm, &*decomp, &features, opts)?;
            drop(features);
            let (owned, exchange) = exchange_serialized_with(comm, batch, exchange_opts)?;
            (owned, part_stats, exchange)
        }
    };
    Ok(IngestOutput {
        decomp,
        owned,
        local_features,
        exchange,
        stats: PipelineStats::merge(parse_stats, part_stats),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::UniformDecomposition;
    use crate::exchange::{exchange_features, ExchangeOptions};
    use crate::grid::{CellMap, GridSpec, UniformGrid};
    use crate::reader::{parse_buffer, parse_buffer_serial, WktLineParser};
    use mvio_geom::Rect;
    use mvio_msim::{Topology, World, WorldConfig};

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
        // Sequential reference: serialize replicas feature-major, cells
        // ascending — exactly what exchange_features would emit.
        let reference = {
            let decomp = mk_decomp();
            let mut batch = SerializedBatch::empty(3);
            for f in &feats {
                for cell in decomp.cells_for_rect_vec(&f.geometry.envelope()) {
                    let dst = decomp.cell_to_rank(cell);
                    serialize_record(cell, f, &mut Vec::new(), &mut batch.bufs[dst]).unwrap();
                    batch.records[dst] += 1;
                }
            }
            batch
        };
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
                let feats =
                    crate::partition::read_features(comm, &fs, "data.wkt", &read, &WktLineParser)
                        .unwrap();
                let decomp =
                    crate::decomp::build_global(comm, &[&feats], &DecompConfig::uniform(spec));
                let pairs: Vec<(u32, Feature)> = feats
                    .iter()
                    .flat_map(|f| {
                        decomp
                            .cells_for_rect_vec(&f.geometry.envelope())
                            .into_iter()
                            .map(|c| (c, f.clone()))
                            .collect::<Vec<_>>()
                    })
                    .collect();
                exchange_features(comm, pairs, &*decomp, &ExchangeOptions::default())
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
                assert_eq!(out[rank], sequential[rank], "workers={workers} rank={rank}");
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
                for (cell, _) in &rep.owned {
                    assert_eq!(
                        rep.decomp.cell_to_rank(*cell),
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
        use crate::exchange::{ExchangeChunk, ExchangeOptions};
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
                        fused[rank].0, blocking[rank].0,
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
                let (back, _) = crate::snapshot::read_partitioned(
                    comm,
                    &fs,
                    &snap,
                    &*rep.decomp,
                    &crate::snapshot::SnapshotReadOptions::default(),
                )
                .unwrap();
                back == rep.owned
            });
            assert!(ok.iter().all(|&b| b), "{cfg:?}");
        }
    }

    #[test]
    fn ingest_rejects_sliding_windows() {
        use crate::exchange::ExchangeOptions;
        let fs = SimFs::new(mvio_pfs::FsConfig::lustre_comet());
        fs.create("data.wkt", None)
            .unwrap()
            .append(b"POINT (1 1)\tp\n");
        let out = World::run(WorldConfig::new(Topology::single_node(1)), move |comm| {
            let res = ingest_with_exchange(
                comm,
                &fs,
                "data.wkt",
                &ReadOptions::default(),
                &WktLineParser,
                &DecompConfig::uniform(GridSpec::square(2)),
                &PipelineOptions::default(),
                &ExchangeOptions {
                    windows: 4,
                    ..Default::default()
                },
            );
            matches!(res, Err(crate::CoreError::InvalidOptions(m)) if m.contains("windows"))
        });
        assert!(out[0]);
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
