//! Binary spatial snapshots: a compact persisted form of a partitioned
//! dataset, written and re-read with collective two-phase I/O.
//!
//! Every run so far re-ingested WKT text from scratch; the results of the
//! partition/exchange pipeline evaporated at the end of the job. This
//! module closes the loop: [`write_partitioned`] persists each rank's
//! owned `(cell, feature)` records once — copied as the wire frames the
//! exchange delivered, never re-encoded — and [`read_partitioned`]
//! re-loads them as frames again: bit-identically under the same world
//! size and decomposition, or re-routed through the exchange under any
//! other rank count.
//!
//! ## File format (version 1, all fields little-endian)
//!
//! The byte-level normative specification — including the section
//! placement rules and what readers tolerate in files from earlier
//! writers — is `docs/FORMAT.md` §3 in the repository root; the summary
//! below must stay in agreement with it.
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------
//!      0     8  magic  "MVIOSNAP"
//!      8     4  version (= 1)
//!     12     4  sections — writer world size
//!     16     4  cells_x  ┐ effective decomposition grid; with `bounds`
//!     20     4  cells_y  ┘ this identifies the cell-id space
//!     24    32  bounds   (min_x, min_y, max_x, max_y as f64)
//!     56     8  total records
//!     64   24×S section table: (offset u64, len u64, records u64) per
//!               writer rank, ascending non-overlapping offsets
//!      …        payload: per section, that writer rank's records in the
//!               exchange wire format `[u64 cell][u32 wkb_len][wkb]
//!               [u32 ud_len][ud]`; sections sit back to back from the
//!               table's end. Readers take offsets from the table and
//!               skip any gap: earlier writers stripe-padded non-empty
//!               section starts, and such files still read
//! ```
//!
//! The record payload **is** the exchange wire format, so a snapshot
//! section can be split record-aligned and routed through
//! [`crate::exchange::ExchangePlan`] without re-serialization: re-reading
//! under a different rank count costs one routing scan plus the usual
//! staged all-to-all.
//!
//! ## Collective two-phase I/O
//!
//! A write is one two-phase collective write ([`MpiFile::write_at_all`],
//! one fragment per rank): every rank ships its section — rank 0 the
//! header and table in front of its own — to the ROMIO-style aggregators
//! over the nonblocking request layer. The fragments tile the file, so
//! each aggregator flushes its stripe-aligned domain as one contiguous
//! run, whatever the world size (the access pattern the paper
//! recommends). Reads use the inverse scatter
//! ([`MpiFile::read_at_all`]). The aggregator count follows the
//! [`mvio_msim::select_readers`] heuristic, overridable with
//! [`Hints::cb_nodes`].
//!
//! Metadata is read once per file, not once per rank: the header idiom
//! of PnetCDF and parallel HDF5 over MPI-IO. In [`read_meta_timed`]
//! rank 0 reads the header and the section table it announces (two
//! small independent reads, whatever the world size) and broadcasts the
//! bytes — or its typed failure — under the `snapshot.read.meta` label;
//! every rank then validates the identical bytes, so acceptance is
//! symmetric. The decoded [`SnapshotMeta`] is handed to the payload read
//! ([`read_partitioned`] takes it) instead of being fetched again, so a
//! reload's metadata cost does not grow with the world size.

use crate::decomp::{DecompPolicy, Decomposition, SpatialDecomposition};
use crate::exchange::{
    exchange_serialized, record_len_at, serialize_frame, ExchangeChunk, ExchangeStats, FrameStore,
    RecordFrame, SerializedBatch,
};
use crate::grid::{GridSpec, UniformGrid};
use crate::{CoreError, Result};
use mvio_geom::Rect;
use mvio_msim::hints::ROMIO_MAX_IO_BYTES;
use mvio_msim::{Comm, Hints, MpiFile, Work};
use mvio_pfs::{SimFs, StripeSpec};
use std::sync::Arc;

/// Magic bytes opening every snapshot file.
pub const MAGIC: [u8; 8] = *b"MVIOSNAP";

/// Format version this library writes (and the only one it reads).
pub const VERSION: u32 = 1;

/// Fixed header length in bytes (the section table follows it).
pub const HEADER_LEN: u64 = 64;

/// Bytes per section-table entry.
pub const SECTION_ENTRY_LEN: u64 = 24;

/// One writer rank's byte range within a snapshot file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SectionEntry {
    /// Absolute file offset of the section's first record byte.
    pub offset: u64,
    /// Exact payload length in bytes (stripe padding excluded).
    pub len: u64,
    /// Records contained in the section.
    pub records: u64,
}

/// Decoded snapshot header + section table.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotMeta {
    /// Format version found in the file.
    pub version: u32,
    /// Effective decomposition grid resolution the cells refer to.
    pub spec: GridSpec,
    /// Global extent the grid tiles.
    pub bounds: Rect,
    /// Total records across all sections.
    pub total_records: u64,
    /// Per-writer-rank sections, indexed by writer rank.
    pub sections: Vec<SectionEntry>,
}

impl SnapshotMeta {
    /// Total exact payload bytes across all sections.
    pub fn payload_bytes(&self) -> u64 {
        self.sections.iter().map(|s| s.len).sum()
    }

    /// The decomposition a world of `ranks` rebuilds over this snapshot's
    /// grid and bounds under `policy`: [`Decomposition::new`] without a
    /// histogram, which a snapshot does not carry. The adaptive policy is
    /// therefore refused with [`CoreError::InvalidOptions`], and so is a
    /// Hilbert owner table past [`crate::decomp::MAX_TABLE_CELLS`].
    pub fn decomposition(&self, policy: DecompPolicy, ranks: usize) -> Result<Decomposition> {
        let grid = UniformGrid::try_new(self.bounds, self.spec)?;
        Decomposition::new(grid, policy, None, ranks)
    }
}

/// Options for [`write_partitioned`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SnapshotWriteOptions {
    /// Striping for the created file (honoured on Lustre; GPFS always
    /// uses the filesystem default). `None` = the filesystem default.
    pub stripe: Option<StripeSpec>,
    /// MPI-IO hints for the collective write (`cb_nodes` lowers the
    /// aggregator count below the heuristic).
    pub hints: Hints,
}

impl SnapshotWriteOptions {
    /// Sets the stripe spec for the created file.
    pub fn with_stripe(mut self, stripe: StripeSpec) -> Self {
        self.stripe = Some(stripe);
        self
    }

    /// Sets the MPI-IO hints (aggregator count via `cb_nodes`).
    pub fn with_hints(mut self, hints: Hints) -> Self {
        self.hints = hints;
        self
    }
}

/// Options for [`read_partitioned`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SnapshotReadOptions {
    /// MPI-IO hints for the collective read (`cb_nodes` lowers the
    /// aggregator count below the heuristic).
    pub hints: Hints,
    /// Chunk policy of the routing exchange that re-partitions the
    /// records.
    pub chunk: ExchangeChunk,
}

/// Per-rank result of a collective snapshot write.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotWriteReport {
    /// This rank's section in the file.
    pub section: SectionEntry,
    /// Exact payload bytes across all sections (excluding header/table).
    pub bytes_total: u64,
    /// Records across all sections.
    pub records_total: u64,
    /// Virtual seconds the collective write took on this rank (identical
    /// on every rank: two-phase writes exit at the global completion).
    pub write_seconds: f64,
}

/// Per-rank result of a collective snapshot read.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotReadReport {
    /// Half-open range of section indices this rank read and routed.
    pub sections: (usize, usize),
    /// Payload bytes this rank read from the file.
    pub bytes_read: u64,
    /// Records this rank scanned out of its sections (pre-exchange).
    pub records_scanned: u64,
    /// Virtual seconds from entering the collective read to holding the
    /// routed records (includes the routing exchange).
    pub read_seconds: f64,
    /// Counters of the routing exchange.
    pub exchange: ExchangeStats,
}

fn corrupt(msg: impl Into<String>) -> CoreError {
    CoreError::Snapshot(msg.into())
}

fn encode_meta(meta: &SnapshotMeta) -> Vec<u8> {
    let mut out =
        Vec::with_capacity(HEADER_LEN as usize + meta.sections.len() * SECTION_ENTRY_LEN as usize);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&meta.version.to_le_bytes());
    out.extend_from_slice(&(meta.sections.len() as u32).to_le_bytes());
    out.extend_from_slice(&meta.spec.cells_x.to_le_bytes());
    out.extend_from_slice(&meta.spec.cells_y.to_le_bytes());
    for v in [
        meta.bounds.min_x,
        meta.bounds.min_y,
        meta.bounds.max_x,
        meta.bounds.max_y,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&meta.total_records.to_le_bytes());
    debug_assert_eq!(out.len() as u64, HEADER_LEN);
    for s in &meta.sections {
        out.extend_from_slice(&s.offset.to_le_bytes());
        out.extend_from_slice(&s.len.to_le_bytes());
        out.extend_from_slice(&s.records.to_le_bytes());
    }
    out
}

fn u32_at(buf: &[u8], at: usize) -> u32 {
    // audit: the range is exactly 4 bytes by construction.
    u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"))
}

fn u64_at(buf: &[u8], at: usize) -> u64 {
    // audit: the range is exactly 8 bytes by construction.
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"))
}

fn f64_at(buf: &[u8], at: usize) -> f64 {
    // audit: the range is exactly 8 bytes by construction.
    f64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"))
}

/// Decodes and validates a header + section table against the file's
/// actual length. Every rejection is a typed [`CoreError::Snapshot`].
fn decode_meta(bytes: &[u8], file_len: u64) -> Result<SnapshotMeta> {
    if bytes.len() < HEADER_LEN as usize {
        return Err(corrupt(format!(
            "truncated header: {} bytes, need {HEADER_LEN}",
            bytes.len()
        )));
    }
    if bytes[..8] != MAGIC {
        return Err(corrupt(format!(
            "bad magic {:?} (not a snapshot file)",
            &bytes[..8]
        )));
    }
    let version = u32_at(bytes, 8);
    if version != VERSION {
        return Err(corrupt(format!(
            "unsupported version {version} (this build reads {VERSION})"
        )));
    }
    // audit: u32 -> usize is lossless on every supported target.
    let sections = u32_at(bytes, 12) as usize;
    let spec = GridSpec {
        cells_x: u32_at(bytes, 16),
        cells_y: u32_at(bytes, 20),
    };
    if spec.try_num_cells().is_none() {
        return Err(corrupt(format!(
            "invalid grid {}x{} (zero or overflowing cell count)",
            spec.cells_x, spec.cells_y
        )));
    }
    let bounds = Rect::new(
        f64_at(bytes, 24),
        f64_at(bytes, 32),
        f64_at(bytes, 40),
        f64_at(bytes, 48),
    );
    if !(bounds.min_x.is_finite()
        && bounds.min_y.is_finite()
        && bounds.max_x.is_finite()
        && bounds.max_y.is_finite())
    {
        return Err(corrupt("non-finite bounds"));
    }
    let total_records = u64_at(bytes, 56);
    let table_end = HEADER_LEN as usize + sections * SECTION_ENTRY_LEN as usize;
    if bytes.len() < table_end {
        return Err(corrupt(format!(
            "truncated section table: {} bytes, need {table_end} for {sections} sections",
            bytes.len()
        )));
    }
    let mut out = Vec::with_capacity(sections);
    let mut prev_end = table_end as u64;
    let mut records = 0u64;
    for i in 0..sections {
        let at = HEADER_LEN as usize + i * SECTION_ENTRY_LEN as usize;
        let s = SectionEntry {
            offset: u64_at(bytes, at),
            len: u64_at(bytes, at + 8),
            records: u64_at(bytes, at + 16),
        };
        if s.offset < prev_end {
            return Err(corrupt(format!(
                "section {i} at offset {} overlaps the bytes before it (end {prev_end})",
                s.offset
            )));
        }
        let Some(end) = s.offset.checked_add(s.len) else {
            return Err(corrupt(format!("section {i} length overflows")));
        };
        // Empty sections carry no bytes, so their offset is allowed to
        // sit at (or, in files from older writers that stripe-aligned
        // empty sections, past) the end of the file.
        if s.len > 0 && end > file_len {
            return Err(corrupt(format!(
                "section {i} ends at {end} beyond the file length {file_len}"
            )));
        }
        prev_end = end;
        records = records
            .checked_add(s.records)
            .ok_or_else(|| corrupt("section record counts overflow"))?;
        out.push(s);
    }
    if records != total_records {
        return Err(corrupt(format!(
            "section table counts {records} records but the header claims {total_records}"
        )));
    }
    Ok(SnapshotMeta {
        version,
        spec,
        bounds,
        total_records,
        sections: out,
    })
}

/// Reads the header, then the section table it announces, through a
/// positioned reader (`read(offset, buf) -> bytes read`), and returns
/// the bytes undecoded — short when the file is, for [`decode_meta`] to
/// reject. The table allocation is bounded by the file's actual length
/// *before* the header's section count is trusted, so a corrupt count
/// becomes a typed error instead of a multi-gigabyte allocation. The
/// fetch behind [`read_meta_timed`]'s root (timed `read_at`).
fn fetch_meta(
    file_len: u64,
    mut read: impl FnMut(u64, &mut [u8]) -> Result<usize>,
) -> Result<Vec<u8>> {
    let mut head = vec![0u8; HEADER_LEN as usize];
    let n = read(0, &mut head)?;
    head.truncate(n);
    if n == HEADER_LEN as usize {
        let sections = u32_at(&head, 12) as u64;
        let table = sections.saturating_mul(SECTION_ENTRY_LEN);
        if HEADER_LEN + table > file_len {
            return Err(corrupt(format!(
                "section table for {sections} sections extends past the file length {file_len}"
            )));
        }
        // audit: `HEADER_LEN + table` was just checked against the file length.
        head.resize((HEADER_LEN + table) as usize, 0);
        let got = read(HEADER_LEN, &mut head[HEADER_LEN as usize..])?;
        head.truncate(HEADER_LEN as usize + got);
    }
    Ok(head)
}

/// Reads and validates a snapshot's header + section table as one
/// collective, timed metadata read. Rank 0 reads the header and the
/// section table through the independent [`MpiFile::read_at`] — two
/// small reads, whatever the world size — and
/// broadcasts the bytes with the file length (`snapshot.read.meta`);
/// every rank then validates the identical bytes, so acceptance is
/// symmetric and nobody enters a later collective unless everybody does.
/// The read and the broadcast are charged to the callers' clocks, so a
/// pipeline's phase accounting includes the header I/O (e.g. the
/// snapshot spatial join's partitioning phase).
/// Collective: every rank must call it.
///
/// # Errors
///
/// A failed fetch on rank 0 is broadcast in place of the bytes: rank 0
/// returns the original error (the open's or a read's
/// [`CoreError::Msim`], or [`CoreError::Snapshot`] for a table that
/// would extend past the file), its peers a [`CoreError::Snapshot`]
/// naming it. Bytes that fail validation give every rank the same
/// [`CoreError::Snapshot`].
pub fn read_meta_timed(comm: &mut Comm, fs: &Arc<SimFs>, path: &str) -> Result<SnapshotMeta> {
    let fetched = (comm.rank() == 0).then(|| -> Result<(u64, Vec<u8>)> {
        let file = MpiFile::open(fs, path, Hints::default())?;
        let bytes = fetch_meta(file.len(), |off, buf| Ok(file.read_at(comm, off, buf)?))?;
        Ok((file.len(), bytes))
    });
    // The word rank 0 broadcasts: `[0][file length u64][header + table]`
    // or `[1][its error message]`.
    let word = match &fetched {
        None => Vec::new(),
        Some(Ok((len, bytes))) => [&[0u8][..], &len.to_le_bytes(), bytes].concat(),
        Some(Err(e)) => [&[1u8][..], e.to_string().as_bytes()].concat(),
    };
    let word = comm.labeled("snapshot.read.meta", |c| c.bcast(0, word));
    if let Some(Err(e)) = fetched {
        return Err(e); // rank 0 keeps the original error
    }
    match word.split_first() {
        Some((0, rest)) if rest.len() >= 8 => decode_meta(&rest[8..], u64_at(rest, 0)),
        _ => Err(corrupt(format!(
            "metadata read on rank 0 failed: {}",
            String::from_utf8_lossy(word.get(1..).unwrap_or_default())
        ))),
    }
}

/// Collectively persists each rank's owned records as a binary snapshot
/// at `path`, creating the file. `frames` are validated wire records —
/// a [`FrameStore`], a [`crate::resident::ResidentStore::frames`], or a
/// buffer [`crate::exchange::validate_frames`] accepted — and are copied
/// into the section as they are ([`serialize_frame`], charged
/// [`Work::CopyBytes`]); nothing is re-encoded. The records of rank `r`
/// become section `r`, in input order, so a later [`read_partitioned`]
/// under the same world size and decomposition returns exactly the input
/// (byte-identical frames, same order), and any other rank count
/// re-routes the records through the exchange. Collective: every rank
/// must call it.
///
/// The whole file is one two-phase collective write
/// ([`MpiFile::write_at_all`]): the sections sit back to back after the
/// section table, and rank 0's fragment carries the header and the table
/// in front of its section, so the fragments tile the file without a gap
/// and each aggregator flushes its domain as one contiguous run.
///
/// # Errors
///
/// [`CoreError::Pfs`] when the path already exists. A copy failure on
/// any rank (a record exceeding the u32 wire limit) aborts the write on
/// **every** rank before any byte reaches the file — the created path is
/// removed, the failing rank returns the original
/// [`CoreError::Partition`] and its peers a [`CoreError::Snapshot`] —
/// rather than persisting a metadata-consistent snapshot silently
/// missing that rank's records; so does a fragment over the per-call
/// collective I/O limit. Every outcome is agreed collectively, so a
/// failing rank never strands its peers mid-protocol.
pub fn write_partitioned<'a>(
    comm: &mut Comm,
    fs: &Arc<SimFs>,
    path: &str,
    frames: impl IntoIterator<Item = RecordFrame<'a>>,
    decomp: &Decomposition,
    opts: &SnapshotWriteOptions,
) -> Result<SnapshotWriteReport> {
    let p = comm.size();
    debug_assert_eq!(
        decomp.num_ranks(),
        p,
        "decomposition built for a different world size"
    );

    // Copy my section (the exchange wire format) into my fragment; rank
    // 0's opens with room for the header and table, filled in below. A
    // failure parks the error and continues with an empty section: the
    // collectives below must stay matched across ranks.
    let table_end = HEADER_LEN + SECTION_ENTRY_LEN * p as u64;
    // audit: the table is 24 bytes per rank of a world that exists.
    let head = (if comm.rank() == 0 { table_end } else { 0 }) as usize;
    let mut deferred: Option<CoreError> = None;
    let mut buf = vec![0u8; head];
    let mut my_records = 0u64;
    for frame in frames {
        if let Err(e) = serialize_frame(&frame, &mut buf) {
            deferred = Some(e);
            buf.truncate(head);
            my_records = 0;
            break;
        }
        my_records += 1;
    }
    let my_len = (buf.len() - head) as u64;
    comm.charge(Work::CopyBytes { n: my_len });

    // Rank 0 creates the file. One allgather then tells every rank whether
    // the create failed, every section length, and whether any rank failed
    // to serialize, so all agree on whether to proceed (peers must not
    // sail into the collectives alone past a failed create) and lay the
    // file out identically: header + table, then the sections back to back.
    let create_err = (comm.rank() == 0)
        .then(|| fs.create(path, opts.stripe).err())
        .flatten();
    let mut word = [my_len, my_records].map(u64::to_le_bytes).concat();
    word.push(u8::from(deferred.is_some()));
    if let Some(e) = &create_err {
        word.push(match e {
            mvio_pfs::PfsError::AlreadyExists(_) => 1,
            mvio_pfs::PfsError::BadStripe(_) => 2,
            _ => 3,
        });
        word.extend(e.to_string().as_bytes());
    }
    let gathered = comm.labeled("snapshot.write.sections", |c| c.allgather(word));
    if let Some(e) = create_err {
        return Err(e.into()); // rank 0 keeps the original error
    }
    if let Some((&code, msg)) = gathered[0][17..].split_first() {
        let msg = String::from_utf8_lossy(msg).into_owned();
        return Err(match code {
            1 => mvio_pfs::PfsError::AlreadyExists(path.to_string()).into(),
            2 => mvio_pfs::PfsError::BadStripe(msg).into(),
            _ => corrupt(format!("create on rank 0 failed: {msg}")),
        });
    }
    let lens: Vec<(u64, u64)> = (gathered.iter())
        .map(|w| (u64_at(w, 0), u64_at(w, 8)))
        .collect();
    // A serialization failure anywhere, or a fragment over the per-call
    // collective I/O limit (rank 0's carries the header and table too),
    // aborts the write *before* any byte reaches the file: a
    // metadata-consistent snapshot silently missing one rank's records
    // would be far worse than failing, and an oversized rank failing
    // `check_count` inside `write_at_all` alone would strand its peers in
    // the collective. Every rank sees the same words, so the branch — and
    // the file removal on rank 0 — is symmetric.
    let fragment_len = |r: usize| lens[r].0 + if r == 0 { table_end } else { 0 };
    let abort = match gathered.iter().position(|w| w[16] != 0) {
        Some(bad) => Some(deferred.unwrap_or_else(|| {
            corrupt(format!(
                "write aborted: rank {bad} failed to serialize its section"
            ))
        })),
        None => (0..p)
            .find(|&r| fragment_len(r) > ROMIO_MAX_IO_BYTES)
            .map(|bad| {
                corrupt(format!(
                    "write aborted: rank {bad}'s fragment is {} bytes, over the \
                 {ROMIO_MAX_IO_BYTES}-byte collective I/O limit",
                    fragment_len(bad)
                ))
            }),
    };
    if let Some(e) = abort {
        if comm.rank() == 0 {
            let _ = fs.remove(path);
        }
        return Err(e);
    }
    let mut sections = Vec::with_capacity(p);
    let mut at = table_end;
    let mut total_records = 0u64;
    for &(len, records) in &lens {
        sections.push(SectionEntry {
            offset: at,
            len,
            records,
        });
        at += len;
        total_records += records;
    }
    let meta = SnapshotMeta {
        version: VERSION,
        spec: decomp.grid_spec(),
        bounds: decomp.bounds(),
        total_records,
        sections,
    };

    // One collective write of the whole file: the fragments tile it from
    // byte 0, rank 0's header + table first.
    if comm.rank() == 0 {
        buf[..head].copy_from_slice(&encode_meta(&meta));
    }
    let my_section = meta.sections[comm.rank()];
    let file = MpiFile::open(fs, path, opts.hints)?;
    let t0 = comm.now();
    comm.labeled("snapshot.write.payload", |c| {
        file.write_at_all(c, my_section.offset - head as u64, &buf)
    })?;
    Ok(SnapshotWriteReport {
        section: my_section,
        bytes_total: meta.payload_bytes(),
        records_total: total_records,
        write_seconds: comm.now() - t0,
    })
}

/// The contiguous range of section indices rank `rank` of `p` loads:
/// section `r` exactly when the reader world matches the writer world
/// (the bit-identical fast path), an even contiguous split otherwise.
fn reader_sections(sections: usize, rank: usize, p: usize) -> (usize, usize) {
    if sections == p {
        (rank, rank + 1)
    } else {
        (rank * sections / p, (rank + 1) * sections / p)
    }
}

/// Smallest byte range covering every non-empty section in `slice`
/// (`(0, 0)` when all are empty or the slice is).
fn covering_range(slice: &[SectionEntry]) -> (u64, u64) {
    let (lo, hi) = slice
        .iter()
        .filter(|s| s.len > 0)
        .fold((u64::MAX, 0u64), |(lo, hi), s| {
            (lo.min(s.offset), hi.max(s.offset + s.len))
        });
    if hi == 0 {
        (0, 0)
    } else {
        (lo, hi)
    }
}

/// Collectively loads a snapshot written by [`write_partitioned`] over
/// metadata the caller already holds — `meta` is what [`read_meta_timed`]
/// returned for `path` on this rank, and no metadata is read again —
/// routing every record to the rank owning its cell under `decomp`.
/// Validates that `decomp` tiles the same cell-id space the file was
/// written under (same grid resolution and bounds), reads the payload
/// with the two-phase collective read (`snapshot.read.payload`), and
/// routes it through the `snapshot.read.route` exchange. The routed
/// records arrive as a [`FrameStore`] of validated wire buffers. With
/// the writer's world size and decomposition the result is
/// **bit-identical** to what was written — same records, same order,
/// zero bytes exchanged; any other rank count re-routes through the
/// staged exchange. The report's `read_seconds` covers the payload read
/// and the routing exchange. Collective: every rank must call it.
pub fn read_partitioned(
    comm: &mut Comm,
    fs: &Arc<SimFs>,
    path: &str,
    meta: &SnapshotMeta,
    decomp: &Decomposition,
    opts: &SnapshotReadOptions,
) -> Result<(FrameStore, SnapshotReadReport)> {
    let p = comm.size();
    debug_assert_eq!(
        decomp.num_ranks(),
        p,
        "decomposition built for a different world size"
    );
    let t0 = comm.now();
    let file = MpiFile::open(fs, path, opts.hints)?;

    // Every rank holds the same decoded metadata (one collective read),
    // so every rejection below is symmetric and nobody enters the
    // collectives that follow unless everybody does.
    if meta.spec != decomp.grid_spec() || meta.bounds != decomp.bounds() {
        return Err(corrupt(format!(
            "decomposition mismatch: file has grid {}x{} over {:?}, the supplied \
             decomposition tiles {}x{} over {:?}",
            meta.spec.cells_x,
            meta.spec.cells_y,
            meta.bounds,
            decomp.grid_spec().cells_x,
            decomp.grid_spec().cells_y,
            decomp.bounds(),
        )));
    }
    let num_cells = decomp.num_cells();

    // Symmetric pre-check of the per-call collective I/O limit: every
    // rank decoded the same table, so every rank can bound every rank's
    // covering range and reject an oversized one together — one rank
    // failing `check_count` inside the two-phase read alone would strand
    // its peers in the collective.
    for r in 0..p {
        let (lo, hi) = reader_sections(meta.sections.len(), r, p);
        let (range_lo, range_hi) = covering_range(&meta.sections[lo..hi]);
        let span = range_hi - range_lo;
        if span > ROMIO_MAX_IO_BYTES {
            return Err(corrupt(format!(
                "rank {r}'s covering read range is {span} bytes, over the \
                 {ROMIO_MAX_IO_BYTES}-byte collective I/O limit"
            )));
        }
    }

    // Collective read of my sections' covering byte range (padding gaps
    // between sections ride along; the table slices them back out).
    let (s_lo, s_hi) = reader_sections(meta.sections.len(), comm.rank(), p);
    let mine = &meta.sections[s_lo..s_hi];
    let (range_lo, range_hi) = covering_range(mine);
    // audit: the span was pre-checked against the 2 GiB collective I/O limit above.
    let mut payload = vec![0u8; (range_hi - range_lo) as usize];
    let got = comm.labeled("snapshot.read.payload", |c| {
        file.read_at_all(c, range_lo, &mut payload)
    })?;

    // Route: walk each section's records, steering the raw wire bytes to
    // their owner rank under `decomp`. A routing error is parked (with an
    // emptied batch) so the routing exchange below stays matched across
    // ranks; the failing rank ships nothing.
    let mut deferred: Option<CoreError> = None;
    let mut batch = SerializedBatch::empty(p);
    let mut bytes_read = 0u64;
    let mut records_scanned = 0u64;
    let mut route = |batch: &mut SerializedBatch| -> Result<()> {
        if got < payload.len() {
            return Err(corrupt(format!(
                "payload short read: got {got} of {} bytes",
                payload.len()
            )));
        }
        for (i, s) in mine.iter().enumerate() {
            if s.len == 0 {
                if s.records != 0 {
                    return Err(corrupt(format!(
                        "section {} is empty but the table claims {} records",
                        s_lo + i,
                        s.records
                    )));
                }
                continue;
            }
            // audit: `s.offset` lies inside the covering range by construction.
            let at = (s.offset - range_lo) as usize;
            // audit: section offsets/lengths were validated against the file length, and the covering span is under the 2 GiB collective I/O pre-check.
            let section = &payload[at..at + s.len as usize];
            let mut pos = 0usize;
            let mut records = 0u64;
            while pos < section.len() {
                let len = record_len_at(section, pos)
                    .map_err(|_| corrupt(format!("torn record in section {}", s_lo + i)))?;
                // Range-check the full u64 word before narrowing: a
                // corrupted high word must not alias a valid cell id.
                let cell = u64_at(section, pos);
                if cell >= num_cells as u64 {
                    return Err(corrupt(format!(
                        "record cell {cell} out of range (decomposition has {num_cells} cells)"
                    )));
                }
                // audit: range-checked against `num_cells` just above.
                let dst = decomp.cell_to_rank(cell as u32);
                batch.bufs[dst].extend_from_slice(&section[pos..pos + len]);
                batch.records[dst] += 1;
                pos += len;
                records += 1;
            }
            if records != s.records {
                return Err(corrupt(format!(
                    "section {} holds {records} records, table says {}",
                    s_lo + i,
                    s.records
                )));
            }
            bytes_read += s.len;
            records_scanned += records;
        }
        Ok(())
    };
    if let Err(e) = route(&mut batch) {
        deferred = Some(e);
        batch = SerializedBatch::empty(p);
    }
    comm.charge(Work::CopyBytes { n: bytes_read });
    drop(payload); // routed into `batch`; don't hold both through the exchange

    // The routing exchange. Under the writer's world size and matching
    // decomposition every record routes back to its own rank, so this
    // degenerates to a local pass-through (zero cross-rank bytes) and
    // the output order is exactly the written order.
    let (routed, exchange) = match comm.labeled("snapshot.read.route", |c| {
        exchange_serialized(c, batch, opts.chunk)
    }) {
        Ok(out) => out,
        Err(e) => return Err(deferred.unwrap_or(e)),
    };
    if let Some(e) = deferred {
        return Err(e);
    }
    Ok((
        routed,
        SnapshotReadReport {
            sections: (s_lo, s_hi),
            bytes_read,
            records_scanned,
            read_seconds: comm.now() - t0,
            exchange,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::{record_frames, serialize_record, validate_frames};
    use crate::grid::{CellMap, UniformGrid};
    use crate::Feature;
    use mvio_geom::Point;
    use mvio_msim::{Topology, World, WorldConfig};
    use mvio_pfs::FsConfig;

    /// [`write_partitioned`] of owned pairs, encoded into one validated
    /// wire buffer first.
    fn write(
        comm: &mut Comm,
        fs: &Arc<SimFs>,
        path: &str,
        pairs: &[(u32, Feature)],
        decomp: &Decomposition,
        opts: &SnapshotWriteOptions,
    ) -> Result<SnapshotWriteReport> {
        let mut buf = Vec::new();
        for (cell, f) in pairs {
            serialize_record(*cell, f, &mut Vec::new(), &mut buf).unwrap();
        }
        validate_frames(&buf).unwrap();
        write_partitioned(comm, fs, path, record_frames(&buf), decomp, opts)
    }

    /// A whole reload — the collective metadata read, then
    /// [`read_partitioned`] — with what arrived decoded.
    fn reload(
        comm: &mut Comm,
        fs: &Arc<SimFs>,
        path: &str,
        decomp: &Decomposition,
        opts: &SnapshotReadOptions,
    ) -> Result<(Vec<(u32, Feature)>, SnapshotReadReport)> {
        let meta = read_meta_timed(comm, fs, path)?;
        let (store, report) = read_partitioned(comm, fs, path, &meta, decomp, opts)?;
        let pairs = store.frames().map(|fr| (fr.cell, fr.to_feature().unwrap()));
        Ok((pairs.collect(), report))
    }

    /// The snapshot's metadata, read by a one-rank world.
    fn read_meta(fs: &Arc<SimFs>, path: &str) -> Result<SnapshotMeta> {
        let one = WorldConfig::new(Topology::single_node(1));
        let mut out = World::run(one, |comm| read_meta_timed(comm, fs, path));
        out.remove(0)
    }

    fn decomp(cells: u32, ranks: usize) -> Decomposition {
        let grid = UniformGrid::new(
            Rect::new(0.0, 0.0, cells as f64, 1.0),
            GridSpec {
                cells_x: cells,
                cells_y: 1,
            },
        );
        Decomposition::new(
            grid,
            DecompPolicy::Uniform(CellMap::RoundRobin),
            None,
            ranks,
        )
        .unwrap()
    }

    fn pairs_for(rank: usize, ranks: usize, cells: u32, per_cell: usize) -> Vec<(u32, Feature)> {
        // Only pairs this rank owns (what an exchange would have left).
        (0..cells)
            .filter(|c| (*c as usize) % ranks == rank)
            .flat_map(|c| {
                (0..per_cell).map(move |i| {
                    (
                        c,
                        Feature::with_userdata(
                            mvio_geom::Geometry::Point(Point::new(c as f64 + 0.5, 0.5)),
                            format!("c{c}i{i}"),
                        ),
                    )
                })
            })
            .collect()
    }

    #[test]
    fn same_world_round_trip_is_bit_identical_with_no_exchange_traffic() {
        let fs = SimFs::new(FsConfig::lustre_comet());
        let out = World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
            let d = decomp(10, comm.size());
            let pairs = pairs_for(comm.rank(), comm.size(), 10, 3);
            let rep = write(
                comm,
                &fs,
                "snap.bin",
                &pairs,
                &d,
                &SnapshotWriteOptions::default(),
            )
            .unwrap();
            assert_eq!(rep.section.records, pairs.len() as u64);
            assert!(rep.write_seconds > 0.0);
            let (back, r) =
                reload(comm, &fs, "snap.bin", &d, &SnapshotReadOptions::default()).unwrap();
            assert_eq!(back, pairs, "rank {}", comm.rank());
            // Same world: every record routes back to its own rank.
            assert_eq!(r.exchange.records_received, pairs.len() as u64);
            assert_eq!(r.exchange.records_sent, pairs.len() as u64);
            assert_eq!(r.records_scanned, pairs.len() as u64);
            r.read_seconds
        });
        assert!(out.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn empty_trailing_rank_round_trips() {
        // Regression: an empty trailing section used to be stripe-aligned
        // past the last written byte, and the re-read rejected the file
        // as "section ends beyond the file length".
        let fs = SimFs::new(FsConfig::lustre_comet());
        {
            let fs = Arc::clone(&fs);
            World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
                let d = decomp(4, comm.size());
                // Clustered input: every record lives on rank 0, rank 1
                // owns nothing and writes a zero-length section.
                let pairs = if comm.rank() == 0 {
                    pairs_for(0, comm.size(), 4, 3)
                } else {
                    Vec::new()
                };
                let rep = write(
                    comm,
                    &fs,
                    "skew.bin",
                    &pairs,
                    &d,
                    &SnapshotWriteOptions::default(),
                )
                .unwrap();
                assert_eq!(rep.section.records, pairs.len() as u64);
                let (back, _) =
                    reload(comm, &fs, "skew.bin", &d, &SnapshotReadOptions::default()).unwrap();
                assert_eq!(back, pairs, "rank {}", comm.rank());
            });
        }
        let meta = read_meta(&fs, "skew.bin").unwrap();
        assert_eq!(meta.sections[1].len, 0);
        assert_eq!(meta.sections[1].records, 0);
        let file = fs.open("skew.bin").unwrap();
        assert!(
            meta.sections[1].offset <= file.len(),
            "empty section at {} points past the file end {}",
            meta.sections[1].offset,
            file.len()
        );
    }

    #[test]
    fn all_empty_snapshot_round_trips() {
        // Zero records anywhere: the file is just a header + table, and
        // both the meta read and the collective re-read must accept it.
        let fs = SimFs::new(FsConfig::lustre_comet());
        {
            let fs = Arc::clone(&fs);
            World::run(WorldConfig::new(Topology::single_node(3)), move |comm| {
                let d = decomp(6, comm.size());
                let rep = write(
                    comm,
                    &fs,
                    "empty.bin",
                    &[],
                    &d,
                    &SnapshotWriteOptions::default(),
                )
                .unwrap();
                assert_eq!(rep.records_total, 0);
                assert_eq!(rep.bytes_total, 0);
                let (back, r) =
                    reload(comm, &fs, "empty.bin", &d, &SnapshotReadOptions::default()).unwrap();
                assert!(back.is_empty());
                assert_eq!(r.records_scanned, 0);
            });
        }
        let meta = read_meta(&fs, "empty.bin").unwrap();
        assert_eq!(meta.total_records, 0);
        assert!(meta.sections.iter().all(|s| s.len == 0));
    }

    #[test]
    fn legacy_aligned_empty_trailing_section_is_still_readable() {
        // Files from the old writer stripe-aligned empty sections too, so
        // a trailing empty section's offset can sit past EOF. The reader
        // exempts zero-length sections from the bounds check rather than
        // declaring such files corrupt.
        let fs = SimFs::new(FsConfig::lustre_comet());
        {
            let fs = Arc::clone(&fs);
            World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
                let d = decomp(4, comm.size());
                let pairs = if comm.rank() == 0 {
                    pairs_for(0, comm.size(), 4, 2)
                } else {
                    Vec::new()
                };
                write(comm, &fs, "old.bin", &pairs, &d, &Default::default()).unwrap();
            });
        }
        // Rewrite section 1's table entry the way the old writer laid it
        // out: stripe-aligned past the last written byte.
        let file = fs.open("old.bin").unwrap();
        let stripe = file.stripe().size;
        let past_eof = (file.len() / stripe + 1) * stripe;
        let at = HEADER_LEN as usize + SECTION_ENTRY_LEN as usize;
        file.poke(at as u64, &past_eof.to_le_bytes());
        assert!(past_eof > file.len());
        let meta = read_meta(&fs, "old.bin").unwrap();
        assert_eq!(meta.sections[1].len, 0);
        let out = World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
            let d = decomp(4, comm.size());
            let (back, _) = reload(comm, &fs, "old.bin", &d, &Default::default()).unwrap();
            back.len()
        });
        assert_eq!(out[1], 0);
        assert!(out[0] > 0);
    }

    #[test]
    fn cross_world_reload_routes_records_to_their_owners() {
        let fs = SimFs::new(FsConfig::lustre_comet());
        // Write with 4 ranks.
        let written = {
            let fs = Arc::clone(&fs);
            World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
                let d = decomp(12, comm.size());
                let pairs = pairs_for(comm.rank(), comm.size(), 12, 2);
                write(
                    comm,
                    &fs,
                    "cross.bin",
                    &pairs,
                    &d,
                    &SnapshotWriteOptions::default(),
                )
                .unwrap();
                pairs
            })
        };
        let mut all_written: Vec<String> = written
            .iter()
            .flatten()
            .map(|(c, f)| format!("{c}:{}", f.userdata))
            .collect();
        all_written.sort();
        // Re-read with 3 ranks.
        let out = World::run(WorldConfig::new(Topology::single_node(3)), move |comm| {
            let d = decomp(12, comm.size());
            let (back, rep) =
                reload(comm, &fs, "cross.bin", &d, &SnapshotReadOptions::default()).unwrap();
            for (cell, _) in &back {
                assert_eq!(d.cell_to_rank(*cell), comm.rank(), "misrouted record");
            }
            assert!(rep.records_scanned > 0 || comm.rank() > 0);
            back
        });
        let mut all_back: Vec<String> = out
            .iter()
            .flatten()
            .map(|(c, f)| format!("{c}:{}", f.userdata))
            .collect();
        all_back.sort();
        assert_eq!(all_back, all_written);
    }

    #[test]
    fn sections_are_packed_back_to_back_after_the_table() {
        let fs = SimFs::new(FsConfig::lustre_comet());
        let stripe = StripeSpec::new(4, 1 << 10);
        {
            let fs = Arc::clone(&fs);
            World::run(WorldConfig::new(Topology::single_node(3)), move |comm| {
                let d = decomp(9, comm.size());
                let pairs = pairs_for(comm.rank(), comm.size(), 9, 4);
                write(
                    comm,
                    &fs,
                    "packed.bin",
                    &pairs,
                    &d,
                    &SnapshotWriteOptions::default().with_stripe(stripe),
                )
                .unwrap();
            });
        }
        let meta = read_meta(&fs, "packed.bin").unwrap();
        assert_eq!(meta.version, VERSION);
        assert_eq!(meta.sections.len(), 3);
        assert_eq!(meta.total_records, 9 * 4);
        let table_end = HEADER_LEN + 3 * SECTION_ENTRY_LEN;
        assert_eq!(meta.sections[0].offset, table_end);
        for w in meta.sections.windows(2) {
            assert_eq!(w[1].offset, w[0].offset + w[0].len, "{w:?}");
        }
        let file_len = fs.open("packed.bin").unwrap().len();
        assert_eq!(file_len, table_end + meta.payload_bytes());
    }

    /// The same payload bytes written at 16 ranks on one node, once held
    /// by one rank and once spread over all of them: the fragments tile
    /// the file either way, so the one aggregator flushes one run and the
    /// write costs the same.
    #[test]
    fn write_time_does_not_grow_with_nonempty_sections() {
        let fs = SimFs::new(FsConfig::lustre_comet());
        let seconds = |path: &'static str, spread: bool| {
            let fs = Arc::clone(&fs);
            let out = World::run(WorldConfig::new(Topology::single_node(16)), move |comm| {
                let (cells, p) = (64, comm.size());
                let d = decomp(cells, p);
                let pairs: Vec<_> = match (spread, comm.rank()) {
                    (true, r) => pairs_for(r, p, cells, 4),
                    (false, 0) => (0..p).flat_map(|r| pairs_for(r, p, cells, 4)).collect(),
                    (false, _) => Vec::new(),
                };
                let rep = write(comm, &fs, path, &pairs, &d, &Default::default()).unwrap();
                (rep.write_seconds, rep.bytes_total)
            });
            out[0]
        };
        let (one, one_bytes) = seconds("one.bin", false);
        let (all, all_bytes) = seconds("all.bin", true);
        assert_eq!(one_bytes, all_bytes);
        assert!(
            (all - one).abs() <= 0.1 * one,
            "one rank holding the payload: {one} s, sixteen: {all} s"
        );
    }

    /// A file in the previous writer's layout — every non-empty section
    /// start padded to a stripe boundary — reloads bit-identically to the
    /// packed file it was rebuilt from, at the writer's world size and at
    /// another one.
    #[test]
    fn stripe_padded_sections_from_earlier_writers_still_reload() {
        let fs = SimFs::new(FsConfig::lustre_comet());
        let stripe = StripeSpec::new(4, 1 << 10);
        {
            let fs = Arc::clone(&fs);
            World::run(WorldConfig::new(Topology::single_node(3)), move |comm| {
                let d = decomp(12, comm.size());
                let pairs = pairs_for(comm.rank(), comm.size(), 12, 3);
                let opts = SnapshotWriteOptions::default().with_stripe(stripe);
                write(comm, &fs, "packed.bin", &pairs, &d, &opts).unwrap();
            });
        }
        let packed = fs.open("packed.bin").unwrap().snapshot();
        let mut meta = read_meta(&fs, "packed.bin").unwrap();
        let padded = fs.create("padded.bin", Some(stripe)).unwrap();
        let mut at = HEADER_LEN + 3 * SECTION_ENTRY_LEN;
        for s in &mut meta.sections {
            if s.len > 0 {
                at = at.div_ceil(stripe.size) * stripe.size;
            }
            let bytes = &packed[s.offset as usize..][..s.len as usize];
            padded.poke(at, bytes);
            s.offset = at;
            at += s.len;
        }
        padded.poke(0, &encode_meta(&meta));
        assert_eq!(read_meta(&fs, "padded.bin").unwrap(), meta);
        assert!(meta.sections[1].offset > meta.sections[0].offset + meta.sections[0].len);
        for p in [3, 2] {
            let fs = Arc::clone(&fs);
            World::run(WorldConfig::new(Topology::single_node(p)), move |comm| {
                let d = decomp(12, comm.size());
                let opts = SnapshotReadOptions::default();
                let (want, _) = reload(comm, &fs, "packed.bin", &d, &opts).unwrap();
                let (got, _) = reload(comm, &fs, "padded.bin", &d, &opts).unwrap();
                assert_eq!(got, want, "{p} ranks, rank {}", comm.rank());
                if p == 3 {
                    let mine = pairs_for(comm.rank(), p, 12, 3);
                    assert_eq!(got, mine, "rank {}", comm.rank());
                }
            });
        }
    }

    #[test]
    fn corrupt_headers_are_typed_errors() {
        let fs = SimFs::new(FsConfig::lustre_comet());
        {
            let fs = Arc::clone(&fs);
            World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
                let d = decomp(4, comm.size());
                let pairs = pairs_for(comm.rank(), comm.size(), 4, 1);
                write(
                    comm,
                    &fs,
                    "c.bin",
                    &pairs,
                    &d,
                    &SnapshotWriteOptions::default(),
                )
                .unwrap();
            });
        }
        let good = fs.open("c.bin").unwrap().snapshot();

        let check = |mutate: &dyn Fn(&mut Vec<u8>), what: &str| {
            let mut bad = good.clone();
            mutate(&mut bad);
            let fs2 = SimFs::new(FsConfig::lustre_comet());
            fs2.create("bad.bin", None).unwrap().append(bad);
            let err = read_meta(&fs2, "bad.bin").unwrap_err();
            assert!(
                matches!(err, CoreError::Snapshot(_)),
                "{what}: expected Snapshot error, got {err:?}"
            );
            err.to_string()
        };

        assert!(check(&|b| b[0] = b'X', "magic").contains("magic"));
        assert!(check(&|b| b[8] = 99, "version").contains("version"));
        assert!(check(&|b| b.truncate(10), "short header").contains("truncated header"));
        // With 70 bytes the table bound-check fires ("section table …
        // extends past the file length") before the table is ever read.
        assert!(check(&|b| b.truncate(70), "short table").contains("section table"));
        // Section running past EOF.
        assert!(check(
            &|b| {
                let at = HEADER_LEN as usize + 8;
                b[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            },
            "oversized section"
        )
        .contains("overflows"));
        // Header/table record-count disagreement.
        assert!(check(
            &|b| {
                let at = HEADER_LEN as usize + 16;
                let v = u64_at(b, at) + 1;
                b[at..at + 8].copy_from_slice(&v.to_le_bytes());
            },
            "count mismatch"
        )
        .contains("claims"));
        // An absurd section count must be rejected against the file
        // length, not turned into a multi-gigabyte table allocation.
        assert!(check(
            &|b| b[12..16].copy_from_slice(&u32::MAX.to_le_bytes()),
            "huge section count"
        )
        .contains("extends past"));
        // Per-section record counts whose sum overflows u64.
        assert!(check(
            &|b| {
                for s in 0..2 {
                    let at = HEADER_LEN as usize + s * SECTION_ENTRY_LEN as usize + 16;
                    b[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
                }
            },
            "record-count overflow"
        )
        .contains("overflow"));
    }

    #[test]
    fn corrupted_cell_high_word_is_rejected_not_truncated() {
        let fs = SimFs::new(FsConfig::lustre_comet());
        {
            let fs = Arc::clone(&fs);
            World::run(WorldConfig::new(Topology::single_node(1)), move |comm| {
                let d = decomp(4, comm.size());
                let pairs = pairs_for(comm.rank(), comm.size(), 4, 2);
                write(comm, &fs, "hw.bin", &pairs, &d, &Default::default()).unwrap();
            });
        }
        // Set a high bit above u32 in the first record's cell word: the
        // low 32 bits still name a valid cell, so a truncating check
        // would silently accept the corruption.
        let meta = read_meta(&fs, "hw.bin").unwrap();
        let at = meta.sections[0].offset + 4;
        fs.open("hw.bin").unwrap().poke(at, &1u32.to_le_bytes());
        let out = World::run(WorldConfig::new(Topology::single_node(1)), move |comm| {
            let d = decomp(4, comm.size());
            match reload(comm, &fs, "hw.bin", &d, &Default::default()) {
                Err(CoreError::Snapshot(m)) => m.contains("out of range"),
                other => panic!("expected Snapshot error, got {other:?}"),
            }
        });
        assert!(out[0]);
    }

    #[test]
    fn mismatched_decomposition_is_rejected() {
        let fs = SimFs::new(FsConfig::lustre_comet());
        {
            let fs = Arc::clone(&fs);
            World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
                let d = decomp(6, comm.size());
                let pairs = pairs_for(comm.rank(), comm.size(), 6, 1);
                write(
                    comm,
                    &fs,
                    "m.bin",
                    &pairs,
                    &d,
                    &SnapshotWriteOptions::default(),
                )
                .unwrap();
            });
        }
        let out = World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
            let wrong = decomp(8, comm.size()); // different grid resolution
            matches!(
                reload(comm, &fs, "m.bin", &wrong, &SnapshotReadOptions::default()),
                Err(CoreError::Snapshot(m)) if m.contains("mismatch")
            )
        });
        assert!(out.iter().all(|&ok| ok));
    }

    #[test]
    fn torn_section_payload_errors_without_hanging_peers() {
        let fs = SimFs::new(FsConfig::lustre_comet());
        {
            let fs = Arc::clone(&fs);
            World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
                let d = decomp(4, comm.size());
                let pairs = pairs_for(comm.rank(), comm.size(), 4, 2);
                write(
                    comm,
                    &fs,
                    "t.bin",
                    &pairs,
                    &d,
                    &SnapshotWriteOptions::default(),
                )
                .unwrap();
            });
        }
        // Corrupt section 0's payload (flip a length field deep inside).
        let meta = read_meta(&fs, "t.bin").unwrap();
        let at = meta.sections[0].offset + 8;
        let file = fs.open("t.bin").unwrap();
        file.poke(at, &u32::MAX.to_le_bytes());
        let out = World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
            let d = decomp(4, comm.size());
            reload(comm, &fs, "t.bin", &d, &SnapshotReadOptions::default()).is_err()
        });
        // Rank 0 (reads section 0) errors; rank 1 completes.
        assert_eq!(out, vec![true, false]);
    }

    #[test]
    fn existing_path_is_a_typed_error_everywhere() {
        let fs = SimFs::new(FsConfig::lustre_comet());
        fs.create("exists.bin", None).unwrap();
        let out = World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
            let d = decomp(4, comm.size());
            let res = write(
                comm,
                &fs,
                "exists.bin",
                &[],
                &d,
                &SnapshotWriteOptions::default(),
            );
            matches!(res, Err(CoreError::Pfs(_)))
        });
        assert!(out.iter().all(|&ok| ok));
    }

    /// One snapshot reloaded at 2, 4 and 8 ranks: its metadata costs two
    /// reads — the header, then the table — at every world size, on top
    /// of whatever the payload read costs.
    #[test]
    fn metadata_reads_do_not_grow_with_the_world() {
        let fs = SimFs::new(FsConfig::lustre_comet());
        {
            let fs = Arc::clone(&fs);
            World::run(WorldConfig::new(Topology::single_node(3)), move |comm| {
                let d = decomp(12, comm.size());
                let pairs = pairs_for(comm.rank(), comm.size(), 12, 2);
                write(comm, &fs, "ops.bin", &pairs, &d, &Default::default()).unwrap();
            });
        }
        let meta = read_meta(&fs, "ops.bin").unwrap();
        let stats = Arc::clone(fs.stats());
        for p in [2usize, 4, 8] {
            // Read ops of a whole reload, or of the payload read alone
            // over metadata decoded up front.
            let read_ops = |whole: bool| {
                let before = stats.read_ops();
                let (fs, meta) = (Arc::clone(&fs), meta.clone());
                World::run(WorldConfig::new(Topology::single_node(p)), move |comm| {
                    let d = decomp(12, comm.size());
                    let opts = SnapshotReadOptions::default();
                    if whole {
                        reload(comm, &fs, "ops.bin", &d, &opts).unwrap();
                    } else {
                        read_partitioned(comm, &fs, "ops.bin", &meta, &d, &opts).unwrap();
                    }
                });
                stats.read_ops() - before
            };
            let (all, payload) = (read_ops(true), read_ops(false));
            assert_eq!(
                all - payload,
                2,
                "{p} ranks: {all} reads in all, {payload} of them the payload's"
            );
        }
    }

    /// A three-section file the FORMAT.md §3 rules accept — a non-empty
    /// section right after the table, an empty one at its end, a
    /// non-empty one after a gap as earlier writers' stripe padding left
    /// it — with a zeroed payload.
    fn sample_file() -> (SnapshotMeta, Vec<u8>) {
        let table_end = HEADER_LEN + 3 * SECTION_ENTRY_LEN;
        let section = |offset, len, records| SectionEntry {
            offset,
            len,
            records,
        };
        let meta = SnapshotMeta {
            version: VERSION,
            spec: GridSpec {
                cells_x: 4,
                cells_y: 2,
            },
            bounds: Rect::new(-1.0, 0.0, 3.0, 2.0),
            total_records: 3,
            sections: vec![
                section(table_end, 40, 2),
                section(table_end + 40, 0, 0),
                section(256, 24, 1),
            ],
        };
        let mut file = encode_meta(&meta);
        file.resize(280, 0);
        (meta, file)
    }

    /// [`read_meta_timed`]'s path over in-memory file bytes: the fetch,
    /// through a reader that stops short at the end, then the decode.
    fn peek_meta(file: &[u8]) -> Result<SnapshotMeta> {
        let bytes = fetch_meta(file.len() as u64, |off, buf| {
            let rest = file.get(off as usize..).unwrap_or_default();
            let n = buf.len().min(rest.len());
            buf[..n].copy_from_slice(&rest[..n]);
            Ok(n)
        })?;
        decode_meta(&bytes, file.len() as u64)
    }

    #[test]
    fn meta_decoder_survives_every_mutation() {
        let (meta, valid) = sample_file();
        assert_eq!(peek_meta(&valid).unwrap(), meta);
        let entry_len = SECTION_ENTRY_LEN as usize;
        let table_end = HEADER_LEN as usize + 3 * entry_len;
        // Every outcome must be a typed error or a parse — a panic (also
        // an arithmetic overflow under debug assertions) fails the test.
        let typed = |r: Result<SnapshotMeta>| match r {
            Ok(m) => Some(m),
            Err(CoreError::Snapshot(_)) => None,
            Err(other) => panic!("untyped decoder error: {other:?}"),
        };

        // Truncation at every offset: of the file (the last section no
        // longer fits, or the table or header is short), and of the
        // metadata bytes alone against the full file length.
        for cut in 0..valid.len() {
            let got = typed(peek_meta(&valid[..cut]));
            assert!(got.is_none(), "file cut at {cut} parsed: {got:?}");
        }
        for cut in 0..table_end {
            let got = typed(decode_meta(&valid[..cut], valid.len() as u64));
            assert!(got.is_none(), "metadata cut at {cut} parsed: {got:?}");
        }

        // Every count, length and offset field — version, section count,
        // grid, total records, and each entry's offset, length and
        // records — set to 0, max and ±1. Each is decoded into the meta,
        // so a changed value never parses to the original.
        let u32_fields = [8usize, 12, 16, 20];
        let u64_fields = std::iter::once(56).chain((0..9).map(|i| HEADER_LEN as usize + 8 * i));
        let mutations = u32_fields
            .into_iter()
            .flat_map(|at| {
                let v = u32_at(&valid, at);
                [0, u32::MAX, v.wrapping_add(1), v.wrapping_sub(1)]
                    .map(|x| (at, x.to_le_bytes().to_vec()))
            })
            .chain(u64_fields.flat_map(|at| {
                let v = u64_at(&valid, at);
                [0, u64::MAX, v.wrapping_add(1), v.wrapping_sub(1)]
                    .map(|x| (at, x.to_le_bytes().to_vec()))
            }));
        for (at, value) in mutations {
            let mut file = valid.clone();
            file[at..at + value.len()].copy_from_slice(&value);
            let got = typed(peek_meta(&file));
            if file != valid {
                assert_ne!(got.as_ref(), Some(&meta), "field at {at} set to {value:?}");
            }
        }
        // The file length the decoder checks sections against.
        let len = valid.len() as u64;
        for file_len in [0, u64::MAX, len + 1, len - 1] {
            let got = typed(decode_meta(&valid[..table_end], file_len));
            assert_eq!(got.is_some(), file_len > len, "file length {file_len}");
        }

        // Table entries duplicated and dropped (the file keeps its length
        // — zeros are appended for a dropped entry), with the header's
        // section count following the table or left as it was. A
        // duplicate overlaps the entry it copies or the table it grew,
        // and a drop miscounts the records or reads payload zeros as an
        // entry — except in two cases.
        for i in 0..3 {
            let at = HEADER_LEN as usize + i * entry_len;
            for (duplicate, recount) in [(true, true), (true, false), (false, true), (false, false)]
            {
                let mut file = valid.clone();
                let sections: u32 = if duplicate {
                    file.splice(at..at, valid[at..at + entry_len].to_vec());
                    4
                } else {
                    file.drain(at..at + entry_len);
                    file.resize(valid.len(), 0);
                    2
                };
                if recount {
                    file[12..16].copy_from_slice(&sections.to_le_bytes());
                }
                let got = typed(peek_meta(&file));
                match (duplicate, recount, i) {
                    // The copy of the last entry lands past the table the
                    // header announces, which reads as it was.
                    (true, false, 2) => assert_eq!(got.as_ref(), Some(&meta)),
                    // The empty section dropped, and the header says so.
                    (false, true, 1) => {
                        let kept = vec![meta.sections[0], meta.sections[2]];
                        assert_eq!(got.map(|m| m.sections), Some(kept));
                    }
                    _ => assert!(
                        got.is_none(),
                        "entry {i} duplicate={duplicate} recount={recount}: {got:?}"
                    ),
                }
            }
        }
    }

    #[test]
    fn covering_range_skips_empty_sections() {
        let s = |offset: u64, len: u64| SectionEntry {
            offset,
            len,
            records: 0,
        };
        assert_eq!(covering_range(&[]), (0, 0));
        assert_eq!(covering_range(&[s(100, 0), s(200, 0)]), (0, 0));
        assert_eq!(covering_range(&[s(100, 8)]), (100, 108));
        assert_eq!(
            covering_range(&[s(4096, 0), s(100, 8), s(500, 4)]),
            (100, 504)
        );
    }

    #[test]
    fn reader_section_assignment_covers_everything_exactly_once() {
        for sections in [0usize, 1, 3, 4, 7, 16] {
            for p in [1usize, 2, 3, 4, 5, 8] {
                let mut seen = vec![0u32; sections];
                for r in 0..p {
                    let (lo, hi) = reader_sections(sections, r, p);
                    for slot in &mut seen[lo..hi] {
                        *slot += 1;
                    }
                }
                assert!(
                    seen.iter().all(|&n| n == 1),
                    "sections={sections} p={p}: {seen:?}"
                );
            }
        }
    }
}
