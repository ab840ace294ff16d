//! The all-to-all geometry exchange (paper §4.2.3): serialization, the
//! two-round `Alltoall` + `Alltoallv` protocol, the sliding-window
//! variant for memory-bounded runs — and the chunked, overlapped
//! [`ExchangePlan`] that streams the exchange in bounded rounds over the
//! nonblocking collectives in [`mvio_msim::request`].
//!
//! "Before actually sending the entire co-ordinate data using
//! MPI_Alltoallv, the processes exchange the buffer related information
//! among them using MPI_Alltoall which is then used to calculate the
//! receiver side count and displacement arrays of MPI_Alltoallv."
//!
//! ## Chunked overlap
//!
//! The blocking protocol ships each rank's whole payload in one
//! `Alltoallv` round, so upstream serialization, the transfer, and
//! downstream deserialization are strictly serial. The [`ExchangePlan`]
//! instead splits every destination payload into record-aligned chunks of
//! at most [`ExchangeOptions::chunk`] bytes and pipelines the rounds: each
//! round's `ialltoallv` is posted, then the *next* round's payload is
//! produced (and the *previous* round's receives deserialized and drained
//! into the consumer) while the transfer is in flight, and only then is
//! the round completed with a `wait`. Round `r`'s size exchange carries a
//! continuation flag in the high bit, so ranks whose payloads need
//! different round counts agree on termination without a separate
//! counting collective. With `chunk = unlimited` the plan degenerates to
//! exactly the single-round blocking protocol — bit-identical received
//! data *and* virtual time — and for any finite chunk size the collected
//! result is still bit-identical (per-source streams are reassembled in
//! source-rank order); only the time moves.
//!
//! There is one protocol entry, [`ExchangePlan::run`]: it hands each
//! completed round's raw received buffers to the caller's sink, which
//! decodes them with one of two helpers — [`decode_records`] (owned
//! `(cell, Feature)` pairs: ingest and the owned snapshot reload) or
//! [`validate_round`] (frames validated once and then borrowed in place
//! through [`record_frames`] / [`FrameStore`], for join and serve — and
//! kept as they are by the resident engine,
//! [`crate::resident::ResidentStore`]).
//!
//! Routing is decomposition-agnostic: pairs go to whichever rank the
//! [`SpatialDecomposition`] assigns their cell to, whether that is the
//! paper's round-robin uniform grid or one of the skew-aware policies in
//! [`crate::decomp`].
//!
//! ## Wire format
//!
//! Every payload byte on the wire is a concatenation of
//! `[u64 cell][u32 wkb_len][wkb][u32 ud_len][ud]` records (little-endian,
//! no inter-record padding; see [`serialize_record`]). The byte-level
//! normative specification — checked narrowing, record alignment under
//! chunking, and frame-validation rules — is `docs/FORMAT.md` §1 in the
//! repository root, shared with the snapshot payload in
//! [`crate::snapshot`].

use crate::decomp::SpatialDecomposition;
use crate::{CoreError, Feature, Result};
use mvio_geom::wkb;
use mvio_msim::{Comm, ProgressEngine, Work};

/// Fixed bytes of one wire record: the cell word and the two length
/// fields around the geometry and userdata payloads.
pub(crate) const RECORD_OVERHEAD: usize = 16;

/// High bit of a size-exchange value: "this rank will post at least one
/// more round after this one".
const MORE_BIT: u64 = 1 << 63;

/// Per-destination round payload cap for the chunked exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExchangeChunk {
    /// Single-round blocking protocol (the `chunk = ∞` degenerate case;
    /// the default).
    #[default]
    Unlimited,
    /// At most this many bytes per destination per round (record-aligned;
    /// a single record larger than the cap still ships whole).
    Bytes(u64),
}

impl ExchangeChunk {
    /// The byte cap this configuration resolves to (`None` = unlimited).
    pub fn resolve(self) -> Option<u64> {
        match self {
            ExchangeChunk::Unlimited => None,
            ExchangeChunk::Bytes(n) => Some(n.max(1)),
        }
    }
}

/// Options for one exchange.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExchangeOptions {
    /// Number of sliding-window phases. 1 = single-shot (the default);
    /// larger values exchange "spatial data contained in a chunk of cells"
    /// per phase to bound peak memory (paper: "Handling large data
    /// exchange"). `0` is treated as 1.
    pub windows: u32,
    /// Per-destination byte cap for each pipelined round of the
    /// [`ExchangePlan`] (within each window).
    pub chunk: ExchangeChunk,
}

impl ExchangeOptions {
    /// Single-window options with an explicit chunk policy.
    pub fn with_chunk(chunk: ExchangeChunk) -> Self {
        ExchangeOptions { windows: 1, chunk }
    }
}

/// Counters describing one exchange, used by the breakdown reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExchangeStats {
    /// Bytes this rank serialized and sent.
    pub bytes_sent: u64,
    /// Bytes this rank received and deserialized.
    pub bytes_received: u64,
    /// Records sent (cell-replicated).
    pub records_sent: u64,
    /// Records received.
    pub records_received: u64,
    /// Sliding-window phases executed.
    pub phases: u32,
    /// Pipelined `Alltoallv` rounds executed across all windows (1 per
    /// window under the unlimited/blocking degenerate case).
    pub rounds: u32,
    /// Virtual seconds of upstream compute folded into the exchange's
    /// overlap engine (0 for the non-streamed paths).
    pub overlapped_compute_s: f64,
    /// Virtual seconds of communication left exposed on the critical path
    /// after overlap (the whole transfer time in the blocking case).
    pub exposed_wait_s: f64,
}

impl ExchangeStats {
    /// Folds another exchange's counters into this one (used across
    /// sliding-window phases).
    fn absorb(&mut self, other: ExchangeStats) {
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.records_sent += other.records_sent;
        self.records_received += other.records_received;
        self.rounds += other.rounds;
        self.overlapped_compute_s += other.overlapped_compute_s;
        self.exposed_wait_s += other.exposed_wait_s;
    }
}

/// Wire format of one record: `[u64 cell][u32 wkb_len][wkb][u32 ud_len][ud]`.
///
/// Length fields are checked conversions: a geometry or userdata payload
/// over `u32::MAX` bytes is an error, not a silently truncated length that
/// the receiver would misparse as a corrupt stream.
///
/// `scratch` is a caller-owned staging buffer reused across records: the
/// geometry encodes into it behind a [`wkb::encoded_len`] size pre-pass
/// (one exact `reserve`, no growth checks in the coordinate loop), then
/// lands in `out` as one bulk copy. Hot loops serialize millions of
/// records; the old per-record `wkb::encode` allocated and dropped a
/// fresh `Vec` for every one of them. (Shared with the ingest pipeline's
/// worker threads and, since the serving layer, with external callers
/// such as `sjoin`'s `QueryEngine`, which rides its queries over the
/// same wire format.)
pub fn serialize_record(
    cell: u32,
    feature: &Feature,
    scratch: &mut Vec<u8>,
    out: &mut Vec<u8>,
) -> Result<()> {
    wkb::encode_into_scratch(&feature.geometry, scratch);
    emit_record(cell, scratch, &feature.userdata, out)
}

/// Re-emits a borrowed frame as the wire record it was cut from — the
/// send side of forwarding received records to a third rank (the join's
/// balance step) without decoding them: the geometry bytes are copied
/// verbatim. Size `out` with [`RecordFrame::wire_len`] first.
pub fn serialize_frame(frame: &RecordFrame<'_>, out: &mut Vec<u8>) -> Result<()> {
    emit_record(frame.cell, frame.wkb, frame.userdata, out)
}

/// Appends one wire record whose geometry is already WKB-encoded.
fn emit_record(cell: u32, wkb: &[u8], userdata: &str, out: &mut Vec<u8>) -> Result<()> {
    let too_big = |what: &str, len: usize| {
        CoreError::Partition(format!(
            "exchange serialization: {what} of {len} bytes exceeds the u32 wire-format limit"
        ))
    };
    let glen = u32::try_from(wkb.len()).map_err(|_| too_big("geometry", wkb.len()))?;
    let ulen = u32::try_from(userdata.len()).map_err(|_| too_big("userdata", userdata.len()))?;
    out.reserve(RECORD_OVERHEAD + wkb.len() + userdata.len());
    out.extend_from_slice(&(cell as u64).to_le_bytes());
    out.extend_from_slice(&glen.to_le_bytes());
    out.extend_from_slice(wkb);
    out.extend_from_slice(&ulen.to_le_bytes());
    out.extend_from_slice(userdata.as_bytes());
    Ok(())
}

/// Reads the little-endian `u64` at `buf[at..at + 8]`; the caller has
/// already bounds-checked the slice.
fn le_u64(buf: &[u8], at: usize) -> Result<u64> {
    let bytes = buf
        .get(at..at + 8)
        .ok_or_else(|| CoreError::Frame(format!("u64 field at {at} past end of frame")))?;
    // audit: the slice is exactly 8 bytes by construction of the range.
    Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
}

/// Reads the little-endian `u32` length field at `buf[at..at + 4]` as a
/// checked `usize`.
fn le_len(buf: &[u8], at: usize) -> Result<usize> {
    let bytes = buf
        .get(at..at + 4)
        .ok_or_else(|| CoreError::Frame(format!("length field at {at} past end of frame")))?;
    // audit: the slice is exactly 4 bytes by construction of the range.
    let len = u32::from_le_bytes(bytes.try_into().expect("4-byte slice"));
    usize::try_from(len)
        .map_err(|_| CoreError::Frame(format!("length {len} does not fit this target's usize")))
}

/// Checked narrowing of a wire cell word to the `u32` cell-id space; a
/// corrupted high word must surface as an error, never alias a valid
/// cell by truncation.
fn cell_from_wire(word: u64) -> Result<u32> {
    u32::try_from(word)
        .map_err(|_| CoreError::Frame(format!("cell word {word:#x} exceeds the u32 cell-id space")))
}

fn deserialize_records(mut buf: &[u8]) -> Result<Vec<(u32, Feature)>> {
    let mut out = Vec::new();
    let bad = |msg: &str| CoreError::Frame(format!("exchange deserialization: {msg}"));
    while !buf.is_empty() {
        if buf.len() < 12 {
            return Err(bad("truncated header"));
        }
        let cell = cell_from_wire(le_u64(buf, 0)?)?;
        let glen = le_len(buf, 8)?;
        buf = &buf[12..];
        if buf.len() < glen.saturating_add(4) {
            return Err(bad("truncated geometry"));
        }
        let (geometry, used) = wkb::decode(&buf[..glen]).map_err(|e| CoreError::Parse {
            record: "<wkb>".into(),
            source: e,
        })?;
        if used != glen {
            return Err(bad("geometry length disagrees with its WKB payload"));
        }
        buf = &buf[glen..];
        let ulen = le_len(buf, 0)?;
        buf = &buf[4..];
        if buf.len() < ulen {
            return Err(bad("truncated userdata"));
        }
        let userdata =
            String::from_utf8(buf[..ulen].to_vec()).map_err(|_| bad("non-UTF8 userdata"))?;
        buf = &buf[ulen..];
        out.push((cell, Feature { geometry, userdata }));
    }
    Ok(out)
}

/// Total wire length of the record starting at `buf[pos..]`, without
/// decoding it — used to cut record-aligned chunks out of a serialized
/// buffer (and by the snapshot reader to walk persisted sections, which
/// use the same wire format).
pub(crate) fn record_len_at(buf: &[u8], pos: usize) -> Result<usize> {
    let bad = |msg: &str| CoreError::Frame(format!("exchange chunking: {msg}"));
    let rest = &buf[pos..];
    if rest.len() < 12 {
        return Err(bad("truncated record header"));
    }
    let glen = le_len(rest, 8)?;
    // Length fields are u32, so these sums stay far below usize::MAX;
    // saturating keeps the comparisons safe even against torn input.
    if rest.len() < glen.saturating_add(16) {
        return Err(bad("truncated geometry"));
    }
    let ulen = le_len(rest, 12 + glen)?;
    if rest.len() < 16usize.saturating_add(glen).saturating_add(ulen) {
        return Err(bad("truncated userdata"));
    }
    Ok(16 + glen + ulen)
}

/// One record of the exchange wire format, borrowed in place from a
/// received (and [`validate_frames`]-checked) buffer: nothing is copied
/// until a consumer decides the record survives its filter. The geometry
/// bytes decode on demand through [`wkb::decode_ref`].
#[derive(Debug, Clone, Copy)]
pub struct RecordFrame<'a> {
    /// The record's grid cell.
    pub cell: u32,
    /// The WKB geometry bytes (already validated by the zero-copy
    /// decoder, so `wkb::decode_ref(wkb)` cannot fail).
    pub wkb: &'a [u8],
    /// The record's userdata payload (already validated UTF-8).
    pub userdata: &'a str,
}

impl RecordFrame<'_> {
    /// Bytes this frame occupies on the wire (what [`serialize_frame`]
    /// appends).
    pub fn wire_len(&self) -> usize {
        RECORD_OVERHEAD + self.wkb.len() + self.userdata.len()
    }

    /// Decodes the frame into an owned [`Feature`] — for consumers that
    /// want objects after all (oracles, the snapshot writer's callers);
    /// the hot paths read the frame in place.
    pub fn to_feature(&self) -> Result<Feature> {
        let (view, _) = wkb::decode_ref(self.wkb).map_err(|e| CoreError::Parse {
            record: "<wkb>".into(),
            source: e,
        })?;
        Ok(Feature::with_userdata(view.to_geometry(), self.userdata))
    }
}

/// Validates one received wire buffer without materializing anything:
/// walks every frame, bounds-checks the header fields, zero-copy-decodes
/// the geometry (the full [`wkb::decode_ref`] check set — exactly what
/// the owned `deserialize_records` enforces) and checks the userdata is
/// UTF-8. Returns the record count. Corruption surfaces as the same typed
/// [`CoreError::Frame`] / [`CoreError::Parse`] errors the owned path
/// produces. Not collective — pure local validation.
pub fn validate_frames(buf: &[u8]) -> Result<u64> {
    let bad = |msg: &str| CoreError::Frame(format!("exchange deserialization: {msg}"));
    let mut pos = 0usize;
    let mut records = 0u64;
    while pos < buf.len() {
        let len = record_len_at(buf, pos)?;
        cell_from_wire(le_u64(buf, pos)?)?;
        let glen = le_len(buf, pos + 8)?;
        let wkb_bytes = &buf[pos + 12..pos + 12 + glen];
        let (_, used) = wkb::decode_ref(wkb_bytes).map_err(|e| CoreError::Parse {
            record: "<wkb>".into(),
            source: e,
        })?;
        if used != glen {
            return Err(bad("geometry length disagrees with its WKB payload"));
        }
        let ulen = le_len(buf, pos + 12 + glen)?;
        let ud = &buf[pos + 16 + glen..pos + 16 + glen + ulen];
        std::str::from_utf8(ud).map_err(|_| bad("non-UTF8 userdata"))?;
        pos += len;
        records += 1;
    }
    Ok(records)
}

/// Iterates the record frames of one buffer previously accepted by
/// [`validate_frames`]. Walking is infallible: every bound was checked
/// during validation.
pub fn record_frames(buf: &[u8]) -> FrameIter<'_> {
    FrameIter { buf, pos: 0 }
}

/// Iterator over the borrowed [`RecordFrame`]s of one validated buffer.
#[derive(Debug, Clone)]
pub struct FrameIter<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Iterator for FrameIter<'a> {
    type Item = RecordFrame<'a>;

    fn next(&mut self) -> Option<RecordFrame<'a>> {
        if self.pos >= self.buf.len() {
            return None;
        }
        // audit: constructed only over buffers validate_frames accepted.
        let len = record_len_at(self.buf, self.pos).expect("validated frame");
        // audit: validate_frames range-checked the cell word of every frame.
        let cell = cell_from_wire(le_u64(self.buf, self.pos).expect("validated frame"))
            .expect("validated frame"); // audit: range-checked during validation.
                                        // audit: validate_frames bounds-checked both length headers.
        let glen = le_len(self.buf, self.pos + 8).expect("validated frame");
        let wkb = &self.buf[self.pos + 12..self.pos + 12 + glen];
        // audit: validate_frames bounds-checked both length headers.
        let ulen = le_len(self.buf, self.pos + 12 + glen).expect("validated frame");
        let ud = &self.buf[self.pos + 16 + glen..self.pos + 16 + glen + ulen];
        // audit: validate_frames checked the userdata is UTF-8.
        let userdata = std::str::from_utf8(ud).expect("validated frame");
        self.pos += len;
        Some(RecordFrame {
            cell,
            wkb,
            userdata,
        })
    }
}

/// The raw, validated wire buffers one exchange (or one sliding window of
/// it) received, kept per source rank so iteration matches the owned
/// path's source-rank-order reassembly — the rule that keeps every chunk
/// policy bit-identical. Rounds append to their source's buffer; nothing
/// is deserialized.
#[derive(Debug, Clone, Default)]
pub struct FrameStore {
    per_src: Vec<Vec<u8>>,
    records: u64,
}

impl FrameStore {
    /// An empty store for a `p`-rank world.
    pub fn new(p: usize) -> Self {
        FrameStore {
            per_src: vec![Vec::new(); p],
            records: 0,
        }
    }

    /// Folds one completed round's validated buffers (indexed by source
    /// rank) in. The first round per source moves its buffer wholesale
    /// (the blocking single-round case stays copy-free); later rounds
    /// append.
    fn collect(&mut self, round: Vec<Vec<u8>>, records: u64) {
        debug_assert_eq!(round.len(), self.per_src.len());
        for (src, buf) in round.into_iter().enumerate() {
            if self.per_src[src].is_empty() {
                self.per_src[src] = buf;
            } else {
                self.per_src[src].extend_from_slice(&buf);
            }
        }
        self.records += records;
    }

    /// Total records across all sources.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The validated buffers, one per source rank.
    pub(crate) fn buffers(&self) -> &[Vec<u8>] {
        &self.per_src
    }

    /// Iterates every record frame in source-rank order — the exact
    /// record order of the owned path's collected output.
    pub fn frames(&self) -> impl Iterator<Item = RecordFrame<'_>> {
        self.per_src.iter().flat_map(|buf| record_frames(buf))
    }
}

/// Exchanges `(cell, feature)` pairs so that every pair lands on the rank
/// owning its cell under `decomp`. Input pairs may reference any cells;
/// the output contains exactly the pairs owned by this rank, from all
/// ranks, in source-rank order (bit-identical for every chunk policy).
///
/// The protocol per window: serialize per destination → [`ExchangePlan`]
/// (sizes `Alltoall` + chunked `Alltoallv` rounds) → deserialize.
/// Serialization and deserialization charge the rank's clock (they are
/// the "communication buffer management overhead" in the paper's
/// breakdown figures).
/// Collective: every rank must call it with its own pairs.
pub fn exchange_features<D: SpatialDecomposition + ?Sized>(
    comm: &mut Comm,
    pairs: Vec<(u32, Feature)>,
    decomp: &D,
    opts: &ExchangeOptions,
) -> Result<(Vec<(u32, Feature)>, ExchangeStats)> {
    let p = comm.size();
    // Reassemble source-rank order *within each window*, appending windows
    // in order — the exact ordering of the historic blocking protocol for
    // any window count and chunk policy.
    let mut collector = PerSourceCollector::new(p);
    let mut received: Vec<(u32, Feature)> = Vec::new();
    let mut current_window = 0usize;
    let stats = exchange_windows(comm, pairs, decomp, opts, &mut |c, window, bufs| {
        if window != current_window {
            collector.drain_into(&mut received);
            current_window = window;
        }
        Ok(collector.collect(decode_records(c, &bufs)?))
    })?;
    collector.drain_into(&mut received);
    Ok((received, stats))
}

/// Like [`exchange_features`], but the received records stay as validated
/// wire buffers: one [`FrameStore`] per sliding window, never
/// materializing owned [`Feature`]s on the receive side. Record order
/// under [`FrameStore::frames`], windows concatenated, matches
/// [`exchange_features`]' output exactly, for every chunk policy; only the
/// validation scan ([`Work::CopyBytes`]) is charged where the owned
/// variant pays per-record deserialization.
/// Collective: every rank must call it with its own pairs.
pub fn exchange_features_frames_windows<D: SpatialDecomposition + ?Sized>(
    comm: &mut Comm,
    pairs: Vec<(u32, Feature)>,
    decomp: &D,
    opts: &ExchangeOptions,
) -> Result<(Vec<FrameStore>, ExchangeStats)> {
    let p = comm.size();
    let mut stores: Vec<FrameStore> = Vec::new();
    let stats = exchange_windows(comm, pairs, decomp, opts, &mut |c, window, bufs| {
        let records = validate_round(c, &bufs)?;
        if stores.len() <= window {
            stores.resize_with(window + 1, || FrameStore::new(p));
        }
        stores[window].collect(bufs, records);
        Ok(records)
    })?;
    Ok((stores, stats))
}

/// Accumulates per-round, per-source record batches and drains them in
/// source-rank order — the reassembly rule that keeps every chunk policy
/// bit-identical to the single-round blocking protocol. Shared by
/// [`exchange_features`], [`exchange_serialized_with`] and the fused
/// pipeline stage.
#[derive(Debug)]
pub(crate) struct PerSourceCollector {
    per_src: Vec<Vec<(u32, Feature)>>,
}

impl PerSourceCollector {
    pub(crate) fn new(p: usize) -> Self {
        PerSourceCollector {
            per_src: (0..p).map(|_| Vec::new()).collect(),
        }
    }

    /// Folds one round's received records (indexed by source rank) in and
    /// returns how many there were — what an [`ExchangePlan::run`] sink
    /// reports back.
    pub(crate) fn collect(&mut self, round: Vec<Vec<(u32, Feature)>>) -> u64 {
        debug_assert_eq!(round.len(), self.per_src.len());
        let mut records = 0u64;
        for (src, mut recs) in round.into_iter().enumerate() {
            records += recs.len() as u64;
            self.per_src[src].append(&mut recs);
        }
        records
    }

    /// Appends everything collected so far to `out` in source-rank order
    /// and resets the collector.
    pub(crate) fn drain_into(&mut self, out: &mut Vec<(u32, Feature)>) {
        for src in &mut self.per_src {
            out.append(src);
        }
    }
}

/// Window loop shared by [`exchange_features`] and
/// [`exchange_features_frames_windows`]; `sink` receives every completed
/// round's raw buffers with its window index, in window-then-round order,
/// and returns the record count it decoded (see [`ExchangePlan::run`]).
fn exchange_windows<D: SpatialDecomposition + ?Sized>(
    comm: &mut Comm,
    pairs: Vec<(u32, Feature)>,
    decomp: &D,
    opts: &ExchangeOptions,
    sink: &mut dyn FnMut(&mut Comm, usize, Vec<Vec<u8>>) -> Result<u64>,
) -> Result<ExchangeStats> {
    let p = comm.size();
    debug_assert_eq!(
        decomp.num_ranks(),
        p,
        "decomposition built for a different world size"
    );
    let num_cells = decomp.num_cells();
    let windows = opts.windows.max(1).min(num_cells.max(1));
    let mut stats = ExchangeStats {
        phases: windows,
        ..Default::default()
    };
    let plan = ExchangePlan::new(comm, opts);

    // Pre-bucket pairs by window to avoid rescanning per phase.
    let cells_per_window = num_cells.div_ceil(windows).max(1);
    let mut by_window: Vec<Vec<(u32, Feature)>> = (0..windows).map(|_| Vec::new()).collect();
    for (cell, f) in pairs {
        let w = (cell / cells_per_window).min(windows - 1);
        by_window[w as usize].push((cell, f));
    }

    // A failure in one window must not stop this rank from entering the
    // remaining windows' collectives — that would strand the peers at
    // their next rendezvous. The first error is parked here; later
    // windows run with an empty payload and a discarding sink, and the
    // error is returned once every window has completed.
    let mut deferred: Option<CoreError> = None;
    let mut scratch = Vec::new();
    for (window, window_pairs) in by_window.into_iter().enumerate() {
        // Serialize per destination rank (charged per object: the paper's
        // "buffer management overhead in serialization").
        let mut batch = SerializedBatch::empty(p);
        if deferred.is_none() {
            // Size pre-pass: each destination buffer is allocated once
            // at its exact length instead of growing by doubling.
            let mut sizes = vec![0usize; p];
            for (cell, feature) in &window_pairs {
                sizes[decomp.cell_to_rank(*cell)] +=
                    RECORD_OVERHEAD + wkb::encoded_len(&feature.geometry) + feature.userdata.len();
            }
            for (buf, size) in batch.bufs.iter_mut().zip(sizes) {
                buf.reserve_exact(size);
            }
            let mut serialize = || -> Result<()> {
                for (cell, feature) in &window_pairs {
                    let dst = decomp.cell_to_rank(*cell);
                    serialize_record(*cell, feature, &mut scratch, &mut batch.bufs[dst])?;
                    batch.records[dst] += 1;
                }
                Ok(())
            };
            if let Err(e) = serialize() {
                deferred = Some(e);
                batch = SerializedBatch::empty(p);
            } else {
                comm.charge(Work::SerializeGeoms {
                    n: batch.records.iter().sum(),
                    bytes: batch.bufs.iter().map(|b| b.len() as u64).sum(),
                });
            }
        }

        // The window's staged protocol + receive side (the plan itself
        // winds its rounds down on error, so its collectives are always
        // matched).
        let failed = deferred.is_some();
        let result = plan.run(comm, &mut batch.into_feed(&plan), &mut |c, bufs| {
            if failed {
                return Ok(0); // discard receives after a failure
            }
            sink(c, window, bufs)
        });
        match result {
            Ok(w) => stats.absorb(w),
            Err(e) => deferred = deferred.or(Some(e)),
        }
    }
    if let Some(e) = deferred {
        return Err(e);
    }

    Ok(stats)
}

/// Per-destination payloads that were already serialized upstream — the
/// streamed batches the ingest pipeline's worker threads produce
/// ([`crate::pipeline::partition_chunked`]). One buffer and one record
/// count per destination rank.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SerializedBatch {
    /// Wire-format bytes destined for each rank (`bufs.len() == world size`).
    pub bufs: Vec<Vec<u8>>,
    /// Records contained in each destination buffer.
    pub records: Vec<u64>,
}

impl SerializedBatch {
    /// An empty batch for a `p`-rank world.
    pub fn empty(p: usize) -> Self {
        SerializedBatch {
            bufs: vec![Vec::new(); p],
            records: vec![0; p],
        }
    }

    /// Checks that the batch matches a `p`-rank communicator: exactly one
    /// buffer and one record count per destination.
    fn validate(&self, p: usize) -> Result<()> {
        if self.bufs.len() != p || self.records.len() != p {
            return Err(CoreError::BatchShape {
                comm_size: p,
                bufs: self.bufs.len(),
                records: self.records.len(),
            });
        }
        Ok(())
    }

    /// Turns the whole batch into an [`ExchangePlan::run`] feed under
    /// `plan`'s chunk policy: record-aligned pieces of at most
    /// [`ExchangeChunk::Bytes`] per destination, or — unlimited —
    /// the degenerate feed whose one round is the batch itself (moved,
    /// never copied or walked: the blocking protocol). A batch shaped
    /// for a different world size, or one the splitter cannot walk, is a
    /// feed error: the plan still participates (empty rounds), then
    /// returns the typed error on this rank.
    pub fn into_feed(
        self,
        plan: &ExchangePlan,
    ) -> impl FnMut(&mut Comm) -> Result<Option<ExchangeRound>> {
        let mut splitter = BatchSplitter {
            batch: self,
            offsets: Vec::new(),
            cap: plan.chunk,
            p: plan.p,
        };
        move |_| splitter.next_round()
    }
}

/// One staged round supplied to [`ExchangePlan::run`] by its feed.
#[derive(Debug)]
pub struct ExchangeRound {
    /// Per-destination payloads of this round (`bufs.len()` = world size).
    pub batch: SerializedBatch,
    /// Per-lane virtual seconds of the upstream compute that produced
    /// this round; the plan folds them in *overlapped* with the previous
    /// round's in-flight `ialltoallv` (slowest-lane rule, as
    /// [`Comm::advance_parallel`]).
    pub lanes: Vec<f64>,
    /// Whether the producer will supply another round after this one.
    pub more: bool,
}

/// The staged, chunked, overlapped all-to-all exchange.
///
/// Built from an [`ExchangeOptions`]; executed by [`ExchangePlan::run`]
/// over a round feed — a fully serialized [`SerializedBatch`] cut into
/// record-aligned chunks ([`SerializedBatch::into_feed`]), or a lazy
/// producer (the ingest pipeline serializes round `r+1` while round `r`
/// is in flight).
#[derive(Debug, Clone, Copy)]
pub struct ExchangePlan {
    p: usize,
    chunk: Option<u64>,
}

impl ExchangePlan {
    /// Plans an exchange over `comm` with `opts`'s chunk policy.
    pub fn new(comm: &Comm, opts: &ExchangeOptions) -> Self {
        ExchangePlan {
            p: comm.size(),
            chunk: opts.chunk.resolve(),
        }
    }

    /// Runs the full pipelined protocol over a round feed.
    ///
    /// Per round: `ialltoall_u64` of the byte counts (continuation flag
    /// in the high bit) → `ialltoallv` of the payloads. Round sequencing
    /// keeps the paper's sizes-before-payload dependency (real
    /// `MPI_Alltoallv` needs the receive counts first) while taking
    /// everything off the critical path that can come off it: round
    /// `r+1`'s production (`feed`) and its size exchange are posted while
    /// round `r`'s payload is in flight, and round `r-1`'s drain (`sink`)
    /// runs before either wait completes. `feed` reports its compute
    /// through [`ExchangeRound::lanes`], which the plan folds in
    /// overlapped; returning `None` (or a round with `more = false`) ends
    /// this rank's contribution, and the plan keeps posting empty rounds
    /// until the continuation flags say every rank is done.
    ///
    /// `sink` receives each completed round's **raw received buffers**,
    /// indexed by source rank, and returns how many records they held
    /// (for [`ExchangeStats::records_received`]). It decodes them with
    /// [`decode_records`] or [`validate_round`], which charge the
    /// receive-side cost; whatever else it charges through the passed
    /// `&mut Comm` (an R-tree walk, a follow-up serialization) overlaps
    /// the rounds still in flight exactly like the decode does. To stay
    /// bit-identical across chunk policies, reassemble per-source streams
    /// in source-rank order ([`FrameStore`] and the owned wrappers do).
    ///
    /// Collective: every rank must call it, with any feed — ranks may
    /// contribute different round counts, including none.
    ///
    /// A per-rank error (from `feed` or `sink`, e.g. a corrupt payload
    /// the decode rejects) does **not** abandon the protocol mid-flight —
    /// that would strand the peer ranks at their next collective. The
    /// failing rank keeps participating with empty rounds (receiving and
    /// discarding, `sink` no longer called) until the flags terminate the
    /// exchange globally, then returns the original error; every other
    /// rank completes normally.
    pub fn run(
        &self,
        comm: &mut Comm,
        feed: &mut dyn FnMut(&mut Comm) -> Result<Option<ExchangeRound>>,
        sink: &mut dyn FnMut(&mut Comm, Vec<Vec<u8>>) -> Result<u64>,
    ) -> Result<ExchangeStats> {
        let p = self.p;
        assert_eq!(comm.size(), p, "plan built for a different world size");
        let mut stats = ExchangeStats {
            phases: 1,
            ..Default::default()
        };
        let mut engine = ProgressEngine::new(1);
        let mut local_done = false;
        // First per-rank error; once set, the rank winds the protocol
        // down with empty rounds instead of computing further.
        let mut deferred: Option<CoreError> = None;

        // Round 0 prologue: produce, then the strict blocking two-round
        // sequencing (sizes exchanged and completed before the payload is
        // posted) — with one round this is exactly the historic protocol.
        let (mut batch, more) =
            produce_round(comm, &mut engine, feed, &mut local_done, p, &mut deferred);
        let sreq = comm.labeled("exchange.sizes[round=0]", |c| {
            c.ialltoall_u64(flagged_sizes(&batch, more))
        });
        let incoming = engine.drive(comm, sreq);
        let mut any_more = incoming.iter().any(|&v| v & MORE_BIT != 0);
        let mut expected_sizes: Vec<u64> = incoming.iter().map(|v| v & !MORE_BIT).collect();

        let mut pending: Option<(mvio_msim::Request<Vec<Vec<u8>>>, Vec<u64>)> = None;
        let mut round = 0usize;
        loop {
            stats.records_sent += batch.records.iter().sum::<u64>();
            stats.bytes_sent += batch.bufs.iter().map(|b| b.len() as u64).sum::<u64>();
            stats.rounds += 1;
            // The round index is collective-synchronized (driven by the
            // flags of the previous size exchange), so these labels match
            // across ranks — and make a divergent round count show up in
            // the verifier as a label mismatch, not a silent hang.
            let preq = comm.labeled(&format!("exchange.payload[round={round}]"), |c| {
                c.ialltoallv(std::mem::take(&mut batch).bufs)
            });

            // Pipeline ahead: produce round r+1 and post its size
            // exchange while round r's payload is in flight.
            let sreq_next = if any_more {
                let (next, nmore) =
                    produce_round(comm, &mut engine, feed, &mut local_done, p, &mut deferred);
                let req = comm.labeled(&format!("exchange.sizes[round={}]", round + 1), |c| {
                    c.ialltoall_u64(flagged_sizes(&next, nmore))
                });
                batch = next;
                Some(req)
            } else {
                None
            };

            // Drain round r-1 while round r (and r+1's sizes) fly.
            if let Some((req, expected)) = pending.take() {
                let bufs = engine.drive(comm, req);
                drain_round(comm, bufs, &expected, &mut stats, sink, &mut deferred);
            }

            let Some(req) = sreq_next else {
                let bufs = engine.drive(comm, preq);
                drain_round(comm, bufs, &expected_sizes, &mut stats, sink, &mut deferred);
                break;
            };
            let incoming = engine.drive(comm, req);
            any_more = incoming.iter().any(|&v| v & MORE_BIT != 0);
            let next_sizes = incoming.iter().map(|v| v & !MORE_BIT).collect();
            pending = Some((preq, std::mem::replace(&mut expected_sizes, next_sizes)));
            round += 1;
        }
        if let Some(err) = deferred {
            return Err(err);
        }
        stats.overlapped_compute_s = engine.overlapped_compute();
        stats.exposed_wait_s = engine.exposed_wait();
        Ok(stats)
    }
}

/// Hands one completed round's received buffers to the sink (whose decode
/// is charged to the clock — overlapped with any round still in flight)
/// and folds the byte and record counts into the stats. `expected_sizes`
/// are the byte counts the size exchange advertised for this round — the
/// receive-side cross-check of the two-round protocol. A sink error
/// (corrupt payload, consumer failure) is parked in `deferred` rather
/// than returned, so the caller's protocol loop keeps the collectives
/// matched across ranks; once `deferred` is set, later rounds are
/// received and discarded.
fn drain_round(
    comm: &mut Comm,
    bufs: Vec<Vec<u8>>,
    expected_sizes: &[u64],
    stats: &mut ExchangeStats,
    sink: &mut dyn FnMut(&mut Comm, Vec<Vec<u8>>) -> Result<u64>,
    deferred: &mut Option<CoreError>,
) {
    if deferred.is_some() {
        return; // already failed: receive and discard
    }
    let mut bytes = 0u64;
    for (src, buf) in bufs.iter().enumerate() {
        debug_assert_eq!(
            buf.len() as u64,
            expected_sizes[src],
            "payload from rank {src} disagrees with its advertised size"
        );
        bytes += buf.len() as u64;
    }
    match sink(comm, bufs) {
        Ok(records) => {
            debug_assert!(
                records == 0 || bytes > 0,
                "sink counted {records} records in an empty round"
            );
            stats.records_received += records;
            stats.bytes_received += bytes;
        }
        Err(e) => *deferred = Some(e),
    }
}

/// The owned receive flavour of an [`ExchangePlan::run`] sink:
/// deserializes one completed round's buffers into `(cell, Feature)`
/// pairs per source rank and charges the per-record materialization
/// ([`Work::SerializeGeoms`] — one fixed cost per record plus the byte
/// copy). What the consumers that still hold objects use: ingest and
/// the owned snapshot reload.
/// Not collective — the communicator only charges the decode.
pub fn decode_records(comm: &mut Comm, bufs: &[Vec<u8>]) -> Result<Vec<Vec<(u32, Feature)>>> {
    let mut per_src = Vec::with_capacity(bufs.len());
    let (mut records, mut bytes) = (0u64, 0u64);
    for buf in bufs {
        let recs = deserialize_records(buf)?;
        records += recs.len() as u64;
        bytes += buf.len() as u64;
        per_src.push(recs);
    }
    comm.charge(Work::SerializeGeoms { n: records, bytes });
    Ok(per_src)
}

/// The zero-copy receive flavour of an [`ExchangePlan::run`] sink:
/// [`validate_frames`] over every source's buffer of one completed round,
/// charging only the validation scan over the received bytes
/// ([`Work::CopyBytes`]). Returns the round's record count; afterwards
/// the buffers can be walked with [`record_frames`] or folded into a
/// [`FrameStore`]. What join and serve use.
/// Not collective — the communicator only charges the scan.
pub fn validate_round(comm: &mut Comm, bufs: &[Vec<u8>]) -> Result<u64> {
    let (mut records, mut bytes) = (0u64, 0u64);
    for buf in bufs {
        records += validate_frames(buf)?;
        bytes += buf.len() as u64;
    }
    comm.charge(Work::CopyBytes { n: bytes });
    Ok(records)
}

/// Pulls one round from the feed (empty once this rank is drained or has
/// failed), folding its reported per-lane compute into the clock —
/// overlapped with whatever requests are currently in flight. A feed
/// error is parked in `deferred` and the rank continues with an empty
/// final round, keeping the collective protocol matched across ranks.
fn produce_round(
    comm: &mut Comm,
    engine: &mut ProgressEngine,
    feed: &mut dyn FnMut(&mut Comm) -> Result<Option<ExchangeRound>>,
    local_done: &mut bool,
    p: usize,
    deferred: &mut Option<CoreError>,
) -> (SerializedBatch, bool) {
    let produced = if *local_done || deferred.is_some() {
        None
    } else {
        match feed(comm) {
            Ok(r) => r,
            Err(e) => {
                *deferred = Some(e);
                None
            }
        }
    };
    let (batch, lanes, more) = match produced {
        Some(r) => {
            debug_assert_eq!(r.batch.bufs.len(), p, "round batch shape");
            (r.batch, r.lanes, r.more)
        }
        None => (SerializedBatch::empty(p), Vec::new(), false),
    };
    *local_done = !more;
    for (lane, secs) in lanes.iter().enumerate() {
        engine.charge(lane, *secs);
    }
    engine.flush(comm);
    (batch, more)
}

/// Size-exchange values for one round: byte counts with the continuation
/// flag in the high bit.
fn flagged_sizes(batch: &SerializedBatch, more: bool) -> Vec<u64> {
    let flag = if more { MORE_BIT } else { 0 };
    batch
        .bufs
        .iter()
        .map(|b| {
            debug_assert!((b.len() as u64) < MORE_BIT);
            b.len() as u64 | flag
        })
        .collect()
}

/// Cuts a fully serialized batch into record-aligned per-destination
/// pieces of at most `cap` bytes (a single oversized record still ships
/// whole). Destinations drain independently; the feed ends when every
/// destination is exhausted. With no cap the batch is its own single
/// round.
struct BatchSplitter {
    batch: SerializedBatch,
    /// Per-destination read position (sized on the first capped round).
    offsets: Vec<usize>,
    cap: Option<u64>,
    p: usize,
}

impl BatchSplitter {
    fn next_round(&mut self) -> Result<Option<ExchangeRound>> {
        let p = self.p;
        self.batch.validate(p)?;
        let Some(cap) = self.cap else {
            // Moved out allocation-free; `more: false` ends the feed, so
            // the shapeless batch left behind is never polled.
            return Ok(Some(ExchangeRound {
                batch: std::mem::take(&mut self.batch),
                lanes: Vec::new(),
                more: false,
            }));
        };
        self.offsets.resize(p, 0);
        let mut piece = SerializedBatch::empty(p);
        let mut any = false;
        for d in 0..p {
            let buf = &self.batch.bufs[d];
            let mut pos = self.offsets[d];
            if pos >= buf.len() {
                continue;
            }
            any = true;
            let start = pos;
            let mut records = 0u64;
            while pos < buf.len() {
                let len = record_len_at(buf, pos)?;
                if records > 0 && (pos - start + len) as u64 > cap {
                    break;
                }
                pos += len;
                records += 1;
            }
            piece.bufs[d] = buf[start..pos].to_vec();
            piece.records[d] = records;
            self.offsets[d] = pos;
        }
        if !any {
            return Ok(None);
        }
        let more = self
            .offsets
            .iter()
            .zip(&self.batch.bufs)
            .any(|(&off, buf)| off < buf.len());
        Ok(Some(ExchangeRound {
            batch: piece,
            lanes: Vec::new(),
            more,
        }))
    }
}

/// Single-window exchange of pre-serialized per-destination buffers: the
/// staged `Alltoall` + `Alltoallv` protocol of [`exchange_features`]
/// without the serialization pass, which the caller (the ingest pipeline,
/// the snapshot reader) already performed — and already charged to the
/// clock. Only the receive-side deserialization is charged
/// here. The received pairs come back in source-rank order —
/// bit-identical to the single-round blocking protocol for **any** chunk
/// policy.
/// Collective: every rank must call it with its own batch.
pub fn exchange_serialized_with(
    comm: &mut Comm,
    batch: SerializedBatch,
    opts: &ExchangeOptions,
) -> Result<(Vec<(u32, Feature)>, ExchangeStats)> {
    let plan = ExchangePlan::new(comm, opts);
    let mut collector = PerSourceCollector::new(comm.size());
    let stats = plan.run(comm, &mut batch.into_feed(&plan), &mut |c, bufs| {
        Ok(collector.collect(decode_records(c, &bufs)?))
    })?;
    let mut received = Vec::new();
    collector.drain_into(&mut received);
    Ok((received, stats))
}

/// The zero-copy counterpart of [`exchange_serialized_with`]: same staged
/// protocol, same rounds and collective labels, but the received payloads
/// stay as validated wire buffers in a [`FrameStore`] instead of being
/// materialized into owned [`Feature`]s. The receive side charges only
/// the validation scan ([`Work::CopyBytes`]); record order under
/// [`FrameStore::frames`] is bit-identical to the owned variant's output
/// for every chunk policy.
/// Collective: every rank must call it with its own batch.
pub fn exchange_serialized_frames_with(
    comm: &mut Comm,
    batch: SerializedBatch,
    opts: &ExchangeOptions,
) -> Result<(FrameStore, ExchangeStats)> {
    let plan = ExchangePlan::new(comm, opts);
    let mut store = FrameStore::new(comm.size());
    let stats = plan.run(comm, &mut batch.into_feed(&plan), &mut |c, bufs| {
        let records = validate_round(c, &bufs)?;
        store.collect(bufs, records);
        Ok(records)
    })?;
    Ok((store, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::UniformDecomposition;
    use crate::grid::{CellMap, GridSpec, UniformGrid};
    use mvio_geom::{wkt, Point, Rect};
    use mvio_msim::{Topology, World, WorldConfig};

    fn feature(x: f64, y: f64, ud: &str) -> Feature {
        Feature::with_userdata(mvio_geom::Geometry::Point(Point::new(x, y)), ud)
    }

    /// A `cells × 1` uniform decomposition over a unit-height strip, so
    /// cell ids match the old map-only tests one-to-one.
    fn strip(cells: u32, map: CellMap, ranks: usize) -> UniformDecomposition {
        let grid = UniformGrid::new(
            Rect::new(0.0, 0.0, cells as f64, 1.0),
            GridSpec {
                cells_x: cells,
                cells_y: 1,
            },
        );
        UniformDecomposition::new(grid, map, ranks)
    }

    /// Owned copies of borrowed frames, for comparing against the owned
    /// decode of the same bytes.
    fn materialize<'a>(frames: impl Iterator<Item = RecordFrame<'a>>) -> Vec<(u32, Feature)> {
        frames
            .map(|fr| (fr.cell, fr.to_feature().unwrap()))
            .collect()
    }

    /// Ships `batch` through [`ExchangePlan::run`] under `chunk`, counting
    /// what arrives with the frame validator.
    fn run_plan(
        comm: &mut Comm,
        chunk: ExchangeChunk,
        batch: SerializedBatch,
    ) -> Result<ExchangeStats> {
        let plan = ExchangePlan::new(comm, &ExchangeOptions::with_chunk(chunk));
        plan.run(comm, &mut batch.into_feed(&plan), &mut |c, bufs| {
            validate_round(c, &bufs)
        })
    }

    /// Corrupt frames must surface as typed [`CoreError::Frame`] errors
    /// from the checked decode path — never as a silently truncated
    /// narrowing cast or an out-of-bounds panic.
    #[test]
    fn malformed_frames_are_rejected_with_typed_errors() {
        let mut valid = Vec::new();
        serialize_record(7, &feature(1.0, 2.0, "ud"), &mut Vec::new(), &mut valid).unwrap();

        // Cell word with a corrupted high half: before the checked
        // conversion this truncated back to a plausible cell id.
        let mut high_cell = valid.clone();
        high_cell[4..8].copy_from_slice(&0xdead_beef_u32.to_le_bytes());
        match deserialize_records(&high_cell) {
            Err(CoreError::Frame(m)) => assert!(m.contains("cell-id space"), "{m}"),
            other => panic!("high cell word not rejected: {other:?}"),
        }

        // Geometry length field pointing far past the end of the buffer.
        let mut huge_glen = valid.clone();
        huge_glen[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        match deserialize_records(&huge_glen) {
            Err(CoreError::Frame(m)) => assert!(m.contains("truncated geometry"), "{m}"),
            other => panic!("oversized geometry length not rejected: {other:?}"),
        }
        match record_len_at(&huge_glen, 0) {
            Err(CoreError::Frame(m)) => assert!(m.contains("truncated geometry"), "{m}"),
            other => panic!("record_len_at accepted oversized length: {other:?}"),
        }

        // Frames cut off mid-header and mid-userdata.
        for cut in [5, valid.len() - 1] {
            assert!(
                matches!(deserialize_records(&valid[..cut]), Err(CoreError::Frame(_))),
                "truncation at {cut} not rejected"
            );
            assert!(
                matches!(record_len_at(&valid[..cut], 0), Err(CoreError::Frame(_))),
                "record_len_at accepted truncation at {cut}"
            );
        }

        // The intact frame still decodes.
        let out = deserialize_records(&valid).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 7);
    }

    #[test]
    fn record_round_trip() {
        let f = Feature::with_userdata(
            wkt::parse("POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))").unwrap(),
            "name=park",
        );
        let mut buf = Vec::new();
        serialize_record(42, &f, &mut Vec::new(), &mut buf).unwrap();
        let out = deserialize_records(&buf).unwrap();
        assert_eq!(out, vec![(42, f)]);
    }

    #[test]
    fn serialize_frame_re_emits_the_record_bytes() {
        let mut buf = Vec::new();
        let poly = Feature::with_userdata(
            wkt::parse("POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))").unwrap(),
            "name=park",
        );
        serialize_record(42, &poly, &mut Vec::new(), &mut buf).unwrap();
        serialize_record(7, &feature(1.0, 2.0, ""), &mut Vec::new(), &mut buf).unwrap();
        validate_frames(&buf).unwrap();
        let mut out = Vec::new();
        let mut len = 0;
        for frame in record_frames(&buf) {
            len += frame.wire_len();
            serialize_frame(&frame, &mut out).unwrap();
        }
        assert_eq!(out, buf);
        assert_eq!(len, buf.len());
    }

    #[test]
    fn deserialize_rejects_truncation() {
        let f = feature(1.0, 2.0, "x");
        let mut buf = Vec::new();
        serialize_record(1, &f, &mut Vec::new(), &mut buf).unwrap();
        for cut in [1, 8, 13, buf.len() - 1] {
            assert!(deserialize_records(&buf[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn record_len_walks_the_wire_format() {
        let mut buf = Vec::new();
        let mut lens = Vec::new();
        for i in 0..5 {
            let before = buf.len();
            let f = feature(i as f64, 0.0, &"u".repeat(i));
            serialize_record(i as u32, &f, &mut Vec::new(), &mut buf).unwrap();
            lens.push(buf.len() - before);
        }
        let mut pos = 0;
        for expect in lens {
            assert_eq!(record_len_at(&buf, pos).unwrap(), expect);
            pos += expect;
        }
        assert_eq!(pos, buf.len());
        assert!(record_len_at(&buf, buf.len() - 3).is_err());
    }

    #[test]
    fn exchange_routes_pairs_to_cell_owners() {
        let num_cells = 8;
        let out = World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
            let decomp = strip(num_cells, CellMap::RoundRobin, comm.size());
            // Every rank produces one pair for every cell.
            let pairs: Vec<(u32, Feature)> = (0..num_cells)
                .map(|c| {
                    (
                        c,
                        feature(c as f64, comm.rank() as f64, &format!("r{}", comm.rank())),
                    )
                })
                .collect();
            let (mine, stats) =
                exchange_features(comm, pairs, &decomp, &ExchangeOptions::default()).unwrap();
            (mine, stats)
        });
        for (rank, (mine, stats)) in out.iter().enumerate() {
            // Round-robin: rank owns cells c with c % 4 == rank; 2 cells
            // each, with contributions from all 4 ranks.
            assert_eq!(mine.len(), 2 * 4, "rank {rank}");
            assert!(mine.iter().all(|(c, _)| (*c as usize) % 4 == rank));
            assert_eq!(stats.records_sent, 8);
            assert_eq!(stats.records_received, 8);
            assert!(stats.bytes_sent > 0);
        }
    }

    /// The tentpole oracle at unit scale: for any chunk size the chunked
    /// plan returns exactly the blocking result — same pairs, same order.
    #[test]
    fn chunked_exchange_is_bit_identical_to_blocking() {
        let num_cells = 10;
        let run = |chunk: ExchangeChunk| {
            World::run(WorldConfig::new(Topology::single_node(3)), move |comm| {
                let decomp = strip(num_cells, CellMap::RoundRobin, comm.size());
                let pairs: Vec<(u32, Feature)> = (0..num_cells)
                    .map(|c| {
                        (
                            c,
                            feature(
                                c as f64,
                                comm.rank() as f64,
                                &format!("rank{}cell{c}payload-padding", comm.rank()),
                            ),
                        )
                    })
                    .collect();
                let opts = ExchangeOptions::with_chunk(chunk);
                exchange_features(comm, pairs, &decomp, &opts).unwrap()
            })
        };
        let blocking = run(ExchangeChunk::Unlimited);
        for chunk in [1u64, 40, 100, 1 << 20] {
            let chunked = run(ExchangeChunk::Bytes(chunk));
            for rank in 0..3 {
                assert_eq!(
                    chunked[rank].0, blocking[rank].0,
                    "chunk={chunk} rank={rank}"
                );
            }
            // Tiny chunks must actually produce multiple rounds.
            if chunk == 1 {
                assert!(chunked[0].1.rounds > 1, "1-byte cap must multi-round");
            }
            // Conservation holds per chunking too.
            let sent: u64 = chunked.iter().map(|(_, s)| s.records_sent).sum();
            let recv: u64 = chunked.iter().map(|(_, s)| s.records_received).sum();
            assert_eq!(sent, recv);
        }
        assert_eq!(blocking[0].1.rounds, 1);
    }

    /// With the unlimited chunk the plan must not change the virtual
    /// clock relative to the historic blocking protocol (which is now
    /// implemented *as* the degenerate plan — this pins the equivalence).
    #[test]
    fn degenerate_plan_has_one_round_and_single_sizes_exchange() {
        let out = World::run(WorldConfig::new(Topology::single_node(2)), |comm| {
            let decomp = strip(4, CellMap::RoundRobin, comm.size());
            let pairs: Vec<(u32, Feature)> =
                (0..4).map(|c| (c, feature(c as f64, 0.0, "x"))).collect();
            let opts = ExchangeOptions::with_chunk(ExchangeChunk::Unlimited);
            let (_, stats) = exchange_features(comm, pairs, &decomp, &opts).unwrap();
            (stats.rounds, comm.now())
        });
        assert_eq!(out[0].0, 1);
        assert!(out[0].1 > 0.0);
    }

    #[test]
    fn ranks_with_unequal_round_counts_terminate_together() {
        // Rank 0 sends a lot (many rounds), rank 1 sends nothing: the
        // continuation flags must keep rank 1 participating.
        let out = World::run(WorldConfig::new(Topology::single_node(2)), |comm| {
            let decomp = strip(6, CellMap::Block, comm.size());
            let pairs: Vec<(u32, Feature)> = if comm.rank() == 0 {
                (0..6)
                    .flat_map(|c| {
                        (0..4).map(move |i| (c, feature(c as f64, i as f64, "data-0123456789")))
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let opts = ExchangeOptions::with_chunk(ExchangeChunk::Bytes(64));
            let (mine, stats) = exchange_features(comm, pairs, &decomp, &opts).unwrap();
            (mine.len(), stats.rounds)
        });
        // 24 pairs, block map: cells 0..3 -> rank 0, 3..6 -> rank 1.
        assert_eq!(out[0].0 + out[1].0, 24);
        // Both ranks executed the same number of rounds.
        assert_eq!(out[0].1, out[1].1);
        assert!(out[0].1 > 1, "64-byte cap must take multiple rounds");
    }

    #[test]
    fn batch_shape_mismatch_is_a_typed_error() {
        let out = World::run(WorldConfig::new(Topology::single_node(2)), |comm| {
            // Batch sized for a 3-rank world on a 2-rank communicator.
            let bad = SerializedBatch::empty(3);
            match run_plan(comm, ExchangeChunk::Unlimited, bad) {
                Err(CoreError::BatchShape {
                    comm_size, bufs, ..
                }) => (comm_size, bufs),
                other => panic!("expected BatchShape error, got {other:?}"),
            }
        });
        assert_eq!(out, vec![(2, 3), (2, 3)]);
        // Mismatched records length alone is also caught.
        let out = World::run(WorldConfig::new(Topology::single_node(1)), |comm| {
            let bad = SerializedBatch {
                bufs: vec![Vec::new()],
                records: vec![0, 0],
            };
            matches!(
                run_plan(comm, ExchangeChunk::Bytes(8), bad),
                Err(CoreError::BatchShape { .. })
            )
        });
        assert!(out[0]);
    }

    /// A per-rank failure mid-plan must propagate as a typed error on
    /// the failing rank while every other rank completes normally — not
    /// strand the peers at their next collective (which would hang the
    /// world).
    #[test]
    fn per_rank_feed_error_does_not_strand_peers() {
        let out = World::run(WorldConfig::new(Topology::single_node(2)), |comm| {
            let plan =
                ExchangePlan::new(comm, &ExchangeOptions::with_chunk(ExchangeChunk::Bytes(32)));
            if comm.rank() == 0 {
                // Rank 0's producer fails on its second round while rank 1
                // still has rounds to send.
                let mut calls = 0;
                let mut feed = |_: &mut Comm| {
                    calls += 1;
                    if calls == 1 {
                        let mut batch = SerializedBatch::empty(2);
                        serialize_record(
                            0,
                            &feature(0.0, 0.0, "a"),
                            &mut Vec::new(),
                            &mut batch.bufs[0],
                        )
                        .unwrap();
                        batch.records[0] = 1;
                        Ok(Some(ExchangeRound {
                            batch,
                            lanes: vec![],
                            more: true,
                        }))
                    } else {
                        Err(CoreError::Partition("injected feed failure".into()))
                    }
                };
                let res = plan.run(comm, &mut feed, &mut |c, bufs| validate_round(c, &bufs));
                matches!(res, Err(CoreError::Partition(m)) if m.contains("injected")) as usize
            } else {
                // Rank 1 sends three full rounds; it must complete cleanly.
                let mut pairs = Vec::new();
                for i in 0..6 {
                    pairs.push((i % 2, feature(i as f64, 0.0, "0123456789abcdef")));
                }
                let decomp = strip(2, CellMap::RoundRobin, comm.size());
                let (mine, stats) = exchange_features(
                    comm,
                    pairs,
                    &decomp,
                    &ExchangeOptions::with_chunk(ExchangeChunk::Bytes(32)),
                )
                .unwrap();
                assert!(stats.rounds > 1);
                mine.len()
            }
        });
        assert_eq!(out[0], 1, "rank 0 must surface the injected error");
        assert!(out[1] >= 3, "rank 1 must receive its own cell-1 pairs");
    }

    /// A corrupt pre-serialized buffer on one rank errors there and
    /// completes everywhere else.
    #[test]
    fn corrupt_batch_errors_without_hanging_the_world() {
        let out = World::run(WorldConfig::new(Topology::single_node(2)), |comm| {
            let mut batch = SerializedBatch::empty(2);
            if comm.rank() == 0 {
                batch.bufs[1] = vec![0xFF; 7]; // truncated garbage
                batch.records[1] = 1;
            } else {
                serialize_record(
                    1,
                    &feature(1.0, 1.0, "fine"),
                    &mut Vec::new(),
                    &mut batch.bufs[1],
                )
                .unwrap();
                batch.records[1] = 1;
            }
            run_plan(comm, ExchangeChunk::Bytes(16), batch).is_err()
        });
        // Rank 0's splitter rejects the corrupt buffer; rank 1 receives
        // only well-formed data and succeeds.
        assert_eq!(out, vec![true, false]);
    }

    #[test]
    fn chunk_resolution() {
        assert_eq!(ExchangeChunk::Unlimited.resolve(), None);
        assert_eq!(ExchangeChunk::Bytes(4096).resolve(), Some(4096));
        assert_eq!(ExchangeChunk::Bytes(0).resolve(), Some(1), "clamped");
    }

    #[test]
    fn sliding_window_preserves_results() {
        let num_cells = 16;
        let single = World::run(WorldConfig::new(Topology::single_node(4)), move |comm| {
            let decomp = strip(num_cells, CellMap::RoundRobin, comm.size());
            let pairs: Vec<(u32, Feature)> = (0..num_cells)
                .map(|c| (c, feature(c as f64, 0.0, "")))
                .collect();
            let (mut mine, stats) =
                exchange_features(comm, pairs, &decomp, &ExchangeOptions::default()).unwrap();
            mine.sort_by_key(|(c, _)| *c);
            (mine, stats.phases)
        });
        let windowed = World::run(WorldConfig::new(Topology::single_node(4)), move |comm| {
            let decomp = strip(num_cells, CellMap::RoundRobin, comm.size());
            let pairs: Vec<(u32, Feature)> = (0..num_cells)
                .map(|c| (c, feature(c as f64, 0.0, "")))
                .collect();
            let opts = ExchangeOptions {
                windows: 4,
                ..Default::default()
            };
            let (mut mine, stats) = exchange_features(comm, pairs, &decomp, &opts).unwrap();
            mine.sort_by_key(|(c, _)| *c);
            (mine, stats.phases)
        });
        for rank in 0..4 {
            assert_eq!(single[rank].0, windowed[rank].0, "rank {rank}");
        }
        assert_eq!(single[0].1, 1);
        assert_eq!(windowed[0].1, 4);
    }

    /// Pins the exact output ordering of the historic protocol: windows
    /// in order, and source-rank order within each window — for the
    /// blocking and the chunked plan alike. (The sorted comparisons in
    /// the other window tests would not notice a reordering.)
    #[test]
    fn windowed_output_order_is_window_major_then_source_major() {
        for chunk in [ExchangeChunk::Unlimited, ExchangeChunk::Bytes(32)] {
            let out = World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
                let decomp = strip(4, CellMap::RoundRobin, comm.size());
                // Every rank sends one pair per cell, tagged with origin.
                let pairs: Vec<(u32, Feature)> = (0..4)
                    .map(|c| (c, feature(c as f64, 0.0, &format!("r{}", comm.rank()))))
                    .collect();
                let opts = ExchangeOptions { windows: 2, chunk };
                let (mine, _) = exchange_features(comm, pairs, &decomp, &opts).unwrap();
                mine.iter()
                    .map(|(c, f)| format!("{c}:{}", f.userdata))
                    .collect::<Vec<_>>()
            });
            // Rank 0 owns cells 0 and 2; window 0 covers cells 0..2,
            // window 1 covers 2..4. Within each window: src 0 then src 1.
            assert_eq!(out[0], vec!["0:r0", "0:r1", "2:r0", "2:r1"], "{chunk:?}");
            assert_eq!(out[1], vec!["1:r0", "1:r1", "3:r0", "3:r1"], "{chunk:?}");
        }
    }

    #[test]
    fn empty_exchange_is_fine() {
        let out = World::run(WorldConfig::new(Topology::single_node(3)), |comm| {
            let decomp = strip(8, CellMap::RoundRobin, comm.size());
            let (mine, stats) =
                exchange_features(comm, vec![], &decomp, &ExchangeOptions::default()).unwrap();
            (mine.len(), stats.bytes_sent)
        });
        assert!(out.iter().all(|&(n, b)| n == 0 && b == 0));
    }

    #[test]
    fn block_map_exchange() {
        let num_cells = 12;
        let out = World::run(WorldConfig::new(Topology::single_node(3)), move |comm| {
            let decomp = strip(num_cells, CellMap::Block, comm.size());
            let pairs: Vec<(u32, Feature)> = (0..num_cells)
                .map(|c| (c, feature(c as f64, 0.0, "")))
                .collect();
            let (mine, _) =
                exchange_features(comm, pairs, &decomp, &ExchangeOptions::default()).unwrap();
            let mut cells: Vec<u32> = mine.iter().map(|(c, _)| *c).collect();
            cells.sort_unstable();
            cells.dedup();
            cells
        });
        // Block map: rank 0 owns 0..4, rank 1 owns 4..8, rank 2 owns 8..12.
        assert_eq!(out[0], vec![0, 1, 2, 3]);
        assert_eq!(out[1], vec![4, 5, 6, 7]);
        assert_eq!(out[2], vec![8, 9, 10, 11]);
    }

    /// Satellite oracle: walking a buffer with [`record_frames`] and
    /// materializing each frame must reproduce `deserialize_records`
    /// exactly — cells, geometries (all shape classes) and userdata.
    #[test]
    fn record_frames_match_deserialize_records() {
        let mut buf = Vec::new();
        let wkts = [
            "POINT (3 4)",
            "LINESTRING (0 0, 1 1, 2 0)",
            "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 2 1, 2 2, 1 2, 1 1))",
            "MULTIPOINT ((1 2), (3 4))",
            "MULTILINESTRING ((0 0, 1 1), (2 2, 3 3, 4 4))",
            "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)), ((5 5, 6 5, 6 6, 5 5)))",
        ];
        for (i, w) in wkts.iter().enumerate() {
            let f = Feature::with_userdata(wkt::parse(w).unwrap(), format!("id={i}"));
            serialize_record(i as u32, &f, &mut Vec::new(), &mut buf).unwrap();
        }
        assert_eq!(validate_frames(&buf).unwrap(), wkts.len() as u64);
        let owned = deserialize_records(&buf).unwrap();
        assert_eq!(owned, materialize(record_frames(&buf)));
    }

    /// Corruption anywhere in a buffer must fail [`validate_frames`] with
    /// the same typed error the owned decoder produces — the zero-copy
    /// path may skip materialization, never checking.
    #[test]
    fn validate_frames_rejects_what_deserialize_rejects() {
        let mut buf = Vec::new();
        let f = Feature::with_userdata(wkt::parse("LINESTRING (0 0, 5 5)").unwrap(), "ud");
        serialize_record(3, &f, &mut Vec::new(), &mut buf).unwrap();
        serialize_record(4, &feature(1.0, 2.0, "x"), &mut Vec::new(), &mut buf).unwrap();

        // Every truncation point fails both decoders.
        for cut in 0..buf.len() {
            if cut == 0 {
                continue; // empty buffer is trivially valid for both
            }
            let owned = deserialize_records(&buf[..cut]);
            let frames = validate_frames(&buf[..cut]);
            assert_eq!(owned.is_err(), frames.is_err(), "cut {cut}");
        }

        // Geometry byte corruption (WKB type code) fails both, same error.
        let mut bad_type = buf.clone();
        bad_type[13] = 99; // type code low byte inside the first WKB body
        let owned = deserialize_records(&bad_type).unwrap_err();
        let frames = validate_frames(&bad_type).unwrap_err();
        assert_eq!(owned.to_string(), frames.to_string());

        // Non-UTF8 userdata fails both.
        let mut bad_ud = buf.clone();
        let ud_at = buf.len() - 1; // last byte of the trailing "x" userdata
        bad_ud[ud_at] = 0xff;
        assert!(deserialize_records(&bad_ud).is_err());
        assert!(validate_frames(&bad_ud).is_err());
    }

    /// A valid four-record buffer covering the record shapes — empty and
    /// non-ASCII userdata, a ring with a hole, a nested collection — with
    /// its decoded form and the offset every record starts at.
    fn sample_records() -> (Vec<u8>, Vec<(u32, Feature)>, Vec<usize>) {
        let records: Vec<(u32, Feature)> = [
            (7, "POINT (1 2)", "name=a"),
            (
                0,
                "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 2 1, 2 2, 1 2, 1 1))",
                "",
            ),
            (u32::MAX, "LINESTRING (0 0, 5 5, 9 1)", "δ"),
            (
                3,
                "GEOMETRYCOLLECTION (POINT (4 1), MULTIPOINT ((1 2), (3 4)))",
                "x",
            ),
        ]
        .into_iter()
        .map(|(cell, g, ud)| (cell, Feature::with_userdata(wkt::parse(g).unwrap(), ud)))
        .collect();
        let (mut buf, mut starts) = (Vec::new(), Vec::new());
        for (cell, f) in &records {
            starts.push(buf.len());
            serialize_record(*cell, f, &mut Vec::new(), &mut buf).unwrap();
        }
        (buf, records, starts)
    }

    /// ROADMAP item 7(b) for the record format (`docs/FORMAT.md` §1):
    /// whatever is done to a valid buffer, [`validate_frames`] answers
    /// with a typed error or accepts — and what it accepts,
    /// [`record_frames`] walks and decodes without a panic (an arithmetic
    /// overflow under debug assertions included), in agreement with the
    /// owned decoder. Resident state trusts its bytes after this one
    /// check.
    #[test]
    fn frame_validator_survives_every_mutation() {
        let (valid, records, starts) = sample_records();
        let check = |buf: &[u8]| -> Option<Vec<(u32, Feature)>> {
            let owned = deserialize_records(buf);
            match validate_frames(buf) {
                Ok(n) => {
                    let walked = materialize(record_frames(buf));
                    assert_eq!(walked.len() as u64, n);
                    // Compared as text: a mutated point may hold a NaN.
                    assert_eq!(format!("{:?}", owned.unwrap()), format!("{walked:?}"));
                    Some(walked)
                }
                Err(CoreError::Frame(_) | CoreError::Parse { .. }) => {
                    assert!(owned.is_err(), "only the frame validator rejects");
                    None
                }
                Err(other) => panic!("untyped validator error: {other:?}"),
            }
        };
        assert_eq!(check(&valid).unwrap(), records);

        // Truncation at every offset: a cut between records is the valid
        // prefix, any other cut is an error.
        for cut in 0..valid.len() {
            let got = check(&valid[..cut]);
            match starts.iter().position(|&s| s == cut) {
                Some(whole) => assert_eq!(got.unwrap(), records[..whole], "cut {cut}"),
                None => assert!(got.is_none(), "cut {cut} inside a record parsed"),
            }
        }

        let u32_at = |buf: &[u8], at: usize| {
            u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()) as usize
        };
        for (r, &start) in starts.iter().enumerate() {
            let glen = u32_at(&valid, start + 8);
            let (wkb_at, ulen_at) = (start + 12, start + 12 + glen);

            // The cell word: every u32 value is a cell, anything above is
            // an error — never a truncated alias.
            let cell = u64::from(records[r].0);
            for word in [
                0,
                u64::MAX,
                cell.wrapping_add(1),
                cell.wrapping_sub(1),
                1 << 32,
            ] {
                let mut buf = valid.clone();
                buf[start..start + 8].copy_from_slice(&word.to_le_bytes());
                match (check(&buf), u32::try_from(word)) {
                    (Some(got), Ok(cell)) => {
                        assert_eq!(got[r].0, cell);
                        assert_eq!(got[r].1, records[r].1);
                    }
                    (None, Err(_)) => {}
                    (got, _) => panic!("record {r} cell word {word:#x}: {got:?}"),
                }
            }

            // Both length fields, and every u32 window inside the geometry
            // (its type words, its ring, point and member counts, and —
            // harmlessly — halves of coordinates): a wrong length field
            // may never reproduce the original parse.
            let words = (wkb_at + 1..ulen_at.saturating_sub(3)).chain([start + 8, ulen_at]);
            for at in words {
                let len = u32::from_le_bytes(valid[at..at + 4].try_into().unwrap());
                for value in [0, u32::MAX, len.wrapping_add(1), len.wrapping_sub(1)] {
                    let mut buf = valid.clone();
                    buf[at..at + 4].copy_from_slice(&value.to_le_bytes());
                    let got = check(&buf);
                    if (at == start + 8 || at == ulen_at) && value != len {
                        assert_ne!(got.as_ref(), Some(&records), "field at {at} := {value}");
                    }
                }
            }

            // The WKB byte-order marker: big-endian reinterprets every
            // word after it, anything else is no marker at all.
            for marker in [0u8, 2, 0xFF] {
                let mut buf = valid.clone();
                buf[wkb_at] = marker;
                assert_ne!(
                    check(&buf).as_ref(),
                    Some(&records),
                    "record {r} marker {marker}"
                );
            }
            // The type word: the seven codes and one past them.
            for code in 0u32..=8 {
                let mut buf = valid.clone();
                buf[wkb_at + 1..wkb_at + 5].copy_from_slice(&code.to_le_bytes());
                check(&buf);
            }

            // Non-UTF-8 userdata (records with any).
            let ulen = u32_at(&valid, ulen_at);
            if ulen > 0 {
                let mut buf = valid.clone();
                buf[ulen_at + 4] = 0xFF;
                assert!(
                    check(&buf).is_none(),
                    "record {r}: non-UTF-8 userdata accepted"
                );
            }
        }

        // Splices: the head of one record run into the tail of another,
        // at every pair of offsets inside the first two records.
        let (a, b) = (&valid[..starts[1]], &valid[starts[1]..starts[2]]);
        for i in 0..=a.len() {
            for j in 0..=b.len() {
                check(&[&a[..i], &b[j..]].concat());
            }
        }
        // Whole valid records in any order still parse, to their sum.
        let swapped = [b, a].concat();
        let got = check(&swapped).unwrap();
        assert_eq!(got, vec![records[1].clone(), records[0].clone()]);
    }

    /// The zero-copy exchange is the owned exchange, bit for bit: same
    /// records in the same order, for blocking and chunked policies and
    /// any window count — only the receive-side representation differs.
    #[test]
    fn frames_exchange_is_bit_identical_to_owned() {
        let num_cells = 6;
        for chunk in [ExchangeChunk::Unlimited, ExchangeChunk::Bytes(48)] {
            for windows in [1u32, 3] {
                let out = World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
                    let mk_pairs = |rank: usize| -> Vec<(u32, Feature)> {
                        (0..num_cells)
                            .map(|c| (c, feature(c as f64, rank as f64, "0123456789abcdef")))
                            .collect()
                    };
                    let decomp = strip(num_cells, CellMap::RoundRobin, comm.size());
                    let opts = ExchangeOptions { windows, chunk };
                    let (stores, fstats) = exchange_features_frames_windows(
                        comm,
                        mk_pairs(comm.rank()),
                        &decomp,
                        &opts,
                    )
                    .unwrap();
                    let (owned, ostats) =
                        exchange_features(comm, mk_pairs(comm.rank()), &decomp, &opts).unwrap();
                    (stores, owned, fstats, ostats)
                });
                for (stores, owned, fstats, ostats) in out {
                    assert_eq!(stores.len(), windows as usize, "{chunk:?}");
                    let held: u64 = stores.iter().map(FrameStore::records).sum();
                    assert_eq!(held, owned.len() as u64);
                    let materialized = materialize(stores.iter().flat_map(FrameStore::frames));
                    assert_eq!(materialized, owned, "{chunk:?} windows={windows}");
                    // Same wire traffic, same rounds; only the receive-side
                    // compute model differs.
                    assert_eq!(fstats.bytes_received, ostats.bytes_received);
                    assert_eq!(fstats.records_received, ostats.records_received);
                    assert_eq!(fstats.rounds, ostats.rounds);
                    if chunk != ExchangeChunk::Unlimited {
                        assert!(fstats.rounds > 1, "48-byte cap must multi-round");
                    }
                }
            }
        }
    }

    /// [`exchange_serialized_frames_with`] mirrors
    /// [`exchange_serialized_with`] — the single-window entry point used
    /// by the snapshot read path.
    #[test]
    fn serialized_frames_exchange_matches_owned() {
        for chunk in [ExchangeChunk::Unlimited, ExchangeChunk::Bytes(64)] {
            let out = World::run(WorldConfig::new(Topology::single_node(3)), move |comm| {
                let mk_batch = |rank: usize, p: usize| -> SerializedBatch {
                    let mut batch = SerializedBatch::empty(p);
                    for dst in 0..p {
                        for i in 0..3u32 {
                            let f = feature(rank as f64, i as f64, &format!("r{rank}d{dst}i{i}"));
                            serialize_record(dst as u32, &f, &mut Vec::new(), &mut batch.bufs[dst])
                                .unwrap();
                            batch.records[dst] += 1;
                        }
                    }
                    batch
                };
                let opts = ExchangeOptions { windows: 1, chunk };
                let p = comm.size();
                let (store, _) =
                    exchange_serialized_frames_with(comm, mk_batch(comm.rank(), p), &opts).unwrap();
                let (owned, _) =
                    exchange_serialized_with(comm, mk_batch(comm.rank(), p), &opts).unwrap();
                (materialize(store.frames()), owned)
            });
            for (materialized, owned) in out {
                assert_eq!(materialized, owned, "{chunk:?}");
            }
        }
    }
}
