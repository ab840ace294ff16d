//! MPI-IO over the simulated parallel filesystem: the paper's three access
//! levels.
//!
//! | Level | Pattern        | Mode        | Entry point                  | Two-phase fragments          |
//! |-------|----------------|-------------|------------------------------|------------------------------|
//! | 0     | contiguous     | independent | [`MpiFile::read_at`]         | — (one timed pfs request)    |
//! | 1     | contiguous     | collective  | [`MpiFile::read_at_all`]     | the one `(offset, len)`      |
//! | 3     | non-contiguous | collective  | [`MpiFile::read_all`] (view) | [`FileView::fragments`]      |
//!
//! The writes mirror the reads ([`MpiFile::write_at`],
//! [`MpiFile::write_at_all`], [`MpiFile::write_all`]). Every collective
//! call runs **one two-phase engine**, the ROMIO scheme of Thakur, Gropp
//! and Lusk: the ranks allgather their file fragments, a subset of ranks
//! (*aggregators*, at most one per node) own stripe-aligned contiguous
//! file domains over the fragments' union extent and read or flush them
//! in `cb_buffer_size` cycles through one deterministic pfs batch, and
//! the bytes travel between ranks and aggregators as real point-to-point
//! messages — one per (rank, aggregator) pair, holding the rank's
//! fragments ∩ that domain in fragment order. A view call adds its
//! datatype processing on the rank. On Lustre the aggregator count
//! follows the divisor rule the paper reports (§5.1.1): when the stripe
//! count is at least the node count, the number of readers is the
//! largest divisor of the stripe count that is ≤ the node count — which
//! is why 24 nodes reading a 64-OST file get only 16 readers and
//! Figure 11 shows cliffs at 24, 48 and 72 nodes.

use crate::comm::Comm;
use crate::datatype::Datatype;
use crate::hints::{Hints, ROMIO_MAX_IO_BYTES};
use crate::time::CostModel;
use crate::{MsimError, Result};
use mvio_pfs::{FsKind, IoRequest, SimFile, SimFs};
use std::borrow::Cow;
use std::sync::Arc;

/// The three MPI-IO access levels the paper benchmarks (its Table 1; the
/// unused "Level 2" — non-contiguous independent — is omitted there too).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessLevel {
    /// Contiguous + independent (`MPI_File_read_at`).
    Level0,
    /// Contiguous + collective (`MPI_File_read_at_all`).
    Level1,
    /// Non-contiguous + collective (file view + `MPI_File_read_all`).
    Level3,
}

impl AccessLevel {
    /// Human-readable description matching the paper's Table 1.
    pub fn describe(self) -> &'static str {
        match self {
            AccessLevel::Level0 => "contiguous and independent",
            AccessLevel::Level1 => "contiguous and collective",
            AccessLevel::Level3 => "non-contiguous and collective",
        }
    }
}

/// A file view: displacement + an elementary type + a (possibly gapped)
/// filetype tiled across the file, exactly `MPI_File_set_view`.
#[derive(Debug, Clone)]
pub struct FileView {
    /// Byte displacement where the view begins.
    pub disp: u64,
    /// The filetype tiled from `disp` onward.
    pub filetype: Datatype,
}

impl FileView {
    /// Creates a view after validating the datatype.
    pub fn new(disp: u64, filetype: Datatype) -> Result<Self> {
        filetype.validate()?;
        Ok(FileView { disp, filetype })
    }

    /// Absolute `(offset, len)` fragments covering `payload` bytes of
    /// visible data, starting `skip_instances` filetype instances into the
    /// view (each rank typically skips `rank` instances for round-robin
    /// layouts).
    pub fn fragments(
        &self,
        skip_instances: u64,
        stride_instances: u64,
        payload: usize,
    ) -> Vec<(u64, u64)> {
        let ext = self.filetype.extent() as u64;
        let size = self.filetype.size();
        let inner = self.filetype.fragments();
        let mut out = Vec::new();
        let mut remaining = payload;
        let mut instance = skip_instances;
        while remaining > 0 {
            let base = self.disp + instance * ext;
            for &(off, len) in &inner {
                if remaining == 0 {
                    break;
                }
                let take = len.min(remaining);
                out.push((base + off as u64, take as u64));
                remaining -= take;
            }
            instance += stride_instances;
            if size == 0 {
                break; // degenerate filetype; avoid infinite loop
            }
        }
        out
    }
}

/// An open MPI file handle bound to one simulated filesystem.
pub struct MpiFile {
    fs: Arc<SimFs>,
    file: Arc<SimFile>,
    hints: Hints,
    view: Option<FileView>,
}

impl MpiFile {
    /// Opens an existing file (the `MPI_File_open` analogue; call it from
    /// every rank — it is cheap and local in the simulator).
    pub fn open(fs: &Arc<SimFs>, path: &str, hints: Hints) -> Result<Self> {
        let file = fs.open(path)?;
        Ok(MpiFile {
            fs: Arc::clone(fs),
            file,
            hints,
            view: None,
        })
    }

    /// The underlying simulated file.
    pub fn file(&self) -> &Arc<SimFile> {
        &self.file
    }

    /// File length in bytes.
    pub fn len(&self) -> u64 {
        self.file.len()
    }

    /// `true` when the file is empty.
    pub fn is_empty(&self) -> bool {
        self.file.is_empty()
    }

    /// The hints this handle was opened with.
    pub fn hints(&self) -> Hints {
        self.hints
    }

    /// Sets the file view for Level-3 access (`MPI_File_set_view`).
    pub fn set_view(&mut self, view: FileView) {
        self.view = Some(view);
    }

    fn check_count(len: u64) -> Result<()> {
        if len > ROMIO_MAX_IO_BYTES {
            Err(MsimError::CountOverflow { requested: len })
        } else {
            Ok(())
        }
    }

    // ----- Level 0: contiguous + independent ------------------------------

    /// `MPI_File_read_at`: independent contiguous read. Returns bytes read
    /// (short at EOF). Advances the rank's clock by the modelled I/O time.
    /// Independent (not collective): any rank may call it alone.
    pub fn read_at(&self, comm: &mut Comm, offset: u64, buf: &mut [u8]) -> Result<usize> {
        Self::check_count(buf.len() as u64)?;
        let done = self.file.read_at(offset, buf, &comm.io_ctx())?;
        comm.advance_to(done.completion);
        Ok(done.bytes as usize)
    }

    /// `MPI_File_write_at`: independent contiguous write.
    /// Independent (not collective): any rank may call it alone.
    pub fn write_at(&self, comm: &mut Comm, offset: u64, buf: &[u8]) -> Result<usize> {
        Self::check_count(buf.len() as u64)?;
        let done = self.file.write_at(offset, buf, &comm.io_ctx())?;
        comm.advance_to(done.completion);
        Ok(done.bytes as usize)
    }

    // ----- Level 1: contiguous + collective -------------------------------

    /// `MPI_File_read_at_all`: collective contiguous read, the two-phase
    /// engine over the one fragment `(offset, buf.len())`. All ranks must
    /// call it; per-rank `(offset, buf)` may differ (zero-length
    /// participation is allowed, as in Algorithm 1's last iteration).
    /// Returns bytes read into `buf`, short at end-of-file exactly like
    /// [`MpiFile::read_at`].
    pub fn read_at_all(&self, comm: &mut Comm, offset: u64, buf: &mut [u8]) -> Result<usize> {
        Self::check_count(buf.len() as u64)?;
        Ok(self.two_phase_read(comm, &[(offset, buf.len() as u64)], buf))
    }

    /// `MPI_File_write_at_all`: collective contiguous write, the two-phase
    /// engine over the one fragment `(offset, buf.len())`. The paper needs
    /// this for "the output … written to a single file in which the
    /// storage order corresponds to that of the global grid data layout".
    /// Collective: every rank must call it, possibly with an empty buffer.
    pub fn write_at_all(&self, comm: &mut Comm, offset: u64, buf: &[u8]) -> Result<usize> {
        Self::check_count(buf.len() as u64)?;
        self.two_phase_write(comm, &[(offset, buf.len() as u64)], buf);
        Ok(buf.len())
    }

    // ----- Level 3: non-contiguous + collective ---------------------------

    /// `MPI_File_read_all` through the current file view: non-contiguous
    /// collective read. Each rank reads `buf.len()` payload bytes from its
    /// view fragments, where the rank's instances are
    /// `skip + k·stride` for `k = 0, 1, …` (round-robin block
    /// distribution: `skip = rank`, `stride = size`). The two-phase
    /// engine runs over the fragments, then the rank pays the view's
    /// datatype processing: one message latency plus 2 µs per fragment
    /// and a byte copy per byte. Returns the bytes delivered (short at
    /// end-of-file). Collective: every rank must call it.
    pub fn read_all(
        &self,
        comm: &mut Comm,
        skip_instances: u64,
        stride_instances: u64,
        buf: &mut [u8],
    ) -> Result<usize> {
        Self::check_count(buf.len() as u64)?;
        let frags = self.view_fragments("read_all", skip_instances, stride_instances, buf.len())?;
        let got = self.two_phase_read(comm, &frags, buf);
        comm.advance(view_processing_seconds(comm.cost_model(), &frags));
        Ok(got)
    }

    /// `MPI_File_write_all` through the current file view: non-contiguous
    /// collective write (rank instances as in [`MpiFile::read_all`]). The
    /// rank pays the view's datatype processing to pack its fragments
    /// (as in [`MpiFile::read_all`]), then the two-phase engine ships and
    /// flushes them. Collective: every rank must call it.
    pub fn write_all(
        &self,
        comm: &mut Comm,
        skip_instances: u64,
        stride_instances: u64,
        buf: &[u8],
    ) -> Result<usize> {
        Self::check_count(buf.len() as u64)?;
        let frags =
            self.view_fragments("write_all", skip_instances, stride_instances, buf.len())?;
        comm.advance(view_processing_seconds(comm.cost_model(), &frags));
        self.two_phase_write(comm, &frags, buf);
        Ok(buf.len())
    }

    /// The current view's fragments for `payload` bytes (see
    /// [`FileView::fragments`]); `op` names the caller in the error.
    fn view_fragments(
        &self,
        op: &str,
        skip_instances: u64,
        stride_instances: u64,
        payload: usize,
    ) -> Result<Vec<(u64, u64)>> {
        self.view
            .as_ref()
            .map(|view| view.fragments(skip_instances, stride_instances, payload))
            .ok_or_else(|| MsimError::Collective(format!("{op} requires a file view")))
    }

    // ----- The two-phase engine -------------------------------------------

    /// Builds the two-phase plan: allgathers every rank's `(offset, len)`
    /// fragments as `[lo, hi)` words (clamped to `eof` when given — the
    /// read side must not plan past end-of-file), selects the
    /// aggregators, and cuts their stripe-aligned file domains over the
    /// union extent. Collective.
    fn plan(&self, comm: &mut Comm, frags: &[(u64, u64)], eof: Option<u64>) -> TwoPhasePlan {
        let clamp = |at: u64| eof.map_or(at, |e| at.min(e));
        let mut words = Vec::with_capacity(16 * frags.len());
        for &(offset, len) in frags {
            words.extend_from_slice(&clamp(offset).to_le_bytes());
            words.extend_from_slice(&clamp(offset + len).to_le_bytes());
        }
        let words = comm.labeled("io.staged_plan", |c| c.allgather(words));
        let nonempty = || {
            (words.iter())
                .flat_map(|w| decode_fragments(w))
                .filter(|f| f.1 > f.0)
        };
        let lo = nonempty().map(|f| f.0).min();
        let hi = nonempty().map(|f| f.1).max();
        let (domains, agg_ranks) = match (lo, hi) {
            (Some(lo), Some(hi)) => {
                let topo = comm.topology();
                let want = select_readers(
                    self.fs.config().kind,
                    self.file.stripe().count,
                    topo.nodes(),
                    self.hints.cb_nodes,
                );
                let domains = aggregator_domains(lo, hi, self.file.stripe().size, want);
                let agg_ranks = topo
                    .node_leaders()
                    .into_iter()
                    .cycle()
                    .take(domains.len())
                    .collect();
                (domains, agg_ranks)
            }
            _ => (Vec::new(), Vec::new()),
        };
        TwoPhasePlan {
            words,
            agg_ranks,
            domains,
        }
    }

    /// Chops the contiguous byte run `[lo, hi)` into `cb_buffer_size`
    /// cycles issued by aggregator `rank` at time `now`.
    fn cb_cycles(&self, rank: usize, node: usize, now: f64, lo: u64, hi: u64) -> Vec<IoRequest> {
        let cycle = self.hints.cb_buffer_size.max(1);
        let mut out = Vec::new();
        let mut pos = lo;
        while pos < hi {
            let len = (hi - pos).min(cycle);
            out.push(IoRequest {
                rank,
                node,
                now,
                offset: pos,
                len,
            });
            pos += len;
        }
        out
    }

    /// Two-phase collective write in which the data **physically moves
    /// through the runtime** (ROMIO's scheme). Every rank ships, to each
    /// aggregator whose stripe-aligned file domain its fragments touch,
    /// one [`Comm::isend`] holding its fragments ∩ that domain in
    /// fragment order (`buf` holds the fragments back to back). Each
    /// aggregator collects its messages with [`Comm::irecv`]/
    /// [`Comm::waitall`], places them in rank order into its covered runs
    /// (the merged extents of the fragments it owns, packed back to
    /// back) — overlapping fragments therefore land **later rank wins**,
    /// in every run — and flushes the runs as large contiguous stripe
    /// writes in `cb_buffer_size` cycles through one deterministic
    /// [`SimFile::write_batch`]. All ranks exit at the global completion
    /// time (the collective-write barrier the simulator's other
    /// collectives also model). Aggregator count: the [`select_readers`]
    /// heuristic, lowered by the `cb_nodes` hint.
    fn two_phase_write(&self, comm: &mut Comm, frags: &[(u64, u64)], buf: &[u8]) {
        let plan = self.plan(comm, frags, None);
        let rank = comm.rank();

        // Phase 1: ship my pieces to the aggregators owning them.
        let mut sends = Vec::new();
        for (a, &dom) in plan.domains.iter().enumerate() {
            let pieces = my_parts(frags, plan.of(rank), dom)
                .map(|(at, lo, hi)| &buf[at..][..(hi - lo) as usize]);
            if let Some(msg) = gather(pieces) {
                sends.push(comm.isend(plan.agg_ranks[a], STAGED_WRITE_TAG, &msg));
            }
        }

        // Aggregators: collect my domain's messages in rank order and
        // place them in its covered runs (later ranks overwrite earlier
        // ones).
        let gathered: Option<Flush> = plan.agg_index(rank).map(|a| {
            let dom = plan.domains[a];
            let senders = || {
                (0..plan.words.len()).filter(|&src| overlaps(plan.of(src), dom).next().is_some())
            };
            let reqs: Vec<_> = senders()
                .map(|src| comm.irecv(src, STAGED_WRITE_TAG))
                .collect();
            let mut flush = Flush::covering(senders().flat_map(|src| overlaps(plan.of(src), dom)));
            for (src, msg) in senders().zip(comm.waitall(reqs)) {
                let mut at = 0usize;
                for (lo, hi) in overlaps(plan.of(src), dom) {
                    let len = (hi - lo) as usize;
                    let to = flush.position(lo, len);
                    flush.data[to].copy_from_slice(&msg[at..at + len]);
                    at += len;
                }
            }
            flush
        });
        comm.waitall(sends);

        // Plan the cb cycles of each covered run from the post-gather
        // clock.
        let now = comm.now();
        let node = comm.node();
        let my_flush: Option<Flush> = gathered.map(|mut flush| {
            flush.reqs = flush
                .runs
                .iter()
                .flat_map(|&(lo, hi, _)| self.cb_cycles(rank, node, now, lo, hi))
                .collect();
            flush
        });

        // Phase 2: one deterministic global flush. Every aggregator's
        // cycles are timed (and the bytes placed) in a single
        // `write_batch` under one engine lock, so the schedule is
        // independent of thread interleaving; everyone exits at the
        // global completion.
        let file = Arc::clone(&self.file);
        let (_, _) = comm.collective("io.staged_write.flush", my_flush, move |inputs, times| {
            let start = times.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let flushes: Vec<Flush> = inputs.into_iter().flatten().collect();
            let reqs: Vec<IoRequest> = flushes
                .iter()
                .flat_map(|f| f.reqs.iter().copied())
                .collect();
            let slices: Vec<&[u8]> = flushes
                .iter()
                .flat_map(|f| {
                    f.reqs
                        .iter()
                        .map(move |r| &f.data[f.position(r.offset, r.len as usize)])
                })
                .collect();
            let done = file
                .write_batch(&reqs, &slices)
                // audit: every request is a cycle of one of its aggregator's covered runs.
                .expect("two-phase write flush")
                .into_iter()
                .map(|c| c.completion)
                .fold(start, f64::max);
            ((), vec![done; times.len()])
        });
    }

    /// Two-phase collective read, the inverse scatter of
    /// [`MpiFile::two_phase_write`]. Fragments are clamped to
    /// end-of-file; aggregators read their whole stripe-aligned domains
    /// (gaps between fragments included — data sieving) in
    /// `cb_buffer_size` cycles through one deterministic
    /// [`SimFile::read_batch`], then send each rank one message holding
    /// its fragments ∩ that domain in fragment order; ranks unpack them
    /// into `buf`, where the fragments sit back to back. Returns the
    /// bytes delivered. Non-aggregator ranks exit as soon as their own
    /// pieces have arrived (no write-side barrier is needed on read).
    fn two_phase_read(&self, comm: &mut Comm, frags: &[(u64, u64)], buf: &mut [u8]) -> usize {
        let plan = self.plan(comm, frags, Some(self.file.len()));
        let rank = comm.rank();

        // Phase 1: one deterministic global read of every aggregator's
        // domain cycles under a single engine lock. The shared result
        // carries each aggregator's domain bytes; only that aggregator
        // consumes its entry.
        let now = comm.now();
        let node = comm.node();
        let my_cycles: Option<(usize, Vec<IoRequest>)> = plan.agg_index(rank).map(|a| {
            let (lo, hi) = plan.domains[a];
            (a, self.cb_cycles(rank, node, now, lo, hi))
        });
        let file = Arc::clone(&self.file);
        let n_aggs = plan.domains.len();
        let (read_result, _) =
            comm.collective("io.staged_read", my_cycles, move |inputs, times| {
                let start = times.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                // (domain bytes, completion) per aggregator index.
                let mut out: Vec<(Vec<u8>, f64)> =
                    (0..n_aggs).map(|_| (Vec::new(), start)).collect();
                let mut exits = vec![start; times.len()];
                for (src, input) in inputs.into_iter().enumerate() {
                    let Some((a, reqs)) = input else { continue };
                    let mut data: Vec<Vec<u8>> =
                        reqs.iter().map(|r| vec![0u8; r.len as usize]).collect();
                    let done = {
                        let mut slices: Vec<&mut [u8]> =
                            data.iter_mut().map(|d| d.as_mut_slice()).collect();
                        // audit: every cycle lies inside a domain planned below end-of-file.
                        file.read_batch(&reqs, &mut slices).expect("two-phase read")
                    };
                    let mut domain = Vec::new();
                    let mut completion = start;
                    for (piece, c) in data.into_iter().zip(&done) {
                        domain.extend_from_slice(&piece[..c.bytes as usize]);
                        completion = completion.max(c.completion);
                    }
                    out[a] = (domain, completion);
                    exits[src] = exits[src].max(completion);
                }
                (out, exits)
            });

        // Phase 2: aggregators scatter each rank's pieces, clamped to
        // the bytes the read actually produced.
        let mut sends = Vec::new();
        if let Some(a) = plan.agg_index(rank) {
            let dom = plan.domains[a];
            let domain = &read_result[a].0;
            let avail = dom.0 + domain.len() as u64;
            for dst in 0..plan.words.len() {
                let pieces = overlaps(plan.of(dst), dom).map(|(lo, hi)| {
                    let (lo, hi) = (lo.min(avail), hi.min(avail));
                    &domain[(lo - dom.0) as usize..(hi - dom.0) as usize]
                });
                if let Some(msg) = gather(pieces) {
                    sends.push(comm.isend(dst, STAGED_READ_TAG, &msg));
                }
            }
        }

        // Unpack the messages of the aggregators covering my fragments,
        // in aggregator order (matching their deterministic send order).
        let covering: Vec<usize> = (0..plan.domains.len())
            .filter(|&a| overlaps(plan.of(rank), plan.domains[a]).next().is_some())
            .collect();
        let recvs: Vec<_> = covering
            .iter()
            .map(|&a| comm.irecv(plan.agg_ranks[a], STAGED_READ_TAG))
            .collect();
        let mut got = 0usize;
        for (a, msg) in covering.into_iter().zip(comm.waitall(recvs)) {
            let mut at = 0usize;
            for (dst, lo, hi) in my_parts(frags, plan.of(rank), plan.domains[a]) {
                let len = ((hi - lo) as usize).min(msg.len() - at);
                buf[dst..dst + len].copy_from_slice(&msg[at..at + len]);
                at += len;
                got += len;
            }
        }
        comm.waitall(sends);
        got
    }
}

/// Tag carrying rank→aggregator payloads of a two-phase write.
const STAGED_WRITE_TAG: u64 = 0x5743;
/// Tag carrying aggregator→rank payloads of a two-phase read.
const STAGED_READ_TAG: u64 = 0x5244;

/// Virtual seconds a view access pays on its rank for datatype
/// processing — packing or unpacking the user buffer against the
/// filetype: one message latency plus 2 µs per fragment, and a byte copy
/// per byte. This is the non-contiguous overhead of the paper's Figures
/// 15–16, on top of what the two-phase engine charges.
fn view_processing_seconds(cost: &CostModel, frags: &[(u64, u64)]) -> f64 {
    let bytes: u64 = frags.iter().map(|f| f.1).sum();
    frags.len() as f64 * (cost.comm_latency + 2.0e-6) + bytes as f64 * cost.byte_copy
}

/// Splits the aggregate file domain `[lo, hi)` into at most `aggregators`
/// contiguous per-aggregator domains whose interior boundaries are
/// **stripe aligned**: the domain step is the per-aggregator share
/// rounded *up* to a whole number of stripes, so when `lo` itself sits on
/// a stripe boundary every aggregator issues stripe-aligned writes — the
/// access pattern the paper recommends. Alignment can merge trailing
/// domains, so fewer than `aggregators` entries may come back (never
/// more, never empty ones).
pub fn aggregator_domains(
    lo: u64,
    hi: u64,
    stripe_size: u64,
    aggregators: usize,
) -> Vec<(u64, u64)> {
    if hi <= lo {
        return Vec::new();
    }
    let span = hi - lo;
    let stripe = stripe_size.max(1);
    let raw = span.div_ceil(aggregators.max(1) as u64).max(1);
    let step = raw.div_ceil(stripe) * stripe;
    let mut out = Vec::new();
    let mut pos = lo;
    while pos < hi {
        let end = (pos + step).min(hi);
        out.push((pos, end));
        pos = end;
    }
    out
}

/// Decodes one rank's plan word: its `[lo, hi)` fragments, 16 bytes
/// each, in fragment order.
fn decode_fragments(word: &[u8]) -> impl Iterator<Item = (u64, u64)> + '_ {
    word.chunks_exact(16)
        .map(|f| (le_u64(&f[..8]), le_u64(&f[8..])))
}

/// The non-empty parts of the `[lo, hi)` fragments `frags` inside the
/// domain `dom`, in fragment order.
fn overlaps(
    frags: impl Iterator<Item = (u64, u64)>,
    dom: (u64, u64),
) -> impl Iterator<Item = (u64, u64)> {
    frags.filter_map(move |f| {
        let lo = f.0.max(dom.0);
        let hi = f.1.min(dom.1);
        (lo < hi).then_some((lo, hi))
    })
}

/// The calling rank's parts inside `dom` as `(buffer position, lo, hi)`:
/// `frags` are its `(offset, len)` fragments, back to back in its buffer,
/// and `planned` the same fragments as the plan's `[lo, hi)` (clamped to
/// end-of-file on a read, which only ever shortens them).
fn my_parts<'a>(
    frags: &'a [(u64, u64)],
    planned: impl Iterator<Item = (u64, u64)> + 'a,
    dom: (u64, u64),
) -> impl Iterator<Item = (usize, u64, u64)> + 'a {
    let mut start = 0usize;
    frags.iter().zip(planned).filter_map(move |(f, p)| {
        let at = start;
        start += f.1 as usize;
        let (lo, hi) = (p.0.max(dom.0), p.1.min(dom.1));
        (lo < hi).then(|| (at + (lo - p.0) as usize, lo, hi))
    })
}

/// One message's bytes: a lone piece is sent as it is, several are
/// concatenated; `None` when there are none.
fn gather<'a>(mut pieces: impl Iterator<Item = &'a [u8]>) -> Option<Cow<'a, [u8]>> {
    let first = pieces.next()?;
    Some(match pieces.next() {
        None => Cow::Borrowed(first),
        Some(second) => {
            let mut msg = [first, second].concat();
            pieces.for_each(|p| msg.extend_from_slice(p));
            Cow::Owned(msg)
        }
    })
}

/// A little-endian `u64` from exactly eight bytes.
fn le_u64(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// The two-phase plan shared by [`MpiFile::two_phase_write`] and
/// [`MpiFile::two_phase_read`]: every rank's `[lo, hi)` fragments
/// (allgathered), the aggregator ranks, and their stripe-aligned file
/// domains.
struct TwoPhasePlan {
    /// Every rank's plan word, indexed by rank (`len == world size`).
    words: Vec<Vec<u8>>,
    /// Aggregator ranks, one per domain (node leaders, in node order).
    agg_ranks: Vec<usize>,
    /// Stripe-aligned contiguous file domain of each aggregator.
    domains: Vec<(u64, u64)>,
}

impl TwoPhasePlan {
    /// Rank `rank`'s effective `[lo, hi)` fragments, in fragment order.
    fn of(&self, rank: usize) -> impl Iterator<Item = (u64, u64)> + '_ {
        decode_fragments(&self.words[rank])
    }

    /// Index of `rank` in the aggregator set, if it is one.
    fn agg_index(&self, rank: usize) -> Option<usize> {
        self.agg_ranks.iter().position(|&r| r == rank)
    }
}

/// One aggregator's part of a two-phase flush: the runs its domain's
/// fragments cover, their bytes, and the runs' cb cycles.
struct Flush {
    /// Covered `[lo, hi)` file runs in file order, each with its start in
    /// `data`, where the runs sit back to back.
    runs: Vec<(u64, u64, usize)>,
    data: Vec<u8>,
    reqs: Vec<IoRequest>,
}

impl Flush {
    /// An empty flush over the union of the `[lo, hi)` `ranges`: sorted,
    /// overlapping and adjacent ranges merged into runs.
    fn covering(ranges: impl Iterator<Item = (u64, u64)>) -> Flush {
        let mut ranges: Vec<(u64, u64)> = ranges.collect();
        ranges.sort_unstable();
        let mut runs: Vec<(u64, u64, usize)> = Vec::with_capacity(ranges.len());
        let mut len = 0usize;
        for (lo, hi) in ranges {
            match runs.last_mut() {
                Some(last) if lo <= last.1 => {
                    len += hi.saturating_sub(last.1) as usize;
                    last.1 = last.1.max(hi);
                }
                _ => {
                    runs.push((lo, hi, len));
                    len += (hi - lo) as usize;
                }
            }
        }
        Flush {
            runs,
            data: vec![0u8; len],
            reqs: Vec::new(),
        }
    }

    /// Where the `len` bytes at file offset `at` (inside one run) sit in
    /// `data`.
    fn position(&self, at: u64, len: usize) -> std::ops::Range<usize> {
        let (lo, _, start) = self.runs[self.runs.partition_point(|r| r.1 <= at)];
        let from = start + (at - lo) as usize;
        from..from + len
    }
}

/// The aggregator ("reader") selection rule.
///
/// Lustre/ROMIO (paper §5.1.1 and McLay et al. \[21\]): one aggregator per
/// node when the node count divides the stripe count; otherwise, when the
/// stripe count ≥ node count, the largest divisor of the stripe count that
/// is ≤ the node count; when the stripe count < node count, one aggregator
/// per OST. The `cb_nodes` hint only lowers the candidate node count.
///
/// GPFS: one aggregator per node (capped by `cb_nodes`).
pub fn select_readers(
    fs_kind: FsKind,
    stripe_count: u32,
    nodes: usize,
    cb_nodes: Option<usize>,
) -> usize {
    let target = cb_nodes.unwrap_or(nodes).min(nodes).max(1);
    match fs_kind {
        FsKind::Lustre => {
            let sc = stripe_count as usize;
            if sc >= target {
                (1..=target)
                    .rev()
                    .find(|d| sc.is_multiple_of(*d))
                    .unwrap_or(1)
            } else {
                sc
            }
        }
        FsKind::Gpfs => target,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::CheckMode;
    use crate::topology::Topology;
    use crate::world::{World, WorldConfig};
    use mvio_pfs::{FsConfig, StripeSpec};

    #[test]
    fn reader_rule_matches_papers_cases() {
        use FsKind::Lustre;
        // 64-OST file (Figure 11's stripe count):
        assert_eq!(select_readers(Lustre, 64, 16, None), 16); // divisor -> all nodes
        assert_eq!(select_readers(Lustre, 64, 24, None), 16); // paper: "only 16 readers"
        assert_eq!(select_readers(Lustre, 64, 32, None), 32);
        assert_eq!(select_readers(Lustre, 64, 48, None), 32); // paper: "32 readers"
        assert_eq!(select_readers(Lustre, 64, 64, None), 64);
        // stripe count below node count: one reader per OST.
        assert_eq!(select_readers(Lustre, 64, 72, None), 64);
        // 96 OSTs, 72 nodes: largest divisor of 96 <= 72 is 48.
        assert_eq!(select_readers(Lustre, 96, 72, None), 48);
        // cb_nodes only lowers the candidate count.
        assert_eq!(select_readers(Lustre, 64, 32, Some(8)), 8);
        // GPFS: per-node aggregators.
        assert_eq!(select_readers(FsKind::Gpfs, 16, 24, None), 24);
        assert_eq!(select_readers(FsKind::Gpfs, 16, 24, Some(4)), 4);
    }

    /// The byte the test files hold at file offset `at`.
    fn pattern(at: usize) -> u8 {
        (at % 251) as u8
    }

    fn make_fs_with_file(bytes: usize, stripe: StripeSpec) -> Arc<SimFs> {
        let fs = SimFs::new(FsConfig::lustre_comet());
        let f = fs.create("data.bin", Some(stripe)).unwrap();
        f.append((0..bytes).map(pattern).collect::<Vec<u8>>());
        fs
    }

    #[test]
    fn level0_reads_correct_bytes() {
        let fs = make_fs_with_file(1 << 20, StripeSpec::new(4, 64 << 10));
        let out = World::run(WorldConfig::new(Topology::new(2, 2)), |comm| {
            let f = MpiFile::open(&fs, "data.bin", Hints::default()).unwrap();
            let chunk = (1 << 20) / 4;
            let off = comm.rank() * chunk;
            let mut buf = vec![0u8; chunk];
            let n = f.read_at(comm, off as u64, &mut buf).unwrap();
            assert_eq!(n, chunk);
            // Verify contents against the generating pattern.
            for (i, &b) in buf.iter().enumerate() {
                assert_eq!(b, pattern(off + i));
            }
            comm.now()
        });
        assert!(out.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn level0_rejects_over_2gib() {
        let fs = make_fs_with_file(1024, StripeSpec::new(1, 1024));
        World::run(WorldConfig::new(Topology::single_node(1)), |comm| {
            let f = MpiFile::open(&fs, "data.bin", Hints::default()).unwrap();
            // A >2 GiB buffer would be absurd to allocate; check the guard
            // through write_at's length check with a fake huge slice is not
            // possible, so validate the checker directly.
            assert!(MpiFile::check_count(ROMIO_MAX_IO_BYTES).is_ok());
            assert!(matches!(
                MpiFile::check_count(ROMIO_MAX_IO_BYTES + 1),
                Err(MsimError::CountOverflow { .. })
            ));
            let mut small = [0u8; 8];
            f.read_at(comm, 0, &mut small).unwrap();
        });
    }

    #[test]
    fn level1_collective_read_delivers_data_and_time() {
        let total = 1 << 20;
        let fs = make_fs_with_file(total, StripeSpec::new(4, 64 << 10));
        let out = World::run(WorldConfig::new(Topology::new(4, 4)), |comm| {
            let f = MpiFile::open(&fs, "data.bin", Hints::default()).unwrap();
            let chunk = total / 16;
            let off = comm.rank() * chunk;
            let mut buf = vec![0u8; chunk];
            let n = f.read_at_all(comm, off as u64, &mut buf).unwrap();
            assert_eq!(n, chunk);
            for (i, &b) in buf.iter().enumerate() {
                assert_eq!(b, pattern(off + i));
            }
            comm.now()
        });
        // Collectives synchronize: completions are close but include
        // per-rank redistribution terms; all positive.
        assert!(out.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn staged_write_then_staged_read_round_trips() {
        // Write the file collectively, then read back a *rotated*
        // partition so every rank's bytes cross rank and aggregator
        // boundaries.
        let total = 1 << 18;
        let fs = SimFs::new(FsConfig::lustre_comet());
        fs.create("rt.bin", Some(StripeSpec::new(8, 16 << 10)))
            .unwrap();
        let out = World::run(WorldConfig::new(Topology::new(4, 2)), move |comm| {
            let f = MpiFile::open(&fs, "rt.bin", Hints::default()).unwrap();
            let chunk = total / comm.size();
            let off = comm.rank() * chunk;
            let data: Vec<u8> = (off..off + chunk).map(pattern).collect();
            f.write_at_all(comm, off as u64, &data).unwrap();
            let r_off = ((comm.rank() + 1) % comm.size()) * chunk;
            let mut buf = vec![0u8; chunk];
            let n = f.read_at_all(comm, r_off as u64, &mut buf).unwrap();
            assert_eq!(n, chunk);
            for (i, &b) in buf.iter().enumerate() {
                assert_eq!(b, pattern(r_off + i));
            }
            comm.now()
        });
        assert!(out.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn one_fragment_calls_keep_their_collectives_labels_and_times() {
        // Pinned against the engine before it took fragment lists: the
        // same collectives under the same labels, and bit-identical
        // virtual times, which fold in the 16-byte plan word and every
        // message's size. Rank 3 writes nothing and reads short at EOF;
        // the last write has aggregator 0 ship 3000 bytes while it
        // receives 8, so its flush starts after its own send.
        let fs = SimFs::new(FsConfig::lustre_comet());
        for path in ["g.bin", "h.bin"] {
            fs.create(path, Some(StripeSpec::new(4, 1024))).unwrap();
        }
        let cfg = WorldConfig::new(Topology::new(2, 2)).with_check(CheckMode::On);
        let out = World::run(cfg, |comm| {
            let f = MpiFile::open(&fs, "g.bin", Hints::default()).unwrap();
            let r = comm.rank();
            let (off, data) = match r {
                3 => (0, Vec::new()),
                _ => (r * 1500, (r * 1500..(r + 1) * 1500).map(pattern).collect()),
            };
            comm.labeled("t", |c| f.write_at_all(c, off as u64, &data))
                .unwrap();
            let written = comm.now();
            let (off, len) = match r {
                3 => (4000, 600),
                _ => ((r + 1) % 3 * 1500, 1500),
            };
            let mut buf = vec![0u8; len];
            let n = comm
                .labeled("t", |c| f.read_at_all(c, off as u64, &mut buf))
                .unwrap();
            assert!(buf[..n]
                .iter()
                .enumerate()
                .all(|(i, &b)| b == pattern(off + i)));
            let read = comm.now();
            let h = MpiFile::open(&fs, "h.bin", Hints::default()).unwrap();
            let (off, len) = match r {
                0 => (3072, 3000),
                1 => (0, 8),
                _ => (0, 0),
            };
            comm.labeled("t", |c| h.write_at_all(c, off, &vec![r as u8 + 1; len]))
                .unwrap();
            let times = [written, read, comm.now()].map(f64::to_bits);
            (times, n, comm.recent_collectives())
        });
        // f64 bits of each rank's clock after the first write (equal on
        // every rank), after the read, and after the last write (equal).
        let (written, last) = (4569094709962467768, 4576364220874571110);
        let read = [
            4571867610367163588,
            4573598309589838264,
            4573598199831711026,
            4573598131271312218,
        ];
        for (rank, (times, n, sigs)) in out.into_iter().enumerate() {
            assert_eq!(times, [written, read[rank], last], "rank {rank}");
            assert_eq!(n, if rank == 3 { 500 } else { 1500 });
            assert_eq!(
                sigs,
                [
                    "allgather @ t/io.staged_plan",
                    "io.staged_write.flush @ t",
                    "allgather @ t/io.staged_plan",
                    "io.staged_read @ t",
                    "allgather @ t/io.staged_plan",
                    "io.staged_write.flush @ t",
                ]
            );
        }
        let stats = fs.stats();
        assert_eq!((stats.write_ops(), stats.read_ops()), (4, 2));
        assert_eq!((stats.bytes_written(), stats.bytes_read()), (7508, 4500));
    }

    #[test]
    fn level1_allows_zero_length_participants() {
        let fs = make_fs_with_file(4096, StripeSpec::new(2, 1024));
        World::run(WorldConfig::new(Topology::new(1, 4)), |comm| {
            let f = MpiFile::open(&fs, "data.bin", Hints::default()).unwrap();
            // Only rank 0 reads; others pass empty buffers (Algorithm 1's
            // last-iteration behaviour).
            let mut buf = vec![0u8; if comm.rank() == 0 { 4096 } else { 0 }];
            let n = f.read_at_all(comm, 0, &mut buf).unwrap();
            if comm.rank() == 0 {
                assert_eq!(n, 4096);
            } else {
                assert_eq!(n, 0);
            }
        });
    }

    #[test]
    fn level3_round_robin_view_reads_interleaved_blocks() {
        // File of 16 records of 32 bytes; 4 ranks read records round-robin
        // (rank r gets records r, r+4, r+8, r+12).
        let record = 32usize;
        let nrec = 16usize;
        let fs = make_fs_with_file(record * nrec, StripeSpec::new(2, 64));
        World::run(WorldConfig::new(Topology::new(2, 2)), |comm| {
            let mut f = MpiFile::open(&fs, "data.bin", Hints::default()).unwrap();
            let filetype = Datatype::contiguous(record, Datatype::Byte);
            f.set_view(FileView::new(0, filetype).unwrap());
            let mut buf = vec![0u8; record * nrec / 4];
            let n = f
                .read_all(comm, comm.rank() as u64, comm.size() as u64, &mut buf)
                .unwrap();
            assert_eq!(n, buf.len());
            // Record k starts at byte 32k; verify first byte of each of my
            // records.
            for (j, chunk) in buf.chunks(record).enumerate() {
                let k = comm.rank() + 4 * j;
                assert_eq!(chunk[0], pattern(k * record));
            }
        });
    }

    #[test]
    fn level3_requires_a_view() {
        let fs = make_fs_with_file(1024, StripeSpec::new(1, 1024));
        World::run(WorldConfig::new(Topology::single_node(1)), |comm| {
            let f = MpiFile::open(&fs, "data.bin", Hints::default()).unwrap();
            let mut buf = vec![0u8; 16];
            assert!(matches!(
                f.read_all(comm, 0, 1, &mut buf),
                Err(MsimError::Collective(_))
            ));
        });
    }

    #[test]
    fn collective_write_assembles_single_file() {
        // The paper's use case: per-rank grid output written so "the
        // output file is same as if produced sequentially".
        let fs = SimFs::new(FsConfig::lustre_comet());
        fs.create("out.bin", Some(StripeSpec::new(4, 1024)))
            .unwrap();
        World::run(WorldConfig::new(Topology::new(2, 2)), |comm| {
            let f = MpiFile::open(&fs, "out.bin", Hints::default()).unwrap();
            let chunk = vec![comm.rank() as u8 + 1; 512];
            let n = f
                .write_at_all(comm, comm.rank() as u64 * 512, &chunk)
                .unwrap();
            assert_eq!(n, 512);
            assert!(comm.now() > 0.0);
        });
        let data = fs.open("out.bin").unwrap().snapshot();
        assert_eq!(data.len(), 4 * 512);
        for rank in 0..4 {
            assert!(data[rank * 512..(rank + 1) * 512]
                .iter()
                .all(|&b| b == rank as u8 + 1));
        }
    }

    #[test]
    fn staged_collective_write_assembles_single_file() {
        // Whole-stripe chunks: every aggregator flush is stripe-aligned.
        let fs = SimFs::new(FsConfig::lustre_comet());
        fs.create("staged.bin", Some(StripeSpec::new(4, 1024)))
            .unwrap();
        World::run(WorldConfig::new(Topology::new(2, 2)), |comm| {
            let f = MpiFile::open(&fs, "staged.bin", Hints::default()).unwrap();
            let chunk = vec![comm.rank() as u8 + 1; 4096];
            let n = f
                .write_at_all(comm, comm.rank() as u64 * 4096, &chunk)
                .unwrap();
            assert_eq!(n, 4096);
            assert!(comm.now() > 0.0);
        });
        let data = fs.open("staged.bin").unwrap().snapshot();
        assert_eq!(data.len(), 4 * 4096);
        for rank in 0..4 {
            assert!(data[rank * 4096..(rank + 1) * 4096]
                .iter()
                .all(|&b| b == rank as u8 + 1));
        }
        // The aggregators issued stripe-aligned flushes.
        assert!(fs.stats().stripe_aligned_ops() > 0);
    }

    #[test]
    fn overlapping_write_at_all_spans_land_later_rank_wins_in_every_run() {
        // Rank r writes 100 bytes of r + 1 at (3 - r) * 40: every span
        // overlaps its neighbours, and lower ranks sit at higher offsets,
        // so neither file order nor thread order can fake the rule.
        let expect = {
            let mut image = vec![0u8; 220];
            for r in 0..4 {
                image[(3 - r) * 40..(3 - r) * 40 + 100].fill(r as u8 + 1);
            }
            image
        };
        for _ in 0..5 {
            let fs = SimFs::new(FsConfig::lustre_comet());
            fs.create("ov.bin", Some(StripeSpec::new(2, 64))).unwrap();
            World::run(WorldConfig::new(Topology::new(2, 2)), |comm| {
                let f = MpiFile::open(&fs, "ov.bin", Hints::default()).unwrap();
                let r = comm.rank();
                f.write_at_all(comm, ((3 - r) * 40) as u64, &[r as u8 + 1; 100])
                    .unwrap();
            });
            assert_eq!(fs.open("ov.bin").unwrap().snapshot(), expect);
        }
    }

    #[test]
    fn a_fragment_straddling_a_domain_boundary_reaches_both_aggregators() {
        // Two nodes, two aggregators with domains [0, 100) and [100, 200):
        // rank 0's write and rank 1's read each straddle the cut.
        let domains = aggregator_domains(0, 200, 100, 2);
        assert_eq!(domains, [(0, 100), (100, 200)]);
        let fs = SimFs::new(FsConfig::lustre_comet());
        fs.create("st.bin", Some(StripeSpec::new(2, 100))).unwrap();
        World::run(WorldConfig::new(Topology::new(2, 1)), |comm| {
            let f = MpiFile::open(&fs, "st.bin", Hints::default()).unwrap();
            let (lo, hi) = [(0, 150), (150, 200)][comm.rank()];
            let data: Vec<u8> = (lo..hi).map(pattern).collect();
            f.write_at_all(comm, lo as u64, &data).unwrap();
            let (lo, hi) = [(0, 50), (50, 180)][comm.rank()];
            let mut buf = vec![0u8; hi - lo];
            assert_eq!(f.read_at_all(comm, lo as u64, &mut buf).unwrap(), hi - lo);
            assert!(buf.iter().enumerate().all(|(i, &b)| b == pattern(lo + i)));
        });
        let data = fs.open("st.bin").unwrap().snapshot();
        assert!(data.iter().enumerate().all(|(i, &b)| b == pattern(i)));
    }

    #[test]
    fn level3_write_scatters_round_robin_blocks() {
        // 4 ranks write 32-byte records round-robin and read them back:
        // the row-major grid output layout of Figure 4 comes out as if
        // written sequentially.
        let fs = SimFs::new(FsConfig::lustre_comet());
        fs.create("view.bin", Some(StripeSpec::new(2, 64))).unwrap();
        let filetype = Datatype::contiguous(32, Datatype::Byte);
        let data = view_round_trip(&fs, filetype, |_| 4 * 32);
        assert_eq!(data, (0..16 * 32).map(pattern).collect::<Vec<u8>>());
    }

    /// Writes `payload(rank)` bytes through `filetype` with `write_all`
    /// (rank `r` taking instances `r, r + p, …`), every fragment filled
    /// with [`pattern`] of its file offsets, then reads them back with
    /// `read_all` and checks every byte. Returns the file image.
    fn view_round_trip(
        fs: &Arc<SimFs>,
        filetype: Datatype,
        payload: impl Fn(usize) -> usize + Sync,
    ) -> Vec<u8> {
        World::run(WorldConfig::new(Topology::new(2, 2)), |comm| {
            let mut f = MpiFile::open(fs, "view.bin", Hints::default()).unwrap();
            let view = FileView::new(0, filetype.clone()).unwrap();
            let (skip, stride) = (comm.rank() as u64, comm.size() as u64);
            let frags = view.fragments(skip, stride, payload(comm.rank()));
            let data: Vec<u8> = frags
                .iter()
                .flat_map(|&(off, len)| (off..off + len).map(|at| pattern(at as usize)))
                .collect();
            f.set_view(view);
            assert_eq!(f.write_all(comm, skip, stride, &data).unwrap(), data.len());
            let mut buf = vec![0u8; data.len()];
            assert_eq!(
                f.read_all(comm, skip, stride, &mut buf).unwrap(),
                data.len()
            );
            assert_eq!(buf, data);
        });
        fs.open("view.bin").unwrap().snapshot()
    }

    #[test]
    fn level3_gapped_view_round_trips_and_leaves_the_gaps_alone() {
        // Blocks [0, 10) and [13, 23) of a 23-byte instance: fragments
        // straddle the 64-byte stripe cuts, and the gaps must keep the
        // bytes the file already had.
        let fs = SimFs::new(FsConfig::lustre_comet());
        let f = fs.create("view.bin", Some(StripeSpec::new(2, 64))).unwrap();
        f.append(vec![0xEE; 23 * 40]);
        let filetype = Datatype::vector(2, 10, 13, Datatype::Byte);
        let data = view_round_trip(&fs, filetype, |_| 20 * 10);
        for (at, &b) in data.iter().enumerate() {
            let in_block = at % 23 < 10 || (13..23).contains(&(at % 23));
            assert_eq!(b, if in_block { pattern(at) } else { 0xEE }, "byte {at}");
        }
    }

    #[test]
    fn level3_indexed_view_with_unsorted_assignment_round_trips() {
        // Sixteen variable-length records; one indexed instance lists
        // them in descending displacement order, as an unsorted
        // `assigned` list would.
        let lens: Vec<usize> = (0..16).map(|k| 3 + k * 7 % 11).collect();
        let order = (0..16).rev();
        let filetype = Datatype::indexed(
            order.clone().map(|k| lens[k]).collect(),
            order.map(|k| lens[..k].iter().sum()).collect(),
            Datatype::Byte,
        );
        let fs = SimFs::new(FsConfig::lustre_comet());
        fs.create("view.bin", Some(StripeSpec::new(2, 32))).unwrap();
        let total: usize = lens.iter().sum();
        let data = view_round_trip(&fs, filetype, |_| total);
        assert_eq!(data, (0..4 * total).map(pattern).collect::<Vec<u8>>());
    }

    #[test]
    fn ranks_with_zero_fragments_take_part_in_view_calls() {
        // Ranks 2 and 3 hand in empty buffers, so they have no fragments
        // at all; ranks 0 and 1 write and read three 16-byte records each.
        let fs = SimFs::new(FsConfig::lustre_comet());
        fs.create("view.bin", Some(StripeSpec::new(2, 32))).unwrap();
        let filetype = Datatype::contiguous(16, Datatype::Byte);
        let data = view_round_trip(&fs, filetype, |r| if r < 2 { 48 } else { 0 });
        // Instances r, r + 4, r + 8 of ranks 0 and 1; nothing else.
        let written = |at: usize| [0, 1, 4, 5, 8, 9].contains(&(at / 16));
        let want: Vec<u8> = (0..10 * 16)
            .map(|at| if written(at) { pattern(at) } else { 0 })
            .collect();
        assert_eq!(data, want);
    }

    #[test]
    fn level3_read_is_short_at_eof() {
        // 100-byte file, 16-byte records round-robin over two ranks, four
        // records each: rank 0's last record has 4 bytes left, rank 1's
        // starts past end-of-file.
        let fs = make_fs_with_file(100, StripeSpec::new(2, 32));
        let got = World::run(WorldConfig::new(Topology::new(2, 1)), |comm| {
            let mut f = MpiFile::open(&fs, "data.bin", Hints::default()).unwrap();
            f.set_view(FileView::new(0, Datatype::contiguous(16, Datatype::Byte)).unwrap());
            let mut buf = vec![0u8; 64];
            let n = f.read_all(comm, comm.rank() as u64, 2, &mut buf).unwrap();
            let want: Vec<u8> = [0, 32, 64, 96]
                .map(|at| at + 16 * comm.rank())
                .into_iter()
                .flat_map(|at| (at..(at + 16).min(100)).map(pattern))
                .collect();
            assert_eq!(buf[..n], want);
            n
        });
        assert_eq!(got, [52, 48]);
    }

    #[test]
    fn aggregator_domains_are_stripe_aligned_and_cover_the_span() {
        let stripe = 1024u64;
        let d = aggregator_domains(0, 10_000, stripe, 4);
        assert!(d.len() <= 4 && !d.is_empty());
        assert_eq!(d.first().unwrap().0, 0);
        assert_eq!(d.last().unwrap().1, 10_000);
        for w in d.windows(2) {
            assert_eq!(w[0].1, w[1].0, "contiguous");
            assert!(w[0].1.is_multiple_of(stripe), "interior cut aligned");
        }
        // Aligned lo keeps every domain start aligned.
        let d = aggregator_domains(2048, 2048 + 8192, stripe, 3);
        for (lo, _) in &d {
            assert!(lo.is_multiple_of(stripe));
        }
        // Degenerate cases.
        assert!(aggregator_domains(5, 5, 1024, 4).is_empty());
        assert_eq!(aggregator_domains(0, 10, 1024, 4), vec![(0, 10)]);
    }

    #[test]
    fn staged_read_is_short_at_eof_and_allows_empty_spans() {
        let fs = make_fs_with_file(3000, StripeSpec::new(2, 1024));
        World::run(WorldConfig::new(Topology::new(1, 4)), |comm| {
            let f = MpiFile::open(&fs, "data.bin", Hints::default()).unwrap();
            // Rank 0 reads past EOF (short); rank 1 starts past EOF
            // (zero); ranks 2-3 participate with empty buffers.
            let (off, want) = match comm.rank() {
                0 => (2000u64, 2048usize),
                1 => (5000, 64),
                _ => (0, 0),
            };
            let mut buf = vec![0xAAu8; want];
            let n = f.read_at_all(comm, off, &mut buf).unwrap();
            match comm.rank() {
                0 => {
                    assert_eq!(n, 1000);
                    for (i, &b) in buf[..1000].iter().enumerate() {
                        assert_eq!(b, pattern(2000 + i));
                    }
                }
                _ => assert_eq!(n, 0),
            }
        });
    }

    #[test]
    fn staged_write_is_deterministic_and_faster_with_more_aggregators() {
        let total = 4 << 20;
        let run = |cb_nodes: Option<usize>| {
            let fs = SimFs::new(FsConfig::lustre_comet());
            fs.create("det.bin", Some(StripeSpec::new(8, 64 << 10)))
                .unwrap();
            fs.set_active_ranks(16);
            // A collective buffer smaller than the per-aggregator domain
            // forces multiple chained cb cycles — the regime where the
            // aggregator count matters (a lone aggregator leaves OSTs
            // idle between its cycles).
            let hints = Hints {
                cb_nodes,
                cb_buffer_size: 256 << 10,
            };
            let out = World::run(WorldConfig::new(Topology::new(8, 2)), move |comm| {
                let f = MpiFile::open(&fs, "det.bin", hints).unwrap();
                let chunk = total / comm.size();
                let data = vec![comm.rank() as u8; chunk];
                f.write_at_all(comm, (comm.rank() * chunk) as u64, &data)
                    .unwrap();
                comm.now()
            });
            out.into_iter().fold(0.0, f64::max)
        };
        // Deterministic across repeated runs (thread interleaving must
        // not move the virtual clock).
        assert_eq!(run(Some(4)), run(Some(4)));
        // One aggregator serializes every cb cycle through one rank; the
        // divisor-rule width parallelizes across OSTs and node links.
        let one = run(Some(1));
        let wide = run(None);
        assert!(
            wide < one,
            "8 aggregators ({wide}) must beat 1 ({one}) for a 4 MiB striped write"
        );
    }

    #[test]
    fn collective_read_is_deterministic() {
        let total = 1 << 18;
        let run = || {
            let fs = make_fs_with_file(total, StripeSpec::new(4, 16 << 10));
            World::run(WorldConfig::new(Topology::new(2, 2)), |comm| {
                let f = MpiFile::open(&fs, "data.bin", Hints::default()).unwrap();
                let chunk = total / 4;
                let mut buf = vec![0u8; chunk];
                f.read_at_all(comm, (comm.rank() * chunk) as u64, &mut buf)
                    .unwrap();
                comm.now()
            })
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn independent_beats_collective_for_contiguous_lustre_reads() {
        // The paper's headline contrast (contribution 2): Level 0 wins for
        // block-contiguous reads on Lustre because two-phase adds
        // redistribution work without reducing physical I/O.
        let total = 8 << 20;
        let topo = Topology::new(2, 4);
        let elapsed = |collective: bool| {
            let fs = make_fs_with_file(total, StripeSpec::new(8, 256 << 10));
            fs.set_active_ranks(topo.ranks());
            let out = World::run(WorldConfig::new(topo), move |comm| {
                let f = MpiFile::open(&fs, "data.bin", Hints::default()).unwrap();
                let chunk = total / 8;
                let off = (comm.rank() * chunk) as u64;
                let mut buf = vec![0u8; chunk];
                if collective {
                    f.read_at_all(comm, off, &mut buf).unwrap();
                } else {
                    f.read_at(comm, off, &mut buf).unwrap();
                }
                comm.now()
            });
            out.into_iter().fold(0.0, f64::max)
        };
        let indep = elapsed(false);
        let coll = elapsed(true);
        assert!(
            indep < coll,
            "independent {indep} should beat collective {coll} for contiguous reads"
        );
    }
}
