//! The resident frame store: a rank's received records kept as the
//! validated wire records the exchange delivered (`docs/FORMAT.md` §5).
//!
//! [`ResidentStore`] is the one store of received records: an exchange
//! lands into it (`ResidentStore::land`: ingest, the snapshot reload,
//! the join's balance shipments), and a resident engine keeps and
//! changes it — updates arrive, deletes and migrations take replicas
//! away. It keeps the `[u64 cell][u32 len][wkb][u32 len][userdata]`
//! records as bytes, beside an index table with one entry per replica
//! (cell, record offset, field lengths, cached envelope), so replica `i`
//! is reached in O(1) and nothing is decoded into a [`crate::Feature`]
//! to land, to leave or to be found:
//!
//! * **validated once** — a round enters only through [`validate_round`],
//!   and each record's envelope is taken from its decoded view as its
//!   index entry is made; every later read walks the bytes infallibly.
//!   An exchange's buffers become pages as they are
//!   (`ResidentStore::land`); a round reaching a built store is copied
//!   into its pages ([`ResidentStore::append_round`]: an insert trip, a
//!   migration);
//! * **all or nothing** — a received round that fails validation leaves
//!   the store exactly as it was;
//! * **removal leaves a tombstone** — the index entry is marked dead and
//!   the record's bytes stay behind until [`ResidentStore::compact`]
//!   squeezes them out (the engine's index does so when it rebuilds,
//!   once the changes since its last build reach the live count; until
//!   then its walks skip the dead slots, [`ResidentStore::is_live`]);
//! * **deletes find their replica by key** — a hash of `(cell, userdata)`,
//!   built when the first delete needs it, leads to the candidates, which
//!   are confirmed by geometry (see [`ResidentStore::delete_round`] for
//!   the exact rule).

use crate::exchange::{
    record_frames, validate_round, ExchangePlan, ExchangeRound, ExchangeStats, RecordFrame,
    SerializedBatch, RECORD_OVERHEAD,
};
use crate::Result;
use mvio_geom::wkb;
use mvio_geom::Rect;
use mvio_msim::{Comm, Work};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::ops::Range;

/// End-of-chain marker in [`Slot::next`].
const NO_SLOT: usize = usize::MAX;

/// Pages the store allocates hold this many bytes (a larger record gets
/// a page of its own); pages adopted from an exchange keep their size,
/// which may be more. The store grows by adding a page and shrinks by
/// dropping one, so it never reallocates — and never holds, however
/// briefly, two copies of — a buffer the size of the partition.
const PAGE_BYTES: usize = 64 * 1024;

/// One entry of the index table.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The record's page in [`ResidentStore::pages`] and offset in it.
    page: usize,
    at: usize,
    wkb_len: usize,
    userdata_len: usize,
    cell: u32,
    envelope: Rect,
    /// The next slot whose `(cell, userdata)` hashes alike.
    next: usize,
    live: bool,
}

impl Slot {
    /// Bytes of the whole record.
    fn record_len(&self) -> usize {
        RECORD_OVERHEAD + self.wkb_len + self.userdata_len
    }
}

/// Per-rank counters of one [`ResidentStore::delete_round`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeleteOutcome {
    /// Delete records the round held.
    pub records: u64,
    /// Records that matched nothing resident (counted no-ops).
    pub missing: u64,
}

/// A rank's received records as validated wire records plus an index
/// table (see the [module docs](self)).
///
/// Replicas are addressed by slot `0..slots()`. After
/// [`ResidentStore::compact`] every slot is live and `slots() == len()`;
/// between a removal and the next compaction dead slots remain, which
/// [`ResidentStore::frames`] and [`ResidentStore::replicas`] skip.
#[derive(Debug, Clone, Default)]
pub struct ResidentStore {
    /// The records, in slot order; none straddles two pages.
    pages: Vec<Vec<u8>>,
    slots: Vec<Slot>,
    live: usize,
    live_bytes: usize,
    /// `(cell, userdata)` hash → head of the chain of slots hashing alike
    /// (dead ones included until the next compaction). Covers the first
    /// `keyed` slots: a delete links the rest before it looks anything
    /// up, so a rank that receives no delete never builds the map.
    keys: HashMap<u64, usize>,
    keyed: usize,
    hasher: RandomState,
}

impl ResidentStore {
    /// An empty store.
    pub fn new() -> Self {
        ResidentStore::default()
    }

    /// Runs `plan` over `feed` and lands everything the exchange receives
    /// in a fresh store — the one landing path of ingest, the snapshot
    /// reload and the join's balance shipments. Each completed round is
    /// checked by [`validate_round`] and takes its envelope pass (each
    /// record's envelope from its decoded view, charged one
    /// [`Work::MbrTests`] per record) in the plan's sink, so both overlap
    /// the rounds still in flight; its
    /// buffers are then parked, moved and never copied. When the plan
    /// returns, the store adopts the parked buffers whole as its pages in
    /// (source, round) order: the record order of the single-round
    /// blocking protocol, whatever the chunk policy. A rank whose round
    /// fails validation returns the typed error once the exchange has
    /// completed everywhere.
    /// Collective: every rank must call it, as [`ExchangePlan::run`].
    pub(crate) fn land(
        comm: &mut Comm,
        plan: &ExchangePlan,
        feed: &mut dyn FnMut(&mut Comm) -> Result<Option<ExchangeRound>>,
    ) -> Result<(Self, ExchangeStats)> {
        let (mut parked, mut slots) = (Vec::new(), Vec::new());
        let stats = plan.run(comm, feed, &mut |c, bufs| {
            let records = validate_round(c, &bufs)?;
            // audit: the round's records are in memory, so their count fits a `usize`.
            slots.reserve(records as usize);
            let mut at = slots.len();
            index_round(&bufs, &mut slots);
            c.charge(Work::MbrTests { n: records });
            // `index_round` numbered each slot's page with its source.
            for (src, buf) in bufs.into_iter().enumerate() {
                let n = slots[at..].iter().take_while(|s| s.page == src).count();
                parked.push((src, buf, at..at + n));
                at += n;
            }
            Ok(records)
        })?;
        // Stable: a source's rounds stay in arrival order. A single round
        // (the blocking protocol) arrived in this order already.
        parked.retain(|(_, buf, _)| !buf.is_empty());
        parked.sort_by_key(|&(src, ..)| src);
        if parked.windows(2).any(|w| w[0].2.end != w[1].2.start) {
            slots = (parked.iter())
                .flat_map(|(_, _, of)| slots[of.clone()].iter().copied())
                .collect();
        }
        let mut store = ResidentStore {
            live: slots.len(),
            slots,
            ..ResidentStore::new()
        };
        let mut at = 0;
        for (_, buf, of) in parked {
            let page = store.pages.len();
            store.slots[at..at + of.len()]
                .iter_mut()
                .for_each(|s| s.page = page);
            at += of.len();
            store.live_bytes += buf.len();
            store.pages.push(buf);
        }
        Ok((store, stats))
    }

    /// Live replicas.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no replica is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Size of the index table: live slots plus the dead ones the next
    /// [`ResidentStore::compact`] drops.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Whether slot `i` still holds a replica (no delete or departure has
    /// tombstoned it).
    pub fn is_live(&self, i: usize) -> bool {
        self.slots[i].live
    }

    /// The cell of the replica in slot `i`.
    pub fn cell(&self, i: usize) -> u32 {
        self.slots[i].cell
    }

    /// The cached envelope of the replica in slot `i` — equal to the
    /// envelope of its decoded geometry.
    pub fn envelope(&self, i: usize) -> &Rect {
        &self.slots[i].envelope
    }

    /// The record in slot `i`, borrowed in place (`frame.wkb` decodes
    /// infallibly through [`wkb::decode_ref`]).
    pub fn frame(&self, i: usize) -> RecordFrame<'_> {
        let slot = &self.slots[i];
        let page = &self.pages[slot.page];
        let wkb_at = slot.at + 12;
        let userdata_at = wkb_at + slot.wkb_len + 4;
        let userdata = &page[userdata_at..userdata_at + slot.userdata_len];
        RecordFrame {
            cell: slot.cell,
            wkb: &page[wkb_at..wkb_at + slot.wkb_len],
            // audit: every record was validated on entry.
            userdata: std::str::from_utf8(userdata).expect("validated userdata"),
        }
    }

    /// The live replicas' `(cell, envelope)`, in slot order.
    pub fn replicas(&self) -> impl Iterator<Item = (u32, &Rect)> {
        self.slots
            .iter()
            .filter(|s| s.live)
            .map(|s| (s.cell, &s.envelope))
    }

    /// The live replicas' records, in slot order.
    pub fn frames(&self) -> impl Iterator<Item = RecordFrame<'_>> {
        (0..self.slots.len())
            .filter(|&i| self.slots[i].live)
            .map(|i| self.frame(i))
    }

    /// Lands one completed exchange round in this store as fresh
    /// replicas — the receive side of an insert trip or a migration — by
    /// copying its records into the store's pages. Validate-then-apply:
    /// [`validate_round`] runs over every source's buffer first, and a
    /// round it rejects appends nothing. Returns the new replicas' slot
    /// range. Charges the validation scan ([`Work::CopyBytes`]) plus one
    /// [`Work::MbrTests`] per record for its envelope; no object is built.
    /// Not collective — an [`crate::exchange::ExchangePlan::run`] sink.
    pub fn append_round(&mut self, comm: &mut Comm, bufs: &[Vec<u8>]) -> Result<Range<usize>> {
        let records = validate_round(comm, bufs)?;
        let first = self.slots.len();
        index_round(bufs, &mut self.slots);
        for i in first..self.slots.len() {
            let Slot {
                page: src,
                at: from,
                ..
            } = self.slots[i];
            let len = self.slots[i].record_len();
            let (page, at) = self.place(len);
            self.pages[page].extend_from_slice(&bufs[src][from..from + len]);
            (self.slots[i].page, self.slots[i].at) = (page, at);
            self.live += 1;
            self.live_bytes += len;
        }
        comm.charge(Work::MbrTests { n: records });
        Ok(first..self.slots.len())
    }

    /// Applies one completed round of delete records. Validate-then-apply,
    /// as [`ResidentStore::append_round`]: a rejected round removes
    /// nothing. Each record removes **exactly one** live replica with the
    /// same cell, the same userdata and an equal geometry — equal bytes,
    /// or, when the bytes differ, equal coordinates
    /// ([`wkb::GeomRef`]'s `==`: `-0.0` matches `0.0`, as the owned
    /// `Feature` comparison did); two identical replicas need two
    /// deletes, and a record matching nothing is counted in
    /// [`DeleteOutcome::missing`].
    /// Charges the validation scan plus one [`Work::MbrTests`] per record
    /// for the keyed compare.
    /// Not collective — an [`crate::exchange::ExchangePlan::run`] sink.
    pub fn delete_round(&mut self, comm: &mut Comm, bufs: &[Vec<u8>]) -> Result<DeleteOutcome> {
        let records = validate_round(comm, bufs)?;
        self.link_pending();
        let mut missing = 0u64;
        for frame in bufs.iter().flat_map(|buf| record_frames(buf)) {
            match self.find(&frame) {
                Some(i) => self.kill(i),
                None => missing += 1,
            }
        }
        comm.charge(Work::MbrTests { n: records });
        Ok(DeleteOutcome { records, missing })
    }

    /// Moves every live replica `dest_of` names a destination for out of
    /// the store and into that destination's buffer of `batch` — the
    /// record bytes verbatim, nothing re-encoded. Returns the wire bytes
    /// taken; charging them is the caller's ([`Work::CopyBytes`]).
    pub fn drain_to(
        &mut self,
        mut dest_of: impl FnMut(u32) -> Option<usize>,
        batch: &mut SerializedBatch,
    ) -> u64 {
        let mut taken = 0u64;
        for i in 0..self.slots.len() {
            let slot = &self.slots[i];
            if !slot.live {
                continue;
            }
            let Some(dest) = dest_of(slot.cell) else {
                continue;
            };
            let record = &self.pages[slot.page][slot.at..slot.at + slot.record_len()];
            batch.bufs[dest].extend_from_slice(record);
            batch.records[dest] += 1;
            taken += record.len() as u64;
            self.kill(i);
        }
        taken
    }

    /// Squeezes out what removals left behind: dead slots leave the index
    /// table (live replicas keep their relative order and are renumbered
    /// `0..len()`), the live records close up over the dead bytes — in
    /// place, page by page, over pages of any size; emptied pages are
    /// freed — and the delete keys are dropped, to be rebuilt by the next
    /// delete. Returns whether anything was dead; when nothing was, this
    /// is free. Charges the copy of the live bytes ([`Work::CopyBytes`]).
    /// Not collective — the communicator only charges the copy.
    pub fn compact(&mut self, comm: &mut Comm) -> bool {
        if self.live == self.slots.len() {
            return false;
        }
        // Slots are in byte order (records are only ever appended), so
        // every live record moves toward the front: within its page, or
        // onto the end of an earlier page whose own live records have
        // all moved already. A page too small for the next record is
        // closed and left behind, empty if nothing moved onto it; the
        // record's own page always has room.
        self.slots.retain(|s| s.live);
        // `kept`: the pages left behind holding records, which stay.
        let (mut page, mut end, mut kept) = (0, 0, 0);
        for slot in &mut self.slots {
            let len = slot.record_len();
            while page < slot.page && self.pages[page].capacity() - end < len {
                self.pages[page].truncate(end);
                kept += usize::from(end > 0);
                (page, end) = (page + 1, 0);
            }
            if slot.page == page {
                self.pages[page].copy_within(slot.at..slot.at + len, end);
            } else {
                let (front, back) = self.pages.split_at_mut(slot.page);
                front[page].truncate(end);
                front[page].extend_from_slice(&back[0][slot.at..slot.at + len]);
            }
            (slot.page, slot.at) = (kept, end);
            end += len;
        }
        self.pages.truncate(page + 1);
        self.pages[page].truncate(end);
        self.pages.retain(|p| !p.is_empty());
        self.keys.clear();
        self.keyed = 0;
        comm.charge(Work::CopyBytes {
            n: self.live_bytes as u64,
        });
        true
    }

    /// Where the next record of `len` bytes goes: the end of the last
    /// page, or of a fresh page when that one has no room for it.
    fn place(&mut self, len: usize) -> (usize, usize) {
        let room = self.pages.last().map_or(0, |p| p.capacity() - p.len());
        if self.pages.is_empty() || room < len {
            self.pages.push(Vec::with_capacity(len.max(PAGE_BYTES)));
        }
        let page = self.pages.len() - 1;
        (page, self.pages[page].len())
    }

    fn key(&self, cell: u32, userdata: &str) -> u64 {
        self.hasher.hash_one((cell, userdata))
    }

    /// Brings the delete keys up to date: every slot not yet linked goes
    /// to the head of its key's chain.
    fn link_pending(&mut self) {
        for i in self.keyed..self.slots.len() {
            let frame = self.frame(i);
            let key = self.key(frame.cell, frame.userdata);
            self.slots[i].next = self.keys.insert(key, i).unwrap_or(NO_SLOT);
        }
        self.keyed = self.slots.len();
    }

    /// The live slot a delete record matches, if any; the keys must be
    /// up to date ([`ResidentStore::link_pending`]).
    fn find(&self, target: &RecordFrame<'_>) -> Option<usize> {
        debug_assert_eq!(self.keyed, self.slots.len());
        let mut at = *self.keys.get(&self.key(target.cell, target.userdata))?;
        while at != NO_SLOT {
            let slot = &self.slots[at];
            if slot.live && slot.cell == target.cell {
                let frame = self.frame(at);
                if frame.userdata == target.userdata && same_geometry(frame.wkb, target.wkb) {
                    return Some(at);
                }
            }
            at = slot.next;
        }
        None
    }

    /// Marks slot `i` dead; its bytes stay until the next compaction.
    fn kill(&mut self, i: usize) {
        let slot = &mut self.slots[i];
        debug_assert!(slot.live);
        slot.live = false;
        self.live -= 1;
        self.live_bytes -= slot.record_len();
    }
}

/// The envelope pass over one validated round: appends one live slot per
/// record to `out`, in (source, record) order, each on page `src` at its
/// offset in its source's buffer, with the envelope of its decoded view.
/// Charges nothing.
fn index_round(bufs: &[Vec<u8>], out: &mut Vec<Slot>) {
    for (page, buf) in bufs.iter().enumerate() {
        let mut at = 0;
        for frame in record_frames(buf) {
            let slot = Slot {
                page,
                at,
                wkb_len: frame.wkb.len(),
                userdata_len: frame.userdata.len(),
                cell: frame.cell,
                envelope: view(frame.wkb).envelope(),
                next: NO_SLOT,
                live: true,
            };
            at += slot.record_len();
            out.push(slot);
        }
    }
}

/// The borrowed view of a validated record's geometry.
fn view(wkb: &[u8]) -> wkb::GeomRef<'_> {
    // audit: the store only holds, and is only asked about, validated records.
    wkb::decode_ref(wkb).expect("validated frame").0
}

/// Whether two validated WKB payloads describe equal geometries: equal
/// bytes, or — only when they differ — equal coordinates.
fn same_geometry(a: &[u8], b: &[u8]) -> bool {
    a == b || view(a) == view(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::{serialize_record, ExchangeChunk};
    use crate::{CoreError, Feature};
    use mvio_geom::{wkt, Geometry, Point};
    use mvio_msim::{Topology, World, WorldConfig};

    fn feature(text: &str, userdata: &str) -> Feature {
        Feature::with_userdata(wkt::parse(text).unwrap(), userdata)
    }

    /// One wire buffer holding the given records.
    fn wire(records: &[(u32, Feature)]) -> Vec<u8> {
        let mut buf = Vec::new();
        for (cell, f) in records {
            serialize_record(*cell, f, &mut Vec::new(), &mut buf).unwrap();
        }
        buf
    }

    /// A store holding `records`, in order, landed as one received round.
    fn stored(comm: &mut Comm, records: &[(u32, Feature)]) -> ResidentStore {
        let mut store = ResidentStore::new();
        store.append_round(comm, &[wire(records)]).unwrap();
        store
    }

    /// The live replicas decoded, in slot order.
    fn decoded(store: &ResidentStore) -> Vec<(u32, Feature)> {
        store
            .frames()
            .map(|fr| (fr.cell, fr.to_feature().unwrap()))
            .collect()
    }

    fn on_one_rank(f: impl Fn(&mut Comm) + Send + Sync) {
        World::run(WorldConfig::new(Topology::single_node(1)), f);
    }

    #[test]
    fn append_index_remove_compact_round_trip() {
        on_one_rank(|comm| {
            let base = vec![
                (3, feature("POINT (1 2)", "a")),
                (3, feature("LINESTRING (0 0, 4 4, 8 0)", "road")),
                (7, feature("POLYGON ((0 0, 4 0, 0 4, 0 0))", "")),
            ];
            let mut store = stored(comm, &base);
            assert_eq!(decoded(&store), base);
            assert_eq!(store.live_bytes, wire(&base).len());
            for (i, (cell, f)) in base.iter().enumerate() {
                assert_eq!(store.cell(i), *cell);
                assert_eq!(*store.envelope(i), f.geometry.envelope());
                assert_eq!(store.frame(i).userdata, f.userdata);
            }

            // A round from two sources lands in source order.
            let more = [
                (9, feature("POINT (5 5)", "b")),
                (3, feature("POINT (1 2)", "a")),
            ];
            let range = store
                .append_round(comm, &[wire(&more[..1]), Vec::new(), wire(&more[1..])])
                .unwrap();
            assert_eq!(range, 3..5);
            assert_eq!(store.len(), 5);

            // One delete takes one of the two identical `a` replicas.
            let delete = wire(&[(3, feature("POINT (1 2)", "a"))]);
            let del = |store: &mut ResidentStore, comm: &mut Comm| {
                store
                    .delete_round(comm, std::slice::from_ref(&delete))
                    .unwrap()
            };
            assert_eq!(del(&mut store, comm).missing, 0);
            assert_eq!((store.len(), store.slots()), (4, 5));
            assert_eq!(del(&mut store, comm).missing, 0);
            assert_eq!((store.len(), store.slots()), (3, 5));
            assert_eq!(del(&mut store, comm).missing, 1, "both are gone");

            let before = decoded(&store);
            assert!(store.compact(comm));
            assert!(!store.compact(comm), "nothing left to squeeze");
            assert_eq!(decoded(&store), before);
            assert_eq!((store.len(), store.slots()), (3, 3));
            let held: usize = store.pages.iter().map(Vec::len).sum();
            assert_eq!(held, store.live_bytes);
            // The keys survive the renumbering.
            let road = wire(&[(3, feature("LINESTRING (0 0, 4 4, 8 0)", "road"))]);
            let out = store.delete_round(comm, &[road]).unwrap();
            assert_eq!((out.records, out.missing, store.len()), (1, 0, 2));
        });
    }

    /// A polyline of `n` vertices starting at `(x0, 0)`.
    fn polyline(n: usize, x0: f64, userdata: &str) -> Feature {
        let pts = (0..n).map(|i| Point::new(x0 + i as f64, (i % 7) as f64));
        let line = mvio_geom::LineString::new(pts.collect()).unwrap();
        Feature::with_userdata(Geometry::LineString(line), userdata)
    }

    /// A store holding `records`, in order, whose first records an
    /// exchange landed — one round per `(records, spare capacity)` of
    /// `rounds`, each adopted whole as a page — and whose rest were
    /// appended in one round after.
    fn landed(
        comm: &mut Comm,
        records: &[(u32, Feature)],
        rounds: &[(usize, usize)],
    ) -> ResidentStore {
        let (mut next, mut pending) = (0, rounds.iter());
        let mut feed = |_: &mut Comm| -> Result<Option<ExchangeRound>> {
            Ok(pending.next().map(|&(n, spare)| {
                let bytes = wire(&records[next..next + n]);
                next += n;
                let mut buf = Vec::with_capacity(bytes.len() + spare);
                buf.extend_from_slice(&bytes);
                let batch = SerializedBatch {
                    bufs: vec![buf],
                    records: vec![n as u64],
                };
                let more = pending.len() > 0;
                ExchangeRound { batch, more }
            }))
        };
        let plan = ExchangePlan::new(comm, ExchangeChunk::Unlimited);
        let (mut store, _) = ResidentStore::land(comm, &plan, &mut feed).unwrap();
        assert_eq!(store.pages.len(), rounds.len(), "one page per round");
        store.append_round(comm, &[wire(&records[next..])]).unwrap();
        store
    }

    #[test]
    fn compaction_closes_up_across_pages() {
        on_one_rank(|comm| {
            // 16 KB records, and one of 80 KB, which gets a page of its
            // own when it is appended.
            let mut base: Vec<(u32, Feature)> = (0..24)
                .map(|i| (i % 5, polyline(1000, i as f64, &format!("l{i:02}"))))
                .collect();
            base.insert(9, (2, polyline(5000, 0.5, "oversized")));
            // Appended: four records to a 64 KB page, the oversized one
            // alone in the middle.
            let appended = stored(comm, &base);
            assert!(appended.pages.len() >= 7, "{} pages", appended.pages.len());
            // Adopted: the first 13 records landed as five pages of the
            // sizes the exchange delivered, two of them above 64 KB, and
            // two too small for the oversized record, which must close up
            // past them.
            let rounds = [(1, 0), (5, 0), (2, 7), (1, 3), (4, 50_000)];
            let adopted = landed(comm, &base, &rounds);
            assert!(adopted.pages[1].capacity() > PAGE_BYTES);
            assert!(adopted.pages[4].capacity() > PAGE_BYTES);

            for (what, mut store) in [("appended", appended), ("adopted", adopted)] {
                assert_eq!(decoded(&store), base, "{what}");
                let capacities: Vec<usize> = store.pages.iter().map(Vec::capacity).collect();
                // Rounds of deletes, each followed by a compaction: every
                // third record, then the oversized one and every second
                // of what is left, then all but one.
                let mut live = base.clone();
                for round in 0..3 {
                    let doomed: Vec<(u32, Feature)> = live
                        .iter()
                        .enumerate()
                        .filter(|(i, (_, f))| match round {
                            0 => i % 3 == 0 && f.userdata != "oversized",
                            1 => i % 2 == 0 || f.userdata == "oversized",
                            _ => *i > 0,
                        })
                        .map(|(_, r)| r.clone())
                        .collect();
                    live.retain(|r| !doomed.contains(r));
                    let out = store.delete_round(comm, &[wire(&doomed)]).unwrap();
                    assert_eq!((out.records, out.missing), (doomed.len() as u64, 0));
                    let before = format!("{what}, round {round}, before compaction");
                    assert_eq!(decoded(&store), live, "{before}");
                    assert!(store.compact(comm));
                    assert_eq!(decoded(&store), live, "{what}, round {round}");
                    assert_eq!((store.len(), store.slots()), (live.len(), live.len()));
                    let held: usize = store.pages.iter().map(Vec::len).sum();
                    assert_eq!(held, store.live_bytes, "{what}, round {round}");
                    assert!(store.pages.iter().all(|p| !p.is_empty()), "{what}");
                    let kept = |p: &Vec<u8>| capacities.contains(&p.capacity());
                    assert!(store.pages.iter().all(kept), "{what}: a page grew");
                }
                assert_eq!(store.pages.len(), 1, "{what}: emptied pages are freed");

                // Appends after a compaction go on filling the last page
                // while it has room.
                let more = [(1, polyline(1000, 9.0, "late"))];
                let page = &store.pages[0];
                let fits = page.capacity() - page.len() >= wire(&more).len();
                store.append_round(comm, &[wire(&more)]).unwrap();
                live.extend(more);
                assert_eq!(decoded(&store), live, "{what}");
                assert_eq!(store.pages.len(), if fits { 1 } else { 2 }, "{what}");
            }
        });
    }

    #[test]
    fn delete_matches_by_coordinates_when_the_bytes_differ() {
        on_one_rank(|comm| {
            let resident = vec![
                (1, feature("POINT (0 5)", "z")),
                (1, feature("LINESTRING (0 0, 2 2)", "l")),
            ];
            let mut store = stored(comm, &resident);
            let minus_zero = Feature::with_userdata(Geometry::Point(Point::new(-0.0, 5.0)), "z");
            let attempts = [
                (2, minus_zero.clone()),                         // wrong cell
                (1, feature("POINT (0 5)", "zz")),               // wrong userdata
                (1, feature("POINT (0 6)", "z")),                // wrong geometry
                (1, feature("LINESTRING (0 0, 2 2, 3 3)", "l")), // a longer line
            ];
            for attempt in &attempts {
                let out = store
                    .delete_round(comm, &[wire(std::slice::from_ref(attempt))])
                    .unwrap();
                assert_eq!(out.missing, 1, "{attempt:?}");
            }
            assert_eq!(store.len(), 2);
            let out = store
                .delete_round(comm, &[wire(&[(1, minus_zero)])])
                .unwrap();
            assert_eq!((out.missing, store.len()), (0, 1), "-0.0 matches 0.0");
        });
    }

    #[test]
    fn a_rejected_round_changes_nothing() {
        on_one_rank(|comm| {
            let base = vec![(1, feature("POINT (1 1)", "keep"))];
            let mut store = stored(comm, &base);
            let good = wire(&[
                (2, feature("POINT (2 2)", "new")),
                (1, feature("POINT (1 1)", "keep")),
            ]);
            let mut torn = good.clone();
            torn.truncate(good.len() - 3);
            // The good buffer comes first: validation must cover the
            // whole round before the first record is applied.
            let round = [good, torn];
            assert!(matches!(
                store.append_round(comm, &round),
                Err(CoreError::Frame(_))
            ));
            assert!(matches!(
                store.delete_round(comm, &round),
                Err(CoreError::Frame(_))
            ));
            assert_eq!(decoded(&store), base);
            assert_eq!((store.len(), store.slots()), (1, 1));
        });
    }

    #[test]
    fn drain_to_forwards_the_record_bytes() {
        on_one_rank(|comm| {
            let base: Vec<(u32, Feature)> = (0..6)
                .map(|i| (i % 3, feature(&format!("POINT ({i} 0)"), &format!("p{i}"))))
                .collect();
            let mut store = stored(comm, &base);
            let mut batch = SerializedBatch::empty(2);
            // Cell 0 stays, cell 1 goes to rank 0, cell 2 to rank 1.
            let taken = store.drain_to(|cell| cell.checked_sub(1).map(|d| d as usize), &mut batch);
            let of_cell = |cell| -> Vec<(u32, Feature)> {
                base.iter().filter(|(c, _)| *c == cell).cloned().collect()
            };
            assert_eq!(batch.bufs, vec![wire(&of_cell(1)), wire(&of_cell(2))]);
            assert_eq!(batch.records, vec![2, 2]);
            assert_eq!(taken as usize, batch.bufs[0].len() + batch.bufs[1].len());
            assert_eq!(decoded(&store), of_cell(0));
            assert_eq!(store.replicas().count(), 2);
        });
    }
}
