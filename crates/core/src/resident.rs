//! The resident frame store: a rank's replicas kept as the validated
//! wire records the exchange delivered them as (`docs/FORMAT.md` §5).
//!
//! [`crate::exchange::FrameStore`] holds what *one* exchange received and
//! is read once; a resident engine's replica set outlives many exchanges
//! and changes between them — updates arrive, deletes and migrations take
//! replicas away. [`ResidentStore`] is that long-lived counterpart. It
//! keeps the `[u64 cell][u32 len][wkb][u32 len][userdata]` records as
//! bytes, beside an index table with one entry per replica (cell, record
//! offset, field lengths, cached envelope), so replica `i` is reached in
//! O(1) and nothing is decoded into a [`Feature`] to land, to leave or to
//! be found:
//!
//! * **validated once** — bytes enter only through [`validate_round`]
//!   ([`ResidentStore::append_round`]), from a [`FrameStore`] the
//!   exchange already validated, or from this process's own encoder
//!   ([`ResidentStore::from_owned`]); every later read walks them
//!   infallibly;
//! * **all or nothing** — a received round that fails validation leaves
//!   the store exactly as it was;
//! * **removal leaves a tombstone** — the index entry is marked dead and
//!   the record's bytes stay behind until [`ResidentStore::compact`]
//!   squeezes them out (the engine does so when it reindexes);
//! * **deletes find their replica by key** — a hash of `(cell, userdata)`,
//!   built when the first delete needs it, leads to the candidates, which
//!   are confirmed by geometry (see [`ResidentStore::delete_round`] for
//!   the exact rule).

use crate::exchange::{
    record_frames, serialize_record, validate_round, FrameStore, RecordFrame, SerializedBatch,
    RECORD_OVERHEAD,
};
use crate::{Feature, Result};
use mvio_geom::{wkb, Rect};
use mvio_msim::{Comm, Work};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::ops::Range;

/// End-of-chain marker in [`Slot::next`].
const NO_SLOT: usize = usize::MAX;

/// Records are kept in pages of this many bytes (a larger record gets a
/// page of its own). The store grows by adding a page and shrinks by
/// dropping one, so it never reallocates — and never holds, however
/// briefly, two copies of — a buffer the size of the partition; what it
/// frees is reusable page by page.
const PAGE_BYTES: usize = 64 * 1024;

/// One entry of the index table.
#[derive(Debug, Clone)]
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

/// A rank's resident replicas as validated wire records plus an index
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

    /// Encodes owned `(cell, feature)` pairs into a store, in order — the
    /// seam for callers whose replicas are still objects. This is the one
    /// place the resident engine builds wire records itself, and it is
    /// charged as that ([`Work::SerializeGeoms`] per replica, plus one
    /// [`Work::MbrTests`] each for the cached envelope).
    /// Not collective — the communicator only charges the encode.
    pub fn from_owned(comm: &mut Comm, owned: Vec<(u32, Feature)>) -> Result<Self> {
        let mut store = ResidentStore::new();
        store.slots.reserve_exact(owned.len());
        let mut scratch = Vec::new();
        let n = owned.len() as u64;
        for (cell, f) in owned {
            let len = RECORD_OVERHEAD + wkb::encoded_len(&f.geometry) + f.userdata.len();
            let (page, at) = store.place(len);
            serialize_record(cell, &f, &mut scratch, &mut store.pages[page])?;
            let envelope = f.geometry.envelope();
            store.push_slot(page, at, cell, scratch.len(), f.userdata.len(), envelope);
        }
        comm.charge(Work::SerializeGeoms {
            n,
            bytes: store.live_bytes(),
        });
        comm.charge(Work::MbrTests { n });
        Ok(store)
    }

    /// Adopts what an exchange or a snapshot reload received — one
    /// [`FrameStore`] per sliding window — in window-then-source order.
    /// The frames were validated on arrival and are not validated again;
    /// nothing is decoded beyond the envelope pass. Charges the byte copy
    /// ([`Work::CopyBytes`]) and one [`Work::MbrTests`] per record.
    /// Not collective — the communicator only charges the copy.
    pub fn from_frames(comm: &mut Comm, stores: &[FrameStore]) -> Self {
        let mut store = ResidentStore::new();
        let records: u64 = stores
            .iter()
            .flat_map(FrameStore::buffers)
            .map(|buf| store.append_validated(buf))
            .sum();
        comm.charge(Work::CopyBytes {
            n: store.live_bytes(),
        });
        comm.charge(Work::MbrTests { n: records });
        store
    }

    /// Live replicas.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no replica is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Wire bytes of the live replicas — what shipping the whole
    /// partition would send.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes as u64
    }

    /// Size of the index table: live slots plus the dead ones the next
    /// [`ResidentStore::compact`] drops.
    pub fn slots(&self) -> usize {
        self.slots.len()
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
            // audit: every record was validated (or encoded from a `String`) on entry.
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

    /// Lands one completed exchange round as fresh replicas — the receive
    /// side of an insert trip or a migration. Validate-then-apply:
    /// [`validate_round`] runs over every source's buffer first, and a
    /// round it rejects appends nothing. Returns the new replicas' slot
    /// range. Charges the validation scan ([`Work::CopyBytes`]) plus one
    /// [`Work::MbrTests`] per record for its envelope; no object is built.
    /// Not collective — an [`crate::exchange::ExchangePlan::run`] sink.
    pub fn append_round(&mut self, comm: &mut Comm, bufs: &[Vec<u8>]) -> Result<Range<usize>> {
        let records = validate_round(comm, bufs)?;
        let first = self.slots.len();
        for buf in bufs {
            self.append_validated(buf);
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
    /// `Feature` comparison did) — and reports it to `removed` as
    /// `(cell, envelope)`; two identical replicas need two deletes, and a
    /// record matching nothing is counted in [`DeleteOutcome::missing`].
    /// Charges the validation scan plus one [`Work::MbrTests`] per record
    /// for the keyed compare.
    /// Not collective — an [`crate::exchange::ExchangePlan::run`] sink.
    pub fn delete_round(
        &mut self,
        comm: &mut Comm,
        bufs: &[Vec<u8>],
        removed: &mut dyn FnMut(u32, &Rect),
    ) -> Result<DeleteOutcome> {
        let records = validate_round(comm, bufs)?;
        self.link_pending();
        let mut missing = 0u64;
        for frame in bufs.iter().flat_map(|buf| record_frames(buf)) {
            match self.find(&frame) {
                Some(i) => {
                    self.kill(i);
                    removed(frame.cell, &self.slots[i].envelope);
                }
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
    /// place, page by page; emptied pages are freed — and the delete keys
    /// are dropped, to be rebuilt by the next delete. Returns whether anything was dead; when nothing was,
    /// this is free. Charges the copy of the live bytes
    /// ([`Work::CopyBytes`]).
    /// Not collective — the communicator only charges the copy.
    pub fn compact(&mut self, comm: &mut Comm) -> bool {
        if self.live == self.slots.len() {
            return false;
        }
        // Slots are in byte order (records are only ever appended), so
        // every live record moves toward the front: within its page, or
        // onto the end of an earlier page whose own live records have
        // all moved already.
        self.slots.retain(|s| s.live);
        let (mut page, mut end) = (0, 0);
        for slot in &mut self.slots {
            let len = slot.record_len();
            if self.pages[page].capacity() - end < len {
                self.pages[page].truncate(end);
                (page, end) = (page + 1, 0);
            }
            if slot.page == page {
                self.pages[page].copy_within(slot.at..slot.at + len, end);
            } else {
                let (front, back) = self.pages.split_at_mut(slot.page);
                front[page].truncate(end);
                front[page].extend_from_slice(&back[0][slot.at..slot.at + len]);
            }
            (slot.page, slot.at) = (page, end);
            end += len;
        }
        if self.slots.is_empty() {
            self.pages.clear();
        } else {
            self.pages[page].truncate(end);
            self.pages.truncate(page + 1);
        }
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

    /// Appends the records of one already-validated buffer; returns how
    /// many there were.
    fn append_validated(&mut self, buf: &[u8]) -> u64 {
        let mut pos = 0;
        let mut records = 0u64;
        for frame in record_frames(buf) {
            let len = frame.wire_len();
            let (page, at) = self.place(len);
            self.pages[page].extend_from_slice(&buf[pos..pos + len]);
            let envelope = view(frame.wkb).envelope();
            let (wkb_len, userdata_len) = (frame.wkb.len(), frame.userdata.len());
            self.push_slot(page, at, frame.cell, wkb_len, userdata_len, envelope);
            pos += len;
            records += 1;
        }
        debug_assert_eq!(pos, buf.len());
        records
    }

    /// Adds the index entry of the record already written at `at` of
    /// page `page`.
    fn push_slot(
        &mut self,
        page: usize,
        at: usize,
        cell: u32,
        wkb_len: usize,
        userdata_len: usize,
        envelope: Rect,
    ) {
        let slot = Slot {
            page,
            at,
            wkb_len,
            userdata_len,
            cell,
            envelope,
            next: NO_SLOT,
            live: true,
        };
        self.live += 1;
        self.live_bytes += slot.record_len();
        self.slots.push(slot);
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
    use crate::CoreError;
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
            let mut store = ResidentStore::from_owned(comm, base.clone()).unwrap();
            assert_eq!(decoded(&store), base);
            assert_eq!(store.live_bytes() as usize, wire(&base).len());
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
            let mut removed = Vec::new();
            let delete = wire(&[(3, feature("POINT (1 2)", "a"))]);
            let mut del = |store: &mut ResidentStore, comm: &mut Comm| {
                store
                    .delete_round(comm, std::slice::from_ref(&delete), &mut |cell, env| {
                        removed.push((cell, *env))
                    })
                    .unwrap()
            };
            assert_eq!(del(&mut store, comm).missing, 0);
            assert_eq!((store.len(), store.slots()), (4, 5));
            assert_eq!(del(&mut store, comm).missing, 0);
            assert_eq!(del(&mut store, comm).missing, 1, "both are gone");
            assert_eq!(removed.len(), 2);
            assert_eq!(removed[0], (3, Point::new(1.0, 2.0).envelope()));

            let before = decoded(&store);
            assert!(store.compact(comm));
            assert!(!store.compact(comm), "nothing left to squeeze");
            assert_eq!(decoded(&store), before);
            assert_eq!((store.len(), store.slots()), (3, 3));
            let held: usize = store.pages.iter().map(Vec::len).sum();
            assert_eq!(held as u64, store.live_bytes());
            // The keys survive the renumbering.
            let road = wire(&[(3, feature("LINESTRING (0 0, 4 4, 8 0)", "road"))]);
            let out = store.delete_round(comm, &[road], &mut |_, _| {}).unwrap();
            assert_eq!((out.records, out.missing, store.len()), (1, 0, 2));
        });
    }

    /// A polyline of `n` vertices starting at `(x0, 0)`.
    fn polyline(n: usize, x0: f64, userdata: &str) -> Feature {
        let pts = (0..n).map(|i| Point::new(x0 + i as f64, (i % 7) as f64));
        let line = mvio_geom::LineString::new(pts.collect()).unwrap();
        Feature::with_userdata(Geometry::LineString(line), userdata)
    }

    #[test]
    fn compaction_closes_up_across_pages() {
        on_one_rank(|comm| {
            // 16 KB records, four to a page, and one of 80 KB that gets a
            // page of its own in the middle.
            let mut base: Vec<(u32, Feature)> = (0..24)
                .map(|i| (i % 5, polyline(1000, i as f64, &format!("l{i:02}"))))
                .collect();
            base.insert(9, (2, polyline(5000, 0.5, "oversized")));
            let mut store = ResidentStore::from_owned(comm, base.clone()).unwrap();
            assert_eq!(decoded(&store), base);
            let pages = store.pages.len();
            assert!(pages >= 7, "{pages} pages");

            // Rounds of deletes, each followed by a compaction: every
            // third record, then the oversized one and every second of
            // what is left, then all but one.
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
                let out = store
                    .delete_round(comm, &[wire(&doomed)], &mut |_, _| {})
                    .unwrap();
                assert_eq!((out.records, out.missing), (doomed.len() as u64, 0));
                assert_eq!(decoded(&store), live, "round {round}, before compaction");
                assert!(store.compact(comm));
                assert_eq!(decoded(&store), live, "round {round}");
                assert_eq!((store.len(), store.slots()), (live.len(), live.len()));
                let held: usize = store.pages.iter().map(Vec::len).sum();
                assert_eq!(held as u64, store.live_bytes());
            }
            assert_eq!(store.pages.len(), 1, "emptied pages are freed");

            // Appends after a compaction go on filling the last page.
            let more = [(1, polyline(1000, 9.0, "late"))];
            store.append_round(comm, &[wire(&more)]).unwrap();
            live.extend(more);
            assert_eq!(decoded(&store), live);
            assert_eq!(store.pages.len(), 1);
        });
    }

    #[test]
    fn delete_matches_by_coordinates_when_the_bytes_differ() {
        on_one_rank(|comm| {
            let resident = vec![
                (1, feature("POINT (0 5)", "z")),
                (1, feature("LINESTRING (0 0, 2 2)", "l")),
            ];
            let mut store = ResidentStore::from_owned(comm, resident.clone()).unwrap();
            let minus_zero = Feature::with_userdata(Geometry::Point(Point::new(-0.0, 5.0)), "z");
            let attempts = [
                (2, minus_zero.clone()),                         // wrong cell
                (1, feature("POINT (0 5)", "zz")),               // wrong userdata
                (1, feature("POINT (0 6)", "z")),                // wrong geometry
                (1, feature("LINESTRING (0 0, 2 2, 3 3)", "l")), // a longer line
            ];
            for attempt in &attempts {
                let out = store
                    .delete_round(comm, &[wire(std::slice::from_ref(attempt))], &mut |_, _| {})
                    .unwrap();
                assert_eq!(out.missing, 1, "{attempt:?}");
            }
            assert_eq!(store.len(), 2);
            let out = store
                .delete_round(comm, &[wire(&[(1, minus_zero)])], &mut |_, _| {})
                .unwrap();
            assert_eq!((out.missing, store.len()), (0, 1), "-0.0 matches 0.0");
        });
    }

    #[test]
    fn a_rejected_round_changes_nothing() {
        on_one_rank(|comm| {
            let base = vec![(1, feature("POINT (1 1)", "keep"))];
            let mut store = ResidentStore::from_owned(comm, base.clone()).unwrap();
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
                store.delete_round(comm, &round, &mut |_, _| panic!("nothing may be removed")),
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
            let mut store = ResidentStore::from_owned(comm, base.clone()).unwrap();
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
