//! Where a rank's virtual seconds went: the conserved ledger behind
//! [`Comm::ledger`](crate::Comm::ledger).
//!
//! The clock moves only through a handful of [`Comm`](crate::Comm)
//! methods: charging a quantum of [`Work`], advancing by a duration or
//! by the slowest of a set of worker lanes, and waiting for a completion
//! (a collective's exit, a message's arrival, a file access). Each of
//! them also adds the seconds it moved the clock into exactly one
//! [`Slot`] of the rank's [`Ledger`], so the slots sum to
//! [`Comm::now`](crate::Comm::now) up to floating-point rounding. The
//! ledger is a fixed array of `f64`s inside the communicator: keeping it
//! allocates nothing, and reading it is a copy.

use crate::time::Work;
use std::ops::Index;

/// What moved a rank's clock: one slot per [`Work`] kind, named and
/// ordered as the kinds are, then the three kinds of wait and the
/// advances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    ParseWkt,
    CopyBytes,
    SerializeGeoms,
    MbrTests,
    RefinePair,
    RtreeInserts,
    RtreeQueries,
    Seconds,
    /// Seconds a collective held the rank: exit − entry at the
    /// rendezvous for a blocking collective, and for a nonblocking one
    /// the part of that span its wait left exposed (the rest ran under
    /// compute that other slots already count).
    CollectiveWait,
    /// Exposed waits for point-to-point messages: a send's injection, a
    /// receive's arrival.
    MessageWait,
    /// Waits for file accesses: the I/O layer's collectives (aggregation
    /// included) and every completion a rank waits for on its own.
    Io,
    /// Explicit [`Comm::advance`](crate::Comm::advance)s and folded
    /// worker lanes ([`Comm::advance_parallel`](crate::Comm::advance_parallel)).
    Advance,
}

impl Slot {
    /// Every slot, in ledger order.
    pub const ALL: [Slot; 12] = [
        Slot::ParseWkt,
        Slot::CopyBytes,
        Slot::SerializeGeoms,
        Slot::MbrTests,
        Slot::RefinePair,
        Slot::RtreeInserts,
        Slot::RtreeQueries,
        Slot::Seconds,
        Slot::CollectiveWait,
        Slot::MessageWait,
        Slot::Io,
        Slot::Advance,
    ];

    /// The slot a quantum of `work` is booked in.
    fn of(work: &Work) -> Slot {
        match work {
            Work::ParseWkt { .. } => Slot::ParseWkt,
            Work::CopyBytes { .. } => Slot::CopyBytes,
            Work::SerializeGeoms { .. } => Slot::SerializeGeoms,
            Work::MbrTests { .. } => Slot::MbrTests,
            Work::RefinePair { .. } => Slot::RefinePair,
            Work::RtreeInserts { .. } => Slot::RtreeInserts,
            Work::RtreeQueries { .. } => Slot::RtreeQueries,
            Work::Seconds(_) => Slot::Seconds,
        }
    }

    /// Whether the slot counts waiting rather than work.
    pub fn is_wait(self) -> bool {
        matches!(self, Slot::CollectiveWait | Slot::MessageWait | Slot::Io)
    }

    /// The slot's row name (`collective_wait`, `rtree_queries`, …).
    pub fn name(self) -> &'static str {
        [
            "parse_wkt",
            "copy_bytes",
            "serialize_geoms",
            "mbr_tests",
            "refine_pair",
            "rtree_inserts",
            "rtree_queries",
            "seconds",
            "collective_wait",
            "message_wait",
            "io",
            "advance",
        ][self as usize]
    }
}

/// One rank's virtual seconds, split by what moved the clock (index it
/// with a [`Slot`]). `Copy`: take one before and one after a region and
/// [`Ledger::since`] gives the region's own split.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ledger {
    seconds: [f64; Slot::ALL.len()],
}

impl Index<Slot> for Ledger {
    type Output = f64;

    fn index(&self, slot: Slot) -> &f64 {
        &self.seconds[slot as usize]
    }
}

impl Ledger {
    /// Sum of every slot: the rank's clock, up to rounding.
    pub fn total(&self) -> f64 {
        self.seconds.iter().sum()
    }

    /// The seconds booked since `earlier`, slot by slot.
    pub fn since(&self, earlier: &Ledger) -> Ledger {
        let mut d = *self;
        for (s, e) in d.seconds.iter_mut().zip(earlier.seconds) {
            *s -= e;
        }
        d
    }

    /// Adds `dt` seconds to `slot`.
    pub fn book(&mut self, slot: Slot, dt: f64) {
        self.seconds[slot as usize] += dt;
    }

    /// Books `dt` seconds of `work`.
    pub(crate) fn charge(&mut self, work: &Work, dt: f64) {
        self.book(Slot::of(work), dt);
    }
}

#[cfg(test)]
mod tests {
    use crate::ledger::Slot;
    use crate::{Topology, Work, World, WorldConfig};

    /// Every way the clock moves lands in one slot: skewed compute, an
    /// explicit advance, worker lanes, a barrier, a message ring, an
    /// overlapped nonblocking collective and a wait for a completion.
    #[test]
    fn every_clock_move_lands_in_one_slot() {
        let out = World::run(WorldConfig::new(Topology::single_node(3)), |comm| {
            let (r, p) = (comm.rank(), comm.size());
            comm.charge(Work::MbrTests {
                n: 1000 * (r as u64 + 1),
            });
            comm.charge(Work::Seconds(1e-3 * r as f64));
            comm.advance(1e-4);
            comm.advance_parallel(&[1e-5, 3e-5]);
            comm.barrier();
            let before = comm.ledger();
            let rx = comm.irecv((r + p - 1) % p, 7);
            comm.send((r + 1) % p, 7, &[0u8; 64]);
            let _ = comm.wait(rx);
            let req = comm.ialltoallv(vec![vec![1u8; 32]; p]);
            comm.charge(Work::CopyBytes { n: 10 });
            let _ = comm.wait(req);
            let t = comm.now() + 0.5;
            comm.advance_to(t);
            (comm.now(), comm.ledger(), before)
        });
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs());
        for (rank, (now, l, before)) in out.into_iter().enumerate() {
            assert!(close(l.total(), now), "rank {rank}: {l:?} vs {now}");
            assert_eq!(l[Slot::Seconds], 1e-3 * rank as f64);
            assert!(close(l[Slot::Advance], 1.3e-4), "rank {rank}: {l:?}");
            assert!(close(l[Slot::Io], 0.5), "rank {rank}: {l:?}");
            assert!(l[Slot::MessageWait] > 0.0);
            // The two faster ranks wait at the barrier for the slowest.
            assert_eq!(before[Slot::CollectiveWait] > 5e-4, rank < 2, "rank {rank}");
            let d = l.since(&before);
            assert_eq!(d[Slot::MbrTests], 0.0);
            assert!(close(d.total(), now - before.total()));
        }
    }

    #[test]
    fn slots_are_listed_in_ledger_order() {
        assert!(Slot::ALL.iter().enumerate().all(|(i, &s)| s as usize == i));
        let waits: Vec<&str> = Slot::ALL
            .iter()
            .filter(|s| s.is_wait())
            .map(|s| s.name())
            .collect();
        assert_eq!(waits, ["collective_wait", "message_wait", "io"]);
    }
}
