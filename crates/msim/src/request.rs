//! Nonblocking operation handles.
//!
//! MPI programs hide communication latency behind compute by splitting
//! every operation into an *initiation* (`MPI_Isend`, `MPI_Irecv`,
//! `MPI_Ialltoallv`, …) that returns a request handle immediately and a
//! *completion* (`MPI_Wait`/`MPI_Waitall`) that blocks until the
//! transfer finished. This module is that split for the simulator.
//!
//! ## Virtual-time semantics
//!
//! Initiating an operation never advances the caller's clock. The
//! operation's completion instant is fixed by the same cost models the
//! blocking calls use, measured from the *initiation* time; compute
//! charged between initiation and [`crate::Comm::wait`] therefore
//! overlaps the transfer, and `wait` advances the clock to
//! `max(clock, completion)` — the classic overlap identity. A blocking
//! call is exactly its nonblocking twin followed by an immediate `wait`
//! (and that is how `send`, `alltoallv` and friends are implemented),
//! so the degenerate no-overlap schedule is bit-identical in both data
//! and virtual time.
//!
//! ## Physical-time caveat
//!
//! Like every blocking operation in this runtime, initiation of a
//! nonblocking *collective* physically rendezvouses with the other ranks
//! (the hub needs all inputs before it can combine them); only the
//! *virtual* completion is deferred to `wait`. `irecv` defers its
//! matching to completion, so the symmetric
//! `irecv → isend → wait` exchange pattern that would deadlock with
//! blocking calls works.

use crate::check::{Label, REPORT};
use crate::ledger::Slot;

/// Handle for an in-flight nonblocking operation returning a `T` on
/// completion. Produced by [`crate::Comm`]'s `isend`, `irecv`,
/// `ialltoall_u64` and `ialltoallv`; consumed by its `wait` or
/// `waitall`.
///
/// Dropping a request without completing it is an MPI resource leak:
/// the `Drop` impl aborts the job with a protocol-violation report (see
/// [`crate::check`]) naming the rank, operation and call-site label that
/// initiated it.
#[derive(Debug)]
#[must_use = "a Request must be completed with wait/waitall"]
pub struct Request<T> {
    /// `None` once the request has been consumed by `wait`, so
    /// `Drop` can tell a completed handle from a leaked one.
    inner: Option<ReqInner<T>>,
    /// The ledger slot that books the wait for this request.
    wait: Slot,
    guard: LeakGuard,
}

#[derive(Debug)]
pub(crate) enum ReqInner<T> {
    /// Result already determined (sends and collectives resolve their
    /// payload at initiation; only the completion *time* is deferred).
    Ready { at: f64, value: T },
    /// A receive whose matching message is found at completion time.
    PendingRecv {
        src: usize,
        tag: u64,
        wrap: fn(Vec<u8>) -> T,
    },
}

/// Context for the leak detector: which rank initiated which operation,
/// under which call-site label.
#[derive(Debug)]
pub(crate) struct LeakGuard {
    pub rank: usize,
    pub op: &'static str,
    pub label: Label,
}

impl<T> Request<T> {
    pub(crate) fn ready(at: f64, value: T, wait: Slot, guard: LeakGuard) -> Self {
        Request {
            inner: Some(ReqInner::Ready { at, value }),
            wait,
            guard,
        }
    }

    /// The ledger slot the wait completing this request is booked in.
    pub(crate) fn wait(&self) -> Slot {
        self.wait
    }

    /// Consumes the operation state, marking the request completed so
    /// `Drop` stays silent.
    pub(crate) fn take_inner(&mut self) -> ReqInner<T> {
        // audit: wait takes the state exactly once by construction;
        // a second take would be a library bug, not a user error.
        self.inner.take().expect("request state already consumed")
    }
}

impl<T> Drop for Request<T> {
    fn drop(&mut self) {
        // Suppress during unwinding: the job is already aborting and a
        // panic inside Drop would escalate to a process abort.
        if self.inner.is_none() || std::thread::panicking() {
            return;
        }
        self.guard.abort();
    }
}

impl LeakGuard {
    /// Aborts the job with the protocol-violation report of a handle
    /// dropped before it was waited.
    pub(crate) fn abort(&self) -> ! {
        let LeakGuard { rank, op, label } = self;
        let at = if label.is_empty() { "" } else { " @ " };
        panic!("{REPORT}: rank {rank} dropped an in-flight {op}{at}{label} request without wait");
    }
}

impl Request<Vec<u8>> {
    pub(crate) fn pending_recv(src: usize, tag: u64, guard: LeakGuard) -> Self {
        Request {
            inner: Some(ReqInner::PendingRecv {
                src,
                tag,
                wrap: |data| data,
            }),
            wait: Slot::MessageWait,
            guard,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::Ledger;
    use crate::time::Work;
    use crate::topology::Topology;
    use crate::world::{World, WorldConfig};

    fn cfg(ranks: usize) -> WorldConfig {
        WorldConfig::new(Topology::single_node(ranks))
    }

    #[test]
    fn isend_irecv_round_trip_matches_blocking() {
        // Same payloads, same clocks as the blocking pair.
        let nb = World::run(cfg(2), |comm| {
            if comm.rank() == 0 {
                let r = comm.isend(1, 9, b"abc");
                comm.wait(r);
                (Vec::new(), comm.now())
            } else {
                let r = comm.irecv(0, 9);
                (comm.wait(r), comm.now())
            }
        });
        let blocking = World::run(cfg(2), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 9, b"abc");
                (Vec::new(), comm.now())
            } else {
                (comm.recv(0, 9), comm.now())
            }
        });
        assert_eq!(nb, blocking);
        assert_eq!(nb[1].0, b"abc");
    }

    #[test]
    fn symmetric_irecv_isend_exchange_does_not_deadlock() {
        // Both ranks post the receive first — fatal with blocking recv,
        // the canonical use of nonblocking point-to-point.
        let out = World::run(cfg(2), |comm| {
            let peer = 1 - comm.rank();
            let rx = comm.irecv(peer, 0);
            let tx = comm.isend(peer, 0, &[comm.rank() as u8; 4]);
            let got = comm.wait(rx);
            comm.wait(tx);
            got
        });
        assert_eq!(out[0], vec![1u8; 4]);
        assert_eq!(out[1], vec![0u8; 4]);
    }

    #[test]
    fn compute_overlaps_communication() {
        // A rank that computes for much longer than the message flight
        // between isend/irecv and wait pays only the compute time.
        let out = World::run(cfg(2), |comm| {
            let peer = 1 - comm.rank();
            let rx = comm.irecv(peer, 0);
            let tx = comm.isend(peer, 0, &vec![7u8; 1 << 10]);
            let t0 = comm.now();
            comm.charge(Work::Seconds(1.0)); // dwarfs the ~3us flight
            comm.wait(tx);
            let _ = comm.wait(rx);
            comm.now() - t0
        });
        for dt in out {
            assert!(
                (dt - 1.0).abs() < 1e-6,
                "communication must hide under compute, took {dt}"
            );
        }
    }

    #[test]
    fn ialltoallv_matches_blocking_alltoallv() {
        let run = |nonblocking: bool| {
            World::run(cfg(3), move |comm| {
                let sends: Vec<Vec<u8>> = (0..3).map(|d| vec![comm.rank() as u8; d + 1]).collect();
                let got = if nonblocking {
                    let req = comm.ialltoallv(sends);
                    comm.wait(req)
                } else {
                    comm.alltoallv(sends)
                };
                (got, comm.now())
            })
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn waitall_is_order_independent_and_returns_in_request_order() {
        // Three tagged messages with very different flight times. Whatever
        // order the requests are listed in, waitall must land the clock at
        // the same instant (max completion) and hand payloads back in
        // *request-list* order, not completion order.
        let run = |order: [u64; 3]| {
            let out = World::run(cfg(2), move |comm| {
                if comm.rank() == 0 {
                    for (tag, len) in [(0u64, 10usize), (1, 100_000), (2, 1000)] {
                        comm.send(1, tag, &vec![tag as u8; len]);
                    }
                    (Vec::new(), 0.0)
                } else {
                    let reqs: Vec<Request<Vec<u8>>> =
                        order.iter().map(|&t| comm.irecv(0, t)).collect();
                    let got = comm.waitall(reqs);
                    let tags: Vec<u8> = got.iter().map(|d| d[0]).collect();
                    (tags, comm.now())
                }
            });
            out.into_iter().nth(1).unwrap()
        };
        let (tags_fwd, t_fwd) = run([0, 1, 2]);
        let (tags_rev, t_rev) = run([2, 1, 0]);
        let (tags_mix, t_mix) = run([1, 2, 0]);
        assert_eq!(tags_fwd, vec![0, 1, 2], "payloads follow request order");
        assert_eq!(tags_rev, vec![2, 1, 0]);
        assert_eq!(tags_mix, vec![1, 2, 0]);
        assert!((t_fwd - t_rev).abs() < 1e-15 && (t_fwd - t_mix).abs() < 1e-15);
    }

    /// Virtual seconds a 1 MiB message from rank 0 takes to reach a
    /// rank that posts its receive at time 0.
    fn flight_of_one_mib() -> f64 {
        let out = World::run(cfg(2), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &vec![0u8; 1 << 20]);
            } else {
                let _ = comm.recv(0, 1);
            }
            comm.now()
        });
        out[1]
    }

    #[test]
    fn lanes_longer_than_the_flight_hide_the_wait() {
        // The transfer takes ~latency + 1MiB/6GBps ~= 178us: 1s of
        // two-lane compute hides it completely, none exposes it fully.
        let flight = flight_of_one_mib();
        let out = World::run(cfg(2), move |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &vec![0u8; 1 << 20]);
                // Catch up past the receiver's 1s of compute so the
                // second message is genuinely still in flight at its wait.
                comm.charge(Work::Seconds(2.0));
                comm.send(1, 2, &vec![0u8; 1 << 20]);
                (0.0, 0.0, 0.0, 0.0)
            } else {
                let rx = comm.irecv(0, 1);
                comm.advance_parallel(&[1.0, 0.25]);
                let t0 = comm.now();
                let _ = comm.wait(rx);
                let hidden = comm.now() - t0;
                let rx = comm.irecv(0, 2);
                let (t1, before) = (comm.now(), comm.ledger());
                let _ = comm.wait(rx);
                let waited = comm.ledger().since(&before)[Slot::MessageWait];
                (t0, hidden, comm.now() - t1, waited)
            }
        });
        let (region, hidden, exposed, waited) = out[1];
        assert!(
            flight < 1.0,
            "the flight {flight}s must be shorter than the lanes"
        );
        assert_eq!(region, 1.0, "the region costs its slowest lane");
        assert_eq!(hidden, 0.0, "a wait under longer lanes advances nothing");
        assert!(exposed > 0.0, "an uncovered wait must advance the clock");
        assert!(
            (waited - exposed).abs() <= 1e-12 * exposed,
            "the uncovered advance is a message wait: {waited} vs {exposed}"
        );
    }

    #[test]
    fn a_lane_region_costs_max_of_compute_and_flight() {
        // Lanes shorter than the flight: the region under the receive
        // costs the flight, the lanes fold as themselves, and the
        // uncovered rest is booked as a message wait.
        let flight = flight_of_one_mib();
        let out = World::run(cfg(2), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &vec![0u8; 1 << 20]);
                (0.0, Ledger::default(), 0.0)
            } else {
                let rx = comm.irecv(0, 1);
                let before = comm.ledger();
                comm.advance_parallel(&[]);
                let idle = comm.now();
                comm.advance_parallel(&[0.0, 0.0, 0.0, 1e-5]);
                let _ = comm.wait(rx);
                (idle, comm.ledger().since(&before), comm.now())
            }
        });
        let (idle, region, now) = out[1];
        assert_eq!(idle, 0.0, "an empty lane set folds exactly 0 s");
        assert!(1e-5 < flight, "the region must be comm-bound");
        assert!((now - flight).abs() <= 1e-12 * flight, "{now} vs {flight}");
        assert_eq!(
            region[Slot::Advance],
            1e-5,
            "the lanes fold exactly their max"
        );
        let wait = region[Slot::MessageWait];
        assert!(
            (wait - (flight - 1e-5)).abs() <= 1e-12 * flight,
            "the uncovered part of the flight is a message wait: {wait}"
        );
        assert!((region.total() - now).abs() <= 1e-12 * now);
    }
}
