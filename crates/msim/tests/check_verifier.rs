//! Mutation tests for the collective-protocol verifier (`msim::check`).
//!
//! Each test deliberately injects one of the protocol violations the
//! verifier exists to catch — a rank skipping a barrier, divergent
//! chunked-exchange round counts, a leaked in-flight [`Request`] — and
//! asserts that `MVIO_CHECK=strict` aborts the job with a report that
//! names the offending rank and the call-site label. A final set of
//! tests runs clean collective pipelines under `MVIO_CHECK=on` and
//! asserts zero reports, so the verifier's baseline false-positive rate
//! stays pinned at exactly nothing.

use mvio_msim::{CheckMode, Topology, Violation, World, WorldConfig};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn strict_cfg(ranks: usize) -> WorldConfig {
    WorldConfig::new(Topology::single_node(ranks)).with_check(CheckMode::Strict)
}

fn on_cfg(ranks: usize) -> WorldConfig {
    WorldConfig::new(Topology::single_node(ranks)).with_check(CheckMode::On)
}

/// Extracts the human-readable message from a panic payload.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// Runs `f` under `MVIO_CHECK=strict` and returns the abort message,
/// failing the test if the job completes without a violation.
fn strict_abort_message<R>(
    ranks: usize,
    f: impl Fn(&mut mvio_msim::Comm) -> R + Send + Sync,
) -> String
where
    R: Send,
{
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        World::run(strict_cfg(ranks), f);
    }));
    let payload = outcome.expect_err("strict mode must abort the job on a protocol violation");
    let msg = panic_message(payload);
    assert!(
        msg.contains("MVIO_CHECK=strict"),
        "abort must come from the verifier, got: {msg}"
    );
    msg
}

// ----- mutation: one rank skips a barrier ------------------------------

#[test]
fn skipped_barrier_is_reported_with_call_site_label() {
    let msg = strict_abort_message(2, |comm| {
        // Rank 0 "forgets" the barrier and returns; rank 1 enters it.
        if comm.rank() != 0 {
            comm.labeled("mutation.barrier", |c| c.barrier());
        }
    });
    // Whichever thread observes the divergence first (the exiting rank
    // or the stranded one), the report must attribute the exit to rank 0
    // and carry the barrier's call-site label.
    assert!(msg.contains("rank 0 exited"), "got: {msg}");
    assert!(msg.contains("barrier @ mutation.barrier"), "got: {msg}");
}

// ----- mutation: divergent chunked-exchange round counts ---------------

#[test]
fn divergent_alltoallv_round_count_is_reported_per_round() {
    // Rank 0 splits its payload into two chunks (two alltoallv rounds);
    // rank 1 sends everything in one round and exits — the classic
    // chunked-exchange divergence the round-indexed labels exist for.
    let msg = strict_abort_message(2, |comm| {
        let p = comm.size();
        let rounds = if comm.rank() == 0 { 2 } else { 1 };
        for round in 0..rounds {
            let bufs: Vec<Vec<u8>> = (0..p).map(|d| vec![round as u8; d + 1]).collect();
            comm.labeled(&format!("mutation.payload[round={round}]"), |c| {
                c.alltoallv(bufs.clone())
            });
        }
    });
    // The violation fires at the extra round, and its signature names
    // both the operation and the diverging round index.
    assert!(msg.contains("alltoallv"), "got: {msg}");
    assert!(msg.contains("mutation.payload[round=1]"), "got: {msg}");
    assert!(
        msg.contains("rank 1 exited") || msg.contains("rank 0"),
        "got: {msg}"
    );
}

// ----- mutation: leaked in-flight request ------------------------------

#[test]
fn leaked_request_is_reported_with_op_and_label() {
    let msg = strict_abort_message(2, |comm| {
        if comm.rank() == 1 {
            // Post a receive and drop the handle without wait.
            let req = comm.labeled("mutation.leak", |c| c.irecv(0, 7));
            drop(req);
        }
    });
    assert!(
        msg.contains("rank 1 dropped an in-flight irecv @ mutation.leak request"),
        "got: {msg}"
    );
}

#[test]
fn leaked_request_is_collected_under_on() {
    // `on` collects instead of aborting: the job completes and the
    // violation is queryable from the report list.
    let (_, violations) = World::run_reporting(on_cfg(2), |comm| {
        comm.labeled("mutation.leak", |c| {
            let req = c.isend((c.rank() + 1) % 2, 3, b"x");
            drop(req);
            // Drain the matching sends so both ranks exit cleanly.
            let got = c.recv((c.rank() + 1) % 2, 3);
            assert_eq!(got, b"x");
        });
    });
    assert_eq!(violations.len(), 2, "one leak per rank: {violations:?}");
    for v in &violations {
        match v {
            Violation::RequestLeak { op, .. } => {
                assert_eq!(op, "isend @ mutation.leak");
            }
            other => panic!("expected RequestLeak, got {other:?}"),
        }
    }
}

// ----- mutation: same collective, diverging call sites -----------------

#[test]
fn label_divergence_is_a_sequence_mismatch() {
    // Both ranks enter the *same* hub operation, so the job completes
    // under `on` — but the call-site labels disagree, which is exactly
    // the "two different code paths happened to line up" hazard the
    // signatures exist to expose.
    let (_, violations) = World::run_reporting(on_cfg(2), |comm| {
        let site = if comm.rank() == 0 {
            "mutation.left"
        } else {
            "mutation.right"
        };
        comm.labeled(site, |c| c.barrier());
    });
    assert_eq!(violations.len(), 1, "got: {violations:?}");
    match &violations[0] {
        Violation::SequenceMismatch { index, signatures } => {
            assert_eq!(*index, 0);
            let rendered: Vec<&str> = signatures.iter().map(|(_, s)| s.as_str()).collect();
            assert!(rendered.iter().any(|s| s.contains("mutation.left")));
            assert!(rendered.iter().any(|s| s.contains("mutation.right")));
        }
        other => panic!("expected SequenceMismatch, got {other:?}"),
    }
}

// ----- clean pipelines must be report-free -----------------------------

#[test]
fn clean_collective_pipeline_has_zero_reports_under_on() {
    let (results, violations) = World::run_reporting(on_cfg(4), |comm| {
        let p = comm.size();
        let rank = comm.rank();

        comm.labeled("clean.setup", |c| c.barrier());
        let seed = comm.labeled("clean.bcast", |c| c.bcast(0, vec![42u8]));
        assert_eq!(seed, vec![42u8]);

        // Variable-size alltoallv, like a real exchange payload round.
        let total: usize = comm.labeled("clean.exchange", |c| {
            let bufs: Vec<Vec<u8>> = (0..p).map(|d| vec![rank as u8; d + rank + 1]).collect();
            c.alltoallv(bufs).iter().map(Vec::len).sum()
        });

        // Point-to-point with properly waited nonblocking handles.
        let right = (rank + 1) % p;
        let left = (rank + p - 1) % p;
        let sreq = comm.isend(right, 11, &[rank as u8]);
        let rreq = comm.irecv(left, 11);
        let got = comm.wait(rreq);
        comm.wait(sreq);
        assert_eq!(got, vec![left as u8]);

        comm.labeled("clean.reduce", |c| {
            c.allreduce_u64(total as u64, |a: &u64, b: &u64| a + b)
        })
    });
    assert!(violations.is_empty(), "clean run reported: {violations:?}");
    assert!(results.iter().all(|&r| r == results[0]));
}

#[test]
fn clean_pipeline_survives_strict() {
    // The same shape under `strict` must complete without aborting.
    let results = World::run(strict_cfg(3), |comm| {
        comm.labeled("clean.setup", |c| c.barrier());
        let p = comm.size();
        let bufs: Vec<Vec<u8>> = (0..p).map(|d| vec![0u8; d + 1]).collect();
        let recvd = comm.labeled("clean.exchange", |c| c.alltoallv(bufs));
        recvd.iter().map(Vec::len).sum::<usize>()
    });
    assert_eq!(results.len(), 3);
}
