//! Mutation tests for the collective-protocol verification the
//! rendezvous hub runs on every collective (`msim::check`).
//!
//! Each test deliberately injects one of the protocol violations the
//! hub exists to catch — a rank skipping a barrier, divergent
//! chunked-exchange round counts, mismatched collective kinds, a leaked
//! in-flight [`Request`] — and asserts that a plain `World::run` aborts
//! the job with a report that names the offending rank and the
//! call-site label. A final set of tests runs clean collective
//! pipelines and asserts they complete, so the verifier's baseline
//! false-positive rate stays pinned at exactly nothing.
//!
//! [`Request`]: mvio_msim::Request

use mvio_msim::check::REPORT;
use mvio_msim::{Topology, World, WorldConfig};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn cfg(ranks: usize) -> WorldConfig {
    WorldConfig::new(Topology::single_node(ranks))
}

/// Extracts the human-readable message from a panic payload.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// Runs `f` in a `ranks`-rank world and returns the abort message,
/// failing the test if the job completes without a violation.
fn strict_abort_message<R>(
    ranks: usize,
    f: impl Fn(&mut mvio_msim::Comm) -> R + Send + Sync,
) -> String
where
    R: Send,
{
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        World::run(cfg(ranks), f);
    }));
    let payload = outcome.expect_err("the job must abort on a protocol violation");
    let msg = panic_message(payload);
    assert!(
        msg.starts_with(REPORT),
        "abort must come from the verifier, got: {msg}"
    );
    msg
}

/// Runs `f` in a `ranks`-rank world, failing the test if it aborts.
fn clean_run<R: Send>(ranks: usize, f: impl Fn(&mut mvio_msim::Comm) -> R + Send + Sync) -> Vec<R> {
    catch_unwind(AssertUnwindSafe(|| World::run(cfg(ranks), f)))
        .unwrap_or_else(|payload| panic!("clean run aborted: {}", panic_message(payload)))
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
            comm.labeled_round("mutation.payload", round, |c| c.alltoallv(bufs.clone()));
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

// ----- mutation: same collective, diverging call sites -----------------

#[test]
fn label_divergence_is_a_sequence_mismatch() {
    // Both ranks enter the *same* hub operation, but the call-site
    // labels disagree, which is exactly the "two different code paths
    // happened to line up" hazard the signatures exist to expose.
    let msg = strict_abort_message(2, |comm| {
        let site = if comm.rank() == 0 {
            "mutation.left"
        } else {
            "mutation.right"
        };
        comm.labeled(site, |c| c.barrier());
    });
    assert!(msg.contains("collective #0 diverged"), "got: {msg}");
    assert!(
        msg.contains("rank 0: barrier @ mutation.left"),
        "got: {msg}"
    );
    assert!(
        msg.contains("rank 1: barrier @ mutation.right"),
        "got: {msg}"
    );
}

// ----- mutation: different collectives at one generation --------------

#[test]
fn barrier_against_bcast_is_a_kind_mismatch() {
    // The hub compares the signatures before it combines any input, so
    // two ranks depositing different input types is a report, not the
    // combiner's type-mismatch failure.
    let msg = strict_abort_message(2, |comm| {
        if comm.rank() == 0 {
            comm.barrier();
        } else {
            comm.bcast(0, Vec::new());
        }
    });
    assert!(msg.contains("collective #0 diverged"), "got: {msg}");
    assert!(msg.contains("rank 0: barrier\n"), "got: {msg}");
    assert!(msg.contains("rank 1: bcast(root=0)"), "got: {msg}");
}

// ----- clean pipelines must be report-free -----------------------------

#[test]
fn clean_collective_pipeline_has_zero_reports_under_on() {
    let results = clean_run(4, |comm| {
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
    assert!(results.iter().all(|&r| r == results[0]));
}

#[test]
fn clean_pipeline_survives_strict() {
    // A second shape, at three ranks, must complete without aborting.
    let results = clean_run(3, |comm| {
        comm.labeled("clean.setup", |c| c.barrier());
        let p = comm.size();
        let bufs: Vec<Vec<u8>> = (0..p).map(|d| vec![0u8; d + 1]).collect();
        let recvd = comm.labeled("clean.exchange", |c| c.alltoallv(bufs));
        recvd.iter().map(Vec::len).sum::<usize>()
    });
    assert_eq!(results.len(), 3);
}
