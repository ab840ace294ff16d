//! The virtual-time I/O engine: OST FIFO servers plus per-node client
//! throughput queues.

use crate::config::{PerfModel, StripeSpec};
use crate::layout;
use parking_lot::Mutex;

/// Per-operation client context of an independent access: from which
/// node, and at what virtual time, the operation starts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoCtx {
    /// Client node index (ranks on the same node share its link queue).
    pub node: usize,
    /// The caller's virtual clock at the moment the operation starts.
    pub now: f64,
}

impl IoCtx {
    /// Context for single-process use (tests, dataset generation).
    pub fn serial(now: f64) -> Self {
        IoCtx { node: 0, now }
    }
}

/// A fully-described I/O request: the unit [`TimingEngine::io_batch`]
/// times (an independent access is a batch of one).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoRequest {
    /// Issuing rank (tie-break for deterministic ordering).
    pub rank: usize,
    /// Client node of the issuing rank.
    pub node: usize,
    /// Virtual time at which the rank issues the request.
    pub now: f64,
    /// File offset in bytes.
    pub offset: u64,
    /// Request length in bytes.
    pub len: u64,
}

/// Outcome of a timed I/O: when it completes in virtual time and how many
/// bytes moved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoCompletion {
    /// Virtual time at which the last byte is delivered to the client.
    pub completion: f64,
    /// Bytes transferred.
    pub bytes: u64,
}

/// A single-resource server in virtual time, scheduled with **backfill**:
/// a request may occupy any idle gap at or after its arrival, not just the
/// tail of the queue. This keeps the schedule work-conserving and (nearly)
/// independent of the *wall-clock* order in which racing rank threads
/// reach the engine — without it, a virtually-early request arriving late
/// in real time would be pushed behind virtually-later ones, inflating
/// simulated times nondeterministically.
#[derive(Debug, Default, Clone)]
struct Server {
    /// Sorted, non-overlapping busy intervals `(start, end)`.
    intervals: Vec<(f64, f64)>,
}

impl Server {
    /// Schedules `service` seconds at or after `now`; returns completion.
    fn schedule(&mut self, now: f64, service: f64) -> f64 {
        if service <= 0.0 {
            return now;
        }
        let mut t = now;
        let mut idx = self.intervals.len();
        for (i, &(s, e)) in self.intervals.iter().enumerate() {
            if e <= t {
                continue; // fully in the past relative to t
            }
            if s >= t + service {
                idx = i; // gap before interval i fits
                break;
            }
            // Overlap: push t past this busy interval.
            t = e;
        }
        self.intervals.insert(idx, (t, t + service));
        t + service
    }
}

struct EngineState {
    /// One server per OST.
    osts: Vec<Server>,
    /// One server per client node's link (grown on demand).
    nodes: Vec<Server>,
    /// Number of distinct ranks observed — the contention population used
    /// for the sharing penalty.
    active_ranks: usize,
}

/// Shared timing engine of one simulated filesystem.
///
/// All methods advance *virtual* time only; no wall-clock sleeping happens
/// anywhere in the simulator.
pub struct TimingEngine {
    perf: PerfModel,
    total_osts: u32,
    state: Mutex<EngineState>,
}

impl TimingEngine {
    /// Creates an engine with all servers free at virtual time 0.
    pub fn new(perf: PerfModel, total_osts: u32) -> Self {
        TimingEngine {
            perf,
            total_osts,
            state: Mutex::new(EngineState {
                osts: vec![Server::default(); total_osts as usize],
                nodes: Vec::new(),
                active_ranks: 1,
            }),
        }
    }

    /// Declares the contention population (called by the runtime when a job
    /// starts). Affects only the sharing penalty, never correctness.
    pub fn set_active_ranks(&self, ranks: usize) {
        self.state.lock().active_ranks = ranks.max(1);
    }

    /// Service-time inflation once clients outnumber the file's OSTs.
    fn sharing_factor(&self, stripe_count: u32, active_ranks: usize) -> f64 {
        let per_ost = active_ranks as f64 / stripe_count.max(1) as f64;
        1.0 + self.perf.sharing_overhead * (per_ost - 1.0).max(0.0)
    }

    /// Times a batch of requests. Each request's chunks queue on their
    /// OSTs; the whole transfer also flows through the issuing node's
    /// client queue; a request completes when both sides have finished.
    ///
    /// Requests are processed in `(now, rank)` order under a single
    /// lock, so collective operations produce identical virtual timings
    /// on every run regardless of thread interleaving.
    ///
    /// Requests from the *same rank* chain: a rank (e.g. a two-phase
    /// aggregator working through its `cb_buffer_size` cycles) issues its
    /// next request only after the previous one completes — which is why
    /// the number of aggregators matters for collective I/O performance.
    pub fn io_batch(
        &self,
        stripe: StripeSpec,
        ost_base: u32,
        reqs: &[IoRequest],
    ) -> Vec<IoCompletion> {
        let order = time_order(reqs);
        let mut out = vec![
            IoCompletion {
                completion: 0.0,
                bytes: 0
            };
            reqs.len()
        ];
        let mut last_by_rank: std::collections::HashMap<usize, f64> =
            std::collections::HashMap::new();
        let mut st = self.state.lock();
        let active = st.active_ranks;
        for idx in order {
            let r = &reqs[idx];
            let chained_now = last_by_rank
                .get(&r.rank)
                .copied()
                .unwrap_or(r.now)
                .max(r.now);
            let chunks = layout::chunks_of(stripe, r.offset, r.len);
            let completion = self.serve(
                &mut st,
                stripe,
                ost_base,
                r.node,
                chained_now,
                chunks,
                active,
            );
            last_by_rank.insert(r.rank, completion);
            out[idx] = IoCompletion {
                completion,
                bytes: r.len,
            };
        }
        out
    }

    /// Times a batch of requests as **pieces**, one per
    /// [`layout::chunks_of`] chunk. A rank's pieces are concurrent, not
    /// chained: each is issued at its request's `now` and served like a
    /// request of its own. The batch is timed in `(now, round, rank)`
    /// order under one lock, so the ranks share the OSTs and node links
    /// piece by piece. Round 0 serves a request's **lead**: its last
    /// piece, and the piece before it too when the last is shorter than
    /// half a stripe, so a request's last half stripe of bytes (a
    /// record-delimited reader's tail, whatever the block's alignment)
    /// lands in the first round. Round `t ≥ 1` serves the other pieces
    /// in file order. A one-piece request times exactly as in
    /// [`TimingEngine::io_batch`]. `done[i]` is refilled with request
    /// `i`'s piece completions in file order; nothing is allocated per
    /// piece.
    pub fn piece_batch(
        &self,
        stripe: StripeSpec,
        ost_base: u32,
        reqs: &[IoRequest],
        done: &mut [Vec<f64>],
    ) {
        assert_eq!(reqs.len(), done.len(), "one buffer per request");
        let pieces = |r: &IoRequest| layout::chunks_of(stripe, r.offset, r.len);
        for (r, d) in reqs.iter().zip(done.iter_mut()) {
            d.clear();
            d.resize(pieces(r).count(), 0.0);
        }
        // Pieces in a request's lead (of its `m`, at most `m`).
        let lead = |r: &IoRequest, m: usize| match pieces(r).last() {
            Some(last) if m >= 2 && 2 * last.len < stripe.size => 2,
            _ => m.min(1),
        };
        let order = time_order(reqs);
        let mut st = self.state.lock();
        let active = st.active_ranks;
        // Each run of equal `now` is timed round by round: round `t` of
        // every request in rank order, then round `t + 1`.
        for group in order.chunk_by(|&a, &b| reqs[a].now == reqs[b].now) {
            let rounds = |i: usize| {
                let m = done[i].len();
                (m - lead(&reqs[i], m) + 1).min(m)
            };
            let most = group.iter().map(|&i| rounds(i)).max().unwrap_or(0);
            for t in 0..most {
                for &i in group {
                    let (r, m) = (&reqs[i], done[i].len());
                    let k = lead(r, m);
                    // Round 0 serves the lead, last piece first; round
                    // t ≥ 1 piece t − 1 of those before it.
                    let served = match t {
                        0 => m - k..m,
                        t if t - 1 < m - k => t - 1..t,
                        _ => continue,
                    };
                    for c in served.rev() {
                        if let Some(piece) = pieces(r).nth(c) {
                            let chunk = layout::chunks_of(stripe, piece.offset, piece.len);
                            done[i][c] =
                                self.serve(&mut st, stripe, ost_base, r.node, r.now, chunk, active);
                        }
                    }
                }
            }
        }
    }

    /// Serves the access `chunks` issued at `now` from `node` and returns
    /// when its last byte is delivered (`now` for no chunks): each chunk
    /// occupies backfill-scheduled time on its OST (chunks sharing an OST
    /// serialize, distinct OSTs overlap), and the whole transfer flows
    /// through the node's link queue.
    #[allow(clippy::too_many_arguments)]
    fn serve(
        &self,
        st: &mut EngineState,
        stripe: StripeSpec,
        ost_base: u32,
        node: usize,
        now: f64,
        chunks: layout::Chunks,
        active_ranks: usize,
    ) -> f64 {
        let factor = self.sharing_factor(stripe.count, active_ranks);
        let mut server_done = now;
        let mut len = 0;
        for chunk in chunks {
            let g = ((ost_base + chunk.ost) % self.total_osts) as usize;
            let service =
                (self.perf.request_latency + chunk.len as f64 / self.perf.ost_bandwidth) * factor;
            let done = st.osts[g].schedule(now, service);
            server_done = server_done.max(done);
            len += chunk.len;
        }

        // Client side: the node's effective throughput bounds how fast the
        // bytes can be absorbed, shared among the node's ranks.
        if st.nodes.len() <= node {
            st.nodes.resize(node + 1, Server::default());
        }
        let link_service = len as f64 / self.perf.node_bandwidth();
        let link_done = st.nodes[node].schedule(now, link_service);
        server_done.max(link_done)
    }
}

/// Request indices in `(now, rank)` order (ties keep input order).
fn time_order(reqs: &[IoRequest]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..reqs.len()).collect();
    order.sort_by(|&a, &b| {
        reqs[a]
            .now
            .partial_cmp(&reqs[b].now)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(reqs[a].rank.cmp(&reqs[b].rank))
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FsConfig;

    fn engine() -> TimingEngine {
        let cfg = FsConfig::test_tiny();
        TimingEngine::new(cfg.perf, cfg.total_osts)
    }

    /// Times one independent request: a one-request batch.
    fn io(
        e: &TimingEngine,
        stripe: StripeSpec,
        ost_base: u32,
        node: usize,
        now: f64,
        offset: u64,
        len: u64,
    ) -> IoCompletion {
        let req = IoRequest {
            rank: 0,
            node,
            now,
            offset,
            len,
        };
        e.io_batch(stripe, ost_base, &[req])[0]
    }

    #[test]
    fn zero_length_takes_no_time() {
        let e = engine();
        let done = io(&e, StripeSpec::new(2, 1024), 0, 0, 5.0, 0, 0);
        assert_eq!(done.completion, 5.0);
        assert_eq!(done.bytes, 0);
    }

    #[test]
    fn single_chunk_cost_is_latency_plus_transfer() {
        let e = engine();
        // 1024 bytes at 1 MB/s = 1.024 ms, plus 1 ms latency.
        let done = io(&e, StripeSpec::new(2, 1024), 0, 0, 0.0, 0, 1024);
        let expect = 0.001 + 1024.0 / 1_000_000.0;
        assert!(
            (done.completion - expect).abs() < 1e-12,
            "{}",
            done.completion
        );
    }

    #[test]
    fn chunks_on_distinct_osts_run_in_parallel() {
        let e = engine();
        // 2048 bytes over stripes 0 and 1 -> two OSTs, concurrent service.
        let done = io(&e, StripeSpec::new(2, 1024), 0, 0, 0.0, 0, 2048);
        let per_chunk = 0.001 + 1024.0 / 1_000_000.0;
        assert!(
            (done.completion - per_chunk).abs() < 1e-9,
            "{}",
            done.completion
        );
    }

    #[test]
    fn chunks_on_same_ost_serialize() {
        let e = engine();
        // stripe count 1: both 1024-byte chunks hit OST 0 back-to-back.
        let done = io(&e, StripeSpec::new(1, 1024), 0, 0, 0.0, 0, 2048);
        let per_chunk = 0.001 + 1024.0 / 1_000_000.0;
        assert!(
            (done.completion - 2.0 * per_chunk).abs() < 1e-9,
            "{}",
            done.completion
        );
    }

    #[test]
    fn successive_requests_queue_on_the_ost() {
        let e = engine();
        let s = StripeSpec::new(1, 1024);
        let d1 = io(&e, s, 0, 0, 0.0, 0, 1024);
        // Second client at a different node arrives at t=0 but the OST is
        // busy until d1.
        let d2 = io(&e, s, 0, 1, 0.0, 0, 1024);
        assert!(d2.completion > d1.completion);
    }

    #[test]
    fn node_queue_shares_among_ranks_of_a_node() {
        let cfg = FsConfig::test_tiny();
        // Make the client side the bottleneck: node bandwidth 0.5 MB/s.
        let perf = PerfModel {
            client_bandwidth: 500_000.0,
            ..cfg.perf
        };
        let e = TimingEngine::new(perf, cfg.total_osts);
        let s = StripeSpec::new(4, 1024);
        // Two ranks on node 0 read distinct stripes (different OSTs), so
        // the server side is parallel but the node link serializes.
        let d1 = io(&e, s, 0, 0, 0.0, 0, 1024);
        let d2 = io(&e, s, 0, 0, 0.0, 1024, 1024);
        let link = 1024.0 / 500_000.0;
        assert!((d1.completion - link).abs() < 1e-9);
        assert!((d2.completion - 2.0 * link).abs() < 1e-9);
    }

    #[test]
    fn batch_is_deterministic_under_permutation() {
        let mk = || {
            let e = engine();
            e.set_active_ranks(4);
            e
        };
        let reqs: Vec<IoRequest> = (0..4)
            .map(|r| IoRequest {
                rank: r,
                node: r / 2,
                now: 0.0,
                offset: r as u64 * 1024,
                len: 1024,
            })
            .collect();
        let s = StripeSpec::new(2, 1024);
        let a = mk().io_batch(s, 0, &reqs);
        let mut rev = reqs.clone();
        rev.reverse();
        let mut b = mk().io_batch(s, 0, &rev);
        b.reverse();
        assert_eq!(a, b);
    }

    /// Requests from `ranks` ranks on two nodes, each `len` bytes at
    /// `stride`-spaced offsets, all issued at `now`.
    fn spread(ranks: usize, now: f64, stride: u64, len: u64) -> Vec<IoRequest> {
        (0..ranks)
            .map(|r| IoRequest {
                rank: r,
                node: r / 2,
                now,
                offset: r as u64 * stride + 100,
                len,
            })
            .collect()
    }

    /// Times `reqs` as a piece batch on a fresh engine.
    fn pieces(reqs: &[IoRequest], stripe: StripeSpec) -> Vec<Vec<f64>> {
        let e = engine();
        e.set_active_ranks(reqs.len());
        let mut done = vec![Vec::new(); reqs.len()];
        e.piece_batch(stripe, 0, reqs, &mut done);
        done
    }

    #[test]
    fn one_piece_requests_time_bit_for_bit_like_io_batch() {
        let s = StripeSpec::new(2, 1024);
        // Each request lies inside one stripe: one piece apiece.
        let mut reqs = spread(6, 0.25, 1024, 700);
        reqs[3].now = 0.125;
        let e = engine();
        e.set_active_ranks(reqs.len());
        let batch = e.io_batch(s, 0, &reqs);
        let done = pieces(&reqs, s);
        for (d, b) in done.iter().zip(&batch) {
            assert_eq!(d.len(), 1);
            assert_eq!(d[0].to_bits(), b.completion.to_bits());
        }
    }

    #[test]
    fn piece_batch_is_invariant_under_permutation() {
        let s = StripeSpec::new(3, 512);
        let mut reqs = spread(5, 0.0, 1500, 1800);
        reqs[1].now = 0.002;
        reqs[4].len = 0;
        let a = pieces(&reqs, s);
        let mut rev = reqs.clone();
        rev.reverse();
        let mut b = pieces(&rev, s);
        b.reverse();
        assert_eq!(a, b);
        assert!(a[..4].iter().all(|d| d.len() >= 4), "several pieces each");
        assert!(a[4].is_empty(), "an empty request has no pieces");
    }

    #[test]
    fn no_piece_completes_before_its_issue_plus_service() {
        let cfg = FsConfig::test_tiny();
        let s = StripeSpec::new(2, 1024);
        let reqs = spread(4, 0.5, 3000, 2500);
        let done = pieces(&reqs, s);
        for (r, d) in reqs.iter().zip(&done) {
            let chunks: Vec<_> = layout::chunks_of(s, r.offset, r.len).collect();
            assert_eq!(chunks.len(), d.len());
            for (c, &t) in chunks.iter().zip(d) {
                let ost = cfg.perf.request_latency + c.len as f64 / cfg.perf.ost_bandwidth;
                let link = c.len as f64 / cfg.perf.node_bandwidth();
                assert!(t >= r.now + ost.max(link) - 1e-12, "{t} vs {}", r.now);
            }
        }
    }

    #[test]
    fn a_requests_last_piece_lands_in_the_first_round() {
        // Two ranks on distinct nodes read four stripes each over one
        // OST: round one serves both last pieces before any other piece.
        let s = StripeSpec::new(1, 1024);
        let reqs: Vec<IoRequest> = (0..2)
            .map(|r| IoRequest {
                rank: r,
                node: r,
                now: 0.0,
                offset: r as u64 * 4096,
                len: 4096,
            })
            .collect();
        let done = pieces(&reqs, s);
        let per = 0.001 + 1024.0 / 1_000_000.0;
        assert!((done[0][3] - per).abs() < 1e-12, "{:?}", done[0]);
        assert!((done[1][3] - 2.0 * per).abs() < 1e-12, "{:?}", done[1]);
        assert!(done.iter().all(|d| d[..3].iter().all(|&t| t > 2.0 * per)));
    }

    #[test]
    fn a_short_last_piece_brings_the_one_before_it_into_the_first_round() {
        // Three full stripes and a 100-byte piece each, over one OST: the
        // lead (the last two pieces) of both requests is served before
        // any other piece.
        let s = StripeSpec::new(1, 1024);
        let reqs: Vec<IoRequest> = (0..2)
            .map(|r| IoRequest {
                rank: r,
                node: r,
                now: 0.0,
                offset: r as u64 * 8192,
                len: 3 * 1024 + 100,
            })
            .collect();
        let done = pieces(&reqs, s);
        let lead = done
            .iter()
            .flat_map(|d| &d[2..])
            .cloned()
            .fold(0.0, f64::max);
        assert!(
            done.iter().all(|d| d[..2].iter().all(|&t| t > lead)),
            "{done:?}"
        );
        assert!(done.iter().all(|d| d[3] < d[2]), "the last piece first");
    }

    #[test]
    fn sharing_penalty_kicks_in_past_one_client_per_ost() {
        let cfg = FsConfig::lustre_comet();
        let e = TimingEngine::new(cfg.perf, cfg.total_osts);
        let s = StripeSpec::new(4, 1 << 20);
        let base = io(&e, s, 0, 0, 0.0, 0, 1 << 20).completion;

        let e2 = TimingEngine::new(cfg.perf, cfg.total_osts);
        e2.set_active_ranks(64); // 16 ranks per OST
        let shared = io(&e2, s, 0, 0, 0.0, 0, 1 << 20).completion;
        assert!(shared > base, "sharing {shared} vs base {base}");
    }

    #[test]
    fn ost_base_rotates_placement() {
        let e = engine();
        let s = StripeSpec::new(1, 1024);
        // Same offsets, different ost_base -> land on different OSTs, so no
        // queueing between the two requests.
        let d1 = io(&e, s, 0, 0, 0.0, 0, 1024);
        let d2 = io(&e, s, 1, 1, 0.0, 0, 1024);
        assert_eq!(d1.completion, d2.completion);
    }
}
