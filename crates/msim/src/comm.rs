//! The per-rank communicator handle: point-to-point messaging, clock
//! management, and collectives.

use crate::check::{CollectiveKind, CollectiveSig, CollectiveVerifier};
use crate::collective::Hub;
use crate::reduceop::{fold_in_rank_order, scan_in_rank_order, ReduceOp};
use crate::request::{LeakGuard, ReqInner, Request};
use crate::time::{CostModel, Work};
use crate::topology::Topology;
use crossbeam::channel::{Receiver, Sender};
use std::sync::Arc;

/// A message in flight: payload plus the sender's virtual timestamp.
#[derive(Debug)]
pub(crate) struct Envelope {
    pub src: usize,
    pub tag: u64,
    pub data: Vec<u8>,
    pub send_time: f64,
}

/// Reserved tag delivered to wake blocked receivers when the job aborts.
pub(crate) const POISON_TAG: u64 = u64::MAX;

/// State shared by every rank of a world.
pub(crate) struct Shared {
    pub topo: Topology,
    pub cost: CostModel,
    pub senders: Vec<Sender<Envelope>>,
    pub hub: Hub,
    /// Collective-protocol verifier; `None` when `MVIO_CHECK` is off.
    pub check: Option<Arc<CollectiveVerifier>>,
}

/// The per-rank communicator — the analogue of `MPI_COMM_WORLD` plus the
/// rank's virtual clock.
///
/// A `Comm` is handed to each rank closure by [`crate::World::run`]. All
/// its operations advance the rank's virtual clock according to the
/// [`CostModel`]; wall-clock time is never consulted.
pub struct Comm {
    rank: usize,
    now: f64,
    gen: u64,
    shared: Arc<Shared>,
    rx: Receiver<Envelope>,
    /// Messages received but not yet matched by a `recv` (preserves
    /// per-(src, tag) FIFO order, like MPI's non-overtaking rule).
    stash: Vec<Envelope>,
    /// Call-site label stack ([`Comm::labeled`]); only maintained while
    /// the verifier is active.
    labels: Vec<String>,
}

impl Comm {
    pub(crate) fn new(rank: usize, shared: Arc<Shared>, rx: Receiver<Envelope>) -> Self {
        Comm {
            rank,
            now: 0.0,
            gen: 0,
            shared,
            rx,
            stash: Vec::new(),
            labels: Vec::new(),
        }
    }

    // ----- identity ------------------------------------------------------

    /// This rank's id in `0..size()`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size (number of ranks).
    pub fn size(&self) -> usize {
        self.shared.topo.ranks()
    }

    /// The node this rank runs on.
    pub fn node(&self) -> usize {
        self.shared.topo.node_of(self.rank)
    }

    /// Job topology.
    pub fn topology(&self) -> Topology {
        self.shared.topo
    }

    /// The job's cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.shared.cost
    }

    // ----- virtual clock --------------------------------------------------

    /// Current virtual time in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advances the clock by `dt` seconds (dt ≥ 0).
    pub fn advance(&mut self, dt: f64) {
        debug_assert!(dt >= 0.0, "cannot advance clock backwards");
        self.now += dt;
    }

    /// Moves the clock forward to `t` if `t` is later.
    pub fn advance_to(&mut self, t: f64) {
        if t > self.now {
            self.now = t;
        }
    }

    /// Charges a quantum of accountable compute work.
    pub fn charge(&mut self, work: Work) {
        self.now += self.shared.cost.cost(work);
    }

    /// Charges a region of work executed by concurrent intra-rank worker
    /// lanes: the clock advances by the **slowest lane** (the virtual
    /// wall-time of a perfectly overlapped parallel region). Lane totals
    /// come from per-worker [`crate::WorkTally`] accounting; callers must
    /// assign work to lanes deterministically (e.g. `chunk % lanes`) so
    /// the charge is independent of OS scheduling. An empty slice charges
    /// nothing.
    pub fn advance_parallel(&mut self, lane_seconds: &[f64]) {
        let max = lane_seconds.iter().fold(0.0f64, |a, &b| a.max(b));
        debug_assert!(max.is_finite() && max >= 0.0, "lane totals must be finite");
        self.now += max;
    }

    /// Context handed to the simulated filesystem for independent I/O.
    pub fn io_ctx(&self) -> mvio_pfs::IoCtx {
        mvio_pfs::IoCtx {
            node: self.node(),
            now: self.now,
            world_nodes: self.shared.topo.nodes(),
        }
    }

    // ----- protocol verification ------------------------------------------

    /// True when the collective-protocol verifier is active
    /// (`MVIO_CHECK` on or strict; see [`crate::check`]).
    pub fn check_active(&self) -> bool {
        self.shared.check.is_some()
    }

    /// Runs `f` with `label` pushed on the call-site label stack; every
    /// collective entered inside carries the stack (nested scopes joined
    /// with `/`) in its verifier signature, and leaked requests report
    /// it. Free when the verifier is off.
    ///
    /// Labels are compared across ranks, so only attach one at a point
    /// every rank is guaranteed to execute — i.e. inside a function
    /// whose own contract is collective. A label that some ranks skip
    /// would itself read as a protocol divergence.
    pub fn labeled<R>(&mut self, label: &str, f: impl FnOnce(&mut Comm) -> R) -> R {
        if self.shared.check.is_none() {
            return f(self);
        }
        self.labels.push(label.to_string());
        let out = f(self);
        self.labels.pop();
        out
    }

    /// Number of collectives this rank has entered (the world's exit
    /// hook hands it to the verifier to detect stranded peers).
    pub(crate) fn collectives_entered(&self) -> u64 {
        self.gen
    }

    /// This rank's most recent collective signatures as the verifier
    /// recorded them (empty when the verifier is off).
    #[cfg(test)]
    pub(crate) fn recent_collectives(&self) -> Vec<String> {
        let check = self.shared.check.as_ref();
        check.map(|v| v.recent(self.rank)).unwrap_or_default()
    }

    fn label_text(&self) -> String {
        self.labels.join("/")
    }

    /// Deposits this rank's signature for collective `gen` with the
    /// verifier (no-op when the verifier is off).
    fn record_collective(
        &self,
        gen: u64,
        kind: CollectiveKind,
        root: Option<usize>,
        op: Option<&'static str>,
        parts: Option<usize>,
    ) {
        if let Some(v) = &self.shared.check {
            v.record(
                self.rank,
                gen,
                CollectiveSig {
                    kind,
                    root,
                    op,
                    parts,
                    label: self.label_text(),
                },
            );
        }
    }

    /// Leak-detector context for a request initiated now (`None` when
    /// the verifier is off).
    fn leak_guard(&self, op: &'static str) -> Option<LeakGuard> {
        self.shared.check.as_ref().map(|v| {
            let label = self.label_text();
            let op = if label.is_empty() {
                op.to_string()
            } else {
                format!("{op} @ {label}")
            };
            LeakGuard::new(Arc::clone(v), self.rank, op)
        })
    }

    // ----- point-to-point -------------------------------------------------

    /// Sends `data` to `dst` with `tag`. Eager semantics: the call returns
    /// after the local buffer is handed off; the sender is charged the
    /// message-injection overhead (α plus a per-byte copy).
    pub fn send(&mut self, dst: usize, tag: u64, data: &[u8]) {
        let req = self.isend(dst, tag, data);
        self.wait(req);
    }

    /// Nonblocking send (`MPI_Isend`): the message is injected with the
    /// current timestamp but the sender's clock does not advance until the
    /// returned request completes, so compute charged in between overlaps
    /// the injection overhead.
    pub fn isend(&mut self, dst: usize, tag: u64, data: &[u8]) -> Request<()> {
        assert!(dst < self.size(), "send to rank {dst} out of range");
        let send_time = self.now;
        let done = self.now
            + self.shared.cost.comm_latency
            + self.shared.cost.cost(Work::CopyBytes {
                n: data.len() as u64,
            });
        self.shared.senders[dst]
            .send(Envelope {
                src: self.rank,
                tag,
                data: data.to_vec(),
                send_time,
            })
            // audit: mailbox receivers live in `Shared`, which outlives every rank thread.
            .expect("receiver outlives the job");
        Request::ready(done, ()).with_guard(self.leak_guard("isend"))
    }

    /// Blocking receive of the next message from `src` with `tag`
    /// (non-overtaking per (src, tag) pair). Returns the payload; its
    /// length is the `MPI_Get_count` value.
    pub fn recv(&mut self, src: usize, tag: u64) -> Vec<u8> {
        let req = self.irecv(src, tag);
        self.wait(req)
    }

    /// Nonblocking receive (`MPI_Irecv`): matching is deferred to
    /// completion, so posting receives before the corresponding sends —
    /// the symmetric-exchange pattern that deadlocks with blocking calls —
    /// is safe, and compute charged before [`Comm::wait`] overlaps the
    /// message flight.
    pub fn irecv(&mut self, src: usize, tag: u64) -> Request<Vec<u8>> {
        assert!(src < self.size(), "recv from rank {src} out of range");
        Request::pending_recv(src, tag).with_guard(self.leak_guard("irecv"))
    }

    // ----- request completion ---------------------------------------------

    /// Resolves a request to `(completion_time, value)` without touching
    /// the clock.
    fn resolve<T>(&mut self, mut req: Request<T>) -> (f64, T) {
        match req.take_inner() {
            ReqInner::Ready { at, value } => (at, value),
            ReqInner::PendingRecv { src, tag, wrap } => {
                let env = self.take_matching(src, tag);
                let arrival = env.send_time + self.shared.cost.p2p(env.data.len() as u64);
                (arrival, wrap(env.data))
            }
        }
    }

    /// `MPI_Wait`: completes `req`, advancing the clock to the operation's
    /// completion instant if that lies in the future (compute performed
    /// since initiation therefore overlaps the transfer).
    pub fn wait<T>(&mut self, req: Request<T>) -> T {
        let (at, value) = self.resolve(req);
        self.advance_to(at);
        value
    }

    /// `MPI_Waitall`: completes every request, advances the clock once to
    /// the latest completion, and returns the values in *request order*
    /// (never completion order). The final clock is independent of the
    /// order requests are listed in.
    pub fn waitall<T>(&mut self, reqs: impl IntoIterator<Item = Request<T>>) -> Vec<T> {
        let mut latest = self.now;
        let mut out = Vec::new();
        for req in reqs {
            let (at, value) = self.resolve(req);
            latest = latest.max(at);
            out.push(value);
        }
        self.advance_to(latest);
        out
    }

    /// `MPI_Test`: completes `req` and returns its value iff the operation
    /// has finished by the current *virtual* time; otherwise hands the
    /// request back untouched. Never advances the clock. The outcome
    /// depends only on deterministic virtual timestamps (for a pending
    /// receive this may physically block until the peer's message exists,
    /// like every blocking primitive in the runtime — see the
    /// [`crate::request`] module docs).
    pub fn test<T>(&mut self, mut req: Request<T>) -> std::result::Result<T, Request<T>> {
        match req.take_inner() {
            ReqInner::Ready { at, value } => {
                if at <= self.now {
                    Ok(value)
                } else {
                    Err(req.restore(ReqInner::Ready { at, value }))
                }
            }
            ReqInner::PendingRecv { src, tag, wrap } => {
                let len = self.stash_matching(src, tag);
                // audit: the envelope was pushed onto the stash in the loop above.
                let pos = self.stash_pos(src, tag).expect("just stashed");
                let arrival = self.stash[pos].send_time + self.shared.cost.p2p(len as u64);
                if arrival <= self.now {
                    let env = self.stash.remove(pos);
                    Ok(wrap(env.data))
                } else {
                    Err(req.restore(ReqInner::PendingRecv { src, tag, wrap }))
                }
            }
        }
    }

    /// Ensures a message from `(src, tag)` sits in the stash (pumping the
    /// channel as needed) and returns its byte length. Does not advance
    /// the clock.
    fn stash_matching(&mut self, src: usize, tag: u64) -> usize {
        if let Some(pos) = self.stash_pos(src, tag) {
            return self.stash[pos].data.len();
        }
        loop {
            // audit: every peer holds a sender until its thread exits, and the world joins all ranks before dropping mailboxes.
            let env = self.rx.recv().expect("world alive");
            if env.tag == POISON_TAG {
                panic!("{}", crate::collective::ABORT_MSG);
            }
            let matched = env.src == src && env.tag == tag;
            let len = env.data.len();
            self.stash.push(env);
            if matched {
                return len;
            }
        }
    }

    /// Blocks until a message from `(src, tag)` is available and returns
    /// its byte count without consuming it (`MPI_Probe` + `MPI_Get_count`).
    pub fn probe(&mut self, src: usize, tag: u64) -> usize {
        let len = self.stash_matching(src, tag);
        // audit: the envelope was pushed onto the stash in the loop above.
        let pos = self.stash_pos(src, tag).expect("just stashed");
        let arrival = self.stash[pos].send_time + self.shared.cost.p2p(len as u64);
        self.advance_to(arrival);
        len
    }

    fn stash_pos(&self, src: usize, tag: u64) -> Option<usize> {
        self.stash.iter().position(|e| e.src == src && e.tag == tag)
    }

    fn take_matching(&mut self, src: usize, tag: u64) -> Envelope {
        if let Some(pos) = self.stash_pos(src, tag) {
            return self.stash.remove(pos);
        }
        loop {
            // audit: every peer holds a sender until its thread exits, and the world joins all ranks before dropping mailboxes.
            let env = self.rx.recv().expect("world alive");
            if env.tag == POISON_TAG {
                panic!("{}", crate::collective::ABORT_MSG);
            }
            if env.src == src && env.tag == tag {
                return env;
            }
            self.stash.push(env);
        }
    }

    // ----- collectives ------------------------------------------------------

    fn next_gen(&mut self) -> u64 {
        let g = self.gen;
        self.gen += 1;
        g
    }

    /// `MPI_Barrier`.
    pub fn barrier(&mut self) {
        let gen = self.next_gen();
        self.record_collective(gen, CollectiveKind::Barrier, None, None, None);
        let p = self.size();
        let cost = self.shared.cost.barrier(p);
        let (_, exit) =
            self.shared
                .hub
                .exchange(self.rank, gen, self.now, (), |_: Vec<()>, times| {
                    let exit = max_time(times) + cost;
                    ((), vec![exit; times.len()])
                });
        self.now = exit;
    }

    /// `MPI_Bcast`: `data` is significant at `root`, the returned buffer at
    /// every rank.
    pub fn bcast(&mut self, root: usize, data: Vec<u8>) -> Vec<u8> {
        let gen = self.next_gen();
        self.record_collective(gen, CollectiveKind::Bcast, Some(root), None, None);
        let p = self.size();
        let cost_model = self.shared.cost;
        let input = if self.rank == root { Some(data) } else { None };
        let (result, exit) = self.shared.hub.exchange(
            self.rank,
            gen,
            self.now,
            input,
            move |inputs: Vec<Option<Vec<u8>>>, times| {
                let payload = inputs
                    .into_iter()
                    .flatten()
                    .next()
                    // audit: the root deposited its payload into the collective slot above.
                    .expect("root provided bcast payload");
                let exit = max_time(times) + cost_model.bcast(p, payload.len() as u64);
                (payload, vec![exit; times.len()])
            },
        );
        self.now = exit;
        (*result).clone()
    }

    /// `MPI_Gather` (variable-size, i.e. gatherv): every rank contributes
    /// `data`; `root` receives all contributions indexed by rank.
    pub fn gather(&mut self, root: usize, data: Vec<u8>) -> Option<Vec<Vec<u8>>> {
        let gen = self.next_gen();
        self.record_collective(gen, CollectiveKind::Gather, Some(root), None, None);
        let p = self.size();
        let cost_model = self.shared.cost;
        let (result, exit) = self.shared.hub.exchange(
            self.rank,
            gen,
            self.now,
            data,
            move |inputs: Vec<Vec<u8>>, times| {
                let total: u64 = inputs.iter().map(|v| v.len() as u64).sum();
                let exit = max_time(times) + cost_model.reduce(p, total);
                (inputs, vec![exit; times.len()])
            },
        );
        self.now = exit;
        if self.rank == root {
            Some((*result).clone())
        } else {
            None
        }
    }

    /// `MPI_Allgather` (variable-size): every rank receives every rank's
    /// contribution.
    pub fn allgather(&mut self, data: Vec<u8>) -> Vec<Vec<u8>> {
        let gen = self.next_gen();
        self.record_collective(gen, CollectiveKind::Allgather, None, None, None);
        let p = self.size();
        let cost_model = self.shared.cost;
        let (result, exit) = self.shared.hub.exchange(
            self.rank,
            gen,
            self.now,
            data,
            move |inputs: Vec<Vec<u8>>, times| {
                let total: u64 = inputs.iter().map(|v| v.len() as u64).sum();
                // ring allgather: log p startup + total volume.
                let exit = max_time(times) + cost_model.bcast(p, total);
                (inputs, vec![exit; times.len()])
            },
        );
        self.now = exit;
        (*result).clone()
    }

    /// Fixed-count `MPI_Alltoall` over one `u64` per peer — the first round
    /// of the paper's two-round exchange (peers swap buffer sizes before
    /// the payload `Alltoallv`).
    pub fn alltoall_u64(&mut self, sends: Vec<u64>) -> Vec<u64> {
        let req = self.ialltoall_u64(sends);
        self.wait(req)
    }

    /// Nonblocking [`Comm::alltoall_u64`] (`MPI_Ialltoall`): the exchange
    /// is initiated at the current timestamp; the clock does not advance
    /// until the returned request completes, so compute charged in between
    /// overlaps the collective.
    pub fn ialltoall_u64(&mut self, sends: Vec<u64>) -> Request<Vec<u64>> {
        assert_eq!(sends.len(), self.size(), "one value per destination");
        let gen = self.next_gen();
        self.record_collective(
            gen,
            CollectiveKind::AlltoallU64,
            None,
            None,
            Some(sends.len()),
        );
        let p = self.size();
        let cost_model = self.shared.cost;
        let rank = self.rank;
        let (result, exit) = self.shared.hub.exchange(
            self.rank,
            gen,
            self.now,
            sends,
            move |inputs: Vec<Vec<u64>>, times| {
                // transpose: out[dst][src] = inputs[src][dst]
                let mut matrix = vec![vec![0u64; p]; p];
                for (src, row) in inputs.iter().enumerate() {
                    for (dst, v) in row.iter().enumerate() {
                        matrix[dst][src] = *v;
                    }
                }
                let per = cost_model.alltoall(p, 8 * p as u64, 8 * p as u64);
                let exit = max_time(times) + per;
                (matrix, vec![exit; times.len()])
            },
        );
        Request::ready(exit, result[rank].clone()).with_guard(self.leak_guard("ialltoall_u64"))
    }

    /// `MPI_Alltoallv` over byte buffers: element `d` of `sends` goes to
    /// rank `d`; the result's element `s` came from rank `s`. Message
    /// sizes may differ arbitrarily — the variable-length-geometry case
    /// the paper §3 calls out as painful with raw MPI datatypes.
    pub fn alltoallv(&mut self, sends: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        let req = self.ialltoallv(sends);
        self.wait(req)
    }

    /// Nonblocking [`Comm::alltoallv`] (`MPI_Ialltoallv`), the core of the
    /// chunked overlapped exchange: post one round's payloads, keep
    /// computing (serializing the next round), then [`Comm::wait`]. Like
    /// every collective here the initiation physically rendezvouses with
    /// the peers, but the *virtual* completion — per-rank, sized by that
    /// rank's send and receive volumes — is deferred to the wait.
    pub fn ialltoallv(&mut self, sends: Vec<Vec<u8>>) -> Request<Vec<Vec<u8>>> {
        assert_eq!(sends.len(), self.size(), "one buffer per destination");
        let gen = self.next_gen();
        self.record_collective(
            gen,
            CollectiveKind::Alltoallv,
            None,
            None,
            Some(sends.len()),
        );
        let p = self.size();
        let cost_model = self.shared.cost;
        let rank = self.rank;
        let (result, exit) = self.shared.hub.exchange(
            self.rank,
            gen,
            self.now,
            sends,
            move |mut inputs: Vec<Vec<Vec<u8>>>, times| {
                let send_totals: Vec<u64> = inputs
                    .iter()
                    .map(|row| row.iter().map(|b| b.len() as u64).sum())
                    .collect();
                // transpose, moving buffers (no copies).
                let mut matrix: Vec<Vec<Vec<u8>>> = (0..p).map(|_| Vec::with_capacity(p)).collect();
                for row_slot in &mut inputs {
                    let row = std::mem::take(row_slot);
                    for (dst, buf) in row.into_iter().enumerate() {
                        matrix[dst].push(buf);
                    }
                }
                let recv_totals: Vec<u64> = matrix
                    .iter()
                    .map(|row| row.iter().map(|b| b.len() as u64).sum())
                    .collect();
                let start = max_time(times);
                let exits: Vec<f64> = (0..p)
                    .map(|r| start + cost_model.alltoall(p, send_totals[r], recv_totals[r]))
                    .collect();
                (matrix, exits)
            },
        );
        Request::ready(exit, result[rank].clone()).with_guard(self.leak_guard("ialltoallv"))
    }

    /// `MPI_Reduce` with a user-defined operator; the result is returned at
    /// `root` only. `bytes_hint` sizes the communication cost (use the
    /// serialized size of `T`).
    pub fn reduce<T>(
        &mut self,
        root: usize,
        value: T,
        bytes_hint: u64,
        op: &dyn ReduceOp<T>,
    ) -> Option<T>
    where
        T: Clone + Send + Sync + 'static,
    {
        let out = self.allreduce_inner(value, bytes_hint, op, CollectiveKind::Reduce, Some(root));
        if self.rank == root {
            Some(out)
        } else {
            None
        }
    }

    /// `MPI_Allreduce` with a user-defined operator.
    pub fn allreduce<T>(&mut self, value: T, bytes_hint: u64, op: &dyn ReduceOp<T>) -> T
    where
        T: Clone + Send + Sync + 'static,
    {
        self.allreduce_inner(value, bytes_hint, op, CollectiveKind::Allreduce, None)
    }

    fn allreduce_inner<T>(
        &mut self,
        value: T,
        bytes_hint: u64,
        op: &dyn ReduceOp<T>,
        kind: CollectiveKind,
        root: Option<usize>,
    ) -> T
    where
        T: Clone + Send + Sync + 'static,
    {
        let gen = self.next_gen();
        self.record_collective(gen, kind, root, Some(op.tag()), None);
        let p = self.size();
        let cost_model = self.shared.cost;
        let (result, exit) = self.shared.hub.exchange(
            self.rank,
            gen,
            self.now,
            value,
            move |inputs: Vec<T>, times| {
                let combined = fold_in_rank_order(&inputs, op);
                let exit = max_time(times) + cost_model.reduce(p, bytes_hint);
                (combined, vec![exit; times.len()])
            },
        );
        self.now = exit;
        (*result).clone()
    }

    /// Convenience `MPI_Allreduce` over a single `u64`.
    pub fn allreduce_u64(
        &mut self,
        value: u64,
        op: impl Fn(&u64, &u64) -> u64 + Send + Sync,
    ) -> u64 {
        self.allreduce(value, 8, &op)
    }

    /// `MPI_Scan` (inclusive prefix) with a user-defined operator; the
    /// paper's Figure 13 benchmarks this with the geometric-union operator.
    pub fn scan<T>(&mut self, value: T, bytes_hint: u64, op: &dyn ReduceOp<T>) -> T
    where
        T: Clone + Send + Sync + 'static,
    {
        let gen = self.next_gen();
        self.record_collective(gen, CollectiveKind::Scan, None, Some(op.tag()), None);
        let p = self.size();
        let rank = self.rank;
        let cost_model = self.shared.cost;
        let (result, exit) = self.shared.hub.exchange(
            self.rank,
            gen,
            self.now,
            value,
            move |inputs: Vec<T>, times| {
                let prefixes = scan_in_rank_order(&inputs, op);
                let exit = max_time(times) + cost_model.reduce(p, bytes_hint);
                (prefixes, vec![exit; times.len()])
            },
        );
        self.now = exit;
        result[rank].clone()
    }

    /// Access to the shared hub generation — used by the I/O layer to run
    /// its own collectives in the same ordered stream. `site` names the
    /// operation in the verifier's signature (e.g. `io.read_at_all`).
    pub(crate) fn collective<T, R, F>(
        &mut self,
        site: &'static str,
        input: T,
        combine: F,
    ) -> (Arc<R>, f64)
    where
        T: Send + 'static,
        R: Send + Sync + 'static,
        F: FnOnce(Vec<T>, &[f64]) -> (R, Vec<f64>),
    {
        let gen = self.next_gen();
        self.record_collective(gen, CollectiveKind::Custom(site), None, None, None);
        let (r, exit) = self
            .shared
            .hub
            .exchange(self.rank, gen, self.now, input, combine);
        self.now = exit;
        (r, exit)
    }
}

#[inline]
fn max_time(times: &[f64]) -> f64 {
    times.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
}
