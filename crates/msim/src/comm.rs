//! The per-rank communicator handle: point-to-point messaging, clock
//! management, and collectives.

use crate::check::{CollectiveKind, CollectiveSig, Label};
use crate::collective::Hub;
use crate::ledger::{Ledger, Slot};
use crate::reduceop::{fold_in_rank_order, scan_in_rank_order, ReduceOp};
use crate::request::{LeakGuard, ReqInner, Request};
use crate::time::{CostModel, Work};
use crate::topology::Topology;
use crossbeam::channel::{Receiver, Sender};
use parking_lot::Mutex;
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
    /// Messages pumped off the mailbox while `recv` looked for another
    /// `(src, tag)`: a per-(src, tag) FIFO, like MPI's non-overtaking
    /// rule.
    stash: Vec<Envelope>,
    /// The open call-site label scopes ([`Comm::labeled`]).
    label: Label,
    /// Where the clock's seconds went ([`Comm::ledger`]).
    ledger: Ledger,
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
            label: Label::default(),
            ledger: Ledger::default(),
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

    /// This rank's virtual seconds so far, split by what moved the clock
    /// (see [`Ledger`]); its slots sum to [`Comm::now`].
    pub fn ledger(&self) -> Ledger {
        self.ledger
    }

    /// Advances the clock by `dt` seconds (dt ≥ 0).
    pub fn advance(&mut self, dt: f64) {
        debug_assert!(dt >= 0.0, "cannot advance clock backwards");
        self.now += dt;
        self.ledger.book(Slot::Advance, dt);
    }

    /// Moves the clock forward to `t` if `t` is later: the wait for a
    /// file access that completes at `t`, booked as [`Slot::Io`].
    pub fn advance_to(&mut self, t: f64) {
        self.wait_until(t, Slot::Io);
    }

    /// Moves the clock forward to `t` if `t` is later, booking the
    /// advance in `slot`.
    fn wait_until(&mut self, t: f64, slot: Slot) {
        if t > self.now {
            self.exit_at(t, slot);
        }
    }

    /// Sets the clock to a collective's exit time `t`, booking the move
    /// in `slot`.
    fn exit_at(&mut self, t: f64, slot: Slot) {
        self.ledger.book(slot, t - self.now);
        self.now = t;
    }

    /// Charges a quantum of accountable compute work.
    pub fn charge(&mut self, work: Work) {
        let dt = self.shared.cost.cost(work);
        self.now += dt;
        self.ledger.charge(&work, dt);
    }

    /// Charges a region of work executed by concurrent intra-rank worker
    /// lanes: the clock advances by the **slowest lane** (the virtual
    /// wall-time of a perfectly overlapped parallel region). A lane's
    /// total is the [`CostModel::cost`] of the work assigned to it;
    /// callers must assign work to lanes deterministically (e.g.
    /// `chunk % lanes`) so the charge is independent of OS scheduling.
    /// This is the one place lanes reach the clock, booked in
    /// [`Slot::Advance`]. An empty slice charges nothing.
    pub fn advance_parallel(&mut self, lane_seconds: &[f64]) {
        let max = lane_seconds.iter().fold(0.0f64, |a, &b| a.max(b));
        debug_assert!(max.is_finite() && max >= 0.0, "lane totals must be finite");
        self.now += max;
        self.ledger.book(Slot::Advance, max);
    }

    /// Context handed to the simulated filesystem for independent I/O.
    pub fn io_ctx(&self) -> mvio_pfs::IoCtx {
        mvio_pfs::IoCtx {
            node: self.node(),
            now: self.now,
        }
    }

    // ----- protocol verification ------------------------------------------

    /// Runs `f` with `label` pushed on the call-site label stack; every
    /// collective entered inside carries the stack (nested scopes joined
    /// with `/`) in its signature, and leaked requests report it. Costs a
    /// copy of a fixed-size label, never an allocation.
    ///
    /// Labels are compared across ranks, so only attach one at a point
    /// every rank is guaranteed to execute — i.e. inside a function
    /// whose own contract is collective. A label that some ranks skip
    /// would itself read as a protocol divergence.
    pub fn labeled<R>(&mut self, label: &'static str, f: impl FnOnce(&mut Comm) -> R) -> R {
        self.scoped(label, None, f)
    }

    /// [`Comm::labeled`] for one round of a multi-round collective
    /// protocol: the label renders as `label[round=N]`, so ranks that
    /// disagree on the round count diverge by label at the first extra
    /// round.
    pub fn labeled_round<R>(
        &mut self,
        label: &'static str,
        round: usize,
        f: impl FnOnce(&mut Comm) -> R,
    ) -> R {
        self.scoped(label, Some(round), f)
    }

    fn scoped<R>(
        &mut self,
        label: &'static str,
        round: Option<usize>,
        f: impl FnOnce(&mut Comm) -> R,
    ) -> R {
        let outer = self.label;
        self.label = outer.nested(label, round);
        let out = f(self);
        self.label = outer;
        out
    }

    /// Number of collectives this rank has entered (the world's exit
    /// hook hands it to the hub to detect stranded peers).
    pub(crate) fn collectives_entered(&self) -> u64 {
        self.gen
    }

    /// The world's most recent matched collective signatures, rendered.
    #[cfg(test)]
    pub(crate) fn recent_collectives(&self) -> Vec<String> {
        self.shared.hub.recent()
    }

    /// Leak-detector context for a request initiated now.
    pub(crate) fn leak_guard(&self, op: &'static str) -> LeakGuard {
        LeakGuard {
            rank: self.rank,
            op,
            label: self.label,
        }
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
        Request::ready(done, (), Slot::MessageWait, self.leak_guard("isend"))
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
        Request::pending_recv(src, tag, self.leak_guard("irecv"))
    }

    // ----- request completion ---------------------------------------------

    /// Resolves a request to `(completion_time, value, ledger slot)`
    /// without touching the clock.
    fn resolve<T>(&mut self, mut req: Request<T>) -> (f64, T, Slot) {
        let wait = req.wait();
        match req.take_inner() {
            ReqInner::Ready { at, value } => (at, value, wait),
            ReqInner::PendingRecv { src, tag, wrap } => {
                let env = self.take_matching(src, tag);
                let arrival = env.send_time + self.shared.cost.p2p(env.data.len() as u64);
                (arrival, wrap(env.data), wait)
            }
        }
    }

    /// `MPI_Wait`: completes `req`, advancing the clock to the operation's
    /// completion instant if that lies in the future (compute performed
    /// since initiation therefore overlaps the transfer).
    pub fn wait<T>(&mut self, req: Request<T>) -> T {
        let (at, value, wait) = self.resolve(req);
        self.wait_until(at, wait);
        value
    }

    /// `MPI_Waitall`: completes every request, advances the clock once to
    /// the latest completion, and returns the values in *request order*
    /// (never completion order). The final clock is independent of the
    /// order requests are listed in. The ledger books the advance as
    /// the latest-completing request's kind of wait.
    pub fn waitall<T>(&mut self, reqs: impl IntoIterator<Item = Request<T>>) -> Vec<T> {
        let (mut latest, mut kind) = (self.now, Slot::MessageWait);
        let mut out = Vec::new();
        for req in reqs {
            let (at, value, wait) = self.resolve(req);
            if at > latest {
                (latest, kind) = (at, wait);
            }
            out.push(value);
        }
        self.wait_until(latest, kind);
        out
    }

    fn take_matching(&mut self, src: usize, tag: u64) -> Envelope {
        if let Some(pos) = self.stash.iter().position(|e| e.src == src && e.tag == tag) {
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

    /// The one body every collective runs through: takes this rank's next
    /// generation and meets the peers at the hub with its signature,
    /// where the signatures are verified and `combine` folds every rank's
    /// input and entry time into the shared result and per-rank exit
    /// times. Leaves the clock alone: each caller applies its own rule to
    /// the returned exit time.
    fn rendezvous<T, R, F>(
        &mut self,
        kind: CollectiveKind,
        root: Option<usize>,
        op: Option<&'static str>,
        parts: Option<usize>,
        input: T,
        combine: F,
    ) -> (Arc<R>, f64)
    where
        T: Send + 'static,
        R: Send + Sync + 'static,
        F: FnOnce(Vec<T>, &[f64]) -> (R, Vec<f64>),
    {
        let gen = self.gen;
        self.gen += 1;
        let sig = CollectiveSig {
            kind,
            root,
            op,
            parts,
            label: self.label,
        };
        let hub = &self.shared.hub;
        hub.exchange(self.rank, gen, self.now, sig, input, combine)
    }

    /// `MPI_Barrier`.
    pub fn barrier(&mut self) {
        let cost = self.shared.cost.barrier(self.size());
        let (_, exit) = self.rendezvous(
            CollectiveKind::Barrier,
            None,
            None,
            None,
            (),
            |_: Vec<()>, times| ((), vec![max_time(times) + cost; times.len()]),
        );
        self.exit_at(exit, Slot::CollectiveWait);
    }

    /// `MPI_Bcast`: `data` is significant at `root`, the returned buffer at
    /// every rank.
    pub fn bcast(&mut self, root: usize, data: Vec<u8>) -> Vec<u8> {
        let p = self.size();
        let cost_model = self.shared.cost;
        let input = if self.rank == root { Some(data) } else { None };
        let (result, exit) = self.rendezvous(
            CollectiveKind::Bcast,
            Some(root),
            None,
            None,
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
        self.exit_at(exit, Slot::CollectiveWait);
        (*result).clone()
    }

    /// `MPI_Allgather` (variable-size): every rank receives every rank's
    /// contribution.
    pub fn allgather(&mut self, data: Vec<u8>) -> Vec<Vec<u8>> {
        let p = self.size();
        let cost_model = self.shared.cost;
        let (result, exit) = self.rendezvous(
            CollectiveKind::Allgather,
            None,
            None,
            None,
            data,
            move |inputs: Vec<Vec<u8>>, times| {
                let total: u64 = inputs.iter().map(|v| v.len() as u64).sum();
                // ring allgather: log p startup + total volume.
                let exit = max_time(times) + cost_model.bcast(p, total);
                (inputs, vec![exit; times.len()])
            },
        );
        self.exit_at(exit, Slot::CollectiveWait);
        (*result).clone()
    }

    /// Nonblocking fixed-count `MPI_Ialltoall` over one `u64` per peer —
    /// the first round of the paper's two-round exchange (peers swap
    /// buffer sizes before the payload `Alltoallv`). The exchange is
    /// initiated at the current timestamp; the clock does not advance
    /// until the returned request completes, so compute charged in between
    /// overlaps the collective.
    pub fn ialltoall_u64(&mut self, sends: Vec<u64>) -> Request<Vec<u64>> {
        let p = self.size();
        assert_eq!(sends.len(), p, "one value per destination");
        let cost_model = self.shared.cost;
        let (result, exit) = self.rendezvous(
            CollectiveKind::AlltoallU64,
            None,
            None,
            Some(p),
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
        let value = result[self.rank].clone();
        Request::ready(
            exit,
            value,
            Slot::CollectiveWait,
            self.leak_guard("ialltoall_u64"),
        )
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
        let p = self.size();
        assert_eq!(sends.len(), p, "one buffer per destination");
        let cost_model = self.shared.cost;
        let (result, exit) = self.rendezvous(
            CollectiveKind::Alltoallv,
            None,
            None,
            Some(p),
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
                // One slot per rank, which that rank moves its row out of.
                let rows: Vec<Mutex<Vec<Vec<u8>>>> = matrix.into_iter().map(Mutex::new).collect();
                (rows, exits)
            },
        );
        let value = std::mem::take(&mut *result[self.rank].lock());
        Request::ready(
            exit,
            value,
            Slot::CollectiveWait,
            self.leak_guard("ialltoallv"),
        )
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
        let p = self.size();
        let cost_model = self.shared.cost;
        let (result, exit) = self.rendezvous(
            kind,
            root,
            Some(op.tag()),
            None,
            value,
            move |inputs: Vec<T>, times| {
                let combined = fold_in_rank_order(&inputs, op);
                let exit = max_time(times) + cost_model.reduce(p, bytes_hint);
                (combined, vec![exit; times.len()])
            },
        );
        self.exit_at(exit, Slot::CollectiveWait);
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
        let p = self.size();
        let cost_model = self.shared.cost;
        let (result, exit) = self.rendezvous(
            CollectiveKind::Scan,
            None,
            Some(op.tag()),
            None,
            value,
            move |inputs: Vec<T>, times| {
                let prefixes = scan_in_rank_order(&inputs, op);
                let exit = max_time(times) + cost_model.reduce(p, bytes_hint);
                (prefixes, vec![exit; times.len()])
            },
        );
        self.exit_at(exit, Slot::CollectiveWait);
        result[self.rank].clone()
    }

    /// The I/O layer's own collectives, in the same ordered stream as the
    /// rest: `site` names the operation in the collective's signature (e.g.
    /// `io.staged_read`), and the clock moves to this rank's exit time.
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
        let kind = CollectiveKind::Custom(site);
        let (r, exit) = self.rendezvous(kind, None, None, None, input, combine);
        self.exit_at(exit, Slot::Io);
        (r, exit)
    }
}

#[inline]
fn max_time(times: &[f64]) -> f64 {
    times.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
}
