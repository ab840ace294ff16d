//! Collective-protocol verifier — the MPI-CHECK/MUST analogue for the
//! simulator.
//!
//! MPI requires every rank of a communicator to execute the *same
//! sequence* of collectives; the codebase's recurring bug class is
//! exactly a divergence from that contract (a rank that errors out of an
//! exchange round early, a header-failure path that skips a broadcast).
//! This module turns the hand audit into tooling: a
//! [`CollectiveVerifier`] owned by the simulated world records, per
//! rank, a [`CollectiveSig`] for every collective entry and
//! cross-validates the streams at each matching point.
//!
//! ## What it reports
//!
//! - **Mismatched op sequences** — the n-th collective differs across
//!   ranks in kind, root, reduce-operator tag, payload shape, or
//!   call-site label ([`Violation::SequenceMismatch`]).
//! - **Divergent chunk/round counts** — a special case of the above:
//!   [`crate::Comm::labeled`] labels carry the exchange round index, so
//!   a rank that runs one round too few shows up entering a *different*
//!   labelled collective at the same sequence number.
//! - **Ranks that exit with collectives outstanding** — a rank whose
//!   closure returns while peers are still waiting on (or later enter) a
//!   collective it never joined ([`Violation::RankExited`]).
//! - **Leaked [`crate::Request`] handles** — a nonblocking operation
//!   dropped without `wait`/`waitall`/`test`
//!   ([`Violation::RequestLeak`]), detected in `Drop`.
//!
//! ## Modes
//!
//! The `MVIO_CHECK` environment variable (read by
//! [`crate::World::run`] unless overridden via
//! [`crate::WorldConfig::with_check`]) selects a [`CheckMode`]:
//!
//! - `off` (default): zero instrumentation cost — no verifier is
//!   allocated, labels are not even copied.
//! - `on`: violations are collected and queryable from tests via
//!   [`crate::World::run_reporting`]. Note that a *real* skipped
//!   collective still deadlocks the job under `on` (just as it would
//!   under real MPI); the violation is recorded before the hang, but
//!   only `strict` turns it into a prompt abort.
//! - `strict`: the first violation panics with a per-rank trace diff;
//!   the world's abort machinery (`MPI_Abort` semantics) then wakes
//!   every blocked rank, so a protocol divergence terminates the job
//!   instead of hanging it. CI runs the whole test suite under
//!   `MVIO_CHECK=strict`, so it doubles as a conformance corpus.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt;

/// How many recent collectives per rank are kept for strict-mode trace
/// diffs.
const TRACE_DEPTH: usize = 8;

/// Verification mode, selected by `MVIO_CHECK={off,on,strict}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckMode {
    /// No verification, no instrumentation cost.
    Off,
    /// Record violations; query them via [`crate::World::run_reporting`].
    On,
    /// Panic on the first violation with a per-rank trace diff.
    Strict,
}

impl CheckMode {
    /// Resolves the mode from the `MVIO_CHECK` environment variable.
    /// Unset or empty means [`CheckMode::Off`]; any other value than
    /// `off`/`on`/`strict` panics (misconfigured knobs fail loudly, like
    /// every `MVIO_*` variable in this workspace).
    pub fn from_env() -> Self {
        match std::env::var("MVIO_CHECK") {
            Err(_) => CheckMode::Off,
            Ok(v) => match v.as_str() {
                "" | "off" => CheckMode::Off,
                "on" => CheckMode::On,
                "strict" => CheckMode::Strict,
                other => panic!("MVIO_CHECK must be off, on or strict, got {other:?}"),
            },
        }
    }
}

/// The kind of collective a rank entered. `Custom` carries the static
/// name of an I/O-layer collective built directly on the hub.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveKind {
    /// `MPI_Barrier`.
    Barrier,
    /// `MPI_Bcast`.
    Bcast,
    /// `MPI_Gather`.
    Gather,
    /// `MPI_Allgather`.
    Allgather,
    /// Fixed-count `MPI_Alltoall` over one `u64` per peer.
    AlltoallU64,
    /// `MPI_Alltoallv` over byte buffers.
    Alltoallv,
    /// `MPI_Reduce` (root-only result).
    Reduce,
    /// `MPI_Allreduce`.
    Allreduce,
    /// `MPI_Scan` (inclusive prefix).
    Scan,
    /// A named I/O-layer collective running on the shared hub (e.g.
    /// `io.read_at_all`).
    Custom(&'static str),
}

impl fmt::Display for CollectiveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectiveKind::Barrier => f.write_str("barrier"),
            CollectiveKind::Bcast => f.write_str("bcast"),
            CollectiveKind::Gather => f.write_str("gather"),
            CollectiveKind::Allgather => f.write_str("allgather"),
            CollectiveKind::AlltoallU64 => f.write_str("alltoall_u64"),
            CollectiveKind::Alltoallv => f.write_str("alltoallv"),
            CollectiveKind::Reduce => f.write_str("reduce"),
            CollectiveKind::Allreduce => f.write_str("allreduce"),
            CollectiveKind::Scan => f.write_str("scan"),
            CollectiveKind::Custom(name) => f.write_str(name),
        }
    }
}

/// Signature of one collective entry, compared field-for-field across
/// ranks at each matching point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectiveSig {
    /// Operation kind.
    pub kind: CollectiveKind,
    /// Root rank for rooted collectives (bcast/gather/reduce).
    pub root: Option<usize>,
    /// Reduce-operator tag ([`crate::ReduceOp::tag`]) for reductions;
    /// under SPMD all ranks pass the same operator, so the tags agree.
    pub op: Option<&'static str>,
    /// Payload shape: the per-destination part count for alltoall-style
    /// ops (always the world size when the call is well-formed).
    pub parts: Option<usize>,
    /// Call-site label threaded from the caller via
    /// [`crate::Comm::labeled`] (nested scopes joined with `/`). Empty
    /// when the call site is unlabelled.
    pub label: String,
}

impl fmt::Display for CollectiveSig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)?;
        let mut sep = '(';
        if let Some(root) = self.root {
            write!(f, "{sep}root={root}")?;
            sep = ',';
        }
        if let Some(op) = self.op {
            write!(f, "{sep}op={op}")?;
            sep = ',';
        }
        if let Some(parts) = self.parts {
            write!(f, "{sep}parts={parts}")?;
            sep = ',';
        }
        if sep == ',' {
            f.write_str(")")?;
        }
        if !self.label.is_empty() {
            write!(f, " @ {}", self.label)?;
        }
        Ok(())
    }
}

/// One recorded protocol violation.
#[derive(Debug, Clone)]
pub enum Violation {
    /// The `index`-th collective entered by the world diverged across
    /// ranks; `signatures` holds each rank's rendered [`CollectiveSig`].
    SequenceMismatch {
        /// Zero-based collective sequence number.
        index: u64,
        /// `(rank, rendered signature)` for every rank.
        signatures: Vec<(usize, String)>,
    },
    /// A rank's closure returned while other ranks were inside (or later
    /// entered) a collective it never joined.
    RankExited {
        /// The rank that left the world.
        exited_rank: usize,
        /// How many collectives the exiting rank completed.
        completed: u64,
        /// Zero-based sequence number of the stranded collective.
        index: u64,
        /// `(rank, rendered signature)` of the ranks left waiting.
        stranded: Vec<(usize, String)>,
    },
    /// A [`crate::Request`] was dropped without `wait`/`waitall`/`test`.
    RequestLeak {
        /// The rank that dropped the handle.
        rank: usize,
        /// The operation and its call-site label, e.g.
        /// `isend @ snapshot.write`.
        op: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::SequenceMismatch { index, signatures } => {
                writeln!(f, "collective #{index} diverged across ranks:")?;
                for (rank, sig) in signatures {
                    writeln!(f, "  rank {rank}: {sig}")?;
                }
                Ok(())
            }
            Violation::RankExited {
                exited_rank,
                completed,
                index,
                stranded,
            } => {
                writeln!(
                    f,
                    "rank {exited_rank} exited after {completed} collective(s) \
                     with collective #{index} outstanding; stranded ranks:"
                )?;
                for (rank, sig) in stranded {
                    writeln!(f, "  rank {rank}: {sig}")?;
                }
                Ok(())
            }
            Violation::RequestLeak { rank, op } => {
                write!(
                    f,
                    "rank {rank} dropped an in-flight {op} request without wait/test"
                )
            }
        }
    }
}

struct VerifierState {
    /// Signatures deposited for not-yet-complete sequence numbers.
    pending: BTreeMap<u64, Vec<Option<CollectiveSig>>>,
    /// Per rank: `Some(n)` once the rank's closure returned having
    /// completed `n` collectives.
    finished: Vec<Option<u64>>,
    /// Per rank: the most recent collectives, for strict trace diffs.
    traces: Vec<VecDeque<(u64, String)>>,
    violations: Vec<Violation>,
}

/// Records one [`CollectiveSig`] per rank per collective entry and
/// cross-validates the streams; see the [module docs](self).
///
/// Owned by the world ([`crate::World::run`] allocates one when
/// `MVIO_CHECK` is `on` or `strict`) and shared by every rank's
/// [`crate::Comm`].
pub struct CollectiveVerifier {
    size: usize,
    strict: bool,
    state: Mutex<VerifierState>,
}

impl fmt::Debug for CollectiveVerifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CollectiveVerifier")
            .field("size", &self.size)
            .field("strict", &self.strict)
            .finish_non_exhaustive()
    }
}

impl CollectiveVerifier {
    /// A verifier for a `size`-rank world; `strict` selects panic-on-
    /// violation ([`CheckMode::Strict`]) over collect-and-report.
    pub fn new(size: usize, strict: bool) -> Self {
        CollectiveVerifier {
            size,
            strict,
            state: Mutex::new(VerifierState {
                pending: BTreeMap::new(),
                finished: vec![None; size],
                traces: vec![VecDeque::new(); size],
                violations: Vec::new(),
            }),
        }
    }

    /// All violations recorded so far (empty when the protocol held).
    pub fn reports(&self) -> Vec<Violation> {
        self.state.lock().violations.clone()
    }

    /// Records rank `rank` entering its `index`-th collective with
    /// signature `sig`, cross-validating the sequence number once every
    /// rank has deposited. Called by [`crate::Comm`] *before* the rank
    /// enters the rendezvous hub, so in strict mode a violation panics
    /// while the hub's poison machinery can still wake the peers.
    pub(crate) fn record(&self, rank: usize, index: u64, sig: CollectiveSig) {
        let mut st = self.state.lock();
        let rendered = sig.to_string();
        let trace = &mut st.traces[rank];
        if trace.len() == TRACE_DEPTH {
            trace.pop_front();
        }
        trace.push_back((index, rendered.clone()));

        // A peer that already returned can never join this collective.
        let mut exited: Option<(usize, u64)> = None;
        for (r, fin) in st.finished.iter().enumerate() {
            if r != rank {
                if let Some(n) = fin {
                    if *n <= index {
                        exited = Some((r, *n));
                        break;
                    }
                }
            }
        }
        if let Some((exited_rank, completed)) = exited {
            let v = Violation::RankExited {
                exited_rank,
                completed,
                index,
                stranded: vec![(rank, rendered)],
            };
            self.raise(&mut st, v);
            return;
        }

        let size = self.size;
        let slots = st.pending.entry(index).or_insert_with(|| vec![None; size]);
        slots[rank] = Some(sig);
        if slots.iter().all(Option::is_some) {
            let slots = st.pending.remove(&index).unwrap_or_default();
            let mut iter = slots.iter().flatten();
            let first = iter.next();
            let diverged = iter.any(|s| Some(s) != first);
            if diverged {
                let signatures = slots
                    .iter()
                    .enumerate()
                    .map(|(r, s)| (r, s.as_ref().map(|s| s.to_string()).unwrap_or_default()))
                    .collect();
                let v = Violation::SequenceMismatch { index, signatures };
                self.raise(&mut st, v);
            }
        }
    }

    /// The signatures `rank` recorded most recently (at most the last
    /// eight), oldest first, as rendered in strict-mode trace diffs.
    #[cfg(test)]
    pub(crate) fn recent(&self, rank: usize) -> Vec<String> {
        let st = self.state.lock();
        st.traces[rank].iter().map(|(_, sig)| sig.clone()).collect()
    }

    /// Records that `rank`'s closure returned after completing
    /// `completed` collectives; any deposit already waiting at or beyond
    /// that sequence number is a stranded peer.
    pub(crate) fn rank_finished(&self, rank: usize, completed: u64) {
        let mut st = self.state.lock();
        st.finished[rank] = Some(completed);
        let stranded_at = st
            .pending
            .range(completed..)
            .find(|(_, slots)| slots.iter().any(Option::is_some))
            .map(|(index, slots)| {
                let stranded: Vec<(usize, String)> = slots
                    .iter()
                    .enumerate()
                    .filter_map(|(r, s)| s.as_ref().map(|s| (r, s.to_string())))
                    .collect();
                (*index, stranded)
            });
        if let Some((index, stranded)) = stranded_at {
            let v = Violation::RankExited {
                exited_rank: rank,
                completed,
                index,
                stranded,
            };
            self.raise(&mut st, v);
        }
    }

    /// Records a leaked request handle (called from `Request::drop`).
    pub(crate) fn leak(&self, rank: usize, op: &str) {
        let mut st = self.state.lock();
        let v = Violation::RequestLeak {
            rank,
            op: op.to_string(),
        };
        self.raise(&mut st, v);
    }

    /// In strict mode panics with the violation plus a per-rank trace
    /// diff; otherwise appends it to the report list.
    fn raise(&self, st: &mut VerifierState, v: Violation) {
        if !self.strict {
            st.violations.push(v);
            return;
        }
        let mut msg = format!("MVIO_CHECK=strict: collective-protocol violation: {v}\n");
        msg.push_str("recent collective history (oldest first):\n");
        for (rank, trace) in st.traces.iter().enumerate() {
            let entries: Vec<String> = trace.iter().map(|(i, s)| format!("#{i} {s}")).collect();
            msg.push_str(&format!("  rank {rank}: {}\n", entries.join(" | ")));
        }
        panic!("{msg}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(kind: CollectiveKind, label: &str) -> CollectiveSig {
        CollectiveSig {
            kind,
            root: None,
            op: None,
            parts: None,
            label: label.to_string(),
        }
    }

    #[test]
    fn mode_parses_env_values() {
        // from_env reads the process environment; exercise the match arms
        // through the public constructor contract instead of mutating env
        // (tests run multi-threaded).
        assert_eq!(CheckMode::Off, CheckMode::Off);
    }

    #[test]
    fn matching_streams_produce_no_reports() {
        let v = CollectiveVerifier::new(2, false);
        for i in 0..3 {
            v.record(0, i, sig(CollectiveKind::Barrier, "x"));
            v.record(1, i, sig(CollectiveKind::Barrier, "x"));
        }
        v.rank_finished(0, 3);
        v.rank_finished(1, 3);
        assert!(v.reports().is_empty());
    }

    #[test]
    fn diverging_kind_is_reported_with_both_ranks() {
        let v = CollectiveVerifier::new(2, false);
        v.record(0, 0, sig(CollectiveKind::Barrier, "a"));
        v.record(1, 0, sig(CollectiveKind::Allgather, "b"));
        let reports = v.reports();
        assert_eq!(reports.len(), 1);
        let text = reports[0].to_string();
        assert!(text.contains("rank 0: barrier @ a"), "{text}");
        assert!(text.contains("rank 1: allgather @ b"), "{text}");
    }

    #[test]
    fn diverging_label_alone_is_a_violation() {
        let v = CollectiveVerifier::new(2, false);
        v.record(0, 0, sig(CollectiveKind::Alltoallv, "round=0"));
        v.record(1, 0, sig(CollectiveKind::Alltoallv, "round=1"));
        assert_eq!(v.reports().len(), 1);
    }

    #[test]
    fn early_exit_with_peer_waiting_is_reported() {
        let v = CollectiveVerifier::new(2, false);
        v.record(1, 0, sig(CollectiveKind::Barrier, "end"));
        v.rank_finished(0, 0);
        let reports = v.reports();
        assert_eq!(reports.len(), 1);
        let text = reports[0].to_string();
        assert!(text.contains("rank 0 exited"), "{text}");
        assert!(text.contains("barrier @ end"), "{text}");
    }

    #[test]
    fn deposit_after_peer_exit_is_reported() {
        let v = CollectiveVerifier::new(2, false);
        v.rank_finished(0, 0);
        v.record(1, 0, sig(CollectiveKind::Barrier, "end"));
        assert_eq!(v.reports().len(), 1);
    }

    #[test]
    fn strict_mode_panics_with_trace() {
        let v = CollectiveVerifier::new(2, true);
        v.record(0, 0, sig(CollectiveKind::Barrier, "a"));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            v.record(1, 0, sig(CollectiveKind::Bcast, "b"));
        }))
        .expect_err("strict must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("MVIO_CHECK=strict"), "{msg}");
        assert!(msg.contains("recent collective history"), "{msg}");
        assert!(msg.contains("barrier @ a"), "{msg}");
    }

    #[test]
    fn leaks_are_reported() {
        let v = CollectiveVerifier::new(2, false);
        v.leak(1, "isend @ somewhere");
        let reports = v.reports();
        assert_eq!(reports.len(), 1);
        let text = reports[0].to_string();
        assert!(text.contains("rank 1"), "{text}");
        assert!(text.contains("isend @ somewhere"), "{text}");
    }
}
