//! Collective-protocol verification — the MPI-CHECK/MUST analogue for
//! the simulator, always on.
//!
//! MPI requires every rank of a communicator to execute the *same
//! sequence* of collectives; the codebase's recurring bug class is
//! exactly a divergence from that contract (a rank that errors out of an
//! exchange round early, a header-failure path that skips a broadcast).
//! Every collective therefore carries a [`CollectiveSig`] into the
//! rendezvous hub ([`crate::collective::Hub::exchange`]), which compares
//! the signatures of a generation before it combines any input. A
//! signature is `Copy` and its [`Label`] is a fixed-capacity stack of
//! `&'static str` segments, so checking costs no allocation; the report
//! text is rendered only when the job aborts.
//!
//! ## What aborts the job
//!
//! - **Mismatched op sequences** — the n-th collective differs across
//!   ranks in kind, root, reduce-operator tag, payload shape, or
//!   call-site label. A kind mismatch (barrier against bcast) is caught
//!   here, before the hub would combine inputs of different types.
//! - **Divergent chunk/round counts** — a special case of the above:
//!   [`crate::Comm::labeled_round`] labels carry the exchange round
//!   index, so a rank that runs one round too few shows up entering a
//!   *different* labelled collective at the same sequence number.
//! - **Ranks that exit with collectives outstanding** — a rank whose
//!   closure returns while peers are still waiting on (or later enter) a
//!   collective it never joined.
//! - **Leaked [`crate::Request`] handles** — a nonblocking operation
//!   dropped without `wait`/`waitall`, detected in `Drop`.
//!
//! Each violation panics with a report that starts with [`REPORT`],
//! names every rank's diverging signature and lists the last
//! [`HISTORY`] matched collectives; the world's abort machinery
//! (`MPI_Abort` semantics) then wakes every blocked rank, so a protocol
//! divergence terminates the job instead of hanging it.

use std::fmt;

/// The prefix of every protocol-violation panic message.
pub const REPORT: &str = "collective-protocol violation";

/// How many matched collectives a report lists.
pub const HISTORY: usize = 8;

/// How deep [`crate::Comm::labeled`] scopes may nest.
pub const LABEL_DEPTH: usize = 4;

/// The kind of collective a rank entered. `Custom` carries the static
/// name of an I/O-layer collective built directly on the hub.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveKind {
    /// `MPI_Barrier`.
    Barrier,
    /// `MPI_Bcast`.
    Bcast,
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
        f.write_str(match self {
            CollectiveKind::Barrier => "barrier",
            CollectiveKind::Bcast => "bcast",
            CollectiveKind::Allgather => "allgather",
            CollectiveKind::AlltoallU64 => "alltoall_u64",
            CollectiveKind::Alltoallv => "alltoallv",
            CollectiveKind::Reduce => "reduce",
            CollectiveKind::Allreduce => "allreduce",
            CollectiveKind::Scan => "scan",
            CollectiveKind::Custom(name) => name,
        })
    }
}

/// A call-site label: the [`crate::Comm::labeled`] scopes around a
/// collective, outermost first, each with the exchange round it was
/// opened for, if any. Rendered as the segments joined with `/`, a
/// round as `[round=N]` after its segment. Empty when the call site is
/// unlabelled.
#[derive(Debug, Clone, Copy, Default)]
pub struct Label {
    segments: [(&'static str, Option<usize>); LABEL_DEPTH],
    depth: usize,
}

/// Compares the open scopes only. The hub compares every rank's label
/// on every collective, and the unused slots' empty strings would cost
/// more to compare than the live segments.
impl PartialEq for Label {
    fn eq(&self, other: &Self) -> bool {
        self.segments[..self.depth] == other.segments[..other.depth]
    }
}

impl Eq for Label {}

impl Label {
    /// This label with `segment` (opened for `round`) nested inside.
    pub(crate) fn nested(mut self, segment: &'static str, round: Option<usize>) -> Self {
        assert!(
            self.depth < LABEL_DEPTH,
            "labels nest at most {LABEL_DEPTH} deep, {self} opens {segment}"
        );
        self.segments[self.depth] = (segment, round);
        self.depth += 1;
        self
    }

    /// Whether no scope is open.
    pub fn is_empty(&self) -> bool {
        self.depth == 0
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (segment, round)) in self.segments[..self.depth].iter().enumerate() {
            if i > 0 {
                f.write_str("/")?;
            }
            f.write_str(segment)?;
            if let Some(round) = round {
                write!(f, "[round={round}]")?;
            }
        }
        Ok(())
    }
}

/// Signature of one collective entry, compared field-for-field across
/// ranks at each matching point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// [`crate::Comm::labeled`].
    pub label: Label,
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

/// One protocol violation as the hub saw it, rendered into the abort
/// report. `sigs` is the hub's per-rank deposit table for the
/// generation: `Some` for every rank that entered it.
pub(crate) enum Violation<'a> {
    /// The `index`-th collective diverged across ranks.
    SequenceMismatch {
        index: u64,
        sigs: &'a [Option<CollectiveSig>],
    },
    /// `exited_rank` returned after `completed` collectives while the
    /// ranks in `sigs` entered collective `index`.
    RankExited {
        exited_rank: usize,
        completed: u64,
        index: u64,
        sigs: &'a [Option<CollectiveSig>],
    },
}

impl fmt::Display for Violation<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sigs = match *self {
            Violation::SequenceMismatch { index, sigs } => {
                writeln!(f, "collective #{index} diverged across ranks:")?;
                sigs
            }
            Violation::RankExited {
                exited_rank,
                completed,
                index,
                sigs,
            } => {
                writeln!(
                    f,
                    "rank {exited_rank} exited after {completed} collective(s) \
                     with collective #{index} outstanding; stranded ranks:"
                )?;
                sigs
            }
        };
        for (rank, sig) in sigs.iter().enumerate() {
            if let Some(sig) = sig {
                writeln!(f, "  rank {rank}: {sig}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::Hub;
    use crate::topology::Topology;
    use crate::world::{World, WorldConfig};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn sig(kind: CollectiveKind, label: &'static str) -> CollectiveSig {
        CollectiveSig {
            kind,
            root: None,
            op: None,
            parts: None,
            label: Label::default().nested(label, None),
        }
    }

    fn message(payload: Box<dyn std::any::Any + Send>) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    /// The panic message of `f`, which must panic.
    fn panic_text(f: impl FnOnce()) -> String {
        message(catch_unwind(AssertUnwindSafe(f)).expect_err("must panic"))
    }

    /// The report `f` aborts a `ranks`-rank world with.
    fn world_report(ranks: usize, f: impl Fn(&mut crate::Comm) + Send + Sync) -> String {
        let cfg = WorldConfig::new(Topology::single_node(ranks));
        let text = panic_text(|| {
            World::run(cfg, f);
        });
        assert!(text.starts_with(REPORT), "{text}");
        text
    }

    #[test]
    fn matching_streams_produce_no_reports() {
        let cfg = WorldConfig::new(Topology::single_node(2));
        World::run(cfg, |comm| {
            for round in 0..3 {
                comm.labeled_round("x", round, |c| c.barrier());
            }
        });
    }

    #[test]
    fn diverging_kind_is_reported_with_both_ranks() {
        let text = world_report(2, |comm| match comm.rank() {
            0 => comm.labeled("a", |c| c.barrier()),
            _ => drop(comm.labeled("b", |c| c.allgather(Vec::new()))),
        });
        assert!(text.contains("rank 0: barrier @ a"), "{text}");
        assert!(text.contains("rank 1: allgather @ b"), "{text}");
    }

    #[test]
    fn diverging_label_alone_is_a_violation() {
        let text = world_report(2, |comm| {
            comm.labeled("outer", |c| c.labeled_round("x", c.rank(), |c| c.barrier()));
        });
        assert!(
            text.contains("rank 0: barrier @ outer/x[round=0]"),
            "{text}"
        );
        assert!(
            text.contains("rank 1: barrier @ outer/x[round=1]"),
            "{text}"
        );
    }

    #[test]
    fn early_exit_with_peer_waiting_is_reported() {
        // Rank 1 enters generation 0 while rank 0 reports it finished
        // with none: whichever side reaches the hub second raises it.
        let hub = Hub::new(2);
        let texts = std::thread::scope(|s| {
            let peer = s.spawn(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    hub.exchange(
                        1,
                        0,
                        0.0,
                        sig(CollectiveKind::Barrier, "end"),
                        (),
                        |_, t| ((), t.to_vec()),
                    );
                }))
            });
            let finished = catch_unwind(AssertUnwindSafe(|| hub.rank_finished(0, 0)));
            // The side that raised the report panics with it; the other
            // returns (rank 0) or aborts with the job (rank 1).
            [finished, peer.join().unwrap()].map(|r| r.err().map(message).unwrap_or_default())
        });
        let text = texts
            .iter()
            .find(|t| t.starts_with(REPORT))
            .expect("a report");
        assert!(text.contains("rank 0 exited after 0"), "{text}");
        assert!(text.contains("rank 1: barrier @ end"), "{text}");
    }

    #[test]
    fn deposit_after_peer_exit_is_reported() {
        let hub = Hub::new(2);
        hub.rank_finished(0, 0);
        let text = panic_text(|| {
            hub.exchange(
                1,
                0,
                0.0,
                sig(CollectiveKind::Barrier, "end"),
                (),
                |_, t| ((), t.to_vec()),
            );
        });
        assert!(text.contains("rank 0 exited after 0"), "{text}");
        assert!(text.contains("rank 1: barrier @ end"), "{text}");
    }

    #[test]
    fn strict_mode_panics_with_trace() {
        let text = world_report(2, |comm| {
            for _ in 0..2 {
                comm.labeled("a", |c| c.barrier());
            }
            match comm.rank() {
                0 => comm.barrier(),
                _ => drop(comm.bcast(1, Vec::new())),
            }
        });
        assert!(text.contains("collective #2 diverged"), "{text}");
        assert!(text.contains("recent collective history"), "{text}");
        assert!(text.contains("#0 barrier @ a"), "{text}");
        assert!(text.contains("#1 barrier @ a"), "{text}");
    }

    #[test]
    fn leaks_are_reported() {
        let text = world_report(2, |comm| {
            if comm.rank() == 1 {
                drop(comm.labeled("somewhere", |c| c.irecv(0, 3)));
            }
        });
        assert!(
            text.contains("rank 1 dropped an in-flight irecv @ somewhere request"),
            "{text}"
        );
    }

    #[test]
    fn unwaited_landings_are_reported() {
        use mvio_pfs::{FsConfig, SimFs, StripeSpec};
        let fs = SimFs::new(FsConfig::lustre_comet());
        fs.create("f", Some(StripeSpec::new(2, 1024)))
            .unwrap()
            .append([7u8; 8192]);
        let text = world_report(2, |comm| {
            let f = crate::MpiFile::open(&fs, "f", crate::Hints::default()).unwrap();
            let mut buf = [0u8; 4096];
            let at = comm.rank() as u64 * 4096;
            let (_, landing) = comm
                .labeled("layer", |c| f.iread_at_together(c, at, &mut buf))
                .unwrap();
            match comm.rank() {
                0 => landing.wait(comm),
                _ => drop(landing),
            }
        });
        assert!(
            text.contains("rank 1 dropped an in-flight iread_at_together @ layer request"),
            "{text}"
        );
    }
}
