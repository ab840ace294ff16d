//! # mvio-msim — an in-process SPMD runtime with virtual time
//!
//! The paper runs on MPI (Open MPI 1.8.4 / MPICH 3.1.4) across up to 72
//! nodes × 16 ranks. This crate substitutes an in-process runtime that
//! preserves MPI's *semantics* and models its *performance*:
//!
//! * **SPMD execution** — [`World::run`] spawns one OS thread per rank and
//!   hands each a [`Comm`], the analogue of `MPI_COMM_WORLD`. That thread
//!   runs the rank's whole program: parallelism inside a rank is
//!   modelled as lanes whose slowest one [`Comm::advance_parallel`]
//!   folds into the clock, not executed.
//! * **Point-to-point** — `send`/`recv` with tag and source matching
//!   and message ordering per (source, tag) pair; the received buffer's
//!   length is the `MPI_Get_count` value.
//! * **Collectives** — barrier, bcast, allgather, alltoall,
//!   alltoallv, reduce, allreduce and scan, including user-defined
//!   reduction operators over arbitrary `T` (the hook the paper's
//!   `MPI_UNION` spatial reduction plugs into). Non-commutative but
//!   associative operators are honoured by combining strictly in rank
//!   order.
//! * **Nonblocking operations** — `isend`/`irecv`/`ialltoall_u64`/
//!   `ialltoallv` return [`request::Request`] handles completed by
//!   `wait`/`waitall`; compute charged between initiation and
//!   completion, one quantum at a time or as a lane region, overlaps
//!   the transfer deterministically.
//! * **Derived datatypes** — contiguous, vector, indexed and struct
//!   ([`datatype::Datatype`]), with size/extent and flattening into
//!   file-view fragments.
//! * **MPI-IO** — [`io::MpiFile`] implements the paper's three access
//!   levels over an [`mvio_pfs::SimFs`]: Level 0 (contiguous +
//!   independent), Level 1 (contiguous + collective) and Level 3
//!   (non-contiguous + collective through file views), both collective
//!   levels on one two-phase engine with ROMIO's Lustre
//!   aggregator-selection rule. The ROMIO 2 GB
//!   single-operation limit is enforced, as the paper discusses (§3).
//! * **Virtual time** — every rank carries a clock; communication charges
//!   an α–β model, collectives charge log-tree costs, compute phases
//!   charge the calibrated [`time::CostModel`], and I/O charges the pfs
//!   engine. Reported times are virtual seconds, and [`Comm::ledger`]
//!   splits a rank's clock by what moved it ([`Ledger`]): one [`Slot`]
//!   per [`Work`] kind, waits at collectives, for messages and for file
//!   accesses, and lanes; the slots sum to [`Comm::now`].
//!
//! ## Example
//!
//! ```
//! use mvio_msim::{World, WorldConfig, Topology};
//!
//! let cfg = WorldConfig::new(Topology::new(2, 2)); // 2 nodes x 2 ranks
//! let sums = World::run(cfg, |comm| {
//!     let mine = (comm.rank() + 1) as u64;
//!     comm.allreduce_u64(mine, |a, b| a + b)
//! });
//! assert_eq!(sums, vec![10, 10, 10, 10]);
//! ```

pub mod check;
pub mod collective;
pub mod comm;
pub mod datatype;
pub mod hints;
pub mod io;
pub mod ledger;
pub mod reduceop;
pub mod request;
pub mod time;
pub mod topology;
pub mod world;

pub use check::{CollectiveKind, CollectiveSig, Label};
pub use comm::Comm;
pub use datatype::Datatype;
pub use hints::Hints;
pub use io::{select_readers, AccessLevel, Landing, MpiFile};
pub use ledger::{Ledger, Slot};
pub use reduceop::ReduceOp;
pub use request::Request;
pub use time::{CostModel, ShapeClass, Work};
pub use topology::Topology;
pub use world::{World, WorldConfig};

/// Errors surfaced by the runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum MsimError {
    /// Underlying simulated-filesystem failure.
    Pfs(mvio_pfs::PfsError),
    /// The ROMIO 2 GB single-operation limit (paper §3: "an MPI process
    /// can not read/write more than 2 GB of data in a single operation").
    CountOverflow { requested: u64 },
    /// A derived-datatype description was inconsistent.
    BadDatatype(String),
    /// Mismatched collective usage detected at runtime.
    Collective(String),
}

impl std::fmt::Display for MsimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MsimError::Pfs(e) => write!(f, "pfs: {e}"),
            MsimError::CountOverflow { requested } => write!(
                f,
                "ROMIO limit: single I/O of {requested} bytes exceeds 2 GiB"
            ),
            MsimError::BadDatatype(m) => write!(f, "bad datatype: {m}"),
            MsimError::Collective(m) => write!(f, "collective misuse: {m}"),
        }
    }
}

impl std::error::Error for MsimError {}

impl From<mvio_pfs::PfsError> for MsimError {
    fn from(e: mvio_pfs::PfsError) -> Self {
        MsimError::Pfs(e)
    }
}

/// Result alias for runtime operations.
pub type Result<T> = std::result::Result<T, MsimError>;
