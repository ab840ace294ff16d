//! # mvio-pfs — striped parallel-filesystem simulator
//!
//! The MPI-Vector-IO paper evaluates on two parallel filesystems: **Lustre**
//! (SDSC COMET: 96 OSTs, user-settable stripe count and stripe size, FDR
//! InfiniBand clients) and **GPFS** (NCSA ROGER: fixed configuration,
//! 10 Gb/s node uplinks). Neither is available in this environment, so this
//! crate substitutes a simulator with two coupled halves:
//!
//! 1. **A functional half** — files hold real bytes in memory. `read_at`
//!    returns the actual file contents, so every downstream parser,
//!    partitioner and join operates on real data and can be tested exactly.
//! 2. **A timing half** — every read/write computes a *virtual duration*
//!    from a first-principles model of the machinery the paper's analysis
//!    leans on:
//!    * files are striped round-robin over `stripe_count` object storage
//!      targets (OSTs) in `stripe_size` chunks ([`layout`]);
//!    * each OST is a FIFO server in virtual time: a chunk's service costs
//!      one request latency plus `bytes / ost_bandwidth`, and chunks queued
//!      on the same OST serialize ([`engine`]);
//!    * each client *node* has a finite RPC/link throughput, so adding
//!      nodes adds client-side bandwidth until the OST aggregate saturates
//!      — the mechanism behind Figure 8's rise-then-plateau;
//!    * oversubscribed OSTs pay a small per-client sharing penalty — the
//!      gentle post-peak decline the paper attributes to link saturation.
//!
//! The model's constants are calibrated in [`config::PerfModel`]
//! (`lustre_comet()` reproduces the paper's 22 GB/s peak at 64 OSTs;
//! `gpfs_roger()` the smaller ROGER numbers). See `EXPERIMENTS.md` for the
//! calibration notes.
//!
//! ## Example
//!
//! ```
//! use mvio_pfs::{FsConfig, SimFs, StripeSpec, IoCtx};
//!
//! let fs = SimFs::new(FsConfig::lustre_comet());
//! let file = fs.create("data/lakes.wkt", Some(StripeSpec::new(8, 1 << 20))).unwrap();
//! file.append(vec![42u8; 4 << 20]);
//!
//! let mut buf = vec![0u8; 1 << 20];
//! let done = file.read_at(0, &mut buf, &IoCtx { node: 0, now: 0.0 }).unwrap();
//! assert_eq!(buf[0], 42);
//! assert!(done.completion > 0.0); // virtual seconds elapsed
//! ```

pub mod config;
pub mod engine;
pub mod file;
pub mod fs;
pub mod layout;
pub mod stats;

pub use config::{FsConfig, FsKind, PerfModel, StripeSpec};
pub use engine::{IoCompletion, IoCtx, IoRequest, TimingEngine};
pub use file::SimFile;
pub use fs::SimFs;
pub use stats::FsStats;

/// Errors surfaced by the simulated filesystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PfsError {
    /// Path not present in the namespace.
    NotFound(String),
    /// Path already exists (create with `exclusive`).
    AlreadyExists(String),
    /// Read/write beyond end-of-file or other invalid range.
    InvalidRange {
        offset: u64,
        len: u64,
        file_len: u64,
    },
    /// A stripe specification was rejected (zero count/size or count above
    /// the filesystem's OST total).
    BadStripe(String),
    /// A filesystem configuration failed validation (zero OST count, a
    /// non-positive bandwidth, or an invalid default stripe).
    BadConfig(String),
}

impl std::fmt::Display for PfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PfsError::NotFound(p) => write!(f, "no such file: {p}"),
            PfsError::AlreadyExists(p) => write!(f, "file exists: {p}"),
            PfsError::InvalidRange {
                offset,
                len,
                file_len,
            } => write!(
                f,
                "invalid range: offset {offset} + len {len} exceeds file length {file_len}"
            ),
            PfsError::BadStripe(msg) => write!(f, "bad stripe spec: {msg}"),
            PfsError::BadConfig(msg) => write!(f, "bad filesystem config: {msg}"),
        }
    }
}

impl std::error::Error for PfsError {}

/// Result alias for filesystem operations.
pub type Result<T> = std::result::Result<T, PfsError>;
