//! # mvio-core — MPI-Vector-IO
//!
//! The paper's primary contribution: a parallel I/O and partitioning
//! library for geospatial *vector* data (WKT text and fixed-record binary)
//! layered on MPI-IO, "making MPI aware of spatial data".
//!
//! ## The pipeline (paper Figure 7)
//!
//! 1. **File partitioning** ([`partition`]) — a single huge text file of
//!    variable-length geometries is split among ranks without ever
//!    cutting a geometry in half. Two strategies, benchmarked against
//!    each other in Figure 10:
//!    * *message-based dynamic partitioning* (Algorithm 1): fixed
//!      non-overlapping blocks + an even/odd ring exchange of the
//!      incomplete tail fragments;
//!    * *overlap/halo reads*: each rank redundantly reads an extra
//!      `max_geometry_bytes` past its block and resolves ownership
//!      locally.
//! 2. **Parsing** ([`reader`]) — a pluggable [`reader::GeometryParser`]
//!    turns each record into a [`Feature`] (geometry + userdata), exactly
//!    like the paper's `WKTParser` returning GEOS geometries.
//! 3. **Spatial-aware MPI** ([`sptypes`], [`spops`]) — `MPI_POINT`,
//!    `MPI_LINE`, `MPI_RECT` derived datatypes and `MPI_MIN`/`MPI_MAX`/
//!    `MPI_UNION` reduction operators (Table 2), usable in
//!    reduce/allreduce/scan.
//! 4. **Spatial decomposition** ([`decomp`], [`grid`]) — per-rank local
//!    MBRs are combined with a `MPI_UNION` allreduce into a global cell
//!    tiling; every geometry is mapped to all overlapping cells (an
//!    arithmetic lookup charged as the paper's R-tree probe), replicating
//!    spanners. One [`decomp::Decomposition`] pairs the uniform tiling
//!    with the policy's cell→rank owner map: the paper's round-robin,
//!    Hilbert-order runs, or skew-aware adaptive bisection.
//! 5. **Exchange** ([`exchange`]) — the two-round `Alltoall` (sizes) +
//!    `Alltoallv` (payload) personalized exchange that produces the global
//!    spatial partitioning; a byte cap per round
//!    ([`exchange::ExchangeChunk::Bytes`]) bounds the memory of large
//!    exchanges. Steps 1, 2, 4 and 5 are one front half,
//!    [`pipeline::ingest_layers`], which every text workload runs on.
//! 6. **Filter-and-refine** ([`framework`]) — cell-local computations over
//!    the exchanged data; `mvio-sjoin` plugs spatial join in here.
//!
//! Non-contiguous file views for fixed-size and variable-length records
//! (Level-3 access, Figures 15–16) live in [`views`].

pub mod decomp;
pub mod exchange;
pub mod framework;
pub mod grid;
pub mod partition;
pub mod pipeline;
pub mod reader;
pub mod rebalance;
pub mod resident;
pub mod snapshot;
pub mod spops;
pub mod sptypes;
pub mod views;

pub use decomp::{DecompConfig, DecompPolicy, Decomposition, SpatialDecomposition};
pub use exchange::{
    ExchangeChunk, ExchangePlan, ExchangeRound, ExchangeStats, RecordFrame, SerializedBatch,
};
pub use grid::{CellMap, GridSpec, UniformGrid};
pub use partition::{BoundaryStrategy, ReadOptions};
pub use pipeline::{IngestOutput, PipelineOptions, PipelineStats};
pub use reader::{CsvPointParser, GeometryParser, WktLineParser};
pub use rebalance::{
    apply_updates, MigrationStats, RebalancePolicy, RebalanceReport, Update, UpdateStats,
};
pub use snapshot::{
    read_partitioned, write_partitioned, SnapshotMeta, SnapshotReadOptions, SnapshotReadReport,
    SnapshotWriteOptions, SnapshotWriteReport,
};

pub use resident::ResidentStore;

use mvio_geom::Geometry;

/// A geometry plus its associated non-spatial attributes — the analogue of
/// a GEOS geometry with the paper's `userdata` field.
#[derive(Debug, Clone, PartialEq)]
pub struct Feature {
    /// The shape.
    pub geometry: Geometry,
    /// Attribute payload carried alongside (tab-separated remainder of the
    /// input record; empty if none).
    pub userdata: String,
}

impl Feature {
    /// Wraps a bare geometry.
    pub fn new(geometry: Geometry) -> Self {
        Feature {
            geometry,
            userdata: String::new(),
        }
    }

    /// Wraps a geometry with attributes.
    pub fn with_userdata(geometry: Geometry, userdata: impl Into<String>) -> Self {
        Feature {
            geometry,
            userdata: userdata.into(),
        }
    }
}

/// Errors surfaced by the library.
#[derive(Debug)]
pub enum CoreError {
    /// Runtime / MPI-IO failure.
    Msim(mvio_msim::MsimError),
    /// Filesystem failure.
    Pfs(mvio_pfs::PfsError),
    /// Geometry parse failure, with the offending record for diagnosis.
    Parse {
        record: String,
        source: mvio_geom::GeomError,
    },
    /// File partitioning could not make progress (e.g. a geometry larger
    /// than the block size and the halo).
    Partition(String),
    /// Grid construction rejected the requested decomposition (empty
    /// bounds, zero cells, or a cell count overflowing the `u32` id space).
    Grid(String),
    /// Caller-supplied options failed validation before any I/O started
    /// (e.g. a zero block size or zero maximum geometry size, which would
    /// otherwise divide by zero or silently read empty halos).
    InvalidOptions(String),
    /// A pre-serialized exchange batch did not match the communicator: a
    /// [`SerializedBatch`] must carry exactly one buffer and one record
    /// count per destination rank. Caught before any collective is
    /// posted, so a malformed producer cannot truncate payloads or
    /// deadlock the exchange.
    BatchShape {
        /// World size of the communicator the batch was submitted to.
        comm_size: usize,
        /// `bufs.len()` of the offending batch.
        bufs: usize,
        /// `records.len()` of the offending batch.
        records: usize,
    },
    /// A binary snapshot file was rejected: bad magic, unsupported
    /// version, a truncated or self-inconsistent header/section table, or
    /// a payload that disagrees with the decomposition it is being loaded
    /// under. See [`snapshot`] for the format.
    Snapshot(String),
    /// A serialized exchange record frame was corrupt: truncated,
    /// carrying a length field that does not fit the buffer, or a cell
    /// word whose value exceeds the `u32` cell-id space. Decoding uses
    /// checked conversions throughout, so corruption surfaces here
    /// instead of as a silently truncated cast.
    Frame(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Msim(e) => write!(f, "runtime: {e}"),
            CoreError::Pfs(e) => write!(f, "pfs: {e}"),
            CoreError::Parse { record, source } => {
                let head: String = record.chars().take(60).collect();
                write!(f, "parse error on record {head:?}…: {source}")
            }
            CoreError::Partition(m) => write!(f, "partitioning: {m}"),
            CoreError::Grid(m) => write!(f, "grid: {m}"),
            CoreError::InvalidOptions(m) => write!(f, "invalid options: {m}"),
            CoreError::BatchShape {
                comm_size,
                bufs,
                records,
            } => write!(
                f,
                "serialized batch shaped for the wrong world: {bufs} buffers / \
                 {records} record counts on a {comm_size}-rank communicator"
            ),
            CoreError::Snapshot(m) => write!(f, "snapshot: {m}"),
            CoreError::Frame(m) => write!(f, "corrupt wire frame: {m}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<mvio_msim::MsimError> for CoreError {
    fn from(e: mvio_msim::MsimError) -> Self {
        CoreError::Msim(e)
    }
}

impl From<mvio_pfs::PfsError> for CoreError {
    fn from(e: mvio_pfs::PfsError) -> Self {
        CoreError::Pfs(e)
    }
}

/// Result alias for library operations.
pub type Result<T> = std::result::Result<T, CoreError>;
