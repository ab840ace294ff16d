//! # mpi-vector-io — parallel I/O and partitioning for geospatial vector data
//!
//! A from-scratch Rust reproduction of **MPI-Vector-IO** (Puri, Paudel,
//! Prasad — ICPP 2018): a parallel I/O library for partitioning and
//! reading irregular vector data formats such as Well-Known Text on HPC
//! platforms, with spatial-aware MPI datatypes, reduction operators, and a
//! distributed filter-and-refine framework, demonstrated end-to-end with
//! spatial join.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | module | crate | role |
//! |--------|-------|------|
//! | [`pfs`] | `mvio-pfs` | striped parallel-filesystem simulator (Lustre/GPFS) |
//! | [`msim`] | `mvio-msim` | SPMD message-passing runtime, virtual time, MPI-IO |
//! | [`geom`] | `mvio-geom` | geometry engine (WKT/WKB, predicates, R-tree) |
//! | [`core`] | `mvio-core` | MPI-Vector-IO: partitioning, spatial MPI, exchange |
//! | [`sjoin`] | `mvio-sjoin` | distributed spatial join / indexing / range query |
//! | [`datagen`] | `mvio-datagen` | synthetic OSM-like datasets (Table 3 catalog) |
//!
//! ## Quickstart
//!
//! ```
//! use mpi_vector_io::prelude::*;
//!
//! // A 2-node x 2-rank job over a Lustre-like filesystem.
//! let fs = SimFs::new(FsConfig::lustre_comet());
//! let file = fs.create("demo.wkt", None).unwrap();
//! file.append(b"POINT (1 2)\tfirst\nPOINT (3 4)\tsecond\nPOINT (5 6)\tthird\n");
//!
//! let counts = World::run(WorldConfig::new(Topology::new(2, 2)), |comm| {
//!     // Block must exceed the longest record (the paper's 11 MB rule,
//!     // shrunk to toy size here).
//!     let opts = ReadOptions::default().with_block_size(64);
//!     let feats = read_features(
//!         comm, &fs, "demo.wkt", &opts, &WktLineParser,
//!     ).unwrap();
//!     comm.allreduce_u64(feats.len() as u64, |a, b| a + b)
//! });
//! assert_eq!(counts, vec![3, 3, 3, 3]);
//! ```

pub use mvio_core as core;
pub use mvio_datagen as datagen;
pub use mvio_geom as geom;
pub use mvio_msim as msim;
pub use mvio_pfs as pfs;
pub use mvio_sjoin as sjoin;

/// One-stop imports for applications.
pub mod prelude {
    pub use mvio_core::decomp::{
        AdaptiveBisection, DecompConfig, DecompPolicy, HilbertDecomposition, SpatialDecomposition,
        UniformDecomposition,
    };
    pub use mvio_core::exchange::{
        exchange_features, ExchangeChunk, ExchangeOptions, ExchangePlan,
    };
    pub use mvio_core::grid::{CellMap, GridSpec, UniformGrid};
    pub use mvio_core::partition::{
        read_features, read_partition_text, BoundaryStrategy, ReadOptions,
    };
    pub use mvio_core::pipeline::{self, PipelineOptions, PipelineStats};
    pub use mvio_core::reader::{CsvPointParser, GeometryParser, WktLineParser};
    pub use mvio_core::snapshot::{
        read_partitioned, write_partitioned, SnapshotMeta, SnapshotReadOptions,
        SnapshotWriteOptions,
    };
    pub use mvio_core::{spops, sptypes, Feature};
    pub use mvio_datagen::{table3, ShapeKind};
    pub use mvio_geom::{wkt, Geometry, LineString, Point, Polygon, Rect};
    pub use mvio_msim::{
        AccessLevel, Comm, CostModel, Datatype, Hints, MpiFile, ProgressEngine, Request,
        ShapeClass, Topology, Work, World, WorldConfig,
    };
    pub use mvio_pfs::{FsConfig, FsKind, SimFs, StripeSpec};
    pub use mvio_sjoin::{
        build_distributed_index, range_query, spatial_join, EngineOptions, JoinOptions, Query,
        QueryAnswer, QueryEngine, ServeCache,
    };
}
