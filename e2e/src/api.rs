//! The benchmark's whole view of the repository.
//!
//! Later changes may not edit the benchmark, so every repository symbol
//! named here is a compatibility promise: a change that renames or
//! removes one of them breaks the benchmark at compile time. Every other
//! file of this package imports repository items from this module only.
//!
//! Deliberately absent: the zero-copy selector, the environment-variable
//! resolvers, the owned/frames twins of the read paths and the
//! `ExchangePlan::run_*` entry points (ROADMAP item 2 deletes them).
//! Option structs are always completed with `..Default::default()`.

pub use mvio_pfs::{FsConfig, SimFs};

pub use mvio_msim::{Comm, Topology, World, WorldConfig};

pub use mvio_geom::algo::{intersects, point_geometry_distance, rect_intersects_geometry};
pub use mvio_geom::index::RTree;
pub use mvio_geom::refkernel::envelope_batch;
pub use mvio_geom::wkb::{decode_ref, encode_to};
pub use mvio_geom::wkt::parse as parse_wkt;
pub use mvio_geom::{Geometry, Point, Rect};

pub use mvio_core::decomp::{build_global, imbalance_ratio, DecompConfig, SpatialDecomposition};
pub use mvio_core::exchange::ExchangeStats;
pub use mvio_core::grid::GridSpec;
pub use mvio_core::partition::{read_partition_text, ReadOptions};
pub use mvio_core::pipeline::{ingest, parse_chunked, IngestOutput};
pub use mvio_core::reader::WktLineParser;
pub use mvio_core::snapshot::SnapshotWriteOptions;
pub use mvio_core::Feature;

pub use mvio_sjoin::{
    spatial_join, spatial_join_snapshots, EngineOptions, JoinOptions, JoinReport, Neighbor, Query,
    QueryAnswer, QueryEngine, RebalancePolicy, ServeCache, ServeStats, SnapshotJoinOptions, Update,
};

pub use mvio_datagen::{
    generate_queries, write_wkt_dataset_with_centers, MovingHotspot, QueryShape, QueryWorkload,
    ShapeGen, ShapeKind, SpatialDistribution,
};
