//! # mvio-datagen — synthetic OSM-like vector datasets
//!
//! The paper evaluates on six OpenStreetMap extracts (Table 3, 56 MB to
//! 137 GB, up to 2.7 billion shapes). Those extracts are not available
//! here, so this crate generates synthetic datasets with the statistical
//! properties the paper's behaviour depends on:
//!
//! * **shape mix** — polygon, polyline and point datasets matching each
//!   Table 3 row, with the paper's mean record sizes (≈ 290 B/polygon in
//!   Cemetery, ≈ 1.1 KB/polygon in Lakes, ≈ 190 B/edge in Road Network,
//!   ≈ 35 B/point in All Nodes);
//! * **heavy-tailed vertex counts** — most polygons are small, a few are
//!   enormous (the paper's largest is 11 MB of WKT), which is exactly what
//!   makes file partitioning hard;
//! * **spatial skew** — features cluster around Zipf-weighted hotspots,
//!   reproducing the load imbalance that motivates fine-grained
//!   declustering (Figure 5);
//! * **temporal drift** — a moving-hotspot insert/delete stream
//!   ([`workload`]) whose spatial concentration glides across the world,
//!   the load pattern that motivates online rebalancing;
//! * **determinism** — everything derives from a seed, so experiments are
//!   reproducible bit-for-bit.
//!
//! Datasets are written as WKT-per-line text (optionally with tab-separated
//! userdata) or as fixed-size binary records, onto a simulated filesystem.

pub mod catalog;
pub mod distributions;
pub mod queries;
pub mod shapes;
pub mod workload;
pub mod writer;

pub use catalog::{table3, DatasetSpec, DistPolicy, GenReport, ShapeKind};
pub use distributions::SpatialDistribution;
pub use queries::{generate_queries, QueryShape, QueryWorkload};
pub use shapes::ShapeGen;
pub use workload::{MovingHotspot, UpdateStep};
pub use writer::{
    wkt_dataset_bytes, write_rect_records, write_wkt_dataset, write_wkt_dataset_with_centers,
};
