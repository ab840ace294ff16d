//! # mvio-sjoin — distributed spatial join and indexing on MPI-Vector-IO
//!
//! The paper's exemplar applications (§5.2): an end-to-end **spatial
//! join** ("find all pairs of rivers and cities that intersect") and
//! distributed **spatial indexing** of a whole dataset (Figure 20). The
//! index is the resident [`QueryEngine`]: built once, it answers range
//! (§5.1.1), point and kNN queries in batches. Both are driven through
//! the one MPI-Vector-IO front half
//! (`mvio_core::pipeline::ingest_layers`):
//!
//! ```text
//! read + parse file partitions      (partitioning phase)
//!   → project to grid cells
//!   → serialize + all-to-all exchange (communication phase)
//!   → per-cell R-tree filter
//!   → exact-geometry refine + dedup (join/index phase)
//! ```
//!
//! Per-phase virtual times are collected with max-over-ranks semantics —
//! exactly how the paper reports its breakdown figures ("we note the time
//! taken by each process and take the maximum time for each of the
//! components", §5.2, which is also why the stacked phases can exceed the
//! total).

mod answer;
pub mod breakdown;
pub mod engine;
pub mod join;
mod resident;

pub use breakdown::PhaseBreakdown;
pub use engine::{
    EngineOptions, Neighbor, Query, QueryAnswer, QueryEngine, ServeCache, ServeReport, ServeStats,
};
pub use join::{
    spatial_join, spatial_join_snapshots, JoinOptions, JoinReport, SnapshotJoinOptions,
};
pub use mvio_core::rebalance::{RebalancePolicy, RebalanceReport, Update, UpdateStats};

#[cfg(test)]
mod index;
