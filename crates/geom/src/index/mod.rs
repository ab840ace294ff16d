//! Spatial index structures: the *filter* phase accelerators.
//!
//! GEOS provides an R-tree among its indexes (paper §2); MPI-Vector-IO
//! builds per-cell R-trees for the local join filter (its cell-boundary
//! R-tree is an arithmetic grid lookup in this workspace).

pub mod rtree;

pub use rtree::RTree;
