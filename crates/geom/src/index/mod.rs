//! Spatial index structures: the *filter* phase accelerators.
//!
//! GEOS provides an R-tree among its indexes (paper §2); MPI-Vector-IO
//! builds one over grid-cell boundaries to map geometry MBRs to
//! overlapping cells, and per-cell R-trees for the local join filter.

pub mod rtree;

pub use rtree::RTree;
