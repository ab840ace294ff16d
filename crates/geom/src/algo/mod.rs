//! Computational-geometry algorithms: the *refine* phase primitives.
//!
//! The filter-and-refine strategy (paper §2) first weeds out candidate
//! pairs with rectangle tests ([`crate::Rect::intersects`]) and then
//! applies the exact predicates in this module to the surviving pairs.

mod distance;
mod intersects;
mod orient;
mod pip;
mod segint;

pub use distance::{point_geometry_distance, point_segment_distance};
pub use intersects::{
    intersects, line_intersects_line, line_intersects_polygon, point_in_geometry,
    polygon_intersects_polygon, rect_contains_any_vertex, rect_intersects_geometry,
};
pub use orient::{orientation, Orientation};
pub use pip::{point_in_polygon, point_in_ring, PointLocation};
pub use segint::{segment_intersection_point, segments_intersect};
