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
mod shape;

pub use distance::{point_geometry_distance, point_segment_distance, point_shape_distance};
pub use intersects::{
    intersects, point_in_geometry, point_in_shape, rect_contains_any_vertex,
    rect_contains_shape_vertex, rect_intersects_geometry, rect_intersects_shape, shapes_intersect,
};
pub use orient::{orientation, Orientation};
pub(crate) use pip::locate_in_rings;
pub use pip::{point_in_polygon, PointLocation};
pub use segint::{segment_intersection_point, segments_intersect};
pub use shape::{Coords, Form, Multi, Part, Shape};
