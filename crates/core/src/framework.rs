//! Duplicate avoidance for the distributed filter-and-refine framework
//! (paper §4.3, Figure 7).
//!
//! After the grid exchange every rank owns complete cells, and a geometry
//! spanning several cells is replicated into each of them. "Duplicate
//! avoidance is carried out later in the refinement phase" (§4): the
//! reference-point rule here decides which one cell reports a candidate
//! pair. `mvio-sjoin`'s join and serving layers apply it per cell.

use crate::decomp::{Decomposition, SpatialDecomposition};
use mvio_geom::Rect;

/// Duplicate avoidance by the reference-point method: a candidate pair is
/// reported only by the cell containing the min corner of the
/// intersection of the two MBRs. Geometries replicated into several cells
/// therefore produce each result exactly once ("duplicate avoidance is
/// carried out later in the refinement phase", §4).
///
/// Containment is half-open on the max edges so adjacent cells cannot
/// both claim a shared boundary point, except that cells on the
/// decomposition's outer max edges
/// ([`SpatialDecomposition::cell_on_max_edge`]) also claim points lying
/// exactly on the global max boundary (otherwise results there would be
/// silently dropped — no neighbouring cell exists to pick them up).
///
/// The reference point is clamped onto the bounds on both sides: an
/// update whose envelope reaches out of the bounds, met by a window that
/// does too, would otherwise have its point outside every cell. The
/// cells that hold such an update are the ones that window is routed to
/// ([`routing_window`]). Ingested envelopes lie inside the bounds, so for
/// them, and for every join pair, the clamp is a no-op.
pub fn claims_reference(decomp: &Decomposition, cell: u32, a: &Rect, b: &Rect) -> bool {
    let i = a.intersection(b);
    if i.is_empty() {
        return false;
    }
    let bounds = decomp.bounds();
    let x = i.min_x.max(bounds.min_x).min(bounds.max_x);
    let y = i.min_y.max(bounds.min_y).min(bounds.max_y);
    let r = decomp.cell_rect(cell);
    let (max_col, max_row) = decomp.cell_on_max_edge(cell);
    let x_ok = x >= r.min_x && (x < r.max_x || (max_col && x <= r.max_x));
    let y_ok = y >= r.min_y && (y < r.max_y || (max_row && y <= r.max_y));
    x_ok && y_ok
}

/// The window a range or point query is routed by, and that the owners'
/// cell tests use: `window` with each coordinate clamped onto the
/// decomposition's bounds. A window that meets the bounds meets the same
/// cells as before. One wholly outside them collapses onto the nearest
/// edge or corner, whose cells hold every insert that reaches out there.
pub fn routing_window(decomp: &Decomposition, window: &Rect) -> Rect {
    let b = decomp.bounds();
    Rect::new(
        window.min_x.max(b.min_x).min(b.max_x),
        window.min_y.max(b.min_y).min(b.max_y),
        window.max_x.max(b.min_x).min(b.max_x),
        window.max_y.max(b.min_y).min(b.max_y),
    )
}

/// Whether the replica of a feature with envelope `mbr` held in `cell` is
/// that feature's reference copy: the one that represents it in kNN scans
/// and in the rebalance histogram, so each feature counts once
/// globally. The reference cell holds the envelope's min corner; when
/// that corner lies outside the bounds (an update whose envelope only
/// intersects them), the lowest overlapping cell is the reference.
pub fn is_reference_replica(decomp: &Decomposition, cell: u32, mbr: &Rect) -> bool {
    match decomp.reference_cell(mbr) {
        Some(c) => c == cell,
        None => decomp.cells_for_rect_vec(mbr).first() == Some(&cell),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::DecompPolicy;
    use crate::grid::{CellMap, GridSpec, UniformGrid};

    /// A round-robin decomposition of the `side`×`side` square into
    /// `cells`×`cells` cells.
    fn square(side: f64, cells: u32) -> Decomposition {
        let grid = UniformGrid::new(Rect::new(0.0, 0.0, side, side), GridSpec::square(cells));
        let rr = DecompPolicy::Uniform(CellMap::RoundRobin);
        Decomposition::new(grid, rr, None, 2).unwrap()
    }

    #[test]
    fn claims_reference_closes_only_the_outer_max_edges() {
        let decomp = square(4.0, 4);
        // Reference point exactly on the global max corner: only the last
        // cell claims it.
        let a = Rect::new(4.0, 4.0, 4.0, 4.0);
        let claiming: Vec<u32> = (0..16)
            .filter(|&c| claims_reference(&decomp, c, &a, &a))
            .collect();
        assert_eq!(claiming, vec![15]);
        // An interior shared corner stays half-open: one claimant.
        let b = Rect::new(2.0, 2.0, 2.0, 2.0);
        let claiming: Vec<u32> = (0..16)
            .filter(|&c| claims_reference(&decomp, c, &b, &b))
            .collect();
        assert_eq!(claiming.len(), 1);
    }

    #[test]
    fn reference_point_dedup_claims_exactly_one_cell() {
        let decomp = square(4.0, 4);
        // Two rects overlapping across cells (1,1)..(2,2).
        let a = Rect::new(0.5, 0.5, 2.5, 2.5);
        let b = Rect::new(1.5, 1.5, 3.5, 3.5);
        let claiming: Vec<u32> = (0..16)
            .filter(|&c| claims_reference(&decomp, c, &a, &b))
            .collect();
        // Intersection = (1.5,1.5)-(2.5,2.5); reference point (1.5,1.5)
        // lies in cell row 1, col 1 = id 5. Exactly one claimant.
        assert_eq!(claiming, vec![5]);
    }

    #[test]
    fn reference_point_on_cell_edge_is_unambiguous() {
        let decomp = square(2.0, 2);
        // Intersection reference point exactly on the shared corner (1,1).
        let a = Rect::new(1.0, 1.0, 2.0, 2.0);
        let b = Rect::new(1.0, 1.0, 1.5, 1.5);
        let claiming: Vec<u32> = (0..4)
            .filter(|&c| claims_reference(&decomp, c, &a, &b))
            .collect();
        assert_eq!(claiming.len(), 1, "exactly one cell claims an edge point");
        assert_eq!(claiming, vec![3]); // the NE cell, whose min corner it is
    }

    #[test]
    fn disjoint_mbrs_claim_nothing() {
        let decomp = square(10.0, 1);
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let b = Rect::new(5.0, 5.0, 6.0, 6.0);
        assert!(!claims_reference(&decomp, 0, &a, &b));
    }
}
