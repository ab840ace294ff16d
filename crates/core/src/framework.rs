//! Duplicate avoidance for the distributed filter-and-refine framework
//! (paper §4.3, Figure 7).
//!
//! After the grid exchange every rank owns complete cells, and a geometry
//! spanning several cells is replicated into each of them. "Duplicate
//! avoidance is carried out later in the refinement phase" (§4): the
//! reference-point rule here decides which one cell reports a candidate
//! pair. `mvio-sjoin`'s join and serving layers apply it per cell.

use crate::decomp::SpatialDecomposition;
use mvio_geom::Rect;

/// Duplicate avoidance by the reference-point method: a candidate pair is
/// reported only by the cell containing the min corner of the
/// intersection of the two MBRs. Geometries replicated into several cells
/// therefore produce each result exactly once ("duplicate avoidance is
/// carried out later in the refinement phase", §4).
///
/// Containment is half-open on the max edges so adjacent cells cannot
/// both claim a shared boundary point. Prefer the grid-aware
/// [`claims_reference`] in pipeline code: it additionally closes the
/// grid's *outer* max edges, where no neighbouring cell exists to pick
/// the point up.
pub fn is_reference_cell(cell_rect: &Rect, a: &Rect, b: &Rect) -> bool {
    let i = a.intersection(b);
    if i.is_empty() {
        return false;
    }
    let (x, y) = (i.min_x, i.min_y);
    x >= cell_rect.min_x && x < cell_rect.max_x && y >= cell_rect.min_y && y < cell_rect.max_y
}

/// Decomposition-aware reference-point rule: like [`is_reference_cell`]
/// but cells on the decomposition's outer max edges
/// ([`SpatialDecomposition::cell_on_max_edge`]) also claim points lying
/// exactly on the global max boundary (otherwise results there would be
/// silently dropped — no neighbouring cell exists to pick them up).
pub fn claims_reference(decomp: &dyn SpatialDecomposition, cell: u32, a: &Rect, b: &Rect) -> bool {
    let i = a.intersection(b);
    if i.is_empty() {
        return false;
    }
    let (x, y) = (i.min_x, i.min_y);
    let r = decomp.cell_rect(cell);
    let (max_col, max_row) = decomp.cell_on_max_edge(cell);
    let x_ok = x >= r.min_x && (x < r.max_x || (max_col && x <= r.max_x));
    let y_ok = y >= r.min_y && (y < r.max_y || (max_row && y <= r.max_y));
    x_ok && y_ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::UniformDecomposition;
    use crate::grid::{CellMap, GridSpec, UniformGrid};

    #[test]
    fn claims_reference_closes_only_the_outer_max_edges() {
        let decomp = UniformDecomposition::new(
            UniformGrid::new(Rect::new(0.0, 0.0, 4.0, 4.0), GridSpec::square(4)),
            CellMap::RoundRobin,
            2,
        );
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
        let grid = UniformGrid::new(Rect::new(0.0, 0.0, 4.0, 4.0), GridSpec::square(4));
        // Two rects overlapping across cells (1,1)..(2,2).
        let a = Rect::new(0.5, 0.5, 2.5, 2.5);
        let b = Rect::new(1.5, 1.5, 3.5, 3.5);
        let claiming: Vec<u32> = (0..16)
            .filter(|&c| is_reference_cell(&grid.cell_rect(c), &a, &b))
            .collect();
        // Intersection = (1.5,1.5)-(2.5,2.5); reference point (1.5,1.5)
        // lies in cell row 1, col 1 = id 5. Exactly one claimant.
        assert_eq!(claiming, vec![5]);
    }

    #[test]
    fn reference_point_on_cell_edge_is_unambiguous() {
        let grid = UniformGrid::new(Rect::new(0.0, 0.0, 2.0, 2.0), GridSpec::square(2));
        // Intersection reference point exactly on the shared corner (1,1).
        let a = Rect::new(1.0, 1.0, 2.0, 2.0);
        let b = Rect::new(1.0, 1.0, 1.5, 1.5);
        let claiming: Vec<u32> = (0..4)
            .filter(|&c| is_reference_cell(&grid.cell_rect(c), &a, &b))
            .collect();
        assert_eq!(claiming.len(), 1, "exactly one cell claims an edge point");
        assert_eq!(claiming, vec![3]); // the NE cell, whose min corner it is
    }

    #[test]
    fn disjoint_mbrs_claim_nothing() {
        let cell = Rect::new(0.0, 0.0, 10.0, 10.0);
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let b = Rect::new(5.0, 5.0, 6.0, 6.0);
        assert!(!is_reference_cell(&cell, &a, &b));
    }
}
