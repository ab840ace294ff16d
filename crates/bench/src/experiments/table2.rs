//! Table 2: spatial datatypes × reduction operators, exercised live.

use super::Scale;
use crate::report::Table;
use mvio_core::spops::{
    support_matrix, MaxLine, MaxPoint, MaxRect, MinLine, MinPoint, MinRect, Segment, UnionRect,
};
use mvio_geom::{Point, Rect};
use mvio_msim::{Datatype, Topology, World, WorldConfig};

/// Renders Table 2 after actually running each supported (type, op)
/// combination through an allreduce.
pub fn run(_scale: Scale, _quick: bool) -> String {
    // Exercise every supported combination across 4 ranks, each value
    // sized as its spatial datatype.
    let rect_bytes = Datatype::mpi_rect().size() as u64;
    let line_bytes = Datatype::mpi_line().size() as u64;
    let point_bytes = Datatype::mpi_point().size() as u64;
    let results = World::run(WorldConfig::new(Topology::single_node(4)), |comm| {
        let r = comm.rank() as f64;
        let rect = Rect::new(r, 0.0, r + 1.0 + r, 1.0 + r); // size grows with rank
        let seg = Segment::new(Point::new(0.0, 0.0), Point::new(r + 1.0, 0.0));
        let pt = Point::new(r, 3.0 - r);
        (
            comm.allreduce(rect, rect_bytes, &MinRect),
            comm.allreduce(rect, rect_bytes, &MaxRect),
            comm.allreduce(rect, rect_bytes, &UnionRect),
            comm.allreduce(seg, line_bytes, &MinLine).length(),
            comm.allreduce(seg, line_bytes, &MaxLine).length(),
            comm.allreduce(pt, point_bytes, &MinPoint),
            comm.allreduce(pt, point_bytes, &MaxPoint),
        )
    });
    let (min_r, max_r, union_r, min_l, max_l, min_p, max_p) = results[0];
    assert_eq!(min_r, Rect::new(0.0, 0.0, 1.0, 1.0));
    assert_eq!(max_r, Rect::new(3.0, 0.0, 7.0, 4.0));
    assert_eq!(union_r, Rect::new(0.0, 0.0, 7.0, 4.0));
    assert_eq!(min_l, 1.0);
    assert_eq!(max_l, 4.0);
    assert_eq!(min_p, Point::new(0.0, 0.0));
    assert_eq!(max_p, Point::new(3.0, 3.0));

    let mut t = Table::new(
        "Table 2: spatial data types and reduction operators",
        &["operator", "type", "supported", "verified live"],
    );
    for (op, ty, ok) in support_matrix() {
        t.row(vec![
            op.to_string(),
            ty.to_string(),
            if ok { "yes" } else { "no" }.to_string(),
            if ok { "allreduce checked" } else { "-" }.to_string(),
        ]);
    }
    t.note("MPI_POINT / MPI_LINE / MPI_RECT are derived datatypes (2, 4, 4 doubles)");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_lists_all_nine_combinations() {
        let s = run(Scale::test_tiny(), true);
        assert_eq!(s.matches("MPI_MIN").count(), 3);
        assert_eq!(s.matches("MPI_MAX").count(), 3);
        assert_eq!(s.matches("MPI_UNION").count(), 3);
    }
}
