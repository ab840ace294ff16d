//! The Hilbert curve: the cell order of `DecompPolicy::Hilbert` in
//! `mvio_core::decomp`.
//!
//! "To ensure spatial data locality, points and line segments are often
//! sorted in 2D using Z-order and Hilbert curve" (paper §4.1). The
//! Hilbert decomposition walks the grid's cells in curve order and cuts
//! the walk into contiguous per-rank runs, so spatial neighbours land on
//! the same rank. A cell's key is its position along the curve.

/// Order of the library's fixed curve: a `2^ORDER × 2^ORDER` lattice of
/// cells, giving 2·ORDER-bit keys that fit comfortably in a `u64`.
pub const ORDER: u32 = 16;

/// Hilbert key of integer cell coordinates (standard `xy2d` algorithm)
/// on the library's fixed order-[`ORDER`] curve.
pub fn hilbert_key_cells(x: u32, y: u32) -> u64 {
    hilbert_key_cells_order(ORDER, x, y)
}

/// Hilbert key of integer cell coordinates on an order-`order` curve
/// (a `2^order × 2^order` lattice): the bijection `(x, y) → 0..4^order`.
/// Coordinates must be below `2^order`. `hilbert_key_cells` is this at
/// the library's fixed [`ORDER`]; the explicit-order form exists so
/// `2^k × 2^k` grids can be tested (and keyed) exactly.
pub fn hilbert_key_cells_order(order: u32, x: u32, y: u32) -> u64 {
    debug_assert!((1..=31).contains(&order), "order {order} out of range");
    debug_assert!(x < (1 << order) && y < (1 << order));
    let n: u64 = 1 << order;
    let (mut x, mut y) = (x as u64, y as u64);
    let mut d: u64 = 0;
    let mut s: u64 = n / 2;
    while s > 0 {
        let rx = u64::from((x & s) > 0);
        let ry = u64::from((y & s) > 0);
        d += s * s * ((3 * rx) ^ ry);
        // Rotate/reflect the quadrant (reflection is about the full side).
        if ry == 0 {
            if rx == 1 {
                x = n - 1 - x;
                y = n - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        s /= 2;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hilbert_visits_each_cell_once_small_order() {
        // Exhaustively check a 4x4 corner of the curve: keys must be
        // distinct.
        let mut keys: Vec<u64> = (0..4)
            .flat_map(|y| (0..4).map(move |x| hilbert_key_cells(x, y)))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 16, "distinct keys for distinct cells");
    }

    #[test]
    fn hilbert_neighbours_are_adjacent_cells() {
        // Walking the curve by key order through a 8x8 block must step to
        // a 4-neighbour each time (the curve's defining property).
        let n = 8u32;
        let mut cells: Vec<(u64, (u32, u32))> = (0..n)
            .flat_map(|y| (0..n).map(move |x| (hilbert_key_cells(x, y), (x, y))))
            .collect();
        cells.sort_by_key(|&(k, _)| k);
        for w in cells.windows(2) {
            let (x0, y0) = w[0].1;
            let (x1, y1) = w[1].1;
            let dist = x0.abs_diff(x1) + y0.abs_diff(y1);
            assert_eq!(
                dist, 1,
                "curve step {:?} -> {:?} not adjacent",
                w[0].1, w[1].1
            );
        }
    }
}
