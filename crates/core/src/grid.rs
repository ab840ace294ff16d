//! Cellular grid partitioning (paper §4, Figures 1–2): the global spatial
//! decomposition that gives the system its unit of work.
//!
//! After local parsing, each rank holds an arbitrary subset of geometries.
//! The grid phase:
//!
//! 1. computes the **global extent** by `MPI_UNION`-allreducing the local
//!    MBRs (the paper's marquee use of its new reduction operator);
//! 2. overlays a uniform `nx × ny` cell grid on that extent;
//! 3. maps every geometry to **all** cells its MBR overlaps ("if a
//!    geometry spans multiple cells, then it is simply replicated to
//!    these cells" — duplicate results are weeded out in refine);
//! 4. assigns cells to ranks with a [`CellMap`] (round-robin by default,
//!    the declustering heuristic of Shekhar et al. the paper cites).
//!
//! The cell lookup runs arithmetically (O(1) per cell for a uniform grid)
//! and is charged as the R-tree probe the paper uses instead ("an R-tree
//! is first built by inserting the individual cell boundaries"). The two
//! agree except on cell edges: an MBR whose min side lies on an interior
//! edge starts in the cell above that edge here, where the closed R-tree
//! rectangles would also hand it the cell below.
//!
//! This module is the uniform *building block*; the pluggable
//! decomposition layer lives in [`crate::decomp`], where
//! [`UniformGrid`] + [`CellMap`] form the first
//! [`crate::decomp::SpatialDecomposition`] implementor alongside the
//! Hilbert-mapped and adaptive-bisection policies.

use crate::spops::UnionRect;
use mvio_geom::Rect;
use mvio_msim::Comm;

/// Requested grid resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridSpec {
    pub cells_x: u32,
    pub cells_y: u32,
}

impl GridSpec {
    /// A square grid with `cells_per_side²` cells.
    pub fn square(cells_per_side: u32) -> Self {
        GridSpec {
            cells_x: cells_per_side,
            cells_y: cells_per_side,
        }
    }

    /// Exact total cell count, computed in `u64` so huge specs (e.g.
    /// `100_000 × 100_000`) cannot overflow.
    pub fn num_cells_u64(&self) -> u64 {
        self.cells_x as u64 * self.cells_y as u64
    }

    /// Total cell count as the `u32` used for cell ids, or `None` when
    /// the product exceeds `u32::MAX` (such a grid is unusable: cell ids
    /// themselves are 32-bit).
    pub fn try_num_cells(&self) -> Option<u32> {
        u32::try_from(self.num_cells_u64()).ok()
    }

    /// Total cell count.
    ///
    /// # Panics
    /// Panics when `cells_x * cells_y` exceeds `u32::MAX` (previously this
    /// silently wrapped in release builds, corrupting every downstream
    /// cell-id computation). Use [`GridSpec::try_num_cells`] or
    /// [`UniformGrid::try_new`] to handle oversized specs as errors.
    pub fn num_cells(&self) -> u32 {
        self.try_num_cells().unwrap_or_else(|| {
            panic!(
                "grid of {} x {} cells exceeds u32::MAX cell ids",
                self.cells_x, self.cells_y
            )
        })
    }
}

/// A uniform grid over a bounding rectangle. Cell ids are row-major:
/// `id = row * cells_x + col`.
#[derive(Debug, Clone, PartialEq)]
pub struct UniformGrid {
    bounds: Rect,
    spec: GridSpec,
    cell_w: f64,
    cell_h: f64,
}

impl UniformGrid {
    /// Creates a grid over `bounds` (must be non-empty).
    ///
    /// # Panics
    /// Panics on empty bounds, a zero-cell spec, or a spec whose cell
    /// count overflows `u32` — see [`UniformGrid::try_new`] for the
    /// non-panicking variant.
    pub fn new(bounds: Rect, spec: GridSpec) -> Self {
        Self::try_new(bounds, spec).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible grid construction: rejects empty bounds, zero-cell specs,
    /// and specs whose total cell count does not fit the `u32` cell-id
    /// space.
    pub fn try_new(bounds: Rect, spec: GridSpec) -> crate::Result<Self> {
        if bounds.is_empty() {
            return Err(crate::CoreError::Grid(
                "grid bounds must be non-empty".into(),
            ));
        }
        if spec.cells_x == 0 || spec.cells_y == 0 {
            return Err(crate::CoreError::Grid("grid must have cells".into()));
        }
        if spec.try_num_cells().is_none() {
            return Err(crate::CoreError::Grid(format!(
                "grid of {} x {} cells exceeds u32::MAX cell ids",
                spec.cells_x, spec.cells_y
            )));
        }
        Ok(UniformGrid {
            bounds,
            spec,
            cell_w: bounds.width() / spec.cells_x as f64,
            cell_h: bounds.height() / spec.cells_y as f64,
        })
    }

    /// Builds the **global** grid collectively: allreduce the union of
    /// every rank's local MBR (the paper's `MPI_UNION` use case), then
    /// overlay `spec`.
    pub fn build_global(comm: &mut Comm, local_mbr: Rect, spec: GridSpec) -> Self {
        let global = comm.allreduce(local_mbr, 32, &UnionRect);
        // Degenerate global extents (no data anywhere, or all identical
        // points) get a unit square so the grid stays well-formed.
        let global = if global.is_empty() || global.area() == 0.0 {
            global.union(&Rect::new(0.0, 0.0, 1.0, 1.0))
        } else {
            global
        };
        UniformGrid::new(global, spec)
    }

    /// Grid bounds.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Grid resolution.
    pub fn spec(&self) -> GridSpec {
        self.spec
    }

    /// Total number of cells.
    pub fn num_cells(&self) -> u32 {
        self.spec.num_cells()
    }

    /// The rectangle of cell `id`.
    pub fn cell_rect(&self, id: u32) -> Rect {
        debug_assert!(id < self.num_cells());
        let col = (id % self.spec.cells_x) as f64;
        let row = (id / self.spec.cells_x) as f64;
        Rect::new(
            self.bounds.min_x + col * self.cell_w,
            self.bounds.min_y + row * self.cell_h,
            self.bounds.min_x + (col + 1.0) * self.cell_w,
            self.bounds.min_y + (row + 1.0) * self.cell_h,
        )
    }

    /// Cells whose rectangles intersect `rect`, computed arithmetically.
    pub fn cells_overlapping(&self, rect: &Rect) -> Vec<u32> {
        let mut out = Vec::new();
        self.cells_overlapping_into(rect, &mut out);
        out
    }

    /// Streaming variant of [`UniformGrid::cells_overlapping`]: clears and
    /// fills a caller-owned buffer, so hot loops (the ingest pipeline maps
    /// millions of features) can reuse one allocation across features.
    /// Cell ids are appended in row-major ascending order.
    pub fn cells_overlapping_into(&self, rect: &Rect, out: &mut Vec<u32>) {
        out.clear();
        if rect.is_empty() || !rect.intersects(&self.bounds) {
            return;
        }
        let clamp = |v: f64, hi: u32| -> u32 { (v.max(0.0) as u32).min(hi - 1) };
        let c0 = clamp(
            (rect.min_x - self.bounds.min_x) / self.cell_w,
            self.spec.cells_x,
        );
        let c1 = clamp(
            (rect.max_x - self.bounds.min_x) / self.cell_w,
            self.spec.cells_x,
        );
        let r0 = clamp(
            (rect.min_y - self.bounds.min_y) / self.cell_h,
            self.spec.cells_y,
        );
        let r1 = clamp(
            (rect.max_y - self.bounds.min_y) / self.cell_h,
            self.spec.cells_y,
        );
        // Span product computed in u64: a rect covering most of a huge
        // grid would overflow the old u32 arithmetic.
        let span = (c1 - c0 + 1) as u64 * (r1 - r0 + 1) as u64;
        out.reserve(span as usize);
        for row in r0..=r1 {
            for col in c0..=c1 {
                out.push(row * self.spec.cells_x + col);
            }
        }
    }
}

/// Cell → rank assignment policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellMap {
    /// `rank = cell % p`: the declustering round-robin the paper uses for
    /// load balancing.
    RoundRobin,
    /// Contiguous blocks of cells per rank (the coarse partitioning of
    /// Figure 5a, prone to skew).
    Block,
    /// Locality-aware: contiguous equal runs along the Hilbert curve
    /// through the cell grid, so each rank owns a compact spatial region
    /// — the "locality-aware" partitioning the paper lists as future work
    /// (§5.2). Carries the grid's column count to recover 2-D cell
    /// coordinates.
    Hilbert { cells_x: u32 },
}

impl CellMap {
    /// Locality-aware map for a given grid.
    pub fn hilbert(spec: GridSpec) -> CellMap {
        CellMap::Hilbert {
            cells_x: spec.cells_x,
        }
    }

    /// The rank owning `cell`.
    pub fn rank_of(&self, cell: u32, num_cells: u32, ranks: usize) -> usize {
        match *self {
            CellMap::RoundRobin => (cell as usize) % ranks,
            CellMap::Block => {
                let per = num_cells.div_ceil(ranks as u32).max(1);
                ((cell / per) as usize).min(ranks - 1)
            }
            CellMap::Hilbert { cells_x } => {
                let cells_x = cells_x.max(1);
                let cells_y = num_cells.div_ceil(cells_x).max(1);
                let col = cell % cells_x;
                let row = cell / cells_x;
                // Position along the Hilbert curve, scaled into rank
                // buckets of equal curve length — compact regions with
                // balanced cell counts.
                let key = mvio_geom::curve::hilbert_key_cells(
                    scale_to_order(col, cells_x),
                    scale_to_order(row, cells_y),
                );
                let side = 1u64 << mvio_geom::curve::ORDER;
                let frac = key as f64 / (side * side) as f64;
                ((frac * ranks as f64) as usize).min(ranks - 1)
            }
        }
    }

    /// All cells owned by `rank`.
    pub fn cells_of(&self, rank: usize, num_cells: u32, ranks: usize) -> Vec<u32> {
        (0..num_cells)
            .filter(|&c| self.rank_of(c, num_cells, ranks) == rank)
            .collect()
    }
}

/// Maps a cell coordinate in `0..cells` onto the curve's `2^ORDER` grid
/// (cell centers, so the first and last cells stay inside the curve).
/// Shared with [`crate::decomp::HilbertDecomposition`], which must agree
/// with [`CellMap::Hilbert`] about curve positions.
pub(crate) fn scale_to_order(v: u32, cells: u32) -> u32 {
    let side = 1u64 << mvio_geom::curve::ORDER;
    (((v as u64 * 2 + 1) * side) / (2 * cells.max(1) as u64)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Feature;
    use mvio_geom::index::RTree;
    use mvio_geom::{wkt, Point};
    use mvio_msim::{Topology, World, WorldConfig};

    /// The MBR of `features`.
    fn mbr(features: &[Feature]) -> Rect {
        features
            .iter()
            .fold(Rect::EMPTY, |acc, f| acc.union(&f.geometry.envelope()))
    }

    fn grid4() -> UniformGrid {
        UniformGrid::new(Rect::new(0.0, 0.0, 4.0, 4.0), GridSpec::square(4))
    }

    #[test]
    fn cell_rects_tile_the_bounds() {
        let g = grid4();
        assert_eq!(g.num_cells(), 16);
        assert_eq!(g.cell_rect(0), Rect::new(0.0, 0.0, 1.0, 1.0));
        assert_eq!(g.cell_rect(5), Rect::new(1.0, 1.0, 2.0, 2.0));
        assert_eq!(g.cell_rect(15), Rect::new(3.0, 3.0, 4.0, 4.0));
        // Union of all cells == bounds.
        let union = (0..16).fold(Rect::EMPTY, |acc, id| acc.union(&g.cell_rect(id)));
        assert_eq!(union, g.bounds());
    }

    #[test]
    fn arithmetic_lookup_matches_rtree_lookup() {
        let g = grid4();
        let items: Vec<(Rect, u32)> = (0..16).map(|id| (g.cell_rect(id), id)).collect();
        let tree = RTree::bulk_load(items);
        for probe in [
            Rect::new(0.5, 0.5, 0.6, 0.6),
            Rect::new(0.5, 0.5, 2.5, 1.5),
            Rect::new(-5.0, -5.0, 10.0, 10.0),
            Rect::new(3.9, 3.9, 5.0, 5.0),
        ] {
            let mut a = g.cells_overlapping(&probe);
            let mut b: Vec<u32> = tree.query(&probe).into_iter().copied().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "probe {probe:?}");
        }
    }

    #[test]
    fn spanning_geometry_replicates_to_all_cells() {
        let g = grid4();
        // A rect spanning a 2x2 block of cells.
        let cells = g.cells_overlapping(&Rect::new(0.5, 0.5, 1.5, 1.5));
        assert_eq!(cells, vec![0, 1, 4, 5]);
    }

    #[test]
    fn interior_edge_points_map_to_exactly_one_cell() {
        let g = grid4();
        // A point exactly on the x=1 edge shared by cells 0 and 1:
        // half-open cell assignment gives it to the upper cell only.
        assert_eq!(g.cells_overlapping(&Rect::new(1.0, 0.5, 1.0, 0.5)), vec![1]);
        // A point on a shared corner touches four cells; exactly one
        // (up-and-right of the corner) claims it.
        assert_eq!(
            g.cells_overlapping(&Rect::new(2.0, 2.0, 2.0, 2.0)),
            vec![10]
        );
        // An envelope *ending* on that edge still replicates across it,
        // so an edge point and an edge-touching envelope meet in cell 1.
        assert_eq!(
            g.cells_overlapping(&Rect::new(0.5, 0.5, 1.0, 0.5)),
            vec![0, 1]
        );
    }

    #[test]
    fn extent_max_corner_maps_to_the_last_cell() {
        let g = grid4();
        assert_eq!(
            g.cells_overlapping(&Rect::new(4.0, 4.0, 4.0, 4.0)),
            vec![15]
        );
        // Max edges (not just the corner) clamp into the last row/column.
        assert_eq!(g.cells_overlapping(&Rect::new(4.0, 1.5, 4.0, 1.5)), vec![7]);
        assert_eq!(
            g.cells_overlapping(&Rect::new(1.5, 4.0, 1.5, 4.0)),
            vec![13]
        );
    }

    #[test]
    fn degenerate_extents_build_well_formed_global_grids() {
        // Every rank holds the same single point: the global extent is a
        // zero-area rect, which build_global pads to a unit square.
        let out = World::run(WorldConfig::new(Topology::single_node(2)), |comm| {
            let f = Feature::new(mvio_geom::Geometry::Point(Point::new(3.0, 7.0)));
            let grid = UniformGrid::build_global(comm, f.geometry.envelope(), GridSpec::square(4));
            let cells = grid.cells_overlapping(&f.geometry.envelope());
            (grid.bounds().area(), cells)
        });
        for (area, cells) in &out {
            assert!(*area > 0.0, "degenerate extent must be padded");
            assert_eq!(cells.len(), 1, "the lone point must map to one cell");
        }
        // Zero-width extent (all data on one vertical line).
        let out = World::run(WorldConfig::new(Topology::single_node(1)), |comm| {
            let feats: Vec<Feature> = [0.0, 2.5, 5.0]
                .iter()
                .map(|&y| Feature::new(mvio_geom::Geometry::Point(Point::new(2.0, y))))
                .collect();
            let grid = UniformGrid::build_global(comm, mbr(&feats), GridSpec::square(4));
            feats
                .iter()
                .map(|f| grid.cells_overlapping(&f.geometry.envelope()).len())
                .collect::<Vec<_>>()
        });
        assert_eq!(
            out[0],
            vec![1, 1, 1],
            "every point lands in exactly one cell"
        );
    }

    #[test]
    fn oversized_grid_specs_are_rejected_not_wrapped() {
        let spec = GridSpec {
            cells_x: 1 << 20,
            cells_y: 1 << 20,
        };
        assert_eq!(spec.num_cells_u64(), 1u64 << 40);
        assert!(spec.try_num_cells().is_none());
        let err = UniformGrid::try_new(Rect::new(0.0, 0.0, 1.0, 1.0), spec).unwrap_err();
        assert!(matches!(err, crate::CoreError::Grid(_)), "{err}");
        // Near the limit the product is fine: 65536 * 65535 < u32::MAX.
        let big = GridSpec {
            cells_x: 1 << 16,
            cells_y: (1 << 16) - 1,
        };
        assert_eq!(big.num_cells() as u64, big.num_cells_u64());
    }

    #[test]
    #[should_panic(expected = "exceeds u32::MAX")]
    fn num_cells_panics_instead_of_wrapping() {
        // 2^16 * 2^16 = 2^32 wrapped to 0 in release builds before.
        let _ = GridSpec {
            cells_x: 1 << 16,
            cells_y: 1 << 16,
        }
        .num_cells();
    }

    #[test]
    fn out_of_bounds_rect_maps_nowhere() {
        let g = grid4();
        assert!(g
            .cells_overlapping(&Rect::new(10.0, 10.0, 11.0, 11.0))
            .is_empty());
        assert!(g.cells_overlapping(&Rect::EMPTY).is_empty());
    }

    #[test]
    fn all_maps_cover_all_cells_exactly_once() {
        for map in [
            CellMap::RoundRobin,
            CellMap::Block,
            CellMap::Hilbert { cells_x: 8 },
        ] {
            let mut owned = vec![0u32; 64];
            for rank in 0..5 {
                for c in map.cells_of(rank, 64, 5) {
                    owned[c as usize] += 1;
                }
            }
            assert!(
                owned.iter().all(|&n| n == 1),
                "{map:?} must assign each cell once"
            );
        }
    }

    #[test]
    fn hilbert_map_regions_are_compact() {
        // On a 16x16 grid split over 4 ranks, the Hilbert map's regions
        // must be far more compact (smaller bounding boxes) than
        // round-robin's scatter.
        let spec = GridSpec::square(16);
        let grid = UniformGrid::new(Rect::new(0.0, 0.0, 16.0, 16.0), spec);
        let compactness = |map: CellMap| -> f64 {
            (0..4)
                .map(|rank| {
                    let cells = map.cells_of(rank, spec.num_cells(), 4);
                    let bbox = cells
                        .iter()
                        .fold(Rect::EMPTY, |a, &c| a.union(&grid.cell_rect(c)));
                    bbox.area() / cells.len() as f64 // area per owned cell
                })
                .sum::<f64>()
                / 4.0
        };
        let hilbert = compactness(CellMap::hilbert(spec));
        let rr = compactness(CellMap::RoundRobin);
        assert!(
            hilbert < rr / 2.0,
            "hilbert area/cell {hilbert} must be far below round-robin {rr}"
        );
    }

    #[test]
    fn hilbert_map_balances_cell_counts() {
        let spec = GridSpec::square(16);
        let counts: Vec<usize> = (0..4)
            .map(|r| {
                CellMap::hilbert(spec)
                    .cells_of(r, spec.num_cells(), 4)
                    .len()
            })
            .collect();
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(max - min <= 16, "counts {counts:?} reasonably balanced");
    }

    #[test]
    fn round_robin_interleaves_block_does_not() {
        assert_eq!(CellMap::RoundRobin.rank_of(0, 16, 4), 0);
        assert_eq!(CellMap::RoundRobin.rank_of(1, 16, 4), 1);
        assert_eq!(CellMap::Block.rank_of(0, 16, 4), 0);
        assert_eq!(CellMap::Block.rank_of(3, 16, 4), 0);
        assert_eq!(CellMap::Block.rank_of(4, 16, 4), 1);
    }

    #[test]
    fn global_grid_unifies_rank_extents() {
        let out = World::run(WorldConfig::new(Topology::new(2, 2)), |comm| {
            let r = comm.rank() as f64;
            let f = Feature::new(wkt::parse(&format!("POINT ({} {})", r * 10.0, r * 5.0)).unwrap());
            let grid = UniformGrid::build_global(comm, mbr(&[f]), GridSpec::square(8));
            grid.bounds()
        });
        let expect = Rect::new(0.0, 0.0, 30.0, 15.0);
        assert!(out.iter().all(|b| *b == expect));
    }

    #[test]
    fn global_grid_with_no_data_is_well_formed() {
        let out = World::run(WorldConfig::new(Topology::single_node(2)), |comm| {
            let grid = UniformGrid::build_global(comm, Rect::EMPTY, GridSpec::square(4));
            grid.num_cells()
        });
        assert_eq!(out, vec![16, 16]);
    }

    #[test]
    fn projection_replicates_spanners_and_charges_time() {
        let out = World::run(WorldConfig::new(Topology::single_node(1)), |comm| {
            let decomp = crate::decomp::UniformDecomposition::new(grid4(), CellMap::RoundRobin, 1);
            let feats = vec![
                Feature::with_userdata(mvio_geom::Geometry::Point(Point::new(0.5, 0.5)), "point"),
                Feature::with_userdata(
                    wkt::parse("POLYGON ((0.5 0.5, 2.5 0.5, 2.5 2.5, 0.5 2.5, 0.5 0.5))").unwrap(),
                    "poly",
                ),
            ];
            let before = comm.now();
            let opts = crate::pipeline::PipelineOptions::default();
            let (batch, _) =
                crate::pipeline::partition_chunked(comm, &decomp, &feats, &opts).unwrap();
            (batch.bufs.concat(), comm.now() - before)
        });
        let (buf, dt) = &out[0];
        crate::exchange::validate_frames(buf).unwrap();
        let cells_of = |ud: &str| -> Vec<u32> {
            crate::exchange::record_frames(buf)
                .filter(|fr| fr.userdata == ud)
                .map(|fr| fr.cell)
                .collect()
        };
        // Point lands in one cell; the 2x2-ish polygon in 9 cells (it spans
        // 3x3 cells: columns 0..2, rows 0..2).
        assert_eq!(cells_of("point"), vec![0]);
        assert_eq!(cells_of("poly"), vec![0, 1, 2, 4, 5, 6, 8, 9, 10]);
        assert!(*dt > 0.0);
    }
}
