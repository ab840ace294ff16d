//! Spatial decomposition (paper §4, Figures 1–2, and the
//! "locality-aware partitioning" the paper lists as future work in §5.2).
//!
//! The paper's decomposition is a uniform `nx × ny` grid over the
//! `MPI_UNION`-allreduced global extent plus a cell→rank declustering
//! rule, round-robin. That rule collapses on skewed inputs — "real data
//! distribution is often skewed" (§1) — because a hotspot that lands in
//! one cell lands on one rank. Every policy here keeps the uniform grid
//! and changes only the owner map, so there is one concrete type,
//! [`Decomposition`], and one function from a grid, a [`DecompPolicy`]
//! and a histogram to it ([`Decomposition::new`]):
//!
//! * [`DecompPolicy::Uniform`] — the paper's [`CellMap`] rule
//!   (round-robin or block), computed per lookup, so even a
//!   4-billion-cell grid holds no per-cell state;
//! * [`DecompPolicy::Hilbert`] — contiguous equal runs along the Hilbert
//!   curve through the cells, so each rank owns a spatially compact
//!   region (better exchange locality than round-robin, better balance
//!   than `CellMap::Block`);
//! * [`DecompPolicy::Adaptive`] — a skew-aware recursive bisection of a
//!   per-cell feature histogram (allreduced across ranks) over a finer
//!   grid, equalizing *estimated feature counts* per rank rather than
//!   cell counts.
//!
//! The last two keep one owner per cell in a table of at most
//! [`MAX_TABLE_CELLS`] cells. The exchange, pipeline, filter-refine and
//! join layers read a decomposition through the [`SpatialDecomposition`]
//! trait, which [`Decomposition`] implements.
//!
//! Every decomposition is a pure function of its inputs and
//! configuration: two ranks (or two runs) building from the same global
//! data produce the same object, which is what keeps the collective
//! builders deterministic. The proptest suite asserts the shared oracle:
//! each feature's reference cell is owned by exactly one rank, for every
//! policy.

use crate::grid::{CellMap, GridSpec, UniformGrid};
use crate::{CoreError, Feature, Result};
use mvio_geom::curve;
use mvio_geom::Rect;
use mvio_msim::{Comm, ReduceOp, Work};

/// A global spatial decomposition: a tiling of the global extent into
/// cells plus an assignment of cells to ranks. Built collectively (every
/// rank holds an identical copy) and consumed by the exchange, the
/// streaming ingest pipeline, and the filter-refine framework.
/// [`Decomposition`] is its implementor.
pub trait SpatialDecomposition: Send + Sync + std::fmt::Debug {
    /// The global extent tiled by the cells.
    fn bounds(&self) -> Rect;

    /// Total number of cells.
    fn num_cells(&self) -> u32;

    /// The `cells_x × cells_y` resolution of the cell tiling this
    /// decomposition assigns ranks over (the *effective* grid: adaptive
    /// bisection reports its refined histogram grid). Together with
    /// [`SpatialDecomposition::bounds`] this identifies the cell-id
    /// space, which is what the binary snapshot format records so a
    /// persisted partitioning can be re-routed under any rank count.
    fn grid_spec(&self) -> GridSpec;

    /// World size this decomposition was built for.
    fn num_ranks(&self) -> usize;

    /// The rectangle of cell `cell`.
    fn cell_rect(&self, cell: u32) -> Rect;

    /// Cells whose rectangles intersect `rect`, appended to `out` in
    /// ascending cell-id order (the buffer is cleared first so hot loops
    /// can reuse one allocation).
    fn cells_for_rect(&self, rect: &Rect, out: &mut Vec<u32>);

    /// The rank owning `cell`.
    fn cell_to_rank(&self, cell: u32) -> usize;

    /// Whether `cell` touches the global max-x / max-y boundary. The
    /// reference-point dedup ([`crate::framework::claims_reference`])
    /// closes the outer max edges on these cells, where no neighbouring
    /// cell exists to pick a boundary point up.
    fn cell_on_max_edge(&self, cell: u32) -> (bool, bool);

    /// Convenience: [`SpatialDecomposition::cells_for_rect`] into a fresh
    /// vector.
    fn cells_for_rect_vec(&self, rect: &Rect) -> Vec<u32> {
        let mut out = Vec::new();
        self.cells_for_rect(rect, &mut out);
        out
    }

    /// All cells owned by `rank`, ascending.
    fn cells_of_rank(&self, rank: usize) -> Vec<u32> {
        (0..self.num_cells())
            .filter(|&c| self.cell_to_rank(c) == rank)
            .collect()
    }

    /// The single cell containing `rect`'s min corner (its *reference
    /// cell*, the anchor of the duplicate-avoidance rule), or `None` when
    /// `rect` is empty or the corner lies outside the decomposition
    /// bounds.
    fn reference_cell(&self, rect: &Rect) -> Option<u32>;
}

/// Cells an owner table may hold: the cap on the Hilbert and adaptive
/// tables (one `u32` per cell, 16 MiB here) and on the adaptive histogram
/// grid, which `DecompConfig::effective_spec` clamps below it.
pub const MAX_TABLE_CELLS: u32 = 1 << 22;

/// The one decomposition: a [`UniformGrid`] and the rank owning each of
/// its cells. Every [`DecompPolicy`] is an owner map over the same kind of
/// grid, built by [`Decomposition::new`].
#[derive(Debug, Clone, PartialEq)]
pub struct Decomposition {
    grid: UniformGrid,
    ranks: usize,
    owner: Owner,
}

/// Who owns a cell.
#[derive(Debug, Clone, PartialEq)]
enum Owner {
    /// A [`CellMap`] rule computed per lookup: no per-cell state.
    Computed(CellMap),
    /// One rank per cell: Hilbert runs and bisections.
    Table(Vec<u32>),
}

impl Decomposition {
    /// Maps a grid, a policy and a histogram to the owner of every cell in
    /// a `ranks`-rank world — the one place a policy becomes a
    /// decomposition. `grid` is the grid the policy tiles
    /// (`DecompConfig::effective_spec` already refined it for the
    /// adaptive policy); `histogram` holds one global feature count per
    /// cell and only the adaptive policy reads it. Pure and deterministic:
    /// the same inputs give the same decomposition on every rank.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidOptions`] when the adaptive policy gets no
    /// histogram, or when a Hilbert or adaptive owner table would exceed
    /// [`MAX_TABLE_CELLS`].
    ///
    /// # Panics
    ///
    /// If `ranks` is 0, or the histogram does not hold one count per cell.
    pub fn new(
        grid: UniformGrid,
        policy: DecompPolicy,
        histogram: Option<&[u64]>,
        ranks: usize,
    ) -> Result<Self> {
        assert!(ranks > 0, "decomposition needs at least one rank");
        let owner = match (policy, histogram) {
            (DecompPolicy::Uniform(map), _) => Owner::Computed(map),
            (DecompPolicy::Hilbert, _) => Owner::Table(hilbert_runs(&grid, ranks)?),
            (DecompPolicy::Adaptive { .. }, Some(counts)) => {
                Owner::Table(bisection(&grid, counts, ranks)?)
            }
            (DecompPolicy::Adaptive { .. }, None) => {
                return Err(CoreError::InvalidOptions(
                    "adaptive bisection needs the feature histogram, which a snapshot does \
                     not carry; use the uniform or hilbert policy"
                        .into(),
                ))
            }
        };
        Ok(Decomposition { grid, ranks, owner })
    }

    /// Collectively builds the configured decomposition over every layer
    /// this rank holds, each given as its features' envelopes: the extent
    /// is the `MPI_UNION` allreduce of the layers' local MBRs, and the
    /// adaptive policy histograms the features of all of them, so layers
    /// joined together share one decomposition. A rank that already failed
    /// enters `failed` with empty layers, and every rank then gets the
    /// error [`UniformGrid::build_global`] returns. Collective: every rank
    /// must call it, failed or not; all ranks receive identical
    /// decompositions or the same error.
    pub fn build_global(
        comm: &mut Comm,
        layers: &[&[Rect]],
        cfg: &DecompConfig,
        failed: bool,
    ) -> Result<Self> {
        let envelopes = || layers.iter().flat_map(|l| l.iter());
        let local_mbr = envelopes().fold(Rect::EMPTY, |acc, env| acc.union(env));
        let grid = UniformGrid::build_global(comm, local_mbr, cfg.effective_spec(), failed)?;
        let counts = match cfg.policy {
            DecompPolicy::Adaptive { .. } => {
                // Histogram pass: one reference-cell lookup per feature
                // (charged as MBR tests), then a global element-wise sum.
                let mut counts = vec![0u64; table_size(&grid)?];
                let mut n = 0u64;
                let mut scratch = Vec::with_capacity(1);
                for env in envelopes() {
                    n += 1;
                    if env.is_empty() {
                        continue;
                    }
                    grid.cells_overlapping_into(
                        &Rect::new(env.min_x, env.min_y, env.min_x, env.min_y),
                        &mut scratch,
                    );
                    if let Some(&c) = scratch.first() {
                        counts[c as usize] += 1;
                    }
                }
                comm.charge(Work::MbrTests { n });
                Some(comm.allreduce(counts, grid.num_cells() as u64 * 8, &SumCounts))
            }
            _ => None,
        };
        Self::new(grid, cfg.policy, counts.as_deref(), comm.size())
    }

    /// The underlying grid.
    pub fn grid(&self) -> &UniformGrid {
        &self.grid
    }

    /// Relabels this decomposition's ranks to maximize weighted cell
    /// overlap with `prev`'s owner map (same cell space required). Per-rank
    /// loads are invariant under a label permutation, so balance is
    /// untouched — but a from-scratch re-bisection numbers its regions by
    /// recursion order, which can hand almost every cell a new owner even
    /// where the cuts barely moved. Aligning labels first turns the owner
    /// diff into the *geometric* diff, which is what incremental migration
    /// ships. A computed owner rule is returned as it is.
    ///
    /// Greedy maximum-weight matching on the `(new rank, prev rank)`
    /// overlap matrix: exact for the common near-diagonal case,
    /// deterministic everywhere (ties resolve to the lowest rank pair).
    pub(crate) fn aligned_to(mut self, prev: &Decomposition, weights: &[u64]) -> Self {
        let Owner::Table(rank_of) = &mut self.owner else {
            return self;
        };
        debug_assert_eq!(prev.num_cells() as usize, rank_of.len(), "same cell space");
        debug_assert_eq!(weights.len(), rank_of.len(), "one weight per cell");
        let r = self.ranks;
        let mut overlap = vec![0u64; r * r];
        for (cell, &new_r) in rank_of.iter().enumerate() {
            let old_r = prev.cell_to_rank(cell as u32);
            if old_r < r {
                // `+ 1` keeps empty regions sticky to their old labels.
                overlap[new_r as usize * r + old_r] += weights[cell] + 1;
            }
        }
        let mut pairs: Vec<(u64, usize, usize)> = overlap
            .iter()
            .enumerate()
            .filter(|(_, &w)| w > 0)
            .map(|(i, &w)| (w, i / r, i % r))
            .collect();
        pairs.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let mut label = vec![usize::MAX; r];
        let mut taken = vec![false; r];
        for (_, new_r, old_r) in pairs {
            if label[new_r] == usize::MAX && !taken[old_r] {
                label[new_r] = old_r;
                taken[old_r] = true;
            }
        }
        let mut free = taken
            .iter()
            .enumerate()
            .filter(|(_, &t)| !t)
            .map(|(i, _)| i);
        for l in label.iter_mut() {
            if *l == usize::MAX {
                // audit: matching is a partial injection on r labels, so the
                // unmatched new ranks and the untaken old labels count the
                // same — `free` cannot run dry.
                *l = free.next().expect("one free label per unmatched rank");
            }
        }
        for nr in rank_of.iter_mut() {
            *nr = label[*nr as usize] as u32;
        }
        self
    }
}

impl SpatialDecomposition for Decomposition {
    fn bounds(&self) -> Rect {
        self.grid.bounds()
    }

    fn num_cells(&self) -> u32 {
        self.grid.num_cells()
    }

    fn grid_spec(&self) -> GridSpec {
        self.grid.spec()
    }

    fn num_ranks(&self) -> usize {
        self.ranks
    }

    fn cell_rect(&self, cell: u32) -> Rect {
        self.grid.cell_rect(cell)
    }

    fn cells_for_rect(&self, rect: &Rect, out: &mut Vec<u32>) {
        self.grid.cells_overlapping_into(rect, out);
    }

    fn cell_to_rank(&self, cell: u32) -> usize {
        match &self.owner {
            Owner::Computed(map) => map.rank_of(cell, self.grid.num_cells(), self.ranks),
            Owner::Table(rank_of) => rank_of[cell as usize] as usize,
        }
    }

    fn reference_cell(&self, rect: &Rect) -> Option<u32> {
        if rect.is_empty() {
            return None;
        }
        self.grid.cell_at(rect.min_x, rect.min_y)
    }

    fn cell_on_max_edge(&self, cell: u32) -> (bool, bool) {
        let spec = self.grid.spec();
        let col = cell % spec.cells_x;
        let row = cell / spec.cells_x;
        (col == spec.cells_x - 1, row == spec.cells_y - 1)
    }
}

/// The length of an owner table for `grid`, refused past
/// [`MAX_TABLE_CELLS`] so no header or option can size a huge one.
pub(crate) fn table_size(grid: &UniformGrid) -> Result<usize> {
    let spec = grid.spec();
    if grid.num_cells() > MAX_TABLE_CELLS {
        return Err(CoreError::InvalidOptions(format!(
            "a {}x{} grid needs a {}-cell owner table, over the {MAX_TABLE_CELLS}-cell cap; \
             use a coarser grid or a uniform cell map",
            spec.cells_x,
            spec.cells_y,
            grid.num_cells()
        )));
    }
    Ok(grid.num_cells() as usize)
}

/// Maps a cell coordinate in `0..cells` onto the curve's `2^ORDER` grid
/// (cell centers, so the first and last cells stay inside the curve).
fn scale_to_order(v: u32, cells: u32) -> u32 {
    let side = 1u64 << curve::ORDER;
    (((v as u64 * 2 + 1) * side) / (2 * cells.max(1) as u64)) as u32
}

/// Hilbert runs: the cells in order along the Hilbert curve through the
/// grid, cut into `ranks` contiguous runs of near-equal length (the first
/// `n % ranks` ranks own one extra cell), so each rank owns a spatially
/// compact region with cell counts balanced to within one cell.
fn hilbert_runs(grid: &UniformGrid, ranks: usize) -> Result<Vec<u32>> {
    let n = table_size(grid)?;
    let spec = grid.spec();
    // Sort cell ids by their position along the curve (cell centers scaled
    // into its fixed-order lattice); ties — possible when the grid
    // outresolves the curve — break by cell id so the order is total.
    let mut order: Vec<u32> = (0..grid.num_cells()).collect();
    order.sort_by_key(|&c| {
        let (col, row) = (c % spec.cells_x, c / spec.cells_x);
        let key = curve::hilbert_key_cells(
            scale_to_order(col, spec.cells_x),
            scale_to_order(row, spec.cells_y),
        );
        (key, c)
    });
    let mut rank_of = vec![0u32; n];
    let (base, extra) = (n / ranks, n % ranks);
    let mut at = 0usize;
    for r in 0..ranks {
        let len = base + usize::from(r < extra);
        for &cell in &order[at..at + len] {
            rank_of[cell as usize] = r as u32;
        }
        at += len;
    }
    Ok(rank_of)
}

/// Recursive bisection of the global per-cell counts: every rank owns a
/// contiguous rectangle of cells holding a near-equal share of the
/// estimated features.
fn bisection(grid: &UniformGrid, counts: &[u64], ranks: usize) -> Result<Vec<u32>> {
    let n = table_size(grid)?;
    assert_eq!(counts.len(), n, "one count per cell");
    let spec = grid.spec();
    let mut rank_of = vec![0u32; n];
    let all = CellRange {
        c0: 0,
        c1: spec.cells_x,
        r0: 0,
        r1: spec.cells_y,
    };
    bisect(counts, spec.cells_x, all, 0, ranks as u32, &mut rank_of);
    Ok(rank_of)
}

/// A rectangle of cell indices, half-open on both axes.
#[derive(Debug, Clone, Copy)]
struct CellRange {
    c0: u32,
    c1: u32,
    r0: u32,
    r1: u32,
}

impl CellRange {
    fn width(&self) -> u32 {
        self.c1 - self.c0
    }

    fn height(&self) -> u32 {
        self.r1 - self.r0
    }
}

/// Recursively assigns `range` to ranks `lo..hi`, splitting the longer
/// axis at the count-balanced cut. Deterministic: ties in cut placement
/// resolve to the first (lowest-index) optimum.
fn bisect(counts: &[u64], cells_x: u32, range: CellRange, lo: u32, hi: u32, rank_of: &mut [u32]) {
    debug_assert!(lo < hi);
    if hi - lo == 1 || (range.width() <= 1 && range.height() <= 1) {
        // One rank left, or an unsplittable single cell: everything in
        // the range belongs to `lo` (surplus ranks own no cells).
        for row in range.r0..range.r1 {
            for col in range.c0..range.c1 {
                rank_of[(row * cells_x + col) as usize] = lo;
            }
        }
        return;
    }
    let ranks_left = (hi - lo) / 2;
    // Sum the counts along the split axis (the longer one, so regions
    // trend square; ties split columns).
    let split_cols = range.width() >= range.height();
    let lanes: Vec<u64> = if split_cols {
        (range.c0..range.c1)
            .map(|col| {
                (range.r0..range.r1)
                    .map(|row| counts[(row * cells_x + col) as usize])
                    .sum()
            })
            .collect()
    } else {
        (range.r0..range.r1)
            .map(|row| {
                (range.c0..range.c1)
                    .map(|col| counts[(row * cells_x + col) as usize])
                    .sum()
            })
            .collect()
    };
    let total: u64 = lanes.iter().sum();
    // Ideal share of the left sub-range. With an all-zero histogram fall
    // back to splitting the *cells* evenly (weight 1 per lane).
    let lane_count = lanes.len() as u64;
    let (target, weigh_cells) = if total == 0 {
        (lane_count * ranks_left as u64 / (hi - lo) as u64, true)
    } else {
        (total * ranks_left as u64 / (hi - lo) as u64, false)
    };
    let mut best_cut = 1usize;
    let mut best_err = u64::MAX;
    let mut prefix = 0u64;
    for (i, &lane) in lanes.iter().enumerate().take(lanes.len() - 1) {
        prefix += if weigh_cells { 1 } else { lane };
        let err = prefix.abs_diff(target);
        if err < best_err {
            best_err = err;
            best_cut = i + 1;
        }
    }
    let (left, right) = if split_cols {
        let cut = range.c0 + best_cut as u32;
        (
            CellRange { c1: cut, ..range },
            CellRange { c0: cut, ..range },
        )
    } else {
        let cut = range.r0 + best_cut as u32;
        (
            CellRange { r1: cut, ..range },
            CellRange { r0: cut, ..range },
        )
    };
    bisect(counts, cells_x, left, lo, lo + ranks_left, rank_of);
    bisect(counts, cells_x, right, lo + ranks_left, hi, rank_of);
}

/// Which decomposition family to build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecompPolicy {
    /// The paper's uniform grid with a [`CellMap`] cell→rank policy.
    Uniform(CellMap),
    /// Uniform cells in contiguous Hilbert-order runs.
    Hilbert,
    /// Skew-aware recursive bisection over a histogram grid `refine`×
    /// finer than the configured [`GridSpec`] (so hotspots inside one
    /// coarse cell can still be split across ranks).
    Adaptive {
        /// Histogram refinement factor (clamped to keep the cell count
        /// within [`MAX_TABLE_CELLS`]; `0` behaves as `1`).
        refine: u32,
    },
}

impl DecompPolicy {
    /// The default skew-aware policy: adaptive bisection over an 8×-finer
    /// histogram.
    pub fn adaptive() -> Self {
        DecompPolicy::Adaptive { refine: 8 }
    }

    /// Short display name (used by experiment tables and JSON reports).
    pub fn name(&self) -> &'static str {
        match self {
            DecompPolicy::Uniform(_) => "uniform",
            DecompPolicy::Hilbert => "hilbert",
            DecompPolicy::Adaptive { .. } => "adaptive",
        }
    }
}

/// Full decomposition configuration: base grid resolution plus policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecompConfig {
    /// Base grid resolution. Uniform and Hilbert tile exactly this;
    /// Adaptive refines it into its histogram grid.
    pub grid: GridSpec,
    /// Decomposition family.
    pub policy: DecompPolicy,
}

impl DecompConfig {
    /// The paper's configuration: uniform cells, round-robin declustering.
    pub fn uniform(grid: GridSpec) -> Self {
        DecompConfig {
            grid,
            policy: DecompPolicy::Uniform(CellMap::RoundRobin),
        }
    }

    /// Hilbert-mapped uniform cells.
    pub fn hilbert(grid: GridSpec) -> Self {
        DecompConfig {
            grid,
            policy: DecompPolicy::Hilbert,
        }
    }

    /// Adaptive bisection over a `refine`× finer histogram grid.
    pub fn adaptive(grid: GridSpec, refine: u32) -> Self {
        DecompConfig {
            grid,
            policy: DecompPolicy::Adaptive { refine },
        }
    }

    /// The grid the policy actually tiles: the base spec for uniform and
    /// Hilbert, the refined histogram spec for adaptive. The refinement
    /// factor is clamped so the cell count stays inside the `u32` id
    /// space (and within [`MAX_TABLE_CELLS`], keeping the owner table
    /// small).
    fn effective_spec(&self) -> GridSpec {
        match self.policy {
            DecompPolicy::Uniform(_) | DecompPolicy::Hilbert => self.grid,
            DecompPolicy::Adaptive { refine } => {
                let mut f = refine.max(1);
                loop {
                    let spec = GridSpec {
                        cells_x: self.grid.cells_x.saturating_mul(f),
                        cells_y: self.grid.cells_y.saturating_mul(f),
                    };
                    if f == 1 || spec.num_cells_u64() <= MAX_TABLE_CELLS as u64 {
                        return spec;
                    }
                    f /= 2;
                }
            }
        }
    }
}

/// Element-wise `u64` sum — the reduction behind the adaptive and the
/// rebalance histograms.
pub(crate) struct SumCounts;

impl ReduceOp<Vec<u64>> for SumCounts {
    fn combine(&self, a: &Vec<u64>, b: &Vec<u64>) -> Vec<u64> {
        a.iter().zip(b).map(|(x, y)| x + y).collect()
    }
}

/// [`Decomposition::build_global`] for a caller that enters it unfailed,
/// boxed. Collective: every rank must call it; all ranks receive
/// identical objects.
///
/// # Panics
///
/// If the policy's owner table would exceed [`MAX_TABLE_CELLS`].
pub fn build_global(
    comm: &mut Comm,
    layers: &[&[Feature]],
    cfg: &DecompConfig,
) -> Box<dyn SpatialDecomposition> {
    let envelopes: Vec<Vec<Rect>> = layers
        .iter()
        .map(|l| l.iter().map(|f| f.geometry.envelope()).collect())
        .collect();
    let layers: Vec<&[Rect]> = envelopes.iter().map(Vec::as_slice).collect();
    // audit: no rank enters failed, so the only error left is an owner
    // table past the cap, which is the caller's configuration (# Panics).
    let d = Decomposition::build_global(comm, &layers, cfg, false);
    Box::new(d.unwrap_or_else(|e| panic!("{e}")))
}

/// Load-imbalance ratio of a per-rank count vector: `max / mean`, the
/// metric the `decomp` repro experiment reports. 1.0 is perfect balance;
/// `ranks` is the worst case (everything on one rank). Empty or all-zero
/// inputs report 1.0.
pub fn imbalance_ratio(per_rank: &[u64]) -> f64 {
    if per_rank.is_empty() {
        return 1.0;
    }
    let total: u64 = per_rank.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let mean = total as f64 / per_rank.len() as f64;
    let max = per_rank.iter().max().copied().unwrap_or(0) as f64;
    max / mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvio_geom::Point;
    use mvio_msim::{Topology, World, WorldConfig};

    fn grid(side: u32) -> UniformGrid {
        UniformGrid::new(
            Rect::new(0.0, 0.0, side as f64, side as f64),
            GridSpec::square(side),
        )
    }

    const RR: DecompPolicy = DecompPolicy::Uniform(CellMap::RoundRobin);

    fn dec(g: UniformGrid, policy: DecompPolicy, ranks: usize) -> Decomposition {
        Decomposition::new(g, policy, None, ranks).unwrap()
    }

    fn bisection(g: UniformGrid, counts: &[u64], ranks: usize) -> Decomposition {
        Decomposition::new(g, DecompPolicy::adaptive(), Some(counts), ranks).unwrap()
    }

    fn partition_holds(d: &Decomposition) {
        let mut owned = vec![0u32; d.num_cells() as usize];
        for r in 0..d.num_ranks() {
            for c in d.cells_of_rank(r) {
                owned[c as usize] += 1;
            }
        }
        assert!(
            owned.iter().all(|&n| n == 1),
            "every cell owned exactly once"
        );
    }

    #[test]
    fn uniform_decomposition_matches_grid_and_map() {
        let g = grid(4);
        let d = dec(g.clone(), RR, 3);
        assert_eq!(d.num_cells(), 16);
        assert_eq!(d.bounds(), g.bounds());
        for c in 0..16 {
            assert_eq!(d.cell_rect(c), g.cell_rect(c));
            assert_eq!(d.cell_to_rank(c), (c as usize) % 3);
        }
        let probe = Rect::new(0.5, 0.5, 1.5, 1.5);
        assert_eq!(d.cells_for_rect_vec(&probe), g.cells_overlapping(&probe));
        partition_holds(&d);
    }

    #[test]
    fn hilbert_runs_are_contiguous_compact_and_balanced() {
        let d = dec(grid(8), DecompPolicy::Hilbert, 4);
        partition_holds(&d);
        // Balance: 64 cells over 4 ranks = exactly 16 each.
        for r in 0..4 {
            assert_eq!(d.cells_of_rank(r).len(), 16, "rank {r}");
        }
        // Compactness: each rank's bounding box is a quarter-ish of the
        // world, far below round-robin's full-extent scatter.
        for r in 0..4 {
            let bbox = d
                .cells_of_rank(r)
                .iter()
                .fold(Rect::EMPTY, |a, &c| a.union(&d.cell_rect(c)));
            assert!(
                bbox.area() <= 16.0 + 1e-9,
                "rank {r} bbox area {} must be compact",
                bbox.area()
            );
        }
    }

    #[test]
    fn adaptive_bisection_balances_a_hotspot() {
        // All weight in one corner quadrant: round-robin would still
        // balance (it scatters), but Block-style contiguous splits would
        // not. Check the bisection tracks counts, not cell counts.
        let g = grid(8);
        let mut counts = vec![0u64; 64];
        for row in 0..4u32 {
            for col in 0..4u32 {
                counts[(row * 8 + col) as usize] = 100;
            }
        }
        // A sprinkle elsewhere so no region is empty.
        for c in counts.iter_mut() {
            *c += 1;
        }
        let d = bisection(g, &counts, 4);
        partition_holds(&d);
        let loads: Vec<u64> = (0..4)
            .map(|r| d.cells_of_rank(r).iter().map(|&c| counts[c as usize]).sum())
            .collect();
        let ratio = imbalance_ratio(&loads);
        assert!(
            ratio < 1.5,
            "bisection must balance the hotspot, got loads {loads:?} (ratio {ratio:.2})"
        );
    }

    #[test]
    fn aligning_a_bisection_to_itself_is_the_identity() {
        let counts: Vec<u64> = (0..64).map(|c| (c * 7) % 13).collect();
        let d = bisection(grid(8), &counts, 4);
        let aligned = d.clone().aligned_to(&d, &counts);
        assert_eq!(aligned, d);
    }

    #[test]
    fn aligning_permutes_labels_without_touching_loads() {
        // Balanced base, then a perturbed re-bisection: alignment must
        // keep every rank's load bit-identical (it is a permutation)
        // while cutting the owner diff versus the unaligned labels.
        let mut counts = vec![1u64; 64];
        let old = bisection(grid(8), &counts, 4);
        // Drift: a hotspot lands in the top-right corner.
        for row in 5..8u32 {
            for col in 5..8u32 {
                counts[(row * 8 + col) as usize] += 6;
            }
        }
        let raw = bisection(grid(8), &counts, 4);
        let aligned = raw.clone().aligned_to(&old, &counts);
        partition_holds(&aligned);
        let loads = |d: &Decomposition| -> Vec<u64> {
            let mut v: Vec<u64> = (0..4)
                .map(|r| d.cells_of_rank(r).iter().map(|&c| counts[c as usize]).sum())
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(loads(&raw), loads(&aligned), "alignment is a pure relabel");
        let diff = |d: &Decomposition| {
            (0..64u32)
                .filter(|&c| d.cell_to_rank(c) != old.cell_to_rank(c))
                .count()
        };
        assert!(
            diff(&aligned) <= diff(&raw),
            "aligned diff {} must not exceed raw diff {}",
            diff(&aligned),
            diff(&raw)
        );
        assert!(
            diff(&aligned) < 32,
            "a corner hotspot should leave most of the 64-cell map in place, moved {}",
            diff(&aligned)
        );
    }

    #[test]
    fn adaptive_handles_degenerate_histograms() {
        // All-zero histogram: falls back to even cell splits.
        let d = bisection(grid(4), &[0; 16], 4);
        partition_holds(&d);
        let sizes: Vec<usize> = (0..4).map(|r| d.cells_of_rank(r).len()).collect();
        assert_eq!(sizes, vec![4, 4, 4, 4]);
        // More ranks than cells: surplus ranks own nothing, every cell
        // still owned exactly once.
        let d = bisection(grid(2), &[5; 4], 7);
        partition_holds(&d);
        // 1x1 grid, many ranks.
        let d = bisection(
            UniformGrid::new(Rect::new(0.0, 0.0, 1.0, 1.0), GridSpec::square(1)),
            &[9],
            3,
        );
        partition_holds(&d);
        assert_eq!(d.cell_to_rank(0), 0);
    }

    /// Every policy's owner of every cell of a non-square 5×3 grid at 4
    /// ranks, pinned: BENCH rows only see loads, so a moved owner that
    /// keeps them shows up here.
    #[test]
    fn owner_tables_on_a_5x3_grid_are_pinned() {
        let g = || {
            let spec = GridSpec {
                cells_x: 5,
                cells_y: 3,
            };
            UniformGrid::new(Rect::new(0.0, 0.0, 5.0, 3.0), spec)
        };
        let table = |d: Decomposition| (0..15).map(|c| d.cell_to_rank(c)).collect::<Vec<_>>();
        let counts = [9, 1, 0, 3, 7, 2, 8, 1, 0, 4, 5, 0, 6, 2, 1];
        let block = DecompPolicy::Uniform(CellMap::Block);
        assert_eq!(
            table(dec(g(), RR, 4)),
            [0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2]
        );
        assert_eq!(
            table(dec(g(), block, 4)),
            [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3]
        );
        assert_eq!(
            table(dec(g(), DecompPolicy::Hilbert, 4)),
            [0, 0, 3, 3, 3, 0, 1, 1, 1, 2, 0, 1, 2, 2, 2]
        );
        assert_eq!(
            table(bisection(g(), &counts, 4)),
            [0, 0, 2, 2, 3, 1, 1, 2, 2, 3, 1, 1, 2, 2, 3]
        );
    }

    #[test]
    fn owner_tables_past_the_cap_and_histogramless_bisections_are_refused() {
        let huge = || {
            let spec = GridSpec {
                cells_x: 65_535,
                cells_y: 65_535,
            };
            UniformGrid::new(Rect::new(0.0, 0.0, 1.0, 1.0), spec)
        };
        // A computed rule holds nothing per cell, whatever the grid.
        assert_eq!(dec(huge(), RR, 3).cell_to_rank(65_535 * 65_535 - 1), 2);
        let refused = |policy: DecompPolicy, histogram: Option<&[u64]>| {
            matches!(
                Decomposition::new(huge(), policy, histogram, 3),
                Err(CoreError::InvalidOptions(_))
            )
        };
        assert!(refused(DecompPolicy::Hilbert, None));
        assert!(refused(DecompPolicy::adaptive(), Some(&[])));
        let err = Decomposition::new(grid(2), DecompPolicy::adaptive(), None, 3).unwrap_err();
        assert!(matches!(err, CoreError::InvalidOptions(_)), "{err}");
    }

    #[test]
    fn reference_cell_is_the_min_corner_cell() {
        let d = dec(grid(4), RR, 2);
        assert_eq!(d.reference_cell(&Rect::new(0.5, 0.5, 2.5, 2.5)), Some(0));
        assert_eq!(d.reference_cell(&Rect::new(3.5, 3.5, 9.0, 9.0)), Some(15));
        assert_eq!(d.reference_cell(&Rect::new(10.0, 10.0, 11.0, 11.0)), None);
        assert_eq!(d.reference_cell(&Rect::EMPTY), None);
    }

    /// The point lookup answers as the degenerate-rect overlap scan it
    /// replaced did, on a grid that is neither square nor at the origin.
    #[test]
    fn reference_cell_matches_the_degenerate_rect_lookup() {
        let g = UniformGrid::new(
            Rect::new(-3.0, 2.0, 7.0, 8.0),
            GridSpec {
                cells_x: 5,
                cells_y: 3,
            },
        );
        let d = dec(g, RR, 2);
        let scan = |r: &Rect| {
            let corner = Rect::new(r.min_x, r.min_y, r.min_x, r.min_y);
            (!r.is_empty())
                .then(|| d.cells_for_rect_vec(&corner).first().copied())
                .flatten()
        };
        let cases = [
            ("interior", Rect::new(0.5, 4.1, 1.0, 5.0), Some(6)),
            ("on an inner cut", Rect::new(1.0, 4.0, 2.0, 6.0), Some(7)),
            ("max-x edge", Rect::new(7.0, 3.0, 7.0, 3.0), Some(4)),
            ("max-y edge", Rect::new(-3.0, 8.0, -2.0, 9.0), Some(10)),
            ("max corner", Rect::new(7.0, 8.0, 9.0, 9.0), Some(14)),
            ("min corner", Rect::new(-3.0, 2.0, -3.0, 2.0), Some(0)),
            ("outside, past max", Rect::new(7.5, 3.0, 8.0, 4.0), None),
            ("outside, below min", Rect::new(-1.0, 1.0, 0.0, 3.0), None),
            ("empty", Rect::EMPTY, None),
            ("inverted", Rect::new(1.0, 4.0, 0.0, 5.0), None),
        ];
        for (what, r, want) in cases {
            assert_eq!(d.reference_cell(&r), want, "{what}");
            assert_eq!(d.reference_cell(&r), scan(&r), "{what}");
        }
    }

    #[test]
    fn max_edge_cells_are_flagged() {
        let d = dec(grid(4), RR, 2);
        assert_eq!(d.cell_on_max_edge(0), (false, false));
        assert_eq!(d.cell_on_max_edge(3), (true, false));
        assert_eq!(d.cell_on_max_edge(12), (false, true));
        assert_eq!(d.cell_on_max_edge(15), (true, true));
    }

    #[test]
    fn effective_spec_refines_and_clamps() {
        let cfg = DecompConfig::adaptive(GridSpec::square(16), 8);
        assert_eq!(cfg.effective_spec(), GridSpec::square(128));
        let cfg = DecompConfig::uniform(GridSpec::square(16));
        assert_eq!(cfg.effective_spec(), GridSpec::square(16));
        // A refinement that would blow the cell-id space clamps down.
        let cfg = DecompConfig::adaptive(GridSpec::square(1 << 10), 1 << 10);
        let spec = cfg.effective_spec();
        assert!(spec.num_cells_u64() <= 1 << 22, "{spec:?}");
        assert!(spec.cells_x >= 1 << 10, "never below the base spec");
    }

    #[test]
    fn policy_names() {
        assert_eq!(DecompPolicy::adaptive().name(), "adaptive");
        assert_eq!(DecompPolicy::Hilbert.name(), "hilbert");
        assert_eq!(DecompPolicy::Uniform(CellMap::Block).name(), "uniform");
    }

    #[test]
    fn collective_builders_agree_across_ranks() {
        let cfgs = [
            DecompConfig::uniform(GridSpec::square(4)),
            DecompConfig::hilbert(GridSpec::square(4)),
            DecompConfig::adaptive(GridSpec::square(4), 2),
        ];
        for cfg in cfgs {
            let out = World::run(WorldConfig::new(Topology::single_node(3)), move |comm| {
                let envelopes: Vec<Rect> = (0..10)
                    .map(|i| Point::new((comm.rank() * 10 + i) as f64, i as f64).envelope())
                    .collect();
                let d = Decomposition::build_global(comm, &[&envelopes], &cfg, false).unwrap();
                (
                    d.bounds(),
                    d.num_cells(),
                    (0..d.num_cells())
                        .map(|c| d.cell_to_rank(c))
                        .collect::<Vec<_>>(),
                )
            });
            assert_eq!(out[0], out[1], "{cfg:?}");
            assert_eq!(out[0], out[2], "{cfg:?}");
        }
    }

    #[test]
    fn adaptive_global_build_splits_a_clustered_input() {
        // 3 ranks, all features piled into one corner: adaptive must not
        // leave the pile on one rank.
        let cfg = DecompConfig::adaptive(GridSpec::square(4), 4);
        let out = World::run(WorldConfig::new(Topology::single_node(3)), move |comm| {
            // The pile spans a handful of *fine* histogram cells (cell
            // side ≈ 0.63 here) while fitting inside one coarse 4x4 cell,
            // so only the refined bisection can split it.
            let mut feats: Vec<Feature> = (0..60)
                .map(|i| {
                    Feature::new(mvio_geom::Geometry::Point(Point::new(
                        (i % 8) as f64 * 0.15,
                        (i / 8) as f64 * 0.15,
                    )))
                })
                .collect();
            // One far-away outlier fixes the global extent.
            feats.push(Feature::new(mvio_geom::Geometry::Point(Point::new(
                10.0, 10.0,
            ))));
            let d = build_global(comm, &[&feats], &cfg);
            let mut loads = vec![0u64; comm.size()];
            for f in &feats {
                if let Some(c) = d.reference_cell(&f.geometry.envelope()) {
                    loads[d.cell_to_rank(c)] += 1;
                }
            }
            loads
        });
        // Same loads on every rank (features replicated in this test).
        assert_eq!(out[0], out[1]);
        let ratio = imbalance_ratio(&out[0]);
        assert!(
            ratio < 2.0,
            "adaptive must split the corner pile: loads {:?} ratio {ratio:.2}",
            out[0]
        );
    }

    #[test]
    fn imbalance_ratio_basics() {
        assert_eq!(imbalance_ratio(&[]), 1.0);
        assert_eq!(imbalance_ratio(&[0, 0]), 1.0);
        assert_eq!(imbalance_ratio(&[4, 4, 4, 4]), 1.0);
        assert_eq!(imbalance_ratio(&[8, 0, 0, 0]), 4.0);
    }
}
