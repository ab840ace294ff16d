//! Figure 17: spatial-join execution-time breakdown vs number of grid
//! cells (Lakes ⋈ Cemetery, 80 processes).

use super::{cost_scaled, gpfs_scaled, install_dataset, spec, Scale};
use crate::report::Table;
use mvio_core::decomp::imbalance_ratio;
use mvio_core::grid::{CellMap, GridSpec};
use mvio_core::partition::ReadOptions;
use mvio_msim::{Topology, World, WorldConfig};
use mvio_pfs::SimFs;
use mvio_sjoin::{spatial_join, JoinOptions, JoinReport, PhaseBreakdown};

/// Runs one distributed join and returns the per-rank reports.
pub fn join_reports(
    scale: Scale,
    left: &str,
    right: &str,
    procs: usize,
    cells_per_side: u32,
) -> Vec<JoinReport> {
    let fs = SimFs::new(gpfs_scaled(scale));
    let nodes = procs.div_ceil(20).max(1);
    let topo = Topology::new(nodes, procs.div_ceil(nodes));
    fs.set_active_ranks(topo.ranks());
    install_dataset(&fs, &spec(left), scale, "left.wkt", None);
    install_dataset(&fs, &spec(right), scale, "right.wkt", None);
    let opts = JoinOptions {
        grid: GridSpec::square(cells_per_side),
        decomp: mvio_core::decomp::DecompPolicy::Uniform(CellMap::RoundRobin),
        // 64 KiB floor keeps blocks above the largest record even when
        // many ranks split a small scaled layer (Cemetery at 80+ procs).
        read: ReadOptions::default().with_block_size(64 << 10),
        ..Default::default()
    };
    let cfg = WorldConfig::new(topo).with_cost(cost_scaled(scale));
    World::run(cfg, move |comm| {
        spatial_join(comm, &fs, "left.wkt", "right.wkt", &opts).unwrap()
    })
}

/// Runs one distributed join and returns `(breakdown, result pairs)`.
pub fn join_run(
    scale: Scale,
    left: &str,
    right: &str,
    procs: usize,
    cells_per_side: u32,
) -> (PhaseBreakdown, u64) {
    let out = join_reports(scale, left, right, procs, cells_per_side);
    let pairs = out.iter().map(|r| r.pairs.len() as u64).sum();
    (out[0].breakdown, pairs)
}

/// Renders one join-breakdown-vs-processes figure (Figures 18 and 19):
/// `left ⋈ right` on a fixed grid over the process sweep (20 ranks per
/// ROGER node), each row naming its largest phase, and the paper's
/// expectation as the note.
pub(crate) fn procs_breakdown(
    scale: Scale,
    quick: bool,
    figure: u32,
    (left, right): (&str, &str),
    paper: &str,
) -> String {
    let cells = if quick { 8 } else { 32 };
    let procs_sweep = if quick {
        vec![4, 8]
    } else {
        vec![20, 40, 80, 160]
    };
    let mut t = Table::new(
        format!(
            "Figure {figure}: join breakdown vs processes, {left} ⋈ {right} ({cells}x{cells} cells, scaled 1/{})",
            scale.denominator
        ),
        &[
            "procs",
            "partition (s)",
            "comm (s)",
            "join (s)",
            "total (s)",
            "dominant",
        ],
    );
    let d = scale.denominator as f64;
    for procs in procs_sweep {
        let (b, _) = join_run(scale, left, right, procs, cells);
        let phases = [
            ("join", b.compute),
            ("comm", b.communication),
            ("partition", b.partition),
        ];
        let dominant = phases
            .iter()
            .fold(phases[0], |a, &p| if p.1 > a.1 { p } else { a });
        t.row(vec![
            procs.to_string(),
            format!("{:.2}", b.partition * d),
            format!("{:.2}", b.communication * d),
            format!("{:.2}", b.compute * d),
            format!("{:.2}", b.total * d),
            dominant.0.to_string(),
        ]);
    }
    t.note(paper);
    t.render()
}

/// Max/mean over ranks of one per-rank load counter of a join.
pub fn load_imbalance(reports: &[JoinReport], load: fn(&JoinReport) -> u64) -> f64 {
    let loads: Vec<u64> = reports.iter().map(load).collect();
    imbalance_ratio(&loads)
}

/// Max/mean over ranks of the refine tests the decomposition assigned
/// (before the join's balance step).
fn owned_imbalance(reports: &[JoinReport]) -> f64 {
    load_imbalance(reports, |r| r.owned_refine_tests)
}

/// Runs the Figure 17 sweep and renders the table.
pub fn run(scale: Scale, quick: bool) -> String {
    let procs = if quick { 8 } else { 80 };
    let cells_sweep: Vec<u32> = if quick {
        vec![4, 8]
    } else {
        vec![8, 16, 32, 48, 64]
    };
    let mut t = Table::new(
        format!(
            "Figure 17: join breakdown vs grid cells, Lakes ⋈ Cemetery, {procs} procs (scaled 1/{})",
            scale.denominator
        ),
        &[
            "cells",
            "partition (s)",
            "comm (s)",
            "join (s)",
            "total (s)",
            "owned imb.",
            "pairs",
        ],
    );
    let d = scale.denominator as f64;
    for side in cells_sweep {
        let reports = join_reports(scale, "Lakes", "Cemetery", procs, side);
        let b = reports[0].breakdown;
        let pairs: usize = reports.iter().map(|r| r.pairs.len()).sum();
        t.row(vec![
            (side * side).to_string(),
            format!("{:.2}", b.partition * d),
            format!("{:.2}", b.communication * d),
            format!("{:.2}", b.compute * d),
            format!("{:.2}", b.total * d),
            format!("{:.2}", owned_imbalance(&reports)),
            pairs.to_string(),
        ]);
    }
    t.note("paper: overall execution time decreases as grid cells increase (finer tasks balance better); communication varies with the cell-to-process mapping");
    t.note("owned imb. = max/mean refine tests per rank as the grid assigns them — the paper's effect; the join re-balances survivors after the filter when a rank is 10+ ms of refine over its share, so a coarse grid pays for shipping its surplus rather than for refining it and the gap in seconds is narrower than the paper's");
    t.note("times are full-scale-equivalent virtual seconds; phases are max-over-ranks so they can sum above total");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finer_grids_reduce_total_time() {
        let scale = Scale { denominator: 2_000 };
        let coarse = join_reports(scale, "Lakes", "Cemetery", 8, 2);
        let fine = join_reports(scale, "Lakes", "Cemetery", 8, 12);
        let pairs = |r: &[JoinReport]| r.iter().map(|r| r.pairs.len()).sum::<usize>();
        assert_eq!(
            pairs(&coarse),
            pairs(&fine),
            "grid resolution must not change the join result"
        );
        let (coarse_total, fine_total) = (coarse[0].breakdown.total, fine[0].breakdown.total);
        assert!(
            fine_total < coarse_total,
            "finer grid {fine_total:.4}s must beat coarse {coarse_total:.4}s (Figure 17)"
        );
        // The mechanism: finer cells spread the refine tests over the
        // ranks more evenly (4 cells cannot feed 8 ranks). The join's
        // balance step narrows the gap in seconds — the coarse grid now
        // pays for shipping its surplus, not for refining it — but not
        // what the grid assigns.
        let (ci, fi) = (owned_imbalance(&coarse), owned_imbalance(&fine));
        assert!(ci >= 2.0, "4 cells over 8 ranks: owned imbalance {ci:.2}");
        assert!(fi < ci, "finer grid {fi:.2} must beat coarse {ci:.2}");
    }
}
