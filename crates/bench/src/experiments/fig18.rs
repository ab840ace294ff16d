//! Figure 18: spatial-join breakdown vs process count for Lakes ⋈
//! Cemetery (datasets #2 ⋈ #1) — the *join-dominated* workload.

use super::fig17::procs_breakdown;
use super::Scale;

/// Runs the Figure 18 sweep and renders the table.
pub fn run(scale: Scale, quick: bool) -> String {
    let paper =
        "paper: the spatial join time dominates and decreases with increasing process count";
    procs_breakdown(scale, quick, 18, ("Lakes", "Cemetery"), paper)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fig17::join_run;

    #[test]
    fn join_time_decreases_with_processes() {
        let scale = Scale { denominator: 2_000 };
        let (b2, _) = join_run(scale, "Lakes", "Cemetery", 2, 8);
        let (b8, _) = join_run(scale, "Lakes", "Cemetery", 8, 8);
        assert!(
            b8.compute < b2.compute,
            "join phase must shrink with ranks: {:.4} -> {:.4}",
            b2.compute,
            b8.compute
        );
        assert!(b8.total < b2.total, "total must shrink too");
    }

    #[test]
    fn lakes_join_share_exceeds_roads_join_share() {
        // The defining contrast between Figures 18 and 19: Lakes ⋈
        // Cemetery (big polygons, heavy refine) spends a larger *share* of
        // its time in the join phase than Roads ⋈ Cemetery (millions of
        // tiny polygons, exchange-bound). Shares are scale-robust even
        // when absolute dominance only emerges at full size.
        let scale = Scale { denominator: 2_000 };
        let (lakes, _) = join_run(scale, "Lakes", "Cemetery", 4, 8);
        let (roads, _) = join_run(scale, "Roads", "Cemetery", 4, 8);
        let share = |b: &mvio_sjoin::PhaseBreakdown| b.compute / (b.compute + b.communication);
        assert!(
            share(&lakes) > share(&roads),
            "lakes join share {:.3} must exceed roads join share {:.3}",
            share(&lakes),
            share(&roads)
        );
    }
}
