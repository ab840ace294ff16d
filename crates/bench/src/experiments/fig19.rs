//! Figure 19: spatial-join breakdown vs process count for Roads ⋈
//! Cemetery (datasets #3 ⋈ #1) — the *communication-dominated* workload.
//!
//! Roads is 72 M small polygons: the per-geometry serialization /
//! deserialization and the Alltoallv payload swamp the (cheap, tiny-pair)
//! refine work, inverting Figure 18's profile.

use super::fig17::procs_breakdown;
use super::Scale;

/// Runs the Figure 19 sweep and renders the table.
pub fn run(scale: Scale, quick: bool) -> String {
    let paper = "paper: the communication cost dominates the overall execution time for this pair";
    procs_breakdown(scale, quick, 19, ("Roads", "Cemetery"), paper)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fig17::join_run;

    #[test]
    fn roads_cemetery_is_communication_heavy() {
        // Roads ships ~20x more geometries than Lakes at equal scale; its
        // communication phase must dwarf its join phase.
        let scale = Scale {
            denominator: 20_000,
        };
        let (b, _) = join_run(scale, "Roads", "Cemetery", 4, 8);
        assert!(
            b.communication > b.compute,
            "comm {:.4} should dominate join {:.4} for Roads ⋈ Cemetery",
            b.communication,
            b.compute
        );
    }

    #[test]
    fn communication_shrinks_with_processes() {
        let scale = Scale {
            denominator: 20_000,
        };
        let (b2, _) = join_run(scale, "Roads", "Cemetery", 2, 8);
        let (b8, _) = join_run(scale, "Roads", "Cemetery", 8, 8);
        assert!(
            b8.communication < b2.communication,
            "comm must shrink with ranks: {:.4} -> {:.4}",
            b2.communication,
            b8.communication
        );
    }
}
