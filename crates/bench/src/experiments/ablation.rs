//! Ablation studies of the library's design choices — beyond the paper's
//! figures, these quantify the decisions its text argues qualitatively:
//!
//! * **cell→rank maps** — round-robin declustering (the paper's choice)
//!   vs contiguous blocks (Figure 5a's skew-prone layout) vs the
//!   locality-aware Hilbert map the paper lists as future work;
//! * **block-size granularity** — the coarse-vs-fine trade-off of
//!   §5.1.1 ("grain size also impacts load balancing").

use super::{cost_scaled, gpfs_scaled, install_dataset, lustre_scaled, spec, Scale};
use crate::report::Table;
use mvio_core::decomp::DecompPolicy;
use mvio_core::grid::{CellMap, GridSpec};
use mvio_core::partition::{read_partition_text, ReadOptions};
use mvio_msim::{AccessLevel, Topology, World, WorldConfig};
use mvio_pfs::{SimFs, StripeSpec};
use mvio_sjoin::{spatial_join, JoinOptions, PhaseBreakdown};

fn join_with(scale: Scale, procs: usize, cells: u32, decomp: DecompPolicy) -> PhaseBreakdown {
    let fs = SimFs::new(gpfs_scaled(scale));
    let nodes = procs.div_ceil(20).max(1);
    let topo = Topology::new(nodes, procs.div_ceil(nodes));
    fs.set_active_ranks(topo.ranks());
    install_dataset(&fs, &spec("Lakes"), scale, "left.wkt", None);
    install_dataset(&fs, &spec("Cemetery"), scale, "right.wkt", None);
    let opts = JoinOptions {
        grid: GridSpec::square(cells),
        decomp,
        read: ReadOptions::default().with_block_size(64 << 10),
        ..Default::default()
    };
    let cfg = WorldConfig::new(topo).with_cost(cost_scaled(scale));
    let out = World::run(cfg, move |comm| {
        spatial_join(comm, &fs, "left.wkt", "right.wkt", &opts)
            .unwrap()
            .breakdown
    });
    out[0]
}

/// Ablation: cell→rank assignment policies on the Lakes ⋈ Cemetery join.
pub fn maps(scale: Scale, quick: bool) -> String {
    let procs = if quick { 8 } else { 40 };
    let cells = if quick { 8u32 } else { 24 };
    let mut t = Table::new(
        format!(
            "Ablation: cell-to-rank maps, Lakes ⋈ Cemetery, {procs} procs, {cells}x{cells} cells"
        ),
        &["map", "partition (s)", "comm (s)", "join (s)", "total (s)"],
    );
    let d = scale.denominator as f64;
    for (name, policy) in [
        ("round-robin", DecompPolicy::Uniform(CellMap::RoundRobin)),
        ("block", DecompPolicy::Uniform(CellMap::Block)),
        ("hilbert", DecompPolicy::Hilbert),
    ] {
        let b = join_with(scale, procs, cells, policy);
        t.row(vec![
            name.to_string(),
            format!("{:.2}", b.partition * d),
            format!("{:.2}", b.communication * d),
            format!("{:.2}", b.compute * d),
            format!("{:.2}", b.total * d),
        ]);
    }
    t.note("round-robin declusters hotspots (the paper's choice); block keeps locality but concentrates load; hilbert balances both");
    t.render()
}

/// Ablation: block-size granularity for partitioned reads (paper §5.1.1).
pub fn blocks(scale: Scale, quick: bool) -> String {
    let ds = spec("Roads");
    let nodes = if quick { 2 } else { 8 };
    let mut t = Table::new(
        format!("Ablation: block-size granularity, Roads Level-0 read, {nodes} nodes x 16"),
        &[
            "block (full-scale)",
            "iterations",
            "read time (s, full-scale)",
        ],
    );
    let d = scale.denominator as f64;
    for full_block in [8u64 << 20, 16 << 20, 32 << 20, 64 << 20, 128 << 20] {
        let block = scale.block(full_block).max(16 << 10);
        let fs = SimFs::new(lustre_scaled(scale));
        let topo = Topology::new(nodes, 16);
        fs.set_active_ranks(topo.ranks());
        let bytes = install_dataset(
            &fs,
            &ds,
            scale,
            "roads.wkt",
            Some(StripeSpec::new(32, block)),
        );
        let iters = bytes.div_ceil(topo.ranks() as u64 * block);
        let opts = ReadOptions::default()
            .with_level(AccessLevel::Level0)
            .with_block_size(block)
            .with_max_geometry_bytes(block.max(16 << 10));
        let cfg = WorldConfig::new(topo).with_cost(cost_scaled(scale));
        let times = World::run(cfg, |comm| {
            read_partition_text(comm, &fs, "roads.wkt", &opts).unwrap();
            comm.now()
        });
        let time = times.into_iter().fold(0.0, f64::max);
        t.row(vec![
            crate::report::human_bytes(full_block),
            iters.to_string(),
            format!("{:.2}", time * d),
        ]);
    }
    t.note("paper §5.1.1: fewer iterations (larger blocks) means fewer file accesses and ring messages; compute-bound apps still want fine grain for balance");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_maps_produce_identical_join_results() {
        // Breakdown aside, the *answer* must not depend on the map.
        let scale = Scale {
            denominator: 50_000,
        };
        let pairs_with = |decomp: DecompPolicy| {
            let fs = SimFs::new(gpfs_scaled(scale));
            fs.set_active_ranks(4);
            install_dataset(&fs, &spec("Lakes"), scale, "l.wkt", None);
            install_dataset(&fs, &spec("Cemetery"), scale, "r.wkt", None);
            let opts = JoinOptions {
                grid: GridSpec::square(8),
                decomp,
                read: ReadOptions::default().with_block_size(128 << 10),
                ..Default::default()
            };
            let out = World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
                spatial_join(comm, &fs, "l.wkt", "r.wkt", &opts)
                    .unwrap()
                    .pairs
            });
            let mut all: Vec<(String, String)> = out.into_iter().flatten().collect();
            all.sort();
            all
        };
        let rr = pairs_with(DecompPolicy::Uniform(CellMap::RoundRobin));
        let blk = pairs_with(DecompPolicy::Uniform(CellMap::Block));
        let hil = pairs_with(DecompPolicy::Hilbert);
        assert_eq!(rr, blk);
        assert_eq!(rr, hil);
    }

    #[test]
    fn larger_blocks_do_not_slow_the_read() {
        let scale = Scale {
            denominator: 100_000,
        };
        let s = blocks(scale, true);
        assert!(s.contains("Ablation"));
    }
}
