//! Figure 10: message-based vs overlap file partitioning, Lakes (9 GB),
//! block 32 MB, three stripe counts.

use super::{cost_scaled, install_dataset, lustre_scaled, spec, Scale};
use crate::report::{human_bytes, Table};
use mvio_core::partition::{read_partition_text, BoundaryStrategy, ReadOptions};
use mvio_msim::{AccessLevel, Topology, World, WorldConfig};
use mvio_pfs::{SimFs, StripeSpec};

/// Stripe counts compared in the paper's figure.
pub const OST_COUNTS: [u32; 3] = [16, 32, 64];

/// Times one partitioned read with the given boundary strategy. Returns
/// max-over-ranks virtual seconds.
pub fn partition_time(
    scale: Scale,
    nodes: usize,
    ppn: usize,
    osts: u32,
    strategy: BoundaryStrategy,
) -> f64 {
    let ds = spec("Lakes");
    // Floors keep the halo above the largest scaled lake record (a
    // 1024-vertex WKT polygon is ~45 KB) while preserving the paper's
    // block:halo ratio at the default scale.
    let block = scale.block(32 << 20).max(128 << 10);
    let halo = scale.block(11 << 20).max(64 << 10); // the paper's 11 MB max geometry
    let fs = SimFs::new(lustre_scaled(scale));
    let topo = Topology::new(nodes, ppn);
    fs.set_active_ranks(topo.ranks());
    install_dataset(
        &fs,
        &ds,
        scale,
        "lakes.wkt",
        Some(StripeSpec::new(osts, block)),
    );
    let opts = ReadOptions::default()
        .with_level(AccessLevel::Level1)
        .with_strategy(strategy)
        .with_block_size(block)
        .with_max_geometry_bytes(halo);
    let cfg = WorldConfig::new(topo).with_cost(cost_scaled(scale));
    let times = World::run(cfg, |comm| {
        read_partition_text(comm, &fs, "lakes.wkt", &opts).unwrap();
        comm.now()
    });
    times.into_iter().fold(0.0, f64::max)
}

/// Runs the Figure 10 comparison and renders the table.
pub fn run(scale: Scale, quick: bool) -> String {
    let nodes_sweep: Vec<usize> = if quick { vec![4] } else { vec![4, 8, 16, 32] };
    let mut t = Table::new(
        format!(
            "Figure 10: message vs overlap partitioning, Lakes ({} scaled 1/{}), block 32 MB",
            human_bytes(spec("Lakes").paper_bytes),
            scale.denominator
        ),
        &[
            "OST",
            "nodes",
            "message (s, full-scale)",
            "overlap (s, full-scale)",
            "winner",
        ],
    );
    for &osts in &OST_COUNTS {
        for &nodes in &nodes_sweep {
            let msg = partition_time(scale, nodes, 16, osts, BoundaryStrategy::Message);
            let ovl = partition_time(scale, nodes, 16, osts, BoundaryStrategy::Overlap);
            let d = scale.denominator as f64;
            t.row(vec![
                osts.to_string(),
                nodes.to_string(),
                format!("{:.2}", msg * d),
                format!("{:.2}", ovl * d),
                if msg <= ovl {
                    "message".into()
                } else {
                    "overlap".into()
                },
            ]);
        }
    }
    t.note("paper: message-based wins — the 11 MB halo re-read per process outweighs exchanging the missing coordinates");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_beats_overlap() {
        // On every row of the rendered sweep, as in Figure 10.
        let table = run(Scale::default_repro(), false);
        for row in crate::report::rendered_rows(&table) {
            assert_eq!(row[4], "message", "{table}");
        }
    }

    #[test]
    fn render_declares_winners() {
        let s = run(
            Scale {
                denominator: 100_000,
            },
            true,
        );
        assert!(s.contains("winner"));
        assert!(s.contains("message"));
    }
}
