//! Figure 16: non-contiguous I/O for *polygon* (variable-length) data
//! with different block sizes, vs contiguous access.
//!
//! Variable-length geometries require the preprocessing the paper
//! describes: per-geometry byte lengths and displacements feed an
//! `MPI_type_indexed` view. Block size here is the number of polygons per
//! round-robin block.

use super::{cost_scaled, gpfs_scaled, install_dataset, spec, Scale};
use crate::report::Table;
use mvio_core::partition::{read_partition_text, ReadOptions};
use mvio_core::views::indexed_geometry_view;
use mvio_msim::{AccessLevel, Hints, MpiFile, Topology, World, WorldConfig};
use mvio_pfs::SimFs;
use std::sync::Arc;

/// Polygon-count block sizes the sweep uses.
pub const BLOCK_POLYGONS: [usize; 3] = [256, 512, 1024];

/// Preprocessing step: scans the WKT file once to build the per-record
/// length and offset arrays (the auxiliary arrays of §4.1).
pub fn preprocess_offsets(bytes: &[u8]) -> (Vec<u64>, Vec<u64>) {
    let mut lengths = Vec::new();
    let mut offsets = Vec::new();
    let mut start = 0u64;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            offsets.push(start);
            lengths.push(i as u64 + 1 - start);
            start = i as u64 + 1;
        }
    }
    if (start as usize) < bytes.len() {
        offsets.push(start);
        lengths.push(bytes.len() as u64 - start);
    }
    (lengths, offsets)
}

/// Times a Level-3 indexed read of the Lakes polygons: rank `r` reads
/// polygon blocks `r, r+p, …` of `block_polygons` records each.
pub fn noncontiguous_polygon_read(scale: Scale, procs: usize, block_polygons: usize) -> f64 {
    let ds = spec("Lakes");
    let fs = SimFs::new(gpfs_scaled(scale));
    let topo = topo_for(procs);
    fs.set_active_ranks(topo.ranks());
    install_dataset(&fs, &ds, scale, "lakes.wkt", None);
    let data = Arc::new(fs.open("lakes.wkt").unwrap().snapshot());
    let (lengths, offsets) = preprocess_offsets(&data);
    let lengths = Arc::new(lengths);
    let offsets = Arc::new(offsets);
    let cfg = WorldConfig::new(topo).with_cost(cost_scaled(scale));
    let times = World::run(cfg, move |comm| {
        let p = comm.size();
        let rank = comm.rank();
        let n = lengths.len();
        // Round-robin polygon blocks assigned to this rank.
        let mut assigned = Vec::new();
        let mut block = rank * block_polygons;
        while block < n {
            for i in block..(block + block_polygons).min(n) {
                assigned.push(i);
            }
            block += p * block_polygons;
        }
        let view = indexed_geometry_view(&lengths, &offsets, &assigned).unwrap();
        let payload: usize = assigned.iter().map(|&i| lengths[i] as usize).sum();
        let mut file = MpiFile::open(&fs, "lakes.wkt", Hints::default()).unwrap();
        file.set_view(view);
        let mut buf = vec![0u8; payload];
        file.read_all(comm, 0, 1, &mut buf).unwrap();
        comm.now()
    });
    times.into_iter().fold(0.0, f64::max)
}

/// Contiguous baseline over the same polygons (Level-1 blocked read).
pub fn contiguous_polygon_read(scale: Scale, procs: usize) -> f64 {
    let ds = spec("Lakes");
    let fs = SimFs::new(gpfs_scaled(scale));
    let topo = topo_for(procs);
    fs.set_active_ranks(topo.ranks());
    install_dataset(&fs, &ds, scale, "lakes.wkt", None);
    let opts = ReadOptions::default().with_level(AccessLevel::Level1);
    let cfg = WorldConfig::new(topo).with_cost(cost_scaled(scale));
    let times = World::run(cfg, |comm| {
        read_partition_text(comm, &fs, "lakes.wkt", &opts).unwrap();
        comm.now()
    });
    times.into_iter().fold(0.0, f64::max)
}

fn topo_for(procs: usize) -> Topology {
    let nodes = procs.div_ceil(20).max(1);
    Topology::new(nodes, procs.div_ceil(nodes))
}

/// Runs the Figure 16 sweep and renders the table.
pub fn run(scale: Scale, quick: bool) -> String {
    let procs_sweep: Vec<usize> = if quick { vec![20] } else { vec![20, 40, 80] };
    let mut headers = vec!["procs".to_string(), "contiguous (s)".to_string()];
    headers.extend(BLOCK_POLYGONS.iter().map(|b| format!("NC {b} polys (s)")));
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        format!(
            "Figure 16: non-contiguous polygon I/O (Lakes scaled 1/{}), indexed file views",
            scale.denominator
        ),
        &headers_ref,
    );
    let d = scale.denominator as f64;
    for &procs in &procs_sweep {
        let mut cells = vec![
            procs.to_string(),
            format!("{:.3}", contiguous_polygon_read(scale, procs) * d),
        ];
        for &b in &BLOCK_POLYGONS {
            cells.push(format!(
                "{:.3}",
                noncontiguous_polygon_read(scale, procs, b) * d
            ));
        }
        t.row(cells);
    }
    t.note("paper: contiguous wins and improves steadily; NC performance is very sensitive to block size and process count because polygon lengths vary widely");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preprocessing_splits_exact_records() {
        let text = b"aaa\nbb\ncccc\n";
        let (lens, offs) = preprocess_offsets(text);
        assert_eq!(lens, vec![4, 3, 5]);
        assert_eq!(offs, vec![0, 4, 7]);
        // No trailing newline case.
        let (lens2, offs2) = preprocess_offsets(b"xx\nyyy");
        assert_eq!(lens2, vec![3, 3]);
        assert_eq!(offs2, vec![0, 3]);
    }

    #[test]
    fn contiguous_beats_indexed_noncontiguous() {
        // On every row of the rendered sweep, against every block size.
        let table = run(Scale::default_repro(), false);
        for row in crate::report::rendered_rows(&table) {
            let secs: Vec<f64> = row[1..].iter().map(|c| c.parse().unwrap()).collect();
            assert!(secs[1..].iter().all(|&nc| secs[0] < nc), "{table}");
        }
    }
}
