//! Figure 15: 10 GB binary file read, contiguous (Level 1) vs
//! non-contiguous (Level 3) with block sizes of 1 K / 2 K / 4 K MBR
//! records.

use super::{cost_scaled, gpfs_scaled, Scale};
use crate::report::Table;
use mvio_core::sptypes::RECT_RECORD_BYTES;
use mvio_core::views::read_rects_level3;
use mvio_datagen::write_rect_records;
use mvio_geom::Rect;
use mvio_msim::{Hints, MpiFile, Topology, World, WorldConfig};
use mvio_pfs::SimFs;

/// Block sizes (records per block) the paper sweeps.
pub const BLOCK_SIZES: [usize; 3] = [1024, 2048, 4096];

/// Times a contiguous Level-1 read of the whole record file split evenly.
pub fn contiguous_read(scale: Scale, procs: usize, records: u64) -> f64 {
    let fs = SimFs::new(gpfs_scaled(scale));
    let topo = topo_for(procs);
    fs.set_active_ranks(topo.ranks());
    write_rect_records(
        &fs,
        "mbrs.bin",
        Rect::new(0.0, 0.0, 360.0, 180.0),
        records,
        0xF15,
    );
    let cfg = WorldConfig::new(topo).with_cost(cost_scaled(scale));
    let times = World::run(cfg, |comm| {
        let f = MpiFile::open(&fs, "mbrs.bin", Hints::default()).unwrap();
        let p = comm.size() as u64;
        let per = records.div_ceil(p);
        let first = comm.rank() as u64 * per;
        let count = per.min(records.saturating_sub(first));
        let mut buf = vec![0u8; (count * RECT_RECORD_BYTES as u64) as usize];
        f.read_at_all(comm, first * RECT_RECORD_BYTES as u64, &mut buf)
            .unwrap();
        comm.now()
    });
    times.into_iter().fold(0.0, f64::max)
}

/// Times a non-contiguous Level-3 round-robin read with the given block
/// size (records per block).
pub fn noncontiguous_read(scale: Scale, procs: usize, records: u64, block_records: usize) -> f64 {
    let fs = SimFs::new(gpfs_scaled(scale));
    let topo = topo_for(procs);
    fs.set_active_ranks(topo.ranks());
    write_rect_records(
        &fs,
        "mbrs.bin",
        Rect::new(0.0, 0.0, 360.0, 180.0),
        records,
        0xF15,
    );
    let cfg = WorldConfig::new(topo).with_cost(cost_scaled(scale));
    let times = World::run(cfg, move |comm| {
        let mut f = MpiFile::open(&fs, "mbrs.bin", Hints::default()).unwrap();
        let rects = read_rects_level3(comm, &mut f, records, block_records).unwrap();
        // Ranks beyond the block count legitimately read nothing.
        let blocks = records.div_ceil(block_records as u64);
        assert!(!rects.is_empty() || comm.rank() as u64 >= blocks);
        comm.now()
    });
    times.into_iter().fold(0.0, f64::max)
}

fn topo_for(procs: usize) -> Topology {
    let nodes = procs.div_ceil(20).max(1);
    Topology::new(nodes, procs.div_ceil(nodes))
}

/// Runs the Figure 15 sweep and renders the table.
pub fn run(scale: Scale, quick: bool) -> String {
    // 10 GB of 32-byte records full-scale.
    let records = ((10u64 << 30) / RECT_RECORD_BYTES as u64 / scale.denominator).max(8192);
    let procs_sweep: Vec<usize> = if quick { vec![20] } else { vec![20, 40, 80] };
    let mut headers = vec!["procs".to_string(), "contiguous (s)".to_string()];
    headers.extend(BLOCK_SIZES.iter().map(|b| format!("NC block {b} (s)")));
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        format!(
            "Figure 15: binary MBR file, contiguous vs non-contiguous access, GPFS ({records} records)"
        ),
        &headers_ref,
    );
    let d = scale.denominator as f64;
    for &procs in &procs_sweep {
        let mut cells = vec![
            procs.to_string(),
            format!("{:.3}", contiguous_read(scale, procs, records) * d),
        ];
        for &b in &BLOCK_SIZES {
            cells.push(format!(
                "{:.3}",
                noncontiguous_read(scale, procs, records, b) * d
            ));
        }
        t.row(cells);
    }
    t.note("paper: contiguous is much faster; non-contiguous improves with larger blocks (less aggregation and communication overhead)");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_beats_noncontiguous() {
        // On every row of the rendered sweep, against every block size:
        // with Level 1 and Level 3 on different two-phase models,
        // contiguous lost to block 1024 at 40 and 80 procs.
        let table = run(Scale::default_repro(), false);
        for row in crate::report::rendered_rows(&table) {
            let secs: Vec<f64> = row[1..].iter().map(|c| c.parse().unwrap()).collect();
            assert!(secs[1..].iter().all(|&nc| secs[0] < nc), "{table}");
        }
    }

    #[test]
    fn larger_nc_blocks_are_faster() {
        let scale = Scale {
            denominator: 50_000,
        };
        let records = 16_384;
        let small = noncontiguous_read(scale, 4, records, 64);
        let large = noncontiguous_read(scale, 4, records, 1024);
        assert!(
            large < small,
            "block 1024 ({large}) must beat block 64 ({small}) (Figure 15)"
        );
    }
}
