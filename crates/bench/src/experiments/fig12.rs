//! Figure 12: binary file reading with `MPI_Type_struct` vs
//! `MPI_Type_contiguous` on GPFS (Level 1).
//!
//! The paper's explanation (§5.1.2): "in case of the struct, MPI
//! implementation internally creates the C struct based on the data type
//! definition whereas in the contiguous case, user code creates a C
//! struct using 4 contiguous floating point numbers" — i.e. the
//! contiguous path pays an extra user-side conversion pass. Both paths
//! here do the real work they model: the struct path decodes records
//! directly from the read buffer; the contiguous path materializes an
//! intermediate `[f64; 4]` array per record first (and charges the copy).

use super::{cost_scaled, gpfs_scaled, Scale};
use crate::report::Table;
use mvio_core::sptypes::{decode_rects, RECT_RECORD_BYTES};
use mvio_datagen::write_rect_records;
use mvio_geom::Rect;
use mvio_msim::{Hints, MpiFile, Topology, Work, World, WorldConfig};
use mvio_pfs::SimFs;

/// Which datatype formulation the reader uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RectDatatype {
    /// `MPI_Type_struct`: records decode in place.
    Struct,
    /// `MPI_Type_contiguous` of 4 doubles: user code assembles each
    /// record through an intermediate array.
    Contiguous,
}

/// Reads `records` MBRs collectively and decodes them with the chosen
/// datatype style. Returns max-over-ranks virtual seconds.
pub fn read_binary_rects(
    scale: Scale,
    nodes: usize,
    ppn: usize,
    records: u64,
    datatype: RectDatatype,
) -> f64 {
    let fs = SimFs::new(gpfs_scaled(scale));
    let topo = Topology::new(nodes, ppn);
    fs.set_active_ranks(topo.ranks());
    write_rect_records(
        &fs,
        "rects.bin",
        Rect::new(0.0, 0.0, 360.0, 180.0),
        records,
        0xF16,
    );
    let cfg = WorldConfig::new(topo).with_cost(cost_scaled(scale));
    let times = World::run(cfg, |comm| {
        let f = MpiFile::open(&fs, "rects.bin", Hints::default()).unwrap();
        let p = comm.size() as u64;
        let per = records.div_ceil(p);
        let my_first = comm.rank() as u64 * per;
        let my_count = per.min(records.saturating_sub(my_first));
        let mut buf = vec![0u8; (my_count * RECT_RECORD_BYTES as u64) as usize];
        f.read_at_all(comm, my_first * RECT_RECORD_BYTES as u64, &mut buf)
            .unwrap();

        let rects = match datatype {
            RectDatatype::Struct => {
                // MPI materializes the struct layout internally: one
                // bulk-memcpy-speed pass.
                comm.charge(Work::CopyBytes {
                    n: buf.len() as u64,
                });
                decode_rects(&buf)
            }
            RectDatatype::Contiguous => {
                // User code assembles each struct from 4 contiguous
                // doubles: a scalar element-by-element loop, really
                // executed, charged at a typical ~0.25 GB/s scalar-loop
                // rate rather than memcpy speed.
                comm.charge(Work::Seconds(buf.len() as f64 * 4.0e-9));
                let mut tmp = vec![0.0f64; buf.len() / 8];
                for (i, chunk) in buf.chunks_exact(8).enumerate() {
                    tmp[i] = f64::from_le_bytes(chunk.try_into().unwrap());
                }
                tmp.chunks_exact(4)
                    .map(|c| Rect::from_array([c[0], c[1], c[2], c[3]]))
                    .collect()
            }
        };
        assert_eq!(rects.len() as u64, my_count);
        comm.now()
    });
    times.into_iter().fold(0.0, f64::max)
}

/// Runs the Figure 12 comparison and renders the table.
pub fn run(scale: Scale, quick: bool) -> String {
    // The paper's binary file experiments use millions of records; scale
    // the count with the denominator from a 10^8-record full size.
    let records = (100_000_000u64 / scale.denominator).max(10_000);
    let procs_sweep: Vec<usize> = if quick {
        vec![20, 40]
    } else {
        vec![20, 40, 60, 80, 100]
    };
    let mut t = Table::new(
        format!("Figure 12: binary MBR read, Type_struct vs Type_contiguous, GPFS L1 ({records} records)"),
        &["procs", "struct (s, full-scale)", "contiguous (s, full-scale)", "struct speedup"],
    );
    for procs in procs_sweep {
        let nodes = procs.div_ceil(20);
        let s = read_binary_rects(scale, nodes, 20, records, RectDatatype::Struct);
        let c = read_binary_rects(scale, nodes, 20, records, RectDatatype::Contiguous);
        let d = scale.denominator as f64;
        t.row(vec![
            procs.to_string(),
            format!("{:.3}", s * d),
            format!("{:.3}", c * d),
            format!("{:.2}x", c / s.max(1e-12)),
        ]);
    }
    t.note("paper: MPI_Type_struct performs better — the contiguous variant pays a user-side struct-assembly pass");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn struct_beats_contiguous() {
        // On every row of the rendered sweep, as in Figure 12.
        let table = run(Scale::default_repro(), false);
        for row in crate::report::rendered_rows(&table) {
            let speedup: f64 = row[3].trim_end_matches('x').parse().unwrap();
            assert!(speedup > 1.0, "{table}");
        }
    }

    #[test]
    fn render_reports_speedup() {
        let s = run(
            Scale {
                denominator: 100_000,
            },
            true,
        );
        assert!(s.contains("struct speedup"));
    }
}
