//! Non-contiguous file views for spatial data (paper §4.1, Figures 4, 15,
//! 16): Level-3 access through derived datatypes.
//!
//! Two flavours:
//! * **Fixed-size records** (points, segments, MBRs): a contiguous record
//!   type tiled round-robin across ranks — "cells are distributed among
//!   MPI processes in a round-robin fashion for load-balancing".
//! * **Variable-length geometries** (polygons/polylines): requires the
//!   preprocessing step the paper describes — "vertex count and
//!   displacement arrays … are populated as a preprocessing step. Using
//!   these auxiliary arrays, MPI_type_indexed derived data type is
//!   created".

use crate::sptypes::{decode_rects, RECT_RECORD_BYTES};
use crate::Result;
use mvio_geom::Rect;
use mvio_msim::io::FileView;
use mvio_msim::{Comm, Datatype, MpiFile};

/// Builds the Level-3 view for blocks of `records_per_block` fixed-size
/// records of `record_bytes` each. Rank `r` of `p` reads block instances
/// `r, r+p, r+2p, …` (Figure 4's round-robin layout).
fn fixed_record_view(records_per_block: usize, record_bytes: usize) -> Result<FileView> {
    let record = Datatype::contiguous(record_bytes, Datatype::Byte);
    let block = Datatype::contiguous(records_per_block, record);
    Ok(FileView::new(0, block)?)
}

/// Builds an `MPI_type_indexed` view for variable-length geometries from
/// the preprocessed per-geometry byte lengths and file offsets. The
/// `assigned` list selects which geometries this rank reads (e.g. its
/// round-robin share).
pub fn indexed_geometry_view(
    lengths: &[u64],
    offsets: &[u64],
    assigned: &[usize],
) -> Result<FileView> {
    let blocklens: Vec<usize> = assigned.iter().map(|&i| lengths[i] as usize).collect();
    let displs: Vec<usize> = assigned.iter().map(|&i| offsets[i] as usize).collect();
    let ty = Datatype::indexed(blocklens, displs, Datatype::Byte);
    ty.validate()?;
    Ok(FileView::new(0, ty)?)
}

/// Reads this rank's round-robin share of a binary rect-record file via a
/// Level-3 collective read. `records_per_block` controls the granularity
/// (the block-size axis of Figure 15).
pub fn read_rects_level3(
    comm: &mut Comm,
    file: &mut MpiFile,
    total_records: u64,
    records_per_block: usize,
) -> Result<Vec<Rect>> {
    let p = comm.size() as u64;
    let rank = comm.rank() as u64;
    let blocks_total = total_records.div_ceil(records_per_block as u64);
    let my_records = count_my_records(
        total_records,
        records_per_block as u64,
        blocks_total,
        rank,
        p,
    );
    file.set_view(fixed_record_view(records_per_block, RECT_RECORD_BYTES)?);
    let mut buf = vec![0u8; (my_records * RECT_RECORD_BYTES as u64) as usize];
    let n = file.read_all(comm, rank, p, &mut buf)?;
    buf.truncate(n - n % RECT_RECORD_BYTES);
    Ok(decode_rects(&buf))
}

/// Records owned by `rank` under round-robin block distribution where the
/// final block may be short.
fn count_my_records(total: u64, per_block: u64, blocks_total: u64, rank: u64, p: u64) -> u64 {
    let mut n = 0;
    let mut b = rank;
    while b < blocks_total {
        let start = b * per_block;
        n += per_block.min(total - start);
        b += p;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sptypes::encode_rect;
    use mvio_msim::{Hints, Topology, World, WorldConfig};
    use mvio_pfs::{FsConfig, SimFs, StripeSpec};

    #[test]
    fn count_my_records_handles_short_final_block() {
        // 10 records, blocks of 4 -> blocks of sizes 4, 4, 2.
        assert_eq!(count_my_records(10, 4, 3, 0, 2), 4 + 2); // blocks 0, 2
        assert_eq!(count_my_records(10, 4, 3, 1, 2), 4); // block 1
    }

    #[test]
    fn fixed_view_fragments_are_record_aligned() {
        let v = fixed_record_view(8, RECT_RECORD_BYTES).unwrap();
        assert_eq!(v.filetype.size(), 8 * 32);
        // One dense run per block, so rank 1 of 4 reads instance 1 at
        // byte 8*32.
        assert_eq!(v.filetype.fragments(), vec![(0, 8 * 32)]);
        assert_eq!(v.filetype.extent(), 8 * 32);
    }

    #[test]
    fn round_robin_rect_read_partitions_disjointly() {
        let total = 64u64;
        let rects: Vec<Rect> = (0..total)
            .map(|i| Rect::new(i as f64, 0.0, i as f64 + 1.0, 1.0))
            .collect();
        let fs = SimFs::new(FsConfig::lustre_comet());
        let f = fs
            .create("rects.bin", Some(StripeSpec::new(4, 1 << 20)))
            .unwrap();
        let mut bytes = Vec::new();
        rects.iter().for_each(|r| encode_rect(r, &mut bytes));
        f.append(&bytes);

        let out = World::run(WorldConfig::new(Topology::new(2, 2)), |comm| {
            let mut file = MpiFile::open(&fs, "rects.bin", Hints::default()).unwrap();
            read_rects_level3(comm, &mut file, total, 4).unwrap()
        });
        // Every record exactly once across ranks.
        let mut all: Vec<f64> = out.iter().flatten().map(|r| r.min_x).collect();
        all.sort_by(f64::total_cmp);
        let expect: Vec<f64> = (0..total).map(|i| i as f64).collect();
        assert_eq!(all, expect);
        // Rank 0 got blocks 0, 4, 8, 12 -> records 0..4, 16..20, ...
        assert_eq!(out[0][0].min_x, 0.0);
        assert_eq!(out[0][4].min_x, 16.0);
        // Declustering: each rank's records are spread, not contiguous
        // (Figure 5b's fine-grained declustered partitioning).
        let r0: Vec<f64> = out[0].iter().map(|r| r.min_x).collect();
        assert!(r0.windows(2).any(|w| w[1] - w[0] > 1.0));
    }

    #[test]
    fn indexed_view_reads_scattered_geometries() {
        // A "file" with 4 variable-length blobs at known offsets.
        let blobs: Vec<Vec<u8>> = (1..=4u8).map(|i| vec![i; i as usize * 3]).collect();
        let mut data = Vec::new();
        let mut offsets = Vec::new();
        let mut lengths = Vec::new();
        for b in &blobs {
            offsets.push(data.len() as u64);
            lengths.push(b.len() as u64);
            data.extend_from_slice(b);
        }
        let fs = SimFs::new(FsConfig::lustre_comet());
        let f = fs.create("blobs.bin", None).unwrap();
        f.append(&data);

        let out = World::run(WorldConfig::new(Topology::single_node(2)), |comm| {
            // Rank 0 takes blobs 0 and 2, rank 1 takes 1 and 3.
            let assigned: Vec<usize> = (comm.rank()..4).step_by(2).collect();
            let view = indexed_geometry_view(&lengths, &offsets, &assigned).unwrap();
            let payload: usize = assigned.iter().map(|&i| lengths[i] as usize).sum();
            let mut file = MpiFile::open(&fs, "blobs.bin", Hints::default()).unwrap();
            file.set_view(view);
            let mut buf = vec![0u8; payload];
            // Each rank's view already encodes its own blocks; read one
            // instance (skip 0, stride 1).
            let n = file.read_all(comm, 0, 1, &mut buf).unwrap();
            assert_eq!(n, payload);
            buf
        });
        assert_eq!(out[0], [vec![1u8; 3], vec![3u8; 9]].concat());
        assert_eq!(out[1], [vec![2u8; 6], vec![4u8; 12]].concat());
    }
}
