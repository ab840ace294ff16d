//! Spatial derived datatypes (paper Table 2): the wire encoding of
//! `MPI_RECT` records in binary record files.
//!
//! Fixed-length spatial types (points, segments, MBRs) are stored in
//! binary as plain structs so "MPI-IO functions then directly read the
//! data as MPI datatypes" (§4.1) — regular, fast access, and easy custom
//! file views. The datatype descriptions are the `mpi_*` constructors
//! of [`mvio_msim::Datatype`]; this module encodes and decodes the rect
//! records the experiments read.

use mvio_geom::Rect;

/// Byte width of one `MPI_RECT` record (4 doubles).
pub const RECT_RECORD_BYTES: usize = 32;

/// Encodes a rectangle into its record.
pub fn encode_rect(r: &Rect, out: &mut Vec<u8>) {
    for v in r.to_array() {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Decodes a rectangle record.
fn decode_rect(buf: &[u8]) -> Rect {
    debug_assert!(buf.len() >= RECT_RECORD_BYTES);
    Rect::from_array([
        f64_at(buf, 0),
        f64_at(buf, 8),
        f64_at(buf, 16),
        f64_at(buf, 24),
    ])
}

/// Decodes a whole buffer of back-to-back rect records.
pub fn decode_rects(buf: &[u8]) -> Vec<Rect> {
    buf.chunks_exact(RECT_RECORD_BYTES)
        .map(decode_rect)
        .collect()
}

#[inline]
fn f64_at(buf: &[u8], off: usize) -> f64 {
    // audit: the range is exactly 8 bytes by construction.
    f64::from_le_bytes(buf[off..off + 8].try_into().expect("8 bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvio_msim::Datatype;

    #[test]
    fn datatype_sizes_match_record_widths() {
        assert_eq!(Datatype::mpi_point().size(), 16);
        assert_eq!(Datatype::mpi_line().size(), 32);
        assert_eq!(Datatype::mpi_rect().size(), RECT_RECORD_BYTES);
        assert_eq!(Datatype::mpi_rect_struct().size(), RECT_RECORD_BYTES);
    }

    #[test]
    fn rect_round_trip() {
        let r = Rect::new(-1.0, -2.0, 3.0, 4.0);
        let mut buf = Vec::new();
        encode_rect(&r, &mut buf);
        assert_eq!(decode_rect(&buf), r);
    }

    #[test]
    fn bulk_round_trips() {
        let rects: Vec<Rect> = (0..10)
            .map(|i| Rect::new(i as f64, 0.0, i as f64 + 1.0, 1.0))
            .collect();
        let mut buf = Vec::new();
        rects.iter().for_each(|r| encode_rect(r, &mut buf));
        assert_eq!(decode_rects(&buf), rects);
    }
}
