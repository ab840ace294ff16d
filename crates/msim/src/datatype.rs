//! MPI derived datatypes: contiguous, indexed, struct.
//!
//! The paper leans on these in three places:
//! * `MPI_Type_contiguous` / `MPI_Type_struct` for fixed-size spatial
//!   records (Figure 12 compares their read performance);
//! * strided, round-robin file views (Figure 4), which tile one of these
//!   by a per-rank skip and stride ([`crate::io::FileView`]); a gapped
//!   filetype is an indexed one;
//! * `MPI_type_indexed` for variable-length polygon views built from
//!   vertex-count and displacement arrays (§4.1, Figure 16).
//!
//! A datatype describes a *byte layout*: [`Datatype::fragments`] flattens
//! it into `(offset, len)` runs, which is what the non-contiguous file
//! views consume.

use crate::MsimError;

/// A (possibly non-contiguous) byte-layout description.
#[derive(Debug, Clone, PartialEq)]
pub enum Datatype {
    /// One byte (`MPI_BYTE` / `MPI_CHAR`).
    Byte,
    /// Four-byte little-endian integer (`MPI_INT`).
    Int32,
    /// Eight-byte little-endian integer (`MPI_LONG_LONG`).
    Int64,
    /// Eight-byte IEEE double (`MPI_DOUBLE`).
    Double,
    /// `count` copies of `inner`, back to back (`MPI_Type_contiguous`).
    Contiguous { count: usize, inner: Box<Datatype> },
    /// Blocks of varying length at varying displacements
    /// (`MPI_Type_indexed`); lengths and displacements are in inner-element
    /// units. This is the type the paper builds from vertex-count and
    /// offset arrays for variable-length polygons.
    Indexed {
        blocklens: Vec<usize>,
        displs: Vec<usize>,
        inner: Box<Datatype>,
    },
    /// Explicit fields at explicit byte offsets with an explicit total
    /// extent (`MPI_Type_create_struct`).
    Struct {
        fields: Vec<StructField>,
        extent: usize,
    },
}

/// One field of a [`Datatype::Struct`].
#[derive(Debug, Clone, PartialEq)]
pub struct StructField {
    /// Byte offset of the field within the struct extent.
    pub offset: usize,
    /// Number of consecutive `ty` elements.
    pub count: usize,
    /// Element type.
    pub ty: Datatype,
}

impl Datatype {
    /// `MPI_Type_contiguous(count, inner)`.
    pub fn contiguous(count: usize, inner: Datatype) -> Datatype {
        Datatype::Contiguous {
            count,
            inner: Box::new(inner),
        }
    }

    /// `MPI_Type_indexed(blocklens, displs, inner)`.
    pub fn indexed(blocklens: Vec<usize>, displs: Vec<usize>, inner: Datatype) -> Datatype {
        Datatype::Indexed {
            blocklens,
            displs,
            inner: Box::new(inner),
        }
    }

    /// The paper's `MPI_RECT`: a contiguous run of 4 doubles (§4.2.1).
    pub fn mpi_rect() -> Datatype {
        Datatype::contiguous(4, Datatype::Double)
    }

    /// The paper's `MPI_POINT`: 2 contiguous doubles.
    pub fn mpi_point() -> Datatype {
        Datatype::contiguous(2, Datatype::Double)
    }

    /// The paper's `MPI_LINE` (a segment): 2 contiguous points.
    pub fn mpi_line() -> Datatype {
        Datatype::contiguous(2, Datatype::mpi_point())
    }

    /// An `MPI_RECT` expressed as a struct of four named doubles —
    /// the `MPI_Type_struct` variant Figure 12 benchmarks against the
    /// contiguous variant.
    pub fn mpi_rect_struct() -> Datatype {
        Datatype::Struct {
            fields: (0..4)
                .map(|i| StructField {
                    offset: i * 8,
                    count: 1,
                    ty: Datatype::Double,
                })
                .collect(),
            extent: 32,
        }
    }

    /// Payload bytes of one instance (sum of leaf sizes, gaps excluded).
    pub fn size(&self) -> usize {
        match self {
            Datatype::Byte => 1,
            Datatype::Int32 => 4,
            Datatype::Int64 | Datatype::Double => 8,
            Datatype::Contiguous { count, inner } => count * inner.size(),
            Datatype::Indexed {
                blocklens, inner, ..
            } => blocklens.iter().sum::<usize>() * inner.size(),
            Datatype::Struct { fields, .. } => fields.iter().map(|f| f.count * f.ty.size()).sum(),
        }
    }

    /// Extent of one instance: the span from the first to one past the
    /// last byte, gaps included. Tiling a file view advances by the extent.
    pub fn extent(&self) -> usize {
        match self {
            Datatype::Byte => 1,
            Datatype::Int32 => 4,
            Datatype::Int64 | Datatype::Double => 8,
            Datatype::Contiguous { count, inner } => count * inner.extent(),
            Datatype::Indexed {
                blocklens,
                displs,
                inner,
            } => blocklens
                .iter()
                .zip(displs)
                .map(|(l, d)| (d + l) * inner.extent())
                .max()
                .unwrap_or(0),
            Datatype::Struct { extent, .. } => *extent,
        }
    }

    /// Flattens one instance into coalesced `(byte_offset, byte_len)`
    /// fragments relative to the instance start, in ascending offset order.
    pub fn fragments(&self) -> Vec<(usize, usize)> {
        let mut frags = Vec::new();
        self.collect_fragments(0, &mut frags);
        frags.sort_unstable();
        // Coalesce adjacent runs.
        let mut out: Vec<(usize, usize)> = Vec::with_capacity(frags.len());
        for (off, len) in frags {
            if let Some(last) = out.last_mut() {
                if last.0 + last.1 == off {
                    last.1 += len;
                    continue;
                }
            }
            out.push((off, len));
        }
        out
    }

    fn collect_fragments(&self, base: usize, out: &mut Vec<(usize, usize)>) {
        match self {
            Datatype::Byte | Datatype::Int32 | Datatype::Int64 | Datatype::Double => {
                out.push((base, self.size()));
            }
            Datatype::Contiguous { count, inner } => {
                let ext = inner.extent();
                // A contiguous run of leaf types is a single fragment.
                if inner.is_dense() {
                    out.push((base, count * ext));
                } else {
                    for i in 0..*count {
                        inner.collect_fragments(base + i * ext, out);
                    }
                }
            }
            Datatype::Indexed {
                blocklens,
                displs,
                inner,
            } => {
                let ext = inner.extent();
                for (l, d) in blocklens.iter().zip(displs) {
                    let start = base + d * ext;
                    if inner.is_dense() {
                        out.push((start, l * ext));
                    } else {
                        for j in 0..*l {
                            inner.collect_fragments(start + j * ext, out);
                        }
                    }
                }
            }
            Datatype::Struct { fields, .. } => {
                for f in fields {
                    let ext = f.ty.extent();
                    if f.ty.is_dense() {
                        out.push((base + f.offset, f.count * ext));
                    } else {
                        for j in 0..f.count {
                            f.ty.collect_fragments(base + f.offset + j * ext, out);
                        }
                    }
                }
            }
        }
    }

    /// `true` when size == extent, i.e. the layout has no gaps.
    fn is_dense(&self) -> bool {
        self.size() == self.extent()
    }

    /// Validates internal consistency (indexed arrays same length,
    /// non-overlapping struct fields are *not* checked — MPI permits them).
    pub fn validate(&self) -> Result<(), MsimError> {
        match self {
            Datatype::Indexed {
                blocklens,
                displs,
                inner,
            } => {
                if blocklens.len() != displs.len() {
                    return Err(MsimError::BadDatatype(format!(
                        "indexed: {} blocklens vs {} displs",
                        blocklens.len(),
                        displs.len()
                    )));
                }
                inner.validate()
            }
            Datatype::Contiguous { inner, .. } => inner.validate(),
            Datatype::Struct { fields, extent } => {
                for f in fields {
                    f.ty.validate()?;
                    if f.offset + f.count * f.ty.extent() > *extent {
                        return Err(MsimError::BadDatatype(format!(
                            "struct field at offset {} overruns extent {extent}",
                            f.offset
                        )));
                    }
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `MPI_Type_vector(count, blocklen, stride, inner)` layout as
    /// an indexed type: `count` blocks of `blocklen`, `stride` apart.
    fn vector(count: usize, blocklen: usize, stride: usize, inner: Datatype) -> Datatype {
        let displs = (0..count).map(|i| i * stride).collect();
        Datatype::indexed(vec![blocklen; count], displs, inner)
    }

    #[test]
    fn primitive_sizes() {
        assert_eq!(Datatype::Byte.size(), 1);
        assert_eq!(Datatype::Int32.size(), 4);
        assert_eq!(Datatype::Double.size(), 8);
        assert!(Datatype::Double.is_dense());
    }

    #[test]
    fn mpi_rect_is_four_doubles() {
        let r = Datatype::mpi_rect();
        assert_eq!(r.size(), 32);
        assert_eq!(r.extent(), 32);
        assert_eq!(r.fragments(), vec![(0, 32)]);
        // The struct formulation has the identical layout.
        let s = Datatype::mpi_rect_struct();
        assert_eq!(s.size(), 32);
        assert_eq!(s.extent(), 32);
        assert_eq!(s.fragments(), vec![(0, 32)]);
    }

    #[test]
    fn vector_with_gaps() {
        // 3 blocks of 2 doubles every 4 doubles: the column-of-a-matrix
        // pattern from the paper's background section.
        let v = vector(3, 2, 4, Datatype::Double);
        assert_eq!(v.size(), 3 * 2 * 8);
        assert_eq!(v.extent(), (2 * 4 + 2) * 8);
        assert!(!v.is_dense());
        assert_eq!(v.fragments(), vec![(0, 16), (32, 16), (64, 16)]);
    }

    #[test]
    fn contiguous_of_vector_tiles_by_extent() {
        let v = vector(2, 1, 2, Datatype::Byte); // bytes at 0 and 2
        assert_eq!(v.extent(), 3);
        let c = Datatype::contiguous(2, v);
        // Instance 1 tiles at base 3 (bytes 3 and 5); bytes 2 and 3 coalesce.
        assert_eq!(c.fragments(), vec![(0, 1), (2, 2), (5, 1)]);
    }

    #[test]
    fn indexed_fragments_follow_displacements() {
        let idx = Datatype::indexed(vec![2, 1, 3], vec![0, 4, 8], Datatype::Double);
        assert_eq!(idx.size(), 6 * 8);
        assert_eq!(idx.extent(), 11 * 8);
        assert_eq!(idx.fragments(), vec![(0, 16), (32, 8), (64, 24)]);
    }

    #[test]
    fn struct_fragments_respect_offsets() {
        // {int32 at 0, double at 8} with extent 16 (padding after the int).
        let s = Datatype::Struct {
            fields: vec![
                StructField {
                    offset: 0,
                    count: 1,
                    ty: Datatype::Int32,
                },
                StructField {
                    offset: 8,
                    count: 1,
                    ty: Datatype::Double,
                },
            ],
            extent: 16,
        };
        assert_eq!(s.size(), 12);
        assert_eq!(s.extent(), 16);
        assert_eq!(s.fragments(), vec![(0, 4), (8, 8)]);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn validation_catches_inconsistencies() {
        let bad = Datatype::indexed(vec![1, 2], vec![0], Datatype::Byte);
        assert!(bad.validate().is_err());
        let bad2 = Datatype::Struct {
            fields: vec![StructField {
                offset: 12,
                count: 1,
                ty: Datatype::Double,
            }],
            extent: 16,
        };
        assert!(bad2.validate().is_err());
    }

    #[test]
    fn fragments_coalesce_adjacent_runs() {
        // Indexed blocks that touch: [0..2) and [2..4) doubles.
        let idx = Datatype::indexed(vec![2, 2], vec![0, 2], Datatype::Double);
        assert_eq!(idx.fragments(), vec![(0, 32)]);
        assert!(idx.is_dense());
    }
}
