//! Virtual time: the cost model every phase charges against.
//!
//! All timing in the reproduction is *virtual*: communication and I/O
//! charge analytic models, and compute charges per-operation constants
//! multiplied by the **actual** work performed (bytes parsed, MBR tests
//! run, vertices compared). Nothing sleeps; nothing reads the wall clock.
//!
//! ## Calibration
//!
//! Compute constants are fit to Table 3 of the paper (sequential I/O +
//! parse times on ROGER): All Objects (92 GB of polygons) parses at
//! ≈ 49 ns/byte, Road Network (137 GB of polylines) at ≈ 20 ns/byte, and
//! All Nodes (96 GB of points) at ≈ 38 ns/byte. Communication constants
//! are generic FDR-InfiniBand numbers (≈ 3 µs latency, ≈ 6 GB/s
//! point-to-point bandwidth).

/// Shape class used to pick the per-byte parse cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeClass {
    Point,
    Line,
    Polygon,
}

/// A unit of accountable work. Variants mirror the phases of the paper's
/// pipeline; each is converted to virtual seconds by [`CostModel::cost`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Work {
    /// Parsing `bytes` of WKT text of the given shape class.
    ParseWkt { bytes: u64, class: ShapeClass },
    /// Bulk movement of `n` bytes that are already encoded: a memcpy,
    /// buffer packing, forwarding a wire record or emitting one from an
    /// existing encoding, a validation scan. No per-object price: an
    /// object that is not encoded here is not charged as one.
    CopyBytes { n: u64 },
    /// Encoding (or decoding into owned objects) `n` geometry *objects*
    /// totalling `bytes`: per-object overhead (WKB writer/reader,
    /// allocation, buffer bookkeeping) plus the byte copy. This is the
    /// paper's "communication buffer management" cost, and it is charged
    /// only where the code encodes an object; copying the resulting
    /// bytes again is [`Work::CopyBytes`].
    SerializeGeoms { n: u64, bytes: u64 },
    /// `n` rectangle-overlap tests (the filter phase unit).
    MbrTests { n: u64 },
    /// One refine-phase candidate pair with the given vertex counts
    /// (cost ∝ the segment-pair comparisons actually executed).
    RefinePair { verts_a: u64, verts_b: u64 },
    /// `n` R-tree insertions.
    RtreeInserts { n: u64 },
    /// `n` R-tree queries returning `results` total hits.
    RtreeQueries { n: u64, results: u64 },
    /// An explicit duration in virtual seconds (escape hatch for
    /// experiment-specific costs that are documented at the call site).
    Seconds(f64),
}

/// Calibrated cost constants. One instance is shared by a whole job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Point-to-point message latency (α), seconds.
    pub comm_latency: f64,
    /// Point-to-point bandwidth (1/β), bytes per second.
    pub comm_bandwidth: f64,
    /// Per-byte cost of a local memory copy (pack/unpack/serialize).
    pub byte_copy: f64,
    /// WKT parse cost per byte — polygons (heaviest: ring structure,
    /// coordinate pairs, hole bookkeeping).
    pub parse_polygon_per_byte: f64,
    /// WKT parse cost per byte — polylines.
    pub parse_line_per_byte: f64,
    /// WKT/CSV parse cost per byte — points.
    pub parse_point_per_byte: f64,
    /// One rectangle-rectangle overlap test.
    pub mbr_test: f64,
    /// Per-geometry-object serialization/deserialization overhead
    /// (calibrated to GEOS WKB writer + buffer management ≈ 12 µs).
    pub serialize_per_geometry: f64,
    /// Fixed per-call overhead of one exact `intersects` refine test
    /// (GEOS object traversal, allocation and setup ≈ 150 µs, dominating small pairs).
    pub refine_fixed: f64,
    /// One segment-pair orientation/intersection evaluation in refine.
    pub segment_pair_test: f64,
    /// One R-tree insert.
    pub rtree_insert: f64,
    /// Fixed cost of one R-tree query descent.
    pub rtree_query: f64,
    /// Per-result cost of an R-tree query.
    pub rtree_result: f64,
}

impl CostModel {
    /// Constants calibrated against the paper's clusters (see module docs).
    pub fn calibrated() -> Self {
        CostModel {
            comm_latency: 3.0e-6,
            comm_bandwidth: 6.0e9,
            byte_copy: 0.1e-9,
            parse_polygon_per_byte: 45.0e-9,
            parse_line_per_byte: 20.0e-9,
            parse_point_per_byte: 38.0e-9,
            mbr_test: 20.0e-9,
            serialize_per_geometry: 12.0e-6,
            refine_fixed: 150.0e-6,
            segment_pair_test: 6.0e-9,
            rtree_insert: 400.0e-9,
            rtree_query: 300.0e-9,
            rtree_result: 25.0e-9,
        }
    }

    /// Converts a [`Work`] quantum to virtual seconds.
    pub fn cost(&self, work: Work) -> f64 {
        match work {
            Work::ParseWkt { bytes, class } => {
                let per = match class {
                    ShapeClass::Point => self.parse_point_per_byte,
                    ShapeClass::Line => self.parse_line_per_byte,
                    ShapeClass::Polygon => self.parse_polygon_per_byte,
                };
                bytes as f64 * per
            }
            Work::CopyBytes { n } => n as f64 * self.byte_copy,
            Work::SerializeGeoms { n, bytes } => {
                n as f64 * self.serialize_per_geometry + bytes as f64 * self.byte_copy
            }
            Work::MbrTests { n } => n as f64 * self.mbr_test,
            Work::RefinePair { verts_a, verts_b } => {
                // Fixed call overhead plus all-pairs segment comparison
                // bounded by the product; the callers pass the *actual*
                // vertex counts of the pair.
                self.refine_fixed
                    + (verts_a.max(1) as f64) * (verts_b.max(1) as f64) * self.segment_pair_test
            }
            Work::RtreeInserts { n } => n as f64 * self.rtree_insert,
            Work::RtreeQueries { n, results } => {
                n as f64 * self.rtree_query + results as f64 * self.rtree_result
            }
            Work::Seconds(s) => s,
        }
    }

    /// One point-to-point message of `bytes`: α + bytes·β.
    pub fn p2p(&self, bytes: u64) -> f64 {
        self.comm_latency + bytes as f64 / self.comm_bandwidth
    }

    /// Synchronization cost of a `p`-rank barrier (dissemination tree).
    pub fn barrier(&self, p: usize) -> f64 {
        self.comm_latency * ceil_log2(p)
    }

    /// Binomial-tree broadcast of `bytes` to `p` ranks.
    pub fn bcast(&self, p: usize, bytes: u64) -> f64 {
        self.p2p(bytes) * ceil_log2(p)
    }

    /// Tree reduction of `bytes` with a per-byte combine cost folded in.
    pub fn reduce(&self, p: usize, bytes: u64) -> f64 {
        (self.p2p(bytes) + bytes as f64 * self.byte_copy) * ceil_log2(p)
    }

    /// Personalized all-to-all where this rank sends `send` bytes total and
    /// receives `recv` bytes total.
    pub fn alltoall(&self, p: usize, send: u64, recv: u64) -> f64 {
        self.comm_latency * p as f64 + (send + recv) as f64 / self.comm_bandwidth
    }
}

#[inline]
fn ceil_log2(p: usize) -> f64 {
    if p <= 1 {
        0.0
    } else {
        (p as f64).log2().ceil()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_costs_rank_polygon_heaviest_per_byte() {
        let m = CostModel::calibrated();
        let poly = m.cost(Work::ParseWkt {
            bytes: 1_000,
            class: ShapeClass::Polygon,
        });
        let line = m.cost(Work::ParseWkt {
            bytes: 1_000,
            class: ShapeClass::Line,
        });
        let point = m.cost(Work::ParseWkt {
            bytes: 1_000,
            class: ShapeClass::Point,
        });
        assert!(poly > point && point > line);
    }

    #[test]
    fn calibration_matches_table3_magnitudes() {
        // All Objects: 92 GB of polygons parsed sequentially in ~4728 s.
        let m = CostModel::calibrated();
        let t = m.cost(Work::ParseWkt {
            bytes: 92 * (1 << 30),
            class: ShapeClass::Polygon,
        });
        assert!((3000.0..6000.0).contains(&t), "All Objects parse ≈ {t} s");
        // Road Network: 137 GB of lines in ~2873 s.
        let t = m.cost(Work::ParseWkt {
            bytes: 137 * (1 << 30),
            class: ShapeClass::Line,
        });
        assert!((2000.0..4000.0).contains(&t), "Road Network parse ≈ {t} s");
        // All Nodes: 96 GB of points in ~3782 s.
        let t = m.cost(Work::ParseWkt {
            bytes: 96 * (1 << 30),
            class: ShapeClass::Point,
        });
        assert!((3000.0..5000.0).contains(&t), "All Nodes parse ≈ {t} s");
    }

    #[test]
    fn p2p_is_alpha_beta() {
        let m = CostModel::calibrated();
        assert!((m.p2p(0) - 3.0e-6).abs() < 1e-12);
        assert!(m.p2p(6_000_000_000) > 1.0);
    }

    #[test]
    fn collective_costs_grow_logarithmically() {
        let m = CostModel::calibrated();
        assert_eq!(m.barrier(1), 0.0);
        assert!(m.barrier(2) > 0.0);
        assert!(m.barrier(1024) > m.barrier(32));
        // log2(1024) = 10 vs log2(32) = 5: exactly double.
        assert!((m.barrier(1024) / m.barrier(32) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn refine_cost_scales_with_vertex_product_past_fixed_overhead() {
        let m = CostModel::calibrated();
        let small = m.cost(Work::RefinePair {
            verts_a: 10,
            verts_b: 10,
        });
        let big = m.cost(Work::RefinePair {
            verts_a: 10_000,
            verts_b: 10_000,
        });
        // Small pairs are dominated by the fixed GEOS-call overhead…
        assert!((small - m.refine_fixed).abs() / m.refine_fixed < 0.1);
        // …huge pairs by the vertex product.
        assert!(big > 100.0 * small);
    }

    #[test]
    fn serialize_cost_has_per_object_term() {
        let m = CostModel::calibrated();
        // Same bytes, more objects -> strictly more time.
        let few = m.cost(Work::SerializeGeoms {
            n: 10,
            bytes: 1 << 20,
        });
        let many = m.cost(Work::SerializeGeoms {
            n: 10_000,
            bytes: 1 << 20,
        });
        assert!(many > few * 10.0);
    }

    #[test]
    fn alltoall_scales_with_p_and_bytes() {
        let m = CostModel::calibrated();
        let a = m.alltoall(16, 1 << 20, 1 << 20);
        let b = m.alltoall(64, 1 << 20, 1 << 20);
        assert!(b > a);
        let c = m.alltoall(16, 8 << 20, 8 << 20);
        assert!(c > a);
    }
}
