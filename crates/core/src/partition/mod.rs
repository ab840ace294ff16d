//! File partitioning for variable-length geometries.
//!
//! "Simple partitioning by file-blocks fails due to geometries getting
//! split across two consecutive MPI ranks" (paper §3). This module
//! implements both repairs the paper designs and compares (Figure 10):
//!
//! * [`BoundaryStrategy::Message`] — Algorithm 1: non-overlapping fixed
//!   blocks; each rank scans back to the last record delimiter in its
//!   block and passes the dangling tail to its ring successor using the
//!   deadlock-free even/odd send-recv schedule.
//! * [`BoundaryStrategy::Overlap`] — halo reads: each rank redundantly
//!   reads `max_geometry_bytes` past its block and resolves record
//!   ownership locally (a record belongs to the rank whose block contains
//!   its first byte).
//!
//! Both guarantee *exactly-once* delivery of every record, which the
//! integration tests verify against sequential parses.

pub mod baseline;
mod blocked;
mod overlap;

pub use baseline::{read_master_scatter, read_redundant};
pub use blocked::read_blocked;
pub use overlap::read_overlap;

use crate::Result;
use mvio_msim::{AccessLevel, Comm, Hints, MpiFile};
use mvio_pfs::SimFs;
use std::sync::Arc;

/// The one record delimiter: every partitioned read, the chunk splitter
/// and the record parser cut text files on newlines (one WKT record per
/// line).
pub const RECORD_DELIMITER: u8 = b'\n';

/// How block-boundary record splits are repaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryStrategy {
    /// Algorithm 1: ring messages carry the incomplete tails (no redundant
    /// I/O; the winner in Figure 10).
    Message,
    /// Halo reads: redundant overlapping I/O, no messages.
    Overlap,
}

/// Options controlling a partitioned read.
#[derive(Debug, Clone, Copy)]
pub struct ReadOptions {
    /// Contiguous access level: independent (`Level0`) or collective
    /// (`Level1`). `Level3` is not a contiguous mode; use [`crate::views`].
    pub level: AccessLevel,
    /// Boundary repair strategy.
    pub strategy: BoundaryStrategy,
    /// Bytes per process per iteration. `None` divides the file equally
    /// (single iteration), as the paper does when no block size is given.
    pub block_size: Option<u64>,
    /// Upper bound on one record's size; sizes the receive buffers
    /// (message strategy) and the halo (overlap strategy). The paper uses
    /// 11 MB — its largest OSM polygon.
    pub max_geometry_bytes: u64,
    /// MPI-IO hints used when opening the file.
    pub hints: Hints,
}

impl Default for ReadOptions {
    fn default() -> Self {
        ReadOptions {
            level: AccessLevel::Level0,
            strategy: BoundaryStrategy::Message,
            block_size: None,
            max_geometry_bytes: 11 << 20,
            hints: Hints::default(),
        }
    }
}

impl ReadOptions {
    /// Sets the access level.
    pub fn with_level(mut self, level: AccessLevel) -> Self {
        self.level = level;
        self
    }

    /// Sets the boundary strategy.
    pub fn with_strategy(mut self, strategy: BoundaryStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the per-process block size.
    pub fn with_block_size(mut self, bytes: u64) -> Self {
        self.block_size = Some(bytes);
        self
    }

    /// Sets the maximum geometry size.
    pub fn with_max_geometry_bytes(mut self, bytes: u64) -> Self {
        self.max_geometry_bytes = bytes;
        self
    }
}

/// Reads this rank's partition of a record-delimited text file and returns
/// the raw text of the records it owns (concatenated, delimiter-separated).
///
/// Every rank must call this (the collective level and the ring exchanges
/// require full participation).
///
/// # Errors
/// Returns [`crate::CoreError::InvalidOptions`] without touching the file
/// when `block_size` is `Some(0)` (the per-iteration divisor) or
/// `max_geometry_bytes` is `0` (the halo / receive-buffer bound): both
/// previously produced divide-by-zero panics or silently empty halo reads
/// deep inside the strategies.
pub fn read_partition_text(
    comm: &mut Comm,
    fs: &Arc<SimFs>,
    path: &str,
    opts: &ReadOptions,
) -> Result<String> {
    if opts.block_size == Some(0) {
        return Err(crate::CoreError::InvalidOptions(
            "block_size must be at least 1 byte (or None for an equal split)".into(),
        ));
    }
    if opts.max_geometry_bytes == 0 {
        return Err(crate::CoreError::InvalidOptions(
            "max_geometry_bytes must be nonzero: it bounds record size and sizes the \
             halo/receive buffers"
                .into(),
        ));
    }
    let file = MpiFile::open(fs, path, opts.hints)?;
    match opts.strategy {
        BoundaryStrategy::Message => read_blocked(comm, &file, opts),
        BoundaryStrategy::Overlap => read_overlap(comm, &file, opts),
    }
}

/// Scans backwards from the end of `buf` for the last
/// [`RECORD_DELIMITER`]; returns its index, or `None` when the buffer
/// holds no delimiter at all (a record larger than the block — the case
/// the paper sizes blocks to avoid).
pub(crate) fn last_delim_pos(buf: &[u8]) -> Option<usize> {
    buf.iter().rposition(|&b| b == RECORD_DELIMITER)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_delim_scan() {
        assert_eq!(last_delim_pos(b"ab\ncd\nef"), Some(5));
        assert_eq!(last_delim_pos(b"ab\n"), Some(2));
        assert_eq!(last_delim_pos(b"abcdef"), None);
        assert_eq!(last_delim_pos(b""), None);
    }

    #[test]
    fn zero_options_are_rejected_before_any_io() {
        use mvio_msim::{Topology, World, WorldConfig};
        for (strategy, block_size, max_geom) in [
            (BoundaryStrategy::Message, Some(0u64), 11 << 20),
            (BoundaryStrategy::Overlap, Some(0), 11 << 20),
            (BoundaryStrategy::Message, Some(1024), 0u64),
            (BoundaryStrategy::Overlap, None, 0),
        ] {
            let out = World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
                let fs = mvio_pfs::SimFs::new(mvio_pfs::FsConfig::gpfs_roger());
                fs.create("x.wkt", None)
                    .unwrap()
                    .append(b"POINT (1 2)\ta\n");
                let opts = ReadOptions {
                    strategy,
                    block_size,
                    max_geometry_bytes: max_geom,
                    ..ReadOptions::default()
                };
                match read_partition_text(comm, &fs, "x.wkt", &opts) {
                    Err(crate::CoreError::InvalidOptions(msg)) => msg,
                    other => panic!("expected InvalidOptions, got {other:?}"),
                }
            });
            assert!(
                out[0].contains("block_size") || out[0].contains("max_geometry_bytes"),
                "{:?}",
                out[0]
            );
        }
    }

    #[test]
    fn default_options_match_paper() {
        let o = ReadOptions::default();
        assert_eq!(o.max_geometry_bytes, 11 << 20); // the 11 MB bound
        assert_eq!(o.strategy, BoundaryStrategy::Message); // the winner
    }
}
