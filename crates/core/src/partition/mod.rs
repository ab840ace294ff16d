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
//!
//! Algorithm 1's Level 0 blocks are read as concurrent stripe pieces,
//! the block's **last half stripe** served first (its last piece, and
//! the one before it when the last is short), so a rank's tail leaves
//! after the first round wherever the block ends; ownership, the fragment schedule and every delivered
//! byte are those of the blocking read, whatever the stripe.

pub mod baseline;
mod blocked;
mod overlap;

pub use baseline::{read_master_scatter, read_redundant};
use blocked::{finish_blocked, post_blocked};
pub use overlap::read_overlap;

use crate::Result;
use mvio_msim::{AccessLevel, Comm, Hints, Landing, MpiFile};
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
/// the raw text of the records it owns (concatenated, delimiter-separated):
/// `post_partition_text`, then the finished read waited at once.
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
    let landed = post_partition_text(comm, fs, path, opts)?(comm)?;
    Ok(landed.wait(comm))
}

/// Validates `opts`, opens `path` and posts the partitioned read's first
/// Level 0 read, moving no clock; returns the read's finish: Algorithm
/// 1's ring over the posted pieces, or a read that cannot stream (the
/// overlap strategy's halo reads, Level 1) issued where the blocking read
/// always was. Collective: every rank must call both with the same
/// options (errors as [`read_partition_text`]).
pub(crate) fn post_partition_text(
    comm: &mut Comm,
    fs: &Arc<SimFs>,
    path: &str,
    opts: &ReadOptions,
) -> Result<impl FnOnce(&mut Comm) -> Result<Landed>> {
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
    let (file, opts) = (MpiFile::open(fs, path, opts.hints)?, *opts);
    let posted = match opts.strategy {
        BoundaryStrategy::Message => Some(post_blocked(comm, &file, &opts)?),
        BoundaryStrategy::Overlap => None,
    };
    Ok(move |comm: &mut Comm| match posted {
        Some(posted) => finish_blocked(comm, &file, &opts, posted),
        None => read_overlap(comm, &file, &opts).map(|text| Landed {
            text,
            body_at: (0, 0),
            landing: None,
        }),
    })
}

/// A finished partitioned read whose last Level 0 pieces may still be
/// landing: the owned text, and the read to wait once it is consumed.
#[derive(Debug)]
pub(crate) struct Landed {
    /// The owned records' text.
    pub(crate) text: String,
    /// Where the last read's body starts: in `text`, and in the file.
    /// Text before it was there by the end of the read's ring.
    body_at: (usize, u64),
    landing: Option<Landing>,
}

impl Landed {
    /// When every byte of `text[range]` has landed (−∞ when all were
    /// there at post).
    pub(crate) fn ready(&self, range: std::ops::Range<usize>) -> f64 {
        let (at, offset) = self.body_at;
        let lo = range.start.max(at);
        match &self.landing {
            Some(landing) if range.end > lo => {
                landing.landed(offset + (lo - at) as u64, (range.end - lo) as u64)
            }
            _ => f64::NEG_INFINITY,
        }
    }

    /// Waits the read's last pieces and returns the text.
    /// Not collective — completes this rank's own posted read.
    pub(crate) fn wait(self, comm: &mut Comm) -> String {
        if let Some(landing) = self.landing {
            landing.wait(comm);
        }
        self.text
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
    fn level3_is_rejected_on_every_rank_without_a_leaked_request() {
        use mvio_msim::{AccessLevel, Topology, World, WorldConfig};
        let fs = mvio_pfs::SimFs::new(mvio_pfs::FsConfig::gpfs_roger());
        fs.create("x.wkt", None)
            .unwrap()
            .append(b"POINT (1 2)\ta\nPOINT (3 4)\tb\n");
        for strategy in [BoundaryStrategy::Message, BoundaryStrategy::Overlap] {
            let opts = ReadOptions {
                strategy,
                level: AccessLevel::Level3,
                ..ReadOptions::default()
            };
            // The run verifies itself: a request dropped unwaited, or a
            // collective some rank skipped, aborts it.
            let out = World::run(WorldConfig::new(Topology::single_node(4)), |comm| {
                match read_partition_text(comm, &fs, "x.wkt", &opts) {
                    Err(crate::CoreError::Partition(msg)) => msg,
                    other => panic!("expected a Partition error, got {other:?}"),
                }
            });
            assert!(out.iter().all(|m| m.contains("crate::views")), "{out:?}");
        }
    }

    #[test]
    fn a_tail_across_a_piece_boundary_leaves_in_the_first_round() {
        use mvio_msim::{Topology, World, WorldConfig};
        // Two 4196-byte blocks over 1 KiB stripes on one OST. Rank 0's
        // block ends 100 bytes into a stripe and its tail, the 300-byte
        // record at 4000, starts in the piece before: both pieces are in
        // the lead, so the ring is done before any body piece lands.
        let record = |n: usize| format!("{}\n", "x".repeat(n - 1));
        let text: String = [
            vec![record(100); 40],
            vec![record(300)],
            vec![record(100); 40],
        ]
        .concat()
        .concat()
            + &record(92);
        assert_eq!(text.len(), 2 * 4196);
        let out = World::run(WorldConfig::new(Topology::new(2, 1)), |comm| {
            let fs = mvio_pfs::SimFs::new(mvio_pfs::FsConfig::lustre_comet());
            fs.create("t.txt", Some(mvio_pfs::StripeSpec::new(1, 1024)))
                .unwrap()
                .append(text.as_bytes());
            let landed =
                post_partition_text(comm, &fs, "t.txt", &ReadOptions::default()).unwrap()(comm)
                    .unwrap();
            let (ring_done, at) = (comm.now(), landed.body_at.0);
            let body = landed.ready(at..at + 1);
            (ring_done, body, landed.wait(comm))
        });
        assert_eq!(format!("{}{}", out[0].2, out[1].2), text);
        for (ring_done, body, _) in &out {
            assert!(ring_done < body, "{ring_done} vs {body}");
        }
    }

    #[test]
    fn text_is_ready_as_its_pieces_land() {
        use mvio_msim::{Topology, World, WorldConfig};
        let out = World::run(WorldConfig::new(Topology::single_node(1)), |comm| {
            let fs = mvio_pfs::SimFs::new(mvio_pfs::FsConfig::lustre_comet());
            let text: String = (0..400).map(|i| format!("record {i}\n")).collect();
            fs.create("t.txt", Some(mvio_pfs::StripeSpec::new(1, 1024)))
                .unwrap()
                .append(text.as_bytes());
            let landed =
                post_partition_text(comm, &fs, "t.txt", &ReadOptions::default()).unwrap()(comm)
                    .unwrap();
            let n = landed.text.len();
            let ready = [0..1, 1000..1100, n - 1..n, 0..n].map(|r| landed.ready(r));
            (ready, landed.wait(comm) == text, comm.now())
        });
        let ([first, second, last, all], same, now) = out[0];
        assert!(same);
        // One OST serves the last two pieces (the last is short), then
        // the others in file order.
        assert!(
            last < first && first < second && second < all,
            "{:?}",
            out[0]
        );
        assert_eq!(all, now, "the text is whole when the read is waited");
    }

    #[test]
    fn default_options_match_paper() {
        let o = ReadOptions::default();
        assert_eq!(o.max_geometry_bytes, 11 << 20); // the 11 MB bound
        assert_eq!(o.strategy, BoundaryStrategy::Message); // the winner
    }
}
