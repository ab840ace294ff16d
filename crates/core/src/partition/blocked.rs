//! Algorithm 1: iterative block reading with message-based boundary
//! repair (the paper's "dynamic file partitioning").

use super::{last_delim_pos, Landed, ReadOptions, RECORD_DELIMITER};
use crate::{CoreError, Result};
use mvio_msim::{AccessLevel, Comm, Landing, MpiFile, Work};

/// Ring tag reserved for boundary-fragment messages.
const FRAGMENT_TAG: u64 = 0xF1;

/// Bytes per process per iteration.
fn block_size(comm: &Comm, file_size: u64, opts: &ReadOptions) -> u64 {
    let n = comm.size() as u64;
    opts.block_size.unwrap_or(file_size.div_ceil(n)).max(1)
}

/// This rank's block `(start, len)` of iteration `i` (`len` 0 past EOF).
fn my_block(comm: &Comm, file_size: u64, block: u64, i: u64) -> (u64, u64) {
    let start = (i * comm.size() as u64 + comm.rank() as u64) * block;
    (start, file_size.saturating_sub(start).min(block))
}

/// Posts Algorithm 1's first Level 0 read into a block buffer as stripe
/// pieces ([`MpiFile::iread_at_together`]), moving no clock. A Level 1
/// read cannot stream: it posts nothing and reads where the blocking
/// algorithm does. Collective: every rank must call it.
pub(crate) fn post_blocked(
    comm: &mut Comm,
    file: &MpiFile,
    opts: &ReadOptions,
) -> Result<(Vec<u8>, Option<Landing>)> {
    let file_size = file.len();
    let block = block_size(comm, file_size, opts);
    let mut buf = vec![0u8; block.min(file_size) as usize];
    let (start, len) = my_block(comm, file_size, block, 0);
    let first = match opts.level {
        AccessLevel::Level0 if file_size > 0 => Some(
            file.iread_at_together(comm, start, &mut buf[..len as usize])?
                .1,
        ),
        AccessLevel::Level3 => {
            return Err(CoreError::Partition(
                "Level 3 is a non-contiguous mode; read it through crate::views".into(),
            ))
        }
        _ => None,
    };
    Ok((buf, first))
}

/// Algorithm 1 over [`post_blocked`]'s read.
///
/// The file is consumed in iterations of `N × block` bytes. In each
/// iteration every participating rank reads one block, scans back to the
/// last delimiter, and forwards the dangling tail to its ring successor
/// with the deadlock-free even/odd send-recv schedule (paper Algorithm 1,
/// lines 12–19). The fragment a rank receives from its predecessor is
/// prepended to its block, so every record is delivered exactly once. The
/// tail of the *last* participant wraps to rank 0 as the carry for the
/// next iteration (or, after the final iteration, becomes the file's last
/// record when the file does not end with a delimiter). A Level 0 block
/// lands piece by piece, its last half stripe first: the rank sends its tail
/// once the bytes from its last delimiter on have landed, and a block is
/// whole before the next iteration's read is posted. The last block is
/// left landing: the returned text knows when each of its bytes lands.
/// Collective: every rank must call it with the same options.
pub(crate) fn finish_blocked(
    comm: &mut Comm,
    file: &MpiFile,
    opts: &ReadOptions,
    (mut buf, mut first): (Vec<u8>, Option<Landing>),
) -> Result<Landed> {
    let n = comm.size() as u64;
    let rank = comm.rank() as u64;
    let file_size = file.len();
    let block = block_size(comm, file_size, opts);
    let iterations = file_size.div_ceil(n * block);

    let mut out: Vec<u8> = Vec::new();
    // The last read, and where the last body starts: in `out`, in the file.
    let (mut last, mut body_at): (Option<Landing>, (usize, u64)) = (None, (0, 0));
    // Fragment carried by rank 0 across iterations: the last participant's
    // tail precedes rank 0's block of the *next* iteration.
    let mut carry: Vec<u8> = Vec::new();
    // Partition errors are *latched*, not returned immediately: the ring
    // protocol couples every rank to its neighbours each iteration, so a
    // rank that bailed out early would strand peers in `recv` forever
    // (the MPI analogue of returning without matching a posted receive).
    // The rank keeps participating with empty fragments and reports the
    // error once the protocol completes.
    let mut latched: Option<CoreError> = None;

    for i in 0..iterations {
        let (start, len) = my_block(comm, file_size, block, i);

        // A block is whole before the next iteration's read is posted.
        if let Some(previous) = last.take() {
            previous.wait(comm);
        }
        // Every rank reads, an idle one with an empty buffer: Level 1 is
        // collective, and Level 0 times each iteration's reads together.
        let mine = &mut buf[..len as usize];
        last = match (first.take(), opts.level) {
            (Some(posted), _) => Some(posted),
            (None, AccessLevel::Level0) => Some(file.iread_at_together(comm, start, mine)?.1),
            _ => {
                file.read_at_all(comm, start, mine)?;
                None
            }
        };
        let landed = |at: u64, n: u64| last.as_ref().map_or(f64::NEG_INFINITY, |l| l.landed(at, n));

        // Participants this iteration: always the rank prefix 0..p.
        let remaining = file_size - i * n * block;
        let p = remaining.div_ceil(block).min(n);
        if rank >= p {
            continue;
        }

        let block_bytes = &buf[..len as usize];
        let at_eof = start + len == file_size;

        // Split into body (..= last delimiter) and tail (after it). EOF
        // acts as a virtual delimiter: the whole final block is body, so a
        // file without a trailing delimiter still delivers its last record
        // to exactly one rank. The split is known once the bytes from the
        // delimiter on have landed.
        let (body, mut tail, known): (&[u8], &[u8], f64) = if at_eof {
            (block_bytes, &[][..], landed(start + len - 1, 1))
        } else {
            match last_delim_pos(block_bytes) {
                Some(pos) => (
                    &block_bytes[..=pos],
                    &block_bytes[pos + 1..],
                    landed(start + pos as u64, len - pos as u64),
                ),
                None => {
                    if latched.is_none() {
                        latched = Some(CoreError::Partition(format!(
                            "no delimiter in a {len}-byte block at offset {start}: a record \
                             exceeds the block size; raise block_size above max_geometry_bytes"
                        )));
                    }
                    (&[][..], &[][..], landed(start, len))
                }
            }
        };
        if tail.len() as u64 > opts.max_geometry_bytes {
            if latched.is_none() {
                latched = Some(CoreError::Partition(format!(
                    "boundary fragment of {} bytes exceeds max_geometry_bytes {}",
                    tail.len(),
                    opts.max_geometry_bytes
                )));
            }
            tail = &[][..];
        }
        comm.advance_to(known);

        let next = ((rank + 1) % p) as usize;
        let prev = ((rank + p - 1) % p) as usize;

        let incoming: Vec<u8> = if p == 1 {
            // Single participant: the ring degenerates; the tail becomes
            // the next iteration's carry locally.
            let inc = std::mem::take(&mut carry);
            carry = tail.to_vec();
            inc
        } else if rank.is_multiple_of(2) {
            // Even ranks send first, then receive (Algorithm 1 line 12).
            comm.send(next, FRAGMENT_TAG, tail);
            let frag = comm.recv(prev, FRAGMENT_TAG);
            self_or_carry(rank, frag, &mut carry)
        } else {
            let frag = comm.recv(prev, FRAGMENT_TAG);
            comm.send(next, FRAGMENT_TAG, tail);
            self_or_carry(rank, frag, &mut carry)
        };

        // Assemble the owned text: predecessor fragment + body.
        comm.charge(Work::CopyBytes {
            n: (incoming.len() + body.len()) as u64,
        });
        out.reserve(incoming.len() + body.len());
        out.extend_from_slice(&incoming);
        body_at = (out.len(), start);
        out.extend_from_slice(body);
        if at_eof && out.last() != Some(&RECORD_DELIMITER) && !out.is_empty() {
            out.push(RECORD_DELIMITER); // normalize the virtual EOF delimiter
        }
    }

    // After the final iteration, rank 0's carry is the file's unterminated
    // last record (empty when the file ends with a delimiter).
    if rank == 0 && !carry.is_empty() {
        out.extend_from_slice(&carry);
        out.push(RECORD_DELIMITER);
    }

    let text = latched.map_or_else(
        || {
            String::from_utf8(out)
                .map_err(|e| CoreError::Partition(format!("partition produced invalid UTF-8: {e}")))
        },
        Err,
    );
    let landed = Landed {
        text: String::new(),
        body_at,
        landing: last,
    };
    match text {
        Ok(text) => Ok(Landed { text, ..landed }),
        Err(err) => {
            landed.wait(comm);
            Err(err)
        }
    }
}

/// Rank 0's received fragment belongs to the *next* iteration's block (it
/// precedes offset `(i+1)·chunk`); other ranks consume it immediately.
fn self_or_carry(rank: u64, frag: Vec<u8>, carry: &mut Vec<u8>) -> Vec<u8> {
    if rank == 0 {
        let inc = std::mem::take(carry);
        *carry = frag;
        inc
    } else {
        frag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::BoundaryStrategy;
    use crate::ReadOptions;
    use mvio_msim::{Hints, Topology, World, WorldConfig};
    use mvio_pfs::{FsConfig, SimFs, StripeSpec};
    use std::sync::Arc;

    /// Builds a WKT-ish file of numbered records of wildly varying length.
    fn build_file(fs: &Arc<SimFs>, path: &str, records: &[String]) {
        let f = fs.create(path, Some(StripeSpec::new(4, 256))).unwrap();
        let mut text = String::new();
        for r in records {
            text.push_str(r);
            text.push('\n');
        }
        f.append(text.as_bytes());
    }

    fn records(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| {
                // Lengths vary with a heavy tail: record 17 is huge.
                let pad = if i % 17 == 0 { 400 } else { 5 + (i * 7) % 90 };
                format!("REC{i:04}:{}", "x".repeat(pad))
            })
            .collect()
    }

    fn gather_all(topo: Topology, opts: ReadOptions, recs: &[String]) -> Vec<String> {
        let fs = SimFs::new(FsConfig::test_tiny());
        build_file(&fs, "f.txt", recs);
        let per_rank = World::run(WorldConfig::new(topo), |comm| {
            crate::partition::read_partition_text(comm, &fs, "f.txt", &opts).unwrap()
        });
        let mut all = Vec::new();
        for text in per_rank {
            for line in text.lines() {
                if !line.is_empty() {
                    all.push(line.to_string());
                }
            }
        }
        all
    }

    #[test]
    fn exactly_once_delivery_equal_split() {
        let recs = records(100);
        let opts = ReadOptions::default();
        let all = gather_all(Topology::new(2, 3), opts, &recs);
        assert_eq!(
            all, recs,
            "every record exactly once, in order across ranks"
        );
    }

    #[test]
    fn exactly_once_delivery_small_blocks_many_iterations() {
        let recs = records(120);
        // Tiny blocks force many iterations and lots of ring fragments.
        // Iterations interleave records across ranks, so compare as sets.
        let opts = ReadOptions::default().with_block_size(512);
        let mut all = gather_all(Topology::new(2, 2), opts, &recs);
        all.sort();
        let mut expect = recs.clone();
        expect.sort();
        assert_eq!(all, expect);
    }

    #[test]
    fn file_without_trailing_newline() {
        let fs = SimFs::new(FsConfig::test_tiny());
        let f = fs.create("f.txt", None).unwrap();
        f.append(b"alpha\nbeta\ngamma"); // no trailing delimiter
        let per_rank = World::run(WorldConfig::new(Topology::new(1, 3)), |comm| {
            crate::partition::read_partition_text(
                comm,
                &fs,
                "f.txt",
                &ReadOptions::default().with_block_size(6),
            )
            .unwrap()
        });
        let mut all: Vec<String> = per_rank
            .iter()
            .flat_map(|t| t.lines().map(str::to_string))
            .filter(|l| !l.is_empty())
            .collect();
        all.sort();
        assert_eq!(all, vec!["alpha", "beta", "gamma"]);
    }

    #[test]
    fn collective_level1_matches_level0() {
        let recs = records(64);
        let l0 = gather_all(
            Topology::new(2, 2),
            ReadOptions::default().with_block_size(777),
            &recs,
        );
        let l1 = gather_all(
            Topology::new(2, 2),
            ReadOptions::default()
                .with_block_size(777)
                .with_level(mvio_msim::AccessLevel::Level1),
            &recs,
        );
        assert_eq!(l0, l1);
        let mut sorted = l0.clone();
        sorted.sort();
        let mut expect = recs.clone();
        expect.sort();
        assert_eq!(sorted, expect);
    }

    #[test]
    fn record_larger_than_block_is_reported() {
        let fs = SimFs::new(FsConfig::test_tiny());
        let f = fs.create("f.txt", None).unwrap();
        let huge = format!("{}\nshort\n", "y".repeat(5000));
        f.append(huge.as_bytes());
        let opts = ReadOptions::default().with_block_size(64);
        let results = World::run(WorldConfig::new(Topology::new(1, 2)), |comm| {
            crate::partition::read_partition_text(comm, &fs, "f.txt", &opts)
        });
        assert!(results
            .iter()
            .any(|r| matches!(r, Err(CoreError::Partition(_)))));
    }

    #[test]
    fn single_rank_reads_everything() {
        let recs = records(30);
        let all = gather_all(Topology::single_node(1), ReadOptions::default(), &recs);
        assert_eq!(all, recs);
    }

    #[test]
    fn empty_file_yields_nothing() {
        let fs = SimFs::new(FsConfig::test_tiny());
        fs.create("empty.txt", None).unwrap();
        let per_rank = World::run(WorldConfig::new(Topology::new(1, 2)), |comm| {
            crate::partition::read_partition_text(comm, &fs, "empty.txt", &ReadOptions::default())
                .unwrap()
        });
        assert!(per_rank.iter().all(String::is_empty));
    }

    #[test]
    fn more_ranks_than_blocks() {
        // 8 ranks but a file so small only a few blocks exist; the idle
        // ranks must participate gracefully and own nothing.
        let recs: Vec<String> = (0..5).map(|i| format!("tiny{i}")).collect();
        let opts = ReadOptions::default().with_block_size(16);
        let mut all = gather_all(Topology::new(2, 4), opts, &recs);
        all.sort();
        let mut expect = recs.clone();
        expect.sort();
        assert_eq!(all, expect);
    }

    #[test]
    fn message_strategy_does_no_redundant_io() {
        let recs = records(80);
        let fs = SimFs::new(FsConfig::test_tiny());
        build_file(&fs, "f.txt", &recs);
        let file_len = fs.open("f.txt").unwrap().len();
        let opts = ReadOptions {
            level: AccessLevel::Level0,
            strategy: BoundaryStrategy::Message,
            block_size: Some(512),
            max_geometry_bytes: 4096,
            hints: Hints::default(),
        };
        World::run(WorldConfig::new(Topology::new(1, 4)), |comm| {
            crate::partition::read_partition_text(comm, &fs, "f.txt", &opts).unwrap()
        });
        // Total bytes read off the filesystem equals the file length:
        // no halo, no re-reads (the paper's key advantage of Algorithm 1).
        assert_eq!(fs.stats().bytes_read(), file_len);
    }
}
