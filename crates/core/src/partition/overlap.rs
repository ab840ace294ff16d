//! Overlap (halo) file partitioning: the redundant-read alternative that
//! Figure 10 benchmarks against Algorithm 1.

use super::{ReadOptions, RECORD_DELIMITER};
use crate::{CoreError, Result};
use mvio_msim::{AccessLevel, Comm, MpiFile, Work};

/// Reads this rank's partition using overlapping block reads.
///
/// Each rank reads its block **plus a halo** of `max_geometry_bytes` past
/// the block end (and one byte before the block start, to detect whether a
/// record begins exactly at the boundary). Ownership rule: a record
/// belongs to the rank whose block contains its first byte. No messages
/// are exchanged — the cost is `O(N · halo)` bytes of redundant reading
/// per iteration, which is exactly why the paper found this strategy
/// slower ("the overhead of reading 11 MB halo region by each process is
/// greater than exchanging missing co-ordinates"). At Level 0 each
/// iteration's independent reads are posted together
/// ([`MpiFile::iread_at_together`]) and waited on.
/// Collective: every rank must call it with the same options.
pub fn read_overlap(comm: &mut Comm, file: &MpiFile, opts: &ReadOptions) -> Result<String> {
    let n = comm.size() as u64;
    let rank = comm.rank() as u64;
    let file_size = file.len();

    if file_size == 0 {
        return Ok(String::new());
    }

    let block = opts.block_size.unwrap_or(file_size.div_ceil(n)).max(1);
    let chunk = n * block;
    let iterations = file_size.div_ceil(chunk);
    let halo = opts.max_geometry_bytes;

    let mut out: Vec<u8> = Vec::new();
    // A record that outgrows the halo is *latched*, not returned at
    // once: every rank takes part in each iteration's Level 0 read, so a
    // rank that quit early would strand its peers there. It keeps
    // reading and reports the error after the last iteration.
    let mut latched: Option<CoreError> = None;

    for i in 0..iterations {
        let global_offset = i * chunk;
        let start = global_offset + rank * block;
        let len = if start >= file_size {
            0
        } else {
            (file_size - start).min(block)
        };

        // Read [start - lead, start + len + halo): one lead byte detects a
        // record boundary exactly at `start`.
        let lead: u64 = if start > 0 { 1 } else { 0 };
        let read_off = start - lead;
        let read_len = if len == 0 {
            0
        } else {
            (file_size - read_off).min(lead + len + halo)
        };

        let mut buf = vec![0u8; read_len as usize];
        // Every rank calls the read, an idle one with an empty buffer:
        // Level 1 is collective, and Level 0 posts each iteration's
        // independent reads together.
        let got = match opts.level {
            AccessLevel::Level0 => {
                let (got, landing) = file.iread_at_together(comm, read_off, &mut buf)?;
                landing.wait(comm);
                got
            }
            AccessLevel::Level1 => file.read_at_all(comm, read_off, &mut buf)?,
            AccessLevel::Level3 => {
                return Err(CoreError::Partition(
                    "Level 3 is a non-contiguous mode; read it through crate::views".into(),
                ))
            }
        };
        debug_assert_eq!(got as u64, read_len);
        if len == 0 || latched.is_some() {
            continue;
        }

        // Index of `start` within buf is `lead`. Find where my first owned
        // record begins: at `start` itself when the previous byte is a
        // delimiter (or the file begins here); otherwise after the first
        // delimiter at or beyond `start`.
        let begin = if lead == 0 || buf[0] == RECORD_DELIMITER {
            lead as usize
        } else {
            match buf[lead as usize..]
                .iter()
                .position(|&b| b == RECORD_DELIMITER)
            {
                Some(p) => lead as usize + p + 1,
                None => continue, // my whole block is a predecessor's record interior
            }
        };

        // Last owned record: the one starting strictly before start + len.
        // Walk records from `begin`, stopping once a record starts at or
        // past the block end; the final owned record may extend into the
        // halo.
        let block_end_rel = (lead + len) as usize; // first byte past my block
        let mut pos = begin;
        let mut end = begin;
        while pos < block_end_rel.min(buf.len()) {
            // Record starting at `pos` (owned). Find its terminator.
            match buf[pos..].iter().position(|&b| b == RECORD_DELIMITER) {
                Some(p) => {
                    end = pos + p + 1;
                    pos = end;
                }
                None => {
                    // Runs to EOF (final record without delimiter) or past
                    // the halo (record larger than the halo bound).
                    if read_off + buf.len() as u64 == file_size {
                        end = buf.len();
                        pos = end;
                    } else {
                        latched = Some(CoreError::Partition(format!(
                            "record starting at file offset {} exceeds the {halo}-byte halo; \
                             raise max_geometry_bytes",
                            read_off + pos as u64
                        )));
                        break;
                    }
                }
            }
        }

        if end > begin && latched.is_none() {
            comm.charge(Work::CopyBytes {
                n: (end - begin) as u64,
            });
            out.extend_from_slice(&buf[begin..end]);
            if out.last() != Some(&RECORD_DELIMITER) {
                out.push(RECORD_DELIMITER); // normalize a missing EOF delimiter
            }
        }
    }

    if let Some(err) = latched {
        return Err(err);
    }
    String::from_utf8(out)
        .map_err(|e| CoreError::Partition(format!("partition produced invalid UTF-8: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{read_partition_text, BoundaryStrategy};
    use mvio_msim::{Topology, World, WorldConfig};
    use mvio_pfs::{FsConfig, SimFs};
    use std::sync::Arc;

    fn build(recs: &[String], trailing_newline: bool) -> Arc<SimFs> {
        let fs = SimFs::new(FsConfig::test_tiny());
        let f = fs.create("f.txt", None).unwrap();
        let mut text = recs.join("\n");
        if trailing_newline {
            text.push('\n');
        }
        f.append(text.as_bytes());
        fs
    }

    fn run(fs: &Arc<SimFs>, topo: Topology, opts: ReadOptions) -> Vec<String> {
        let per_rank = World::run(WorldConfig::new(topo), |comm| {
            read_partition_text(comm, fs, "f.txt", &opts).unwrap()
        });
        let mut all: Vec<String> = per_rank
            .iter()
            .flat_map(|t| t.lines().map(str::to_string))
            .filter(|l| !l.is_empty())
            .collect();
        all.sort();
        all
    }

    fn opts() -> ReadOptions {
        ReadOptions::default()
            .with_strategy(BoundaryStrategy::Overlap)
            .with_max_geometry_bytes(256)
    }

    fn recs(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| format!("record{i:03}:{}", "z".repeat(3 + (i * 11) % 50)))
            .collect()
    }

    #[test]
    fn exactly_once_equal_split() {
        let r = recs(60);
        let fs = build(&r, true);
        let mut expect = r.clone();
        expect.sort();
        assert_eq!(run(&fs, Topology::new(2, 3), opts()), expect);
    }

    #[test]
    fn exactly_once_small_blocks() {
        let r = recs(80);
        let fs = build(&r, true);
        let mut expect = r.clone();
        expect.sort();
        assert_eq!(
            run(&fs, Topology::new(2, 2), opts().with_block_size(128)),
            expect
        );
    }

    #[test]
    fn handles_missing_trailing_newline() {
        let r = recs(20);
        let fs = build(&r, false);
        let mut expect = r.clone();
        expect.sort();
        assert_eq!(
            run(&fs, Topology::new(1, 3), opts().with_block_size(100)),
            expect
        );
    }

    #[test]
    fn record_boundary_exactly_at_block_edge() {
        // Craft records so one ends exactly at a block boundary.
        let r: Vec<String> = vec!["aaaa".into(), "bbbb".into(), "cccc".into(), "dddd".into()];
        // each line is 5 bytes with newline; block 5 puts boundaries at
        // record edges exactly.
        let fs = build(&r, true);
        let mut expect = r.clone();
        expect.sort();
        assert_eq!(
            run(&fs, Topology::new(1, 4), opts().with_block_size(5)),
            expect
        );
    }

    #[test]
    fn overlap_matches_message_strategy() {
        let r = recs(100);
        let fs = build(&r, true);
        let msg = run(
            &fs,
            Topology::new(2, 2),
            ReadOptions::default()
                .with_block_size(200)
                .with_max_geometry_bytes(256),
        );
        let fs2 = build(&r, true);
        let ovl = run(&fs2, Topology::new(2, 2), opts().with_block_size(200));
        assert_eq!(msg, ovl);
    }

    #[test]
    fn overlap_reads_redundant_bytes() {
        let r = recs(100);
        let fs = build(&r, true);
        let file_len = fs.open("f.txt").unwrap().len();
        run(&fs, Topology::new(1, 4), opts().with_block_size(200));
        // Redundant halo reads mean strictly more bytes than the file —
        // the disadvantage the paper quantifies in Figure 10.
        assert!(
            fs.stats().bytes_read() > file_len,
            "overlap must read more than {file_len}, read {}",
            fs.stats().bytes_read()
        );
    }

    #[test]
    fn oversized_record_is_reported() {
        let r = vec!["short".to_string(), "L".repeat(2000), "tail".to_string()];
        let fs = build(&r, true);
        let results = World::run(WorldConfig::new(Topology::new(1, 4)), |comm| {
            read_partition_text(
                comm,
                &fs,
                "f.txt",
                &opts().with_block_size(64).with_max_geometry_bytes(100),
            )
        });
        assert!(results.iter().any(Result::is_err));
    }
}
