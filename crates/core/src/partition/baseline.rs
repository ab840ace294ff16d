//! The pre-MPI-Vector-IO baselines the paper replaced (§2, "Existing MPI
//! based approaches"): "we implemented redundant file reading by all
//! processes and master process distributing data to other workers. These
//! redundant and serial I/O strategies were slow, cumbersome, and
//! overwhelmed the memory capacity of individual nodes for larger data."
//!
//! Both are implemented faithfully so the headline claim — "the I/O is
//! improved by one to two orders of magnitude" (§1) — can be measured
//! rather than asserted.

use super::{ReadOptions, RECORD_DELIMITER};
use crate::{CoreError, Result};
use mvio_msim::{Comm, MpiFile, Work};
use mvio_pfs::SimFs;
use std::sync::Arc;

/// Tag for master-scatter share distribution.
const SCATTER_TAG: u64 = 0xBA5E;

/// Baseline 1 — **master read + scatter**: rank 0 reads the whole file
/// sequentially and sends each rank its share of complete records over
/// point-to-point messages. Returns this rank's text.
/// Collective: every rank must call it with the same options.
pub fn read_master_scatter(
    comm: &mut Comm,
    fs: &Arc<SimFs>,
    path: &str,
    opts: &ReadOptions,
) -> Result<String> {
    let p = comm.size();
    if comm.rank() == 0 {
        let file = MpiFile::open(fs, path, opts.hints)?;
        let len = file.len() as usize;
        let mut buf = vec![0u8; len];
        // Sequential whole-file read on the master (chunked under the
        // ROMIO limit).
        let mut off = 0usize;
        while off < len {
            let take = (len - off).min(1 << 30);
            file.read_at(comm, off as u64, &mut buf[off..off + take])?;
            off += take;
        }
        // Split on record boundaries into p roughly equal shares.
        let shares = split_on_records(&buf, p);
        comm.charge(Work::CopyBytes { n: len as u64 });
        let mine = shares[0].to_vec();
        for (rank, share) in shares.iter().enumerate().skip(1) {
            comm.send(rank, SCATTER_TAG, share);
        }
        String::from_utf8(mine)
            .map_err(|e| CoreError::Partition(format!("master-scatter produced bad UTF-8: {e}")))
    } else {
        let share = comm.recv(0, SCATTER_TAG);
        String::from_utf8(share)
            .map_err(|e| CoreError::Partition(format!("master-scatter produced bad UTF-8: {e}")))
    }
}

/// Baseline 2 — **redundant reading**: every rank reads the entire file
/// and keeps only its share. No communication, maximal wasted I/O, and
/// per-rank memory equal to the whole file (the paper's "overwhelmed the
/// memory capacity" failure mode).
/// Collective: every rank must call it with the same options.
pub fn read_redundant(
    comm: &mut Comm,
    fs: &Arc<SimFs>,
    path: &str,
    opts: &ReadOptions,
) -> Result<String> {
    let file = MpiFile::open(fs, path, opts.hints)?;
    let len = file.len() as usize;
    let mut buf = vec![0u8; len];
    // Every rank reads the same chunks, so each chunk's reads are timed
    // together.
    let mut off = 0usize;
    while off < len {
        let take = (len - off).min(1 << 30);
        file.read_at_together(comm, off as u64, &mut buf[off..off + take])?;
        off += take;
    }
    let shares = split_on_records(&buf, comm.size());
    let mine = shares[comm.rank()].to_vec();
    comm.charge(Work::CopyBytes { n: len as u64 });
    String::from_utf8(mine)
        .map_err(|e| CoreError::Partition(format!("redundant read produced bad UTF-8: {e}")))
}

/// Splits `buf` into `p` shares on record boundaries: share boundaries
/// advance to the next delimiter, so every record lands in exactly one
/// share.
fn split_on_records(buf: &[u8], p: usize) -> Vec<&[u8]> {
    let len = buf.len();
    let mut bounds = Vec::with_capacity(p + 1);
    bounds.push(0usize);
    for k in 1..p {
        let target = len * k / p;
        // audit: `bounds` is seeded with 0 above and only grows.
        let from_prev = *bounds.last().expect("non-empty");
        let start = target.max(from_prev);
        // Advance to just past the next delimiter.
        let cut = buf[start..]
            .iter()
            .position(|&b| b == RECORD_DELIMITER)
            .map(|i| start + i + 1)
            .unwrap_or(len);
        bounds.push(cut.max(from_prev));
    }
    bounds.push(len);
    (0..p).map(|i| &buf[bounds[i]..bounds[i + 1]]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::read_partition_text;
    use mvio_msim::{Topology, World, WorldConfig};
    use mvio_pfs::FsConfig;

    fn build(records: usize) -> (Arc<SimFs>, Vec<String>) {
        let fs = SimFs::new(FsConfig::lustre_comet());
        let recs: Vec<String> = (0..records)
            .map(|i| format!("rec{i:04}:{}", "d".repeat(5 + (i * 13) % 60)))
            .collect();
        let f = fs.create("b.txt", None).unwrap();
        f.append((recs.join("\n") + "\n").as_bytes());
        (fs, recs)
    }

    fn collect(per_rank: Vec<String>) -> Vec<String> {
        let mut all: Vec<String> = per_rank
            .iter()
            .flat_map(|t| t.lines().map(str::to_string))
            .filter(|l| !l.is_empty())
            .collect();
        all.sort();
        all
    }

    #[test]
    fn split_on_records_partitions_exactly() {
        let buf = b"aa\nbbb\nc\ndddd\ne\n";
        let shares = split_on_records(buf, 3);
        assert_eq!(shares.len(), 3);
        let total: usize = shares.iter().map(|s| s.len()).sum();
        assert_eq!(total, buf.len());
        for s in &shares {
            if !s.is_empty() {
                assert_eq!(*s.last().unwrap(), b'\n', "share ends on a boundary");
            }
        }
    }

    #[test]
    fn master_scatter_delivers_exactly_once() {
        let (fs, recs) = build(60);
        let out = World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
            read_master_scatter(comm, &fs, "b.txt", &ReadOptions::default()).unwrap()
        });
        let mut expect = recs.clone();
        expect.sort();
        assert_eq!(collect(out), expect);
    }

    #[test]
    fn redundant_read_delivers_exactly_once_but_reads_p_times_the_file() {
        let (fs, recs) = build(60);
        let file_len = fs.open("b.txt").unwrap().len();
        let fs2 = Arc::clone(&fs);
        let out = World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
            read_redundant(comm, &fs2, "b.txt", &ReadOptions::default()).unwrap()
        });
        let mut expect = recs.clone();
        expect.sort();
        assert_eq!(collect(out), expect);
        // The defining waste: 4 ranks read 4x the file.
        assert_eq!(fs.stats().bytes_read(), 4 * file_len);
    }

    #[test]
    fn baselines_agree_with_algorithm1() {
        let (fs, _) = build(80);
        let fs2 = Arc::clone(&fs);
        let a1 = World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
            read_partition_text(comm, &fs2, "b.txt", &ReadOptions::default()).unwrap()
        });
        let (fsb, _) = build(80);
        let ms = World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
            read_master_scatter(comm, &fsb, "b.txt", &ReadOptions::default()).unwrap()
        });
        assert_eq!(collect(a1), collect(ms));
    }

    #[test]
    fn parallel_io_beats_both_baselines_on_striped_data() {
        // The paper's headline: parallel partitioned reads beat serial
        // master-scatter and redundant reading. The win materializes on
        // large *striped* files (a tiny single-OST file is legitimately
        // faster to read once, serially — which is also why the paper's
        // earlier systems got away with it before datasets grew).
        let build_striped = || {
            let fs = SimFs::new(FsConfig::lustre_comet());
            // ~18 MB: large enough that transfer and client bandwidth,
            // not per-request latency, dominate — the regime the paper's
            // datasets live in.
            let recs: Vec<String> = (0..400_000)
                .map(|i| format!("rec{i:06}:{}", "d".repeat(5 + (i * 13) % 60)))
                .collect();
            let f = fs
                .create("b.txt", Some(mvio_pfs::StripeSpec::new(16, 1 << 20)))
                .unwrap();
            f.append((recs.join("\n") + "\n").as_bytes());
            fs
        };
        let elapsed = |which: &str, fs: Arc<SimFs>| {
            fs.set_active_ranks(16);
            let which = which.to_string();
            let out = World::run(WorldConfig::new(Topology::new(4, 4)), move |comm| {
                let opts = ReadOptions::default();
                match which.as_str() {
                    "mvio" => read_partition_text(comm, &fs, "b.txt", &opts).unwrap(),
                    "master" => read_master_scatter(comm, &fs, "b.txt", &opts).unwrap(),
                    _ => read_redundant(comm, &fs, "b.txt", &opts).unwrap(),
                };
                comm.now()
            });
            out.into_iter().fold(0.0, f64::max)
        };
        let t_mvio = elapsed("mvio", build_striped());
        let t_master = elapsed("master", build_striped());
        let t_redundant = elapsed("redundant", build_striped());
        assert!(
            t_mvio < t_master,
            "parallel {t_mvio} must beat master-scatter {t_master}"
        );
        assert!(
            t_mvio < t_redundant,
            "parallel {t_mvio} must beat redundant {t_redundant}"
        );
    }
}
