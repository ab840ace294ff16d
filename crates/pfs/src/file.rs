//! Simulated files: real bytes plus timed access.

use crate::config::StripeSpec;
use crate::engine::{IoCompletion, IoCtx, IoRequest, TimingEngine};
use crate::stats::FsStats;
use crate::{PfsError, Result};
use parking_lot::RwLock;
use std::sync::Arc;

/// A file in the simulated filesystem.
///
/// Contents are held in memory; reads copy real bytes out, so the library
/// above operates on genuine data while the [`TimingEngine`] accounts
/// virtual time. Files are created via [`crate::SimFs::create`] and shared
/// by `Arc` across ranks.
pub struct SimFile {
    path: String,
    stripe: StripeSpec,
    /// First OST of this file's stripe set (Lustre allocates a starting
    /// OST per file; we derive it from a counter so files spread out).
    ost_base: u32,
    data: RwLock<Vec<u8>>,
    engine: Arc<TimingEngine>,
    stats: Arc<FsStats>,
}

impl SimFile {
    pub(crate) fn new(
        path: String,
        stripe: StripeSpec,
        ost_base: u32,
        engine: Arc<TimingEngine>,
        stats: Arc<FsStats>,
    ) -> Self {
        SimFile {
            path,
            stripe,
            ost_base,
            data: RwLock::new(Vec::new()),
            engine,
            stats,
        }
    }

    /// Path within the namespace.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The file's stripe settings.
    pub fn stripe(&self) -> StripeSpec {
        self.stripe
    }

    /// Current length in bytes.
    pub fn len(&self) -> u64 {
        self.data.read().len() as u64
    }

    /// `true` when the file holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.data.read().is_empty()
    }

    /// Appends bytes without timing — the "the data was already on the
    /// filesystem" path used by dataset generation and test setup.
    pub fn append(&self, bytes: impl AsRef<[u8]>) {
        self.data.write().extend_from_slice(bytes.as_ref());
    }

    /// Timed read of `buf.len()` bytes at `offset`. Short reads at EOF are
    /// allowed (mirrors POSIX/MPI-IO semantics): the returned completion
    /// carries the byte count actually read. Timed as a one-request
    /// [`SimFile::read_batch`].
    pub fn read_at(&self, offset: u64, buf: &mut [u8], ctx: &IoCtx) -> Result<IoCompletion> {
        let req = independent(ctx, offset, buf.len());
        Ok(self.read_batch(&[req], &mut [buf])?[0])
    }

    /// Timed write of `buf` at `offset`, extending the file if needed.
    /// Timed as a one-request [`SimFile::write_batch`]; the tests' writer.
    #[cfg(test)]
    pub(crate) fn write_at(&self, offset: u64, buf: &[u8], ctx: &IoCtx) -> Result<IoCompletion> {
        let req = independent(ctx, offset, buf.len());
        Ok(self.write_batch(&[req], &[buf])?[0])
    }

    /// Deterministic timed batch read used by collective I/O: each
    /// request is clamped to EOF and accounted in the filesystem's stats,
    /// all are timed in `(now, rank)` order under one engine lock, and
    /// the data for each is copied out. Returns one completion per
    /// request, index aligned. A request ending past EOF is clamped (a
    /// short read); one starting past EOF is a [`PfsError::InvalidRange`]
    /// error and times nothing.
    pub fn read_batch(
        &self,
        reqs: &[IoRequest],
        bufs: &mut [&mut [u8]],
    ) -> Result<Vec<IoCompletion>> {
        assert_eq!(reqs.len(), bufs.len(), "one buffer per request");
        let sized: Vec<IoRequest> = reqs
            .iter()
            .zip(bufs.iter())
            .map(|(r, buf)| IoRequest {
                len: r.len.min(buf.len() as u64),
                ..*r
            })
            .collect();
        let clamped = self.account_reads(&sized)?;
        let done = self.engine.io_batch(self.stripe, self.ost_base, &clamped);
        for ((r, buf), d) in sized.iter().zip(bufs.iter_mut()).zip(&done) {
            self.peek(r.offset, &mut buf[..d.bytes as usize]);
        }
        Ok(done)
    }

    /// Times requests read as concurrent stripe pieces
    /// ([`TimingEngine::piece_batch`]), moving no bytes (the requester
    /// copies its own with [`SimFile::peek`]): `done[i]` is refilled with
    /// request `i`'s piece completions in file order, after the request
    /// is clamped to EOF and accounted exactly as in
    /// [`SimFile::read_batch`].
    pub fn time_piece_reads(&self, reqs: &[IoRequest], done: &mut [Vec<f64>]) -> Result<()> {
        let clamped = self.account_reads(reqs)?;
        self.engine
            .piece_batch(self.stripe, self.ost_base, &clamped, done);
        Ok(())
    }

    /// Clamps each request to EOF and records it in the stats; a request
    /// starting past EOF fails the whole batch before anything is
    /// recorded.
    fn account_reads(&self, reqs: &[IoRequest]) -> Result<Vec<IoRequest>> {
        let file_len = self.len();
        let clamped = reqs
            .iter()
            .map(|r| {
                if r.offset > file_len {
                    return Err(PfsError::InvalidRange {
                        offset: r.offset,
                        len: r.len,
                        file_len,
                    });
                }
                Ok(IoRequest {
                    len: r.len.min(file_len - r.offset),
                    ..*r
                })
            })
            .collect::<Result<Vec<_>>>()?;
        for r in &clamped {
            self.stats.record_read(
                r.len,
                crate::layout::is_stripe_aligned(self.stripe, r.offset),
                crate::layout::chunks_of(self.stripe, r.offset, r.len),
            );
        }
        Ok(clamped)
    }

    /// Deterministic timed batch write used by collective I/O: the
    /// aggregators' contiguous stripe flushes. The bytes are placed
    /// first (extending the file as needed), then every request is timed
    /// in `(now, rank)` order under one engine lock, exactly like
    /// [`SimFile::read_batch`] — requests from the same rank chain, which
    /// is what makes the aggregator count matter. `bufs[i]` supplies the
    /// data of `reqs[i]` and must be `reqs[i].len` bytes long.
    pub fn write_batch(&self, reqs: &[IoRequest], bufs: &[&[u8]]) -> Result<Vec<IoCompletion>> {
        assert_eq!(reqs.len(), bufs.len(), "one buffer per request");
        {
            let mut data = self.data.write();
            for (r, buf) in reqs.iter().zip(bufs.iter()) {
                assert_eq!(r.len, buf.len() as u64, "request length must match buffer");
                place(&mut data, r.offset, buf);
            }
        }
        for r in reqs {
            self.stats.record_write(
                r.len,
                crate::layout::is_stripe_aligned(self.stripe, r.offset),
                crate::layout::chunks_of(self.stripe, r.offset, r.len),
            );
        }
        Ok(self.engine.io_batch(self.stripe, self.ost_base, reqs))
    }

    /// Untimed whole-file snapshot (diagnostics and tests).
    pub fn snapshot(&self) -> Vec<u8> {
        self.data.read().clone()
    }

    /// Untimed, unaccounted write counterpart of [`SimFile::peek`]
    /// (tests use it to corrupt files in place). Extends the file if
    /// needed.
    pub fn poke(&self, offset: u64, buf: &[u8]) {
        place(&mut self.data.write(), offset, buf);
    }

    /// Untimed, unaccounted read (diagnostics and metadata checks that
    /// must not move the virtual clock). Returns the byte count actually
    /// copied (short at EOF).
    pub fn peek(&self, offset: u64, buf: &mut [u8]) -> usize {
        let data = self.data.read();
        let file_len = data.len() as u64;
        if offset >= file_len {
            return 0;
        }
        let n = ((file_len - offset) as usize).min(buf.len());
        buf[..n].copy_from_slice(&data[offset as usize..offset as usize + n]);
        n
    }
}

/// The request of an independent access of `len` bytes at `offset`.
fn independent(ctx: &IoCtx, offset: u64, len: usize) -> IoRequest {
    IoRequest {
        rank: 0,
        node: ctx.node,
        now: ctx.now,
        offset,
        len: len as u64,
    }
}

/// Places `buf` at `offset`, extending the file with zeros as needed.
fn place(data: &mut Vec<u8>, offset: u64, buf: &[u8]) {
    let end = offset as usize + buf.len();
    if data.len() < end {
        data.resize(end, 0);
    }
    data[offset as usize..end].copy_from_slice(buf);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FsConfig;
    use crate::fs::SimFs;

    fn fs() -> Arc<SimFs> {
        SimFs::new(FsConfig::test_tiny())
    }

    #[test]
    fn append_then_read_round_trips() {
        let fs = fs();
        let f = fs.create("a.bin", None).unwrap();
        f.append(b"hello world");
        let mut buf = vec![0u8; 5];
        let done = f.read_at(6, &mut buf, &IoCtx::serial(0.0)).unwrap();
        assert_eq!(&buf, b"world");
        assert_eq!(done.bytes, 5);
        assert!(done.completion > 0.0);
    }

    #[test]
    fn short_read_at_eof() {
        let fs = fs();
        let f = fs.create("a.bin", None).unwrap();
        f.append(b"abc");
        let mut buf = vec![0u8; 10];
        let done = f.read_at(1, &mut buf, &IoCtx::serial(0.0)).unwrap();
        assert_eq!(done.bytes, 2);
        assert_eq!(&buf[..2], b"bc");
    }

    #[test]
    fn read_past_eof_is_an_error() {
        let fs = fs();
        let f = fs.create("a.bin", None).unwrap();
        f.append(b"abc");
        let mut buf = vec![0u8; 1];
        assert!(matches!(
            f.read_at(10, &mut buf, &IoCtx::serial(0.0)),
            Err(PfsError::InvalidRange { .. })
        ));
    }

    #[test]
    fn write_extends_file() {
        let fs = fs();
        let f = fs.create("w.bin", None).unwrap();
        f.write_at(4, b"data", &IoCtx::serial(0.0)).unwrap();
        assert_eq!(f.len(), 8);
        assert_eq!(&f.snapshot(), &[0, 0, 0, 0, b'd', b'a', b't', b'a']);
    }

    #[test]
    fn batch_read_returns_aligned_completions() {
        let fs = fs();
        let f = fs.create("b.bin", None).unwrap();
        f.append(vec![7u8; 4096]);
        let reqs = vec![
            IoRequest {
                rank: 0,
                node: 0,
                now: 0.0,
                offset: 0,
                len: 1024,
            },
            IoRequest {
                rank: 1,
                node: 0,
                now: 0.0,
                offset: 1024,
                len: 1024,
            },
        ];
        let mut b0 = vec![0u8; 1024];
        let mut b1 = vec![0u8; 1024];
        let done = {
            let mut bufs: Vec<&mut [u8]> = vec![&mut b0, &mut b1];
            f.read_batch(&reqs, &mut bufs).unwrap()
        };
        assert_eq!(done.len(), 2);
        assert!(b0.iter().all(|&b| b == 7));
        assert!(b1.iter().all(|&b| b == 7));
        assert!(done[0].completion > 0.0 && done[1].completion > 0.0);
    }

    #[test]
    fn write_batch_places_bytes_and_times_deterministically() {
        let fs = fs();
        let f = fs.create("wb.bin", Some(StripeSpec::new(2, 1024))).unwrap();
        // Two aggregator-style contiguous stripe-aligned writes.
        let a = vec![1u8; 1024];
        let b = vec![2u8; 1024];
        let reqs = vec![
            IoRequest {
                rank: 0,
                node: 0,
                now: 0.0,
                offset: 0,
                len: 1024,
            },
            IoRequest {
                rank: 1,
                node: 1,
                now: 0.0,
                offset: 1024,
                len: 1024,
            },
        ];
        let done = f.write_batch(&reqs, &[&a, &b]).unwrap();
        assert_eq!(done.len(), 2);
        assert!(done.iter().all(|d| d.completion > 0.0));
        let data = f.snapshot();
        assert!(data[..1024].iter().all(|&x| x == 1));
        assert!(data[1024..].iter().all(|&x| x == 2));
        // Distinct OSTs and nodes: the two writes run in parallel.
        assert!((done[0].completion - done[1].completion).abs() < 1e-12);
        assert_eq!(fs.stats().write_ops(), 2);
        assert_eq!(fs.stats().stripe_aligned_ops(), 2);
    }

    #[test]
    fn write_batch_spanning_a_stripe_boundary_hits_both_osts() {
        let fs = fs();
        let f = fs.create("sb.bin", Some(StripeSpec::new(2, 1024))).unwrap();
        // One write straddling the 1024-byte stripe boundary: two chunks
        // on two OSTs, recorded as an unaligned op.
        let buf = vec![7u8; 1024];
        let reqs = vec![IoRequest {
            rank: 0,
            node: 0,
            now: 0.0,
            offset: 512,
            len: 1024,
        }];
        f.write_batch(&reqs, &[&buf]).unwrap();
        assert_eq!(f.len(), 512 + 1024);
        assert_eq!(fs.stats().chunk_requests(), 2);
        assert_eq!(fs.stats().unaligned_ops(), 1);
        let per = fs.stats().per_ost_bytes();
        assert_eq!(per[0], 512);
        assert_eq!(per[1], 512);
    }

    #[test]
    fn batch_read_shortens_at_eof_and_errors_past_it() {
        let fs = fs();
        let f = fs.create("sr.bin", None).unwrap();
        f.append(vec![9u8; 1500]);
        // A request ending past EOF is clamped (short read)…
        let reqs = vec![IoRequest {
            rank: 0,
            node: 0,
            now: 0.0,
            offset: 1024,
            len: 1024,
        }];
        let mut buf = vec![0u8; 1024];
        let done = {
            let mut bufs: Vec<&mut [u8]> = vec![&mut buf];
            f.read_batch(&reqs, &mut bufs).unwrap()
        };
        assert_eq!(done[0].bytes, 1500 - 1024);
        assert!(buf[..476].iter().all(|&b| b == 9));
        // …while a request *starting* past EOF is a typed error.
        let reqs = vec![IoRequest {
            rank: 0,
            node: 0,
            now: 0.0,
            offset: 2000,
            len: 8,
        }];
        let mut buf = vec![0u8; 8];
        let mut bufs: Vec<&mut [u8]> = vec![&mut buf];
        assert!(matches!(
            f.read_batch(&reqs, &mut bufs),
            Err(PfsError::InvalidRange { .. })
        ));
    }

    #[test]
    fn reads_are_timed_but_data_is_exact() {
        let fs = fs();
        let f = fs.create("pattern.bin", None).unwrap();
        let pattern: Vec<u8> = (0..255u8).cycle().take(10_000).collect();
        f.append(&pattern);
        let mut buf = vec![0u8; 10_000];
        f.read_at(0, &mut buf, &IoCtx::serial(0.0)).unwrap();
        assert_eq!(buf, pattern);
    }
}
