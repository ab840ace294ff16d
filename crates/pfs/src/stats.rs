//! Aggregate I/O observability counters.

use crate::layout::Chunks;
use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free counters describing everything a filesystem instance served.
///
/// Used by the benchmark harness to report request counts, byte volumes,
/// and per-OST load balance (stripe-placement skew shows up directly here).
pub struct FsStats {
    read_ops: AtomicU64,
    write_ops: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    chunk_requests: AtomicU64,
    stripe_aligned_ops: AtomicU64,
    unaligned_ops: AtomicU64,
    per_ost_bytes: Vec<AtomicU64>,
}

impl FsStats {
    pub(crate) fn new(total_osts: u32) -> Self {
        FsStats {
            read_ops: AtomicU64::new(0),
            write_ops: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            chunk_requests: AtomicU64::new(0),
            stripe_aligned_ops: AtomicU64::new(0),
            unaligned_ops: AtomicU64::new(0),
            per_ost_bytes: (0..total_osts).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    pub(crate) fn record_read(&self, bytes: u64, aligned: bool, chunks: Chunks) {
        self.read_ops.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        self.record_alignment(aligned);
        self.record_chunks(chunks);
    }

    pub(crate) fn record_write(&self, bytes: u64, aligned: bool, chunks: Chunks) {
        self.write_ops.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
        self.record_alignment(aligned);
        self.record_chunks(chunks);
    }

    fn record_alignment(&self, aligned: bool) {
        if aligned {
            self.stripe_aligned_ops.fetch_add(1, Ordering::Relaxed);
        } else {
            self.unaligned_ops.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn record_chunks(&self, chunks: Chunks) {
        let mut n = 0;
        for c in chunks {
            n += 1;
            // chunk.ost is file-relative; modulo keeps it in range even if
            // the caller passed global indices.
            let idx = c.ost as usize % self.per_ost_bytes.len().max(1);
            if let Some(slot) = self.per_ost_bytes.get(idx) {
                slot.fetch_add(c.len, Ordering::Relaxed);
            }
        }
        self.chunk_requests.fetch_add(n, Ordering::Relaxed);
    }

    /// Number of read operations served.
    pub fn read_ops(&self) -> u64 {
        self.read_ops.load(Ordering::Relaxed)
    }

    /// Number of write operations served.
    pub fn write_ops(&self) -> u64 {
        self.write_ops.load(Ordering::Relaxed)
    }

    /// Total bytes read.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Total bytes written.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Total striped chunk requests (≥ read_ops + write_ops).
    pub fn chunk_requests(&self) -> u64 {
        self.chunk_requests.load(Ordering::Relaxed)
    }

    /// Operations whose start offset fell exactly on a stripe boundary —
    /// the access pattern the paper recommends and the two-phase
    /// aggregators are built to produce.
    pub fn stripe_aligned_ops(&self) -> u64 {
        self.stripe_aligned_ops.load(Ordering::Relaxed)
    }

    /// Operations whose start offset was *not* stripe aligned.
    pub fn unaligned_ops(&self) -> u64 {
        self.unaligned_ops.load(Ordering::Relaxed)
    }

    /// Bytes served per OST slot (file-relative placement).
    pub fn per_ost_bytes(&self) -> Vec<u64> {
        self.per_ost_bytes
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{FsConfig, StripeSpec};
    use crate::engine::IoCtx;
    use crate::fs::SimFs;

    #[test]
    fn counters_track_operations() {
        let fs = SimFs::new(FsConfig::test_tiny());
        let f = fs.create("s.bin", Some(StripeSpec::new(2, 1024))).unwrap();
        f.append(vec![1u8; 4096]);

        let mut buf = vec![0u8; 2048];
        f.read_at(0, &mut buf, &IoCtx::serial(0.0)).unwrap();
        f.write_at(0, &[9u8; 100], &IoCtx::serial(1.0)).unwrap();

        let st = fs.stats();
        assert_eq!(st.read_ops(), 1);
        assert_eq!(st.write_ops(), 1);
        assert_eq!(st.bytes_read(), 2048);
        assert_eq!(st.bytes_written(), 100);
        // 2048 bytes over 1024-byte stripes = 2 chunks, plus 1 write chunk.
        assert_eq!(st.chunk_requests(), 3);
        // Both ops started at offset 0 — stripe aligned.
        assert_eq!(st.stripe_aligned_ops(), 2);
        assert_eq!(st.unaligned_ops(), 0);
    }

    #[test]
    fn alignment_counters_split_on_stripe_boundaries() {
        let fs = SimFs::new(FsConfig::test_tiny());
        let f = fs.create("a.bin", Some(StripeSpec::new(2, 1024))).unwrap();
        f.append(vec![0u8; 4096]);
        let mut buf = vec![0u8; 16];
        f.read_at(1024, &mut buf, &IoCtx::serial(0.0)).unwrap(); // aligned
        f.read_at(1000, &mut buf, &IoCtx::serial(0.0)).unwrap(); // not
        f.write_at(2048, &buf, &IoCtx::serial(0.0)).unwrap(); // aligned
        f.write_at(7, &buf, &IoCtx::serial(0.0)).unwrap(); // not
        let st = fs.stats();
        assert_eq!(st.stripe_aligned_ops(), 2);
        assert_eq!(st.unaligned_ops(), 2);
    }

    #[test]
    fn per_ost_balance_reflects_striping() {
        let fs = SimFs::new(FsConfig::test_tiny());
        let f = fs.create("s.bin", Some(StripeSpec::new(2, 1024))).unwrap();
        f.append(vec![1u8; 8192]);
        let mut buf = vec![0u8; 8192];
        f.read_at(0, &mut buf, &IoCtx::serial(0.0)).unwrap();
        let per = fs.stats().per_ost_bytes();
        // Round-robin: OSTs 0 and 1 each get half of the 8 KiB.
        assert_eq!(per[0], 4096);
        assert_eq!(per[1], 4096);
    }
}
