//! Stripe layout: mapping byte ranges of a file onto OST chunks.

use crate::config::StripeSpec;

/// One contiguous piece of a file request that lands on a single OST.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// Index of the OST (within the file's stripe set, 0-based; add the
    /// file's `ost_base` for a filesystem-global index).
    pub ost: u32,
    /// File offset of the chunk's first byte.
    pub offset: u64,
    /// Chunk length in bytes.
    pub len: u64,
}

/// Splits the byte range `[offset, offset + len)` into the per-OST chunks
/// dictated by `stripe` (round-robin placement, Lustre-style: stripe index
/// `i` lives on OST `i % count`). A walk, not a list: timing or counting
/// a request allocates nothing.
pub fn chunks_of(stripe: StripeSpec, offset: u64, len: u64) -> Chunks {
    Chunks {
        stripe,
        pos: offset,
        end: offset + len,
    }
}

/// The chunks of one byte range, in file order ([`chunks_of`]).
#[derive(Debug, Clone)]
pub struct Chunks {
    stripe: StripeSpec,
    pos: u64,
    end: u64,
}

impl Iterator for Chunks {
    type Item = Chunk;

    fn next(&mut self) -> Option<Chunk> {
        if self.pos >= self.end {
            return None;
        }
        let stripe_idx = self.pos / self.stripe.size;
        let chunk_end = ((stripe_idx + 1) * self.stripe.size).min(self.end);
        let chunk = Chunk {
            ost: (stripe_idx % self.stripe.count as u64) as u32,
            offset: self.pos,
            len: chunk_end - self.pos,
        };
        self.pos = chunk_end;
        Some(chunk)
    }
}

/// `true` if the range starts exactly on a stripe boundary — the alignment
/// the paper recommends ("parallel file read access will be stripe
/// aligned").
pub fn is_stripe_aligned(stripe: StripeSpec, offset: u64) -> bool {
    offset.is_multiple_of(stripe.size)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(count: u32, size: u64) -> StripeSpec {
        StripeSpec::new(count, size)
    }

    #[test]
    fn single_stripe_read() {
        let c: Vec<Chunk> = chunks_of(spec(4, 1024), 0, 512).collect();
        assert_eq!(
            c,
            vec![Chunk {
                ost: 0,
                offset: 0,
                len: 512
            }]
        );
    }

    #[test]
    fn read_spanning_three_stripes() {
        let c: Vec<Chunk> = chunks_of(spec(4, 1024), 512, 2048).collect();
        assert_eq!(
            c,
            vec![
                Chunk {
                    ost: 0,
                    offset: 512,
                    len: 512
                },
                Chunk {
                    ost: 1,
                    offset: 1024,
                    len: 1024
                },
                Chunk {
                    ost: 2,
                    offset: 2048,
                    len: 512
                },
            ]
        );
    }

    #[test]
    fn round_robin_wraps_past_stripe_count() {
        // stripe count 2: stripes 0,1,2,3 -> OSTs 0,1,0,1.
        let c: Vec<Chunk> = chunks_of(spec(2, 100), 0, 400).collect();
        let osts: Vec<u32> = c.iter().map(|c| c.ost).collect();
        assert_eq!(osts, vec![0, 1, 0, 1]);
    }

    #[test]
    fn chunks_partition_the_range_exactly() {
        let (off, len) = (777u64, 5_000u64);
        let c: Vec<Chunk> = chunks_of(spec(3, 512), off, len).collect();
        assert_eq!(c.first().unwrap().offset, off);
        let total: u64 = c.iter().map(|c| c.len).sum();
        assert_eq!(total, len);
        // Contiguity.
        for w in c.windows(2) {
            assert_eq!(w[0].offset + w[0].len, w[1].offset);
        }
    }

    #[test]
    fn zero_length_is_empty() {
        assert_eq!(chunks_of(spec(4, 1024), 100, 0).next(), None);
    }

    #[test]
    fn alignment_check() {
        let s = spec(4, 1024);
        assert!(is_stripe_aligned(s, 0));
        assert!(is_stripe_aligned(s, 2048));
        assert!(!is_stripe_aligned(s, 1000));
    }
}
