//! The serve result trip's wire format: answer blocks (`docs/FORMAT.md`
//! §4) — the owner-side writer, the validating reader, and the issuer's
//! filing of what it reads under the batch's queries.

use crate::engine::Query;
use mvio_core::{CoreError, Result};

/// Fixed bytes of one answer block: the query-index word and the two
/// length fields — the §1 record envelope, so the exchange's
/// record-aligned chunking cuts between blocks unchanged.
const BLOCK_OVERHEAD: u64 = 16;

/// The largest block a `u32` length field can describe.
pub(crate) const BLOCK_CAP_MAX: u64 = u32::MAX as u64;

/// Appends one owner's answer to query `qid` to `out` as answer blocks
/// (`docs/FORMAT.md` §4): `[u64 qid][u32 len][a][u32 len][b]` with `a`
/// the packed little-endian `f64` distances (kNN; `distances` is empty
/// for range/point answers, else one per match) and `b` the matches as
/// `[u32 len][utf-8]` entries, in the order given. Nothing is written for
/// an empty answer. A block closes, and the next reopens the same `qid`,
/// before the entry that would take it past `cap` bytes; a single entry
/// larger than the cap still ships whole, as an oversized record does.
/// Returns the number of blocks written.
pub(crate) fn write_answer_blocks(
    qid: u32,
    distances: &[f64],
    matches: &[&str],
    cap: u64,
    out: &mut Vec<u8>,
) -> Result<u64> {
    debug_assert!(distances.is_empty() || distances.len() == matches.len());
    // Length fields are checked conversions, as in the record format: an
    // oversized payload is an error, never a wrapped length.
    let put_len = |out: &mut Vec<u8>, len: u64| -> Result<()> {
        let len = u32::try_from(len).map_err(|_| {
            CoreError::Partition(format!(
                "serve protocol: answer block field of {len} bytes exceeds the u32 \
                 wire-format limit"
            ))
        })?;
        out.extend_from_slice(&len.to_le_bytes());
        Ok(())
    };
    let per_entry: u64 = if distances.is_empty() { 4 } else { 12 };
    let mut blocks = 0u64;
    let mut start = 0usize;
    while start < matches.len() {
        let (mut end, mut len) = (start, BLOCK_OVERHEAD);
        while end < matches.len() {
            let entry = per_entry + matches[end].len() as u64;
            if end > start && len + entry > cap {
                break;
            }
            len += entry;
            end += 1;
        }
        // Empty for a range/point answer, which has no distances at all.
        let block_distances = distances.get(start..end).unwrap_or_default();
        let a_len = 8 * block_distances.len() as u64;
        // audit: the block's payload is in memory already, so its length fits a usize.
        out.reserve(len as usize);
        out.extend_from_slice(&u64::from(qid).to_le_bytes());
        put_len(out, a_len)?;
        for d in block_distances {
            out.extend_from_slice(&d.to_le_bytes());
        }
        put_len(out, len - BLOCK_OVERHEAD - a_len)?;
        for m in &matches[start..end] {
            put_len(out, m.len() as u64)?;
            out.extend_from_slice(m.as_bytes());
        }
        blocks += 1;
        start = end;
    }
    Ok(blocks)
}

/// One match of a received answer block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnswerEntry<'a> {
    /// The issuing rank's index of the query this match answers.
    pub qid: u32,
    /// The match's distance from the query centre — `Some` in a kNN
    /// block, `None` in a range/point block.
    pub distance: Option<f64>,
    /// The matching feature's userdata.
    pub userdata: &'a str,
}

/// Walks one received buffer of answer blocks (`docs/FORMAT.md` §4),
/// validating as it goes: every length field is bounds-checked against
/// the bytes that remain, userdata must be UTF-8, a block must hold at
/// least one match, and its distance array must be empty or hold exactly
/// one `f64` per match. Any violation is yielded once as a typed
/// [`CoreError::Frame`], after which the walk ends; no input can make it
/// panic. Matches come out in wire order, each tagged with its block's
/// query index — which only the issuer can check against its batch.
pub fn answer_entries(buf: &[u8]) -> AnswerEntries<'_> {
    AnswerEntries {
        rest: buf,
        qid: 0,
        knn: false,
        distances: &[],
        matches: &[],
        blocks: 0,
    }
}

/// Validating iterator over the matches of one answer-block buffer; see
/// [`answer_entries`].
#[derive(Debug, Clone)]
pub struct AnswerEntries<'a> {
    /// The blocks not yet opened.
    rest: &'a [u8],
    /// The open block's query index, whether it carries distances, and
    /// its unread distances and matches.
    qid: u32,
    knn: bool,
    distances: &'a [u8],
    matches: &'a [u8],
    blocks: u64,
}

impl<'a> AnswerEntries<'a> {
    /// Blocks opened so far — after the walk, the buffer's block count.
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    fn step(&mut self) -> Result<Option<AnswerEntry<'a>>> {
        if self.matches.is_empty() {
            if !self.distances.is_empty() {
                return Err(bad_block("more distances than matches"));
            }
            if self.rest.is_empty() {
                return Ok(None);
            }
            let qid = u64::from_le_bytes(take_array(&mut self.rest, "query index")?);
            self.qid = u32::try_from(qid)
                .map_err(|_| bad_block("query index exceeds the u32 index space"))?;
            self.distances = take_prefixed(&mut self.rest, "distances")?;
            self.matches = take_prefixed(&mut self.rest, "matches")?;
            if self.matches.is_empty() {
                return Err(bad_block("block holds no match"));
            }
            self.knn = !self.distances.is_empty();
            self.blocks += 1;
        }
        let userdata = std::str::from_utf8(take_prefixed(&mut self.matches, "userdata")?)
            .map_err(|_| bad_block("non-UTF8 userdata"))?;
        let distance = if self.knn {
            let bits = take_array(&mut self.distances, "distance (fewer than matches)")?;
            Some(f64::from_le_bytes(bits))
        } else {
            None
        };
        Ok(Some(AnswerEntry {
            qid: self.qid,
            distance,
            userdata,
        }))
    }
}

impl<'a> Iterator for AnswerEntries<'a> {
    type Item = Result<AnswerEntry<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        let step = self.step();
        if step.is_err() {
            (self.rest, self.distances, self.matches) = (&[], &[], &[]);
        }
        step.transpose()
    }
}

/// The issuer's half of the result trip for one received buffer: walks
/// its answer blocks with [`answer_entries`] and files every match under
/// the query it answers, as `(distance, userdata)` (distance 0 for
/// range/point matches). Beyond the walk's own checks, a block must name
/// a query of this batch and carry distances exactly when that query is
/// a kNN; a violation is a typed `serve protocol` error. Returns the
/// buffer's `(blocks, matches)`.
pub(crate) fn collect_answers(
    queries: &[Query],
    buf: &[u8],
    collected: &mut [Vec<(f64, String)>],
) -> Result<(u64, u64)> {
    let mut matches = 0u64;
    let mut entries = answer_entries(buf);
    for entry in entries.by_ref() {
        let AnswerEntry {
            qid,
            distance,
            userdata,
        } = entry?;
        // audit: u32 → usize is lossless; `get` rejects out-of-range ids.
        let at = qid as usize;
        let (Some(query), Some(slot)) = (queries.get(at), collected.get_mut(at)) else {
            return Err(CoreError::Partition(format!(
                "serve protocol: result for unknown query index {qid}"
            )));
        };
        if distance.is_some() != matches!(query, Query::Knn { .. }) {
            return Err(CoreError::Partition(format!(
                "serve protocol: answer block for query {qid} ({query:?}) {} distances",
                if distance.is_some() {
                    "carries"
                } else {
                    "lacks"
                }
            )));
        }
        slot.push((distance.unwrap_or(0.0), userdata.into()));
        matches += 1;
    }
    Ok((entries.blocks(), matches))
}

fn bad_block(msg: &str) -> CoreError {
    CoreError::Frame(format!("serve protocol: answer block: {msg}"))
}

/// Splits `n` bytes off the front of `buf`, or reports `what` truncated.
fn take<'a>(buf: &mut &'a [u8], n: usize, what: &str) -> Result<&'a [u8]> {
    if buf.len() < n {
        return Err(bad_block(&format!(
            "truncated {what}: {n} bytes wanted, {} left",
            buf.len()
        )));
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

/// Splits a fixed-width little-endian field off the front of `buf`.
fn take_array<const N: usize>(buf: &mut &[u8], what: &str) -> Result<[u8; N]> {
    let bytes = take(buf, N, what)?;
    // audit: `take` returned exactly N bytes.
    Ok(bytes.try_into().expect("N-byte slice"))
}

/// Splits a `[u32 len][len bytes]` field off the front of `buf`.
fn take_prefixed<'a>(buf: &mut &'a [u8], what: &str) -> Result<&'a [u8]> {
    let len = u32::from_le_bytes(take_array(buf, what)?);
    let len = usize::try_from(len).map_err(|_| {
        bad_block(&format!(
            "{what} length {len} does not fit this target's usize"
        ))
    })?;
    take(buf, len, what)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvio_geom::{Point, Rect};

    /// A buffer of answer blocks decoded: `(qid, distance, userdata)`.
    type Decoded = Vec<(u32, Option<f64>, String)>;

    /// A valid three-block buffer — a kNN answer split in two by an
    /// 80-byte cap, then a range answer — with the batch it answers and
    /// its decoded form.
    fn sample_blocks() -> (Vec<Query>, Vec<u8>, Decoded) {
        let queries = vec![
            Query::Range(Rect::new(0.0, 0.0, 1.0, 1.0)),
            Query::Knn {
                at: Point::new(0.0, 0.0),
                k: 4,
            },
        ];
        let mut buf = Vec::new();
        let neighbors = ["alpha", "beta", "gamma-gamma", "δelta"];
        let distances = [0.0, 0.5, 0.5, 2.25];
        let knn_blocks = write_answer_blocks(1, &distances, &neighbors, 80, &mut buf).unwrap();
        assert_eq!(knn_blocks, 2, "the cap must split the kNN answer");
        let matches = ["a", "", "ccc"];
        assert_eq!(
            write_answer_blocks(0, &[], &matches, 80, &mut buf).unwrap(),
            1
        );
        assert_eq!(write_answer_blocks(0, &[], &[], 80, &mut buf).unwrap(), 0);
        let mut parsed: Decoded = neighbors
            .iter()
            .zip(distances)
            .map(|(n, d)| (1, Some(d), n.to_string()))
            .collect();
        parsed.extend(matches.iter().map(|m| (0, None, m.to_string())));
        (queries, buf, parsed)
    }

    /// Walks `buf` as the issuer does; `Ok` holds the decoded entries.
    fn decode(queries: &[Query], buf: &[u8]) -> Result<Decoded> {
        let mut collected = vec![Vec::new(); queries.len()];
        collect_answers(queries, buf, &mut collected)?;
        answer_entries(buf)
            .map(|e| e.map(|e| (e.qid, e.distance, e.userdata.to_string())))
            .collect()
    }

    /// Byte offsets of every block's start and of every `u32` length
    /// field in a valid buffer.
    fn block_layout(buf: &[u8]) -> (Vec<usize>, Vec<usize>) {
        let u32_at = |at: usize| u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()) as usize;
        let (mut starts, mut fields) = (Vec::new(), Vec::new());
        let mut pos = 0;
        while pos < buf.len() {
            starts.push(pos);
            let a_len = u32_at(pos + 8);
            let b_at = pos + 12 + a_len;
            fields.extend([pos + 8, b_at]);
            let b_end = b_at + 4 + u32_at(b_at);
            let mut entry = b_at + 4;
            while entry < b_end {
                fields.push(entry);
                entry += 4 + u32_at(entry);
            }
            pos = b_end;
        }
        (starts, fields)
    }

    #[test]
    fn answer_block_decoder_survives_every_mutation() {
        let (queries, valid, parsed) = sample_blocks();
        assert_eq!(decode(&queries, &valid).unwrap(), parsed);
        let (starts, fields) = block_layout(&valid);
        assert_eq!(starts.len(), 3);
        // Every outcome must be a typed error or a parse — a panic (also
        // an arithmetic overflow under debug assertions) fails the test.
        let typed = |r: Result<Decoded>| match r {
            Ok(entries) => Some(entries),
            Err(CoreError::Frame(_) | CoreError::Partition(_)) => None,
            Err(other) => panic!("untyped decoder error: {other:?}"),
        };

        // Truncation at every offset: a cut between blocks is the valid
        // prefix, any other cut is an error.
        for cut in 0..valid.len() {
            let got = typed(decode(&queries, &valid[..cut]));
            if let Some(blocks) = starts.iter().position(|&s| s == cut) {
                let entries = got.unwrap_or_else(|| panic!("cut {cut} is block-aligned"));
                assert!(parsed.starts_with(&entries), "cut {cut}");
                assert_eq!(entries.is_empty(), blocks == 0);
            } else {
                assert!(got.is_none(), "cut {cut} inside a block parsed: {got:?}");
            }
        }

        // Every length field set to 0, u32::MAX and ±1.
        for &at in &fields {
            let len = u32::from_le_bytes(valid[at..at + 4].try_into().unwrap());
            for value in [0, u32::MAX, len.wrapping_add(1), len.wrapping_sub(1)] {
                let mut buf = valid.clone();
                buf[at..at + 4].copy_from_slice(&value.to_le_bytes());
                let got = typed(decode(&queries, &buf));
                if value != len {
                    assert_ne!(got.as_ref(), Some(&parsed), "field at {at} set to {value}");
                }
            }
        }

        // One distance dropped from, or added to, the first kNN block.
        let a_len = u32::from_le_bytes(valid[8..12].try_into().unwrap());
        let mut dropped = valid.clone();
        dropped.drain(12..20);
        dropped[8..12].copy_from_slice(&(a_len - 8).to_le_bytes());
        assert!(typed(decode(&queries, &dropped)).is_none());
        let mut added = valid.clone();
        added.splice(12..12, 1.0f64.to_le_bytes());
        added[8..12].copy_from_slice(&(a_len + 8).to_le_bytes());
        assert!(typed(decode(&queries, &added)).is_none());

        // Non-UTF-8 userdata, in the last entry of the last block.
        let mut spliced = valid.clone();
        *spliced.last_mut().unwrap() = 0xFF;
        assert!(typed(decode(&queries, &spliced)).is_none());

        // A query index outside the batch, one past the u32 index space,
        // and one naming a query of the other kind.
        for (block, qid) in [(0, 2u64), (0, 1 << 32), (0, 0), (2, 1)] {
            let mut buf = valid.clone();
            buf[starts[block]..starts[block] + 8].copy_from_slice(&qid.to_le_bytes());
            assert!(
                typed(decode(&queries, &buf)).is_none(),
                "block {block} retagged as query {qid}"
            );
        }
    }
}
