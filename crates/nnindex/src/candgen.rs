//! Filtered candidate generation: packed postings arena, q-gram
//! length/count pruning, and top-candidate selection.
//!
//! The candidate-generation indexes share three building blocks:
//!
//! * [`PackedPostings`] — the in-memory delta-encoded, block-compressed
//!   postings arena (DESIGN.md §7.7), one list per term, postings sorted
//!   by id: each term's ids are split into blocks of [`PACKED_BLOCK`],
//!   stored as an absolute first id plus per-block fixed-width deltas
//!   (1, 2 or 4 bytes each, chosen per block), with SoA metadata (11
//!   bytes a block). Typical postings shrink ~4× versus raw `u32`s, so
//!   more of the hot term lists stay cache-resident during the merge.
//! * [`CandFilter`] — the verification-time pruning filters. For
//!   distances that admit them
//!   ([`Distance::admits_qgram_filter`](fuzzydedup_textdist::Distance::admits_qgram_filter)),
//!   a normalized cutoff `t < 1` over records with char counts
//!   `(cq, cc)` implies `lev <= K = floor(t * max(cq, cc))`, which bounds
//!   both the length gap (`|cq - cc| <= lev`) and, since one edit destroys
//!   at most `q` padded q-grams, the q-gram multiset overlap
//!   (`overlap >= max(gq, gc) - K*q`, see
//!   [`QgramProfile::required_overlap`](fuzzydedup_textdist::QgramProfile::required_overlap)).
//!   Candidates violating either bound are pruned *before* the exact
//!   distance call. Where no sound bound exists the filters are no-ops.
//! * [`select_top_candidates`] — selection of the `limit` highest-weight
//!   candidates via `select_nth_unstable_by` (average `O(n)`) instead of a
//!   full sort of every scored candidate.

use std::cmp::Ordering;

use fuzzydedup_metrics::{incr, Counter};

/// Per-record statistics consumed by the pruning filters: the char count
/// of the normalized record string and its total padded q-gram mass
/// (`chars + q - 1`, or `0` for an empty record).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecordMeta {
    /// Char count of the normalized record string.
    pub chars: u32,
    /// Total padded q-gram occurrences of the record string.
    pub grams: u32,
}

/// Posting ids per delta block of a [`PackedPostings`] arena. 64 ids per
/// block keeps a worst-case (4-byte-delta) block within four cache lines
/// and makes the per-block metadata overhead (11 bytes) negligible, while
/// a short list still pays for one narrow block only.
pub const PACKED_BLOCK: usize = 64;

/// Delta-encoded block-compressed postings arena; see module docs.
/// Built once at index construction: one [`PackedPostings::push_list`]
/// per term, in term-id order.
#[derive(Debug, Clone, Default)]
pub struct PackedPostings {
    /// `term_blocks[t]..term_blocks[t + 1]` bounds term `t`'s blocks.
    term_blocks: Vec<u32>,
    /// Posting count per term (the sum of its block lengths).
    term_lens: Vec<u32>,
    /// Absolute first id of each block.
    block_first: Vec<u32>,
    /// Byte offset of each block's delta run in `arena`.
    block_off: Vec<u32>,
    /// Ids per block (`1..=PACKED_BLOCK`).
    block_len: Vec<u16>,
    /// Bytes per delta in this block: 1, 2 or 4.
    block_width: Vec<u8>,
    /// All delta runs, back to back. A block with `len` ids stores
    /// `len - 1` deltas (the first id is absolute in `block_first`).
    arena: Vec<u8>,
}

impl PackedPostings {
    /// An empty arena, primed with the leading block offset.
    pub fn new() -> Self {
        Self { term_blocks: vec![0], ..Default::default() }
    }

    /// Append the next term's posting list (ids strictly ascending).
    /// Terms must be pushed in term-id order.
    pub fn push_list(&mut self, postings: &[u32]) {
        debug_assert!(postings.windows(2).all(|w| w[0] < w[1]), "postings sorted by id");
        self.term_lens.push(postings.len() as u32);
        for block in postings.chunks(PACKED_BLOCK) {
            let mut width = 1u8;
            for w in block.windows(2) {
                let d = w[1] - w[0];
                if d > 0xFFFF {
                    width = 4;
                    break;
                }
                if d > 0xFF {
                    width = 2;
                }
            }
            let off = self.arena.len();
            assert!(off <= u32::MAX as usize, "packed postings arena exceeds u32 offsets");
            for w in block.windows(2) {
                let d = w[1] - w[0];
                match width {
                    1 => self.arena.push(d as u8),
                    2 => self.arena.extend_from_slice(&(d as u16).to_le_bytes()),
                    _ => self.arena.extend_from_slice(&d.to_le_bytes()),
                }
            }
            self.block_first.push(block[0]);
            self.block_off.push(off as u32);
            self.block_len.push(block.len() as u16);
            self.block_width.push(width);
        }
        self.term_blocks.push(self.block_first.len() as u32);
    }

    /// The block index range of a term.
    #[inline]
    pub fn blocks(&self, term: u32) -> std::ops::Range<usize> {
        let t = term as usize;
        self.term_blocks[t] as usize..self.term_blocks[t + 1] as usize
    }

    /// Posting count of a term.
    #[inline]
    pub fn list_len(&self, term: u32) -> usize {
        self.term_lens[term as usize] as usize
    }

    /// Decode one block into an exactly-sized output slice. The slice
    /// form keeps the hot loop free of per-id capacity checks: the
    /// cumulative-sum chain and the slice write are all that remains.
    ///
    /// The scalar prefix sum is a 1-cycle-per-posting serial chain; on
    /// x86_64 the 1- and 2-byte widths (which carry nearly all posting
    /// mass — wide deltas only appear in low-df lists) instead widen four
    /// deltas into one SSE2 vector and run an in-register inclusive scan,
    /// so the cross-iteration dependency shrinks to one add + one
    /// broadcast per four postings.
    fn decode_block_into(&self, block: usize, out: &mut [u32]) {
        debug_assert_eq!(out.len(), self.block_len[block] as usize);
        let id = self.block_first[block];
        let width = self.block_width[block] as usize;
        let start = self.block_off[block] as usize;
        let bytes = &self.arena[start..start + (out.len() - 1) * width];
        out[0] = id;
        match width {
            1 => decode_deltas_u8(id, bytes, &mut out[1..]),
            2 => decode_deltas_u16(id, bytes, &mut out[1..]),
            _ => {
                let mut id = id;
                for (slot, quad) in out[1..].iter_mut().zip(bytes.chunks_exact(4)) {
                    id += u32::from_le_bytes(quad.try_into().unwrap());
                    *slot = id;
                }
            }
        }
    }

    /// Append `extra` uninitialized-then-overwritten slots to `out`,
    /// returning the write window. `u32` has no drop glue and every slot
    /// is written by `decode_block_into` before any read, so skipping the
    /// `resize` zero-fill is sound — and saves a full memset pass over
    /// every staged posting.
    #[allow(clippy::uninit_vec)] // every slot is written before any read; u32 has no invalid values
    fn grow_for_decode(out: &mut Vec<u32>, extra: usize) -> &mut [u32] {
        let at = out.len();
        out.reserve(extra);
        // SAFETY: capacity reserved above; the `decode_block_into` calls
        // below write every one of the `extra` slots before they are
        // read (debug-asserted by the callers' exhaustion checks).
        unsafe { out.set_len(at + extra) };
        &mut out[at..]
    }

    /// Decode a whole term's posting list, appending to `out`. Returns
    /// the number of blocks decoded.
    pub fn decode_list(&self, term: u32, out: &mut Vec<u32>) -> u64 {
        let range = self.blocks(term);
        let n = range.len() as u64;
        let mut dst = Self::grow_for_decode(out, self.list_len(term));
        for b in range {
            let (cur, rest) = dst.split_at_mut(self.block_len[b] as usize);
            self.decode_block_into(b, cur);
            dst = rest;
        }
        debug_assert!(dst.is_empty(), "term_lens must equal the sum of block_lens");
        n
    }

    /// Hint the CPU to start pulling a term's leading delta bytes toward
    /// L1; the staged merge calls this one term ahead of the decode.
    #[inline]
    pub fn prefetch(&self, term: u32) {
        #[cfg(target_arch = "x86_64")]
        {
            let range = self.blocks(term);
            if range.is_empty() {
                return;
            }
            let start = self.block_off[range.start] as usize;
            let end = self.arena.len().min(start + 256);
            let mut at = start;
            while at < end {
                // SAFETY: `at < end ≤ arena.len()`; prefetch is a hint
                // with no other requirements.
                unsafe {
                    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                    _mm_prefetch(self.arena.as_ptr().add(at).cast::<i8>(), _MM_HINT_T0);
                }
                at += 64;
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = term;
    }

    /// Total delta blocks across all terms.
    pub fn num_blocks(&self) -> usize {
        self.block_first.len()
    }

    /// Bytes of the delta arena (excludes the SoA metadata).
    pub fn arena_bytes(&self) -> usize {
        self.arena.len()
    }
}

/// Prefix-sum 1-byte deltas starting from `id`, writing absolute ids.
#[inline]
fn decode_deltas_u8(id: u32, bytes: &[u8], out: &mut [u32]) {
    debug_assert_eq!(bytes.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE2 is part of the x86_64 baseline; the helper's own
    // contract (equal-length chunk pairs) is upheld by chunks_exact.
    unsafe {
        use std::arch::x86_64::*;
        let mut base = _mm_set1_epi32(id as i32);
        let mut chunks = bytes.chunks_exact(4);
        let mut slots = out.chunks_exact_mut(4);
        for (quad, dst) in (&mut chunks).zip(&mut slots) {
            // Widen 4×u8 → 4×u32, scan in-register, add the running base.
            let raw = _mm_cvtsi32_si128(i32::from_le_bytes(quad.try_into().unwrap()));
            let zero = _mm_setzero_si128();
            let wide = _mm_unpacklo_epi16(_mm_unpacklo_epi8(raw, zero), zero);
            let ids = scan4_add(base, wide);
            _mm_storeu_si128(dst.as_mut_ptr().cast::<__m128i>(), ids);
            base = _mm_shuffle_epi32(ids, 0xFF);
        }
        let mut id = _mm_cvtsi128_si32(base) as u32;
        for (slot, &d) in slots.into_remainder().iter_mut().zip(chunks.remainder()) {
            id += u32::from(d);
            *slot = id;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let mut id = id;
        for (slot, &d) in out.iter_mut().zip(bytes) {
            id += u32::from(d);
            *slot = id;
        }
    }
}

/// Prefix-sum little-endian 2-byte deltas starting from `id`.
#[inline]
fn decode_deltas_u16(id: u32, bytes: &[u8], out: &mut [u32]) {
    debug_assert_eq!(bytes.len(), out.len() * 2);
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE2 baseline; `_mm_loadl_epi64` reads exactly the 8 bytes
    // of the chunk.
    unsafe {
        use std::arch::x86_64::*;
        let mut base = _mm_set1_epi32(id as i32);
        let mut chunks = bytes.chunks_exact(8);
        let mut slots = out.chunks_exact_mut(4);
        for (oct, dst) in (&mut chunks).zip(&mut slots) {
            let raw = _mm_loadl_epi64(oct.as_ptr().cast::<__m128i>());
            let wide = _mm_unpacklo_epi16(raw, _mm_setzero_si128());
            let ids = scan4_add(base, wide);
            _mm_storeu_si128(dst.as_mut_ptr().cast::<__m128i>(), ids);
            base = _mm_shuffle_epi32(ids, 0xFF);
        }
        let mut id = _mm_cvtsi128_si32(base) as u32;
        for (slot, pair) in
            slots.into_remainder().iter_mut().zip(chunks.remainder().chunks_exact(2))
        {
            id += u32::from(u16::from_le_bytes([pair[0], pair[1]]));
            *slot = id;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let mut id = id;
        for (slot, pair) in out.iter_mut().zip(bytes.chunks_exact(2)) {
            id += u32::from(u16::from_le_bytes([pair[0], pair[1]]));
            *slot = id;
        }
    }
}

/// Inclusive scan of four u32 delta lanes plus a broadcast base: lane i
/// of the result is `base + deltas[0..=i].sum()`.
#[cfg(target_arch = "x86_64")]
#[inline]
unsafe fn scan4_add(
    base: std::arch::x86_64::__m128i,
    deltas: std::arch::x86_64::__m128i,
) -> std::arch::x86_64::__m128i {
    use std::arch::x86_64::*;
    let step1 = _mm_add_epi32(deltas, _mm_slli_si128(deltas, 4));
    let step2 = _mm_add_epi32(step1, _mm_slli_si128(step1, 8));
    _mm_add_epi32(step2, base)
}

/// Verification-time pruning filter; see module docs. Constructed per
/// query by the index (only when its distance admits the q-gram bounds)
/// and applied by `verify_candidates_bounded` with the *same* running
/// cutoff it passes to `distance_bounded` — so a pruned candidate is one
/// the bounded distance call would provably have rejected, and the
/// surviving set is identical to the unfiltered one.
pub(crate) struct CandFilter<'a> {
    /// q-gram length the index was built with.
    pub q: u32,
    /// Query-record statistics.
    pub query: RecordMeta,
    /// Per-record statistics, indexed by record id.
    pub meta: &'a [RecordMeta],
    /// Query-side shared gram mass per candidate, parallel to the
    /// candidate list (an over-estimate of the true multiset overlap over
    /// the merged terms). `None` disables the count filter (length-only).
    pub overlaps: Option<&'a [u32]>,
    /// Query gram mass *not* merged (stop grams dropped during candidate
    /// generation): a candidate may share up to this much overlap beyond
    /// its recorded proxy, so it is credited before comparing to the
    /// required bound.
    pub slack: u32,
}

impl CandFilter<'_> {
    /// Whether the candidate at position `i` of the list (record id
    /// `cand`) is provably outside the normalized cutoff. Increments the
    /// pruning counters on the first bound that fires.
    pub fn prunes(&self, i: usize, cand: u32, cutoff: f64) -> bool {
        // A cutoff >= 1 admits any pair (lev <= max_chars always holds);
        // this branch also rejects the infinite cutoff of the first
        // verification attempts and NaN.
        if cutoff.is_nan() || cutoff >= 1.0 {
            return false;
        }
        let cm = self.meta[cand as usize];
        let max_chars = f64::from(self.query.chars.max(cm.chars));
        // d = lev / max_chars <= cutoff  ⇔  lev <= floor(cutoff * max_chars).
        let k = (cutoff * max_chars).floor() as i64;
        let gap = i64::from(self.query.chars) - i64::from(cm.chars);
        if gap.abs() > k {
            incr(Counter::PrunedByLength, 1);
            return true;
        }
        if let Some(overlaps) = self.overlaps {
            let required = i64::from(self.query.grams.max(cm.grams)) - k * i64::from(self.q);
            let available = i64::from(overlaps[i]) + i64::from(self.slack);
            if available < required {
                incr(Counter::PrunedByCount, 1);
                return true;
            }
        }
        false
    }
}

/// Candidate ordering for verification: highest shared IDF weight first,
/// ties by ascending id (the historical full-sort order, so truncation
/// keeps the same set).
#[inline]
fn cand_cmp(a: &(u32, f64, u32), b: &(u32, f64, u32)) -> Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// Reduce scored candidates `(id, weight, overlap)` to the `limit` best
/// (all of them for `limit == 0`), returned as parallel `(ids, overlaps)`
/// lists in weight-descending order. Uses `select_nth_unstable_by` to
/// avoid sorting the dropped tail; counts the dropped candidates in
/// [`Counter::CandidatesTruncated`]. Selects in place so callers can
/// hand in a reused buffer (truncated to the kept set on return).
pub(crate) fn select_top_candidates(
    scored: &mut Vec<(u32, f64, u32)>,
    limit: usize,
) -> (Vec<u32>, Vec<u32>) {
    if limit > 0 && scored.len() > limit {
        incr(Counter::CandidatesTruncated, (scored.len() - limit) as u64);
        scored.select_nth_unstable_by(limit - 1, cand_cmp);
        scored.truncate(limit);
    }
    scored.sort_unstable_by(cand_cmp);
    (scored.iter().map(|s| s.0).collect(), scored.iter().map(|s| s.2).collect())
}

/// [`select_top_candidates`] for a collapsed corpus (DESIGN.md §7.10):
/// the `limit` budget counts **full-corpus** candidates, so each kept
/// representative debits its multiplicity and the query's own duplicates
/// (`self_mult − 1` of them, the highest-weight candidates the full
/// corpus would generate) debit the budget up front. The walk keeps
/// representatives in the same `(weight desc, id asc)` order the full
/// sort uses, stops once the cumulative multiplicity covers the budget,
/// and then completes the final weight tie-block — a full-corpus cut
/// inside a tie block lands on ids the representative order cannot see,
/// so taking the whole block keeps every class the full corpus kept
/// (identity is exact unless the full-corpus cut bisects a class; the
/// collapse property suites and bench assert identity on their corpora).
pub(crate) fn select_top_candidates_weighted(
    scored: &mut Vec<(u32, f64, u32)>,
    limit: usize,
    mult: &[u32],
    self_mult: u32,
) -> (Vec<u32>, Vec<u32>) {
    scored.sort_unstable_by(cand_cmp);
    if limit > 0 {
        let budget = limit.saturating_sub(self_mult as usize - 1) as u64;
        let mut cum = 0u64;
        let mut keep = scored.len();
        for (i, s) in scored.iter().enumerate() {
            if cum >= budget && (i == 0 || s.1 != scored[i - 1].1) {
                keep = i;
                break;
            }
            cum += u64::from(mult[s.0 as usize]);
        }
        if keep < scored.len() {
            incr(Counter::CandidatesTruncated, (scored.len() - keep) as u64);
            scored.truncate(keep);
        }
    }
    (scored.iter().map(|s| s.0).collect(), scored.iter().map(|s| s.2).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packed_of(lists: &[Vec<u32>]) -> PackedPostings {
        let mut packed = PackedPostings::new();
        for list in lists {
            packed.push_list(list);
        }
        packed
    }

    fn decode(packed: &PackedPostings, term: u32) -> Vec<u32> {
        let mut out = Vec::new();
        packed.decode_list(term, &mut out);
        out
    }

    #[test]
    fn packed_round_trips_at_block_boundaries() {
        // Lengths straddling every block-boundary case: empty, one id,
        // exactly one block, one over, two blocks, two-plus-one.
        for len in [0usize, 1, PACKED_BLOCK - 1, PACKED_BLOCK, PACKED_BLOCK + 1, 128, 129, 300] {
            let list: Vec<u32> = (0..len as u32).map(|i| i * 3 + 1).collect();
            let packed = packed_of(std::slice::from_ref(&list));
            assert_eq!(decode(&packed, 0), list, "len {len}");
            assert_eq!(packed.list_len(0), len);
            assert_eq!(packed.num_blocks(), len.div_ceil(PACKED_BLOCK));
        }
    }

    #[test]
    fn packed_round_trips_every_delta_width() {
        // Deltas of 1 (1-byte), 300 (2-byte), and 70_000 (4-byte), plus a
        // mixed block that must promote to the widest delta it contains,
        // and gaps that push ids toward u32::MAX.
        let lists: Vec<Vec<u32>> = vec![
            (0..100).collect(),
            (0..100).map(|i| i * 300).collect(),
            (0..100).map(|i| i * 70_000).collect(),
            vec![0, 1, 2, 400, 401, 100_000, 100_001],
            vec![5, u32::MAX - 1_000_000, u32::MAX - 3, u32::MAX],
            vec![],
            vec![u32::MAX],
        ];
        let packed = packed_of(&lists);
        for (t, list) in lists.iter().enumerate() {
            assert_eq!(&decode(&packed, t as u32), list, "term {t}");
        }
        // The narrow list really packed down to ~1 byte per id.
        assert!(packed.arena_bytes() < lists.iter().map(Vec::len).sum::<usize>() * 4);
    }

    #[test]
    fn packed_round_trips_random_lists() {
        let mut rng = 7u64;
        let mut lists = Vec::new();
        for _ in 0..50 {
            let len = (splitmix(&mut rng) % 200) as usize;
            let mut ids: Vec<u32> =
                (0..len).map(|_| (splitmix(&mut rng) % 100_000) as u32).collect();
            ids.sort_unstable();
            ids.dedup();
            lists.push(ids);
        }
        let packed = packed_of(&lists);
        for (t, list) in lists.iter().enumerate() {
            assert_eq!(&decode(&packed, t as u32), list, "term {t}");
        }
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    #[test]
    fn selection_matches_full_sort() {
        // select_nth + truncate + sort must keep exactly the prefix a
        // full sort would have kept, including weight ties broken by id.
        let mut rng = 42u64;
        for n in [0usize, 1, 5, 64, 257] {
            for limit in [0usize, 1, 3, 64, 300] {
                let mut scored: Vec<(u32, f64, u32)> = (0..n)
                    .map(|i| {
                        let w = (splitmix(&mut rng) % 7) as f64 / 3.0;
                        (i as u32, w, (i % 5) as u32)
                    })
                    .collect();
                let mut reference = scored.clone();
                reference.sort_by(cand_cmp);
                if limit > 0 {
                    reference.truncate(limit);
                }
                let (ids, overlaps) = select_top_candidates(&mut scored, limit);
                assert_eq!(ids, reference.iter().map(|s| s.0).collect::<Vec<_>>());
                assert_eq!(overlaps, reference.iter().map(|s| s.2).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn filter_is_noop_at_or_above_unit_cutoff() {
        let meta = [RecordMeta { chars: 3, grams: 5 }, RecordMeta { chars: 100, grams: 102 }];
        let overlaps = [0u32, 0];
        let filter =
            CandFilter { q: 3, query: meta[0], meta: &meta, overlaps: Some(&overlaps), slack: 0 };
        for cutoff in [1.0, 2.0, f64::INFINITY, f64::NAN] {
            assert!(!filter.prunes(1, 1, cutoff));
        }
        // Below 1.0 the mismatched pair is prunable by length alone.
        assert!(filter.prunes(1, 1, 0.5));
    }

    #[test]
    fn filter_keeps_identical_records() {
        let meta = [RecordMeta { chars: 10, grams: 12 }, RecordMeta { chars: 10, grams: 12 }];
        let overlaps = [12u32, 12];
        let filter =
            CandFilter { q: 3, query: meta[0], meta: &meta, overlaps: Some(&overlaps), slack: 0 };
        // Full overlap, equal lengths: never pruned, at any cutoff >= 0.
        for cutoff in [0.0, 0.1, 0.5, 0.99] {
            assert!(!filter.prunes(1, 1, cutoff));
        }
    }

    #[test]
    fn count_filter_uses_slack_credit() {
        // Same lengths, zero recorded overlap: prunable at a tight cutoff
        // unless the unmerged slack could account for the required mass.
        let meta = [RecordMeta { chars: 20, grams: 22 }, RecordMeta { chars: 20, grams: 22 }];
        let overlaps = [0u32];
        let tight =
            CandFilter { q: 3, query: meta[0], meta: &meta, overlaps: Some(&overlaps), slack: 0 };
        assert!(tight.prunes(0, 1, 0.1));
        let slackful = CandFilter { slack: 22, ..tight };
        assert!(!slackful.prunes(0, 1, 0.1));
        // Length-only mode (no overlap data) cannot use the count bound.
        let length_only = CandFilter { overlaps: None, ..tight };
        assert!(!length_only.prunes(0, 1, 0.1));
    }
}
