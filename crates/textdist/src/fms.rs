//! Fuzzy match similarity (fms): token-level edit distance + IDF weights.
//!
//! Implements the *symmetric* variant of the fuzzy match similarity of
//! Chaudhuri, Ganti, Ganjam, Motwani ("Robust and efficient fuzzy match for
//! online data cleaning", SIGMOD 2003) that the ICDE 2005 paper evaluates.
//!
//! The intuition (quoting the paper): `"microsoft corp"` and
//! `"microsft corporation"` are close because `microsoft` and `microsft`
//! are close under edit distance while the IDF weights of `corp` and
//! `corporation` are relatively small. Whole-string edit distance and
//! token-level cosine both misrank this example; fms gets it right.
//!
//! ## Definition used here
//!
//! Let `A`, `B` be the token multisets of the two records, with IDF weight
//! `w(t)` per token. Choose a partial one-to-one matching `M ⊆ A × B`
//! maximizing
//!
//! ```text
//! gain(M) = Σ_{(a,b) ∈ M} (w(a) + w(b)) · (1 − ned(a, b))
//! ```
//!
//! where `ned` is length-normalized Levenshtein. Then
//!
//! ```text
//! fms(A, B) = gain(M*) / (W(A) + W(B)),      d = 1 − fms
//! ```
//!
//! with `W(·)` the total token weight. The measure is symmetric by
//! construction, `0` distance iff the token multisets are identical, and `1`
//! iff no token pair has any character overlap worth matching. `d` is
//! evaluated as the weight the matching loses over `W(A) + W(B)` — each
//! matched pair's `(w(a) + w(b)) · ned(a, b)`, then each unmatched token's
//! `w` — which is the same quantity and is exactly `0` in floating point
//! when the multisets are identical, as the collapse of exact duplicates
//! (DESIGN.md §7.10) assumes. The optimal
//! matching is approximated greedily (largest gain first), which is exact
//! when gains are distinct across conflicting pairs and is the standard
//! practical choice for soft-TF-IDF-style measures.
//!
//! ## How a query pays for it
//!
//! A prepared query compiles each of its tokens once into a Myers pattern.
//! A token pair is then one scan bounded at the largest distance
//! `MAX_TOKEN_NED` still admits, so a pair the matching would drop is
//! abandoned early. Within one lookup, the candidates share tokens, and a
//! candidate token's IDF vocabulary id fixes its text. So each
//! (query token, vocabulary id) pair is scanned once and then memoized.
//! Every answer is exact: the scores are bit-identical to scanning every
//! pair in full.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

use fuzzydedup_metrics::{incr, Counter};
use parking_lot::Mutex;

use crate::idf::IdfModel;
use crate::myers::PreparedPattern;
use crate::tokenize::tokenize_record;
use crate::{Candidate, CompiledRecords, Distance, Prepared, PreparedDistance, WeightedTokens};

/// A memoized decomposition: a store holding the one record.
type Decomposition = Arc<CompiledRecords>;

/// The tokens of a one-record store.
fn tokens_of(decomposition: &CompiledRecords) -> WeightedTokens<'_> {
    match decomposition.candidate(0, &[]) {
        Candidate::Tokens(tokens) => tokens,
        other => unreachable!("fms compiles records to tokens, not {other:?}"),
    }
}

/// Symmetric fuzzy match distance; see module docs.
///
/// Every score comes from one place, a prepared query ([`PreparedFms`]):
/// the verification path prepares each query once and hands it compiled
/// candidates ([`Distance::compile_record`]); the unprepared
/// [`Distance::distance`] prepares its left record for the one call. Both
/// paths take raw records' decompositions (tokenization + IDF lookups)
/// from a bounded, thread-safe memo.
#[derive(Debug)]
pub struct FuzzyMatchDistance {
    idf: IdfModel,
    /// Decomposition memo, keyed by the record's joined text. Cleared
    /// wholesale when it outgrows `CACHE_CAP` (simpler than LRU and fine
    /// for scan-shaped workloads).
    cache: Mutex<HashMap<String, Decomposition>>,
}

impl Clone for FuzzyMatchDistance {
    fn clone(&self) -> Self {
        Self { idf: self.idf.clone(), cache: Mutex::new(HashMap::new()) }
    }
}

/// Decomposition cache bound (records, not bytes).
const CACHE_CAP: usize = 65_536;

/// Token pairs with normalized edit distance above this threshold are
/// never matched (their gain would be tiny anyway; the cutoff prunes the
/// greedy pass), so no token scan needs to run past [`token_bound`].
const MAX_TOKEN_NED: f64 = 0.8;

/// The largest edit distance a token pair whose longer side has `max_len`
/// chars may have and still be matched: the largest `k` with
/// `k / max_len <= MAX_TOKEN_NED`, evaluated in `f64` exactly as the
/// matching evaluates `ned`. The quotient only grows with `k`, so a scan
/// bounded here rejects exactly the pairs the matching drops.
fn token_bound(max_len: usize) -> usize {
    let within = |k: usize| k as f64 / max_len as f64 <= MAX_TOKEN_NED;
    let mut k = (max_len as f64 * MAX_TOKEN_NED) as usize;
    while k < max_len && within(k + 1) {
        k += 1;
    }
    while k > 0 && !within(k) {
        k -= 1;
    }
    k
}

impl FuzzyMatchDistance {
    /// Create with a fitted IDF model.
    pub fn new(idf: IdfModel) -> Self {
        Self { idf, cache: Mutex::new(HashMap::new()) }
    }

    /// The memoized decomposition of a record given as raw fields.
    fn decompose(&self, fields: &[&str]) -> Decomposition {
        let key = fields.join("\u{1f}");
        if let Some(hit) = self.cache.lock().get(&key) {
            return hit.clone();
        }
        let mut store = CompiledRecords::default();
        self.compile_record(fields, &mut store);
        let value: Decomposition = Arc::new(store);
        let mut cache = self.cache.lock();
        if cache.len() >= CACHE_CAP {
            cache.clear();
        }
        cache.insert(key, value.clone());
        value
    }

    /// Compile a query: its decomposition and one pattern per token.
    fn prepare_fms(&self, query: &[&str]) -> PreparedFms<'_> {
        let query = self.decompose(query);
        let mut scratch = Scratch::take();
        let tokens = tokens_of(&query);
        let patterns = tokens.iter().map(|(chars, _, _)| PreparedPattern::new(chars.to_vec()));
        scratch.patterns.extend(patterns);
        PreparedFms { distance: self, query, scratch }
    }

    /// Similarity in `[0, 1]`; `1` means identical token multisets.
    pub fn similarity(&self, a: &[&str], b: &[&str]) -> f64 {
        1.0 - self.fms_distance(a, b)
    }

    fn fms_distance(&self, a: &[&str], b: &[&str]) -> f64 {
        let b = self.decompose(b);
        self.prepare_fms(a).distance(tokens_of(&b))
    }
}

impl Distance for FuzzyMatchDistance {
    fn distance(&self, a: &[&str], b: &[&str]) -> f64 {
        incr(Counter::DistFms, 1);
        self.fms_distance(a, b)
    }

    /// Pin the query's decomposition and compile its tokens once.
    fn prepare<'a>(&'a self, query: &[&str]) -> Prepared<'a> {
        Prepared::new(Box::new(self.prepare_fms(query)))
    }

    /// A record compiles to its decomposition: normalized tokens in
    /// record order, each with its IDF weight and vocabulary id.
    fn compile_record(&self, fields: &[&str], store: &mut CompiledRecords) {
        let tokens = tokenize_record(fields);
        store.push_tokens(tokens.iter().map(|t| {
            let (weight, id) = self.idf.idf_and_id(&t.text);
            (t.text.as_str(), weight, id)
        }));
    }

    fn name(&self) -> &str {
        "fms"
    }
}

/// Compiled fms query: the decomposition held directly (no memo lookup),
/// and the thread's [`Scratch`] holding one [`PreparedPattern`] per query
/// token and the token-pair memo of the lookup it serves.
struct PreparedFms<'a> {
    distance: &'a FuzzyMatchDistance,
    query: Decomposition,
    scratch: Scratch,
}

impl PreparedFms<'_> {
    /// The one fms scorer: every token pair's bounded distance, then the
    /// greedy largest-gain matching. Returns the distance `1 − fms`.
    fn distance(&mut self, candidate: WeightedTokens) -> f64 {
        let query = tokens_of(&self.query);
        if query.is_empty() && candidate.is_empty() {
            return 0.0;
        }
        if query.is_empty() || candidate.is_empty() {
            return 1.0;
        }
        let Scratch { memo, patterns, pairs, used_a, used_b } = &mut self.scratch;

        // Counted once per call: a per-pair counter is a store in the
        // innermost loop.
        let mut memo_hits = 0u64;
        pairs.clear();
        for (i, ((ca, wia, _), pattern)) in query.iter().zip(patterns).enumerate() {
            for (j, (cb, wjb, id)) in candidate.iter().enumerate() {
                let max_len = ca.len().max(cb.len());
                if max_len == 0 {
                    continue;
                }
                // A candidate token's text is fixed by its id, so is the
                // distance to query token `i`; a token the IDF fit never
                // saw has no id and is scanned every time.
                let key = id.map(|id| PairMemo::key(i, id));
                let d = match key.and_then(|key| memo.get(key)) {
                    Some(d) => {
                        memo_hits += 1;
                        d
                    }
                    None => {
                        let d = pattern.bounded(cb, token_bound(max_len));
                        if let Some(key) = key {
                            memo.insert(key, d);
                        }
                        d
                    }
                };
                // `None`: `ned` is past `MAX_TOKEN_NED`, never matched.
                let Some(d) = d else { continue };
                let ned = d as f64 / max_len as f64;
                let gain = (wia + wjb) * (1.0 - ned);
                if gain > 0.0 {
                    pairs.push((gain, i, j, (wia + wjb) * ned));
                }
            }
        }
        incr(Counter::FmsTokenPairs, (query.len() * candidate.len()) as u64);
        incr(Counter::FmsMemoHits, memo_hits);

        // Greedy maximum-gain matching. Gains are finite and positive;
        // ties are broken by (i, j) for determinism.
        pairs.sort_by(|x, y| y.0.total_cmp(&x.0).then_with(|| (x.1, x.2).cmp(&(y.1, y.2))));
        used_a.clear();
        used_a.resize(query.len(), false);
        used_b.clear();
        used_b.resize(candidate.len(), false);
        // `1 − gain / W` is summed as the weight the matching loses — each
        // matched pair's `(w(a) + w(b)) · ned`, then every unmatched token's
        // weight — over `W`: the same quantity, and exactly 0 when the
        // token multisets are identical.
        let mut lost = 0.0;
        for &(_, i, j, loss) in pairs.iter() {
            if !used_a[i] && !used_b[j] {
                used_a[i] = true;
                used_b[j] = true;
                lost += loss;
            }
        }
        let unmatched = |tokens: WeightedTokens, used: &[bool]| {
            tokens
                .iter()
                .zip(used)
                .filter(|(_, &used)| !used)
                .fold(0.0, |sum, ((_, w, _), _)| sum + w)
        };
        // One sum of the two sides, so that `d(a, b) == d(b, a)` to the bit.
        lost += unmatched(query, used_a) + unmatched(candidate, used_b);
        (lost / (query.total_weight() + candidate.total_weight())).clamp(0.0, 1.0)
    }
}

impl<'c> PreparedDistance<'c> for PreparedFms<'_> {
    /// A compiled candidate pays only the matching; raw fields go through
    /// the decomposition memo first.
    fn distance_bounded_prepared(&mut self, candidate: Candidate<'c>, cutoff: f64) -> Option<f64> {
        incr(Counter::DistFms, 1);
        let d = match candidate {
            Candidate::Tokens(tokens) => self.distance(tokens),
            raw => {
                let memo = raw.with_fields(|fields| self.distance.decompose(fields));
                self.distance(tokens_of(&memo))
            }
        };
        (d <= cutoff).then_some(d)
    }
}

impl Drop for PreparedFms<'_> {
    fn drop(&mut self) {
        std::mem::take(&mut self.scratch).give_back();
    }
}

/// What a prepared fms query works in: its patterns, its token-pair memo,
/// and the matching's buffers — the scored pairs as `(gain, query token,
/// candidate token, loss)` and the tokens matched.
///
/// It moves from one prepared query to the next on the same thread
/// ([`Scratch::take`] / [`Scratch::give_back`]), so of all this a prepared
/// query — a lookup's, or the one an unprepared call makes for itself —
/// allocates only its patterns' chars.
#[derive(Default)]
struct Scratch {
    memo: PairMemo,
    /// Query token `i`'s pattern at `i`.
    patterns: Vec<PreparedPattern<'static>>,
    pairs: Vec<(f64, usize, usize, f64)>,
    used_a: Vec<bool>,
    used_b: Vec<bool>,
}

thread_local! {
    /// The scratch of the thread's last dropped prepared fms query.
    static SPARE: Cell<Option<Scratch>> = const { Cell::new(None) };
}

impl Scratch {
    /// The thread's spare scratch, or a new one, emptied.
    fn take() -> Self {
        let mut scratch = SPARE.with(Cell::take).unwrap_or_default();
        if scratch.memo.slots.is_empty() {
            scratch.memo.slots = vec![Slot::default(); MEMO_SLOTS];
        }
        scratch.memo.clear();
        scratch.patterns.clear();
        scratch
    }

    /// Keep the scratch for the thread's next prepared query. A thread that
    /// is exiting drops it instead.
    fn give_back(self) {
        let _ = SPARE.try_with(|spare| spare.set(Some(self)));
    }
}

/// Slots of the token-pair memo, `2^MEMO_BITS` of 16 B (32 KiB). A lookup
/// on the `rest_fms_pages` input scans ≈ 540 distinct token pairs; past
/// half the slots the memo clears, so a probe never walks far.
const MEMO_BITS: u32 = 11;
const MEMO_SLOTS: usize = 1 << MEMO_BITS;

/// [`Slot::value`] of a pair past its token bound.
const OVER: u32 = u32::MAX;

/// One memoized token pair.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// [`PairMemo::key`] of the pair.
    key: u64,
    /// The memo generation that wrote the slot; any other is an empty slot.
    generation: u32,
    /// The bounded distance, or [`OVER`].
    value: u32,
}

/// The token-pair memo of one prepared query: `(query token index,
/// candidate token's vocabulary id)` → the bounded scan's answer, in a
/// fixed open-addressed table (linear probing) cleared when half full.
/// Clearing bumps the generation rather than touching the slots.
#[derive(Debug, Default)]
struct PairMemo {
    generation: u32,
    len: usize,
    /// `MEMO_SLOTS` long once taken ([`Scratch::take`]).
    slots: Vec<Slot>,
}

impl PairMemo {
    fn key(query_token: usize, id: u32) -> u64 {
        (query_token as u64) << 32 | u64::from(id)
    }

    /// Empty the table: a new generation, so every slot reads empty.
    fn clear(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Generation 0 is what fresh slots carry; after a wrap, old
            // slots could carry any other, so they are reset.
            self.slots.fill(Slot::default());
            self.generation = 1;
        }
        self.len = 0;
    }

    /// The slot `key` is in, or the empty slot where it would go.
    fn probe(&self, key: u64) -> usize {
        let mask = MEMO_SLOTS - 1;
        // Fibonacci hashing: the product's top bits.
        let mut at = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - MEMO_BITS)) as usize;
        loop {
            let slot = &self.slots[at];
            if slot.generation != self.generation || slot.key == key {
                return at;
            }
            at = (at + 1) & mask;
        }
    }

    /// The memoized answer for `key`, if any: `Some(None)` is a pair past
    /// its bound.
    fn get(&self, key: u64) -> Option<Option<usize>> {
        let slot = self.slots[self.probe(key)];
        (slot.generation == self.generation)
            .then_some((slot.value != OVER).then_some(slot.value as usize))
    }

    /// Memoize the answer for `key`, which [`PairMemo::get`] just missed.
    fn insert(&mut self, key: u64, distance: Option<usize>) {
        if self.len == MEMO_SLOTS / 2 {
            self.clear();
        }
        let at = self.probe(key);
        // A distance within the bound is under 0.8 × the longer token's
        // length, and a token's length fits a `u32` (`CompiledRecords`
        // checks it): it never reaches `OVER`.
        let value = distance.map_or(OVER, |d| d as u32);
        self.slots[at] = Slot { key, generation: self.generation, value };
        self.len += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edit::EditDistance;
    use proptest::prelude::*;

    fn org_corpus() -> Vec<String> {
        vec![
            "microsoft corp".into(),
            "boeing corporation".into(),
            "microsft corporation".into(),
            "intel corp".into(),
            "mic corporation".into(),
            "oracle corp".into(),
            "apple inc".into(),
        ]
    }

    fn fms() -> FuzzyMatchDistance {
        FuzzyMatchDistance::new(IdfModel::fit_strings(&org_corpus()))
    }

    #[test]
    fn identical_records_zero_distance() {
        let d = fms();
        assert!(d.distance(&["microsoft corp"], &["microsoft corp"]) < 1e-12);
        assert!(d.distance(&["Microsoft CORP"], &["microsoft corp."]) < 1e-12);
    }

    #[test]
    fn disjoint_records_max_distance() {
        let d = fms();
        assert_eq!(d.distance(&["aaaa bbbb"], &["xxxx yyyy"]), 1.0);
    }

    #[test]
    fn paper_motivating_example_ranks_correctly() {
        // fms must rank (microsoft corp, microsft corporation) closer than
        // both (microsoft corp, mic corporation) and
        // (microsft corporation, boeing corporation) — the two misrankings
        // the paper attributes to plain edit distance and token cosine.
        let d = fms();
        let target = d.distance(&["microsoft corp"], &["microsft corporation"]);
        let ed_confusion = d.distance(&["microsoft corp"], &["mic corporation"]);
        let cos_confusion = d.distance(&["microsft corporation"], &["boeing corporation"]);
        assert!(target < ed_confusion, "fms: {target} !< {ed_confusion}");
        assert!(target < cos_confusion, "fms: {target} !< {cos_confusion}");

        // Plain Levenshtein happens to rank this particular pair correctly
        // — see `edit::tests::paper_example_strings` — so assert only that
        // fms separates the pairs by a wider margin than ed does.
        let ed = EditDistance;
        let ed_gap = ed.distance(&["microsoft corp"], &["mic corporation"])
            - ed.distance(&["microsoft corp"], &["microsft corporation"]);
        let fms_gap = ed_confusion - target;
        assert!(fms_gap > ed_gap, "fms margin {fms_gap} should beat ed margin {ed_gap}");
    }

    #[test]
    fn token_order_is_irrelevant() {
        let d = fms();
        let a = d.distance(&["shania twain"], &["twain shania"]);
        assert!(a < 1e-12, "token swap should be free under fms: {a}");
    }

    #[test]
    fn typos_in_rare_tokens_stay_close() {
        let d = fms();
        let x = d.distance(&["shania twain"], &["shania twian"]);
        assert!(x < 0.25, "transposition in one token: {x}");
    }

    #[test]
    fn cutoff_blocks_weak_token_matches() {
        // ned 4/5 = 0.8 may still match (and one shared char gains a
        // little); ned 5/6 > 0.8 cannot, shared char or not.
        assert!(fms().distance(&["abcde"], &["axxxx"]) < 1.0);
        assert_eq!(fms().distance(&["abcdef"], &["axxxxx"]), 1.0);
    }

    #[test]
    fn token_bound_is_the_largest_admitted_distance() {
        for m in 1..=300usize {
            let admitted = |k: usize| k as f64 / m as f64 <= MAX_TOKEN_NED;
            let brute = (0..=m).filter(|&k| admitted(k)).max().expect("k = 0 is admitted");
            assert_eq!(token_bound(m), brute, "max_len {m}");
            assert!((0..=m).all(|k| admitted(k) == (k <= brute)), "not monotone at {m}");
        }
        // The exact edge: 4 / 5 is 0.8 itself.
        assert_eq!(token_bound(5), 4);
    }

    #[test]
    fn the_memo_answers_what_was_inserted_until_it_clears_at_half_full() {
        let mut memo = Scratch::take().memo;
        let keys: Vec<u64> = (0..MEMO_SLOTS / 2).map(|n| PairMemo::key(n % 7, n as u32)).collect();
        for (n, &key) in keys.iter().enumerate() {
            assert_eq!(memo.get(key), None);
            memo.insert(key, (n % 3 != 0).then_some(n % 5));
        }
        for (n, &key) in keys.iter().enumerate() {
            assert_eq!(memo.get(key), Some((n % 3 != 0).then_some(n % 5)), "key {key:#x}");
        }
        // One more insert clears the table first.
        let extra = PairMemo::key(9, 9);
        memo.insert(extra, Some(1));
        assert_eq!(memo.get(extra), Some(Some(1)));
        assert!(keys.iter().all(|&key| memo.get(key).is_none()));
        assert_eq!(memo.len, 1);
    }

    #[test]
    fn a_wrapped_generation_resets_the_slots() {
        let mut memo = Scratch::take().memo;
        let key = PairMemo::key(0, 3);
        memo.insert(key, Some(2));
        // The generation that wrote the slot comes round again after a
        // wrap: without the reset, the slot would read as filled.
        let written = memo.generation;
        memo.generation = u32::MAX;
        memo.clear();
        assert_eq!(memo.generation, 1);
        memo.generation = written;
        assert_eq!(memo.get(key), None);
    }

    #[test]
    fn a_prepared_query_scans_each_query_token_and_vocabulary_id_once() {
        let d = fms();
        let mut store = CompiledRecords::default();
        let records = [["microsoft corp"], ["intel corp"], ["microsoft zzzz"]];
        for record in &records {
            d.compile_record(record, &mut store);
        }
        let mut prepared = d.prepare(&["microsft corporation"]);
        let ((), tally) = fuzzydedup_metrics::scoped(|| {
            for id in 0..records.len() {
                prepared.distance_bounded(store.candidate(id, &[]), 1.0);
            }
        });
        // 2 × 6 pairs; "microsoft" and "corp" repeat. "zzzz" was never
        // fitted: it has no id and is scanned each time.
        assert_eq!(tally.get(Counter::FmsTokenPairs), 12);
        assert_eq!(tally.get(Counter::FmsMemoHits), 4);
        assert_eq!(tally.get(Counter::EdKernelBounded), 8);
        assert_eq!(tally.get(Counter::EdKernelWord), 0);
    }

    #[test]
    fn empty_record_cases() {
        let d = fms();
        assert_eq!(d.distance(&[""], &[""]), 0.0);
        assert_eq!(d.distance(&[""], &["abc"]), 1.0);
        assert_eq!(d.distance(&["abc"], &[""]), 1.0);
    }

    #[test]
    fn multi_field_equals_joined() {
        let d = fms();
        let split = d.distance(&["The Doors", "LA Woman"], &["Doors", "LA Woman"]);
        let joined = d.distance(&["The Doors LA Woman"], &["Doors LA Woman"]);
        assert!((split - joined).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn symmetric(a in "[a-e ]{0,20}", b in "[a-e ]{0,20}") {
            let d = fms();
            let ab = d.distance(&[a.as_str()], &[b.as_str()]);
            let ba = d.distance(&[b.as_str()], &[a.as_str()]);
            prop_assert!((ab - ba).abs() < 1e-12);
        }

        #[test]
        fn unit_interval(a in "[a-e ]{0,20}", b in "[a-e ]{0,20}") {
            let d = fms().distance(&[a.as_str()], &[b.as_str()]);
            prop_assert!((0.0..=1.0).contains(&d));
        }

        #[test]
        fn reflexive(a in "[a-z ]{0,24}") {
            let d = fms();
            prop_assert!(d.distance(&[a.as_str()], &[a.as_str()]) < 1e-12);
        }
    }
}
