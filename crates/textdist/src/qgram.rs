//! q-gram extraction and profiles.
//!
//! q-grams (overlapping substrings of length `q`) are the unit of indexing
//! for the edit-distance nearest-neighbor index: strings within small edit
//! distance share many q-grams, so an inverted index over q-grams yields a
//! small candidate set for exact verification. Following the standard
//! construction, strings are padded with `q - 1` copies of a sentinel on each
//! side so that prefixes/suffixes are represented.

use std::collections::HashMap;

use crate::tokenize::{record_string, tokenize_record};

/// Sentinel used for left/right padding. `'\u{1}'` cannot appear in
/// normalized text (normalization maps non-alphanumerics to spaces), so
/// padded q-grams never collide with interior ones.
pub const PAD: char = '\u{1}';

/// Extract padded q-grams from a string. For `q == 0` returns an empty list;
/// for an empty string returns an empty list.
///
/// ```
/// use fuzzydedup_textdist::qgrams;
/// let grams = qgrams("abc", 2);
/// // \u{1}a, ab, bc, c\u{1}
/// assert_eq!(grams.len(), 4);
/// ```
pub fn qgrams(s: &str, q: usize) -> Vec<String> {
    if q == 0 || s.is_empty() {
        return Vec::new();
    }
    let mut padded: Vec<char> = Vec::with_capacity(s.chars().count() + 2 * (q - 1));
    padded.extend(std::iter::repeat_n(PAD, q - 1));
    padded.extend(s.chars());
    padded.extend(std::iter::repeat_n(PAD, q - 1));
    padded.windows(q).map(|w| w.iter().collect()).collect()
}

/// A multiset of q-grams with counts: the "profile" of a string.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QgramProfile {
    counts: HashMap<String, u32>,
    total: u32,
}

impl QgramProfile {
    /// Build the profile of a string for a given `q`.
    pub fn build(s: &str, q: usize) -> Self {
        let mut counts: HashMap<String, u32> = HashMap::new();
        for g in qgrams(s, q) {
            *counts.entry(g).or_insert(0) += 1;
        }
        let total = counts.values().sum();
        Self { counts, total }
    }

    /// Number of distinct q-grams.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Total q-gram occurrences (multiset cardinality).
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Count of one q-gram.
    pub fn count(&self, gram: &str) -> u32 {
        self.counts.get(gram).copied().unwrap_or(0)
    }

    /// Iterate over `(gram, count)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u32)> {
        self.counts.iter().map(|(g, &c)| (g.as_str(), c))
    }

    /// Multiset-intersection size with another profile:
    /// `Σ_g min(count_a(g), count_b(g))`.
    pub fn overlap(&self, other: &Self) -> u32 {
        // Iterate the smaller profile.
        let (small, large) =
            if self.counts.len() <= other.counts.len() { (self, other) } else { (other, self) };
        small.counts.iter().map(|(g, &c)| c.min(large.count(g))).sum()
    }

    /// q-gram count filter lower bound: if `levenshtein(a, b) <= k` then the
    /// profiles overlap in at least `max(total_a, total_b) - k*q` grams
    /// (each edit destroys at most `q` grams). Returns the minimum overlap
    /// required to keep a candidate for bound `k`.
    pub fn required_overlap(&self, other: &Self, q: usize, k: usize) -> i64 {
        let m = self.total.max(other.total) as i64;
        m - (k * q) as i64
    }
}

/// The indexable terms of a record, as every inverted index in
/// `fuzzydedup-nnindex` extracts them: padded q-grams of the normalized
/// record string, optionally plus whole tokens, deduplicated and sorted.
///
/// Alongside the term strings this carries the per-term q-gram *multiset
/// counts* and the record's normalized length statistics — the inputs of
/// the q-gram count/length filters ([`QgramProfile::required_overlap`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TermSet {
    /// Distinct terms with their q-gram multiset count, sorted by term.
    /// A count of `0` marks a token-only term (whole tokens carry IDF
    /// weight but no q-gram overlap mass); a term that is both a q-gram
    /// and a token keeps its gram count.
    pub terms: Vec<(String, u32)>,
    /// Char count of the normalized record string.
    pub chars: u32,
    /// Total padded q-gram occurrences (`chars + q - 1`, or `0` for an
    /// empty record string).
    pub gram_total: u32,
}

/// Extract the [`TermSet`] of a multi-attribute record: its padded q-grams
/// for gram length `q` and its whole tokens.
pub fn record_term_set(fields: &[&str], q: usize) -> TermSet {
    let joined = record_string(fields);
    let chars = joined.chars().count() as u32;
    let mut counts: HashMap<String, u32> = HashMap::new();
    let mut gram_total = 0u32;
    for gram in qgrams(&joined, q) {
        *counts.entry(gram).or_insert(0) += 1;
        gram_total += 1;
    }
    for token in tokenize_record(fields) {
        counts.entry(token.text).or_insert(0);
    }
    let mut terms: Vec<(String, u32)> = counts.into_iter().collect();
    terms.sort_by(|a, b| a.0.cmp(&b.0));
    TermSet { terms, chars, gram_total }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edit::levenshtein;
    use proptest::prelude::*;

    #[test]
    fn qgram_counts() {
        assert_eq!(qgrams("abc", 1), vec!["a", "b", "c"]);
        assert_eq!(qgrams("abc", 2).len(), 4);
        assert_eq!(qgrams("abc", 3).len(), 5);
        assert!(qgrams("", 3).is_empty());
        assert!(qgrams("abc", 0).is_empty());
    }

    #[test]
    fn single_char_padded() {
        let g = qgrams("a", 3);
        // \u{1}\u{1}a, \u{1}a\u{1}, a\u{1}\u{1}
        assert_eq!(g.len(), 3);
        assert!(g.iter().all(|x| x.contains('a')));
    }

    #[test]
    fn profile_overlap_symmetric() {
        let a = QgramProfile::build("the doors", 3);
        let b = QgramProfile::build("doors", 3);
        assert_eq!(a.overlap(&b), b.overlap(&a));
        assert!(a.overlap(&b) > 0);
        assert_eq!(a.overlap(&a), a.total());
    }

    #[test]
    fn profile_counts_multiset() {
        let p = QgramProfile::build("aaaa", 2);
        // \u{1}a, aa, aa, aa, a\u{1}
        assert_eq!(p.total(), 5);
        assert_eq!(p.count("aa"), 3);
        assert_eq!(p.distinct(), 3);
    }

    #[test]
    fn term_set_matches_legacy_extraction() {
        // Same term *set* as the historical per-index extraction:
        // qgrams(record_string) ∪ tokens, sorted, deduplicated.
        let fields = ["The Doors", "LA Woman"];
        let ts = record_term_set(&fields, 3);
        let joined = record_string(&fields);
        let mut legacy = qgrams(&joined, 3);
        legacy.extend(tokenize_record(&fields).into_iter().map(|t| t.text));
        legacy.sort();
        legacy.dedup();
        let got: Vec<&str> = ts.terms.iter().map(|(t, _)| t.as_str()).collect();
        assert_eq!(got, legacy.iter().map(String::as_str).collect::<Vec<_>>());
        assert_eq!(ts.chars, joined.chars().count() as u32);
        assert_eq!(ts.gram_total, ts.chars + 2);
        // Gram mass is conserved across the distinct terms.
        let mass: u32 = ts.terms.iter().map(|(_, c)| c).sum();
        assert_eq!(mass, ts.gram_total);
    }

    #[test]
    fn term_set_token_only_and_empty() {
        let ts = record_term_set(&["ab"], 3);
        // "ab" padded yields 4 grams of length 3; token "ab" is distinct
        // from every padded gram, so it appears with count 0.
        assert!(ts.terms.iter().any(|(t, c)| t == "ab" && *c == 0));
        let empty = record_term_set(&[""], 3);
        assert_eq!(empty, TermSet::default());
    }

    proptest! {
        #[test]
        fn count_filter_is_sound(a in "[a-d]{0,10}", b in "[a-d]{0,10}") {
            // If ed(a,b) = k, the q-gram overlap is at least
            // max(|A|,|B|) - k*q. This is the filter the NN index relies on.
            let q = 2usize;
            let k = levenshtein(&a, &b);
            let pa = QgramProfile::build(&a, q);
            let pb = QgramProfile::build(&b, q);
            let overlap = pa.overlap(&pb) as i64;
            let required = pa.required_overlap(&pb, q, k);
            prop_assert!(overlap >= required,
                "a={a:?} b={b:?} k={k} overlap={overlap} required={required}");
        }

        #[test]
        fn total_grams_formula(s in "[a-z]{1,20}", q in 1usize..5) {
            let n = s.chars().count();
            let p = QgramProfile::build(&s, q);
            prop_assert_eq!(p.total() as usize, n + q - 1);
        }
    }
}
