//! q-gram extraction and profiles.
//!
//! q-grams (overlapping substrings of length `q`) are the unit of indexing
//! for the edit-distance nearest-neighbor index: strings within small edit
//! distance share many q-grams, so an inverted index over q-grams yields a
//! small candidate set for exact verification. Following the standard
//! construction, strings are padded with `q - 1` copies of a sentinel on each
//! side so that prefixes/suffixes are represented.

use std::collections::HashMap;

use crate::tokenize::record_string_into;

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
/// Alongside the terms this carries the per-term q-gram *multiset counts*
/// and the record's normalized length statistics — the inputs of the
/// q-gram count/length filters ([`QgramProfile::required_overlap`]). The
/// terms are owned (`T = String`, [`record_term_set`]) or borrowed from
/// the padded record string (`T = &str`, [`record_terms`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TermSet<T = String> {
    /// Distinct terms with their q-gram multiset count, sorted by term.
    /// A count of `0` marks a token-only term (whole tokens carry IDF
    /// weight but no q-gram overlap mass); a term that is both a q-gram
    /// and a token keeps its gram count.
    pub terms: Vec<(T, u32)>,
    /// Char count of the normalized record string.
    pub chars: u32,
    /// Total padded q-gram occurrences (`chars + q - 1`, or `0` for an
    /// empty record string).
    pub gram_total: u32,
}

/// Extract the [`TermSet`] of a multi-attribute record: its padded q-grams
/// for gram length `q` and its whole tokens. The owned form of
/// [`record_terms`].
pub fn record_term_set(fields: &[&str], q: usize) -> TermSet {
    let mut padded = String::new();
    let TermSet { terms, chars, gram_total } = record_terms(fields, q, &mut padded);
    let terms = terms.into_iter().map(|(term, count)| (term.to_owned(), count)).collect();
    TermSet { terms, chars, gram_total }
}

/// [`record_term_set`] with every term a slice of one string, which is
/// written into `padded`: `PAD × (q − 1)`, the record string, `PAD × (q −
/// 1)`. A q-gram is a `q`-char window of it and a token a space-split piece
/// of its interior ([`tokenize_record`](crate::tokenize::tokenize_record) is
/// the record string split at its spaces), so extracting a record's terms allocates no string per term —
/// what an index that looks most terms up in a dictionary it already has
/// wants.
pub fn record_terms<'p>(fields: &[&str], q: usize, padded: &'p mut String) -> TermSet<&'p str> {
    record_string_into(fields, padded);
    let body_len = padded.len();
    let chars = padded.chars().count() as u32;
    if chars > 0 {
        for _ in 1..q {
            padded.insert(0, PAD);
            padded.push(PAD);
        }
    }
    let padded: &'p str = padded;
    let pad_bytes = (padded.len() - body_len) / 2;
    let interior = &padded[pad_bytes..pad_bytes + body_len];
    let mut terms: Vec<(&str, u32)> = Vec::new();
    if q > 0 && chars > 0 {
        // Byte offset of every char start, plus the end.
        let starts: Vec<usize> =
            padded.char_indices().map(|(i, _)| i).chain([padded.len()]).collect();
        terms.extend(starts.windows(q + 1).map(|w| (&padded[w[0]..w[q]], 1)));
    }
    let gram_total = terms.len() as u32;
    terms.extend(interior.split(' ').filter(|t| !t.is_empty()).map(|t| (t, 0)));
    terms.sort_unstable_by(|a, b| a.0.cmp(b.0));
    terms.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            kept.1 += later.1;
        }
        same
    });
    TermSet { terms, chars, gram_total }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::myers::myers;
    use crate::tokenize::{record_string, tokenize_record};
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

    /// The term set as it was first stated: `qgrams` of the record string,
    /// `tokenize_record`'s tokens, counted in a map of owned strings.
    fn naive_term_set(fields: &[&str], q: usize) -> TermSet {
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

    /// The borrowed extractor against [`naive_term_set`]: terms, order,
    /// gram counts, `chars` and `gram_total`.
    fn assert_terms_as_naive(fields: &[&str], q: usize) {
        let want = naive_term_set(fields, q);
        let mut padded = String::from("left over from an earlier record");
        let got = record_terms(fields, q, &mut padded);
        let want_terms: Vec<(&str, u32)> =
            want.terms.iter().map(|(t, c)| (t.as_str(), *c)).collect();
        assert_eq!(got.terms, want_terms, "fields {fields:?}, q {q}");
        assert_eq!((got.chars, got.gram_total), (want.chars, want.gram_total), "{fields:?}");
        assert_eq!(record_term_set(fields, q), want, "the owned form is the same set");
    }

    #[test]
    fn a_token_equal_to_a_gram_keeps_its_gram_count() {
        let mut padded = String::new();
        let ts = record_terms(&["abc"], 3, &mut padded);
        assert!(ts.terms.contains(&("abc", 1)), "{:?}", ts.terms);
        let ts = record_terms(&["the cat", "cat"], 3, &mut padded);
        // "cat" is a window twice (once per field), "the" once.
        assert!(ts.terms.contains(&("cat", 2)) && ts.terms.contains(&("the", 1)));
        assert_eq!(ts.gram_total, ts.chars + 2);
        for fields in [&["abc"][..], &["the cat", "cat"], &["ab"], &["a"], &["", "?!"]] {
            assert_terms_as_naive(fields, 3);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Records of one to four fields over chars that change length
        /// when lowercased (`İ`, `ẞ`), `ß`, combining marks, digits and
        /// punctuation, so fields come out empty, punctuation-only or with
        /// repeated tokens; then the same record plus one field of any
        /// chars.
        #[test]
        fn borrowed_terms_equal_the_naive_extraction(
            fields in prop::collection::vec("[abİßẞ\u{301}\u{308}19 .,/-]{0,9}", 1..5),
            wild in ".{0,6}",
            q in 1usize..5,
        ) {
            let fields: Vec<&str> = fields.iter().map(String::as_str).collect();
            assert_terms_as_naive(&fields, q);
            assert_terms_as_naive(&fields, 3);
            let mut with_wild = fields.clone();
            with_wild.push(&wild);
            assert_terms_as_naive(&with_wild, 3);
        }

        /// Records of one or two chars, where the padding is most of every
        /// gram.
        #[test]
        fn short_records_equal_the_naive_extraction(short in "[aİß1 .]{1,2}", q in 1usize..5) {
            assert_terms_as_naive(&[&short], q);
        }
    }

    proptest! {
        #[test]
        fn count_filter_is_sound(a in "[a-d]{0,10}", b in "[a-d]{0,10}") {
            // If ed(a,b) = k, the q-gram overlap is at least
            // max(|A|,|B|) - k*q. This is the filter the NN index relies on.
            let q = 2usize;
            let k = myers(&a, &b);
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
