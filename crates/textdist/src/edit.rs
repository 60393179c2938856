//! Levenshtein edit distance: full, bounded, and normalized.
//!
//! The paper evaluates its framework with "the edit distance (ed) \[27\]".
//! Because the duplicate-elimination framework expects distances in
//! `[0, 1]`, [`EditDistance`] normalizes the raw Levenshtein distance by the
//! length of the longer string. The raw distance is also exposed because the
//! nearest-neighbor index uses length-bounded early termination during
//! candidate verification.
//!
//! The public [`levenshtein`] / [`levenshtein_bounded`] entry points route
//! to the bit-parallel Myers kernel in [`crate::myers`]. The dynamic
//! programs they replaced are oracles now, and live with the tests: the
//! full-matrix DP of `fuzzydedup-reference` and of this crate's integration
//! suites, and a two-row DP in the kernel's unit tests.

use crate::myers::{myers_bounded_chars, myers_chars, PreparedPattern};
use crate::tokenize::{record_string, record_string_into};
use crate::{Candidate, CompiledRecords, Distance, Prepared, PreparedDistance};

/// Classic Levenshtein distance (unit costs for insert / delete / substitute)
/// between two strings, computed over Unicode scalar values.
///
/// Routes to the bit-parallel Myers kernel: `O(⌈m/64⌉·n)` time where `m` is
/// the shorter string's char count.
///
/// ```
/// use fuzzydedup_textdist::levenshtein;
/// assert_eq!(levenshtein("kitten", "sitting"), 3);
/// assert_eq!(levenshtein("", "abc"), 3);
/// assert_eq!(levenshtein("abc", "abc"), 0);
/// ```
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    levenshtein_chars(&a, &b)
}

/// Levenshtein distance over pre-collected char slices. Useful when the
/// caller caches the char decomposition (e.g. the nearest-neighbor index
/// verifying many candidates against one query).
pub fn levenshtein_chars(a: &[char], b: &[char]) -> usize {
    myers_chars(a, b)
}

/// Levenshtein distance with an upper bound: returns `None` as soon as the
/// distance provably exceeds `bound`, which lets candidate verification in
/// the nearest-neighbor index abandon hopeless candidates early.
///
/// Routes to the k-bounded Myers kernel ([`crate::myers::myers_bounded`]),
/// held to "the DP's distance if it is at most `bound`" on both sides of
/// the cutoff.
///
/// ```
/// use fuzzydedup_textdist::levenshtein_bounded;
/// assert_eq!(levenshtein_bounded("kitten", "sitting", 3), Some(3));
/// assert_eq!(levenshtein_bounded("kitten", "sitting", 2), None);
/// assert_eq!(levenshtein_bounded("same", "same", 0), Some(0));
/// ```
pub fn levenshtein_bounded(a: &str, b: &str, bound: usize) -> Option<usize> {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    levenshtein_bounded_chars(&a, &b, bound)
}

/// Bounded Levenshtein over pre-collected char slices; see
/// [`levenshtein_bounded`].
pub fn levenshtein_bounded_chars(a: &[char], b: &[char], bound: usize) -> Option<usize> {
    myers_bounded_chars(a, b, bound)
}

/// Levenshtein distance normalized to `[0, 1]` by the longer string's length
/// (in chars). Two empty strings are at distance `0`.
///
/// ```
/// use fuzzydedup_textdist::normalized_levenshtein;
/// assert_eq!(normalized_levenshtein("abc", "abc"), 0.0);
/// assert_eq!(normalized_levenshtein("", ""), 0.0);
/// assert_eq!(normalized_levenshtein("abc", ""), 1.0);
/// ```
pub fn normalized_levenshtein(a: &str, b: &str) -> f64 {
    let la = a.chars().count();
    let lb = b.chars().count();
    let max = la.max(lb);
    if max == 0 {
        return 0.0;
    }
    levenshtein(a, b) as f64 / max as f64
}

/// The `ed` distance of the paper: normalized Levenshtein over the
/// normalized concatenation of a record's fields.
#[derive(Debug, Clone, Copy, Default)]
pub struct EditDistance;

impl Distance for EditDistance {
    fn distance(&self, a: &[&str], b: &[&str]) -> f64 {
        fuzzydedup_metrics::incr(fuzzydedup_metrics::Counter::DistEdit, 1);
        let sa = record_string(a);
        let sb = record_string(b);
        normalized_levenshtein(&sa, &sb)
    }

    fn distance_bounded(&self, a: &[&str], b: &[&str], cutoff: f64) -> Option<f64> {
        fuzzydedup_metrics::incr(fuzzydedup_metrics::Counter::DistEdit, 1);
        let ca = record_chars(a);
        let cb = record_chars(b);
        bounded_ratio(ca.len().max(cb.len()), cutoff, |bound| match bound {
            None => Some(myers_chars(&ca, &cb)),
            Some(bound) => myers_bounded_chars(&ca, &cb, bound),
        })
    }

    /// `ed` is exactly Levenshtein over `record_string` normalized by the
    /// longer side's char count — the premise the q-gram length/count
    /// filters need.
    fn admits_qgram_filter(&self) -> bool {
        true
    }

    /// Compile the query's record string and Peq bitmasks once; a
    /// compiled candidate then costs only the Myers scan (common affixes
    /// are stripped by mask shifting, not by rebuilding the table — see
    /// `myers::PreparedPattern`).
    fn prepare<'a>(&'a self, query: &[&str]) -> Prepared<'a> {
        Prepared::new(Box::new(PreparedEdit {
            pattern: PreparedPattern::new(record_chars(query)),
            text: String::new(),
            chars: Vec::new(),
            requests: Vec::new(),
            slots: Vec::new(),
            raw_out: Vec::new(),
        }))
    }

    /// A record compiles to its record string decoded to chars — the
    /// very input of the Myers kernel.
    fn compile_record(&self, fields: &[&str], store: &mut CompiledRecords) {
        store.push_chars(record_chars(fields));
    }

    fn name(&self) -> &str {
        "ed"
    }
}

/// What `ed` compares: the record string decoded to chars. Query and
/// candidates both go through here, so compiled and per-call results
/// cannot differ.
fn record_chars(fields: &[&str]) -> Vec<char> {
    record_string(fields).chars().collect()
}

/// Compiled `ed` query: the query's [`PreparedPattern`] plus buffers
/// reused across every candidate and batch of the lookup.
struct PreparedEdit<'c> {
    pattern: PreparedPattern<'c>,
    /// Per-call scratch for raw-field candidates: the record string and
    /// its chars.
    text: String,
    chars: Vec<char>,
    /// Batch scratch: the candidates that reach the bounded kernel with
    /// their raw bounds, the `(output slot, longer side)` of each, and
    /// the kernel's raw results.
    requests: Vec<(&'c [char], usize)>,
    slots: Vec<(usize, usize)>,
    raw_out: Vec<Option<usize>>,
}

/// The raw bound at which the k-bounded kernel answers a normalized
/// `cutoff` for a pair whose longer side has `max` chars; `None` where the
/// `ed` cutoff ladder does not bound (two empty records, a negative cutoff,
/// or a cutoff ≥ 1 that every normalized distance meets).
///
/// Over-inclusive: ceil guarantees every raw distance whose normalized
/// value is <= cutoff stays inside the bound, so the bounded kernel never
/// rejects a qualifying pair (extra survivors are filtered by the exact
/// comparison of [`ratio`]).
fn raw_bound(max: usize, cutoff: f64) -> Option<usize> {
    (max > 0 && (0.0..1.0).contains(&cutoff)).then(|| (cutoff * max as f64).ceil() as usize)
}

/// A raw distance as the normalized answer at `cutoff`.
fn ratio(raw: usize, max: usize, cutoff: f64) -> Option<f64> {
    let d = raw as f64 / max as f64;
    (d <= cutoff).then_some(d)
}

/// The `ed` ladder for one pair whose longer side has `max` chars, over a
/// raw kernel called as `kernel(None)` for the exact distance and
/// `kernel(Some(k))` for the k-bounded one.
fn bounded_ratio(
    max: usize,
    cutoff: f64,
    kernel: impl FnOnce(Option<usize>) -> Option<usize>,
) -> Option<f64> {
    let raw = match raw_bound(max, cutoff) {
        Some(bound) => kernel(Some(bound)),
        None if max == 0 => return (cutoff >= 0.0).then_some(0.0),
        None if cutoff < 0.0 => return None,
        // Every normalized distance qualifies; no point bounding.
        None => kernel(None),
    };
    ratio(raw?, max, cutoff)
}

impl<'c> PreparedEdit<'c> {
    /// The scalar rung, uncounted: compiled chars go straight to the
    /// kernel, raw fields are normalized and decoded into the scratch.
    fn bounded(&mut self, candidate: Candidate<'c>, cutoff: f64) -> Option<f64> {
        let chars = match candidate {
            Candidate::Chars(chars) => chars,
            raw => {
                raw.with_fields(|fields| record_string_into(fields, &mut self.text));
                self.chars.clear();
                self.chars.extend(self.text.chars());
                &self.chars
            }
        };
        let pattern = &mut self.pattern;
        bounded_ratio(pattern.query().len().max(chars.len()), cutoff, |bound| match bound {
            None => Some(pattern.distance(chars)),
            Some(bound) => pattern.bounded(chars, bound),
        })
    }
}

impl<'c> PreparedDistance<'c> for PreparedEdit<'c> {
    fn distance_bounded_prepared(&mut self, candidate: Candidate<'c>, cutoff: f64) -> Option<f64> {
        fuzzydedup_metrics::incr(fuzzydedup_metrics::Counter::DistEdit, 1);
        self.bounded(candidate, cutoff)
    }

    /// The scalar ladder, applied per candidate, with every compiled
    /// candidate that reaches the bounded kernel routed through the chunk
    /// kernel ([`PreparedPattern::bounded_batch`]) instead of one scan at a
    /// time. Raw-field candidates take the scalar rung.
    fn distance_bounded_batch(
        &mut self,
        candidates: &[Candidate<'c>],
        cutoff: f64,
        out: &mut Vec<Option<f64>>,
    ) {
        fuzzydedup_metrics::incr(fuzzydedup_metrics::Counter::DistEdit, candidates.len() as u64);
        out.clear();
        out.resize(candidates.len(), None);
        self.requests.clear();
        self.slots.clear();
        let qlen = self.pattern.query().len();
        for (i, &candidate) in candidates.iter().enumerate() {
            if let Candidate::Chars(chars) = candidate {
                let max = qlen.max(chars.len());
                if let Some(bound) = raw_bound(max, cutoff) {
                    self.requests.push((chars, bound));
                    self.slots.push((i, max));
                    continue;
                }
            }
            // Raw fields, and the rungs of the ladder that never bound.
            out[i] = self.bounded(candidate, cutoff);
        }
        self.pattern.bounded_batch(&self.requests, &mut self.raw_out);
        for (&(i, max), raw) in self.slots.iter().zip(&self.raw_out) {
            out[i] = raw.and_then(|raw| ratio(raw, max, cutoff));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn classic_examples() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("gumbo", "gambol"), 2);
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("a", ""), 1);
        assert_eq!(levenshtein("", "a"), 1);
    }

    #[test]
    fn paper_example_strings() {
        // "microsoft corp" vs "microsft corporation": one deletion within
        // `microsoft`, plus the `oration` suffix — raw edit distance 8.
        let d1 = levenshtein("microsoft corp", "microsft corporation");
        assert_eq!(d1, 8);
        // "microsoft corp" vs "mic corporation": plain Levenshtein gives 10.
        // (The paper's prose claims ed misranks this pair; under standard
        // unit-cost Levenshtein it does not — the misranking it describes
        // only appears for normalized/ranked variants on longer records.
        // We record the true values here.)
        let d2 = levenshtein("microsoft corp", "mic corporation");
        assert_eq!(d2, 10);
    }

    #[test]
    fn unicode_chars_count_once() {
        assert_eq!(levenshtein("café", "cafe"), 1);
        assert_eq!(levenshtein("日本語", "日本"), 1);
    }

    #[test]
    fn bounded_agrees_when_within_bound() {
        let pairs = [
            ("kitten", "sitting"),
            ("the doors la woman", "doors la woman"),
            ("abc", "xyz"),
            ("", "abc"),
            ("same", "same"),
        ];
        for (a, b) in pairs {
            let exact = levenshtein(a, b);
            for bound in 0..=exact + 2 {
                let got = levenshtein_bounded(a, b, bound);
                if exact <= bound {
                    assert_eq!(got, Some(exact), "{a:?} vs {b:?} bound {bound}");
                } else {
                    assert_eq!(got, None, "{a:?} vs {b:?} bound {bound}");
                }
            }
        }
    }

    #[test]
    fn bounded_rejects_on_length_gap() {
        assert_eq!(levenshtein_bounded("ab", "abcdefgh", 3), None);
    }

    #[test]
    fn normalized_range_and_identity() {
        assert_eq!(normalized_levenshtein("x", "x"), 0.0);
        assert_eq!(normalized_levenshtein("x", "y"), 1.0);
        let d = normalized_levenshtein("beatles the", "the beatles");
        assert!(d > 0.0 && d < 1.0);
    }

    #[test]
    fn record_distance_uses_normalization() {
        let ed = EditDistance;
        // Case and punctuation differences vanish under normalization.
        assert_eq!(ed.distance(&["The Doors", "LA Woman"], &["the doors", "la woman!"]), 0.0);
        assert!(ed.distance(&["Doors", "LA Woman"], &["The Doors", "LA Woman"]) > 0.0);
    }

    #[test]
    fn distance_bounded_agrees_with_exact() {
        let ed = EditDistance;
        let pairs = [
            (vec!["microsoft corp"], vec!["microsft corporation"]),
            (vec!["the doors", "la woman"], vec!["doors", "la woman"]),
            (vec![""], vec![""]),
            (vec!["abc"], vec!["xyz"]),
        ];
        for (a, b) in &pairs {
            let exact = ed.distance(a, b);
            for cutoff in [0.0, 0.1, 0.25, 0.5, 0.9, 1.0] {
                let got = ed.distance_bounded(a, b, cutoff);
                if exact <= cutoff {
                    assert_eq!(got, Some(exact), "{a:?} vs {b:?} cutoff {cutoff}");
                } else {
                    assert_eq!(got, None, "{a:?} vs {b:?} cutoff {cutoff}");
                }
            }
        }
    }

    proptest! {
        #[test]
        fn symmetric(a in ".{0,24}", b in ".{0,24}") {
            prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        }

        #[test]
        fn triangle_inequality_raw(a in ".{0,12}", b in ".{0,12}", c in ".{0,12}") {
            // Raw Levenshtein is a true metric.
            let ab = levenshtein(&a, &b);
            let bc = levenshtein(&b, &c);
            let ac = levenshtein(&a, &c);
            prop_assert!(ac <= ab + bc);
        }

        #[test]
        fn triangle_inequality_raw_unicode(
            a in "[a-c丠-丣é-ë\u{1F600}-\u{1F603}]{0,10}",
            b in "[a-c丠-丣é-ë\u{1F600}-\u{1F603}]{0,10}",
            c in "[a-c丠-丣é-ë\u{1F600}-\u{1F603}]{0,10}",
        ) {
            // The metric property must hold over multi-byte scalars too
            // — CJK, combining Latin, and astral emoji all count as
            // single chars.
            let ab = levenshtein(&a, &b);
            let bc = levenshtein(&b, &c);
            let ac = levenshtein(&a, &c);
            prop_assert!(ac <= ab + bc, "d({a:?},{c:?})={ac} > {ab}+{bc}");
            prop_assert!(ac + bc >= ab, "reverse side: {ab} > {ac}+{bc}");
        }

        #[test]
        fn bounded_matches_exact(a in "[a-e]{0,12}", b in "[a-e]{0,12}", bound in 0usize..14) {
            let exact = levenshtein(&a, &b);
            let got = levenshtein_bounded(&a, &b, bound);
            if exact <= bound {
                prop_assert_eq!(got, Some(exact));
            } else {
                prop_assert_eq!(got, None);
            }
        }

        #[test]
        fn normalized_in_unit_interval(a in ".{0,24}", b in ".{0,24}") {
            let d = normalized_levenshtein(&a, &b);
            prop_assert!((0.0..=1.0).contains(&d));
        }

        #[test]
        fn distance_to_self_is_zero(a in ".{0,24}") {
            prop_assert_eq!(normalized_levenshtein(&a, &a), 0.0);
        }
    }
}
