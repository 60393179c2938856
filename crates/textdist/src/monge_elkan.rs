//! Monge-Elkan distance: average best-match token similarity.
//!
//! The classic hybrid measure of the record-linkage literature the paper
//! builds on (Monge & Elkan, 1996): every token of one record is matched
//! to its *best* counterpart in the other, and the similarities are
//! averaged. Unlike [`crate::fms`], tokens are unweighted (no IDF) and a
//! token may serve as the best match for several counterparts — Monge-Elkan
//! is cheaper but blind to token specificity, which is exactly the gap fms
//! closes. Included for comparison experiments.
//!
//! The raw measure is asymmetric (`me(a, b) ≠ me(b, a)`); the [`Distance`]
//! implementation symmetrizes by averaging both directions, preserving the
//! framework's symmetry requirement.

use crate::myers::myers_chars;
use crate::tokenize::tokenize_record;
use crate::{Candidate, Distance, Prepared, PreparedDistance};

/// One direction of Monge-Elkan: mean over `a`'s tokens of the best
/// similarity (1 − normalized Levenshtein) against `b`'s tokens.
/// Empty `a` yields 1 if `b` is empty too, else 0.
fn directed(a: &[Vec<char>], b: &[Vec<char>]) -> f64 {
    if a.is_empty() {
        return if b.is_empty() { 1.0 } else { 0.0 };
    }
    if b.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for ta in a {
        let mut best = 0.0f64;
        for tb in b {
            let max_len = ta.len().max(tb.len());
            let sim =
                if max_len == 0 { 1.0 } else { 1.0 - myers_chars(ta, tb) as f64 / max_len as f64 };
            best = best.max(sim);
        }
        total += best;
    }
    total / a.len() as f64
}

/// Tokenize a record into per-token char vectors (the working form of both
/// directed passes).
fn token_chars(fields: &[&str]) -> Vec<Vec<char>> {
    tokenize_record(fields).into_iter().map(|t| t.text.chars().collect()).collect()
}

/// Symmetrized Monge-Elkan distance; see module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct MongeElkanDistance;

impl MongeElkanDistance {
    /// Symmetric similarity in `[0, 1]` (mean of both directions).
    pub fn similarity(&self, a: &[&str], b: &[&str]) -> f64 {
        let ta = token_chars(a);
        let tb = token_chars(b);
        (directed(&ta, &tb) + directed(&tb, &ta)) / 2.0
    }
}

impl Distance for MongeElkanDistance {
    fn distance(&self, a: &[&str], b: &[&str]) -> f64 {
        fuzzydedup_metrics::incr(fuzzydedup_metrics::Counter::DistMongeElkan, 1);
        (1.0 - self.similarity(a, b)).clamp(0.0, 1.0)
    }

    /// Tokenize the query once; both directed passes reuse the vectors.
    fn prepare<'a>(&'a self, query: &[&str]) -> Prepared<'a> {
        Prepared::new(Box::new(PreparedMongeElkan { query: token_chars(query) }))
    }

    fn name(&self) -> &str {
        "monge-elkan"
    }
}

/// Compiled Monge-Elkan query: pre-tokenized char vectors.
struct PreparedMongeElkan {
    query: Vec<Vec<char>>,
}

impl<'c> PreparedDistance<'c> for PreparedMongeElkan {
    fn distance_bounded_prepared(&mut self, candidate: Candidate<'c>, cutoff: f64) -> Option<f64> {
        fuzzydedup_metrics::incr(fuzzydedup_metrics::Counter::DistMongeElkan, 1);
        let tb = candidate.with_fields(token_chars);
        let sim = (directed(&self.query, &tb) + directed(&tb, &self.query)) / 2.0;
        let d = (1.0 - sim).clamp(0.0, 1.0);
        (d <= cutoff).then_some(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn d() -> MongeElkanDistance {
        MongeElkanDistance
    }

    #[test]
    fn identical_and_disjoint() {
        assert_eq!(d().distance_str("golden dragon", "golden dragon"), 0.0);
        assert_eq!(d().distance_str("aaaa bbbb", "xxxx yyyy"), 1.0);
        assert_eq!(d().distance_str("", ""), 0.0);
        assert_eq!(d().distance_str("", "abc"), 1.0);
    }

    #[test]
    fn token_order_is_free() {
        assert_eq!(d().distance_str("shania twain", "twain shania"), 0.0);
    }

    #[test]
    fn partial_overlap_is_between() {
        let x = d().distance_str("golden dragon palace", "golden dragon");
        assert!(x > 0.0 && x < 0.5, "{x}");
    }

    #[test]
    fn no_idf_weighting_unlike_fms() {
        use crate::fms::FuzzyMatchDistance;
        use crate::idf::IdfModel;
        // Under Monge-Elkan, sharing the common token "corporation" is
        // worth as much as sharing a rare one — the blindness fms fixes.
        let me = d();
        let common = me.distance_str("microsft corporation", "boeing corporation");
        let idf = IdfModel::fit_strings(&[
            "microsoft corp",
            "boeing corporation",
            "microsft corporation",
            "intel corp",
        ]);
        let fms = FuzzyMatchDistance::new(idf);
        let fms_common = fms.distance_str("microsft corporation", "boeing corporation");
        assert!(
            common < fms_common,
            "me treats the shared common token generously: me={common:.3} fms={fms_common:.3}"
        );
    }

    #[test]
    fn one_token_can_match_many() {
        // Both "doors" tokens of a match the single "doors" of b — the
        // multi-assignment behavior that distinguishes ME from fms's
        // one-to-one matching.
        let x = d().distance_str("doors doors", "doors");
        assert_eq!(x, 0.0);
    }

    proptest! {
        #[test]
        fn symmetric_unit_reflexive(a in "[a-e ]{0,20}", b in "[a-e ]{0,20}") {
            let me = d();
            let ab = me.distance_str(&a, &b);
            prop_assert!((ab - me.distance_str(&b, &a)).abs() < 1e-12);
            prop_assert!((0.0..=1.0).contains(&ab));
            prop_assert!(me.distance_str(&a, &a) < 1e-12);
        }
    }
}
