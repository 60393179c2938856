//! Jaccard distances over token sets and q-gram multisets.
//!
//! Jaccard similarity is the cheapest useful set-overlap measure; the
//! nearest-neighbor index uses q-gram Jaccard as a pre-filter, and the
//! token variant is exposed as a standalone [`Distance`] for comparison
//! experiments.

use std::collections::HashSet;

use crate::qgram::QgramProfile;
use crate::tokenize::{record_string, tokenize_record};
use crate::{Candidate, Distance, Prepared, PreparedDistance};

fn token_set(fields: &[&str]) -> HashSet<String> {
    tokenize_record(fields).into_iter().map(|t| t.text).collect()
}

/// Jaccard similarity between two token *sets* (duplicates ignored).
/// Both-empty pairs are similarity `1`.
pub fn token_jaccard(a: &[&str], b: &[&str]) -> f64 {
    set_jaccard(&token_set(a), &token_set(b))
}

fn set_jaccard(sa: &HashSet<String>, sb: &HashSet<String>) -> f64 {
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = sa.intersection(sb).count();
    let union = sa.len() + sb.len() - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// Jaccard similarity between q-gram *multisets* (generalized Jaccard:
/// `Σ min / Σ max`). Both-empty pairs are similarity `1`.
pub fn qgram_jaccard(a: &str, b: &str, q: usize) -> f64 {
    profile_jaccard(&QgramProfile::build(a, q), &QgramProfile::build(b, q))
}

fn profile_jaccard(pa: &QgramProfile, pb: &QgramProfile) -> f64 {
    if pa.total() == 0 && pb.total() == 0 {
        return 1.0;
    }
    let inter = pa.overlap(pb);
    let union = pa.total() + pb.total() - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// Token-set Jaccard distance (`1 - similarity`).
#[derive(Debug, Clone, Copy, Default)]
pub struct JaccardDistance {
    /// If `Some(q)`, use q-gram multiset Jaccard over the joined record
    /// string instead of token-set Jaccard.
    pub qgram: Option<usize>,
}

impl JaccardDistance {
    /// q-gram variant.
    pub fn qgrams(q: usize) -> Self {
        Self { qgram: Some(q) }
    }
}

impl Distance for JaccardDistance {
    fn distance(&self, a: &[&str], b: &[&str]) -> f64 {
        fuzzydedup_metrics::incr(fuzzydedup_metrics::Counter::DistJaccard, 1);
        match self.qgram {
            None => 1.0 - token_jaccard(a, b),
            Some(q) => {
                let sa = record_string(a);
                let sb = record_string(b);
                1.0 - qgram_jaccard(&sa, &sb, q)
            }
        }
    }

    /// Build the query's token set or q-gram profile once.
    fn prepare<'a>(&'a self, query: &[&str]) -> Prepared<'a> {
        let kind = match self.qgram {
            None => PreparedJaccardKind::Tokens(token_set(query)),
            Some(q) => PreparedJaccardKind::Qgrams {
                profile: QgramProfile::build(&record_string(query), q),
                q,
            },
        };
        Prepared::new(Box::new(PreparedJaccard { kind }))
    }

    fn name(&self) -> &str {
        "jaccard"
    }
}

/// Compiled Jaccard query, mirroring the two [`JaccardDistance`] variants.
enum PreparedJaccardKind {
    Tokens(HashSet<String>),
    Qgrams { profile: QgramProfile, q: usize },
}

struct PreparedJaccard {
    kind: PreparedJaccardKind,
}

impl<'c> PreparedDistance<'c> for PreparedJaccard {
    fn distance_bounded_prepared(&mut self, candidate: Candidate<'c>, cutoff: f64) -> Option<f64> {
        fuzzydedup_metrics::incr(fuzzydedup_metrics::Counter::DistJaccard, 1);
        let d = candidate.with_fields(|fields| match &self.kind {
            PreparedJaccardKind::Tokens(sa) => 1.0 - set_jaccard(sa, &token_set(fields)),
            PreparedJaccardKind::Qgrams { profile, q } => {
                let pb = QgramProfile::build(&record_string(fields), *q);
                1.0 - profile_jaccard(profile, &pb)
            }
        });
        (d <= cutoff).then_some(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn token_jaccard_basics() {
        assert_eq!(token_jaccard(&["a b"], &["a b"]), 1.0);
        assert_eq!(token_jaccard(&["a b"], &["b a"]), 1.0);
        assert_eq!(token_jaccard(&["a b"], &["c d"]), 0.0);
        assert_eq!(token_jaccard(&["a b"], &["b c"]), 1.0 / 3.0);
        assert_eq!(token_jaccard(&[""], &[""]), 1.0);
        assert_eq!(token_jaccard(&[""], &["a"]), 0.0);
    }

    #[test]
    fn qgram_jaccard_close_strings_are_similar() {
        let near = qgram_jaccard("microsoft", "microsft", 3);
        let far = qgram_jaccard("microsoft", "boeing", 3);
        assert!(near > 0.5);
        assert!(far < 0.1);
        assert!(near > far);
    }

    #[test]
    fn qgram_multiset_counts_matter() {
        // "aaaa" vs "aa" share 'aa' grams but with different counts.
        let s = qgram_jaccard("aaaa", "aa", 2);
        assert!(s > 0.0 && s < 1.0, "{s}");
    }

    #[test]
    fn distance_wrapper_variants() {
        let tok = JaccardDistance::default();
        let qg = JaccardDistance::qgrams(3);
        assert_eq!(tok.name(), "jaccard");
        assert_eq!(tok.distance_str("a b", "b a"), 0.0);
        assert!(qg.distance_str("microsoft", "microsft") < 0.5);
    }

    proptest! {
        #[test]
        fn token_jaccard_symmetric_unit(a in "[a-d ]{0,16}", b in "[a-d ]{0,16}") {
            let ab = token_jaccard(&[&a], &[&b]);
            let ba = token_jaccard(&[&b], &[&a]);
            prop_assert_eq!(ab, ba);
            prop_assert!((0.0..=1.0).contains(&ab));
        }

        #[test]
        fn qgram_jaccard_symmetric_unit(a in "[a-d]{0,12}", b in "[a-d]{0,12}") {
            let ab = qgram_jaccard(&a, &b, 2);
            let ba = qgram_jaccard(&b, &a, 2);
            prop_assert_eq!(ab, ba);
            prop_assert!((0.0..=1.0).contains(&ab));
        }

        #[test]
        fn self_similarity_is_one(a in "[a-d ]{0,16}") {
            prop_assert_eq!(token_jaccard(&[&a], &[&a]), 1.0);
            prop_assert_eq!(qgram_jaccard(&a, &a, 3), 1.0);
        }
    }
}
