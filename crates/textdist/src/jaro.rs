//! Jaro and Jaro-Winkler string similarity.
//!
//! Standard record-linkage similarities (Winkler's refinement of Jaro's
//! matcher), included as an extension: the record-linkage literature the
//! paper cites ([3, 17, 19]) builds on them, and they serve as an extra
//! distance function for quality comparisons.

use crate::tokenize::{record_string, record_string_into};
use crate::{Candidate, Distance, Prepared, PreparedDistance};

/// Jaro similarity in `[0, 1]`. Both-empty pairs are `1`.
///
/// ```
/// use fuzzydedup_textdist::jaro;
/// assert!((jaro("martha", "marhta") - 0.944).abs() < 1e-3);
/// assert_eq!(jaro("abc", "abc"), 1.0);
/// assert_eq!(jaro("abc", "xyz"), 0.0);
/// ```
pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_matched = vec![false; b.len()];
    let mut a_matches: Vec<char> = Vec::new();
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_matched[j] && b[j] == ca {
                b_matched[j] = true;
                a_matches.push(ca);
                break;
            }
        }
    }
    let m = a_matches.len();
    if m == 0 {
        return 0.0;
    }
    // Transpositions: compare matched sequences in order.
    let b_matches: Vec<char> =
        b.iter().zip(&b_matched).filter(|(_, &mt)| mt).map(|(&c, _)| c).collect();
    let t = a_matches.iter().zip(&b_matches).filter(|(x, y)| x != y).count() as f64 / 2.0;
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
}

/// Jaro-Winkler similarity: Jaro boosted by shared prefix (up to 4 chars)
/// with scaling factor `p` (standard `0.1`).
///
/// ```
/// use fuzzydedup_textdist::jaro_winkler;
/// assert!(jaro_winkler("martha", "marhta") > 0.95);
/// ```
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    const P: f64 = 0.1;
    let j = jaro(a, b);
    let prefix = a.chars().zip(b.chars()).take(4).take_while(|(x, y)| x == y).count() as f64;
    (j + prefix * P * (1.0 - j)).clamp(0.0, 1.0)
}

/// Jaro-Winkler distance over the normalized joined record string.
#[derive(Debug, Clone, Copy, Default)]
pub struct JaroWinklerDistance;

impl Distance for JaroWinklerDistance {
    fn distance(&self, a: &[&str], b: &[&str]) -> f64 {
        fuzzydedup_metrics::incr(fuzzydedup_metrics::Counter::DistJaroWinkler, 1);
        1.0 - jaro_winkler(&record_string(a), &record_string(b))
    }

    /// Normalize the query string once; candidates reuse one buffer.
    fn prepare<'a>(&'a self, query: &[&str]) -> Prepared<'a> {
        Prepared::new(Box::new(PreparedJaroWinkler {
            query: record_string(query),
            text: String::new(),
        }))
    }

    fn name(&self) -> &str {
        "jw"
    }
}

/// Compiled Jaro-Winkler query: the normalized record string.
struct PreparedJaroWinkler {
    query: String,
    text: String,
}

impl<'c> PreparedDistance<'c> for PreparedJaroWinkler {
    fn distance_bounded_prepared(&mut self, candidate: Candidate<'c>, cutoff: f64) -> Option<f64> {
        fuzzydedup_metrics::incr(fuzzydedup_metrics::Counter::DistJaroWinkler, 1);
        candidate.with_fields(|fields| record_string_into(fields, &mut self.text));
        let d = 1.0 - jaro_winkler(&self.query, &self.text);
        (d <= cutoff).then_some(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_values() {
        assert!((jaro("dwayne", "duane") - 0.822).abs() < 1e-3);
        assert!((jaro("dixon", "dicksonx") - 0.767).abs() < 1e-3);
        assert!((jaro_winkler("dixon", "dicksonx") - 0.813).abs() < 1e-3);
    }

    #[test]
    fn edge_cases() {
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("", "a"), 0.0);
        assert_eq!(jaro("a", "a"), 1.0);
        assert_eq!(jaro_winkler("", ""), 1.0);
    }

    #[test]
    fn prefix_boost_helps() {
        // Same Jaro-level difference, but shared prefix wins under Winkler.
        let with_prefix = jaro_winkler("prefixab", "prefixba");
        let without = jaro_winkler("abprefix", "baprefix");
        assert!(with_prefix > without);
    }

    #[test]
    fn distance_trait_impl() {
        let d = JaroWinklerDistance;
        assert_eq!(d.name(), "jw");
        assert_eq!(d.distance_str("abc", "abc"), 0.0);
        assert_eq!(d.distance_str("abc", "xyz"), 1.0);
    }

    proptest! {
        #[test]
        fn jaro_symmetric_unit(a in "[a-e]{0,12}", b in "[a-e]{0,12}") {
            let ab = jaro(&a, &b);
            prop_assert!((ab - jaro(&b, &a)).abs() < 1e-12);
            prop_assert!((0.0..=1.0).contains(&ab));
        }

        #[test]
        fn winkler_at_least_jaro(a in "[a-e]{0,12}", b in "[a-e]{0,12}") {
            prop_assert!(jaro_winkler(&a, &b) >= jaro(&a, &b) - 1e-12);
        }

        #[test]
        fn self_similarity(a in "[a-e]{1,12}") {
            prop_assert_eq!(jaro(&a, &a), 1.0);
            prop_assert_eq!(jaro_winkler(&a, &a), 1.0);
        }
    }
}
