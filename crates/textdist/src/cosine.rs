//! TF-IDF weighted cosine distance over tokens.
//!
//! The classic IR similarity the paper contrasts with fms: each record is a
//! TF-IDF vector over its tokens, similarity is the cosine of the angle
//! between vectors, distance is `1 - similarity`. As the paper observes,
//! cosine with IDF weighting places `"microsft corporation"` and
//! `"boeing corporation"` closer than `"microsoft corp"` and
//! `"microsft corporation"`, because it cannot see that `microsoft` and
//! `microsft` are nearly the same token — motivating fms.

use std::collections::HashMap;

use crate::idf::IdfModel;
use crate::tokenize::tokenize_record;
use crate::{Candidate, Distance, Prepared, PreparedDistance};

/// TF-IDF cosine distance.
#[derive(Debug, Clone)]
pub struct CosineDistance {
    idf: IdfModel,
}

/// A record's TF-IDF vector as a token-sorted list. Sorted form keeps
/// every dot product a merge join in one canonical summation order, so
/// results are bit-identical however the vector was produced (fresh per
/// call or compiled once by the prepared layer).
fn sorted_vector(idf: &IdfModel, fields: &[&str]) -> Vec<(String, f64)> {
    let mut tf: HashMap<String, f64> = HashMap::new();
    for tok in tokenize_record(fields) {
        *tf.entry(tok.text).or_insert(0.0) += 1.0;
    }
    let mut v: Vec<(String, f64)> = tf
        .into_iter()
        .map(|(t, c)| {
            let w = c * idf.idf(&t);
            (t, w)
        })
        .collect();
    v.sort_unstable_by(|x, y| x.0.cmp(&y.0));
    v
}

/// Merge-join dot product of two token-sorted vectors.
fn dot_sorted(a: &[(String, f64)], b: &[(String, f64)]) -> f64 {
    let (mut i, mut j) = (0, 0);
    let mut dot = 0.0;
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                dot += a[i].1 * b[j].1;
                i += 1;
                j += 1;
            }
        }
    }
    dot
}

fn norm(v: &[(String, f64)]) -> f64 {
    v.iter().map(|(_, w)| w * w).sum::<f64>().sqrt()
}

/// Cosine of two token-sorted vectors with their precomputed norms.
fn similarity_sorted(a: &[(String, f64)], na: f64, b: &[(String, f64)], nb: f64) -> f64 {
    if na == 0.0 && nb == 0.0 {
        return 1.0; // both empty: identical
    }
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot_sorted(a, b) / (na * nb)).clamp(0.0, 1.0)
}

impl CosineDistance {
    /// Create with a fitted IDF model.
    pub fn new(idf: IdfModel) -> Self {
        Self { idf }
    }

    /// Cosine similarity in `[0, 1]` between two records.
    pub fn similarity(&self, a: &[&str], b: &[&str]) -> f64 {
        let va = sorted_vector(&self.idf, a);
        let vb = sorted_vector(&self.idf, b);
        similarity_sorted(&va, norm(&va), &vb, norm(&vb))
    }
}

impl Distance for CosineDistance {
    fn distance(&self, a: &[&str], b: &[&str]) -> f64 {
        fuzzydedup_metrics::incr(fuzzydedup_metrics::Counter::DistCosine, 1);
        1.0 - self.similarity(a, b)
    }

    /// Compile the query's TF-IDF vector and norm once; per candidate
    /// only the candidate vector and one merge-join dot remain.
    fn prepare<'a>(&'a self, query: &[&str]) -> Prepared<'a> {
        let vector = sorted_vector(&self.idf, query);
        let norm = norm(&vector);
        Prepared::new(Box::new(PreparedCosine { idf: &self.idf, vector, norm }))
    }

    fn name(&self) -> &str {
        "cosine"
    }
}

/// Compiled cosine query: token-sorted TF-IDF vector plus its norm.
struct PreparedCosine<'a> {
    idf: &'a IdfModel,
    vector: Vec<(String, f64)>,
    norm: f64,
}

impl<'c> PreparedDistance<'c> for PreparedCosine<'_> {
    fn distance_bounded_prepared(&mut self, candidate: Candidate<'c>, cutoff: f64) -> Option<f64> {
        fuzzydedup_metrics::incr(fuzzydedup_metrics::Counter::DistCosine, 1);
        let vb = candidate.with_fields(|fields| sorted_vector(self.idf, fields));
        let d = 1.0 - similarity_sorted(&self.vector, self.norm, &vb, norm(&vb));
        (d <= cutoff).then_some(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist() -> CosineDistance {
        let idf = IdfModel::fit_strings(&[
            "microsoft corp",
            "boeing corporation",
            "microsft corporation",
            "intel corp",
            "mic corporation",
        ]);
        CosineDistance::new(idf)
    }

    #[test]
    fn identical_records_at_zero() {
        let d = dist();
        assert!(d.distance_str("microsoft corp", "microsoft corp") < 1e-12);
        assert!(d.distance_str("Microsoft Corp", "microsoft corp!") < 1e-12);
    }

    #[test]
    fn disjoint_records_at_one() {
        let d = dist();
        assert_eq!(d.distance_str("alpha beta", "gamma delta"), 1.0);
    }

    #[test]
    fn paper_misranking_example() {
        // Cosine (token-level) sees no similarity between "microsoft" and
        // "microsft", so the shared-token pair wins. The paper uses this to
        // motivate fms.
        let d = dist();
        let shared_corporation = d.distance_str("microsft corporation", "boeing corporation");
        let typo_pair = d.distance_str("microsoft corp", "microsft corporation");
        assert!(
            shared_corporation < typo_pair,
            "cosine should misrank: {shared_corporation} vs {typo_pair}"
        );
    }

    #[test]
    fn symmetry() {
        let d = dist();
        let ab = d.distance_str("microsoft corp", "boeing corporation");
        let ba = d.distance_str("boeing corporation", "microsoft corp");
        assert_eq!(ab, ba);
    }

    #[test]
    fn empty_vs_nonempty() {
        let d = dist();
        assert_eq!(d.distance_str("", ""), 0.0);
        assert_eq!(d.distance_str("", "abc"), 1.0);
    }

    #[test]
    fn idf_downweights_common_tokens() {
        let d = dist();
        // Sharing only the very common token "corp"/"corporation" is worth
        // less than sharing the rare token "microsoft".
        let rare_shared = d.distance_str("microsoft corp", "microsoft inc");
        let common_shared = d.distance_str("boeing corporation", "mic corporation");
        assert!(rare_shared < common_shared);
    }

    #[test]
    fn multi_field_records() {
        let d = dist();
        let x = d.distance(&["microsoft", "corp"], &["microsoft corp"]);
        assert!(x < 1e-12, "field split should not matter for cosine: {x}");
    }
}
