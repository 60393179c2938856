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
//! iff no token pair has any character overlap worth matching. The optimal
//! matching is approximated greedily (largest gain first), which is exact
//! when gains are distinct across conflicting pairs and is the standard
//! practical choice for soft-TF-IDF-style measures.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::idf::IdfModel;
use crate::myers::myers_chars;
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
/// The unprepared [`Distance::distance`] memoizes record decompositions
/// (tokenization + IDF lookups) behind a bounded, thread-safe cache; the
/// verification path never touches it — an index compiles every record's
/// decomposition once ([`Distance::compile_record`]) and a prepared query
/// pins its own.
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
/// greedy pass).
const MAX_TOKEN_NED: f64 = 0.8;

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

    /// Similarity in `[0, 1]`; `1` means identical token multisets.
    pub fn similarity(&self, a: &[&str], b: &[&str]) -> f64 {
        let da = self.decompose(a);
        let db = self.decompose(b);
        similarity_decomposed(tokens_of(&da), tokens_of(&db))
    }
}

/// fms similarity over two decompositions. Shared by the per-call path
/// and the prepared layer so both produce bit-identical results.
fn similarity_decomposed(ta: WeightedTokens, tb: WeightedTokens) -> f64 {
    if ta.is_empty() && tb.is_empty() {
        return 1.0;
    }
    if ta.is_empty() || tb.is_empty() {
        return 0.0;
    }

    // All candidate token pairs with their gains, scored by the
    // bit-parallel kernel (tokens are short, so this is always the
    // single-word path).
    let mut pairs: Vec<(f64, usize, usize)> = Vec::with_capacity(ta.len() * tb.len());
    for (i, (ca, wia)) in ta.iter().enumerate() {
        for (j, (cb, wjb)) in tb.iter().enumerate() {
            let max_len = ca.len().max(cb.len());
            if max_len == 0 {
                continue;
            }
            let ned = myers_chars(ca, cb) as f64 / max_len as f64;
            if ned > MAX_TOKEN_NED {
                continue;
            }
            let gain = (wia + wjb) * (1.0 - ned);
            if gain > 0.0 {
                pairs.push((gain, i, j));
            }
        }
    }
    // Greedy maximum-gain matching. Ties broken by (i, j) for
    // determinism.
    pairs.sort_by(|x, y| y.0.partial_cmp(&x.0).unwrap().then_with(|| (x.1, x.2).cmp(&(y.1, y.2))));
    let mut used_a = vec![false; ta.len()];
    let mut used_b = vec![false; tb.len()];
    let mut gain = 0.0;
    for (g, i, j) in pairs {
        if !used_a[i] && !used_b[j] {
            used_a[i] = true;
            used_b[j] = true;
            gain += g;
        }
    }
    (gain / (ta.total_weight() + tb.total_weight())).clamp(0.0, 1.0)
}

impl Distance for FuzzyMatchDistance {
    fn distance(&self, a: &[&str], b: &[&str]) -> f64 {
        fuzzydedup_metrics::incr(fuzzydedup_metrics::Counter::DistFms, 1);
        1.0 - self.similarity(a, b)
    }

    /// Pin the query's decomposition once.
    fn prepare<'a>(&'a self, query: &[&str]) -> Prepared<'a> {
        Prepared::new(Box::new(PreparedFms { query: self.decompose(query), distance: self }))
    }

    /// A record compiles to its decomposition: normalized tokens in
    /// record order, each with its IDF weight.
    fn compile_record(&self, fields: &[&str], store: &mut CompiledRecords) {
        let tokens = tokenize_record(fields);
        store.push_tokens(tokens.iter().map(|t| (t.text.as_str(), self.idf.idf(&t.text))));
    }

    fn name(&self) -> &str {
        "fms"
    }
}

/// Compiled fms query: the decomposition held directly (no memo lookup).
struct PreparedFms<'a> {
    distance: &'a FuzzyMatchDistance,
    query: Decomposition,
}

impl<'c> PreparedDistance<'c> for PreparedFms<'_> {
    /// A compiled candidate pays only the matching; raw fields go through
    /// the memo, as the unprepared path does.
    fn distance_bounded_prepared(&mut self, candidate: Candidate<'c>, cutoff: f64) -> Option<f64> {
        fuzzydedup_metrics::incr(fuzzydedup_metrics::Counter::DistFms, 1);
        let query = tokens_of(&self.query);
        let similarity = match candidate {
            Candidate::Tokens(tokens) => similarity_decomposed(query, tokens),
            raw => {
                let memo = raw.with_fields(|fields| self.distance.decompose(fields));
                similarity_decomposed(query, tokens_of(&memo))
            }
        };
        let d = 1.0 - similarity;
        (d <= cutoff).then_some(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosine::CosineDistance;
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
        assert!(d.distance_str("microsoft corp", "microsoft corp") < 1e-12);
        assert!(d.distance_str("Microsoft CORP", "microsoft corp.") < 1e-12);
    }

    #[test]
    fn disjoint_records_max_distance() {
        let d = fms();
        assert_eq!(d.distance_str("aaaa bbbb", "xxxx yyyy"), 1.0);
    }

    #[test]
    fn paper_motivating_example_ranks_correctly() {
        // fms must rank (microsoft corp, microsft corporation) closer than
        // both (microsoft corp, mic corporation) and
        // (microsft corporation, boeing corporation) — the two misrankings
        // of plain edit distance and cosine respectively.
        let d = fms();
        let target = d.distance_str("microsoft corp", "microsft corporation");
        let ed_confusion = d.distance_str("microsoft corp", "mic corporation");
        let cos_confusion = d.distance_str("microsft corporation", "boeing corporation");
        assert!(target < ed_confusion, "fms: {target} !< {ed_confusion}");
        assert!(target < cos_confusion, "fms: {target} !< {cos_confusion}");

        // And confirm that cosine really does misrank, making the contrast
        // meaningful. (Plain Levenshtein happens to rank this particular
        // pair correctly — see `edit::tests::paper_example_strings` — so we
        // only assert the cosine misranking, plus that fms separates the
        // pairs by a wider margin than ed does.)
        let ed = EditDistance;
        let ed_gap = ed.distance_str("microsoft corp", "mic corporation")
            - ed.distance_str("microsoft corp", "microsft corporation");
        let fms_gap = ed_confusion - target;
        assert!(fms_gap > ed_gap, "fms margin {fms_gap} should beat ed margin {ed_gap}");
        let cos = CosineDistance::new(IdfModel::fit_strings(&org_corpus()));
        assert!(
            cos.distance_str("microsft corporation", "boeing corporation")
                < cos.distance_str("microsoft corp", "microsft corporation")
        );
    }

    #[test]
    fn token_order_is_irrelevant() {
        let d = fms();
        let a = d.distance_str("shania twain", "twain shania");
        assert!(a < 1e-12, "token swap should be free under fms: {a}");
    }

    #[test]
    fn typos_in_rare_tokens_stay_close() {
        let d = fms();
        let x = d.distance_str("shania twain", "shania twian");
        assert!(x < 0.25, "transposition in one token: {x}");
    }

    #[test]
    fn cutoff_blocks_weak_token_matches() {
        // ned 4/5 = 0.8 may still match (and one shared char gains a
        // little); ned 5/6 > 0.8 cannot, shared char or not.
        assert!(fms().distance_str("abcde", "axxxx") < 1.0);
        assert_eq!(fms().distance_str("abcdef", "axxxxx"), 1.0);
    }

    #[test]
    fn empty_record_cases() {
        let d = fms();
        assert_eq!(d.distance_str("", ""), 0.0);
        assert_eq!(d.distance_str("", "abc"), 1.0);
        assert_eq!(d.distance_str("abc", ""), 1.0);
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
            let ab = d.distance_str(&a, &b);
            let ba = d.distance_str(&b, &a);
            prop_assert!((ab - ba).abs() < 1e-12);
        }

        #[test]
        fn unit_interval(a in "[a-e ]{0,20}", b in "[a-e ]{0,20}") {
            let d = fms().distance_str(&a, &b);
            prop_assert!((0.0..=1.0).contains(&d));
        }

        #[test]
        fn reflexive(a in "[a-z ]{0,24}") {
            let d = fms();
            prop_assert!(d.distance_str(&a, &a) < 1e-12);
        }
    }
}
