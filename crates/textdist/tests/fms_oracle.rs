//! fms held to its definition, not to another fast path.
//!
//! The oracle below is the module docs' definition written out with
//! nothing from the production scorer: full-matrix DP Levenshtein per
//! token pair, `ned` over the longer token, pairs past `ned = 0.8`
//! dropped, the greedy largest-gain matching with ties broken by
//! `(i, j)`, the gains summed in that order. Tokenization and IDF weights
//! are inputs to the definition and come from the crate.
//!
//! One prepared query is scored against 600+ candidates, compiled and raw,
//! bit for bit against the oracle. The candidates share a vocabulary, so
//! the prepared query's token-pair memo both hits and clears. The
//! vocabulary holds tokens the IDF fit never saw (no vocabulary id), tokens
//! over 64 chars (the blocked patterns, their window and their stock
//! fallback), Unicode, and the exact `ned = 0.8` edge.

use std::collections::HashSet;

use fuzzydedup_metrics::{scoped, Counter};
use fuzzydedup_textdist::tokenize::tokenize_record;
use fuzzydedup_textdist::{Candidate, CompiledRecords, Distance, FuzzyMatchDistance, IdfModel};
use proptest::prelude::*;

/// Token pairs the memo holds before it clears (half its 2,048 slots).
const MEMO_HOLDS: usize = 1024;

/// Levenshtein distance by the full `(|a| + 1) × (|b| + 1)` matrix, row
/// by row in one flat buffer.
fn levenshtein_matrix(a: &[char], b: &[char]) -> usize {
    let width = b.len() + 1;
    let mut d = vec![0usize; (a.len() + 1) * width];
    for i in 0..=a.len() {
        d[i * width] = i;
    }
    for (j, cell) in d[..width].iter_mut().enumerate() {
        *cell = j;
    }
    for i in 1..=a.len() {
        for j in 1..=b.len() {
            let substitute = d[(i - 1) * width + j - 1] + usize::from(a[i - 1] != b[j - 1]);
            let delete = d[(i - 1) * width + j] + 1;
            let insert = d[i * width + j - 1] + 1;
            d[i * width + j] = substitute.min(delete).min(insert);
        }
    }
    d[a.len() * width + b.len()]
}

/// A record's tokens as `(chars, IDF weight)`, in record order.
type Weighted = Vec<(Vec<char>, f64)>;

fn weighted(idf: &IdfModel, fields: &[&str]) -> Weighted {
    tokenize_record(fields)
        .into_iter()
        .map(|t| (t.text.chars().collect(), idf.idf(&t.text)))
        .collect()
}

/// The fms distance of the module docs between two records' tokens.
fn oracle(ta: &Weighted, tb: &Weighted) -> f64 {
    let similarity = if ta.is_empty() && tb.is_empty() {
        1.0
    } else if ta.is_empty() || tb.is_empty() {
        0.0
    } else {
        let mut pairs = Vec::new();
        for (i, (ca, wa)) in ta.iter().enumerate() {
            for (j, (cb, wb)) in tb.iter().enumerate() {
                let longer = ca.len().max(cb.len());
                let ned = levenshtein_matrix(ca, cb) as f64 / longer as f64;
                let gain = (wa + wb) * (1.0 - ned);
                if ned <= 0.8 && gain > 0.0 {
                    pairs.push((gain, i, j));
                }
            }
        }
        pairs.sort_by(|x, y| y.0.total_cmp(&x.0).then((x.1, x.2).cmp(&(y.1, y.2))));
        let (mut matched_a, mut matched_b) = (vec![false; ta.len()], vec![false; tb.len()]);
        let mut gain = 0.0;
        for (g, i, j) in pairs {
            if !matched_a[i] && !matched_b[j] {
                (matched_a[i], matched_b[j]) = (true, true);
                gain += g;
            }
        }
        let total = |t: &Weighted| t.iter().fold(0.0, |sum, (_, w)| sum + w);
        (gain / (total(ta) + total(tb))).clamp(0.0, 1.0)
    };
    1.0 - similarity
}

/// The candidate vocabulary past the fitted tokens: the tokens the fit
/// never saw, three long variants of `long` and the `ned = 0.8` edge.
fn vocabulary(fitted: &[String], unseen: &[String], long: &str, far_long: &str) -> Vec<String> {
    let mut middle: Vec<char> = long.chars().collect();
    let mid = middle.len() / 2;
    middle[mid] = 'z';
    let mut first: Vec<char> = long.chars().collect();
    first[0] = 'z';
    let mut vocabulary = fitted.to_vec();
    vocabulary.extend(unseen.iter().map(|t| format!("q{t}")));
    vocabulary.extend([
        // Shares both flanks with `long`: a ≤ 64-row window of its table.
        middle.into_iter().collect(),
        // Shares only its suffix: > 64 rows left, the stock fallback.
        first.into_iter().collect(),
        // Shares nothing: the whole blocked pattern.
        far_long.to_string(),
        "axxxx".into(),
        "abcde".into(),
    ]);
    vocabulary
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prepared_fms_is_the_definition_bit_for_bit(
        fitted in prop::collection::vec("[a-hé日ßλ]{1,8}", 300..360),
        unseen in prop::collection::vec("[a-hé]{0,7}", 20..40),
        long in "[ab]{65,80}",
        far_long in "[cd]{65,80}",
        query_draws in prop::collection::vec(0usize..400, 4..7),
        long_query in any::<bool>(),
        candidate_draws in prop::collection::vec(prop::collection::vec(0usize..400, 1..5), 600..640),
    ) {
        // The fit sees the fitted tokens three to a document, and never a
        // token starting with `q`.
        let fit_docs: Vec<String> = fitted.chunks(3).map(|doc| doc.join(" ")).collect();
        let idf = IdfModel::fit_strings(&fit_docs);
        let vocabulary = vocabulary(&fitted, &unseen, &long, &far_long);
        let record = |draws: &[usize]| {
            draws.iter().map(|&t| vocabulary[t % vocabulary.len()].as_str()).collect::<Vec<_>>().join(" ")
        };
        // A long query token makes every oracle pair it is in cost a long
        // matrix, so half the queries go without one.
        let long_token = if long_query { long.as_str() } else { "" };
        let query = format!("{} abcde {long_token}", record(&query_draws));
        let candidates: Vec<Vec<String>> =
            candidate_draws.iter().map(|draws| vec![record(draws)]).collect();

        let fms = FuzzyMatchDistance::new(idf.clone());
        let store = CompiledRecords::compile(&fms, &candidates);
        let mut prepared = fms.prepare(&[query.as_str()]);
        let query_weighted = weighted(&idf, &[query.as_str()]);
        let ((), tally) = scoped(|| {
            for (id, candidate) in candidates.iter().enumerate() {
                let want = oracle(&query_weighted, &weighted(&idf, &[candidate[0].as_str()]));
                for (form, view) in
                    [("compiled", store.candidate(id, candidate)), ("raw", Candidate::Fields(candidate))]
                {
                    let got = prepared.distance_bounded(view, 1.0).expect("every distance is <= 1");
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "{} {:?}: {} != {}", form, candidate, got, want);
                }
            }
        });

        // The memo hit, and held more distinct pairs than it keeps at once.
        let query_tokens = query_weighted.len();
        let fitted_drawn: HashSet<&str> = candidates
            .iter()
            .flat_map(|c| c[0].split(' '))
            .filter(|t| idf.idf_and_id(t).1.is_some())
            .collect();
        prop_assert!(query_tokens * fitted_drawn.len() > MEMO_HOLDS);
        prop_assert!(tally.get(Counter::FmsMemoHits) > 0);
    }
}

#[test]
fn the_edge_pair_is_matched_at_exactly_ned_0_8() {
    let idf = IdfModel::fit_strings(&["abcde", "axxxx", "abcdef", "axxxxx"]);
    let fms = FuzzyMatchDistance::new(idf.clone());
    let oracle = |a: &str, b: &str| oracle(&weighted(&idf, &[a]), &weighted(&idf, &[b]));
    for (a, b) in [("abcde", "axxxx"), ("abcdef", "axxxxx")] {
        let want = oracle(a, b);
        let store = CompiledRecords::compile(&fms, &[vec![b.to_string()]]);
        let mut prepared = fms.prepare(&[a]);
        let got = prepared.distance_bounded(store.candidate(0, &[]), 1.0);
        assert_eq!(got.map(f64::to_bits), Some(want.to_bits()), "{a} vs {b}");
    }
    // 4 / 5 is admitted and gains a little; 5 / 6 is not.
    assert!(oracle("abcde", "axxxx") < 1.0);
    assert_eq!(oracle("abcdef", "axxxxx"), 1.0);
}
