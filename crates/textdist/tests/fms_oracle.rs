//! fms held to its definition, not to another fast path.
//!
//! The oracle below is the module docs' definition written out with
//! nothing from the production scorer: full-matrix DP Levenshtein per
//! token pair, `ned` over the longer token, pairs past `ned = 0.8`
//! dropped, the greedy largest-gain matching with ties broken by
//! `(i, j)`, the lost weight summed in that order, then the unmatched
//! tokens' weight. Tokenization and IDF weights
//! are inputs to the definition and come from the crate.
//!
//! One prepared query is scored against 600+ compiled candidates, bit for
//! bit against the oracle, at cutoff 1.0 and at the cutoffs where the loss
//! bound must give way: the oracle's distance, the `f64`s on either side of
//! it, and 0; the unprepared `distance` is held to it too. The candidates
//! share a vocabulary, so the prepared query's token-pair memo both hits
//! and clears. The vocabulary holds tokens the IDF fit never saw (no
//! vocabulary id), tokens over 64 chars (the blocked patterns, their window
//! and their stock fallback), Unicode, and the exact `ned = 0.8` edge.

use std::collections::HashSet;

use fuzzydedup_metrics::{scoped, Counter};
use fuzzydedup_textdist::fms::LossBound;
use fuzzydedup_textdist::tokenize::tokenize_record;
use fuzzydedup_textdist::{CompiledRecords, Distance, FuzzyMatchDistance, IdfModel};
use proptest::prelude::*;

mod common;
use common::levenshtein_matrix;

/// Token pairs the memo holds before it clears (half its 2,048 slots).
const MEMO_HOLDS: usize = 1024;

/// A record's tokens as `(chars, IDF weight)`, in record order.
type Weighted = Vec<(Vec<char>, f64)>;

fn weighted(idf: &IdfModel, fields: &[&str]) -> Weighted {
    tokenize_record(fields)
        .into_iter()
        .map(|t| (t.text.chars().collect(), idf.idf(&t.text)))
        .collect()
}

/// `ned(a, b)` if the pair may be matched (`ned <= 0.8`), else `None`.
fn admitted_ned(a: &[char], b: &[char]) -> Option<f64> {
    let longer = a.len().max(b.len());
    let ned = levenshtein_matrix(a, b) as f64 / longer as f64;
    (ned <= 0.8).then_some(ned)
}

/// The fms distance of the module docs between two records' tokens: the
/// weight the matching loses over the total weight.
fn oracle(ta: &Weighted, tb: &Weighted) -> f64 {
    if ta.is_empty() || tb.is_empty() {
        return if ta.is_empty() && tb.is_empty() { 0.0 } else { 1.0 };
    }
    (oracle_lost(ta, tb) / (total(ta) + total(tb))).clamp(0.0, 1.0)
}

fn total(tokens: &Weighted) -> f64 {
    tokens.iter().fold(0.0, |sum, (_, w)| sum + w)
}

/// The weight the greedy matching of two non-empty token lists loses.
fn oracle_lost(ta: &Weighted, tb: &Weighted) -> f64 {
    let mut pairs = Vec::new();
    for (i, (ca, wa)) in ta.iter().enumerate() {
        for (j, (cb, wb)) in tb.iter().enumerate() {
            let Some(ned) = admitted_ned(ca, cb) else { continue };
            let gain = (wa + wb) * (1.0 - ned);
            if gain > 0.0 {
                pairs.push((gain, i, j, (wa + wb) * ned));
            }
        }
    }
    pairs.sort_by(|x, y| y.0.total_cmp(&x.0).then((x.1, x.2).cmp(&(y.1, y.2))));
    let (mut matched_a, mut matched_b) = (vec![false; ta.len()], vec![false; tb.len()]);
    let mut lost = 0.0;
    for (_, i, j, loss) in pairs {
        if !matched_a[i] && !matched_b[j] {
            (matched_a[i], matched_b[j]) = (true, true);
            lost += loss;
        }
    }
    let unmatched = |t: &Weighted, matched: &[bool]| {
        t.iter().zip(matched).filter(|(_, m)| !**m).fold(0.0, |sum, ((_, w), _)| sum + w)
    };
    lost + (unmatched(ta, &matched_a) + unmatched(tb, &matched_b))
}

/// The `f64`s just below and just above a distance in `[0, 1]`
/// (`f64::next_down` / `next_up` need a newer Rust than the workspace's).
fn neighbours(d: f64) -> [f64; 2] {
    let below = if d == 0.0 { -f64::from_bits(1) } else { f64::from_bits(d.to_bits() - 1) };
    [below, f64::from_bits(d.to_bits() + 1)]
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
                // At 1.0 every pair is scanned; below it, the loss bound
                // may reject, and must not at `want` itself.
                let [below, above] = neighbours(want);
                let cutoffs = [1.0, want, below, above, 0.0];
                for cutoff in cutoffs {
                    let got = prepared.bounded(store.candidate(id), cutoff).map(f64::to_bits);
                    let within = (want <= cutoff).then_some(want.to_bits());
                    prop_assert_eq!(got, within, "{:?} at {}: want {}", candidate, cutoff, want);
                }
                let unprepared = fms.distance(&[query.as_str()], &[candidate[0].as_str()]);
                prop_assert_eq!(unprepared.to_bits(), want.to_bits(), "unprepared {:?}", candidate);
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
        let got = prepared.bounded(store.candidate(0), 1.0);
        assert_eq!(got.map(f64::to_bits), Some(want.to_bits()), "{a} vs {b}");
    }
    // 4 / 5 is admitted and gains a little; 5 / 6 is not.
    assert!(oracle("abcde", "axxxx") < 1.0);
    assert_eq!(oracle("abcdef", "axxxxx"), 1.0);
}

/// A token list as drawn: `(token, weight, zeroed)`, the weight taken as 0
/// when `zeroed` is 0 — a weight no IDF fit gives, which the bound allows.
type Drawn = Vec<(String, f64, u8)>;

fn drawn_tokens() -> impl Strategy<Value = Drawn> {
    prop::collection::vec(("[a-e]{1,6}", 0.0f64..10.0, 0u8..8), 1..8)
}

fn weighted_drawn(drawn: &Drawn) -> Weighted {
    drawn
        .iter()
        .map(|(t, w, zeroed)| (t.chars().collect(), if *zeroed == 0 { 0.0 } else { *w }))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_loss_bound_never_exceeds_the_lost_weight(
        a in drawn_tokens(),
        b in drawn_tokens(),
        first_row in 0usize..8,
    ) {
        let (ta, tb) = (weighted_drawn(&a), weighted_drawn(&b));
        let lost = oracle_lost(&ta, &tb);
        let total = total(&ta) + total(&tb);
        // Every row, in a drawn rotation of record order, as a prepared
        // query scans them (in its own order). The bound after each row,
        // not only the last, must stay under the loss, and never be past
        // it.
        let mut bound = LossBound::default();
        bound.start(tb.iter().map(|(_, w)| *w));
        for n in 0..ta.len() {
            let (ca, wa) = &ta[(first_row + n) % ta.len()];
            for (j, (cb, _)) in tb.iter().enumerate() {
                if let Some(ned) = admitted_ned(ca, cb) {
                    bound.admit(j, ned);
                }
            }
            bound.end_row(*wa);
            let remaining = ta.len() - n - 1;
            // In exact arithmetic `so_far <= lost`. The two sum shares in
            // different orders, a few ulps apart at most: far inside the
            // margin the prepared query leaves the cutoff.
            let slack = lost + 1e-12 * total;
            let so_far = bound.lower(remaining);
            prop_assert!(so_far <= slack, "row {}: bound {} > lost {}", n, so_far, lost);
            prop_assert!(!bound.past(remaining, slack), "row {}: past the lost weight {}", n, lost);
        }
    }
}
