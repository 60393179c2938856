//! Packed-merge equivalence property: the delta-block postings arena and
//! the staged lane-wise frontier merge change nothing a caller can see.
//!
//! Two references, neither sharing the arena, the block decode or the
//! staged frontier:
//!
//! * the **page-backed index** ([`PostingsSource::Pages`], the scalar
//!   one-term-at-a-time merge over heap-file chunks; it shares only the
//!   scoreboard it accumulates on) for lookup results — `top_k`, `within`
//!   and the combined lookup's neighbors and growth must be identical;
//! * a **scalar merge local to this file**, over `BTreeMap`s, for the
//!   scored candidate list itself. The packed path promises the same
//!   `f64` weights accumulated in the same (df-ascending) term order, so
//!   the comparison is `assert_eq!` on the ranked ids, capped or not.
//!   (Pages sums in term *string* order, which may differ in the last ulp
//!   — enough to reorder a weight tie at the cap — so capped corpora are
//!   held to this one.)
//!
//! Seeded noisy corpora plus the structural edge cases: empty posting
//! intersections, single-term records, fully-stopped queries, collapsed
//! corpora, and shared-token lists long enough to cross multiple
//! delta-block boundaries.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use fuzzydedup_nnindex::{
    InvertedIndex, InvertedIndexConfig, LookupSpec, NnIndex, PostingsSource, PACKED_BLOCK,
};
use fuzzydedup_storage::{BufferPool, BufferPoolConfig, InMemoryDisk};
use fuzzydedup_textdist::{record_term_set, EditDistance};
use proptest::prelude::*;

mod common;
use common::noisy_corpus;

fn pool() -> Arc<BufferPool> {
    Arc::new(BufferPool::new(BufferPoolConfig::with_capacity(64), Arc::new(InMemoryDisk::new())))
}

fn build(
    records: &[Vec<String>],
    source: PostingsSource,
    candidate_limit: usize,
) -> InvertedIndex<EditDistance> {
    let config =
        InvertedIndexConfig { candidate_limit, postings_source: source, ..Default::default() };
    InvertedIndex::build(records.to_vec(), EditDistance, pool(), config)
}

/// Every query's ranked candidate ids by the textbook merge: one term at a
/// time in (df, term id) order over plain `Vec<u32>` lists, stop grams
/// dropped unless that leaves nothing, highest shared IDF weight first.
fn scalar_candidates(records: &[Vec<String>], config: &InvertedIndexConfig) -> Vec<Vec<u32>> {
    let term_sets: Vec<_> = records
        .iter()
        .map(|record| {
            let fields: Vec<&str> = record.iter().map(String::as_str).collect();
            record_term_set(&fields, config.q, config.index_tokens).terms
        })
        .collect();
    let mut postings: BTreeMap<&str, Vec<u32>> = BTreeMap::new();
    for (id, terms) in term_sets.iter().enumerate() {
        for (term, _) in terms {
            postings.entry(term).or_default().push(id as u32);
        }
    }
    // Term ids follow sorted term order.
    let tid: HashMap<&str, usize> = postings.keys().enumerate().map(|(i, &t)| (t, i)).collect();
    let n = records.len() as f64;
    let max_df = (config.max_df_fraction * n).max(f64::from(config.stop_df_floor));
    let rank = |id: u32| {
        let mut query: Vec<&str> = term_sets[id as usize].iter().map(|(t, _)| t.as_str()).collect();
        query.sort_by_key(|t| (postings[t].len(), tid[t]));
        let merge = |include_stops: bool| {
            let mut scores: BTreeMap<u32, f64> = BTreeMap::new();
            for term in &query {
                let list = &postings[term];
                if include_stops || list.len() as f64 <= max_df {
                    let weight = (1.0 + n / list.len() as f64).ln();
                    for &other in list.iter().filter(|&&other| other != id) {
                        *scores.entry(other).or_insert(0.0) += weight;
                    }
                }
            }
            scores
        };
        let mut scores = merge(false);
        if scores.is_empty() {
            scores = merge(true);
        }
        let mut scored: Vec<(u32, f64)> = scores.into_iter().collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        if config.candidate_limit > 0 {
            scored.truncate(config.candidate_limit);
        }
        scored.into_iter().map(|(other, _)| other).collect()
    };
    (0..records.len() as u32).map(rank).collect()
}

/// The packed index's ranked candidates are the scalar merge's, exactly.
fn assert_packed_candidates_match_scalar(
    records: &[Vec<String>],
    candidate_limit: usize,
    label: &str,
) {
    let config = InvertedIndexConfig { candidate_limit, ..Default::default() };
    let expected = scalar_candidates(records, &config);
    let packed = build(records, PostingsSource::Packed, candidate_limit);
    for (id, expected) in expected.iter().enumerate() {
        assert_eq!(
            &packed.generate_candidates(id as u32),
            expected,
            "{label}: candidates({id}) diverged"
        );
    }
}

/// Full lookup results must match the page-backed index exactly, for
/// every query id, across TopK and radius flavors — and every radius
/// answer must be among the packed index's candidates.
fn assert_packed_matches_pages(
    packed: &InvertedIndex<EditDistance>,
    pages: &InvertedIndex<EditDistance>,
    label: &str,
) {
    for id in 0..packed.len() as u32 {
        for radius in [0.05, 0.2, 0.45] {
            let answer = pages.within(id, radius);
            assert_eq!(packed.within(id, radius), answer, "{label}: within({id}, {radius})");
            let candidates = packed.generate_candidates(id);
            for neighbor in &answer {
                assert!(
                    candidates.contains(&neighbor.id),
                    "{label}: {} missing from candidates({id}) of within({id}, {radius})",
                    neighbor.id
                );
            }
        }
        for k in [1, 4] {
            assert_eq!(packed.top_k(id, k), pages.top_k(id, k), "{label}: top_k({id}, {k})");
        }
        for spec in [LookupSpec::TopK(3), LookupSpec::Radius(0.25)] {
            let (nn_p, ng_p, _) = packed.lookup(id, spec, 2.0);
            let (nn_r, ng_r, _) = pages.lookup(id, spec, 2.0);
            assert_eq!(nn_p, nn_r, "{label}: lookup({id}, {spec:?}) neighbors diverged");
            assert_eq!(ng_p, ng_r, "{label}: lookup({id}, {spec:?}) growth diverged");
        }
    }
}

/// Both references over one corpus. Uncapped, any divergence is a merge
/// bug, not a ranking tie; capped, truncation keeps the same prefix only
/// if the scored weights are bit-identical, which is exactly the claim.
fn assert_packed_is_equivalent(records: &[Vec<String>], cap: usize, label: &str) {
    assert_packed_candidates_match_scalar(records, 0, label);
    assert_packed_candidates_match_scalar(records, cap, &format!("{label} capped"));
    let packed = build(records, PostingsSource::Packed, 0);
    let pages = build(records, PostingsSource::Pages, 0);
    assert_packed_matches_pages(&packed, &pages, label);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn packed_merge_is_bit_identical_to_scalar(seed in 0u64..1_000_000, n in 12usize..48) {
        assert_packed_is_equivalent(&noisy_corpus(seed, n), 8, "noisy");
    }
}

#[test]
fn single_term_and_disjoint_records() {
    // "xy" yields very short gram lists; the symbols-only records share
    // nothing with anyone (empty intersections everywhere).
    let records: Vec<Vec<String>> =
        ["xy", "xy", "qqq", "zzzz", "a b", "c d"].iter().map(|s| vec![s.to_string()]).collect();
    assert_packed_is_equivalent(&records, 2, "single-term");
}

#[test]
fn fully_stopped_queries_fall_back_identically() {
    // Every term has df >= 2 with an aggressive stop cutoff: the first
    // merge pass drops everything and both layouts must take the
    // include-stops fallback and still agree.
    let records: Vec<Vec<String>> = ["the doors", "the doors", "the doors live", "the doors"]
        .iter()
        .map(|s| vec![s.to_string()])
        .collect();
    let [packed, pages] = [PostingsSource::Packed, PostingsSource::Pages].map(|source| {
        let config = InvertedIndexConfig {
            max_df_fraction: 0.01,
            stop_df_floor: 1,
            candidate_limit: 0,
            postings_source: source,
            ..Default::default()
        };
        let idx = InvertedIndex::build(records.clone(), EditDistance, pool(), config);
        let nn = idx.top_k(0, 2);
        assert!(!nn.is_empty(), "{source:?}: fallback must produce candidates");
        assert_eq!(nn[0].dist, 0.0, "{source:?}");
        idx
    });
    assert_packed_matches_pages(&packed, &pages, "fully-stopped");
}

#[test]
fn shared_token_lists_cross_block_boundaries() {
    // 3 * PACKED_BLOCK + 7 records sharing one token: its posting list
    // spans four delta blocks, so the staged decode crosses block
    // boundaries. The per-id suffix keeps records distinguishable.
    let n = 3 * PACKED_BLOCK + 7;
    let records: Vec<Vec<String>> =
        (0..n).map(|i| vec![format!("sharedtoken entry{i:03}")]).collect();
    assert_packed_is_equivalent(&records, 16, "block-crossing");
}

#[test]
fn collapsed_corpora_agree_across_layouts() {
    // Weighted representatives: df, IDF and the stop set are computed in
    // full-corpus units by code both layouts share; the merges must still
    // agree on top of it.
    let records = noisy_corpus(0xFEED, 40);
    let mult: Vec<u32> = (0..records.len() as u32).map(|i| 1 + i % 4).collect();
    let [packed, pages] = [PostingsSource::Packed, PostingsSource::Pages].map(|source| {
        let config = InvertedIndexConfig {
            candidate_limit: 0,
            postings_source: source,
            ..Default::default()
        };
        InvertedIndex::build_collapsed(records.clone(), mult.clone(), EditDistance, pool(), config)
    });
    assert_packed_matches_pages(&packed, &pages, "collapsed");
}

#[test]
fn packed_merge_counters_fire_on_lookups() {
    // Every lookup merges its whole query: the staged admission must
    // flush frontier batches and decode every block of every merged list.
    use fuzzydedup_metrics::Counter;
    let records: Vec<Vec<String>> = (0..150)
        .map(|i| {
            let base = match i % 4 {
                0 => format!("customer record number {i:02}"),
                1 => format!("customer record numbr {i:02}"),
                2 => format!("supplier invoice {i:02} pending review"),
                _ => format!("zz{i:02}"),
            };
            vec![base]
        })
        .collect();
    let idx = build(&records, PostingsSource::Packed, 0);
    let ((), delta) = fuzzydedup_metrics::scoped(|| {
        for id in 0..records.len() as u32 {
            for spec in [LookupSpec::Radius(0.05), LookupSpec::Radius(0.15)] {
                idx.lookup(id, spec, 2.0);
            }
        }
    });
    assert_eq!(delta.get(Counter::CandFrontierBatches), 1052, "staged merge must flush batches");
    assert_eq!(delta.get(Counter::CandBlocksScanned), 10_724, "blocks must be decoded");
}
