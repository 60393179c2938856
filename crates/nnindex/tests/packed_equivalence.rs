//! Packed-merge equivalence property: the delta-block postings arena and
//! the staged lane-wise frontier merge produce candidate sets — and final
//! lookup results — **identical** to the scalar CSR path.
//!
//! The packed path promises bit-identical output (same admitted set, same
//! `f64` weights accumulated in the same term order, same MergeSkip
//! freeze point), so these tests compare with `assert_eq!` rather than a
//! recall tolerance: seeded noisy corpora, radius and TopK queries, plus
//! the structural edge cases — empty posting intersections, single-term
//! records, fully-stopped queries, and shared-token lists long enough to
//! cross multiple delta-block boundaries.

use std::sync::Arc;

use fuzzydedup_nnindex::{
    InvertedIndex, InvertedIndexConfig, LookupSpec, NnIndex, PostingsSource, PACKED_BLOCK,
};
use fuzzydedup_storage::{BufferPool, BufferPoolConfig, InMemoryDisk};
use fuzzydedup_textdist::EditDistance;
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

/// Candidate sets and full lookup results must match the scalar CSR path
/// exactly, for every query id, across TopK and radius flavors.
fn assert_packed_matches_csr(records: &[Vec<String>], candidate_limit: usize, label: &str) {
    let packed = build(records, PostingsSource::Packed, candidate_limit);
    let csr = build(records, PostingsSource::Csr, candidate_limit);
    for id in 0..records.len() as u32 {
        assert_eq!(
            packed.generate_candidates(id),
            csr.generate_candidates(id),
            "{label}: candidates({id}) diverged"
        );
        for radius in [0.05, 0.2, 0.45] {
            assert_eq!(
                packed.generate_candidates_radius(id, radius),
                csr.generate_candidates_radius(id, radius),
                "{label}: radius candidates({id}, {radius}) diverged"
            );
            assert_eq!(
                packed.within(id, radius),
                csr.within(id, radius),
                "{label}: within({id}, {radius}) diverged"
            );
        }
        for k in [1, 4] {
            assert_eq!(packed.top_k(id, k), csr.top_k(id, k), "{label}: top_k({id}, {k}) diverged");
        }
        for spec in [LookupSpec::TopK(3), LookupSpec::Radius(0.25)] {
            let (nn_p, ng_p, _) = packed.lookup(id, spec, 2.0);
            let (nn_c, ng_c, _) = csr.lookup(id, spec, 2.0);
            assert_eq!(nn_p, nn_c, "{label}: lookup({id}, {spec:?}) neighbors diverged");
            assert_eq!(ng_p, ng_c, "{label}: lookup({id}, {spec:?}) growth diverged");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn packed_merge_is_bit_identical_to_scalar(seed in 0u64..1_000_000, n in 12usize..48) {
        let records = noisy_corpus(seed, n);
        // Uncapped: any divergence is a merge bug, not a ranking tie.
        assert_packed_matches_csr(&records, 0, "uncapped");
        // Capped: truncation keeps the same prefix only if the scored
        // weights are bit-identical, which is exactly the claim.
        assert_packed_matches_csr(&records, 8, "capped");
    }
}

#[test]
fn single_term_and_disjoint_records() {
    // "xy" yields very short gram lists; the symbols-only records share
    // nothing with anyone (empty intersections everywhere).
    let records: Vec<Vec<String>> =
        ["xy", "xy", "qqq", "zzzz", "a b", "c d"].iter().map(|s| vec![s.to_string()]).collect();
    assert_packed_matches_csr(&records, 0, "single-term");
}

#[test]
fn fully_stopped_queries_fall_back_identically() {
    // Every term has df >= 2 with an aggressive stop cutoff: the first
    // merge pass drops everything and both paths must take the
    // include-stops fallback and still agree.
    let records: Vec<Vec<String>> = ["the doors", "the doors", "the doors live", "the doors"]
        .iter()
        .map(|s| vec![s.to_string()])
        .collect();
    for source in [PostingsSource::Packed, PostingsSource::Csr] {
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
    }
    let packed = {
        let config = InvertedIndexConfig {
            max_df_fraction: 0.01,
            stop_df_floor: 1,
            candidate_limit: 0,
            ..Default::default()
        };
        InvertedIndex::build(records.clone(), EditDistance, pool(), config)
    };
    let csr = {
        let config = InvertedIndexConfig {
            max_df_fraction: 0.01,
            stop_df_floor: 1,
            candidate_limit: 0,
            postings_source: PostingsSource::Csr,
            ..Default::default()
        };
        InvertedIndex::build(records.clone(), EditDistance, pool(), config)
    };
    for id in 0..records.len() as u32 {
        assert_eq!(packed.top_k(id, 3), csr.top_k(id, 3), "id {id}");
        assert_eq!(packed.within(id, 0.4), csr.within(id, 0.4), "id {id}");
    }
}

#[test]
fn shared_token_lists_cross_block_boundaries() {
    // 3 * PACKED_BLOCK + 7 records sharing one token: its posting list
    // spans four delta blocks, so the staged decode, the skip-pointer
    // walk, and the freeze top-up all cross block boundaries. The per-id
    // suffix keeps records distinguishable.
    let n = 3 * PACKED_BLOCK + 7;
    let records: Vec<Vec<String>> =
        (0..n).map(|i| vec![format!("sharedtoken entry{i:03}")]).collect();
    assert_packed_matches_csr(&records, 0, "block-crossing");
    assert_packed_matches_csr(&records, 16, "block-crossing capped");
}

#[test]
fn prefix_filter_preserves_radius_results_on_packed_and_csr() {
    // The prefix filter only fires on radius queries (gather passes the
    // bound only from `within`). Compare each prefix-enabled index to the
    // plain MergeSkip path of the same source.
    let records = noisy_corpus(0xFEED, 60);
    for source in [PostingsSource::Packed, PostingsSource::Csr] {
        let base = InvertedIndexConfig {
            candidate_limit: 0,
            postings_source: source,
            ..Default::default()
        };
        let plain = InvertedIndex::build(records.clone(), EditDistance, pool(), base.clone());
        let prefix = InvertedIndex::build(
            records.clone(),
            EditDistance,
            pool(),
            InvertedIndexConfig { prefix_filter: true, ..base },
        );
        for id in 0..records.len() as u32 {
            for radius in [0.05, 0.15, 0.3] {
                assert_eq!(
                    prefix.within(id, radius),
                    plain.within(id, radius),
                    "{source:?}: within({id}, {radius}) diverged under prefix filter"
                );
            }
            // Non-radius flavors never arm the bound: identical by
            // construction, asserted to pin the contract.
            assert_eq!(prefix.top_k(id, 3), plain.top_k(id, 3), "{source:?}: id {id}");
        }
    }
}

#[test]
fn packed_skip_counters_fire_on_tight_radii() {
    // Long queries + tight radii freeze the merge early; the packed
    // top-up must take the block-skip walk (CandBlockSkips > 0) and the
    // staged admission must flush frontier batches.
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
    let _serial = fuzzydedup_metrics::serial_guard();
    fuzzydedup_metrics::enable();
    let idx = build(&records, PostingsSource::Packed, 0);
    let before = fuzzydedup_metrics::snapshot();
    for id in 0..records.len() as u32 {
        for radius in [0.05, 0.15] {
            idx.within(id, radius);
        }
    }
    let delta = fuzzydedup_metrics::snapshot().delta(&before);
    assert!(delta.get(Counter::CandFrontierBatches) > 0, "staged merge must flush batches");
    assert!(delta.get(Counter::CandBlocksScanned) > 0, "blocks must be decoded");
    assert!(
        delta.get(Counter::CandBlockSkips) > 0,
        "tight radii must skip blocks via the max-id pointers"
    );
    assert!(delta.get(Counter::PostingsSkipped) > 0, "frozen lists must be skipped");
}
