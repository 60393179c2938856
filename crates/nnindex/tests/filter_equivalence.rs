//! Recall-losslessness property: the candidate ladder (length filter,
//! q-gram count filter) never changes lookup results.
//!
//! Every filter reuses the exact running cutoff of bounded verification,
//! so a pruned candidate is one verification would have rejected anyway.
//! We check that end to end: for seeded random corpora of noisy
//! near-duplicates, each postings layout answers TopK, Radius, and combined
//! lookups *identically* with the filters armed (`EditDistance`, which
//! admits the q-gram bound) and disarmed (`UnfilteredDistance`, which
//! reports `admits_qgram_filter() == false` and degrades every filter to
//! a no-op). `candidate_limit: 0` keeps both sides verifying the full
//! candidate set, so any divergence is a filter unsoundness, not a
//! ranking tie.

use std::sync::Arc;

use fuzzydedup_nnindex::{InvertedIndex, InvertedIndexConfig, LookupSpec, NnIndex, PostingsSource};
use fuzzydedup_storage::{BufferPool, BufferPoolConfig, InMemoryDisk};
use fuzzydedup_textdist::{EditDistance, UnfilteredDistance};
use proptest::prelude::*;

mod common;
use common::noisy_corpus;

/// Assert two indexes (filtered vs unfiltered distance) answer every
/// query identically, across TopK, Radius, and the combined lookup.
fn assert_equivalent(filtered: &dyn NnIndex, unfiltered: &dyn NnIndex, label: &str) {
    assert_eq!(filtered.len(), unfiltered.len());
    for id in 0..filtered.len() as u32 {
        for k in [1, 4] {
            assert_eq!(
                filtered.top_k(id, k),
                unfiltered.top_k(id, k),
                "{label}: top_k({id}, {k}) diverged"
            );
        }
        for radius in [0.1, 0.3] {
            assert_eq!(
                filtered.within(id, radius),
                unfiltered.within(id, radius),
                "{label}: within({id}, {radius}) diverged"
            );
        }
        for spec in [LookupSpec::TopK(3), LookupSpec::Radius(0.25)] {
            let (nn_f, ng_f, _) = filtered.lookup(id, spec, 2.0);
            let (nn_u, ng_u, _) = unfiltered.lookup(id, spec, 2.0);
            assert_eq!(nn_f, nn_u, "{label}: lookup({id}, {spec:?}) neighbors diverged");
            assert_eq!(ng_f, ng_u, "{label}: lookup({id}, {spec:?}) growth estimate diverged");
        }
    }
}

fn pool() -> Arc<BufferPool> {
    Arc::new(BufferPool::new(BufferPoolConfig::with_capacity(64), Arc::new(InMemoryDisk::new())))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn filters_never_change_results(seed in 0u64..1_000_000, n in 12usize..40) {
        let records = noisy_corpus(seed, n);

        // candidate_limit 0: both sides verify every candidate sharing a
        // term, so results can only diverge through filter unsoundness.
        for source in [PostingsSource::Memory, PostingsSource::Pages] {
            let config = InvertedIndexConfig {
                candidate_limit: 0,
                postings_source: source,
                ..Default::default()
            };
            let filtered =
                InvertedIndex::build(records.clone(), EditDistance, pool(), config.clone());
            let unfiltered = InvertedIndex::build(
                records.clone(),
                UnfilteredDistance(EditDistance),
                pool(),
                config,
            );
            assert_equivalent(&filtered, &unfiltered, &format!("inverted/{source:?}"));
        }
    }
}
