//! Collapse on ≡ off under the stop-gram fallback (DESIGN.md §7.10).
//!
//! A duplicated record whose non-stop terms are shared only with its own
//! copies: in the full corpus its first merge pass finds the copies and
//! stops there. Its representative in the collapsed corpus finds nothing in
//! that pass — its postings hold only itself — and until PR 23 fell back to
//! stop grams and verified candidates the full corpus never sees. Needs a
//! stop-gram floor low enough to fire (`stop_df_floor: 2` here; the default
//! 100 keeps every corpus this small stop-gram-free).
//!
//! Both entry points are held to the full corpus's relation on that record.

use std::sync::Arc;

use fuzzydedup::core::{CollapseKey, CutSpec, IncrementalDedup, NnReln};
use fuzzydedup::nnindex::{InvertedIndex, InvertedIndexConfig, LookupSpec, NnIndex};
use fuzzydedup::storage::{BufferPool, BufferPoolConfig, InMemoryDisk};
use fuzzydedup::textdist::EditDistance;

/// Four records over one shared word. `common` and its grams have document
/// frequency 4 > 2: stop grams. The grams of `xyzzy` have frequency 2 —
/// record 0 and its exact copy, record 1 — and stay.
fn corpus() -> Vec<Vec<String>> {
    ["xyzzy common", "xyzzy common", "plugh common", "wombat common"]
        .iter()
        .map(|s| vec![s.to_string()])
        .collect()
}

fn config() -> InvertedIndexConfig {
    InvertedIndexConfig { stop_df_floor: 2, candidate_limit: 0, ..Default::default() }
}

fn pool() -> Arc<BufferPool> {
    Arc::new(BufferPool::new(BufferPoolConfig::with_capacity(16), Arc::new(InMemoryDisk::new())))
}

#[test]
fn a_representative_stops_at_its_copies_as_the_full_record_does() {
    let records = corpus();
    let full = InvertedIndex::build(records.clone(), EditDistance, pool(), config());
    // Classes {0, 1}, {2}, {3}: representatives 0, 1, 2.
    let reps = vec![records[0].clone(), records[2].clone(), records[3].clone()];
    let collapsed =
        InvertedIndex::build_collapsed(reps, vec![2, 1, 1], EditDistance, pool(), config());

    // Full corpus: `xyzzy`'s grams reach the copy, so the first pass is
    // non-empty and the stop grams are never merged.
    assert_eq!(full.candidates_with_limit(0, 0), [1]);
    // Collapsed: the representative's non-stop postings hold only itself,
    // which stands for that copy — no fallback, no other class.
    assert!(collapsed.candidates_with_limit(0, 0).is_empty());

    let ids = |index: &dyn NnIndex, id| -> Vec<u32> {
        index.lookup(id, LookupSpec::TopK(3), 2.0).0.iter().map(|n| n.id).collect()
    };
    assert_eq!(ids(&full, 0), [1], "the full record's list is its copy alone");
    assert!(ids(&collapsed, 0).is_empty(), "its representative lists no other class");
    // A record that is not duplicated falls back on both sides alike.
    assert_eq!(ids(&full, 2), [0, 1, 3]);
    assert_eq!(ids(&collapsed, 1), [0, 2]);
}

#[test]
fn incremental_dedup_with_and_without_collapse_hold_the_same_relation() {
    let relation = |collapse: Option<CollapseKey>| -> NnReln {
        let mut state = IncrementalDedup::builder(EditDistance)
            .index_config(config())
            .cut(CutSpec::Size(4))
            .sn_threshold(4.0)
            .collapse(collapse)
            .build()
            .expect("valid configuration");
        state.insert_batch(corpus());
        state.nn_reln()
    };
    let (off, on) = (relation(None), relation(Some(CollapseKey::RecordString)));
    let ids = |reln: &NnReln, id: usize| -> Vec<u32> {
        reln.entries()[id].neighbors.iter().map(|n| n.id).collect()
    };
    // The duplicated record and its copy stop at each other, collapsed or not.
    assert_eq!((ids(&off, 0), ids(&off, 1)), (vec![1], vec![0]));
    assert_eq!(off.entries(), on.entries());
}
