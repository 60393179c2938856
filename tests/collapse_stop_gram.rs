//! The one known place the exact-duplicate collapse is not lossless
//! (DESIGN.md §7.10, second caveat; ROADMAP item 1 decides it).
//!
//! A duplicated record whose non-stop terms are shared only with its own
//! copies: in the full corpus its first merge pass finds the copies and
//! stops there; its representative in the collapsed corpus finds nothing,
//! falls back to stop grams, and verifies candidates the full corpus never
//! sees. Needs a stop-gram floor low enough to fire (`stop_df_floor: 2`
//! here; the default 100 keeps every corpus this small stop-gram-free).
//!
//! These tests pin *today's* two relations side by side on both entry
//! points. Whichever way item 1 decides — fix the fallback, or keep the
//! caveat — one side of each assertion changes, on purpose.

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
fn a_representative_falls_back_to_stop_grams_where_the_full_record_stops_at_its_copies() {
    let records = corpus();
    let full = InvertedIndex::build(records.clone(), EditDistance, pool(), config());
    // Classes {0, 1}, {2}, {3}: representatives 0, 1, 2.
    let reps = vec![records[0].clone(), records[2].clone(), records[3].clone()];
    let collapsed =
        InvertedIndex::build_collapsed(reps, vec![2, 1, 1], EditDistance, pool(), config());

    // Full corpus: `xyzzy`'s grams reach the copy, so the first pass is
    // non-empty and the stop grams are never merged.
    assert_eq!(full.candidates_with_limit(0, 0), [1]);
    // Collapsed: the representative's non-stop postings hold only itself;
    // the fallback merges `common` and reaches every other class.
    let mut seen = collapsed.candidates_with_limit(0, 0);
    seen.sort_unstable();
    assert_eq!(seen, [1, 2]);

    let ids = |index: &dyn NnIndex, id| -> Vec<u32> {
        index.lookup(id, LookupSpec::TopK(3), 2.0).0.iter().map(|n| n.id).collect()
    };
    assert_eq!(ids(&full, 0), [1], "the full record's list is its copy alone");
    assert_eq!(ids(&collapsed, 0), [1, 2], "its representative's list is the other classes");
    // A record that is not duplicated falls back on both sides alike.
    assert_eq!(ids(&full, 2), [0, 1, 3]);
    assert_eq!(ids(&collapsed, 1), [0, 2]);
}

#[test]
fn incremental_dedup_with_and_without_collapse_differ_on_that_record_only() {
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
    // The duplicated record and its copy: collapse off stops at the copy,
    // collapse on also lists what the representative's fallback verified.
    assert_eq!((ids(&off, 0), ids(&off, 1)), (vec![1], vec![0]));
    assert_eq!((ids(&on, 0), ids(&on, 1)), (vec![1, 2, 3], vec![0, 2, 3]));
    // Everything else is the same relation.
    for id in 2..4 {
        assert_eq!(off.entries()[id], on.entries()[id], "entry {id}");
    }
}
