//! Criterion bench: exact-duplicate collapse pre-pass with
//! multiplicity-weighted Phase 1 — the tentpole claim of the collapse PR.
//!
//! Emits `results/BENCH_phase1_collapse.json`. Two rows over a
//! duplicate-heavy 10k-record Org corpus (`DatasetSpec::dup_rate(0.5)` —
//! half the stream is exact re-emission, the service-ingest shape the
//! pre-pass targets), edit distance, packed inverted index, TopK(5):
//!
//! - `collapse_off` — sequential Phase 1 over the full corpus.
//! - `collapse_on` — everything the collapse path adds at runtime:
//!   hash the full corpus into exact-duplicate classes
//!   (`CollapseMap::build`), run Phase 1 weighted over the ~half-size
//!   representative index, then expand the relation back to full ids
//!   (`CollapseMap::expand_reln`). The rep index is pre-built outside the
//!   loop, symmetric with the off row's pre-built full index.
//!
//! Before timing starts the expanded partition is asserted bit-identical
//! to the collapse-off partition (under the default candidate budget a
//! cut through a weight tie-block keeps a per-representative superset of
//! candidates, so the *relation* can carry larger NG values — partition
//! identity is the downstream invariant; with the budget unbounded the
//! relation itself is bit-identical, see DESIGN.md §7.10 and the
//! `recall-smoke` gate), and the corpus is asserted to actually collapse
//! substantially (a pass that collapses nothing would measure pure
//! overhead). The acceptance claim of the PR is `collapse_on` ≥ 2×
//! faster than `collapse_off` on this artifact.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fuzzydedup_core::{
    compute_nn_reln, partition_entries, Aggregation, CollapseKey, CollapseMap, CutSpec,
    NeighborSpec,
};
use fuzzydedup_datagen::{org, DatasetSpec};
use fuzzydedup_nnindex::{InvertedIndex, InvertedIndexConfig, LookupOrder};
use fuzzydedup_storage::{BufferPool, BufferPoolConfig, InMemoryDisk};
use fuzzydedup_textdist::EditDistance;
use rand::rngs::StdRng;
use rand::SeedableRng;

const CORPUS: usize = 10_000;

fn build_index(records: Vec<Vec<String>>, mults: Option<Vec<u32>>) -> InvertedIndex<EditDistance> {
    let pool = Arc::new(BufferPool::new(
        BufferPoolConfig::with_capacity(4096),
        Arc::new(InMemoryDisk::new()),
    ));
    let config = InvertedIndexConfig::default();
    match mults {
        Some(m) => InvertedIndex::build_collapsed(records, m, EditDistance, pool, config),
        None => InvertedIndex::build(records, EditDistance, pool, config),
    }
}

fn bench_phase1_collapse(c: &mut Criterion) {
    // Half the final stream is exact re-emission: ~4100 entities inflate
    // to ~5k distinct-ish rows, dup_rate doubles them, truncate to 10k.
    let mut rng = StdRng::seed_from_u64(42);
    let dataset = org::generate(&mut rng, DatasetSpec::with_entities(4100).dup_rate(0.5));
    let mut records = dataset.records;
    assert!(records.len() >= CORPUS, "need {CORPUS} records, got {}", records.len());
    records.truncate(CORPUS);

    let map = CollapseMap::build(&records, CollapseKey::RecordString);
    assert!(
        map.collapsed_records() >= CORPUS / 4,
        "corpus barely collapses ({} of {CORPUS}) — the bench would measure pure overhead",
        map.collapsed_records()
    );

    let full_index = build_index(records.clone(), None);
    let rep_index = build_index(map.rep_records(&records), Some(map.multiplicities().to_vec()));
    let sibling_visible: Vec<bool> =
        (0..map.n_reps() as u32).map(|r| rep_index.record_has_terms(r)).collect();
    let spec = NeighborSpec::TopK(5);
    let order = LookupOrder::breadth_first();

    // Sanity before timing: the collapse path is partition-lossless on
    // this corpus — Phase 2 over the expanded representative-space
    // relation produces the same partition as over the full-corpus
    // relation (bit-identity of the relation itself holds in the
    // unbounded-budget regime; under the default budget NG is
    // superset-monotone — DESIGN.md §7.10).
    let (base, _) = compute_nn_reln(&full_index, spec, order, 2.0);
    let (rep_reln, _) = compute_nn_reln(&rep_index, spec, order, 2.0);
    let expanded = map.expand_reln(&rep_reln, spec, &sibling_visible);
    let p_off = partition_entries(&base, CutSpec::Size(5), Aggregation::Max, 4.0);
    let p_on = partition_entries(&expanded, CutSpec::Size(5), Aggregation::Max, 4.0);
    assert_eq!(p_off, p_on, "collapse changed the partition");

    // Each iteration is a full Phase 1 (seconds, not micros); 5 samples
    // keeps wall time tolerable while the worst-window baseline protocol
    // absorbs the extra min_ns jitter.
    let mut group = c.benchmark_group("phase1_collapse");
    group.sample_size(5);
    group.bench_function("collapse_off", |b| {
        b.iter(|| black_box(compute_nn_reln(&full_index, spec, order, 2.0)))
    });
    group.bench_function("collapse_on", |b| {
        b.iter(|| {
            let map = CollapseMap::build(&records, CollapseKey::RecordString);
            let (rep_reln, _) = compute_nn_reln(&rep_index, spec, order, 2.0);
            black_box(map.expand_reln(&rep_reln, spec, &sibling_visible))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_phase1_collapse);
criterion_main!(benches);
