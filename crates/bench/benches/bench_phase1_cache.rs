//! Criterion bench: Phase 1 NN-list materialization with and without the
//! prepared-query layer and the symmetric pair-distance memo — the
//! tentpole claim of the compiled-query-kernels PR.
//!
//! Emits `results/BENCH_phase1_cache.json`. Three rows over the same
//! 10k-record Org corpus, edit distance, packed inverted index, TopK(5):
//!
//! - `unprepared` — the pre-PR path: a wrapper distance that does *not*
//!   override `Distance::prepare`, so every candidate recompiles the
//!   query's Myers Peq tables through the blanket fallback.
//! - `prepared` — `EditDistance`'s `prepare` override compiles the query
//!   once per lookup and reuses the tables across the candidate ladder.
//! - `prepared_cache` — prepared kernels plus the sharded unordered-pair
//!   memo (`PairCache`), so the second verification of each symmetric
//!   pair is a table probe instead of a distance call.
//!
//! The committed baseline backs the acceptance claim that
//! `prepared_cache` beats `unprepared` by ≥1.5× on `min_ns`; the
//! bench-regression gate (`ci_bench_gate`) watches all three rows. All
//! three paths are asserted to produce the identical NN relation before
//! timing starts.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fuzzydedup_core::{compute_nn_reln, phase1::compute_nn_reln_cached, NeighborSpec, PairCache};
use fuzzydedup_datagen::{org, DatasetSpec};
use fuzzydedup_nnindex::{InvertedIndex, InvertedIndexConfig, LookupOrder};
use fuzzydedup_storage::{BufferPool, BufferPoolConfig, InMemoryDisk};
use fuzzydedup_textdist::{Distance, EditDistance};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CORPUS: usize = 10_000;

/// `EditDistance` minus its `prepare` override: delegates the per-call
/// methods but leaves `prepare` on the blanket fallback, which recompiles
/// the query per candidate — the exact pre-prepared-layer behavior.
struct UnpreparedEdit;

impl Distance for UnpreparedEdit {
    fn name(&self) -> &str {
        "unprepared-edit"
    }

    fn distance(&self, a: &[&str], b: &[&str]) -> f64 {
        EditDistance.distance(a, b)
    }

    fn distance_bounded(&self, a: &[&str], b: &[&str], cutoff: f64) -> Option<f64> {
        EditDistance.distance_bounded(a, b, cutoff)
    }

    fn admits_qgram_filter(&self) -> bool {
        EditDistance.admits_qgram_filter()
    }
}

fn build_index<D: Distance + 'static>(records: Vec<Vec<String>>, distance: D) -> InvertedIndex<D> {
    let pool = Arc::new(BufferPool::new(
        BufferPoolConfig::with_capacity(4096),
        Arc::new(InMemoryDisk::new()),
    ));
    InvertedIndex::build(records, distance, pool, InvertedIndexConfig::default())
}

fn bench_phase1_cache(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(42);
    let dataset = org::generate(&mut rng, DatasetSpec::with_entities(8200));
    let mut records = dataset.records;
    assert!(records.len() >= CORPUS, "need {CORPUS} records, got {}", records.len());
    records.truncate(CORPUS);

    let unprepared_index = build_index(records.clone(), UnpreparedEdit);
    let prepared_index = build_index(records, EditDistance);
    let spec = NeighborSpec::TopK(5);
    let order = LookupOrder::breadth_first();

    // Sanity: all three paths materialize the identical relation (the
    // cache-consistency contract) before any of them is timed.
    let (base, _) = compute_nn_reln(&unprepared_index, spec, order, 2.0);
    let (prep, _) = compute_nn_reln(&prepared_index, spec, order, 2.0);
    assert_eq!(base, prep, "prepared kernels changed the NN relation");
    let cache = PairCache::new(1 << 20);
    let (cached, _) = compute_nn_reln_cached(&prepared_index, spec, order, 2.0, Some(&cache));
    assert_eq!(base, cached, "pair cache changed the NN relation");

    // Each iteration is a full 10k-record Phase 1 (seconds, not micros);
    // 5 samples keeps the bench-smoke stage's wall time tolerable while
    // the worst-window baseline protocol absorbs the extra min_ns jitter.
    let mut group = c.benchmark_group("phase1_cache");
    group.sample_size(5);
    group.bench_function("unprepared", |b| {
        b.iter(|| black_box(compute_nn_reln(&unprepared_index, spec, order, 2.0)))
    });
    group.bench_function("prepared", |b| {
        b.iter(|| black_box(compute_nn_reln(&prepared_index, spec, order, 2.0)))
    });
    group.bench_function("prepared_cache", |b| {
        b.iter(|| {
            let cache = PairCache::new(1 << 20);
            black_box(compute_nn_reln_cached(&prepared_index, spec, order, 2.0, Some(&cache)))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_phase1_cache);
criterion_main!(benches);
