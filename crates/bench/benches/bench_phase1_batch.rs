//! Criterion bench: Phase 1 NN-list materialization with batched
//! lock-step verification — the tentpole claim of the batched-verification
//! + scale-out PR.
//!
//! Emits `results/BENCH_phase1_batch.json`. Four rows over the same
//! 10k-record Org corpus, edit distance, packed inverted index, TopK(5) as
//! `bench_phase1_cache` (the committed `prepared_cache` row of that bench
//! is the baseline the acceptance claim is measured against):
//!
//! - `scalar` — a wrapper distance whose prepared kernel keeps the
//!   per-candidate scalar `distance_bounded_prepared` path (the blanket
//!   `distance_bounded_batch` fallback), i.e. the pre-PR verification
//!   lane.
//! - `batched` — `EditDistance`'s batch override: candidates accumulate
//!   into frozen-cutoff batches and verify in lock-step.
//! - `batched_cache` — batching plus the sharded symmetric pair-distance
//!   memo (`PairCache`).
//! - `batched_steal` — batching plus the work-stealing parallel Phase 1
//!   driver (`threads = 0`: one worker per core), the scale-out row.
//!
//! All four paths are asserted to produce the identical NN relation
//! before timing starts (batching freezes cutoffs conservatively and the
//! parallel driver shards an order-independent computation, so this is an
//! equality, not an approximation).

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fuzzydedup_core::{
    compute_nn_reln, compute_nn_reln_parallel_cached, phase1::compute_nn_reln_cached, NeighborSpec,
    PairCache,
};
use fuzzydedup_datagen::{org, DatasetSpec};
use fuzzydedup_nnindex::{InvertedIndex, InvertedIndexConfig, LookupOrder};
use fuzzydedup_storage::{BufferPool, BufferPoolConfig, InMemoryDisk};
use fuzzydedup_textdist::{Candidate, CompiledRecords, Distance, EditDistance, Prepared};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CORPUS: usize = 10_000;

/// `EditDistance` with its prepared kernel but *without* the batch
/// override: `prepare` forwards to the real compiled kernels, while the
/// returned handle's `distance_bounded_batch` stays on the blanket
/// one-candidate-at-a-time fallback — the exact pre-batching behavior.
struct ScalarEdit;

/// Prepared handle of [`ScalarEdit`]: wraps the real prepared edit kernel
/// but hides its batch override behind the trait's scalar default.
struct ScalarPrepared<'a>(Prepared<'a>);

impl<'a> fuzzydedup_textdist::PreparedDistance<'a> for ScalarPrepared<'a> {
    fn distance_bounded_prepared(&mut self, candidate: Candidate<'a>, cutoff: f64) -> Option<f64> {
        self.0.distance_bounded(candidate, cutoff)
    }
}

impl Distance for ScalarEdit {
    fn name(&self) -> &str {
        "scalar-edit"
    }

    fn distance(&self, a: &[&str], b: &[&str]) -> f64 {
        EditDistance.distance(a, b)
    }

    fn distance_bounded(&self, a: &[&str], b: &[&str], cutoff: f64) -> Option<f64> {
        EditDistance.distance_bounded(a, b, cutoff)
    }

    fn prepare<'a>(&'a self, query: &[&str]) -> Prepared<'a> {
        Prepared::new(Box::new(ScalarPrepared(EditDistance.prepare(query))))
    }

    /// Same compiled candidates as the batched row: the two differ in
    /// the batch override alone.
    fn compile_record(&self, fields: &[&str], store: &mut CompiledRecords) {
        EditDistance.compile_record(fields, store)
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

fn bench_phase1_batch(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(42);
    let dataset = org::generate(&mut rng, DatasetSpec::with_entities(8200));
    let mut records = dataset.records;
    assert!(records.len() >= CORPUS, "need {CORPUS} records, got {}", records.len());
    records.truncate(CORPUS);

    let scalar_index = build_index(records.clone(), ScalarEdit);
    let batched_index = build_index(records, EditDistance);
    let spec = NeighborSpec::TopK(5);
    let order = LookupOrder::breadth_first();

    // Sanity: every path materializes the identical relation before any
    // of them is timed — the recall-identity contract of frozen-cutoff
    // batching, the cache-consistency contract of the pair memo, and the
    // order-independence of the work-stealing sharder.
    let (base, _) = compute_nn_reln(&scalar_index, spec, order, 2.0);
    let (batched, _) = compute_nn_reln(&batched_index, spec, order, 2.0);
    assert_eq!(base, batched, "batched verification changed the NN relation");
    let cache = PairCache::new(1 << 20);
    let (cached, _) = compute_nn_reln_cached(&batched_index, spec, order, 2.0, Some(&cache));
    assert_eq!(base, cached, "pair cache changed the NN relation");
    let (stolen, _) = compute_nn_reln_parallel_cached(&batched_index, spec, 2.0, 0, None);
    assert_eq!(base, stolen, "parallel sharding changed the NN relation");

    // Each iteration is a full 10k-record Phase 1 (seconds, not micros);
    // 5 samples keeps the bench-smoke stage's wall time tolerable while
    // the worst-window baseline protocol absorbs the extra min_ns jitter.
    let mut group = c.benchmark_group("phase1_batch");
    group.sample_size(5);
    group.bench_function("scalar", |b| {
        b.iter(|| black_box(compute_nn_reln(&scalar_index, spec, order, 2.0)))
    });
    group.bench_function("batched", |b| {
        b.iter(|| black_box(compute_nn_reln(&batched_index, spec, order, 2.0)))
    });
    group.bench_function("batched_cache", |b| {
        b.iter(|| {
            let cache = PairCache::new(1 << 20);
            black_box(compute_nn_reln_cached(&batched_index, spec, order, 2.0, Some(&cache)))
        })
    });
    group.bench_function("batched_steal", |b| {
        b.iter(|| black_box(compute_nn_reln_parallel_cached(&batched_index, spec, 2.0, 0, None)))
    });
    group.finish();
}

criterion_group!(benches, bench_phase1_batch);
criterion_main!(benches);
