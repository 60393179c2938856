//! Criterion bench: incremental batches vs full recomputation.
//!
//! Quantifies the extension of DESIGN.md §8: appending a small batch to a
//! large corpus should cost far less than re-running the batch pipeline,
//! because only the affected NN entries are refreshed.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fuzzydedup_core::{Aggregation, CutSpec, IncrementalDedup};
use fuzzydedup_datagen::{restaurants, DatasetSpec};
use fuzzydedup_nnindex::InvertedIndexConfig;
use fuzzydedup_textdist::{FuzzyMatchDistance, IdfModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn state_with(records: &[Vec<String>], idf: &IdfModel) -> IncrementalDedup<FuzzyMatchDistance> {
    let mut state = IncrementalDedup::builder(FuzzyMatchDistance::new(idf.clone()))
        .index_config(InvertedIndexConfig::default())
        .cut(CutSpec::Size(4))
        .aggregation(Aggregation::Max)
        .sn_threshold(6.0)
        .build()
        .unwrap();
    state.insert_batch(records.to_vec());
    state
}

fn bench_incremental(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let dataset = restaurants::generate(&mut rng, DatasetSpec::with_entities(500));
    let records = dataset.records;
    let idf = IdfModel::fit_records(&records);
    let (base, batch) = records.split_at(records.len() - 25);

    let mut group = c.benchmark_group("incremental");
    group.sample_size(10);
    group.bench_function("append_25_to_base", |b| {
        b.iter_batched(
            || state_with(base, &idf),
            |mut state| black_box(state.insert_batch(batch.to_vec())),
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function("full_recompute", |b| b.iter(|| black_box(state_with(&records, &idf))));
    group.finish();
}

criterion_group!(benches, bench_incremental);
criterion_main!(benches);
