//! Streaming deduplication: keep the partition current as batches arrive.
//!
//! The paper's pipeline is batch-only; `IncrementalDedup` (an extension,
//! see DESIGN.md §8) appends each batch to its index and re-runs Phase 1
//! over every record — IDF weights and stop grams move with the corpus
//! size, so every entry can change — then re-partitions. Its index is
//! the batch pipeline's `InvertedIndex`, left growing instead of frozen,
//! so it takes the same `InvertedIndexConfig`.
//!
//! Run with: `cargo run --release --example streaming_dedup`

use fuzzydedup::core::{Aggregation, CutSpec, IncrementalDedup};
use fuzzydedup::datagen::{restaurants, DatasetSpec};
use fuzzydedup::nnindex::InvertedIndexConfig;
use fuzzydedup::textdist::{FuzzyMatchDistance, IdfModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // A day's worth of incoming records, in arrival order.
    let mut rng = StdRng::seed_from_u64(99);
    let dataset = restaurants::generate(&mut rng, DatasetSpec::with_entities(400));
    let records = dataset.records.clone();
    println!(
        "stream: {} records arriving in batches ({} true duplicate pairs hidden)",
        records.len(),
        dataset.true_pairs()
    );

    // IDF weights fit on a historical sample (here: the stream itself; in
    // production, yesterday's corpus).
    let idf = IdfModel::fit_records(&records);
    let mut state = IncrementalDedup::builder(FuzzyMatchDistance::new(idf))
        .index_config(InvertedIndexConfig::default())
        .cut(CutSpec::Size(4))
        .aggregation(Aggregation::Max)
        .sn_threshold(6.0)
        .build()
        .expect("valid configuration");

    let batch_size = 75;
    let mut lookups = 0usize;
    for (i, batch) in records.chunks(batch_size).enumerate() {
        let t = std::time::Instant::now();
        let stats = state.insert_batch(batch.to_vec());
        lookups += stats.refreshed + stats.inserted;
        println!(
            "batch {:>2}: +{:<3} records, {:>4} standing entries recomputed, \
             {:>4} duplicate pairs known, {:>6.1?}",
            i + 1,
            stats.inserted,
            stats.refreshed,
            state.partition().num_duplicate_pairs(),
            t.elapsed(),
        );
    }

    let pr = fuzzydedup::core::evaluate(state.partition(), &dataset.gold);
    println!(
        "\nfinal quality: recall={:.3} precision={:.3} f1={:.3}",
        pr.recall,
        pr.precision,
        pr.f1()
    );
    println!(
        "incremental work: {lookups} lookups for {} records; every batch re-runs Phase 1 \
         over every entry",
        records.len(),
    );
}
