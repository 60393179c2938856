//! Criterion bench: candidate generation across the two postings
//! layouts — packed delta-blocks (default) and page-backed heap files.
//!
//! Emits `results/BENCH_candidates.json`. Committed rows follow the
//! worst-window protocol (`scripts/bench_refresh.sh`). Both layouts merge
//! onto the same scoreboard, so the gap between the rows (the breakdown
//! is in DESIGN §7.7) is what the page-backed path pays for query-time
//! re-tokenization, dictionary lookups and pool fetches. The
//! bench-regression gate (`ci_bench_gate`) watches both rows for
//! slowdowns.
//!
//! Both rows drive [`InvertedIndex::generate_candidates`] — the full
//! merge + score + truncate pipeline — over the same fixed query sample,
//! so the only variable is where postings come from: delta-compressed
//! blocks decoded through the staged lane-wise merge, or heap-file chunks
//! fetched through the buffer pool with query-time re-tokenization.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fuzzydedup_datagen::{org, DatasetSpec};
use fuzzydedup_nnindex::{InvertedIndex, InvertedIndexConfig, PostingsSource};
use fuzzydedup_storage::{BufferPool, BufferPoolConfig, InMemoryDisk};
use fuzzydedup_textdist::EditDistance;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Corpus size: large enough that postings span many pages and the
/// dictionary is realistic; small enough to build twice in a bench run.
const CORPUS: usize = 10_000;

/// Queries per measurement batch.
const QUERIES: usize = 64;

fn corpus() -> Vec<Vec<String>> {
    let mut rng = StdRng::seed_from_u64(42);
    // ~1.28 records per entity; trim the tail to exactly CORPUS records.
    let dataset = org::generate(&mut rng, DatasetSpec::with_entities(8200));
    let mut records = dataset.records;
    assert!(records.len() >= CORPUS, "need {CORPUS} records, got {}", records.len());
    records.truncate(CORPUS);
    records
}

fn build(records: &[Vec<String>], source: PostingsSource) -> InvertedIndex<EditDistance> {
    let pool = Arc::new(BufferPool::new(
        BufferPoolConfig::with_capacity(1024),
        Arc::new(InMemoryDisk::new()),
    ));
    InvertedIndex::build(
        records.to_vec(),
        EditDistance,
        pool,
        InvertedIndexConfig { postings_source: source, ..Default::default() },
    )
}

fn bench_candidates(c: &mut Criterion) {
    let records = corpus();
    let mut rng = StdRng::seed_from_u64(7);
    let queries: Vec<u32> = (0..QUERIES).map(|_| rng.gen_range(0..CORPUS) as u32).collect();

    let mut group = c.benchmark_group("candidates");
    // One iteration is ~15 ms of merge work — long enough to straddle
    // scheduler quanta on a shared machine, so the per-sample minimum
    // needs more draws than the 10-sample default to reach the real
    // noise floor (noise only ever adds time; the workload per
    // iteration is unchanged, keeping baselines comparable).
    group.sample_size(30);

    for (label, source) in [("pages", PostingsSource::Pages), ("packed", PostingsSource::Packed)] {
        let index = build(&records, source);
        // Sanity: every path must produce real candidate sets.
        assert!(!index.generate_candidates(queries[0]).is_empty());
        group.bench_function(format!("{label}/gen"), |b| {
            b.iter(|| {
                for &id in &queries {
                    black_box(index.generate_candidates(id));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_candidates);
criterion_main!(benches);
