//! Criterion bench: buffer-pool access patterns under LRU replacement
//! (the substrate behind Figure 8's hit-ratio numbers).

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fuzzydedup_storage::{BufferPool, BufferPoolConfig, InMemoryDisk, PageId};

fn make_pool(frames: usize, pages: usize) -> (BufferPool, Vec<PageId>) {
    let pool =
        BufferPool::new(BufferPoolConfig::with_capacity(frames), Arc::new(InMemoryDisk::new()));
    let ids: Vec<PageId> = (0..pages)
        .map(|i| {
            let id = pool.allocate_page();
            pool.with_page_mut(id, |p| {
                p.insert(&(i as u64).to_le_bytes()).unwrap();
            })
            .unwrap();
            id
        })
        .collect();
    (pool, ids)
}

fn bench_buffer_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("buffer_pool");
    // All-hits: working set fits.
    let (pool, ids) = make_pool(64, 32);
    group.bench_function("lru_hits", |b| {
        b.iter(|| {
            for &id in &ids {
                pool.with_page(id, |p| black_box(p.slot_count())).unwrap();
            }
        })
    });

    // Thrash: working set 4x the pool.
    let (pool, ids) = make_pool(16, 64);
    group.bench_function("lru_thrash", |b| {
        b.iter(|| {
            for &id in &ids {
                pool.with_page(id, |p| black_box(p.slot_count())).unwrap();
            }
        })
    });

    // Skewed: 90% of accesses to 10% of pages (the BF-order shape).
    let (pool, ids) = make_pool(16, 64);
    group.bench_function("lru_skewed", |b| {
        b.iter(|| {
            for round in 0..ids.len() {
                let id = if round % 10 == 0 { ids[round % ids.len()] } else { ids[round % 6] };
                pool.with_page(id, |p| black_box(p.slot_count())).unwrap();
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_buffer_pool);
criterion_main!(benches);
