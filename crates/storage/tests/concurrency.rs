//! Concurrency stress tests: the buffer pool and heap files are shared
//! across Phase-1 worker threads (see `fuzzydedup-core::parallel`), so
//! they must stay consistent under contention.

use std::sync::Arc;

use fuzzydedup_storage::{BufferPool, BufferPoolConfig, HeapFile, InMemoryDisk};

#[test]
fn concurrent_readers_see_consistent_pages() {
    let pool = Arc::new(BufferPool::new(
        BufferPoolConfig::with_capacity(8),
        Arc::new(InMemoryDisk::new()),
    ));
    // 64 pages, each stamped with its index.
    let ids: Vec<_> = (0..64u64)
        .map(|i| {
            let id = pool.allocate_page();
            pool.with_page_mut(id, |p| {
                p.insert(&i.to_le_bytes()).unwrap();
            })
            .unwrap();
            (id, i)
        })
        .collect();

    std::thread::scope(|scope| {
        for t in 0..8 {
            let pool = pool.clone();
            let ids = ids.clone();
            scope.spawn(move || {
                for round in 0..200 {
                    let (id, stamp) = ids[(t * 31 + round * 7) % ids.len()];
                    let got = pool
                        .with_page(id, |p| {
                            u64::from_le_bytes(p.get(0).unwrap().try_into().unwrap())
                        })
                        .unwrap();
                    assert_eq!(got, stamp);
                }
            });
        }
    });
    let stats = pool.stats();
    // One access per setup write + one per read.
    assert_eq!(stats.accesses(), 64 + 8 * 200);
}

#[test]
fn concurrent_heap_inserts_preserve_every_record() {
    let pool = Arc::new(BufferPool::new(
        BufferPoolConfig::with_capacity(6),
        Arc::new(InMemoryDisk::new()),
    ));
    let heap = Arc::new(HeapFile::create(pool));
    let per_thread = 250usize;
    std::thread::scope(|scope| {
        for t in 0..4u8 {
            let heap = heap.clone();
            scope.spawn(move || {
                for i in 0..per_thread {
                    let payload = format!("thread {t} record {i} {}", "x".repeat(50));
                    heap.insert(payload.as_bytes()).unwrap();
                }
            });
        }
    });
    assert_eq!(heap.len(), 4 * per_thread as u64);
    // Every record decodable and attributed to its writer.
    let mut counts = [0usize; 4];
    heap.scan(|_, rec| {
        let text = std::str::from_utf8(rec).unwrap();
        let t: usize = text
            .strip_prefix("thread ")
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .unwrap();
        counts[t] += 1;
    })
    .unwrap();
    assert!(counts.iter().all(|&c| c == per_thread), "{counts:?}");
}

#[test]
fn mixed_read_write_workload() {
    let pool = Arc::new(BufferPool::new(
        BufferPoolConfig::with_capacity(4),
        Arc::new(InMemoryDisk::new()),
    ));
    let heap = Arc::new(HeapFile::create(pool.clone()));
    // Seed records.
    let seeded: Vec<_> = (0..100u32).map(|i| heap.insert(&i.to_le_bytes()).unwrap()).collect();
    std::thread::scope(|scope| {
        // Writers append.
        for _ in 0..2 {
            let heap = heap.clone();
            scope.spawn(move || {
                for i in 1000..1200u32 {
                    heap.insert(&i.to_le_bytes()).unwrap();
                }
            });
        }
        // Readers re-read the seeded records while writers churn frames.
        for t in 0..4usize {
            let heap = heap.clone();
            let seeded = seeded.clone();
            scope.spawn(move || {
                for round in 0..100 {
                    let idx = (t * 17 + round * 13) % seeded.len();
                    let bytes = heap.get(seeded[idx]).unwrap();
                    let v = u32::from_le_bytes(bytes.try_into().unwrap());
                    assert_eq!(v as usize, idx);
                }
            });
        }
    });
    assert_eq!(heap.len(), 100 + 2 * 200);
    pool.flush_all().unwrap();
}
