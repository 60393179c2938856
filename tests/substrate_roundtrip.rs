//! Cross-crate integration tests of the storage → relation → nnindex
//! substrate stack.

use std::sync::Arc;

use fuzzydedup::nnindex::{
    InvertedIndex, InvertedIndexConfig, NestedLoopIndex, NnIndex, PostingsSource,
};
use fuzzydedup::relation::{
    external_sort, group_sorted, Column, ColumnType, Schema, SortConfig, Table, Tuple, Value,
};
use fuzzydedup::storage::DiskManager;
use fuzzydedup::storage::{BufferPool, BufferPoolConfig, FileDisk, InMemoryDisk};
use fuzzydedup::textdist::{DistanceKind, EditDistance};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn table_on_file_disk_survives_restart() {
    let dir = std::env::temp_dir().join(format!("fuzzydedup-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("relation.db");
    let schema = Arc::new(Schema::new(vec![
        Column::new("id", ColumnType::I64),
        Column::new("name", ColumnType::Str),
    ]));
    {
        let disk = Arc::new(FileDisk::create(&path).unwrap());
        let pool = Arc::new(BufferPool::new(BufferPoolConfig::with_capacity(4), disk));
        let table = Table::create(pool.clone(), schema.clone());
        let padding = "x".repeat(120);
        for i in 0..200 {
            table
                .insert(&Tuple::new(vec![
                    Value::I64(i),
                    Value::from(format!("row {i} {padding}").as_str()),
                ]))
                .unwrap();
        }
        pool.flush_all().unwrap();
        // 200 rows don't fit in 4 frames → evictions already wrote pages.
        assert!(table.num_pages() > 1);
    }
    // Reopen: pages are readable from disk (we re-read raw pages through a
    // fresh pool; the page payloads decode to the same tuples).
    let disk = Arc::new(FileDisk::open(&path).unwrap());
    assert!(disk.num_pages() >= 1);
    let pool = Arc::new(BufferPool::new(BufferPoolConfig::with_capacity(4), disk));
    let mut decoded = 0;
    for page_id in 0..pool.disk().num_pages() {
        pool.with_page(page_id, |p| {
            for (_, rec) in p.records() {
                let t = Tuple::decode(rec).unwrap();
                assert_eq!(t.arity(), 2);
                decoded += 1;
            }
        })
        .unwrap();
    }
    assert_eq!(decoded, 200);
    std::fs::remove_file(&path).ok();
}

#[test]
fn sort_and_group_pipeline_over_buffer_pressure() {
    let disk = Arc::new(InMemoryDisk::new());
    let pool = Arc::new(BufferPool::new(BufferPoolConfig::with_capacity(3), disk));
    let schema = Arc::new(Schema::new(vec![
        Column::new("key", ColumnType::I64),
        Column::new("payload", ColumnType::Str),
    ]));
    let table = Table::create(pool, schema);
    let mut rng = StdRng::seed_from_u64(5);
    let payload = "x".repeat(200);
    for _ in 0..500 {
        let k: i64 = rng.gen_range(0..20);
        table.insert(&Tuple::new(vec![Value::I64(k), Value::from(payload.as_str())])).unwrap();
    }
    let sorted = external_sort(&table, &SortConfig::by_columns(vec![0]).run_size(64)).unwrap();
    assert_eq!(sorted.len(), 500);
    let tuples: Vec<Tuple> = sorted.read_all().unwrap();
    let groups = group_sorted(tuples, &[0]);
    assert_eq!(groups.len(), 20, "20 distinct keys");
    let total: usize = groups.iter().map(|(_, rows)| rows.len()).sum();
    assert_eq!(total, 500);
    // Keys ascend across groups.
    let keys: Vec<i64> = groups.iter().map(|(k, _)| k[0].as_i64().unwrap()).collect();
    assert!(keys.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn inverted_index_recall_against_exact_reference() {
    // On a realistic corpus the inverted index must find the true nearest
    // neighbor in the overwhelming majority of queries — the empirical
    // justification for the paper's "treat probabilistic indexes as exact".
    let mut rng = StdRng::seed_from_u64(11);
    let dataset = fuzzydedup::datagen::restaurants::generate(
        &mut rng,
        fuzzydedup::datagen::DatasetSpec::with_entities(200),
    );
    let records = dataset.records;

    let pool = Arc::new(BufferPool::new(
        BufferPoolConfig::with_capacity(256),
        Arc::new(InMemoryDisk::new()),
    ));
    let inv = InvertedIndex::build(
        records.clone(),
        DistanceKind::EditDistance.build(&records),
        pool,
        InvertedIndexConfig::default(),
    );
    let exact = NestedLoopIndex::new(records.clone(), EditDistance);

    let mut agree = 0;
    let mut relevant = 0;
    for id in 0..records.len() as u32 {
        let truth = exact.top_k(id, 1);
        if truth[0].dist < 0.4 {
            relevant += 1;
            let approx = inv.top_k(id, 1);
            if approx.first().map(|n| n.id) == Some(truth[0].id) {
                agree += 1;
            }
        }
    }
    assert!(relevant > 20, "dataset should contain close pairs");
    let recall = agree as f64 / relevant as f64;
    assert!(recall > 0.95, "nearest-neighbor recall {recall:.3} too low");
}

#[test]
fn buffer_stats_flow_through_the_whole_stack() {
    let pool = Arc::new(BufferPool::new(
        BufferPoolConfig::with_capacity(8),
        Arc::new(InMemoryDisk::new()),
    ));
    let records: Vec<Vec<String>> = (0..300).map(|i| vec![format!("record number {i}")]).collect();
    // This test exercises the storage path, so pin the page-backed
    // postings source (the default packed arena never touches the pool).
    let index = InvertedIndex::build(
        records.clone(),
        DistanceKind::EditDistance.build(&records),
        pool.clone(),
        InvertedIndexConfig { postings_source: PostingsSource::Pages, ..Default::default() },
    );
    pool.reset_stats();
    for id in 0..50u32 {
        index.top_k(id, 3);
    }
    let stats = pool.stats();
    assert!(stats.accesses() > 50, "index lookups must hit the pool: {stats:?}");
    assert!(stats.hit_ratio() > 0.0);
}
