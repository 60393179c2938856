//! Cross-crate integration tests of the storage → relation → nnindex
//! substrate stack.

use std::sync::Arc;

use fuzzydedup::core::{read_nn_reln, spill_nn_reln, NnEntry, NnReln};
use fuzzydedup::nnindex::{
    InvertedIndex, InvertedIndexConfig, LookupSpec, NestedLoopIndex, NnIndex, PostingsSource,
};
use fuzzydedup::relation::{external_sort_in_runs, Neighbor};
use fuzzydedup::storage::{BufferPool, BufferPoolConfig, FileDisk, HeapFile, InMemoryDisk, Page};
use fuzzydedup::textdist::{DistanceKind, EditDistance};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn table_on_file_disk_survives_restart() {
    let dir = std::env::temp_dir().join(format!("fuzzydedup-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("relation.db");
    // 200 entries of 60 neighbors each (736-byte records) and one whose
    // list outgrows a page and chunks.
    let list = |id: u32, len: u32| -> Vec<Neighbor> {
        (0..len).map(|j| Neighbor::new(id + 1 + j, f64::from(j) * 0.001 + 0.1)).collect()
    };
    let mut entries: Vec<NnEntry> =
        (0..200).map(|id| NnEntry::new(id, list(id, 60), f64::from(id) + 1.5)).collect();
    entries.push(NnEntry::new(200, list(200, 1500), 7.0));
    let reln = NnReln::new(entries);
    {
        let disk = Arc::new(FileDisk::create(&path).unwrap());
        let pool = Arc::new(BufferPool::new(BufferPoolConfig::with_capacity(4), disk));
        let file = HeapFile::create(pool.clone());
        spill_nn_reln(&reln, &file).unwrap();
        pool.flush_all().unwrap();
        // 201 entries don't fit in 4 frames → evictions already wrote pages.
        assert!(file.num_pages() > 4);
        assert!(file.len() > 201, "the long list spans records");
    }
    // Reopen: a heap file's page list lives in memory, so rebuild it from
    // the disk's raw pages (a spill file is the pool's only tenant, its
    // pages in allocation order) and read the relation back bit-exactly.
    let disk = Arc::new(FileDisk::open(&path).unwrap());
    let pool = Arc::new(BufferPool::new(BufferPoolConfig::with_capacity(4), disk));
    let reopened = HeapFile::create(Arc::new(BufferPool::new(
        BufferPoolConfig::with_capacity(4),
        Arc::new(InMemoryDisk::new()),
    )));
    for page_id in 0..pool.disk().num_pages() {
        let records: Vec<Vec<u8>> = pool
            .with_page(page_id, |p: &Page| p.records().map(|(_, rec)| rec.to_vec()).collect())
            .unwrap();
        for rec in records {
            reopened.insert(&rec).unwrap();
        }
    }
    assert_eq!(read_nn_reln(&reopened).unwrap(), reln);
    std::fs::remove_file(&path).ok();
}

#[test]
fn sort_and_group_pipeline_over_buffer_pressure() {
    // CSPairs-width records (four u32 columns) with 20 distinct sort keys,
    // sorted in runs of 64 through a 3-frame pool: the merge under buffer
    // pressure equals a stable in-memory sort, so each key's rows arrive
    // as one group with their input (= run) order kept.
    let disk = Arc::new(InMemoryDisk::new());
    let pool = Arc::new(BufferPool::new(BufferPoolConfig::with_capacity(3), disk));
    let input = HeapFile::create(pool);
    let mut rng = StdRng::seed_from_u64(5);
    let mut rows: Vec<[u32; 4]> = Vec::new();
    for seq in 0..500 {
        let row: [u32; 4] = [rng.gen_range(0..20), seq, rng.gen(), rng.gen()];
        input.insert(&row.iter().flat_map(|c| c.to_le_bytes()).collect::<Vec<u8>>()).unwrap();
        rows.push(row);
    }
    let columns = |rec: &[u8]| -> Option<[u32; 4]> {
        let mut row = [0u32; 4];
        if rec.len() != 16 {
            return None;
        }
        for (c, bytes) in row.iter_mut().zip(rec.chunks_exact(4)) {
            *c = u32::from_le_bytes(bytes.try_into().ok()?);
        }
        Some(row)
    };
    let sorted = external_sort_in_runs(&input, 64, |rec| columns(rec).map(|row| row[0])).unwrap();
    assert!(sorted.pool().stats().evictions > 0, "eight run files through three frames");
    let got: Vec<[u32; 4]> =
        sorted.read_all().unwrap().iter().map(|(_, rec)| columns(rec).unwrap()).collect();
    rows.sort_by_key(|row| row[0]);
    assert_eq!(got, rows);
    // The group scan over the sorted rows: 20 groups, keys ascending.
    let groups: Vec<&[[u32; 4]]> = got.chunk_by(|a, b| a[0] == b[0]).collect();
    assert_eq!(groups.len(), 20, "20 distinct keys");
    assert!(groups.windows(2).all(|w| w[0][0][0] < w[1][0][0]));
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
        let (truth, _, _) = exact.lookup(id, LookupSpec::TopK(1), 2.0);
        if truth[0].dist < 0.4 {
            relevant += 1;
            let (approx, _, _) = inv.lookup(id, LookupSpec::TopK(1), 2.0);
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
        index.lookup(id, LookupSpec::TopK(3), 2.0);
    }
    let stats = pool.stats();
    assert!(stats.accesses() > 50, "index lookups must hit the pool: {stats:?}");
    assert!(stats.hit_ratio() > 0.0);
}
