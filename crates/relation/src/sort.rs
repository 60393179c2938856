//! External merge sort: the engine behind `ORDER BY`.
//!
//! Phase 2 of the paper's algorithm issues the *CS-group query*
//! `select * from CSPairs order by ID`, and observes that "the cost of
//! sorting the CSPairs relation dominates the partitioning step cost". We
//! implement the textbook external merge sort: bounded-memory run
//! formation (a stable sort of up to [`RUN_RECORDS`] records, written out
//! as the scan reaches the bound) followed by a k-way merge via a binary
//! heap. Runs are files on the input's buffer pool, so sort I/O flows
//! through the instrumented pool like everything else. Run formation is
//! what is bounded: the merge reads every run back whole.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use fuzzydedup_storage::{HeapFile, RecordId, StorageError, StorageResult};

/// Records per in-memory run.
const RUN_RECORDS: usize = 65_536;

/// Sort `input` by `key` into a fresh file on the same pool. Stable:
/// records with equal keys keep their input order. `key` returns `None`
/// for a record that is not one of this file's.
pub fn external_sort<K: Ord>(
    input: &HeapFile,
    key: impl Fn(&[u8]) -> Option<K>,
) -> StorageResult<HeapFile> {
    external_sort_in_runs(input, RUN_RECORDS, key)
}

/// [`external_sort`] with the run bound as a parameter, for tests that
/// force the merge on a small input.
#[doc(hidden)]
pub fn external_sort_in_runs<K: Ord>(
    input: &HeapFile,
    run_records: usize,
    key: impl Fn(&[u8]) -> Option<K>,
) -> StorageResult<HeapFile> {
    let pool = input.pool();
    let keyed = |at: RecordId, rec: &[u8]| -> StorageResult<(K, Vec<u8>)> {
        const WHY: &str = "record does not decode to a sort key";
        Ok((key(rec).ok_or(StorageError::CorruptPage(at.page, WHY))?, rec.to_vec()))
    };
    let mut runs: Vec<HeapFile> = Vec::new();
    let mut write_run = |run: &mut Vec<(K, Vec<u8>)>| -> StorageResult<()> {
        run.sort_by(|a, b| a.0.cmp(&b.0));
        let file = HeapFile::create(pool.clone());
        for (_, rec) in run.drain(..) {
            file.insert(&rec)?;
        }
        runs.push(file);
        Ok(())
    };
    let mut current: Vec<(K, Vec<u8>)> = Vec::new();
    input.try_scan(|at, rec| {
        current.push(keyed(at, rec)?);
        if current.len() >= run_records.max(1) {
            write_run(&mut current)?;
        }
        Ok(())
    })?;
    if !current.is_empty() {
        write_run(&mut current)?;
    }
    // A single run is the sorted output.
    if runs.len() <= 1 {
        return Ok(runs.pop().unwrap_or_else(|| HeapFile::create(pool.clone())));
    }

    // K-way merge: one head per run in the heap, ordered by key and then
    // by run, which (runs being consecutive slices of the input) keeps the
    // sort stable across runs.
    let mut rest = Vec::with_capacity(runs.len());
    for run in &runs {
        let mut records: Vec<(K, Vec<u8>)> = Vec::with_capacity(run.len() as usize);
        run.try_scan(|at, rec| {
            records.push(keyed(at, rec)?);
            Ok(())
        })?;
        rest.push(records.into_iter());
    }
    let mut heap = BinaryHeap::with_capacity(rest.len());
    for (run, records) in rest.iter_mut().enumerate() {
        heap.extend(records.next().map(|(k, rec)| Reverse((k, run, rec))));
    }
    let output = HeapFile::create(pool.clone());
    while let Some(Reverse((_, run, rec))) = heap.pop() {
        output.insert(&rec)?;
        heap.extend(rest[run].next().map(|(k, rec)| Reverse((k, run, rec))));
    }
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzydedup_storage::{BufferPool, BufferPoolConfig, InMemoryDisk};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    /// A file of `key: i64 | tag: u32` records, tagged in insertion order.
    fn file_of(keys: &[i64]) -> HeapFile {
        let disk = Arc::new(InMemoryDisk::new());
        let pool = Arc::new(BufferPool::new(BufferPoolConfig::with_capacity(8), disk));
        let file = HeapFile::create(pool);
        for (tag, k) in keys.iter().enumerate() {
            file.insert(&[&k.to_le_bytes()[..], &(tag as u32).to_le_bytes()].concat()).unwrap();
        }
        file
    }

    fn key(rec: &[u8]) -> Option<i64> {
        let (k, tag) = rec.split_first_chunk::<8>()?;
        (tag.len() == 4).then(|| i64::from_le_bytes(*k))
    }

    fn rows(file: &HeapFile) -> Vec<(i64, u32)> {
        let tag = |rec: &[u8]| u32::from_le_bytes(rec[8..].try_into().unwrap());
        file.read_all().unwrap().iter().map(|(_, r)| (key(r).unwrap(), tag(r))).collect()
    }

    /// What a stable in-memory sort of the same keys gives.
    fn expected(keys: &[i64]) -> Vec<(i64, u32)> {
        let mut rows: Vec<(i64, u32)> = keys.iter().copied().zip(0..).collect();
        rows.sort_by_key(|r| r.0);
        rows
    }

    #[test]
    fn sorts_random_input() {
        let mut rng = StdRng::seed_from_u64(7);
        let keys: Vec<i64> = (0..500).map(|_| rng.gen_range(-1000..1000)).collect();
        let sorted = external_sort(&file_of(&keys), key).unwrap();
        assert_eq!(rows(&sorted), expected(&keys));
    }

    #[test]
    fn merges_many_small_runs() {
        let mut rng = StdRng::seed_from_u64(11);
        let keys: Vec<i64> = (0..300).map(|_| rng.gen_range(0..10_000)).collect();
        // Runs of 16 → 19 runs merged.
        let sorted = external_sort_in_runs(&file_of(&keys), 16, key).unwrap();
        assert_eq!(rows(&sorted), expected(&keys));
    }

    #[test]
    fn merge_is_stable_across_runs() {
        // Few distinct keys, many runs: equal keys must come out in input
        // order whichever run they were written to.
        let keys: Vec<i64> = (0..200).map(|i| i % 3).collect();
        for run_records in [1, 7, 64, 1000] {
            let sorted = external_sort_in_runs(&file_of(&keys), run_records, key).unwrap();
            assert_eq!(rows(&sorted), expected(&keys), "runs of {run_records}");
        }
    }

    #[test]
    fn empty_singleton_and_sorted_inputs() {
        assert!(external_sort(&file_of(&[]), key).unwrap().is_empty());
        assert_eq!(rows(&external_sort(&file_of(&[9]), key).unwrap()), vec![(9, 0)]);
        let ascending: Vec<i64> = (0..100).collect();
        let sorted = external_sort_in_runs(&file_of(&ascending), 10, key).unwrap();
        assert_eq!(rows(&sorted), expected(&ascending));
    }

    #[test]
    fn undecodable_record_is_a_typed_error() {
        let file = file_of(&[3, 1, 2]);
        file.insert(b"short").unwrap();
        let e = external_sort(&file, key).err().expect("the short record has no key");
        assert!(matches!(e, StorageError::CorruptPage(_, _)), "{e}");
    }
}
