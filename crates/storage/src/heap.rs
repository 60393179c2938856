//! Heap files: unordered record storage over the buffer pool.
//!
//! A [`HeapFile`] owns a growing list of pages and appends records to the
//! last page with room, allocating new pages as needed. Records are
//! addressed by stable [`RecordId`]s (page, slot) and iterated in storage
//! order. This is the physical representation of every relation Phase 2
//! puts on pages (`NN_Reln`, `Edges`, `CSPairs`, sort runs).

use std::sync::{Arc, Mutex};

use crate::buffer::BufferPool;
use crate::error::{StorageError, StorageResult};
use crate::lock;
use crate::page::{Page, PageId};

/// Stable address of a record: (page, slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId {
    /// Page holding the record.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
}

impl RecordId {
    /// Construct a record id.
    pub fn new(page: PageId, slot: u16) -> Self {
        Self { page, slot }
    }
}

/// An unordered file of variable-length records.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    state: Mutex<HeapState>,
}

/// The file's pages and its live record count, under one mutex.
#[derive(Default)]
struct HeapState {
    pages: Vec<PageId>,
    records: u64,
}

impl HeapFile {
    /// Create an empty heap file on a buffer pool.
    pub fn create(pool: Arc<BufferPool>) -> Self {
        Self { pool, state: Mutex::default() }
    }

    /// The buffer pool backing this file.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Number of live records ever inserted minus deletions.
    pub fn len(&self) -> u64 {
        lock(&self.state).records
    }

    /// Whether the file holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of pages allocated by this file.
    pub fn num_pages(&self) -> usize {
        lock(&self.state).pages.len()
    }

    /// Append a record, returning its id.
    pub fn insert(&self, record: &[u8]) -> StorageResult<RecordId> {
        if record.len() > Page::max_record_size() {
            return Err(StorageError::RecordTooLarge {
                size: record.len(),
                max: Page::max_record_size(),
            });
        }
        let mut state = lock(&self.state);
        // Try the last page first (append workload).
        if let Some(&last) = state.pages.last() {
            let slot = self.pool.with_page_mut(last, |p| {
                if p.fits(record.len()) {
                    Some(p.insert(record).expect("fits was checked"))
                } else {
                    None
                }
            })?;
            if let Some(slot) = slot {
                state.records += 1;
                return Ok(RecordId::new(last, slot));
            }
        }
        // Allocate a fresh page.
        let page_id = self.pool.allocate_page();
        state.pages.push(page_id);
        let slot =
            self.pool.with_page_mut(page_id, |p| p.insert(record).expect("empty page must fit"))?;
        state.records += 1;
        Ok(RecordId::new(page_id, slot))
    }

    /// Read a record by id into an owned buffer.
    pub fn get(&self, id: RecordId) -> StorageResult<Vec<u8>> {
        let found = self.pool.with_page(id.page, |p| p.get(id.slot).map(<[u8]>::to_vec))?;
        found.ok_or(StorageError::RecordNotFound { page: id.page, slot: id.slot })
    }

    /// Delete a record. Returns whether a live record was removed.
    pub fn delete(&self, id: RecordId) -> StorageResult<bool> {
        let deleted = self.pool.with_page_mut(id.page, |p| p.delete(id.slot))?;
        if deleted {
            lock(&self.state).records -= 1;
        }
        Ok(deleted)
    }

    /// Visit every live record in storage order. The callback receives the
    /// record id and payload.
    ///
    /// Each page's records are copied out of the buffer frame *before* the
    /// callback runs, so the callback is free to perform further storage
    /// operations (insert into another file on the same pool, nested
    /// scans, ...) without deadlocking on the pool latch.
    pub fn scan(&self, mut visit: impl FnMut(RecordId, &[u8])) -> StorageResult<()> {
        self.try_scan(|id, rec| {
            visit(id, rec);
            Ok(())
        })
    }

    /// [`HeapFile::scan`] with a callback that can fail: the scan stops at
    /// the callback's first error and returns it — how a record that does
    /// not decode, or an insert the callback makes, surfaces as a typed
    /// error.
    pub fn try_scan(
        &self,
        mut visit: impl FnMut(RecordId, &[u8]) -> StorageResult<()>,
    ) -> StorageResult<()> {
        let pages = lock(&self.state).pages.clone();
        let mut batch: Vec<(u16, Vec<u8>)> = Vec::new();
        for page_id in pages {
            batch.clear();
            self.pool.with_page(page_id, |p| {
                for (slot, rec) in p.records() {
                    batch.push((slot, rec.to_vec()));
                }
            })?;
            for (slot, rec) in &batch {
                visit(RecordId::new(page_id, *slot), rec)?;
            }
        }
        Ok(())
    }

    /// Collect all live records into memory (convenience for tests and for
    /// sort-run generation).
    pub fn read_all(&self) -> StorageResult<Vec<(RecordId, Vec<u8>)>> {
        let mut out = Vec::with_capacity(self.len() as usize);
        self.scan(|id, rec| out.push((id, rec.to_vec())))?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferPoolConfig;
    use crate::disk::InMemoryDisk;

    fn heap(frames: usize) -> HeapFile {
        let disk = Arc::new(InMemoryDisk::new());
        let pool = Arc::new(BufferPool::new(BufferPoolConfig::with_capacity(frames), disk));
        HeapFile::create(pool)
    }

    #[test]
    fn insert_get_roundtrip() {
        let h = heap(4);
        let a = h.insert(b"alpha").unwrap();
        let b = h.insert(b"beta").unwrap();
        assert_eq!(h.get(a).unwrap(), b"alpha");
        assert_eq!(h.get(b).unwrap(), b"beta");
        assert_eq!(h.len(), 2);
        assert!(!h.is_empty());
    }

    #[test]
    fn spills_to_multiple_pages() {
        let h = heap(2);
        let rec = vec![9u8; 2000];
        let ids: Vec<RecordId> = (0..20).map(|_| h.insert(&rec).unwrap()).collect();
        assert!(h.num_pages() > 1);
        assert_eq!(h.len(), 20);
        for id in ids {
            assert_eq!(h.get(id).unwrap(), rec);
        }
    }

    #[test]
    fn scan_visits_in_storage_order() {
        let h = heap(4);
        for i in 0..50u8 {
            h.insert(&[i]).unwrap();
        }
        let mut seen = Vec::new();
        h.scan(|_, rec| seen.push(rec[0])).unwrap();
        assert_eq!(seen, (0..50).collect::<Vec<u8>>());
    }

    #[test]
    fn delete_removes_from_scan() {
        let h = heap(4);
        let a = h.insert(b"keep").unwrap();
        let b = h.insert(b"drop").unwrap();
        assert!(h.delete(b).unwrap());
        assert!(!h.delete(b).unwrap());
        assert_eq!(h.len(), 1);
        assert!(h.get(b).is_err());
        assert_eq!(h.get(a).unwrap(), b"keep");
        let all = h.read_all().unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].1, b"keep");
    }

    #[test]
    fn records_survive_buffer_pressure() {
        // More pages than frames: records must round-trip through disk.
        let h = heap(1);
        let mut ids = Vec::new();
        for i in 0..30u32 {
            let rec = i.to_le_bytes().repeat(300); // 1200 bytes
            ids.push((h.insert(&rec).unwrap(), rec));
        }
        assert!(h.num_pages() > 3);
        for (id, rec) in &ids {
            assert_eq!(&h.get(*id).unwrap(), rec);
        }
    }

    #[test]
    fn oversized_record_rejected() {
        let h = heap(2);
        let too_big = vec![0u8; crate::page::PAGE_SIZE];
        assert!(h.insert(&too_big).is_err());
        assert_eq!(h.len(), 0);
    }

    #[test]
    fn empty_scan_is_fine() {
        let h = heap(2);
        let mut count = 0;
        h.scan(|_, _| count += 1).unwrap();
        assert_eq!(count, 0);
        assert!(h.read_all().unwrap().is_empty());
    }
}
