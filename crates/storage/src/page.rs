//! Fixed-size pages with a slotted record layout.
//!
//! Pages are the unit of I/O and of buffering. We use the classic slotted
//! layout: a header at the front, a slot directory growing forward after
//! the header, and record payloads growing backward from the end of the
//! page. Deleted slots are tombstoned (offset = `u16::MAX`) and their
//! payload space is not reclaimed (our workloads are append-heavy).
//!
//! Layout (little-endian):
//!
//! ```text
//! [0..2)   slot_count: u16
//! [2..4)   free_space_end: u16   (records live in [free_space_end, PAGE_SIZE))
//! [4..4 + 4*slot_count)  slot directory: (offset: u16, len: u16) per slot
//! [free_space_end..PAGE_SIZE)  record payloads
//! ```

use crate::error::{StorageError, StorageResult};

/// Page size in bytes: 8 KiB, matching SQL Server's page size (the backend
/// the paper's prototype ran against).
pub const PAGE_SIZE: usize = 8192;

const HEADER_SIZE: usize = 4;
const SLOT_SIZE: usize = 4;
const TOMBSTONE: u16 = u16::MAX;

/// Identifier of a page within a disk manager's page space.
pub type PageId = u64;

/// An 8 KiB slotted page.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    /// A fresh, empty page.
    pub fn new() -> Self {
        let mut page = Self { data: vec![0u8; PAGE_SIZE].into_boxed_slice().try_into().unwrap() };
        page.set_slot_count(0);
        page.set_free_space_end(PAGE_SIZE as u16);
        page
    }

    /// Reconstruct a page from raw bytes (e.g. read from disk), validating
    /// the header.
    pub fn from_bytes(id: PageId, bytes: &[u8]) -> StorageResult<Self> {
        if bytes.len() != PAGE_SIZE {
            return Err(StorageError::CorruptPage(id, "wrong page length"));
        }
        let mut data = Box::new([0u8; PAGE_SIZE]);
        data.copy_from_slice(bytes);
        let page = Self { data };
        let slots = page.slot_count() as usize;
        let fse = page.free_space_end() as usize;
        if fse > PAGE_SIZE || HEADER_SIZE + slots * SLOT_SIZE > fse {
            return Err(StorageError::CorruptPage(id, "header out of bounds"));
        }
        Ok(page)
    }

    /// Raw page bytes.
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    fn read_u16(&self, at: usize) -> u16 {
        u16::from_le_bytes([self.data[at], self.data[at + 1]])
    }

    fn write_u16(&mut self, at: usize, v: u16) {
        self.data[at..at + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Number of slots (including tombstones).
    pub fn slot_count(&self) -> u16 {
        self.read_u16(0)
    }

    fn set_slot_count(&mut self, v: u16) {
        self.write_u16(0, v);
    }

    fn free_space_end(&self) -> u16 {
        self.read_u16(2)
    }

    fn set_free_space_end(&mut self, v: u16) {
        self.write_u16(2, v);
    }

    fn slot(&self, idx: u16) -> (u16, u16) {
        let at = HEADER_SIZE + idx as usize * SLOT_SIZE;
        (self.read_u16(at), self.read_u16(at + 2))
    }

    fn set_slot(&mut self, idx: u16, offset: u16, len: u16) {
        let at = HEADER_SIZE + idx as usize * SLOT_SIZE;
        self.write_u16(at, offset);
        self.write_u16(at + 2, len);
    }

    /// Free bytes available for one more record (including its slot entry).
    fn free_space(&self) -> usize {
        let dir_end = HEADER_SIZE + self.slot_count() as usize * SLOT_SIZE;
        (self.free_space_end() as usize).saturating_sub(dir_end)
    }

    /// Maximum payload an empty page can hold.
    pub fn max_record_size() -> usize {
        PAGE_SIZE - HEADER_SIZE - SLOT_SIZE
    }

    /// Whether a record of `len` bytes fits in this page right now.
    pub fn fits(&self, len: usize) -> bool {
        self.free_space() >= len + SLOT_SIZE
    }

    /// Insert a record, returning its slot index.
    pub fn insert(&mut self, record: &[u8]) -> StorageResult<u16> {
        if record.len() > Self::max_record_size() {
            return Err(StorageError::RecordTooLarge {
                size: record.len(),
                max: Self::max_record_size(),
            });
        }
        if !self.fits(record.len()) {
            return Err(StorageError::RecordTooLarge {
                size: record.len(),
                max: self.free_space().saturating_sub(SLOT_SIZE),
            });
        }
        let slot = self.slot_count();
        let new_end = self.free_space_end() as usize - record.len();
        self.data[new_end..new_end + record.len()].copy_from_slice(record);
        self.set_slot_count(slot + 1);
        self.set_free_space_end(new_end as u16);
        self.set_slot(slot, new_end as u16, record.len() as u16);
        Ok(slot)
    }

    /// Read the record in a slot; `None` for tombstoned or out-of-range
    /// slots.
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let (offset, len) = self.slot(slot);
        if offset == TOMBSTONE {
            return None;
        }
        Some(&self.data[offset as usize..offset as usize + len as usize])
    }

    /// Tombstone a slot. Returns whether a live record was deleted.
    pub fn delete(&mut self, slot: u16) -> bool {
        if slot >= self.slot_count() {
            return false;
        }
        let (offset, len) = self.slot(slot);
        if offset == TOMBSTONE {
            return false;
        }
        self.set_slot(slot, TOMBSTONE, len);
        true
    }

    /// Iterate over `(slot, record)` pairs of live records.
    pub fn records(&self) -> impl Iterator<Item = (u16, &[u8])> {
        (0..self.slot_count()).filter_map(move |s| self.get(s).map(|r| (s, r)))
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("slots", &self.slot_count())
            .field("free", &self.free_space())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_page() {
        let p = Page::new();
        assert_eq!(p.slot_count(), 0);
        assert_eq!(p.free_space(), PAGE_SIZE - HEADER_SIZE);
        assert!(p.get(0).is_none());
        assert_eq!(p.records().count(), 0);
    }

    #[test]
    fn insert_and_get() {
        let mut p = Page::new();
        let s0 = p.insert(b"hello").unwrap();
        let s1 = p.insert(b"world!").unwrap();
        assert_eq!(s0, 0);
        assert_eq!(s1, 1);
        assert_eq!(p.get(0), Some(&b"hello"[..]));
        assert_eq!(p.get(1), Some(&b"world!"[..]));
        assert_eq!(p.records().count(), 2);
    }

    #[test]
    fn empty_record_allowed() {
        let mut p = Page::new();
        let s = p.insert(b"").unwrap();
        assert_eq!(p.get(s), Some(&b""[..]));
    }

    #[test]
    fn delete_tombstones() {
        let mut p = Page::new();
        p.insert(b"a").unwrap();
        p.insert(b"b").unwrap();
        assert!(p.delete(0));
        assert!(!p.delete(0), "double delete is a no-op");
        assert!(p.get(0).is_none());
        assert_eq!(p.get(1), Some(&b"b"[..]));
        assert_eq!(p.records().count(), 1);
        assert!(!p.delete(99));
    }

    #[test]
    fn fills_up_and_rejects() {
        let mut p = Page::new();
        let rec = vec![7u8; 1000];
        let mut inserted = 0;
        while p.fits(rec.len()) {
            p.insert(&rec).unwrap();
            inserted += 1;
        }
        assert!(inserted >= 8);
        assert!(p.insert(&rec).is_err());
        // A small record may still fit.
        assert!(p.fits(1) == p.insert(b"x").is_ok());
    }

    #[test]
    fn oversized_record_rejected() {
        let mut p = Page::new();
        let too_big = vec![0u8; Page::max_record_size() + 1];
        assert!(matches!(p.insert(&too_big), Err(StorageError::RecordTooLarge { .. })));
        let exactly = vec![1u8; Page::max_record_size()];
        assert!(p.insert(&exactly).is_ok());
    }

    #[test]
    fn roundtrip_through_bytes() {
        let mut p = Page::new();
        p.insert(b"persist me").unwrap();
        p.insert(b"me too").unwrap();
        p.delete(0);
        let restored = Page::from_bytes(0, p.bytes().as_slice()).unwrap();
        assert!(restored.get(0).is_none());
        assert_eq!(restored.get(1), Some(&b"me too"[..]));
    }

    #[test]
    fn from_bytes_validates() {
        assert!(Page::from_bytes(0, &[0u8; 16]).is_err());
        let mut bad = vec![0u8; PAGE_SIZE];
        bad[0] = 0xff; // slot_count huge
        bad[1] = 0xff;
        bad[2] = 0x10; // free_space_end small
        assert!(Page::from_bytes(0, &bad).is_err());
    }

    proptest! {
        #[test]
        fn inserted_records_round_trip(records in prop::collection::vec(
            prop::collection::vec(any::<u8>(), 0..64), 0..40)) {
            let mut p = Page::new();
            let mut stored = Vec::new();
            for r in &records {
                if p.fits(r.len()) {
                    let s = p.insert(r).unwrap();
                    stored.push((s, r.clone()));
                }
            }
            for (s, r) in &stored {
                prop_assert_eq!(p.get(*s), Some(r.as_slice()));
            }
            // Round-trip through bytes preserves everything.
            let restored = Page::from_bytes(0, p.bytes().as_slice()).unwrap();
            for (s, r) in &stored {
                prop_assert_eq!(restored.get(*s), Some(r.as_slice()));
            }
        }

        #[test]
        fn free_space_never_negative(sizes in prop::collection::vec(1usize..512, 0..64)) {
            let mut p = Page::new();
            for sz in sizes {
                let rec = vec![0u8; sz];
                if p.fits(sz) {
                    p.insert(&rec).unwrap();
                }
                prop_assert!(p.free_space() <= PAGE_SIZE);
            }
        }
    }
}
