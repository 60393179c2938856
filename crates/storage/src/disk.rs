//! Disk managers: whole-page persistence behind the buffer pool.
//!
//! The buffer pool reads and writes whole pages through the
//! [`DiskManager`] trait. Two implementations are provided:
//!
//! * [`InMemoryDisk`] — pages held in a `Vec`; the default for experiments
//!   (a real disk would only add noise to the buffer-hit-ratio measurements
//!   the paper's Figure 8 cares about, and the miss *count* is what our
//!   cost model consumes);
//! * [`FileDisk`] — pages in a real file via positioned reads/writes, for
//!   datasets larger than memory and for persistence tests.
//!
//! Neither counts its I/O: the buffer pool's [`crate::BufferStats`] count
//! every page it reads (a miss) and writes (a write-back), under the latch
//! that serializes them.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Mutex;

use crate::error::{StorageError, StorageResult};
use crate::lock;
use crate::page::{Page, PageId, PAGE_SIZE};

/// Whole-page storage behind the buffer pool.
pub trait DiskManager: Send + Sync {
    /// Allocate a fresh page id (the page is materialized on first write).
    fn allocate(&self) -> PageId;

    /// Read a page.
    fn read(&self, id: PageId) -> StorageResult<Page>;

    /// Write a page.
    fn write(&self, id: PageId, page: &Page) -> StorageResult<()>;

    /// Number of pages allocated so far.
    fn num_pages(&self) -> u64;
}

/// Pages kept in memory. Reads clone the stored page (the buffer pool holds
/// its own frame copy, as it would with real I/O).
pub struct InMemoryDisk {
    pages: Mutex<Vec<Option<Page>>>,
}

impl Default for InMemoryDisk {
    fn default() -> Self {
        Self::new()
    }
}

impl InMemoryDisk {
    /// Empty in-memory disk.
    pub fn new() -> Self {
        Self { pages: Mutex::new(Vec::new()) }
    }
}

impl DiskManager for InMemoryDisk {
    fn allocate(&self) -> PageId {
        let mut pages = lock(&self.pages);
        pages.push(None);
        (pages.len() - 1) as PageId
    }

    fn read(&self, id: PageId) -> StorageResult<Page> {
        let pages = lock(&self.pages);
        match pages.get(id as usize) {
            Some(Some(p)) => Ok(p.clone()),
            // Allocated but never written: hand back an empty page, exactly
            // like reading zeroed file space.
            Some(None) => Ok(Page::new()),
            None => Err(StorageError::PageNotFound(id)),
        }
    }

    fn write(&self, id: PageId, page: &Page) -> StorageResult<()> {
        let mut pages = lock(&self.pages);
        match pages.get_mut(id as usize) {
            Some(slot) => {
                *slot = Some(page.clone());
                Ok(())
            }
            None => Err(StorageError::PageNotFound(id)),
        }
    }

    fn num_pages(&self) -> u64 {
        lock(&self.pages).len() as u64
    }
}

/// Pages stored in a single file at `id * PAGE_SIZE` offsets.
pub struct FileDisk {
    file: Mutex<PageFile>,
}

/// The file and its allocated page count, under one mutex.
struct PageFile {
    file: File,
    next_page: u64,
}

impl FileDisk {
    /// Create (or truncate) a database file.
    pub fn create(path: impl AsRef<Path>) -> StorageResult<Self> {
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        Ok(Self { file: Mutex::new(PageFile { file, next_page: 0 }) })
    }

    /// Open an existing database file; page count is derived from its
    /// length.
    pub fn open(path: impl AsRef<Path>) -> StorageResult<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let next_page = file.metadata()?.len() / PAGE_SIZE as u64;
        Ok(Self { file: Mutex::new(PageFile { file, next_page }) })
    }
}

impl DiskManager for FileDisk {
    fn allocate(&self) -> PageId {
        let mut pf = lock(&self.file);
        pf.next_page += 1;
        pf.next_page - 1
    }

    fn read(&self, id: PageId) -> StorageResult<Page> {
        let mut pf = lock(&self.file);
        if id >= pf.next_page {
            return Err(StorageError::PageNotFound(id));
        }
        let offset = id * PAGE_SIZE as u64;
        let file_len = pf.file.metadata()?.len();
        if offset >= file_len {
            // Allocated but never written.
            return Ok(Page::new());
        }
        pf.file.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; PAGE_SIZE];
        pf.file.read_exact(&mut buf)?;
        Page::from_bytes(id, &buf)
    }

    fn write(&self, id: PageId, page: &Page) -> StorageResult<()> {
        let mut pf = lock(&self.file);
        if id >= pf.next_page {
            return Err(StorageError::PageNotFound(id));
        }
        pf.file.seek(SeekFrom::Start(id * PAGE_SIZE as u64))?;
        pf.file.write_all(page.bytes().as_slice())?;
        Ok(())
    }

    fn num_pages(&self) -> u64 {
        lock(&self.file).next_page
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(disk: &dyn DiskManager) {
        let id0 = disk.allocate();
        let id1 = disk.allocate();
        assert_ne!(id0, id1);
        assert_eq!(disk.num_pages(), 2);

        let mut p = Page::new();
        p.insert(b"record one").unwrap();
        disk.write(id0, &p).unwrap();

        let back = disk.read(id0).unwrap();
        assert_eq!(back.get(0), Some(&b"record one"[..]));

        // Allocated-but-unwritten pages read as empty.
        let empty = disk.read(id1).unwrap();
        assert_eq!(empty.slot_count(), 0);

        // Out-of-range access fails.
        assert!(disk.read(999).is_err());
        assert!(disk.write(999, &p).is_err());
    }

    #[test]
    fn in_memory_roundtrip() {
        roundtrip(&InMemoryDisk::new());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("fuzzydedup-disk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.db");
        roundtrip(&FileDisk::create(&path).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_reopen_preserves_pages() {
        let dir = std::env::temp_dir().join(format!("fuzzydedup-disk2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reopen.db");
        {
            let disk = FileDisk::create(&path).unwrap();
            let id = disk.allocate();
            let mut p = Page::new();
            p.insert(b"durable").unwrap();
            disk.write(id, &p).unwrap();
        }
        {
            let disk = FileDisk::open(&path).unwrap();
            assert_eq!(disk.num_pages(), 1);
            let p = disk.read(0).unwrap();
            assert_eq!(p.get(0), Some(&b"durable"[..]));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_clones_do_not_alias() {
        let disk = InMemoryDisk::new();
        let id = disk.allocate();
        let mut p = Page::new();
        p.insert(b"v1").unwrap();
        disk.write(id, &p).unwrap();
        let mut copy = disk.read(id).unwrap();
        copy.insert(b"local only").unwrap();
        let fresh = disk.read(id).unwrap();
        assert_eq!(fresh.slot_count(), 1, "mutating a read copy must not leak to disk");
    }
}
