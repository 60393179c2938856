//! Buffer pool: fixed set of page frames with replacement and statistics.
//!
//! The pool is the centerpiece of the Figure-8 reproduction: the paper's
//! breadth-first lookup order wins *because* consecutive nearest-neighbor
//! lookups touch the same index pages, raising the database buffer hit
//! ratio. [`BufferStats`] exposes hits, misses, evictions and dirty
//! write-backs; the experiment drivers derive "buffer hit ratio",
//! "processor usage" (useful-work fraction under a fixed page-miss stall
//! cost) and lookup throughput from them.
//!
//! Access is closure-based ([`BufferPool::with_page`] /
//! [`BufferPool::with_page_mut`]) and the pool latch is held across the
//! closure, so no other access can evict a page while a closure reads it:
//! there are no pins, and a closure that panics leaves nothing held. Every
//! frame is therefore evictable, and replacement takes the LRU head (via
//! an ordered recency index, `O(log n)` per access): every pool an entry
//! point, workload or experiment builds runs it, and Figure 8's committed
//! hit ratios are LRU's.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use crate::disk::DiskManager;
use crate::error::StorageResult;
use crate::lock;
use crate::page::{Page, PageId};

/// Buffer pool configuration.
#[derive(Debug, Clone)]
pub struct BufferPoolConfig {
    /// Number of page frames.
    pub capacity: usize,
}

impl BufferPoolConfig {
    /// Capacity in frames (minimum one; a frame holds one
    /// [`crate::PAGE_SIZE`] page, so the paper's "32MB" buffer is 4096 frames).
    pub fn with_capacity(frames: usize) -> Self {
        Self { capacity: frames.max(1) }
    }
}

/// Cumulative buffer pool statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Page requests served from a resident frame.
    pub hits: u64,
    /// Page requests that required a disk read.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Dirty frames written back to disk on eviction or flush.
    pub writebacks: u64,
}

impl BufferStats {
    /// Total page requests.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit ratio in `[0, 1]`; `0` when no accesses were made.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Frame {
    page_id: Option<PageId>,
    page: Page,
    dirty: bool,
    /// LRU recency tick (key into `lru_index`).
    tick: u64,
}

struct Inner {
    frames: Vec<Frame>,
    /// Frames holding no page: never filled, or emptied by a failed load.
    free: Vec<usize>,
    page_table: HashMap<PageId, usize>,
    /// tick -> frame index, for O(log n) LRU victim selection.
    lru_index: BTreeMap<u64, usize>,
    next_tick: u64,
    /// Counted under the latch that serializes the accesses they count.
    stats: BufferStats,
}

/// A fixed-capacity pool of page frames over a [`DiskManager`].
pub struct BufferPool {
    disk: Arc<dyn DiskManager>,
    inner: Mutex<Inner>,
    capacity: usize,
}

impl BufferPool {
    /// Create a pool over a disk manager, with at least one frame.
    pub fn new(config: BufferPoolConfig, disk: Arc<dyn DiskManager>) -> Self {
        let capacity = config.capacity.max(1);
        let frames = (0..capacity)
            .map(|_| Frame { page_id: None, page: Page::new(), dirty: false, tick: 0 })
            .collect();
        Self {
            disk,
            inner: Mutex::new(Inner {
                frames,
                free: (0..capacity).rev().collect(),
                page_table: HashMap::new(),
                lru_index: BTreeMap::new(),
                next_tick: 1,
                stats: BufferStats::default(),
            }),
            capacity,
        }
    }

    /// The underlying disk manager.
    pub fn disk(&self) -> &Arc<dyn DiskManager> {
        &self.disk
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Allocate a fresh page on the backing disk.
    pub fn allocate_page(&self) -> PageId {
        self.disk.allocate()
    }

    /// Snapshot of the cumulative statistics.
    pub fn stats(&self) -> BufferStats {
        lock(&self.inner).stats
    }

    /// Reset the statistics (frame contents are untouched), e.g. between a
    /// warm-up phase and a measured phase.
    pub fn reset_stats(&self) {
        lock(&self.inner).stats = BufferStats::default();
    }

    /// Run `f` with shared access to a page.
    ///
    /// The pool latch is held while `f` runs, which is what keeps the page
    /// resident: `f` must not call back into this pool (use
    /// [`crate::heap::HeapFile::scan`]-style copy-out when a visitor needs
    /// to perform further storage operations). All consumers in this
    /// workspace perform short, CPU-only work inside the closure.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&Page) -> R) -> StorageResult<R> {
        let mut inner = lock(&self.inner);
        let idx = self.fetch(&mut inner, id)?;
        Ok(f(&inner.frames[idx].page))
    }

    /// Run `f` with exclusive access to a page, marking it dirty.
    pub fn with_page_mut<R>(&self, id: PageId, f: impl FnOnce(&mut Page) -> R) -> StorageResult<R> {
        let mut inner = lock(&self.inner);
        let idx = self.fetch(&mut inner, id)?;
        inner.frames[idx].dirty = true;
        Ok(f(&mut inner.frames[idx].page))
    }

    /// Write all dirty frames back to disk.
    pub fn flush_all(&self) -> StorageResult<()> {
        let mut inner = lock(&self.inner);
        for idx in 0..inner.frames.len() {
            if inner.frames[idx].dirty {
                if let Some(pid) = inner.frames[idx].page_id {
                    self.disk.write(pid, &inner.frames[idx].page)?;
                    inner.stats.writebacks += 1;
                    inner.frames[idx].dirty = false;
                }
            }
        }
        Ok(())
    }

    /// Number of currently resident pages.
    pub fn resident_pages(&self) -> usize {
        lock(&self.inner).page_table.len()
    }

    fn fetch(&self, inner: &mut Inner, id: PageId) -> StorageResult<usize> {
        if let Some(&idx) = inner.page_table.get(&id) {
            inner.stats.hits += 1;
            inner.touch(idx);
            return Ok(idx);
        }
        inner.stats.misses += 1;
        let idx = inner.find_victim();
        let loaded = self.load(inner, idx, id);
        if loaded.is_err() {
            // The frame lost its page and got none: the next miss fills it.
            inner.free.push(idx);
        }
        loaded.map(|()| idx)
    }

    /// Evict frame `idx`'s page (written back if dirty) and read page `id`
    /// into it.
    fn load(&self, inner: &mut Inner, idx: usize, id: PageId) -> StorageResult<()> {
        if let Some(old_id) = inner.frames[idx].page_id.take() {
            inner.page_table.remove(&old_id);
            inner.stats.evictions += 1;
            if inner.frames[idx].dirty {
                self.disk.write(old_id, &inner.frames[idx].page)?;
                inner.stats.writebacks += 1;
            }
        }
        let page = self.disk.read(id)?;
        let frame = &mut inner.frames[idx];
        frame.page = page;
        frame.page_id = Some(id);
        frame.dirty = false;
        inner.page_table.insert(id, idx);
        inner.touch(idx);
        Ok(())
    }
}

impl Inner {
    /// Mark frame `idx` most recently used.
    fn touch(&mut self, idx: usize) {
        let old_tick = self.frames[idx].tick;
        if old_tick != 0 {
            self.lru_index.remove(&old_tick);
        }
        let tick = self.next_tick;
        self.next_tick += 1;
        self.frames[idx].tick = tick;
        self.lru_index.insert(tick, idx);
    }

    /// A frame holding no page if there is one, else the least recently
    /// used, taken out of the recency index.
    fn find_victim(&mut self) -> usize {
        if let Some(idx) = self.free.pop() {
            return idx;
        }
        // Every frame is free or resident, and a pool has one at least.
        let (_, idx) = self.lru_index.pop_first().expect("no free frame, so one is resident");
        self.frames[idx].tick = 0;
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::InMemoryDisk;

    fn pool(capacity: usize) -> BufferPool {
        BufferPool::new(BufferPoolConfig::with_capacity(capacity), Arc::new(InMemoryDisk::new()))
    }

    fn write_marker(pool: &BufferPool, id: PageId, marker: u8) {
        pool.with_page_mut(id, |p| {
            p.insert(&[marker]).unwrap();
        })
        .unwrap();
    }

    fn read_marker(pool: &BufferPool, id: PageId) -> u8 {
        pool.with_page(id, |p| p.get(0).unwrap()[0]).unwrap()
    }

    #[test]
    fn pages_survive_eviction() {
        let pool = pool(2);
        let ids: Vec<PageId> = (0..5).map(|_| pool.allocate_page()).collect();
        for (i, &id) in ids.iter().enumerate() {
            write_marker(&pool, id, i as u8);
        }
        // Only 2 frames: earlier pages were evicted and written back.
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(read_marker(&pool, id), i as u8);
        }
        let stats = pool.stats();
        assert!(stats.evictions > 0);
        assert!(stats.writebacks > 0);
    }

    #[test]
    fn hit_when_resident() {
        let pool = pool(4);
        let id = pool.allocate_page();
        write_marker(&pool, id, 1);
        pool.reset_stats();
        for _ in 0..10 {
            read_marker(&pool, id);
        }
        let stats = pool.stats();
        assert_eq!(stats.hits, 10);
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.hit_ratio(), 1.0);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let pool = pool(2);
        let a = pool.allocate_page();
        let b = pool.allocate_page();
        let c = pool.allocate_page();
        write_marker(&pool, a, 0);
        write_marker(&pool, b, 1);
        read_marker(&pool, a); // a is now the most recent
        write_marker(&pool, c, 2); // evicts b
        pool.reset_stats();
        read_marker(&pool, a);
        read_marker(&pool, c);
        let stats = pool.stats();
        assert_eq!(stats.misses, 0, "a and c should be resident");
        read_marker(&pool, b);
        assert_eq!(pool.stats().misses, 1, "b was the LRU victim");
    }

    #[test]
    fn locality_beats_random_access() {
        // The core phenomenon behind Figure 8: sequentially-local access
        // patterns enjoy a far higher hit ratio than scattered ones.
        let pool_local = pool(8);
        let ids: Vec<PageId> = (0..64).map(|_| pool_local.allocate_page()).collect();
        for &id in &ids {
            write_marker(&pool_local, id, 0);
        }
        pool_local.reset_stats();
        // Local: dwell on a window of 4 pages at a time.
        for w in ids.chunks(4) {
            for _ in 0..8 {
                for &id in w {
                    read_marker(&pool_local, id);
                }
            }
        }
        let local_ratio = pool_local.stats().hit_ratio();

        let pool_rand = pool(8);
        let ids2: Vec<PageId> = (0..64).map(|_| pool_rand.allocate_page()).collect();
        for &id in &ids2 {
            write_marker(&pool_rand, id, 0);
        }
        pool_rand.reset_stats();
        // Scattered: stride through all pages repeatedly.
        for round in 0..32 {
            for (i, _) in ids2.iter().enumerate() {
                let id = ids2[(i * 17 + round * 7) % ids2.len()];
                read_marker(&pool_rand, id);
            }
        }
        let rand_ratio = pool_rand.stats().hit_ratio();
        assert!(
            local_ratio > rand_ratio + 0.2,
            "local {local_ratio:.3} should beat random {rand_ratio:.3}"
        );
    }

    #[test]
    fn flush_all_persists_dirty_pages() {
        let disk = Arc::new(InMemoryDisk::new());
        let pool = BufferPool::new(BufferPoolConfig::with_capacity(4), disk.clone());
        let id = pool.allocate_page();
        write_marker(&pool, id, 42);
        assert_eq!(pool.stats().writebacks, 0, "write should be buffered");
        assert_eq!(disk.read(id).unwrap().slot_count(), 0, "the disk holds no write yet");
        pool.flush_all().unwrap();
        assert_eq!(pool.stats().writebacks, 1);
        // Direct disk read sees the flushed content.
        let p = disk.read(id).unwrap();
        assert_eq!(p.get(0), Some(&[42u8][..]));
        // Flushing again is a no-op (page now clean).
        pool.flush_all().unwrap();
        assert_eq!(pool.stats().writebacks, 1);
    }

    #[test]
    fn a_panicking_page_closure_does_not_poison_the_latch() {
        let pool = pool(2);
        let id = pool.allocate_page();
        write_marker(&pool, id, 7);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.with_page(id, |_| panic!("page closure panic"))
        }));
        assert!(unwound.is_err());
        assert_eq!(read_marker(&pool, id), 7, "the latch is taken again, not poisoned");
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn a_panicking_page_closure_leaves_a_one_frame_pool_usable() {
        // The one frame holds `a` when its closure unwinds; the next miss
        // must still be able to evict it.
        let pool = pool(1);
        let a = pool.allocate_page();
        let b = pool.allocate_page();
        write_marker(&pool, a, 1);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.with_page(a, |_| panic!("page closure panic"))
        }));
        assert!(unwound.is_err());
        write_marker(&pool, b, 2);
        assert_eq!(read_marker(&pool, b), 2);
        assert_eq!(read_marker(&pool, a), 1);
    }

    #[test]
    fn a_failed_read_leaves_its_frame_usable() {
        let pool = pool(1);
        let a = pool.allocate_page();
        write_marker(&pool, a, 3);
        assert!(pool.with_page(u64::MAX, |_| ()).is_err());
        assert_eq!(pool.resident_pages(), 0, "the miss evicted `a` and loaded nothing");
        assert_eq!(read_marker(&pool, a), 3, "`a` was written back, and the frame refills");
    }

    #[test]
    fn capacity_one_pool_works() {
        let pool = pool(1);
        let a = pool.allocate_page();
        let b = pool.allocate_page();
        write_marker(&pool, a, 1);
        write_marker(&pool, b, 2);
        assert_eq!(read_marker(&pool, a), 1);
        assert_eq!(read_marker(&pool, b), 2);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let pool = pool(2);
        let id = pool.allocate_page();
        write_marker(&pool, id, 0);
        assert!(pool.stats().accesses() > 0);
        pool.reset_stats();
        assert_eq!(pool.stats(), BufferStats::default());
        assert_eq!(BufferStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn resident_pages_tracks_occupancy() {
        let pool = pool(4);
        assert_eq!(pool.resident_pages(), 0);
        let ids: Vec<PageId> = (0..6).map(|_| pool.allocate_page()).collect();
        for &id in &ids {
            write_marker(&pool, id, 0);
        }
        assert_eq!(pool.resident_pages(), 4, "occupancy capped at capacity");
    }
}
