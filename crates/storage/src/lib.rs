#![warn(missing_docs)]

//! Paged storage engine with an instrumented buffer pool.
//!
//! The ICDE 2005 paper runs as a client of Microsoft SQL Server: the
//! nearest-neighbor index pages live in the *database buffer*, and the
//! paper's Figure 8 measures how the breadth-first lookup order improves the
//! **buffer hit ratio**, processor usage, and lookup throughput at different
//! buffer memory sizes (32/64/128 MB). This crate is our substitute for
//! that backend (see `DESIGN.md` §4): a faithful page/buffer-pool/heap-file
//! stack whose buffer pool counts hits, misses, and evictions, so the same
//! experiment can be regenerated deterministically.
//!
//! Components:
//!
//! * [`page`] — fixed-size pages with a slotted record layout;
//! * [`disk`] — [`disk::DiskManager`] trait with in-memory and file-backed
//!   implementations (reads/writes whole pages);
//! * [`buffer`] — [`buffer::BufferPool`] with LRU replacement, pin counts,
//!   dirty tracking, and [`buffer::BufferStats`];
//! * [`heap`] — [`heap::HeapFile`], an unordered record file over the
//!   buffer pool with stable [`heap::RecordId`]s and full-scan iteration.

pub mod buffer;
pub mod disk;
pub mod error;
pub mod heap;
pub mod page;

pub use buffer::{BufferPool, BufferPoolConfig, BufferStats};
pub use disk::{DiskManager, FileDisk, InMemoryDisk};
pub use error::{StorageError, StorageResult};
pub use heap::{HeapFile, RecordId};
pub use page::{Page, PageId, PAGE_SIZE};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Take `mutex` whether or not a panic poisoned it, so that a page closure
/// that panics under the pool latch does not take the latch with it. The
/// other locks here are held only for plain reads, pushes and whole-page
/// copies.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
