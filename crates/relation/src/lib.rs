#![warn(missing_docs)]

//! The two page operators the relational Phase 2 runs on, and [`Neighbor`].
//!
//! The paper's Phase 2 is two "standard SQL queries" against the database
//! server: a `SELECT INTO` self-join that builds `CSPairs`, and
//! `SELECT * FROM CSPairs ORDER BY ID`. The plan is fixed and so are its
//! three record layouts (`fuzzydedup_core::phase2`), so what it needs from
//! a substrate is not a typed engine but two operators over the byte
//! records of [`HeapFile`](fuzzydedup_storage::HeapFile)s, each taking the
//! caller's decoder for the part of a record it must understand:
//!
//! * [`hash_join`] — build + probe equi-join, the engine behind the
//!   `CSPairs` self-join;
//! * [`external_sort`] — bounded runs on the input's buffer pool and a
//!   k-way merge, the engine behind `ORDER BY`.
//!
//! A record its decoder rejects is a
//! [`StorageError::CorruptPage`](fuzzydedup_storage::StorageError) naming
//! the page it sits on; all I/O flows through the instrumented pool.

pub mod join;
pub mod sort;

pub use join::hash_join;
pub use sort::{external_sort, external_sort_in_runs};

/// One entry of an `NN-List`: a neighbor's tuple id and its distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Neighboring tuple's identifier.
    pub id: u32,
    /// Distance from the list's owner to this neighbor.
    pub dist: f64,
}

impl Neighbor {
    /// Construct a neighbor entry.
    pub fn new(id: u32, dist: f64) -> Self {
        Self { id, dist }
    }
}
