#![warn(missing_docs)]

//! Typed relations over the paged storage engine.
//!
//! The paper's Phase 2 runs "standard SQL queries" against the database
//! server: a `SELECT INTO` self-join building the `CSPairs` relation, and a
//! `SELECT * FROM CSPairs ORDER BY ID` grouping query. This crate is the
//! substrate those queries run on in our reproduction: a small, typed
//! relational layer with
//!
//! * [`value::Value`] — typed values including the neighbor lists the
//!   algorithm materializes;
//! * [`schema::Schema`] — named, typed columns;
//! * [`tuple::Tuple`] — records encodable to page bytes;
//! * [`table::Table`] — heap-file-backed relations with pull-based scans;
//! * [`sort`] — external merge sort (bounded-memory runs + k-way merge),
//!   the engine behind `ORDER BY`;
//! * [`group`] — sorted-input grouping, the engine behind the CS-group
//!   query;
//! * [`join`] — hash equi-join, the engine behind the CSPairs self-join.
//!
//! Everything is deliberately minimal — this is not a general query engine,
//! it is the exact operator set Phase 2 needs, built honestly on pages and
//! the buffer pool so that I/O behaviour is measurable.

pub mod error;
pub mod group;
pub mod join;
pub mod schema;
pub mod sort;
pub mod table;
pub mod tuple;
pub mod value;

pub use error::{RelationError, RelationResult};
pub use group::group_sorted;
pub use join::hash_join;
pub use schema::{Column, ColumnType, Schema};
pub use sort::{external_sort, SortConfig};
pub use table::{Table, TupleIter};
pub use tuple::Tuple;
pub use value::{Neighbor, Value};
