#![warn(missing_docs)]

//! # fuzzydedup
//!
//! A Rust reproduction of **"Robust Identification of Fuzzy Duplicates"**
//! (Surajit Chaudhuri, Venkatesh Ganti, Rajeev Motwani — ICDE 2005).
//!
//! This facade crate re-exports the workspace's sub-crates under stable
//! module names:
//!
//! * [`textdist`] — the paper's two distance functions, edit distance
//!   and fuzzy match similarity;
//! * [`storage`] — paged storage engine with an instrumented buffer pool
//!   (the stand-in for the paper's SQL Server backend);
//! * [`relation`] — the `Neighbor` row type and the two page operators the
//!   relational Phase 2 runs on: a hash equi-join and an external sort
//!   over heap-file byte records;
//! * [`nnindex`] — nearest-neighbor indexes (IDF-weighted inverted q-gram
//!   index on buffer-pool pages, exact nested-loop reference) and the
//!   breadth-first lookup ordering of §4.1.1;
//! * [`core`] — the paper's contribution: compact-set / sparse-neighborhood
//!   criteria, the `DE_S(K)` / `DE_D(θ)` problems, the two-phase algorithm,
//!   the single-linkage baseline, evaluation metrics, the SN-threshold
//!   heuristic and the §4.5.2 minimality post-pass;
//! * [`datagen`] — gold-labelled synthetic dataset generators standing in
//!   for the paper's Media/Org warehouses and the Riddle repository
//!   datasets;
//! * [`metrics`] — the run-metrics observability layer: per-thread tallies
//!   every layer counts into, scoped by the entry point, and the
//!   [`metrics::RunMetrics`] summary of each [`core::DedupOutcome`].
//!
//! ## Quickstart
//!
//! ```
//! use fuzzydedup::core::{DedupConfig, CutSpec, Aggregation, Deduplicator};
//! use fuzzydedup::textdist::DistanceKind;
//!
//! let records: Vec<Vec<String>> = [
//!     ["The Doors", "LA Woman"],
//!     ["Doors", "LA Woman"],
//!     ["Shania Twain", "Im Holdin on to Love"],
//!     ["Twian, Shania", "I'm Holding On To Love"],
//!     ["Aaliyah", "Are You Ready"],
//!     ["AC DC", "Are You Ready"],
//!     ["Bob Dylan", "Are You Ready"],
//!     ["Creed", "Are You Ready"],
//! ]
//! .iter()
//! .map(|r| r.iter().map(|s| s.to_string()).collect())
//! .collect();
//!
//! let config = DedupConfig::new(DistanceKind::FuzzyMatch)
//!     .cut(CutSpec::Size(5))
//!     .aggregation(Aggregation::Max)
//!     .sn_threshold(4.0);
//! let outcome = Deduplicator::new(config).run_records(&records).unwrap();
//! let partition = &outcome.partition;
//! // The two Doors tracks and the two Shania Twain tracks pair up, while
//! // the four distinct "Are You Ready" tracks keep their dense
//! // neighborhood apart — the sparse-neighborhood criterion at work.
//! assert!(partition.are_together(0, 1));
//! assert!(partition.are_together(2, 3));
//! assert!(!partition.are_together(4, 5));
//! assert!(!partition.are_together(6, 7));
//! ```

pub use fuzzydedup_core as core;
pub use fuzzydedup_datagen as datagen;
pub use fuzzydedup_metrics as metrics;
pub use fuzzydedup_nnindex as nnindex;
pub use fuzzydedup_relation as relation;
pub use fuzzydedup_storage as storage;
pub use fuzzydedup_textdist as textdist;
