#![warn(missing_docs)]

//! Robust identification of fuzzy duplicates — the DE framework.
//!
//! This crate implements the contribution of Chaudhuri, Ganti & Motwani,
//! *Robust Identification of Fuzzy Duplicates* (ICDE 2005):
//!
//! * the **compact set (CS)** and **sparse neighborhood (SN)** criteria
//!   characterizing groups of duplicates ([`criteria`]);
//! * the **duplicate elimination problem** `DE_S(K)` / `DE_D(θ)`:
//!   partition a relation into the minimum number of compact SN groups
//!   subject to a size or diameter cut ([`problem`]);
//! * the scalable **two-phase algorithm**: nearest-neighbor-list
//!   materialization with breadth-first lookups ([`phase1`]), then
//!   CSPairs construction and partitioning ([`phase2`]), both in a direct
//!   in-memory form and in the paper's SQL-shaped form — one join and one
//!   external sort (`fuzzydedup-relation`) over heap-file pages;
//! * the **single-linkage global-threshold baseline** the paper compares
//!   against ([`baseline`]);
//! * **precision/recall evaluation** against gold clusterings ([`eval`]);
//! * the **SN-threshold estimation heuristic** of §4.4 ([`threshold`]);
//! * the §4.5.2 extension: minimality of compact sets ([`minimality`]).
//!
//! The axiomatic properties of §3.1 (Lemmas 1–4) are properties of `DE`
//! itself; they are checked once, in the workspace's
//! `tests/axioms_property.rs`, against the paper's definitions
//! (`fuzzydedup-reference`). The §4.5.1 negative constraining predicates
//! are not implemented (DESIGN.md §9).
//!
//! The whole framework is generic over the distance source: either a
//! string-record corpus with a [`fuzzydedup_textdist::Distance`] function
//! (via the nearest-neighbor indexes of `fuzzydedup-nnindex`), or an
//! explicit distance matrix ([`matrix::MatrixIndex`]) for numeric examples
//! and tests.
//!
//! The entry point is the [`pipeline::Deduplicator`] facade:
//!
//! ```no_run
//! use fuzzydedup_core::{DedupConfig, Deduplicator, Parallelism};
//! use fuzzydedup_textdist::DistanceKind;
//!
//! let records: Vec<Vec<String>> = vec![/* ... */];
//! let outcome = Deduplicator::new(
//!     DedupConfig::new(DistanceKind::FuzzyMatch).parallelism(Parallelism::threads(0)),
//! )
//! .run_records(&records)
//! .unwrap();
//! ```

pub mod baseline;
pub mod collapse;
pub mod components;
pub mod criteria;
pub mod eval;
pub mod incremental;
pub mod matrix;
pub mod minimality;
pub mod nnreln;
pub mod parallel;
pub mod partition;
pub mod phase1;
pub mod phase2;
pub mod pipeline;
pub mod problem;
pub mod report;
pub mod service;
pub mod spill;
pub mod threshold;

pub use baseline::single_linkage;
pub use collapse::{CollapseKey, CollapseMap};
pub use components::{balance_components, UnionFind};
pub use criteria::{is_compact_set, sparse_neighborhood_ok, Aggregation};
pub use eval::{evaluate, PrecisionRecall};
pub use incremental::{BatchStats, IncrementalDedup, IncrementalDedupBuilder};
pub use matrix::MatrixIndex;
pub use nnreln::{NnEntry, NnReln};
pub use parallel::{compute_nn_reln_parallel, resolve_threads};
pub use partition::Partition;
pub use phase1::{compute_nn_reln, NeighborSpec, Phase1Stats};
pub use phase2::{
    cs_pair_components, partition_entries, partition_entries_ablation, partition_entries_parallel,
    partition_via_tables,
};
pub use pipeline::{DedupConfig, DedupError, DedupOutcome, Deduplicator, IndexChoice, Parallelism};
pub use problem::CutSpec;
pub use report::render_report;
pub use service::{DedupService, QueryAnswer, ServiceConfig, ServiceError, ServiceStats};
pub use spill::{read_nn_reln, spill_nn_reln};
pub use threshold::estimate_sn_threshold;
