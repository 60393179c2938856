//! End-to-end duplicate elimination pipeline.
//!
//! Mirrors the paper's architecture (Figure 3): a client driving
//! (1) the nearest-neighbor computation phase against an NN index whose
//! pages live in the database buffer, and (2) the partitioning phase
//! running as relational queries. [`Deduplicator`] is the single entry
//! point: construct it with a [`DedupConfig`], then
//! [`Deduplicator::run_records`] deduplicates string records, building the
//! distance function and the configured index. (Over a pre-built
//! [`NnIndex`], e.g. a [`crate::matrix::MatrixIndex`], call
//! [`crate::phase1::compute_nn_reln`] and [`crate::phase2::partition_entries`]
//! directly.)
//!
//! Both phases scale over threads through one [`Parallelism`] count:
//! Phase 1 shards the id space ([`crate::parallel`]), Phase 2 processes
//! CS-pair components concurrently
//! ([`crate::phase2::partition_entries_parallel`]); either way results are
//! bit-for-bit identical to the one-thread drive.

use std::sync::Arc;
use std::time::Instant;

use fuzzydedup_metrics::{
    CollapseMetrics, Phase1Metrics, RunMetrics, StageTimings, StorageMetrics,
};
use fuzzydedup_nnindex::{
    InvertedIndex, InvertedIndexConfig, LookupOrder, NestedLoopIndex, NnIndex, PostingsSource,
};
use fuzzydedup_storage::{BufferPool, BufferPoolConfig, BufferStats, InMemoryDisk, StorageError};
use fuzzydedup_textdist::DistanceKind;

use crate::collapse::{CollapseKey, CollapseMap};
use crate::criteria::Aggregation;
use crate::minimality::enforce_minimality;
use crate::nnreln::NnReln;
use crate::parallel::resolve_threads;
use crate::partition::Partition;
use crate::phase1::{NeighborSpec, Phase1Stats};
use crate::phase2::{partition_entries_parallel, partition_via_tables};
use crate::problem::CutSpec;

/// Which nearest-neighbor index Phase 1 uses.
#[derive(Debug, Clone)]
pub enum IndexChoice {
    /// IDF-weighted inverted q-gram/token index over buffer-pool pages
    /// (the paper's assumed probabilistic index).
    Inverted(InvertedIndexConfig),
    /// Exact nested-loop scan (the paper's stated fallback).
    NestedLoop,
}

impl Default for IndexChoice {
    fn default() -> Self {
        IndexChoice::Inverted(InvertedIndexConfig::default())
    }
}

/// The worker-thread count of both phases — the one knob driving every
/// parallel path of the pipeline. `1` (the default) is the ordered drive:
/// Phase 1 looks tuples up one after another, breadth-first exactly when
/// the index's postings are paged (see [`DedupConfig::new`]), and Phase 2
/// runs the component path on one worker. `n ≥ 2` shards both phases over
/// `n` workers and `0` over one per available CPU. Every drive produces
/// identical results, so this is purely a performance knob. The relational
/// Phase 2 ([`DedupConfig::via_tables`]) stays on one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Worker threads of both phases (`0` = all CPUs, `1` = ordered).
    pub threads: usize,
}

impl Parallelism {
    /// Both phases on `n` worker threads (`0` = all CPUs, `1` = the ordered
    /// drive).
    pub fn threads(n: usize) -> Self {
        Self { threads: n }
    }
}

/// Configuration of a deduplication run. Construct with
/// [`DedupConfig::new`] and refine with the builder methods.
#[derive(Debug, Clone)]
pub struct DedupConfig {
    /// Distance function.
    pub distance: DistanceKind,
    /// Cut specification (`DE_S(K)` / `DE_D(θ)` / both / none).
    pub cut: CutSpec,
    /// SN aggregation function.
    pub agg: Aggregation,
    /// SN threshold `c` (use [`crate::threshold::estimate_sn_threshold`]
    /// to derive it from a duplicate-fraction estimate).
    pub c: f64,
    /// Neighborhood-growth multiplier `p` (the paper fixes 2).
    pub p: f64,
    /// Index choice.
    pub index: IndexChoice,
    /// Apply the §4.5.2 minimality post-pass.
    pub minimality: bool,
    /// Run Phase 2 through the relational substrate (the paper's SQL
    /// shape) instead of the in-memory fast path. Both produce identical
    /// partitions.
    pub via_tables: bool,
    /// Buffer-pool frames for index pages and Phase-2 tables.
    pub buffer_frames: usize,
    /// Worker threads of both phases. Results are identical at any count
    /// — see [`crate::parallel`] and
    /// [`crate::phase2::partition_entries_parallel`]; the one-thread
    /// drive's lookup order only matters for paged postings, and follows
    /// them (see [`DedupConfig::new`]).
    pub parallelism: Parallelism,
    /// Spill `NN_Reln` through heap-file storage once the relation holds
    /// at least this many tuples; `0` (the default) keeps it purely in
    /// memory. Spilled pages flow through the run's buffer pool, but the
    /// round trip bounds no memory today: the relation is built whole
    /// before the write and read back whole before Phase 2 (see
    /// [`crate::spill`]; ROADMAP items 7(c) and 13). It is bit-exact —
    /// results are identical either way.
    pub spill_threshold: usize,
    /// Collapse exact duplicates into weighted representatives before
    /// Phase 1 and expand the `NN_Reln` back afterwards (DESIGN.md §7.10);
    /// `None` (the default) disables the pass. The expanded partition is
    /// bit-identical to the collapse-off run — this is purely a
    /// performance lever for duplicate-heavy corpora.
    pub collapse: Option<CollapseKey>,
}

impl DedupConfig {
    /// Defaults: `DE_S(5)`, `Max` aggregation, `c = 4`, `p = 2`, inverted
    /// index, 4096 buffer frames (32 MB), both phases on one thread.
    ///
    /// The one-thread Phase-1 lookup order is not a setting: it is
    /// breadth-first (§4.1.1) iff the index is an inverted index with
    /// [`PostingsSource::Pages`] — the regime where consecutive lookups of
    /// neighboring tuples reuse buffered postings pages (55 % vs 35 % hit
    /// ratio, `BENCH_bf_ordering.json`) — and id order otherwise, where
    /// nothing is paged and the BF queue is pure overhead (5.25 s vs
    /// 4.59 s on 10k Org records when PR 14 removed the knob). The
    /// partition is the same either way.
    pub fn new(distance: DistanceKind) -> Self {
        Self {
            distance,
            cut: CutSpec::Size(5),
            agg: Aggregation::Max,
            c: 4.0,
            p: 2.0,
            index: IndexChoice::default(),
            minimality: false,
            via_tables: false,
            buffer_frames: 4096,
            parallelism: Parallelism::threads(1),
            spill_threshold: 0,
            collapse: None,
        }
    }

    /// Set the cut specification.
    pub fn cut(mut self, cut: CutSpec) -> Self {
        self.cut = cut;
        self
    }

    /// Set the SN aggregation function.
    pub fn aggregation(mut self, agg: Aggregation) -> Self {
        self.agg = agg;
        self
    }

    /// Set the SN threshold `c`.
    pub fn sn_threshold(mut self, c: f64) -> Self {
        self.c = c;
        self
    }

    /// Set the growth multiplier `p`.
    pub fn growth_multiplier(mut self, p: f64) -> Self {
        self.p = p;
        self
    }

    /// Choose the NN index.
    pub fn index_choice(mut self, index: IndexChoice) -> Self {
        self.index = index;
        self
    }

    /// Enable/disable the minimality post-pass.
    pub fn minimality(mut self, on: bool) -> Self {
        self.minimality = on;
        self
    }

    /// Route Phase 2 through the relational substrate.
    pub fn via_tables(mut self, on: bool) -> Self {
        self.via_tables = on;
        self
    }

    /// Set the buffer-pool size in frames (8 KiB each).
    pub fn buffer_frames(mut self, frames: usize) -> Self {
        self.buffer_frames = frames.max(1);
        self
    }

    /// Set the worker-thread count of both phases.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Spill `NN_Reln` to heap-file storage when the relation holds at
    /// least `tuples` entries (`0` disables).
    pub fn spill_threshold(mut self, tuples: usize) -> Self {
        self.spill_threshold = tuples;
        self
    }

    /// Enable/disable the exact-duplicate collapse pre-pass
    /// (`None` disables; see [`DedupConfig::collapse`]).
    pub fn collapse(mut self, key: Option<CollapseKey>) -> Self {
        self.collapse = key;
        self
    }
}

/// Errors from a deduplication run.
///
/// Layer failures are wrapped as typed variants whose causes are reachable
/// through [`std::error::Error::source`] — walk the chain for the full
/// story instead of parsing strings. The enum is `#[non_exhaustive]`:
/// future pipeline layers may add variants without a breaking change, so
/// downstream `match`es need a wildcard arm.
#[derive(Debug)]
#[non_exhaustive]
pub enum DedupError {
    /// The configuration is invalid (bad cut parameters, `p < 1`, ...).
    InvalidConfig(String),
    /// A storage-layer failure: the buffer pool or disk manager under the
    /// index, the `NN_Reln` spill or the relational Phase 2, or a page
    /// record that does not decode.
    Storage(StorageError),
}

impl std::fmt::Display for DedupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidConfig(why) => write!(f, "invalid configuration: {why}"),
            Self::Storage(_) => write!(f, "storage layer failed"),
        }
    }
}

impl std::error::Error for DedupError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::InvalidConfig(_) => None,
            Self::Storage(e) => Some(e),
        }
    }
}

impl From<StorageError> for DedupError {
    fn from(e: StorageError) -> Self {
        Self::Storage(e)
    }
}

/// Everything a run produces: the partition plus the intermediate state
/// and instrumentation the experiments consume.
#[derive(Debug)]
pub struct DedupOutcome {
    /// The computed partition (after any post-passes).
    pub partition: Partition,
    /// The materialized `NN_Reln` (reusable, e.g. for threshold
    /// re-estimation — "the SN threshold value is not required until the
    /// second partitioning phase").
    pub nn_reln: NnReln,
    /// Phase-1 statistics (lookup count, visit order).
    pub phase1_stats: Phase1Stats,
    /// Buffer-pool statistics accumulated during Phase 1 (index lookups);
    /// zeroed when the index does not use the pool.
    pub buffer_stats: BufferStats,
    /// The unified run-metrics surface: per-layer counters (distance
    /// evaluations, index traffic, Phase-2 relational work), buffer-pool
    /// accounting over the whole run, Phase-1 probe telemetry, per-phase
    /// worker-thread counts, and per-stage wall times. JSON-serializable
    /// via [`RunMetrics::to_json`]; the CLI prints it under `--metrics`.
    ///
    /// Counter-backed sections are what this run's own threads counted
    /// (a [`fuzzydedup_metrics::scoped`] window over both phases), so
    /// they are exact however many runs share the process.
    pub metrics: RunMetrics,
}

/// The parameter check of both entry points (the batch pipeline and
/// [`crate::incremental::IncrementalDedupBuilder::build`]): a valid cut, a
/// positive SN threshold `c` and a growth multiplier `p >= 1`. The negated
/// comparisons deliberately reject NaN along with the out-of-range values.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub(crate) fn validate_params(cut: &CutSpec, c: f64, p: f64) -> Result<(), DedupError> {
    cut.validate().map_err(DedupError::InvalidConfig)?;
    if !(p >= 1.0) {
        return Err(DedupError::InvalidConfig(format!(
            "growth multiplier p must be >= 1, got {p}"
        )));
    }
    if !(c > 0.0) {
        return Err(DedupError::InvalidConfig(format!("SN threshold c must be positive, got {c}")));
    }
    Ok(())
}

/// The unified entry point: one configured deduplicator driving both
/// phases over raw string records ([`Deduplicator::run_records`]).
///
/// ```no_run
/// use fuzzydedup_core::{CutSpec, DedupConfig, Deduplicator, Parallelism};
/// use fuzzydedup_textdist::DistanceKind;
///
/// let config = DedupConfig::new(DistanceKind::FuzzyMatch)
///     .cut(CutSpec::Size(4))
///     .sn_threshold(4.0)
///     .parallelism(Parallelism::threads(0)); // both phases, all CPUs
/// let records: Vec<Vec<String>> = vec![/* ... */];
/// let outcome = Deduplicator::new(config).run_records(&records).unwrap();
/// println!("{} groups", outcome.partition.num_groups());
/// ```
#[derive(Debug, Clone)]
pub struct Deduplicator {
    config: DedupConfig,
}

/// Collapse context threaded from the record entry points into the phase
/// driver: the class map, per-representative sibling visibility (whether
/// a representative generates index terms), and the wall time already
/// spent building the map.
struct CollapseCtx<'a> {
    map: &'a CollapseMap,
    sibling_visible: Vec<bool>,
    build_ns: u64,
}

impl Deduplicator {
    /// Wrap a configuration. The configuration is validated on each run
    /// (not here) so a `Deduplicator` can be constructed in const-ish
    /// contexts.
    pub fn new(config: DedupConfig) -> Self {
        Self { config }
    }

    /// The wrapped configuration.
    pub fn config(&self) -> &DedupConfig {
        &self.config
    }

    /// Deduplicate string records: builds the distance function (fitting
    /// IDF weights on the records when the distance needs them), the
    /// configured index, and runs both phases.
    pub fn run_records(&self, records: &[Vec<String>]) -> Result<DedupOutcome, DedupError> {
        let pool = Arc::new(BufferPool::new(
            BufferPoolConfig::with_capacity(self.config.buffer_frames),
            Arc::new(InMemoryDisk::new()),
        ));
        self.run_records_with_pool(records, pool)
    }

    /// [`Deduplicator::run_records`] on a caller-supplied buffer pool.
    /// This is the scale-out entry point: a pool backed by a
    /// [`fuzzydedup_storage::FileDisk`] puts index pages, Phase-2 tables,
    /// and the `NN_Reln` spill ([`DedupConfig::spill_threshold`]) behind a
    /// bounded frame budget on real disk instead of process memory.
    pub fn run_records_with_pool(
        &self,
        records: &[Vec<String>],
        pool: Arc<BufferPool>,
    ) -> Result<DedupOutcome, DedupError> {
        let config = &self.config;
        validate_params(&config.cut, config.c, config.p)?;
        let t_dist = Instant::now();
        let distance = config.distance.build(records);
        let build_distance = t_dist.elapsed();
        // Collapse pre-pass: hash the full corpus into exact-duplicate
        // classes *after* the distance fit (IDF weights and corpus
        // statistics are fit on the full relation, same as collapse-off)
        // but before index construction, so Phase 1 only ever sees the
        // representatives.
        let collapse_pass = match config.collapse {
            Some(key) => {
                let t_collapse = Instant::now();
                let map = CollapseMap::build(records, key);
                Some((map, t_collapse.elapsed().as_nanos() as u64))
            }
            None => None,
        };
        // Breadth-first pays only where lookups page postings in.
        let order = match &config.index {
            IndexChoice::Inverted(InvertedIndexConfig {
                postings_source: PostingsSource::Pages,
                ..
            }) => LookupOrder::breadth_first(),
            _ => LookupOrder::Sequential,
        };
        let t_index = Instant::now();
        let (mut outcome, build_index) = match &config.index {
            IndexChoice::Inverted(index_config) => {
                match &collapse_pass {
                    Some((map, build_ns)) => {
                        let index = InvertedIndex::build_collapsed(
                            map.rep_records(records),
                            map.multiplicities().to_vec(),
                            distance,
                            pool.clone(),
                            index_config.clone(),
                        );
                        let build_index = t_index.elapsed();
                        pool.reset_stats(); // measure lookups, not the build
                                            // A term-less representative gathers no candidates
                                            // in the full corpus, so its duplicates never see
                                            // each other there (see `CollapseMap::expand_reln`).
                        let sibling_visible: Vec<bool> =
                            (0..map.n_reps() as u32).map(|r| index.record_has_terms(r)).collect();
                        let ctx = CollapseCtx { map, sibling_visible, build_ns: *build_ns };
                        (self.run_phases(&index, pool, order, Some(ctx))?, build_index)
                    }
                    None => {
                        let index = InvertedIndex::build(
                            records.to_vec(),
                            distance,
                            pool.clone(),
                            index_config.clone(),
                        );
                        let build_index = t_index.elapsed();
                        pool.reset_stats(); // measure lookups, not the build
                        (self.run_phases(&index, pool, order, None)?, build_index)
                    }
                }
            }
            IndexChoice::NestedLoop => match &collapse_pass {
                Some((map, build_ns)) => {
                    let index = NestedLoopIndex::with_multiplicities(
                        map.rep_records(records),
                        map.multiplicities().to_vec(),
                        distance,
                    );
                    let build_index = t_index.elapsed();
                    // The exact scan sees every pair — siblings included.
                    let sibling_visible = vec![true; map.n_reps()];
                    let ctx = CollapseCtx { map, sibling_visible, build_ns: *build_ns };
                    (self.run_phases(&index, pool, order, Some(ctx))?, build_index)
                }
                None => {
                    let index = NestedLoopIndex::new(records.to_vec(), distance);
                    let build_index = t_index.elapsed();
                    (self.run_phases(&index, pool, order, None)?, build_index)
                }
            },
        };
        let timings = &mut outcome.metrics.timings;
        timings.build_distance_ns = build_distance.as_nanos() as u64;
        timings.build_index_ns = build_index.as_nanos() as u64;
        timings.total_ns += timings.build_distance_ns + timings.build_index_ns;
        Ok(outcome)
    }

    /// Run both phases over an already-built index, the one-thread drive
    /// looking tuples up in `order`. `pool` carries Phase-2 tables (and,
    /// for a paged inverted index, already carried Phase-1 lookups). With
    /// a collapse context the index holds weighted representatives,
    /// Phase 1 runs in representative space, and the relation is expanded
    /// back to full ids (inside the Phase-1 window — materializing
    /// `NN_Reln` is Phase-1 work) before Phase 2 runs unchanged.
    fn run_phases(
        &self,
        index: &dyn NnIndex,
        pool: Arc<BufferPool>,
        order: LookupOrder,
        collapse: Option<CollapseCtx<'_>>,
    ) -> Result<DedupOutcome, DedupError> {
        let config = &self.config;
        let threads = config.parallelism.threads;
        let n = index.len();
        // The cut's neighbor spec counts *full corpus* neighbors: under
        // collapse the index holds representatives, but k/θ budgets (and
        // the Unbounded k = n − 1) are corpus-level quantities.
        let n_full = collapse.as_ref().map_or(n, |c| c.map.n_full());
        let spec = NeighborSpec::from_cut(&config.cut, n_full);
        // The scope the run's counter-backed metrics are read from: both
        // phases and the minimality pass, on this thread and — through
        // `steal_blocks`' fold — on the Phase-1 workers.
        let (phases, tally) = fuzzydedup_metrics::scoped(|| -> Result<_, DedupError> {
            let t1 = Instant::now();
            let (nn_reln, phase1_stats) = match threads {
                1 => crate::phase1::compute_nn_reln(index, spec, order, config.p),
                _ => crate::parallel::compute_nn_reln_parallel(index, spec, config.p, threads),
            };
            // Expand the representative-space relation back to full ids; the
            // partition downstream is bit-identical to the collapse-off run
            // (DESIGN.md §7.10). Inside the Phase-1 window, like the spill.
            let (nn_reln, collapse_metrics) = match &collapse {
                Some(ctx) => {
                    let t_expand = Instant::now();
                    let full = ctx.map.expand_reln(&nn_reln, spec, &ctx.sibling_visible);
                    let expand_ns = t_expand.elapsed().as_nanos() as u64;
                    let metrics = CollapseMetrics {
                        classes: ctx.map.n_reps() as u64,
                        collapsed_records: ctx.map.collapsed_records() as u64,
                        collapse_ns: ctx.build_ns + expand_ns,
                    };
                    (full, metrics)
                }
                None => (nn_reln, CollapseMetrics::default()),
            };
            // Spill round-trip: write the relation to heap pages (bounded by
            // the pool) and rehydrate it for Phase 2. Part of the Phase-1
            // window — materializing `NN_Reln` into the database is Phase-1
            // work in the paper's architecture.
            let nn_reln = if config.spill_threshold > 0 && n_full >= config.spill_threshold {
                let spill_file = fuzzydedup_storage::HeapFile::create(pool.clone());
                crate::spill::spill_nn_reln(&nn_reln, &spill_file)?;
                drop(nn_reln);
                crate::spill::read_nn_reln(&spill_file)?
            } else {
                nn_reln
            };
            let phase1_duration = t1.elapsed();
            let buffer_stats = pool.stats();

            let t2 = Instant::now();
            let mut partition = if config.via_tables {
                partition_via_tables(&nn_reln, config.cut, config.agg, config.c, pool.clone())?
            } else {
                // One thread is one worker on the same component path: its
                // CS-pair pruning, not its threads, is what beats the naive
                // greedy.
                partition_entries_parallel(&nn_reln, config.cut, config.agg, config.c, threads)
            };
            let phase2_duration = t2.elapsed();
            let t3 = Instant::now();
            if config.minimality {
                partition = enforce_minimality(&nn_reln, &partition);
            }
            let durations = (phase1_duration, phase2_duration, t3.elapsed());
            Ok((nn_reln, phase1_stats, collapse_metrics, buffer_stats, partition, durations))
        });
        let (nn_reln, phase1_stats, collapse_metrics, buffer_stats, partition, durations) = phases?;
        let (phase1_duration, phase2_duration, minimality_duration) = durations;

        // Counter-backed fields from the scope; the rest is filled below.
        let mut run_metrics = RunMetrics::from_tally(&tally);
        run_metrics.phase2.threads =
            if config.via_tables { 1 } else { resolve_threads(threads, n_full) as u64 };
        run_metrics.collapse = collapse_metrics;
        run_metrics.spill.peak_rss_bytes = fuzzydedup_metrics::peak_rss_bytes();
        // Storage section covers the whole run on this pool: Phase-1 index
        // lookups plus Phase-2 relational tables (when routed via tables).
        let pool_stats = pool.stats();
        run_metrics.storage = StorageMetrics {
            hits: pool_stats.hits,
            misses: pool_stats.misses,
            evictions: pool_stats.evictions,
            writebacks: pool_stats.writebacks,
            hit_ratio: pool_stats.hit_ratio(),
        };
        run_metrics.phase1 = Phase1Metrics {
            tuples: nn_reln.len() as u64,
            index_probes: phase1_stats.lookups,
            bf_queue_high_water: phase1_stats.bf_queue_high_water,
            visit_stride_mean: fuzzydedup_metrics::visit_stride_mean(&phase1_stats.visit_order),
            threads: resolve_threads(threads, n) as u64,
            ..run_metrics.phase1 // `steal_blocks` is counter-backed
        };
        run_metrics.timings = StageTimings {
            build_distance_ns: 0, // filled by `run_records`, which owns the builds
            build_index_ns: 0,
            phase1_ns: phase1_duration.as_nanos() as u64,
            phase2_ns: phase2_duration.as_nanos() as u64,
            minimality_ns: minimality_duration.as_nanos() as u64,
            total_ns: (phase1_duration + phase2_duration + minimality_duration).as_nanos() as u64,
        };

        Ok(DedupOutcome { partition, nn_reln, phase1_stats, buffer_stats, metrics: run_metrics })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn music_records() -> Vec<Vec<String>> {
        [
            ["The Doors", "LA Woman"],
            ["Doors", "LA Woman"],
            ["The Beatles", "A Little Help from My Friends"],
            ["Beatles, The", "With A Little Help From My Friend"],
            ["Shania Twain", "Im Holdin on to Love"],
            ["Twian, Shania", "I'm Holding On To Love"],
            ["Aaliyah", "Are You Ready"],
            ["AC DC", "Are You Ready"],
            ["Bob Dylan", "Are You Ready"],
            ["Creed", "Are You Ready"],
        ]
        .iter()
        .map(|r| r.iter().map(|s| s.to_string()).collect())
        .collect()
    }

    fn dedup(records: &[Vec<String>], config: &DedupConfig) -> Result<DedupOutcome, DedupError> {
        Deduplicator::new(config.clone()).run_records(records)
    }

    #[test]
    fn end_to_end_fms_finds_duplicates() {
        // Pin the page-backed postings source: this test also checks that
        // index lookups flow through the buffer pool, which the default
        // in-memory postings never touch.
        let config = DedupConfig::new(DistanceKind::FuzzyMatch)
            .cut(CutSpec::Size(4))
            .sn_threshold(4.0)
            .index_choice(IndexChoice::Inverted(InvertedIndexConfig {
                postings_source: fuzzydedup_nnindex::PostingsSource::Pages,
                ..Default::default()
            }));
        let outcome = dedup(&music_records(), &config).unwrap();
        let p = &outcome.partition;
        assert!(p.are_together(0, 1), "Doors pair: {:?}", p.groups());
        assert!(p.are_together(4, 5), "Twain pair: {:?}", p.groups());
        // The four distinct "Are You Ready" tracks must not merge.
        for a in 6..10u32 {
            for b in (a + 1)..10 {
                assert!(!p.are_together(a, b), "({a},{b}) merged: {:?}", p.groups());
            }
        }
        assert_eq!(outcome.phase1_stats.lookups, 10);
        assert!(outcome.buffer_stats.accesses() > 0, "index lookups hit the pool");
    }

    #[test]
    fn nested_loop_and_inverted_agree_here() {
        let base =
            DedupConfig::new(DistanceKind::EditDistance).cut(CutSpec::Size(3)).sn_threshold(4.0);
        let inv = dedup(&music_records(), &base).unwrap();
        let nl =
            dedup(&music_records(), &base.clone().index_choice(IndexChoice::NestedLoop)).unwrap();
        assert_eq!(inv.partition, nl.partition);
    }

    #[test]
    fn via_tables_matches_in_memory() {
        let base =
            DedupConfig::new(DistanceKind::FuzzyMatch).cut(CutSpec::Size(4)).sn_threshold(4.0);
        let mem = dedup(&music_records(), &base).unwrap();
        let tab = dedup(&music_records(), &base.clone().via_tables(true)).unwrap();
        assert_eq!(mem.partition, tab.partition);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let records = music_records();
        let bad_cut = DedupConfig::new(DistanceKind::EditDistance).cut(CutSpec::Size(1));
        assert!(matches!(dedup(&records, &bad_cut), Err(DedupError::InvalidConfig(_))));
        let bad_p = DedupConfig::new(DistanceKind::EditDistance).growth_multiplier(0.5);
        assert!(dedup(&records, &bad_p).is_err());
        let bad_c = DedupConfig::new(DistanceKind::EditDistance).sn_threshold(0.0);
        assert!(dedup(&records, &bad_c).is_err());
        let nan_theta =
            DedupConfig::new(DistanceKind::EditDistance).cut(CutSpec::Diameter(f64::NAN));
        assert!(dedup(&records, &nan_theta).is_err());
    }

    #[test]
    fn empty_relation_is_fine() {
        let config = DedupConfig::new(DistanceKind::EditDistance);
        let outcome = dedup(&[], &config).unwrap();
        assert_eq!(outcome.partition.num_groups(), 0);
    }

    #[test]
    fn minimality_flag_plumbs_through() {
        let config = DedupConfig::new(DistanceKind::EditDistance).minimality(true);
        let outcome = dedup(&music_records(), &config).unwrap();
        // Just verifies the pass runs; minimality semantics are tested in
        // `minimality`.
        assert_eq!(outcome.partition.n(), 10);
    }

    #[test]
    fn error_display() {
        let e = DedupError::InvalidConfig("k too small".into());
        assert!(e.to_string().contains("k too small"));
    }

    #[test]
    fn error_source_chain_is_walkable() {
        use std::error::Error;
        // A storage failure — the relational Phase 2's included, which
        // returns `StorageResult` — is two links, both typed:
        // DedupError -> StorageError.
        let e: DedupError = StorageError::CorruptPage(3, "CSPairs record length").into();
        assert!(matches!(e, DedupError::Storage(_)));
        let storage = e.source().expect("storage cause");
        assert!(storage.to_string().contains("page 3"));
        assert!(storage.source().is_none(), "chain ends at the leaf");

        // An I/O failure under the disk manager is one link further down.
        let e: DedupError = StorageError::Io(std::io::Error::other("disk full")).into();
        let io = e.source().and_then(|storage| storage.source()).expect("io cause");
        assert!(io.to_string().contains("disk full"));

        // InvalidConfig has no cause.
        assert!(DedupError::InvalidConfig("x".into()).source().is_none());
    }

    #[test]
    fn run_metrics_populated_end_to_end() {
        let config = DedupConfig::new(DistanceKind::FuzzyMatch)
            .cut(CutSpec::Size(4))
            .sn_threshold(4.0)
            .via_tables(true);
        let outcome = dedup(&music_records(), &config).unwrap();
        let m = &outcome.metrics;
        // nnindex: one combined lookup per tuple, candidates verified with
        // exact distance calls, postings scanned through the pool.
        assert_eq!(m.nnindex.lookups, 10);
        assert!(m.nnindex.candidates_generated > 0);
        assert_eq!(m.nnindex.exact_distance_calls, m.nnindex.candidates_generated);
        assert!(m.nnindex.postings_scanned > 0);
        // cand_gen: generation is counted; fms admits no q-gram bound, so
        // the pruning filters must not have fired.
        assert!(m.cand_gen.generated > 0);
        assert_eq!(m.cand_gen.pruned_by_length, 0);
        assert_eq!(m.cand_gen.pruned_by_count, 0);
        // textdist: the verification distance calls are attributed per kind.
        assert!(m.textdist.total() >= m.nnindex.exact_distance_calls);
        // storage: index lookups and Phase-2 tables hit the buffer pool.
        assert!(m.storage.hits + m.storage.misses > 0);
        assert!((0.0..=1.0).contains(&m.storage.hit_ratio));
        // phase1: probe telemetry mirrors the exact Phase1Stats; the
        // sequential drive reports one worker.
        assert_eq!(m.phase1.tuples, 10);
        assert_eq!(m.phase1.index_probes, outcome.phase1_stats.lookups);
        assert_eq!(m.phase1.threads, 1);
        // phase2 (via tables): rows were unnested, pairs materialized,
        // sort and join passes ran, and the CSPairs graph decomposed into
        // components (singletons included, so ≥ the duplicate groups).
        assert!(m.phase2.unnested_rows > 0);
        assert!(m.phase2.cs_pairs > 0);
        assert!(m.phase2.sort_passes > 0);
        assert!(m.phase2.join_passes > 0);
        assert!(m.phase2.components > 0);
        assert_eq!(m.phase2.threads, 1);
        // timings: stages measured and rolled into the total.
        assert!(m.timings.phase1_ns > 0);
        assert!(m.timings.total_ns >= m.timings.phase1_ns + m.timings.phase2_ns);
        // JSON rendering carries the numbers.
        let json = m.to_json();
        assert!(json.contains("\"lookups\": 10"), "{json}");
        assert!(json.contains("\"tuples\": 10"), "{json}");
        assert!(json.contains("\"components\""), "{json}");
    }

    /// Near-duplicate triples under a per-corpus `tag`, so two corpora
    /// share no record.
    fn tagged_corpus(tag: &str, n: usize) -> Vec<Vec<String>> {
        (0..n)
            .map(|i| {
                let typo = ["", "x", "yy"][i % 3];
                vec![format!("{tag} entity {:03} registered office{typo}", i / 3)]
            })
            .collect()
    }

    /// `m` without what differs between two runs of the same work: wall
    /// times and the process's memory high-water mark.
    fn counted(m: &RunMetrics) -> RunMetrics {
        let mut m = *m;
        m.timings = StageTimings::default();
        m.spill.peak_rss_bytes = 0;
        m
    }

    #[test]
    fn overlapped_runs_count_only_their_own_work() {
        let config = DedupConfig::new(DistanceKind::EditDistance)
            .cut(CutSpec::Size(4))
            .parallelism(Parallelism::threads(2));
        let corpora = [tagged_corpus("northern", 240), tagged_corpus("coastal branch", 150)];
        let alone: Vec<RunMetrics> =
            corpora.iter().map(|c| counted(&dedup(c, &config).unwrap().metrics)).collect();
        assert_ne!(alone[0], alone[1], "different corpora, different counts");
        let start = std::sync::Barrier::new(2);
        let overlapped: Vec<RunMetrics> = std::thread::scope(|s| {
            let runs: Vec<_> = corpora
                .iter()
                .map(|c| {
                    let (start, config) = (&start, &config);
                    s.spawn(move || {
                        start.wait();
                        counted(&dedup(c, config).unwrap().metrics)
                    })
                })
                .collect();
            runs.into_iter().map(|run| run.join().unwrap()).collect()
        });
        assert_eq!(overlapped, alone);
    }

    #[test]
    fn parallel_phases_match_sequential() {
        // Every NN list is an independent query (Lemma 1's uniqueness), so
        // the thread count shows in no count: only in `phase1`'s own
        // telemetry and the two `threads` fields.
        let thread_blind = |m: &RunMetrics| {
            let mut m = counted(m);
            (m.phase1, m.phase2.threads) = Default::default();
            m
        };
        let corpus = tagged_corpus("thread", 180);
        let paged = IndexChoice::Inverted(InvertedIndexConfig {
            postings_source: PostingsSource::Pages,
            ..Default::default()
        });
        for (distance, records, index) in [
            (DistanceKind::FuzzyMatch, &music_records(), IndexChoice::default()),
            (DistanceKind::FuzzyMatch, &corpus, IndexChoice::default()),
            (DistanceKind::EditDistance, &corpus, IndexChoice::default()),
            (DistanceKind::EditDistance, &corpus, paged),
        ] {
            let base = DedupConfig::new(distance)
                .cut(CutSpec::Size(4))
                .sn_threshold(4.0)
                .index_choice(index.clone());
            let breadth_first = matches!(index, IndexChoice::Inverted(ref c)
                if c.postings_source == PostingsSource::Pages);
            // One thread is the ordered drive: the default, a visit order
            // that is a permutation of the ids — id order over resident
            // postings, breadth-first over paged ones — and no stolen block.
            let seq = dedup(records, &base).unwrap();
            let ordered =
                dedup(records, &base.clone().parallelism(Parallelism::threads(1))).unwrap();
            assert_eq!(counted(&seq.metrics), counted(&ordered.metrics));
            let mut visited = seq.phase1_stats.visit_order.clone();
            let ids: Vec<u32> = (0..records.len() as u32).collect();
            assert_eq!(visited == ids, !breadth_first, "{distance:?} {index:?}");
            assert_eq!(seq.metrics.phase1.bf_queue_high_water > 0, breadth_first);
            visited.sort_unstable();
            assert_eq!(visited, ids, "the ordered drive visits every tuple once");
            assert_eq!(seq.metrics.phase1.steal_blocks, 0);
            assert_eq!((seq.metrics.phase1.threads, seq.metrics.phase2.threads), (1, 1));
            for threads in [2, 4, 0] {
                let par = dedup(records, &base.clone().parallelism(Parallelism::threads(threads)))
                    .unwrap();
                assert_eq!(seq.partition, par.partition, "threads={threads}");
                assert_eq!(seq.nn_reln, par.nn_reln);
                assert!(par.phase1_stats.visit_order.is_empty(), "no order in parallel mode");
                assert!(par.metrics.phase1.threads >= 1);
                assert!(par.metrics.phase2.threads >= 1);
                assert!(par.metrics.phase2.components > 0, "parallel phase 2 extracts components");
                assert!(par.metrics.phase1.steal_blocks > 0);
                assert_eq!(
                    thread_blind(&par.metrics),
                    thread_blind(&seq.metrics),
                    "{distance:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn collapse_does_not_change_the_partition() {
        // Duplicate-heavy corpus: exact repeats, normalization-equal
        // variants, fuzzy variants, and unrelated rows.
        let mut records: Vec<Vec<String>> = Vec::new();
        for g in 0..8 {
            records.push(vec![format!("Golden Dragon Palace {g:02}"), "main st".into()]);
            records.push(vec![format!("Golden Dragon Palace {g:02}"), "main st".into()]);
            records.push(vec![format!("golden dragon palace {g:02}!"), "Main St.".into()]);
            records.push(vec![format!("golden drgon palace {g:02}"), "main st".into()]);
            records.push(vec![format!("completely unrelated row {g:02}"), "x".into()]);
        }
        let base =
            DedupConfig::new(DistanceKind::EditDistance).cut(CutSpec::Size(4)).sn_threshold(4.0);
        let plain = dedup(&records, &base).unwrap();
        assert_eq!(plain.metrics.collapse.classes, 0, "knob defaults off");
        let key = Some(CollapseKey::RecordString);
        let collapsed = dedup(&records, &base.clone().collapse(key)).unwrap();
        assert_eq!(plain.partition, collapsed.partition, "partition moved");
        assert_eq!(plain.nn_reln, collapsed.nn_reln, "relation moved");
        assert!(collapsed.metrics.collapse.classes > 0, "pass ran");
        // Per group, the exact repeat and the normalization-equal variant
        // join the first row's class.
        assert_eq!(collapsed.metrics.collapse.collapsed_records, 16, "duplicates collapsed");
        assert_eq!(
            collapsed.metrics.collapse.classes + collapsed.metrics.collapse.collapsed_records,
            records.len() as u64
        );
        // The nested-loop index honors the pass too.
        let nl = base.clone().index_choice(IndexChoice::NestedLoop);
        assert_eq!(
            dedup(&records, &nl).unwrap().partition,
            dedup(&records, &nl.clone().collapse(key)).unwrap().partition
        );
        // fms is a function of the record string as well.
        let fms =
            DedupConfig::new(DistanceKind::FuzzyMatch).cut(CutSpec::Size(4)).sn_threshold(4.0);
        assert_eq!(
            dedup(&records, &fms).unwrap().partition,
            dedup(&records, &fms.clone().collapse(key)).unwrap().partition,
            "fms partition moved"
        );
    }
}
