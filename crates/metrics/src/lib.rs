#![warn(missing_docs)]

//! Pipeline-wide run metrics.
//!
//! Every layer of the deduplication pipeline reports into this crate's
//! process-global counter table — `textdist` counts exact distance
//! evaluations per kind, `nnindex` counts lookups / candidates / postings
//! traffic / fallback probes / verification distance calls, `phase2`
//! counts unnested rows, `CSPairs` cardinality and sort/join passes. The
//! pipeline snapshots the table around a run ([`snapshot`] /
//! [`CounterSnapshot::delta`]) and combines the delta with directly
//! measured per-run state (buffer-pool stats, Phase-1 probe counts, stage
//! wall times) into a [`RunMetrics`], exposed on `DedupOutcome` and
//! printed by the `fuzzydedup` CLI under `--metrics`.
//!
//! Design constraints:
//!
//! * **cheap**: one relaxed atomic add per event, behind a single relaxed
//!   load of the enabled flag — effectively free when disabled
//!   ([`disable`]) and near-free when enabled;
//! * **no dependencies**: this is the bottom crate of the workspace, so
//!   every layer (including `textdist`) can link it;
//! * **process-global**: counters are shared by all concurrent runs in a
//!   process (the idiom of production metric registries). Per-run deltas
//!   are therefore exact only when one pipeline runs at a time — tests
//!   that assert exact counter values serialize through
//!   [`serial_guard`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

pub mod json;

/// Every counter the pipeline layers report. The discriminant is the
/// index into the global table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Exact edit-distance evaluations (`textdist`).
    DistEdit,
    /// Exact fuzzy-match-similarity evaluations (`textdist`).
    DistFms,
    /// Exact TF-IDF cosine evaluations (`textdist`).
    DistCosine,
    /// Exact Jaccard evaluations (`textdist`).
    DistJaccard,
    /// Exact Jaro-Winkler evaluations (`textdist`).
    DistJaroWinkler,
    /// Exact Monge-Elkan evaluations (`textdist`).
    DistMongeElkan,
    /// Exact composite record-distance evaluations (`textdist`).
    DistComposite,
    /// Combined index lookups answered (`nnindex`).
    NnLookups,
    /// Fallback top-1 probes: radius fetch came back empty and the
    /// nearest-neighbor distance had to be probed separately (`nnindex`).
    NnFallbackProbes,
    /// Candidates generated before verification (`nnindex`).
    NnCandidates,
    /// Posting ids scanned during candidate generation (`nnindex`).
    NnPostingsScanned,
    /// Exact distance calls spent verifying candidates (`nnindex`).
    NnExactDistCalls,
    /// NN-list rows unnested into the Edges relation (`phase2`).
    Phase2UnnestedRows,
    /// Rows materialized into the `CSPairs` relation (`phase2`).
    Phase2CsPairs,
    /// External-sort passes over relations (`phase2`).
    Phase2SortPasses,
    /// Join passes over relations (`phase2`).
    Phase2JoinPasses,
    /// Myers single-word (≤ 64-char pattern) edit-kernel invocations
    /// (`textdist`).
    EdKernelWord,
    /// Myers blocked multi-word (> 64-char pattern) edit-kernel
    /// invocations (`textdist`).
    EdKernelBlocked,
    /// k-bounded Myers edit-kernel invocations — candidate verification
    /// with a best-so-far cutoff (`textdist`).
    EdKernelBounded,
    /// Bounded invocations that abandoned the computation early (length
    /// gap or the running score provably exceeded the cutoff).
    EdKernelEarlyExit,
    /// Candidates produced by candidate generation, after truncation
    /// (`nnindex` cand-gen kernel).
    CandidatesGenerated,
    /// Candidates discarded before any distance call because the length
    /// filter proved them outside the running cutoff (`nnindex`).
    PrunedByLength,
    /// Candidates discarded before any distance call because the q-gram
    /// count filter proved them outside the running cutoff (`nnindex`).
    PrunedByCount,
    /// Posting ids the MergeSkip merge avoided scanning linearly once no
    /// new candidate could reach the count threshold (`nnindex`).
    PostingsSkipped,
    /// Query terms dropped as stop grams during candidate generation —
    /// previously a silent recall loss (`nnindex`).
    StopGramsDropped,
    /// Scored candidates cut away by the `candidate_limit` partial
    /// selection — capped recall made visible (`nnindex`).
    CandidatesTruncated,
    /// Connected components of the CS-pair graph extracted during Phase 2
    /// (`phase2` — the unit of Phase-2 parallelism; singletons included).
    Phase2Components,
    /// Query compilations by the prepared-distance layer: one per
    /// `Distance::prepare` call (`textdist`).
    PreparedQueries,
    /// Per-candidate evaluations served by an already-compiled prepared
    /// query — preprocessing amortized instead of redone (`textdist`).
    PreparedReuses,
    /// Pair-distance cache probes answered from the memo — verification
    /// distance calls saved (`core` pair cache).
    PairCacheHits,
    /// Pair-distance cache probes that found no usable entry (`core`).
    PairCacheMisses,
    /// Occupied slots overwritten by a colliding pair — the direct-mapped
    /// table's in-place eviction (`core`).
    PairCacheEvictions,
    /// Distance results inserted into the pair cache (`core`).
    PairCacheInserts,
    /// Lock-step verification batches flushed by the batching driver
    /// (`nnindex`).
    VerifyBatches,
    /// Candidates verified through a lock-step batch rather than one
    /// scalar prepared call each (`nnindex`).
    VerifyBatchedCandidates,
    /// Work-stealing blocks claimed by Phase-1 worker threads (`core`).
    Phase1StealBlocks,
    /// `NN_Reln` entries spilled to heap-file storage (`core`).
    SpillEntries,
    /// Bytes written to the `NN_Reln` spill heap (`core`).
    SpillBytes,
    /// Packed-postings delta blocks decoded during candidate generation
    /// (`nnindex`).
    CandBlocksScanned,
    /// Packed-postings delta blocks skipped via the per-block max-id
    /// pointers without decoding (`nnindex`).
    CandBlockSkips,
    /// Frontier batches flushed by the lane-wise staged merge (`nnindex`).
    CandFrontierBatches,
    /// Ingest batches admitted by the dedup service's writer thread
    /// (`core` service).
    ServiceBatchesAdmitted,
    /// Records admitted through those batches (`core` service).
    ServiceRecordsAdmitted,
    /// Snapshot epochs published by the service writer — one per admitted
    /// batch under the left-right protocol (`core` service).
    ServiceEpochsPublished,
    /// Point queries served from the epoch snapshot (`core` service).
    ServicePointQueries,
    /// Non-blocking submits rejected with `QueueFull` backpressure
    /// (`core` service).
    ServiceQueueRejections,
}

/// Number of counters in [`Counter`].
pub const NUM_COUNTERS: usize = Counter::ServiceQueueRejections as usize + 1;

static ENABLED: AtomicBool = AtomicBool::new(true);

static COUNTERS: [AtomicU64; NUM_COUNTERS] = [const { AtomicU64::new(0) }; NUM_COUNTERS];

/// Enable metric collection (the default).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Disable metric collection; [`incr`] becomes a load-and-branch no-op.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether collection is currently enabled.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Add `n` to a counter. One relaxed atomic add when enabled; a relaxed
/// load and branch when disabled.
#[inline]
pub fn incr(counter: Counter, n: u64) {
    if ENABLED.load(Ordering::Relaxed) {
        COUNTERS[counter as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Immutable view of all counters at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSnapshot {
    values: [u64; NUM_COUNTERS],
}

/// Capture the current counter values.
pub fn snapshot() -> CounterSnapshot {
    let mut values = [0u64; NUM_COUNTERS];
    for (slot, counter) in values.iter_mut().zip(COUNTERS.iter()) {
        *slot = counter.load(Ordering::Relaxed);
    }
    CounterSnapshot { values }
}

/// Reset every counter to zero (test/bench setup helper).
pub fn reset() {
    for counter in COUNTERS.iter() {
        counter.store(0, Ordering::Relaxed);
    }
}

impl CounterSnapshot {
    /// Value of one counter at snapshot time.
    pub fn get(&self, counter: Counter) -> u64 {
        self.values[counter as usize]
    }

    /// Per-counter difference `self - earlier` (saturating, so a
    /// concurrent [`reset`] cannot underflow).
    pub fn delta(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        let mut values = [0u64; NUM_COUNTERS];
        for (i, slot) in values.iter_mut().enumerate() {
            *slot = self.values[i].saturating_sub(earlier.values[i]);
        }
        CounterSnapshot { values }
    }
}

/// Serialize tests that assert exact global-counter values: the returned
/// guard holds a process-wide mutex for the test's duration.
pub fn serial_guard() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let lock = LOCK.get_or_init(|| Mutex::new(()));
    lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Exact distance evaluations per kind (`textdist` layer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TextdistMetrics {
    /// Edit-distance evaluations.
    pub edit: u64,
    /// Fuzzy-match-similarity evaluations.
    pub fms: u64,
    /// Cosine evaluations.
    pub cosine: u64,
    /// Jaccard evaluations.
    pub jaccard: u64,
    /// Jaro-Winkler evaluations.
    pub jaro_winkler: u64,
    /// Monge-Elkan evaluations.
    pub monge_elkan: u64,
    /// Composite record-distance evaluations.
    pub composite: u64,
}

impl TextdistMetrics {
    /// Total exact evaluations across kinds.
    pub fn total(&self) -> u64 {
        self.edit
            + self.fms
            + self.cosine
            + self.jaccard
            + self.jaro_winkler
            + self.monge_elkan
            + self.composite
    }
}

/// Edit-distance kernel-path counts (`textdist` layer): which rung of the
/// kernel-selection ladder (see `DESIGN.md`) served each evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EditKernelMetrics {
    /// Myers single-word invocations (pattern ≤ 64 chars).
    pub word: u64,
    /// Myers blocked multi-word invocations (pattern > 64 chars).
    pub blocked: u64,
    /// k-bounded Myers invocations (verification with a cutoff).
    pub bounded: u64,
    /// Bounded invocations that exited before scanning the whole text.
    pub early_exit: u64,
}

/// Index traffic (`nnindex` layer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NnIndexMetrics {
    /// Combined lookups answered.
    pub lookups: u64,
    /// Fallback top-1 nn-probes issued.
    pub fallback_probes: u64,
    /// Candidates generated before verification.
    pub candidates_generated: u64,
    /// Posting ids scanned during candidate generation.
    pub postings_scanned: u64,
    /// Exact distance calls spent verifying candidates.
    pub exact_distance_calls: u64,
}

/// Candidate-generation accounting (`nnindex` layer): the filtered-merge
/// kernel's funnel, from postings scanned through the pruning filters to
/// the verified survivors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CandGenMetrics {
    /// Candidates scored by the merge, before the `candidate_limit` cap.
    pub generated: u64,
    /// Candidates pruned by the length filter before any distance call.
    pub pruned_by_length: u64,
    /// Candidates pruned by the q-gram count filter before any distance
    /// call.
    pub pruned_by_count: u64,
    /// Posting ids skipped (not linearly scanned) by the MergeSkip merge.
    pub postings_skipped: u64,
    /// Query terms dropped as stop grams.
    pub stop_grams_dropped: u64,
    /// Scored candidates cut away by the `candidate_limit` cap.
    pub truncated: u64,
    /// Packed-postings delta blocks decoded by the merge.
    pub blocks_scanned: u64,
    /// Packed-postings delta blocks skipped via max-id pointers.
    pub block_skips: u64,
    /// Frontier batches flushed by the staged lane-wise merge.
    pub frontier_batches: u64,
}

/// Prepared-query accounting (`textdist` layer): how often query
/// compilation was amortized across candidate evaluations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreparedMetrics {
    /// Queries compiled (`Distance::prepare` calls).
    pub prepares: u64,
    /// Candidate evaluations served by a compiled query.
    pub reuses: u64,
}

/// Symmetric pair-distance memo accounting (`core` layer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairCacheMetrics {
    /// Probes answered from the memo.
    pub hits: u64,
    /// Probes that found no usable entry.
    pub misses: u64,
    /// Occupied slots overwritten by a colliding pair (direct-mapped
    /// in-place eviction).
    pub evictions: u64,
    /// Results inserted.
    pub inserts: u64,
    /// Verification distance calls avoided (= hits).
    pub distance_calls_saved: u64,
}

/// Lock-step verification batching (`nnindex` layer): how much of the
/// candidate-verification workload went through the batched kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyBatchMetrics {
    /// Batches flushed by the batching driver.
    pub batches: u64,
    /// Candidates verified inside those batches (the rest of the
    /// distance calls took the scalar prepared path).
    pub batched_candidates: u64,
}

/// `NN_Reln` spill accounting (`core` layer) plus the run's memory
/// high-water mark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillMetrics {
    /// Entries spilled to heap-file storage (0 = the relation stayed in
    /// memory).
    pub entries: u64,
    /// Bytes written to the spill heap.
    pub bytes: u64,
    /// Peak resident set size of the process in bytes (filled by the
    /// pipeline from [`peak_rss_bytes`], not counter-backed).
    pub peak_rss_bytes: u64,
}

/// Buffer-pool accounting (`storage` layer) — the unified surface over
/// the pool's `BufferStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StorageMetrics {
    /// Page requests served from a resident frame.
    pub hits: u64,
    /// Page requests that required a disk read.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Dirty frames written back on eviction or flush.
    pub writebacks: u64,
    /// `hits / (hits + misses)`, `0` when idle.
    pub hit_ratio: f64,
}

/// Phase-1 probe accounting and lookup-order telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Phase1Metrics {
    /// Tuples processed (one combined lookup each).
    pub tuples: u64,
    /// Physical index probes issued (≥ `tuples`; includes fallback and
    /// growth-sphere probes on indexes that need them).
    pub index_probes: u64,
    /// Fallback top-1 probes within those.
    pub fallback_probes: u64,
    /// Breadth-first queue high-water mark (0 for other orders).
    pub bf_queue_high_water: u64,
    /// Mean |id distance| between consecutive lookups — the visit-order
    /// locality the BF order optimizes (lower = more local).
    pub visit_stride_mean: f64,
    /// Worker threads that drove Phase 1 (1 = the sequential ordered
    /// scan; filled by the pipeline, not counter-backed).
    pub threads: u64,
    /// Work-stealing blocks claimed by those threads (0 for the
    /// sequential scan).
    pub steal_blocks: u64,
}

/// Phase-2 relational accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Phase2Metrics {
    /// Rows unnested from NN lists into the Edges relation.
    pub unnested_rows: u64,
    /// `CSPairs` cardinality.
    pub cs_pairs: u64,
    /// External-sort passes.
    pub sort_passes: u64,
    /// Join passes.
    pub join_passes: u64,
    /// Connected components of the CS-pair graph (singletons included;
    /// 0 when the sequential in-memory path ran, which never extracts
    /// them).
    pub components: u64,
    /// Worker threads that drove the partitioner (1 = sequential; filled
    /// by the pipeline, not counter-backed).
    pub threads: u64,
}

/// Exact-duplicate collapse pre-pass accounting (`core` collapse layer).
/// Entirely pipeline-filled (like [`Phase2Metrics::threads`]), not
/// counter-backed: the pass is a single deterministic hash scan plus one
/// expansion, both timed by the pipeline directly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollapseMetrics {
    /// Exact-duplicate classes (= representative records Phase 1 ran on);
    /// 0 when the pass is disabled.
    pub classes: u64,
    /// Records removed by collapsing (full corpus minus classes).
    pub collapsed_records: u64,
    /// Wall time of the pass: key hashing/class building plus the
    /// `NN_Reln` expansion back to full ids.
    pub collapse_ns: u64,
}

/// Long-running dedup-service accounting (`core` service layer): ingest
/// admission, snapshot publication, and point-query traffic. The latency
/// quantiles and the queue high-water mark are filled by the service from
/// its own histogram/state (like [`SpillMetrics::peak_rss_bytes`]), not
/// counter-backed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceMetrics {
    /// Ingest batches admitted by the writer thread.
    pub batches_admitted: u64,
    /// Records admitted through those batches.
    pub records_admitted: u64,
    /// Snapshot epochs published (one per admitted batch).
    pub epochs_published: u64,
    /// Point queries served from the epoch snapshot.
    pub point_queries: u64,
    /// Non-blocking submits rejected with `QueueFull` backpressure.
    pub queue_rejections: u64,
    /// Ingest-queue depth high-water mark (service-filled, not
    /// counter-backed).
    pub queue_depth_high_water: u64,
    /// Median point-query latency in nanoseconds (service-filled from its
    /// latency histogram, not counter-backed).
    pub query_p50_ns: u64,
    /// 99th-percentile point-query latency in nanoseconds
    /// (service-filled, not counter-backed).
    pub query_p99_ns: u64,
}

/// Per-stage wall times in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Distance-function construction (IDF fitting etc.).
    pub build_distance_ns: u64,
    /// Index construction.
    pub build_index_ns: u64,
    /// Phase 1 (NN-list materialization).
    pub phase1_ns: u64,
    /// Phase 2 (partitioning).
    pub phase2_ns: u64,
    /// Minimality post-pass (0 when disabled).
    pub minimality_ns: u64,
    /// Whole run.
    pub total_ns: u64,
}

/// The structured, JSON-serializable metrics of one pipeline run —
/// every layer's section in one object.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunMetrics {
    /// Exact distance evaluations per kind.
    pub textdist: TextdistMetrics,
    /// Edit-kernel path counts (which ladder rung fired).
    pub edit_kernel: EditKernelMetrics,
    /// Index traffic.
    pub nnindex: NnIndexMetrics,
    /// Candidate-generation funnel (filters, MergeSkip, truncation).
    pub cand_gen: CandGenMetrics,
    /// Prepared-query amortization (compilations vs. reuses).
    pub prepared: PreparedMetrics,
    /// Symmetric pair-distance memo traffic.
    pub pair_cache: PairCacheMetrics,
    /// Lock-step verification batching.
    pub verify_batch: VerifyBatchMetrics,
    /// `NN_Reln` spill traffic and peak RSS.
    pub spill: SpillMetrics,
    /// Buffer-pool accounting.
    pub storage: StorageMetrics,
    /// Phase-1 probes and lookup-order telemetry.
    pub phase1: Phase1Metrics,
    /// Phase-2 relational accounting.
    pub phase2: Phase2Metrics,
    /// Exact-duplicate collapse pre-pass (zeroed when disabled).
    pub collapse: CollapseMetrics,
    /// Long-running dedup-service traffic (zeroed for batch runs).
    pub service: ServiceMetrics,
    /// Per-stage wall times.
    pub timings: StageTimings,
}

impl RunMetrics {
    /// Fill the counter-backed sections from a per-run counter delta.
    pub fn apply_counter_delta(&mut self, d: &CounterSnapshot) {
        self.textdist = TextdistMetrics {
            edit: d.get(Counter::DistEdit),
            fms: d.get(Counter::DistFms),
            cosine: d.get(Counter::DistCosine),
            jaccard: d.get(Counter::DistJaccard),
            jaro_winkler: d.get(Counter::DistJaroWinkler),
            monge_elkan: d.get(Counter::DistMongeElkan),
            composite: d.get(Counter::DistComposite),
        };
        self.edit_kernel = EditKernelMetrics {
            word: d.get(Counter::EdKernelWord),
            blocked: d.get(Counter::EdKernelBlocked),
            bounded: d.get(Counter::EdKernelBounded),
            early_exit: d.get(Counter::EdKernelEarlyExit),
        };
        self.nnindex = NnIndexMetrics {
            lookups: d.get(Counter::NnLookups),
            fallback_probes: d.get(Counter::NnFallbackProbes),
            candidates_generated: d.get(Counter::NnCandidates),
            postings_scanned: d.get(Counter::NnPostingsScanned),
            exact_distance_calls: d.get(Counter::NnExactDistCalls),
        };
        self.cand_gen = CandGenMetrics {
            generated: d.get(Counter::CandidatesGenerated),
            pruned_by_length: d.get(Counter::PrunedByLength),
            pruned_by_count: d.get(Counter::PrunedByCount),
            postings_skipped: d.get(Counter::PostingsSkipped),
            stop_grams_dropped: d.get(Counter::StopGramsDropped),
            truncated: d.get(Counter::CandidatesTruncated),
            blocks_scanned: d.get(Counter::CandBlocksScanned),
            block_skips: d.get(Counter::CandBlockSkips),
            frontier_batches: d.get(Counter::CandFrontierBatches),
        };
        self.prepared = PreparedMetrics {
            prepares: d.get(Counter::PreparedQueries),
            reuses: d.get(Counter::PreparedReuses),
        };
        let hits = d.get(Counter::PairCacheHits);
        self.pair_cache = PairCacheMetrics {
            hits,
            misses: d.get(Counter::PairCacheMisses),
            evictions: d.get(Counter::PairCacheEvictions),
            inserts: d.get(Counter::PairCacheInserts),
            distance_calls_saved: hits,
        };
        self.verify_batch = VerifyBatchMetrics {
            batches: d.get(Counter::VerifyBatches),
            batched_candidates: d.get(Counter::VerifyBatchedCandidates),
        };
        self.spill = SpillMetrics {
            entries: d.get(Counter::SpillEntries),
            bytes: d.get(Counter::SpillBytes),
            peak_rss_bytes: self.spill.peak_rss_bytes, // pipeline-filled
        };
        self.phase1.steal_blocks = d.get(Counter::Phase1StealBlocks);
        self.phase2 = Phase2Metrics {
            unnested_rows: d.get(Counter::Phase2UnnestedRows),
            cs_pairs: d.get(Counter::Phase2CsPairs),
            sort_passes: d.get(Counter::Phase2SortPasses),
            join_passes: d.get(Counter::Phase2JoinPasses),
            components: d.get(Counter::Phase2Components),
            threads: self.phase2.threads, // pipeline-filled, not a counter
        };
        self.service = ServiceMetrics {
            batches_admitted: d.get(Counter::ServiceBatchesAdmitted),
            records_admitted: d.get(Counter::ServiceRecordsAdmitted),
            epochs_published: d.get(Counter::ServiceEpochsPublished),
            point_queries: d.get(Counter::ServicePointQueries),
            queue_rejections: d.get(Counter::ServiceQueueRejections),
            // Service-filled, not counter-backed.
            queue_depth_high_water: self.service.queue_depth_high_water,
            query_p50_ns: self.service.query_p50_ns,
            query_p99_ns: self.service.query_p99_ns,
        };
    }

    /// Render as a JSON object (schema documented in `README.md` under
    /// "Run metrics").
    pub fn to_json(&self) -> String {
        let mut w = json::JsonObject::new();
        w.object("textdist", |o| {
            o.u64("edit", self.textdist.edit)
                .u64("fms", self.textdist.fms)
                .u64("cosine", self.textdist.cosine)
                .u64("jaccard", self.textdist.jaccard)
                .u64("jaro_winkler", self.textdist.jaro_winkler)
                .u64("monge_elkan", self.textdist.monge_elkan)
                .u64("composite", self.textdist.composite)
                .u64("total", self.textdist.total());
        });
        w.object("edit_kernel", |o| {
            o.u64("word", self.edit_kernel.word)
                .u64("blocked", self.edit_kernel.blocked)
                .u64("bounded", self.edit_kernel.bounded)
                .u64("early_exit", self.edit_kernel.early_exit);
        });
        w.object("nnindex", |o| {
            o.u64("lookups", self.nnindex.lookups)
                .u64("fallback_probes", self.nnindex.fallback_probes)
                .u64("candidates_generated", self.nnindex.candidates_generated)
                .u64("postings_scanned", self.nnindex.postings_scanned)
                .u64("exact_distance_calls", self.nnindex.exact_distance_calls);
        });
        w.object("cand_gen", |o| {
            o.u64("generated", self.cand_gen.generated)
                .u64("pruned_by_length", self.cand_gen.pruned_by_length)
                .u64("pruned_by_count", self.cand_gen.pruned_by_count)
                .u64("postings_skipped", self.cand_gen.postings_skipped)
                .u64("stop_grams_dropped", self.cand_gen.stop_grams_dropped)
                .u64("truncated", self.cand_gen.truncated)
                .u64("blocks_scanned", self.cand_gen.blocks_scanned)
                .u64("block_skips", self.cand_gen.block_skips)
                .u64("frontier_batches", self.cand_gen.frontier_batches);
        });
        w.object("prepared", |o| {
            o.u64("prepares", self.prepared.prepares).u64("reuses", self.prepared.reuses);
        });
        w.object("pair_cache", |o| {
            o.u64("hits", self.pair_cache.hits)
                .u64("misses", self.pair_cache.misses)
                .u64("evictions", self.pair_cache.evictions)
                .u64("inserts", self.pair_cache.inserts)
                .u64("distance_calls_saved", self.pair_cache.distance_calls_saved);
        });
        w.object("verify_batch", |o| {
            o.u64("batches", self.verify_batch.batches)
                .u64("batched_candidates", self.verify_batch.batched_candidates);
        });
        w.object("spill", |o| {
            o.u64("entries", self.spill.entries)
                .u64("bytes", self.spill.bytes)
                .u64("peak_rss_bytes", self.spill.peak_rss_bytes);
        });
        w.object("storage", |o| {
            o.u64("hits", self.storage.hits)
                .u64("misses", self.storage.misses)
                .u64("evictions", self.storage.evictions)
                .u64("writebacks", self.storage.writebacks)
                .f64("hit_ratio", self.storage.hit_ratio);
        });
        w.object("phase1", |o| {
            o.u64("tuples", self.phase1.tuples)
                .u64("index_probes", self.phase1.index_probes)
                .u64("fallback_probes", self.phase1.fallback_probes)
                .u64("bf_queue_high_water", self.phase1.bf_queue_high_water)
                .f64("visit_stride_mean", self.phase1.visit_stride_mean)
                .u64("threads", self.phase1.threads)
                .u64("steal_blocks", self.phase1.steal_blocks);
        });
        w.object("phase2", |o| {
            o.u64("unnested_rows", self.phase2.unnested_rows)
                .u64("cs_pairs", self.phase2.cs_pairs)
                .u64("sort_passes", self.phase2.sort_passes)
                .u64("join_passes", self.phase2.join_passes)
                .u64("components", self.phase2.components)
                .u64("threads", self.phase2.threads);
        });
        w.object("collapse", |o| {
            o.u64("classes", self.collapse.classes)
                .u64("collapsed_records", self.collapse.collapsed_records)
                .u64("collapse_ns", self.collapse.collapse_ns);
        });
        w.object("service", |o| {
            o.u64("batches_admitted", self.service.batches_admitted)
                .u64("records_admitted", self.service.records_admitted)
                .u64("epochs_published", self.service.epochs_published)
                .u64("point_queries", self.service.point_queries)
                .u64("queue_rejections", self.service.queue_rejections)
                .u64("queue_depth_high_water", self.service.queue_depth_high_water)
                .u64("query_p50_ns", self.service.query_p50_ns)
                .u64("query_p99_ns", self.service.query_p99_ns);
        });
        w.object("timings_ns", |o| {
            o.u64("build_distance", self.timings.build_distance_ns)
                .u64("build_index", self.timings.build_index_ns)
                .u64("phase1", self.timings.phase1_ns)
                .u64("phase2", self.timings.phase2_ns)
                .u64("minimality", self.timings.minimality_ns)
                .u64("total", self.timings.total_ns);
        });
        w.finish()
    }
}

/// Peak resident set size of the current process in bytes, read from
/// Linux's `VmHWM` line in `/proc/self/status`. Some kernels (and some
/// container runtimes that filter the status file) omit `VmHWM`; there
/// we fall back to the current `VmRSS`, which sampled at the end of a
/// run is a lower bound on the true high-water mark. Returns 0 when the
/// file or both lines are unavailable (non-Linux platforms), so callers
/// can report it unconditionally.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    let parse_kb =
        |rest: &str| -> u64 { rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0) };
    let mut vm_rss = 0;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return parse_kb(rest) * 1024;
        }
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            vm_rss = parse_kb(rest) * 1024;
        }
    }
    vm_rss
}

/// Mean |id distance| between consecutive entries of a visit order —
/// the locality figure for [`Phase1Metrics::visit_stride_mean`].
pub fn visit_stride_mean(visit_order: &[u32]) -> f64 {
    if visit_order.len() < 2 {
        return 0.0;
    }
    let total: u64 =
        visit_order.windows(2).map(|w| (i64::from(w[1]) - i64::from(w[0])).unsigned_abs()).sum();
    total as f64 / (visit_order.len() - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incr_snapshot_delta_roundtrip() {
        let _serial = serial_guard();
        enable();
        let before = snapshot();
        incr(Counter::DistEdit, 3);
        incr(Counter::NnLookups, 2);
        incr(Counter::Phase2CsPairs, 7);
        let delta = snapshot().delta(&before);
        assert_eq!(delta.get(Counter::DistEdit), 3);
        assert_eq!(delta.get(Counter::NnLookups), 2);
        assert_eq!(delta.get(Counter::Phase2CsPairs), 7);
        assert_eq!(delta.get(Counter::DistFms), 0);
    }

    #[test]
    fn disabled_incr_is_dropped() {
        let _serial = serial_guard();
        disable();
        let before = snapshot();
        incr(Counter::DistCosine, 10);
        let delta = snapshot().delta(&before);
        assert_eq!(delta.get(Counter::DistCosine), 0);
        enable();
    }

    #[test]
    fn run_metrics_json_has_all_sections() {
        let mut m = RunMetrics::default();
        m.phase1.index_probes = 42;
        m.storage.hit_ratio = 0.75;
        let json = m.to_json();
        for section in [
            "textdist",
            "edit_kernel",
            "nnindex",
            "cand_gen",
            "prepared",
            "pair_cache",
            "verify_batch",
            "spill",
            "storage",
            "phase1",
            "phase2",
            "collapse",
            "service",
            "timings_ns",
        ] {
            assert!(json.contains(&format!("\"{section}\"")), "missing {section}: {json}");
        }
        assert!(json.contains("\"index_probes\": 42"));
        assert!(json.contains("\"hit_ratio\": 0.75"));
    }

    #[test]
    fn apply_counter_delta_maps_counters() {
        let _serial = serial_guard();
        enable();
        let before = snapshot();
        incr(Counter::DistFms, 5);
        incr(Counter::NnPostingsScanned, 11);
        incr(Counter::Phase2SortPasses, 1);
        incr(Counter::EdKernelWord, 9);
        incr(Counter::EdKernelBounded, 4);
        incr(Counter::EdKernelEarlyExit, 2);
        incr(Counter::CandidatesGenerated, 13);
        incr(Counter::PrunedByLength, 6);
        incr(Counter::PrunedByCount, 3);
        incr(Counter::PostingsSkipped, 21);
        incr(Counter::StopGramsDropped, 2);
        incr(Counter::CandidatesTruncated, 8);
        incr(Counter::Phase2Components, 17);
        incr(Counter::PreparedQueries, 4);
        incr(Counter::PreparedReuses, 40);
        incr(Counter::PairCacheHits, 7);
        incr(Counter::PairCacheMisses, 5);
        incr(Counter::PairCacheEvictions, 1);
        incr(Counter::PairCacheInserts, 12);
        incr(Counter::VerifyBatches, 3);
        incr(Counter::VerifyBatchedCandidates, 90);
        incr(Counter::Phase1StealBlocks, 16);
        incr(Counter::SpillEntries, 25);
        incr(Counter::SpillBytes, 4096);
        incr(Counter::CandBlocksScanned, 31);
        incr(Counter::CandBlockSkips, 14);
        incr(Counter::CandFrontierBatches, 5);
        incr(Counter::ServiceBatchesAdmitted, 2);
        incr(Counter::ServiceRecordsAdmitted, 120);
        incr(Counter::ServiceEpochsPublished, 2);
        incr(Counter::ServicePointQueries, 55);
        incr(Counter::ServiceQueueRejections, 1);
        let delta = snapshot().delta(&before);
        let mut m = RunMetrics::default();
        m.phase2.threads = 4; // pipeline-filled fields survive the delta
        m.spill.peak_rss_bytes = 1234;
        m.service.queue_depth_high_water = 9; // service-filled fields survive
        m.service.query_p50_ns = 1_000;
        m.service.query_p99_ns = 9_000;
        m.apply_counter_delta(&delta);
        assert_eq!(m.textdist.fms, 5);
        assert_eq!(m.nnindex.postings_scanned, 11);
        assert_eq!(m.phase2.sort_passes, 1);
        assert_eq!(m.phase2.components, 17);
        assert_eq!(m.phase2.threads, 4);
        assert_eq!(m.edit_kernel.word, 9);
        assert_eq!(m.edit_kernel.blocked, 0);
        assert_eq!(m.edit_kernel.bounded, 4);
        assert_eq!(m.edit_kernel.early_exit, 2);
        assert_eq!(
            m.cand_gen,
            CandGenMetrics {
                generated: 13,
                pruned_by_length: 6,
                pruned_by_count: 3,
                postings_skipped: 21,
                stop_grams_dropped: 2,
                truncated: 8,
                blocks_scanned: 31,
                block_skips: 14,
                frontier_batches: 5,
            }
        );
        assert_eq!(m.prepared, PreparedMetrics { prepares: 4, reuses: 40 });
        assert_eq!(
            m.pair_cache,
            PairCacheMetrics {
                hits: 7,
                misses: 5,
                evictions: 1,
                inserts: 12,
                distance_calls_saved: 7,
            }
        );
        assert_eq!(m.verify_batch, VerifyBatchMetrics { batches: 3, batched_candidates: 90 });
        assert_eq!(m.spill, SpillMetrics { entries: 25, bytes: 4096, peak_rss_bytes: 1234 });
        assert_eq!(m.phase1.steal_blocks, 16);
        assert_eq!(
            m.service,
            ServiceMetrics {
                batches_admitted: 2,
                records_admitted: 120,
                epochs_published: 2,
                point_queries: 55,
                queue_rejections: 1,
                queue_depth_high_water: 9,
                query_p50_ns: 1_000,
                query_p99_ns: 9_000,
            }
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_is_nonzero_on_linux() {
        // Either VmHWM or the VmRSS fallback must yield a real figure —
        // a running process always has resident pages.
        assert!(peak_rss_bytes() > 0);
    }

    #[test]
    fn stride_mean_measures_locality() {
        assert_eq!(visit_stride_mean(&[]), 0.0);
        assert_eq!(visit_stride_mean(&[3]), 0.0);
        assert_eq!(visit_stride_mean(&[0, 1, 2, 3]), 1.0);
        assert_eq!(visit_stride_mean(&[0, 10]), 10.0);
    }
}
