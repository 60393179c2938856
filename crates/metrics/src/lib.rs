#![warn(missing_docs)]

//! Pipeline-wide run metrics: one way to count.
//!
//! Every layer of the deduplication pipeline reports events with
//! [`incr`] — `textdist` counts exact distance evaluations per kind and
//! kernel rung, `nnindex` counts lookups / candidates / postings traffic /
//! verification calls, `core` counts Phase-2 cardinalities, spill bytes
//! and pair-memo traffic. There is no process-global state:
//!
//! * **tally** — [`incr`] adds to the *calling thread's* tally, a
//!   `thread_local!` array of `Cell<u64>` with a `const` initializer: a
//!   plain add, no atomic, no enabled flag, no lazy init, no destructor;
//! * **scope** — [`scoped`] runs a closure and returns what the thread
//!   counted meanwhile (a before/after difference of a monotone tally, so
//!   scopes nest for free). The entry point opens the scope:
//!   `Deduplicator` around its phases, `DedupService` around each admitted
//!   batch and each point query, a test around the calls it asserts on;
//! * **fold** — a thread that spawns workers has each return its
//!   [`Tally`] through the join handle and [`absorb`]s it, so the work
//!   shows in the spawner's open scopes. A thread nobody absorbs shows
//!   nowhere.
//!
//! Two runs in one process — or two tests in one binary — therefore
//! never see each other's counts, however they interleave.
//!
//! [`RunMetrics`] is the JSON-serializable summary of one run. Its
//! sections, fields, JSON keys and the [`Counter`] behind each
//! counter-backed field are declared **once**, in the `run_metrics!`
//! table below; the [`Counter`] enum, the section structs,
//! [`RunMetrics::from_tally`] and [`RunMetrics::to_json`] are generated
//! from it. Adding a counter is one line there. Fields the counters
//! cannot carry (thread counts, buffer-pool stats, wall times, latency
//! quantiles) are marked `by pipeline` / `by service` and filled by that
//! caller after `from_tally`.
//!
//! This is the bottom crate of the workspace and has no dependencies, so
//! every layer (including `textdist`) can link it.

use std::cell::Cell;

pub mod json;

/// What one thread counted over some window: a value per [`Counter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    values: [u64; NUM_COUNTERS],
}

impl Default for Tally {
    fn default() -> Self {
        Self { values: [0; NUM_COUNTERS] }
    }
}

impl Tally {
    /// The count of one counter.
    pub fn get(&self, counter: Counter) -> u64 {
        self.values[counter as usize]
    }

    /// Add another tally into this one (a sink accumulating scopes).
    pub fn absorb(&mut self, other: &Tally) {
        for (mine, theirs) in self.values.iter_mut().zip(other.values) {
            *mine += theirs;
        }
    }
}

thread_local! {
    static TALLY: [Cell<u64>; NUM_COUNTERS] = const { [const { Cell::new(0) }; NUM_COUNTERS] };
}

/// Add `n` to a counter of the calling thread's tally.
#[inline]
pub fn incr(counter: Counter, n: u64) {
    TALLY.with(|tally| {
        let cell = &tally[counter as usize];
        cell.set(cell.get() + n);
    });
}

/// The calling thread's tally since the thread started.
fn thread_total() -> Tally {
    TALLY.with(|tally| Tally { values: std::array::from_fn(|i| tally[i].get()) })
}

/// Run `f` and return, beside its result, what the calling thread counted
/// while it ran — its own [`incr`]s plus every worker tally it
/// [`absorb`]ed. Scopes nest: an inner scope's counts are also the outer's.
pub fn scoped<R>(f: impl FnOnce() -> R) -> (R, Tally) {
    let before = thread_total();
    let out = f();
    let mut counted = thread_total();
    for (after, before) in counted.values.iter_mut().zip(before.values) {
        *after -= before;
    }
    (out, counted)
}

/// Fold a joined worker's tally into the calling thread's, so the worker's
/// counts land in every scope the caller has open.
pub fn absorb(worker: &Tally) {
    TALLY.with(|tally| {
        for (cell, n) in tally.iter().zip(worker.values) {
            cell.set(cell.get() + n);
        }
    });
}

/// The declare-once table. One block per [`RunMetrics`] section —
/// `field: SectionStruct = "json key" { rows } [+ derived_method]` — and
/// one row per field — `name [as "json key"]: type = source` — where the
/// source is `Counter::Variant` (declares the variant and backs the
/// field with it), `same_as Counter::Variant` (reads a variant another row
/// declares) or `by pipeline` / `by service` (filled by that caller).
macro_rules! run_metrics {
    ($(
        $(#[$section_meta:meta])*
        $section:ident: $Section:ident = $section_key:literal {
            $(
                $(#[$field_meta:meta])*
                $field:ident $(as $field_key:literal)?: $ty:ident
                    $(= Counter::$Counter:ident)?
                    $(= same_as Counter::$Alias:ident)?
                    $(= by $filler:ident)?
            ),* $(,)?
        } $(+ $derived:ident)?
    )*) => {
        /// Every event the pipeline layers count; the discriminant is the
        /// index into a [`Tally`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Counter {
            $($($(
                #[doc = concat!(
                    "Backs [`", stringify!($Section), "::", stringify!($field), "`]."
                )]
                $Counter,
            )?)*)*
        }

        /// Number of counters in [`Counter`].
        pub const NUM_COUNTERS: usize = [$($($(Counter::$Counter,)?)*)*].len();

        $(
            $(#[$section_meta])*
            #[derive(Debug, Clone, Copy, Default, PartialEq)]
            pub struct $Section {
                $(
                    $(#[$field_meta])*
                    #[doc = ""]
                    $(#[doc = concat!("Counted by [`Counter::", stringify!($Counter), "`].")])?
                    $(#[doc = concat!("Reads [`Counter::", stringify!($Alias), "`].")])?
                    $(#[doc = concat!("Filled by the ", stringify!($filler), ", not counted.")])?
                    pub $field: $ty,
                )*
            }
        )*

        /// The structured, JSON-serializable metrics of one pipeline run —
        /// every layer's section in one object.
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        pub struct RunMetrics {
            $(
                #[doc = concat!(
                    "The `", $section_key, "` section; see [`", stringify!($Section), "`]."
                )]
                pub $section: $Section,
            )*
        }

        impl RunMetrics {
            /// The counter-backed fields read from `tally`; every field
            /// filled by the pipeline or the service is left at zero.
            pub fn from_tally(tally: &Tally) -> Self {
                let mut m = Self::default();
                $($(
                    $(m.$section.$field = tally.get(Counter::$Counter);)?
                    $(m.$section.$field = tally.get(Counter::$Alias);)?
                )*)*
                m
            }

            /// Render as a JSON object (schema documented in `README.md`
            /// under "Run metrics").
            pub fn to_json(&self) -> String {
                let mut w = json::JsonObject::new();
                $(
                    w.object($section_key, |o| {
                        // The key is the field's name unless the row says `as`.
                        $(o.$ty([$($field_key,)? stringify!($field)][0], self.$section.$field);)*
                        $(o.u64(stringify!($derived), self.$section.$derived());)?
                    });
                )*
                w.finish()
            }
        }

        /// Every counter with the JSON section and key it backs.
        #[cfg(test)]
        const BACKED: &[(Counter, &str, &str)] = &[
            $($($((Counter::$Counter, $section_key, stringify!($field)),)?)*)*
        ];
    };
}

run_metrics! {
    /// Exact distance evaluations per kind (`textdist` layer).
    #[derive(Eq)]
    textdist: TextdistMetrics = "textdist" {
        /// Edit-distance evaluations.
        edit: u64 = Counter::DistEdit,
        /// Fuzzy-match-similarity evaluations.
        fms: u64 = Counter::DistFms,
    } + total

    /// Edit-distance kernel-path counts (`textdist` layer): which rung of
    /// the kernel-selection ladder (see `DESIGN.md`) served each
    /// evaluation.
    #[derive(Eq)]
    edit_kernel: EditKernelMetrics = "edit_kernel" {
        /// Myers single-word invocations (pattern ≤ 64 chars).
        word: u64 = Counter::EdKernelWord,
        /// Myers blocked multi-word invocations (pattern > 64 chars).
        blocked: u64 = Counter::EdKernelBlocked,
        /// k-bounded Myers invocations — candidate verification with a
        /// best-so-far cutoff.
        bounded: u64 = Counter::EdKernelBounded,
        /// Bounded invocations that abandoned the computation early
        /// (length gap, or the running score provably exceeded the cutoff).
        early_exit: u64 = Counter::EdKernelEarlyExit,
    }

    /// fms token matching (`textdist` layer): how many token pairs the
    /// fms evaluations compared, and how many of them a prepared query's
    /// per-lookup memo answered without a scan.
    #[derive(Eq)]
    fms: FmsMetrics = "fms" {
        /// Token pairs compared: query tokens × candidate tokens, summed
        /// over fms evaluations.
        token_pairs: u64 = Counter::FmsTokenPairs,
        /// Token pairs answered from the memo; the rest were scanned.
        memo_hits: u64 = Counter::FmsMemoHits,
    }

    /// Index traffic (`nnindex` layer).
    #[derive(Eq)]
    nnindex: NnIndexMetrics = "nnindex" {
        /// Combined lookups answered.
        lookups: u64 = Counter::NnLookups,
        /// Candidates generated before verification.
        candidates_generated: u64 = Counter::NnCandidates,
        /// Posting ids scanned during candidate generation.
        postings_scanned: u64 = Counter::NnPostingsScanned,
        /// Exact distance calls spent verifying candidates.
        exact_distance_calls: u64 = Counter::NnExactDistCalls,
    }

    /// Candidate-generation accounting (`nnindex` layer): the
    /// filtered-merge kernel's funnel, from postings scanned through the
    /// pruning filters to the verified survivors.
    #[derive(Eq)]
    cand_gen: CandGenMetrics = "cand_gen" {
        /// Candidates scored by the merge, before the `candidate_limit` cap.
        generated: u64 = Counter::CandidatesGenerated,
        /// Candidates discarded before any distance call because the
        /// length filter proved them outside the running cutoff.
        pruned_by_length: u64 = Counter::PrunedByLength,
        /// Candidates discarded before any distance call because the
        /// q-gram count filter proved them outside the running cutoff.
        pruned_by_count: u64 = Counter::PrunedByCount,
        /// Query terms dropped as stop grams — a recall loss made visible.
        stop_grams_dropped: u64 = Counter::StopGramsDropped,
        /// Scored candidates cut away by the `candidate_limit` partial
        /// selection — capped recall made visible.
        truncated: u64 = Counter::CandidatesTruncated,
    }

    /// Prepared-query accounting (`textdist` layer): how often query
    /// compilation was amortized across candidate evaluations.
    #[derive(Eq)]
    prepared: PreparedMetrics = "prepared" {
        /// Queries compiled (one per `Distance::prepare` call).
        prepares: u64 = Counter::PreparedQueries,
        /// Candidate evaluations served by an already-compiled query —
        /// preprocessing amortized instead of redone.
        reuses: u64 = Counter::PreparedReuses,
    }

    /// Symmetric pair-distance memo accounting (`core` layer).
    #[derive(Eq)]
    pair_cache: PairCacheMetrics = "pair_cache" {
        /// Probes answered from the memo.
        hits: u64 = Counter::PairCacheHits,
        /// Probes that found no usable entry.
        misses: u64 = Counter::PairCacheMisses,
        /// Occupied slots overwritten by a colliding pair (the
        /// direct-mapped table's in-place eviction).
        evictions: u64 = Counter::PairCacheEvictions,
        /// Distance results inserted.
        inserts: u64 = Counter::PairCacheInserts,
        /// Verification distance calls avoided (= hits).
        distance_calls_saved: u64 = same_as Counter::PairCacheHits,
    }

    /// Batched verification (`nnindex` driver, `textdist` chunk kernel): how
    /// much of the candidate-verification workload went through the batched
    /// kernel, and how many of the columns it was offered it had to scan.
    #[derive(Eq)]
    verify_batch: VerifyBatchMetrics = "verify_batch" {
        /// Batches flushed by the batching driver.
        batches: u64 = Counter::VerifyBatches,
        /// Candidates verified inside those batches (the rest of the
        /// distance calls took the scalar prepared path).
        batched_candidates: u64 = Counter::VerifyBatchedCandidates,
        /// Text columns handed to the chunk kernel: the sum of its lanes'
        /// text lengths.
        columns_offered: u64 = Counter::VerifyColumnsOffered,
        /// Text columns the chunk kernel advanced a live lane through —
        /// each lane up to its own end or the column its chunk stopped at;
        /// the rest of `columns_offered` is what the bounded exit skipped.
        columns_scanned: u64 = Counter::VerifyColumnsScanned,
    }

    /// `NN_Reln` spill accounting (`core` layer) plus the run's memory
    /// high-water mark.
    #[derive(Eq)]
    spill: SpillMetrics = "spill" {
        /// Entries spilled to heap-file storage (0 = the relation stayed
        /// in memory).
        entries: u64 = Counter::SpillEntries,
        /// Bytes written to the spill heap.
        bytes: u64 = Counter::SpillBytes,
        /// Peak resident set size of the process in bytes
        /// ([`peak_rss_bytes`]).
        peak_rss_bytes: u64 = by pipeline,
    }

    /// Buffer-pool accounting (`storage` layer) — the unified surface over
    /// the pool's `BufferStats`.
    storage: StorageMetrics = "storage" {
        /// Page requests served from a resident frame.
        hits: u64 = by pipeline,
        /// Page requests that required a disk read.
        misses: u64 = by pipeline,
        /// Frames evicted to make room.
        evictions: u64 = by pipeline,
        /// Dirty frames written back on eviction or flush.
        writebacks: u64 = by pipeline,
        /// `hits / (hits + misses)`, `0` when idle.
        hit_ratio: f64 = by pipeline,
    }

    /// Phase-1 probe accounting and lookup-order telemetry.
    phase1: Phase1Metrics = "phase1" {
        /// Tuples processed (one combined lookup each).
        tuples: u64 = by pipeline,
        /// Index lookups issued: one per tuple of the index (under
        /// collapse, one per representative).
        index_probes: u64 = by pipeline,
        /// Breadth-first queue high-water mark (0 for other orders).
        bf_queue_high_water: u64 = by pipeline,
        /// Mean |id distance| between consecutive lookups — the
        /// visit-order locality the BF order optimizes (lower = more
        /// local).
        visit_stride_mean: f64 = by pipeline,
        /// Worker threads that drove Phase 1 (1 = the sequential ordered
        /// scan).
        threads: u64 = by pipeline,
        /// Work-stealing blocks claimed by those threads (0 for the
        /// sequential scan).
        steal_blocks: u64 = Counter::Phase1StealBlocks,
    }

    /// Phase-2 relational accounting.
    #[derive(Eq)]
    phase2: Phase2Metrics = "phase2" {
        /// Rows unnested from NN lists into the Edges relation.
        unnested_rows: u64 = Counter::Phase2UnnestedRows,
        /// Rows materialized into the `CSPairs` relation.
        cs_pairs: u64 = Counter::Phase2CsPairs,
        /// External-sort passes over relations.
        sort_passes: u64 = Counter::Phase2SortPasses,
        /// Join passes over relations.
        join_passes: u64 = Counter::Phase2JoinPasses,
        /// Connected components of the CS-pair graph — the unit of
        /// Phase-2 parallelism; singletons included.
        components: u64 = Counter::Phase2Components,
        /// Worker threads that drove the partitioner (1 = sequential).
        threads: u64 = by pipeline,
    }

    /// Exact-duplicate collapse pre-pass accounting (`core` collapse
    /// layer): a single deterministic hash scan plus one expansion, both
    /// measured by the pipeline directly.
    #[derive(Eq)]
    collapse: CollapseMetrics = "collapse" {
        /// Exact-duplicate classes (= representative records Phase 1 ran
        /// on); 0 when the pass is disabled.
        classes: u64 = by pipeline,
        /// Records removed by collapsing (full corpus minus classes).
        collapsed_records: u64 = by pipeline,
        /// Wall time of the pass: key hashing/class building plus the
        /// `NN_Reln` expansion back to full ids.
        collapse_ns: u64 = by pipeline,
    }

    /// Long-running dedup-service accounting (`core` service layer):
    /// ingest admission, snapshot publication, and point-query traffic,
    /// read from the service's own state (zeroed for batch runs).
    #[derive(Eq)]
    service: ServiceMetrics = "service" {
        /// Ingest batches admitted by the writer thread.
        batches_admitted: u64 = by service,
        /// Records admitted through those batches.
        records_admitted: u64 = by service,
        /// Snapshot epochs published: one per admitted batch, each the
        /// batch's fork of the previous snapshot swapped in whole.
        epochs_published: u64 = by service,
        /// Point queries served from the epoch snapshot.
        point_queries: u64 = by service,
        /// Non-blocking submits rejected with `QueueFull` backpressure.
        queue_rejections: u64 = by service,
        /// Ingest-queue depth high-water mark.
        queue_depth_high_water: u64 = by service,
        /// Median point-query latency in nanoseconds (from the service's
        /// latency histogram).
        query_p50_ns: u64 = by service,
        /// 99th-percentile point-query latency in nanoseconds.
        query_p99_ns: u64 = by service,
    }

    /// Per-stage wall times in nanoseconds.
    #[derive(Eq)]
    timings: StageTimings = "timings_ns" {
        /// Distance-function construction (IDF fitting etc.).
        build_distance_ns as "build_distance": u64 = by pipeline,
        /// Index construction.
        build_index_ns as "build_index": u64 = by pipeline,
        /// Phase 1 (NN-list materialization).
        phase1_ns as "phase1": u64 = by pipeline,
        /// Phase 2 (partitioning).
        phase2_ns as "phase2": u64 = by pipeline,
        /// Minimality post-pass (0 when disabled).
        minimality_ns as "minimality": u64 = by pipeline,
        /// Whole run.
        total_ns as "total": u64 = by pipeline,
    }
}

impl TextdistMetrics {
    /// Total exact evaluations across kinds.
    pub fn total(&self) -> u64 {
        self.edit + self.fms
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
    fn incr_scoped_roundtrip() {
        let (inner, outer) = scoped(|| {
            incr(Counter::DistEdit, 3);
            let ((), inner) = scoped(|| incr(Counter::DistEdit, 10));
            incr(Counter::Phase2CsPairs, 7);
            inner
        });
        assert_eq!(inner.get(Counter::DistEdit), 10);
        assert_eq!(inner.get(Counter::Phase2CsPairs), 0);
        assert_eq!(
            outer.get(Counter::DistEdit),
            13,
            "scopes nest: the inner's counts are the outer's"
        );
        assert_eq!(outer.get(Counter::Phase2CsPairs), 7);
        assert_eq!(outer.get(Counter::DistFms), 0);
    }

    #[test]
    fn absorbed_worker_shows_in_its_spawners_scope_and_an_unabsorbed_thread_nowhere() {
        let ((), counted) = scoped(|| {
            std::thread::scope(|s| {
                let absorbed = s.spawn(|| scoped(|| incr(Counter::NnLookups, 5)).1);
                let ignored = s.spawn(|| incr(Counter::NnLookups, 1_000));
                absorb(&absorbed.join().unwrap());
                ignored.join().unwrap();
            });
            incr(Counter::NnLookups, 1);
        });
        assert_eq!(counted.get(Counter::NnLookups), 6);
    }

    /// A `to_json` document read back as `(section, [(key, value)])` in
    /// written order. The document is two levels of plain keys over
    /// numbers, so splitting on its own punctuation reads all of it.
    fn read_back(json: &str) -> Vec<(String, Vec<(String, f64)>)> {
        let body = json.strip_prefix('{').and_then(|s| s.strip_suffix("}}")).expect("two levels");
        body.split("}, ")
            .map(|section| {
                let (name, fields) = section.split_once(": {").expect("a section object");
                let fields = fields.split(", ").map(|field| {
                    let (key, value) = field.split_once(": ").expect("a key and a value");
                    (key.trim_matches('"').to_string(), value.parse().expect("a number"))
                });
                (name.trim_matches('"').to_string(), fields.collect())
            })
            .collect()
    }

    /// The default document's `(section, keys)` in written order.
    fn written_schema() -> Vec<(String, Vec<String>)> {
        read_back(&RunMetrics::default().to_json())
            .into_iter()
            .map(|(section, fields)| (section, fields.into_iter().map(|(key, _)| key).collect()))
            .collect()
    }

    #[test]
    fn run_metrics_json_has_all_sections() {
        let mut m = RunMetrics::default();
        m.phase1.index_probes = 42;
        m.storage.hit_ratio = 0.75;
        m.timings.phase1_ns = 9;
        let json = m.to_json();
        assert!(json.contains("\"index_probes\": 42"));
        assert!(json.contains("\"hit_ratio\": 0.75"));
        assert!(json
            .contains("\"timings_ns\": {\"build_distance\": 0, \"build_index\": 0, \"phase1\": 9"));
        // Names, keys and order are held to the README's table below.
        assert_eq!(written_schema().len(), 15);
    }

    #[test]
    fn from_tally_maps_every_counter_to_its_field() {
        assert_eq!(BACKED.len(), NUM_COUNTERS);
        let ((), tally) = scoped(|| {
            for (i, &(counter, _, _)) in BACKED.iter().enumerate() {
                assert_eq!(counter as usize, i, "discriminants follow the table");
                incr(counter, 1 << i);
            }
        });
        let m = RunMetrics::from_tally(&tally);
        let doc = read_back(&m.to_json());
        let read = |section: &str, key: &str| {
            let (_, fields) = doc.iter().find(|(name, _)| name == section).expect("section");
            fields.iter().find(|(name, _)| name == key).expect("key").1
        };
        // Distinct powers of two: a field reading any other counter, or a
        // sum of several, cannot produce the expected value.
        let mut backed_total = 0.0;
        for (i, &(_, section, key)) in BACKED.iter().enumerate() {
            assert_eq!(read(section, key), (1u64 << i) as f64, "{section}.{key}");
            backed_total += read(section, key);
        }
        // The two derived keys, and nothing else, also carry counts.
        assert_eq!(m.pair_cache.distance_calls_saved, m.pair_cache.hits);
        assert_eq!(read("textdist", "total"), m.textdist.total() as f64);
        let written: f64 = written_schema()
            .iter()
            .flat_map(|(section, keys)| keys.iter().map(|key| read(section, key)))
            .sum();
        let derived = (m.pair_cache.hits + m.textdist.total()) as f64;
        assert_eq!(written, backed_total + derived, "a filled field read a counter");
    }

    #[test]
    fn readme_table_matches_the_declaration() {
        let readme = include_str!("../../../README.md");
        let (_, rest) =
            readme.split_once("## Run metrics & observability").expect("README section exists");
        let table = rest.split("\n## ").next().unwrap();
        let backticked = |cell: &str| -> Vec<String> {
            cell.split('`').skip(1).step_by(2).map(str::to_string).collect()
        };
        let documented: Vec<(String, Vec<String>)> = table
            .lines()
            .filter(|line| line.starts_with("| `"))
            .map(|line| {
                let cells: Vec<&str> = line.split('|').collect();
                (backticked(cells[1]).remove(0), backticked(cells[2]))
            })
            .collect();
        assert_eq!(documented, written_schema());
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
