//! Long-running dedup service: batched ingest, epoch-snapshot point
//! queries, graceful drain.
//!
//! The paper's pipeline is batch-only; this module turns the incremental
//! path ([`IncrementalDedup`]) into a live service. Three moving parts:
//!
//! 1. **The whole backlog as one epoch.** Submitters push single records
//!    into a bounded queue ([`DedupService::submit`] fails fast with
//!    [`ServiceError::QueueFull`]; [`DedupService::submit_wait`] blocks for
//!    space). A dedicated writer thread takes everything pending and
//!    admits it as one [`IncrementalDedup::insert_batch`] call, whose
//!    re-run of both phases over the whole corpus runs on every core. That
//!    re-run costs about the same whether an epoch admits one record or a
//!    thousand, so records that queue while it runs cost nothing extra:
//!    they all ride the next epoch. There is no batch-size knob; the queue
//!    capacity bounds an epoch.
//!
//! 2. **Immutable snapshots.** Point queries ("find duplicates of this
//!    record *now*") must not block while the writer applies a batch. The
//!    published state is an `Arc<IncrementalDedup>` nobody mutates: the
//!    writer clones it, runs plain [`IncrementalDedup::insert_batch`] on
//!    the clone, and publishes the clone as the next epoch by swapping the
//!    `Arc` under a lock that guards only the pointer. A reader clones the
//!    `Arc` and reads holding nothing, so a read never waits on a batch
//!    and sees one state from start to end (see `DESIGN.md` §7.9). Memory
//!    is the published state plus, during a batch, its clone.
//!
//!    A panic on the writer thread (a user [`Distance`], a broken
//!    invariant) ends ingest, not the service: `submit*` return
//!    [`ServiceError::WriterFailed`], [`DedupService::drain`] returns,
//!    and readers keep the last published epoch — the panicking batch's
//!    clone is dropped unpublished. Ingest ends because that batch's
//!    records have already left the queue: going on would publish a state
//!    that silently lacks them.
//!
//! 3. **Observability.** [`DedupService::metrics`] — a `RunMetrics` of
//!    this service alone: the writer thread folds what each admitted batch
//!    counted and how long its phases took, and [`DedupService::query`]
//!    what each query counted, into a sink the service owns, beside a
//!    log2-bucket latency histogram of the queries (coarse p50/p99) under
//!    the same lock. [`DedupService::stats`] reads each count where it is
//!    kept: batches, epochs, admitted records and the group count off the
//!    published snapshot, whose partition is whole, so every count is
//!    exact; queue counts off the queue state. Beside them: per-request
//!    [`LookupCost`] on every [`QueryAnswer`].

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fuzzydedup_metrics::{scoped, RunMetrics, ServiceMetrics, StageTimings, Tally};
use fuzzydedup_nnindex::LookupCost;
use fuzzydedup_relation::Neighbor;
use fuzzydedup_textdist::Distance;

use crate::incremental::{IncrementalDedup, IncrementalDedupBuilder};
use crate::partition::Partition;
use crate::pipeline::DedupError;

// ---------------------------------------------------------------------------
// Service configuration and errors.
// ---------------------------------------------------------------------------

/// Tuning knobs for [`DedupService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServiceConfig {
    /// Bounded ingest-queue capacity (default 1024). When full,
    /// [`DedupService::submit`] fails fast and
    /// [`DedupService::submit_wait`] blocks. The writer admits whatever is
    /// queued as one epoch, so this also bounds an epoch.
    pub queue_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self { queue_capacity: 1024 }
    }
}

impl ServiceConfig {
    /// The defaults; fields are adjusted by record update syntax being
    /// unavailable (`#[non_exhaustive]`), so use the setters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ignored: the writer admits the whole backlog as one epoch. Kept
    /// only because the repo benchmark's sources still call it; ROADMAP
    /// item 7, the benchmark's next update, deletes it.
    #[doc(hidden)]
    pub fn admit_batch_size(self, _ignored: usize) -> Self {
        self
    }

    /// Set [`Self::queue_capacity`].
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n;
        self
    }

    fn validate(&self) -> Result<(), ServiceError> {
        if self.queue_capacity == 0 {
            return Err(ServiceError::InvalidConfig("queue_capacity must be >= 1".into()));
        }
        Ok(())
    }
}

/// Errors surfaced by [`DedupService`], following the [`DedupError`]
/// conventions (`#[non_exhaustive]`, `Display` + `source()` chains).
#[derive(Debug)]
#[non_exhaustive]
pub enum ServiceError {
    /// The bounded ingest queue is at capacity; retry, or use
    /// [`DedupService::submit_wait`].
    QueueFull {
        /// The configured capacity that was hit.
        capacity: usize,
    },
    /// The service is shutting down and no longer accepts records.
    ShuttingDown,
    /// The writer thread panicked while admitting a batch. Records still
    /// queued will never be admitted; queries keep answering from the
    /// last published epoch.
    WriterFailed,
    /// Invalid [`ServiceConfig`].
    InvalidConfig(String),
    /// The underlying incremental state failed to build.
    Build(DedupError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::QueueFull { capacity } => {
                write!(f, "ingest queue full (capacity {capacity})")
            }
            Self::ShuttingDown => write!(f, "service is shutting down"),
            Self::WriterFailed => write!(f, "service writer thread panicked"),
            Self::InvalidConfig(why) => write!(f, "invalid service configuration: {why}"),
            Self::Build(_) => write!(f, "failed to build the incremental dedup state"),
        }
    }
}

impl Error for ServiceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Build(inner) => Some(inner),
            _ => None,
        }
    }
}

impl From<DedupError> for ServiceError {
    fn from(e: DedupError) -> Self {
        Self::Build(e)
    }
}

// ---------------------------------------------------------------------------
// Latency histogram (log2 buckets).
// ---------------------------------------------------------------------------

/// 64 power-of-two buckets over nanoseconds. Coarse by construction —
/// quantiles are accurate to a factor of 2, which is what a live `stats()`
/// endpoint needs. The replay bench computes *exact* quantiles from its own
/// recorded timings instead.
struct LatencyHistogram {
    buckets: [u64; 64],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self { buckets: [0; 64] }
    }
}

impl LatencyHistogram {
    fn record(&mut self, ns: u64) {
        let b = (64 - ns.leading_zeros()).min(63) as usize;
        self.buckets[b] += 1;
    }

    /// Latencies recorded.
    fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Upper bound of the bucket holding the `q`-quantile, 0 if empty.
    fn quantile_ns(&self, q: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (b, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= target {
                return if b == 0 { 0 } else { (1u64 << b) - 1 };
            }
        }
        u64::MAX
    }
}

// ---------------------------------------------------------------------------
// The service.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct QueueState {
    pending: VecDeque<Vec<String>>,
    shutdown: bool,
    /// The writer thread unwound (see [`WriterGuard`]); implies `shutdown`.
    writer_failed: bool,
    /// The writer is applying an admitted batch (pending may be empty while
    /// records are still becoming visible — drain must wait this out).
    in_flight: bool,
    depth_high_water: usize,
    /// Fast-fail submissions refused with [`ServiceError::QueueFull`].
    rejections: u64,
}

impl QueueState {
    /// Whether the service still admits records.
    fn accepting(&self) -> Result<(), ServiceError> {
        if self.writer_failed {
            Err(ServiceError::WriterFailed)
        } else if self.shutdown {
            Err(ServiceError::ShuttingDown)
        } else {
            Ok(())
        }
    }
}

/// What a service's handle and its writer thread share; `T` is the state.
struct ServiceShared<T> {
    /// The published snapshot: the epoch and the state it names, replaced
    /// together. The lock guards the pointer only: it is held for an `Arc`
    /// clone or a swap, never while a state is read, built or dropped — so
    /// nothing panics holding it, and a poisoned guard still holds a whole
    /// pair.
    published: Mutex<(u64, Arc<T>)>,
    queue: Mutex<QueueState>,
    /// Signaled when records arrive or shutdown begins (writer waits).
    work: Condvar,
    /// Signaled when queue space frees up (blocking submitters wait).
    space: Condvar,
    /// Signaled when the queue is empty *and* nothing is in flight.
    idle: Condvar,
    counted: Mutex<Counted>,
}

/// What this service's batches and queries counted so far.
#[derive(Default)]
struct Counted {
    /// The sink behind [`DedupService::metrics`].
    tally: Tally,
    /// Phase 1, Phase 2 and whole-epoch wall times, summed over the
    /// admitted epochs.
    timings: StageTimings,
    /// One latency per [`DedupService::query`] that returned.
    latency: LatencyHistogram,
    /// Phase 1 and Phase 2 workers of the latest epoch.
    threads: (u64, u64),
}

/// Take `mutex` whether or not a panic poisoned it. Every lock here guards
/// a value that is whole between statements — a pointer pair, queue flags
/// and counts, plain adds — so a guard a panic left behind still holds a
/// consistent one, and one poisoned lock does not take the service down.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Wait on `condvar` under the poison policy of [`lock`].
fn wait<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

impl<T> ServiceShared<T> {
    /// The writer folds each batch's scope in and `query()` each query's
    /// scope and latency: one uncontended lock per batch / per query.
    fn counted(&self) -> MutexGuard<'_, Counted> {
        lock(&self.counted)
    }

    fn published(&self) -> MutexGuard<'_, (u64, Arc<T>)> {
        lock(&self.published)
    }

    fn queue(&self) -> MutexGuard<'_, QueueState> {
        lock(&self.queue)
    }

    /// Run `f` against the published snapshot and its epoch, holding the
    /// lock only for the `Arc` clone.
    fn read<R>(&self, f: impl FnOnce(u64, &T) -> R) -> R {
        let (epoch, state) = {
            let published = self.published();
            (published.0, Arc::clone(&published.1))
        };
        f(epoch, &state)
    }

    /// Publish `state` as the next epoch; returns the snapshot it
    /// replaced, which the caller drops after the lock is released (or a
    /// reader still holding it does, when done).
    fn publish(&self, state: T) -> Arc<T> {
        let state = Arc::new(state);
        let mut published = self.published();
        let epoch = published.0 + 1;
        std::mem::replace(&mut *published, (epoch, state)).1
    }
}

/// One point-query response; see [`DedupService::query`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct QueryAnswer {
    /// Epoch of the snapshot that answered (monotone across the service).
    pub epoch: u64,
    /// Records in the snapshot corpus at answer time.
    pub corpus_len: usize,
    /// The query's NN list against the snapshot, nearest first. A record
    /// already in the corpus sees itself at distance 0.
    pub neighbors: Vec<Neighbor>,
    /// Neighborhood-growth estimate for the query point.
    pub growth: f64,
    /// Index work paid for this request (candidates, filter prunes,
    /// distance calls).
    pub cost: LookupCost,
}

/// Point-in-time service statistics; see [`DedupService::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServiceStats {
    /// Records visible in the published snapshot.
    pub corpus_len: usize,
    /// Duplicate groups in the published snapshot.
    pub num_groups: usize,
    /// Epoch of the published snapshot.
    pub epoch: u64,
    /// `insert_batch` calls admitted so far: each publishes one epoch, so
    /// this is [`Self::epoch`].
    pub batches_admitted: u64,
    /// Records admitted so far: [`Self::corpus_len`].
    pub records_admitted: u64,
    /// Snapshot epochs published so far: [`Self::epoch`].
    pub epochs_published: u64,
    /// Point queries served so far.
    pub point_queries: u64,
    /// Fast-fail submissions rejected with [`ServiceError::QueueFull`].
    pub queue_rejections: u64,
    /// Records currently waiting for admission.
    pub queue_depth: usize,
    /// Highest queue depth observed.
    pub queue_depth_high_water: usize,
    /// Median point-query latency (log2-bucket upper bound; 0 if none).
    pub query_p50_ns: u64,
    /// 99th-percentile point-query latency (log2-bucket upper bound).
    pub query_p99_ns: u64,
    /// The writer thread panicked: ingest is over
    /// ([`ServiceError::WriterFailed`]) and the snapshot is final.
    pub writer_failed: bool,
}

/// A long-running dedup service over the incremental path; see module docs.
///
/// Dropping the handle shuts the service down gracefully: the writer
/// drains every already-submitted record, then exits.
pub struct DedupService<D: Distance + Clone + 'static> {
    shared: Arc<ServiceShared<IncrementalDedup<D>>>,
    writer: Option<JoinHandle<()>>,
    config: ServiceConfig,
}

impl<D: Distance + Clone + 'static> DedupService<D> {
    /// Start a service over an empty incremental state described by
    /// `builder`. Every batch runs on a clone of the published state, which
    /// is why `D: Clone`.
    pub fn spawn(
        builder: IncrementalDedupBuilder<D>,
        config: ServiceConfig,
    ) -> Result<Self, ServiceError> {
        config.validate()?;
        let shared = Arc::new(ServiceShared {
            published: Mutex::new((0, Arc::new(builder.build()?))),
            queue: Mutex::default(),
            work: Condvar::new(),
            space: Condvar::new(),
            idle: Condvar::new(),
            counted: Mutex::default(),
        });
        let writer = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("dedup-service-writer".into())
                .spawn(move || writer_loop(shared))
                .expect("spawn service writer thread")
        };
        Ok(Self { shared, writer: Some(writer), config })
    }

    /// Submit one record for admission; fails fast when the queue is full.
    pub fn submit(&self, record: Vec<String>) -> Result<(), ServiceError> {
        let mut q = self.shared.queue();
        q.accepting()?;
        if q.pending.len() >= self.config.queue_capacity {
            q.rejections += 1;
            return Err(ServiceError::QueueFull { capacity: self.config.queue_capacity });
        }
        q.pending.push_back(record);
        q.depth_high_water = q.depth_high_water.max(q.pending.len());
        drop(q);
        self.shared.work.notify_one();
        Ok(())
    }

    /// Submit one record, blocking for queue space if necessary (the
    /// "await" flavor of backpressure).
    pub fn submit_wait(&self, record: Vec<String>) -> Result<(), ServiceError> {
        let mut q = self.shared.queue();
        loop {
            q.accepting()?;
            if q.pending.len() < self.config.queue_capacity {
                q.pending.push_back(record);
                q.depth_high_water = q.depth_high_water.max(q.pending.len());
                drop(q);
                self.shared.work.notify_one();
                return Ok(());
            }
            q = wait(&self.shared.space, q);
        }
    }

    /// Find duplicates of `fields` against the current snapshot — a read
    /// that never waits on a batch (see [`Self::with_snapshot`]).
    pub fn query(&self, fields: &[&str]) -> QueryAnswer {
        let started = std::time::Instant::now();
        let (answer, tally) = scoped(|| {
            self.shared.read(|epoch, state| {
                let (neighbors, growth, cost) = state.query_record(fields);
                QueryAnswer { epoch, corpus_len: state.len(), neighbors, growth, cost }
            })
        });
        let mut counted = self.shared.counted();
        counted.latency.record(nanos(started.elapsed()));
        counted.tally.absorb(&tally);
        answer
    }

    /// Run `f` against the published snapshot (epoch + state). For
    /// consumers that need more than one coherent answer — e.g. the drain
    /// identity check reads the whole partition in one snapshot.
    ///
    /// Never waits on the writer's batch, which runs on a clone while this
    /// state stays published; `f` runs to completion on that one immutable
    /// state however many epochs are published meanwhile. Unlike
    /// [`Self::query`], a read through here is not counted by the service.
    pub fn with_snapshot<R>(&self, f: impl FnOnce(u64, &IncrementalDedup<D>) -> R) -> R {
        self.shared.read(f)
    }

    /// Clone the published partition along with its epoch.
    pub fn snapshot_partition(&self) -> (u64, Partition) {
        self.shared.read(|epoch, state| (epoch, state.partition().clone()))
    }

    /// Block until every record submitted so far is visible to queries —
    /// or, if the writer thread panicked, until it is known that no more
    /// will be ([`ServiceStats::writer_failed`] tells the two apart).
    pub fn drain(&self) {
        let mut q = self.shared.queue();
        while !q.writer_failed && (!q.pending.is_empty() || q.in_flight) {
            q = wait(&self.shared.idle, q);
        }
    }

    /// Current statistics. The batch, epoch and record counts come from
    /// one published snapshot: every batch publishes one epoch, and the
    /// snapshot holds every record admitted.
    pub fn stats(&self) -> ServiceStats {
        let (epoch, corpus_len, num_groups) =
            self.shared.read(|epoch, state| (epoch, state.len(), state.partition().num_groups()));
        let (queue_depth, depth_high_water, queue_rejections, writer_failed) = {
            let q = self.shared.queue();
            (q.pending.len(), q.depth_high_water, q.rejections, q.writer_failed)
        };
        let (point_queries, query_p50_ns, query_p99_ns) = {
            let latency = &self.shared.counted().latency;
            (latency.total(), latency.quantile_ns(0.50), latency.quantile_ns(0.99))
        };
        ServiceStats {
            corpus_len,
            num_groups,
            epoch,
            batches_admitted: epoch,
            records_admitted: corpus_len as u64,
            epochs_published: epoch,
            point_queries,
            queue_rejections,
            queue_depth,
            queue_depth_high_water: depth_high_water,
            query_p50_ns,
            query_p99_ns,
            writer_failed,
        }
    }

    /// The `RunMetrics` of this service alone: every counter-backed
    /// section as counted by its admitted batches and its
    /// [`Self::query`] calls, and the `service` section from
    /// [`Self::stats`]. `timings` sums the admitted epochs: `phase1` and
    /// `phase2` their re-runs' phases, `total` each epoch from the clone of
    /// the published state to the publish of the next. `phase1.threads`
    /// and `phase2.threads` are the latest epoch's workers. The other
    /// pipeline-filled sections (`storage`, `phase1` probe telemetry,
    /// `collapse`) stay zero.
    pub fn metrics(&self) -> RunMetrics {
        let mut m = {
            let counted = self.shared.counted();
            let mut m = RunMetrics::from_tally(&counted.tally);
            m.timings = counted.timings;
            (m.phase1.threads, m.phase2.threads) = counted.threads;
            m
        };
        let s = self.stats();
        m.service = ServiceMetrics {
            batches_admitted: s.batches_admitted,
            records_admitted: s.records_admitted,
            epochs_published: s.epochs_published,
            point_queries: s.point_queries,
            queue_rejections: s.queue_rejections,
            queue_depth_high_water: s.queue_depth_high_water as u64,
            query_p50_ns: s.query_p50_ns,
            query_p99_ns: s.query_p99_ns,
        };
        m
    }

    /// Stop accepting records, drain everything already submitted, and
    /// join the writer. Idempotent; queries keep working afterwards
    /// against the final snapshot.
    pub fn shutdown(&mut self) {
        {
            let mut q = self.shared.queue();
            q.shutdown = true;
        }
        self.shared.work.notify_all();
        self.shared.space.notify_all();
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}

impl<D: Distance + Clone + 'static> Drop for DedupService<D> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Unwind guard of the writer thread. A panic inside a batch would
/// otherwise leave `in_flight` set forever: `drain` would never return and
/// `submit_wait` would block once the queue filled. On unwind the guard
/// ends ingest and wakes every waiter; the panicking batch's clone is never
/// published, so readers keep the last published snapshot. Ingest ends
/// rather than going on because the batch's records have already left the
/// queue: a later batch would publish a state that silently lacks them.
struct WriterGuard<'a, T>(&'a ServiceShared<T>);

impl<T> Drop for WriterGuard<'_, T> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let mut q = self.0.queue();
        q.shutdown = true;
        q.writer_failed = true;
        q.in_flight = false;
        drop(q);
        self.0.work.notify_all();
        self.0.space.notify_all();
        self.0.idle.notify_all();
    }
}

/// A wall time in nanoseconds, saturating.
fn nanos(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

fn writer_loop<D: Distance + Clone + 'static>(shared: Arc<ServiceShared<IncrementalDedup<D>>>) {
    let _guard = WriterGuard(&shared);
    loop {
        // Everything queued is the next epoch (module docs, point 1).
        let batch = {
            let mut q = shared.queue();
            loop {
                if !q.pending.is_empty() {
                    q.in_flight = true;
                    break std::mem::take(&mut q.pending);
                }
                if q.shutdown {
                    // Queue fully drained: safe to exit.
                    return;
                }
                q = wait(&shared.work, q);
            }
        };
        shared.space.notify_all();

        // The batch runs on a clone of the published state while readers
        // keep that one; a panic here drops the clone unpublished.
        let started = Instant::now();
        let ((next, stats), tally) = scoped(|| {
            let mut next = shared.read(|_, state| state.clone());
            let stats = next.insert_batch(batch);
            (next, stats)
        });
        let previous = shared.publish(next);
        let total = started.elapsed();
        // Outside the lock, and before `drain` can return: between batches
        // the service holds one state (unless a reader still pins this one).
        drop(previous);

        {
            let mut counted = shared.counted();
            counted.tally.absorb(&tally);
            let timings = &mut counted.timings;
            timings.phase1_ns += nanos(stats.phase1);
            timings.phase2_ns += nanos(stats.phase2);
            timings.total_ns += nanos(total);
            counted.threads = (stats.threads.0 as u64, stats.threads.1 as u64);
        }

        let mut q = shared.queue();
        q.in_flight = false;
        if q.pending.is_empty() {
            shared.idle.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criteria::Aggregation;
    use crate::pipeline::{DedupConfig, DedupOutcome, Deduplicator, IndexChoice};
    use crate::problem::CutSpec;
    use fuzzydedup_nnindex::InvertedIndexConfig;
    use fuzzydedup_textdist::{DistanceKind, EditDistance};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    fn builder() -> IncrementalDedupBuilder<EditDistance> {
        IncrementalDedup::builder(EditDistance).cut(CutSpec::Size(4)).sn_threshold(4.0)
    }

    fn corpus(n: usize) -> Vec<Vec<String>> {
        (0..n)
            .map(|i| {
                let v = if i % 3 == 0 {
                    format!("service entity {:03} kappa", i / 3)
                } else {
                    format!("service entity {:03} kappaa", i / 3)
                };
                vec![v]
            })
            .collect()
    }

    /// How many `IncrementalDedup`s the service holds: every state of one
    /// service is a clone of the first, sharing its `holders` token.
    fn states_held(service: &DedupService<impl Distance + Clone + 'static>) -> usize {
        service.with_snapshot(|_, state| Arc::strong_count(&state.holders))
    }

    #[test]
    fn service_error_display_and_source_chain() {
        let full = ServiceError::QueueFull { capacity: 8 };
        assert_eq!(full.to_string(), "ingest queue full (capacity 8)");
        assert!(full.source().is_none());

        assert_eq!(ServiceError::ShuttingDown.to_string(), "service is shutting down");
        assert_eq!(ServiceError::WriterFailed.to_string(), "service writer thread panicked");
        assert!(ServiceError::WriterFailed.source().is_none());

        let build: ServiceError = DedupError::InvalidConfig("bad cut".into()).into();
        assert_eq!(build.to_string(), "failed to build the incremental dedup state");
        let source = build.source().expect("Build carries its cause");
        assert_eq!(source.to_string(), "invalid configuration: bad cut");

        let bad = ServiceError::InvalidConfig("queue_capacity must be >= 1".into());
        assert!(bad.to_string().contains("invalid service configuration"));
    }

    #[test]
    fn spawn_rejects_invalid_configs() {
        let zero_queue = ServiceConfig::new().queue_capacity(0);
        assert!(matches!(
            DedupService::spawn(builder(), zero_queue),
            Err(ServiceError::InvalidConfig(_))
        ));
        // Builder validation errors surface through the Build variant.
        let bad_builder = builder().cut(CutSpec::Size(1));
        assert!(matches!(
            DedupService::spawn(bad_builder, ServiceConfig::new()),
            Err(ServiceError::Build(DedupError::InvalidConfig(_)))
        ));
    }

    /// The batch pipeline under `builder()`'s parameters and `index`.
    fn batch_run(records: &[Vec<String>], index: InvertedIndexConfig) -> DedupOutcome {
        let config = DedupConfig::new(DistanceKind::EditDistance)
            .cut(CutSpec::Size(4))
            .aggregation(Aggregation::Max)
            .sn_threshold(4.0)
            .index_choice(IndexChoice::Inverted(index));
        Deduplicator::new(config).run_records(records).unwrap()
    }

    #[test]
    fn drain_identity_matches_batch_pipeline() {
        // 30 entities × (1 kappa + 2 kappaa): exact repeats.
        let records = corpus(90);
        // The default index; a candidate cap that binds at this size; and
        // the collapse pre-pass, which bumps representative multiplicities
        // instead of re-indexing and must still match the collapse-off
        // batch pipeline on every surface.
        let capped = InvertedIndexConfig { candidate_limit: 4, ..Default::default() };
        let inputs = [
            (InvertedIndexConfig::default(), None),
            (capped, None),
            (InvertedIndexConfig::default(), Some(crate::collapse::CollapseKey::RecordString)),
        ];
        for (index, collapse) in inputs {
            let what = format!("candidate_limit {}, {collapse:?}", index.candidate_limit);
            let mut service = DedupService::spawn(
                builder().index_config(index.clone()).collapse(collapse),
                ServiceConfig::new().queue_capacity(16),
            )
            .unwrap();
            for r in records.clone() {
                service.submit_wait(r).unwrap();
            }
            service.drain();
            let batch = batch_run(&records, index);
            let (_, live) = service.snapshot_partition();
            assert_eq!(live, batch.partition, "{what}: service-after-drain must equal batch");
            let live_reln = service.with_snapshot(|_, state| state.nn_reln());
            assert_eq!(live_reln, batch.nn_reln, "{what}: full-corpus relation must match too");
            assert_eq!(states_held(&service), 1, "between batches the service holds one state");
            // Point queries answer in full-corpus ids: an indexed record's
            // own text hits at distance 0 (possibly via an identical twin).
            for record in records.iter().step_by(13) {
                let fields: Vec<&str> = record.iter().map(String::as_str).collect();
                let answer = service.query(&fields);
                assert_eq!(answer.corpus_len, records.len());
                let hit = answer.neighbors[0];
                assert_eq!(hit.dist, 0.0);
                assert_eq!(&records[hit.id as usize], record);
            }
            let stats = service.stats();
            assert_eq!(stats.records_admitted, records.len() as u64);
            assert_eq!(stats.corpus_len, records.len());
            // An epoch admits at most a full queue.
            assert!(stats.batches_admitted >= records.len().div_ceil(16) as u64);
            assert_eq!(stats.epochs_published, stats.epoch);
            assert!(stats.point_queries >= 7);
            assert!(stats.query_p50_ns > 0);
            service.shutdown();
            // Queries keep working after shutdown; ingest does not.
            let fields: Vec<&str> = records[0].iter().map(String::as_str).collect();
            assert_eq!(service.query(&fields).neighbors[0].id, 0);
            let late = service.submit(vec!["late".into()]);
            assert!(matches!(late, Err(ServiceError::ShuttingDown)), "{what}");
        }
    }

    #[test]
    fn each_service_counts_only_its_own_batches_and_queries() {
        let records = corpus(45);
        let probes: Vec<&Vec<String>> = records.iter().step_by(7).collect();
        let idle = DedupService::spawn(builder(), ServiceConfig::new()).unwrap();
        let busy = DedupService::spawn(builder(), ServiceConfig::new()).unwrap();
        // The same one-record batches and the same queries on a state of a
        // thread's own, while `busy`'s writer thread is admitting them.
        let ((), expected) = std::thread::scope(|s| {
            let own = s.spawn(|| {
                let mut own = builder().build().unwrap();
                scoped(|| {
                    for r in records.clone() {
                        own.insert_batch(vec![r]);
                    }
                    for probe in &probes {
                        let fields: Vec<&str> = probe.iter().map(String::as_str).collect();
                        own.query_record(&fields);
                    }
                })
            });
            // One-record batches, so the batches are the same on every run:
            // each record is drained before the next is submitted.
            for r in records.clone() {
                busy.submit_wait(r).unwrap();
                busy.drain();
            }
            own.join().unwrap()
        });
        for probe in &probes {
            let fields: Vec<&str> = probe.iter().map(String::as_str).collect();
            busy.query(&fields);
        }

        assert_eq!(idle.metrics(), RunMetrics::default(), "an idle service counted nothing");
        let mut m = busy.metrics();
        assert_eq!(m.service.records_admitted, 45);
        assert_eq!(m.service.batches_admitted, 45);
        assert_eq!(m.service.point_queries, probes.len() as u64);
        assert!(m.nnindex.lookups > 45, "{m:?}");
        // Wall times are not deterministic: only their shape is compared.
        let t = m.timings;
        assert!(t.phase1_ns > 0 && t.phase1_ns + t.phase2_ns <= t.total_ns, "{t:?}");
        // Every epoch ran both phases on at least one worker; how many
        // depends on the machine, so the comparison below leaves them out.
        assert!(m.phase1.threads >= 1 && m.phase2.threads >= 1, "{m:?}");
        (m.phase1.threads, m.phase2.threads) = (0, 0);
        assert_eq!(
            RunMetrics {
                service: ServiceMetrics::default(),
                timings: StageTimings::default(),
                ..m
            },
            RunMetrics::from_tally(&expected),
            "the service counted what the same work counts alone"
        );
    }

    #[test]
    fn queries_never_observe_torn_state_during_ingest() {
        let records = corpus(120);
        let mut service =
            DedupService::spawn(builder(), ServiceConfig::new().queue_capacity(8)).unwrap();
        let stop = AtomicBool::new(false);
        let probes: Vec<Vec<String>> = records.iter().step_by(11).cloned().collect();
        let read = |service: &DedupService<EditDistance>| {
            let mut last_epoch = 0u64;
            let mut reads = 0u64;
            // The first answer per (probe, len): (len, probe, neighbors, ng).
            let mut answers: Vec<(usize, usize, Vec<Neighbor>, f64)> = Vec::new();
            let mut last_len = vec![usize::MAX; probes.len()];
            while !stop.load(Ordering::Relaxed) {
                for (p, probe) in probes.iter().enumerate() {
                    let fields: Vec<&str> = probe.iter().map(String::as_str).collect();
                    let (epoch, len, covered, (neighbors, ng)) =
                        service.with_snapshot(|e, state| {
                            let covered: usize =
                                state.partition().groups().iter().map(Vec::len).sum();
                            let (n, ng, _) = state.query_record(&fields);
                            (e, state.len(), covered, (n, ng))
                        });
                    // Torn-state checks, all within ONE snapshot: the
                    // partition covers exactly the corpus, every neighbor id
                    // is in range, epochs are monotone.
                    assert_eq!(covered, len, "partition must cover the corpus exactly");
                    assert!(neighbors.iter().all(|nb| (nb.id as usize) < len));
                    assert!(epoch >= last_epoch, "epochs must be monotone");
                    last_epoch = epoch;
                    reads += 1;
                    if last_len[p] != len {
                        last_len[p] = len;
                        answers.push((len, p, neighbors, ng));
                    }
                }
            }
            (reads, answers)
        };
        // Beside them, `stats()` reads its counts from one snapshot, and
        // each `query()` that returned is counted once.
        let sample = || {
            let fields: Vec<&str> = probes[0].iter().map(String::as_str).collect();
            let mut queries = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let stats = service.stats();
                let batches_and_epochs = (stats.batches_admitted, stats.epochs_published);
                assert_eq!(batches_and_epochs, (stats.epoch, stats.epoch), "{stats:?}");
                assert_eq!(stats.records_admitted, stats.corpus_len as u64, "{stats:?}");
                service.query(&fields);
                queries += 1;
            }
            queries
        };
        let (per_reader, queries) = std::thread::scope(|s| {
            let readers: Vec<_> = (0..2).map(|_| s.spawn(|| read(&service))).collect();
            let sampler = s.spawn(sample);
            for r in records.clone() {
                service.submit_wait(r).unwrap();
            }
            service.drain();
            stop.store(true, Ordering::Relaxed);
            let per_reader: Vec<_> = readers
                .into_iter()
                .map(|h| h.join().expect("no reader assertion may fire"))
                .collect();
            (per_reader, sampler.join().expect("no sample may tear"))
        });
        assert!(queries > 0);
        assert_eq!(service.stats().point_queries, queries);
        let bucketed: u64 = service.shared.counted().latency.buckets.iter().sum();
        assert_eq!(bucketed, queries, "one latency per query");
        // Records are admitted in submit order, so a state of `len` records
        // holds `records[..len]`: every answer must be what a fresh state
        // loaded with that prefix in one batch answers.
        let mut prefixes: std::collections::BTreeMap<usize, IncrementalDedup<EditDistance>> =
            Default::default();
        for (reads, answers) in per_reader {
            assert!(reads > 0);
            for (len, p, neighbors, ng) in answers {
                let state = prefixes.entry(len).or_insert_with(|| {
                    let mut state = builder().build().unwrap();
                    state.insert_batch(records[..len].to_vec());
                    state
                });
                let fields: Vec<&str> = probes[p].iter().map(String::as_str).collect();
                let (want_n, want_ng, _) = state.query_record(&fields);
                assert_eq!((neighbors, ng), (want_n, want_ng), "probe {p} over {len} records");
            }
        }
        // And after the concurrent episode, drain-identity still holds.
        let batch = Deduplicator::new(
            DedupConfig::new(DistanceKind::EditDistance)
                .cut(CutSpec::Size(4))
                .aggregation(Aggregation::Max)
                .sn_threshold(4.0),
        )
        .run_records(&records)
        .unwrap();
        let (epoch, live) = service.snapshot_partition();
        assert_eq!(live, batch.partition);
        assert!(epoch > 0);
        service.shutdown();
    }

    #[test]
    fn submit_fails_fast_when_queue_full_and_submit_wait_recovers() {
        // A tiny queue against a slow admission cadence: fill it, observe
        // QueueFull, then watch submit_wait push through as space frees.
        let mut service =
            DedupService::spawn(builder(), ServiceConfig::new().queue_capacity(2)).unwrap();
        let mut rejected = 0u64;
        for i in 0..200 {
            match service.submit(vec![format!("burst record {i:03}")]) {
                Ok(()) => {}
                Err(ServiceError::QueueFull { capacity }) => {
                    assert_eq!(capacity, 2);
                    rejected += 1;
                    // The blocking flavor must eventually succeed.
                    service.submit_wait(vec![format!("burst record {i:03}")]).unwrap();
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        service.drain();
        let stats = service.stats();
        assert_eq!(stats.records_admitted, 200);
        assert_eq!(stats.queue_rejections, rejected);
        assert!(stats.queue_depth_high_water >= 1);
        service.shutdown();
    }

    #[test]
    fn a_queue_full_storm_admits_or_refuses_every_submit() {
        // Four submitters race `submit` against a two-slot queue that the
        // writer empties at most two records at a time: every call is
        // admitted or refused with the configured capacity, the counters
        // agree with what the callers saw, and the drained state is the
        // batch run's.
        let mut service =
            DedupService::spawn(builder(), ServiceConfig::new().queue_capacity(2)).unwrap();
        let (mut admitted, mut refused) = (0u64, 0u64);
        std::thread::scope(|s| {
            let service = &service;
            let submitters: Vec<_> = (0..4)
                .map(|t| {
                    s.spawn(move || {
                        (0..100)
                            .map(|i| service.submit(vec![format!("storm {t} record {i:03}")]))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in submitters {
                for outcome in handle.join().unwrap() {
                    match outcome {
                        Ok(()) => admitted += 1,
                        Err(ServiceError::QueueFull { capacity: 2 }) => refused += 1,
                        Err(other) => panic!("unexpected error: {other}"),
                    }
                }
            }
        });
        service.drain();
        assert_eq!(admitted + refused, 400);
        let stats = service.stats();
        assert_eq!(stats.records_admitted, admitted);
        assert_eq!(stats.queue_rejections, refused);
        assert_eq!(stats.corpus_len as u64, admitted);
        let (records, live) =
            service.with_snapshot(|_, state| (state.records().to_vec(), state.partition().clone()));
        assert_eq!(live, batch_run(&records, InvertedIndexConfig::default()).partition);
        service.shutdown();
    }

    const MARKER: &str = "poison";

    /// Edit distance that stops the first query it prepares on a record
    /// carrying [`MARKER`]: the calling thread (a Phase 1 worker of the
    /// writer's epoch, or a query's caller) meets the test thread at
    /// [`Self::entered`] and stays parked until [`Self::release`], holding
    /// the epoch open; then, if `panics`, that `prepare` and every later
    /// marked one panic, and a worker's panic unwinds the writer.
    #[derive(Clone)]
    struct StopsOnMarker {
        armed: Arc<AtomicBool>,
        park: Arc<[Barrier; 2]>,
        panics: bool,
    }

    impl StopsOnMarker {
        fn new(panics: bool) -> Self {
            let park = Arc::new([Barrier::new(2), Barrier::new(2)]);
            Self { armed: Arc::new(AtomicBool::new(true)), park, panics }
        }

        /// Wait until the writer is parked inside the marked batch.
        fn entered(&self) {
            self.park[0].wait();
        }

        /// Let the parked writer go on.
        fn release(&self) {
            self.park[1].wait();
        }

        /// A service over this distance holding `records`, drained.
        fn service(&self, records: &[Vec<String>], queue: usize) -> DedupService<Self> {
            let service = DedupService::spawn(
                IncrementalDedup::builder(self.clone()).cut(CutSpec::Size(4)).sn_threshold(4.0),
                ServiceConfig::new().queue_capacity(queue),
            )
            .unwrap();
            for r in records {
                service.submit_wait(r.clone()).unwrap();
            }
            service.drain();
            service
        }
    }

    impl Distance for StopsOnMarker {
        fn distance(&self, a: &[&str], b: &[&str]) -> f64 {
            EditDistance.distance(a, b)
        }
        fn admits_qgram_filter(&self) -> bool {
            EditDistance.admits_qgram_filter()
        }
        fn prepare<'a>(&'a self, query: &[&str]) -> fuzzydedup_textdist::Prepared<'a> {
            if query.iter().any(|field| field.contains(MARKER)) {
                if self.armed.swap(false, Ordering::SeqCst) {
                    self.entered();
                    self.release();
                }
                assert!(!self.panics, "injected distance panic on the marker record");
            }
            EditDistance.prepare(query)
        }
        fn compile_record(
            &self,
            fields: &[&str],
            store: &mut fuzzydedup_textdist::CompiledRecords,
        ) {
            EditDistance.compile_record(fields, store)
        }
        fn name(&self) -> &str {
            "stops-on-marker"
        }
    }

    /// Shares terms with [`corpus`], so its lookup verifies candidates.
    fn marked_record() -> Vec<String> {
        vec![format!("service entity 003 kappa {MARKER}")]
    }

    #[test]
    fn reads_never_wait_on_a_batch() {
        let records = corpus(40);
        let marker = StopsOnMarker::new(false);
        let service = marker.service(&records, 8);
        let before = service.stats();
        let (_, published) = service.snapshot_partition();
        assert_eq!(states_held(&service), 1);

        service.submit_wait(marked_record()).unwrap();
        marker.entered();
        // The writer is parked inside the batch, on its clone of the
        // published state: every read returns, at the old epoch.
        assert_eq!(states_held(&service), 2, "the published state and the batch's clone");
        let fields: Vec<&str> = records[0].iter().map(String::as_str).collect();
        let answer = service.query(&fields);
        assert_eq!((answer.epoch, answer.corpus_len), (before.epoch, records.len()));
        let read = service.with_snapshot(|epoch, state| (epoch, state.len()));
        assert_eq!(read, (before.epoch, records.len()));
        assert_eq!(service.snapshot_partition(), (before.epoch, published));
        let stats = service.stats();
        assert_eq!((stats.epoch, stats.corpus_len), (before.epoch, records.len()));
        // A read that panics holds nothing the publish needs.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            service.with_snapshot(|_, _| panic!("reader closure panic"));
        }));
        assert!(panicked.is_err());

        marker.release();
        service.drain();
        let after = service.stats();
        assert_eq!((after.epoch, after.corpus_len), (before.epoch + 1, records.len() + 1));
        assert_eq!(states_held(&service), 1, "the replaced snapshot is gone");
    }

    #[test]
    fn records_queued_during_an_epoch_are_published_as_the_next_one() {
        let records = corpus(40);
        let marker = StopsOnMarker::new(false);
        let service = marker.service(&records, 128);
        let before = service.stats();

        service.submit_wait(marked_record()).unwrap();
        marker.entered();
        // The writer is parked inside the marker's epoch: all of these
        // queue behind it, more than a 64-record admission limit would let
        // into one epoch.
        let queued = 100;
        for i in 0..queued {
            service.submit(vec![format!("queued during the epoch {i:02}")]).unwrap();
        }
        assert_eq!(service.stats().queue_depth, queued);
        marker.release();
        service.drain();

        let after = service.stats();
        assert_eq!(after.epoch, before.epoch + 2, "the marker's epoch, then one for the queue");
        assert_eq!(after.corpus_len, records.len() + 1 + queued);
    }

    #[test]
    fn writer_panic_fails_ingest_and_keeps_the_published_epoch() {
        let records = corpus(40);
        let marker = StopsOnMarker::new(true);
        let service = marker.service(&records, 2);
        let before = service.stats();
        assert_eq!(before.corpus_len, records.len());
        assert!(!before.writer_failed);
        let (_, published) = service.snapshot_partition();

        // Park the writer inside the marked batch, fill the queue behind
        // it, and park submitters on the full queue; then let the writer
        // panic. Before the unwind guard a dead writer left them blocked
        // forever.
        service.submit_wait(marked_record()).unwrap();
        marker.entered();
        for i in 0..2 {
            service.submit(vec![format!("queued behind the marker {i}")]).unwrap();
        }
        std::thread::scope(|s| {
            let service = &service;
            let parked: Vec<_> = (0..3)
                .map(|i| s.spawn(move || service.submit_wait(vec![format!("parked {i}")])))
                .collect();
            // The queue stays full while the writer is parked, so the sleep
            // cannot make a correct service fail; it only lets the
            // submitters reach the condvar before the panic.
            std::thread::sleep(std::time::Duration::from_millis(50));
            marker.release();
            for handle in parked {
                let refused = handle.join().unwrap();
                assert!(matches!(refused, Err(ServiceError::WriterFailed)), "{refused:?}");
            }
        });
        // ... and this never returned, `in_flight` being left set.
        service.drain();
        assert!(matches!(service.submit(vec!["late".into()]), Err(ServiceError::WriterFailed)));

        // Readers keep the last published epoch: the panicking batch's
        // clone was dropped unpublished.
        let after = service.stats();
        assert!(after.writer_failed);
        assert_eq!(after.epoch, before.epoch);
        assert_eq!(after.corpus_len, records.len());
        assert_eq!(service.snapshot_partition(), (before.epoch, published));
        assert_eq!(states_held(&service), 1);
        let fields: Vec<&str> = records[0].iter().map(String::as_str).collect();
        let answer = service.query(&fields);
        assert_eq!(answer.epoch, before.epoch);
        assert_eq!(answer.neighbors[0].dist, 0.0);
        // Dropping the service joins the dead writer without hanging.
    }

    #[test]
    fn a_query_whose_distance_panics_unwinds_to_its_caller() {
        let records = corpus(40);
        let marker = StopsOnMarker::new(true);
        // Disarmed: a marked `prepare` panics at once instead of parking.
        marker.armed.store(false, Ordering::SeqCst);
        let service = marker.service(&records, 8);
        let before = service.stats();
        let marked = marked_record();
        let fields: Vec<&str> = marked.iter().map(String::as_str).collect();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            service.query(&fields);
        }));
        let payload = unwound.expect_err("the distance's panic reaches the caller");
        let message = payload
            .downcast_ref::<&str>()
            .map(|m| m.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned());
        assert_eq!(message.as_deref(), Some("injected distance panic on the marker record"));

        // The service goes on: queries, `submit_wait` and `drain` work, and
        // the next batch publishes the next epoch.
        let fields: Vec<&str> = records[0].iter().map(String::as_str).collect();
        let answer = service.query(&fields);
        assert_eq!((answer.epoch, answer.neighbors[0].dist), (before.epoch, 0.0));
        service.submit_wait(vec!["admitted after the panic".into()]).unwrap();
        service.drain();
        let after = service.stats();
        assert!(!after.writer_failed);
        assert_eq!((after.epoch, after.corpus_len), (before.epoch + 1, records.len() + 1));
        assert_eq!(after.point_queries, 1, "a query that unwound is not counted");
        assert_eq!(service.query(&fields).epoch, after.epoch);
    }

    #[test]
    fn num_groups_is_the_published_partitions_and_the_batch_runs() {
        let records = corpus(60); // 20 entities, 3 records each
        let mut service =
            DedupService::spawn(builder(), ServiceConfig::new().queue_capacity(7)).unwrap();
        for r in records.clone() {
            service.submit_wait(r).unwrap();
        }
        service.drain();
        let stats = service.stats();
        let (_, published) = service.snapshot_partition();
        let batch = batch_run(&records, InvertedIndexConfig::default()).partition;
        assert_eq!(stats.num_groups, published.num_groups());
        assert_eq!(stats.num_groups, batch.num_groups());
        service.shutdown();
    }
}
