//! Traffic replay over the long-running dedup service.
//!
//! Drives a [`DedupService`] with a mixed ingest/query workload over the
//! synthetic Org corpus — the service-shaped counterpart of
//! `exp_scale_1m`'s batch scale-out. One replay:
//!
//! 1. generates `records` Org rows (same `82/100` entity inflation and
//!    seed as the scale driver, so corpora are comparable across
//!    experiments);
//! 2. submits every record through the bounded ingest queue
//!    (`submit_wait`, i.e. backpressure-respecting) while interleaving
//!    point queries at `query_ratio` queries per op, probing the text of
//!    already-generated records — queries run against the published
//!    epoch snapshot while the writer admits batches concurrently;
//! 3. optionally paces the op stream to `qps` operations per second;
//! 4. drains, then reports exact point-query latency quantiles (computed
//!    from every recorded request, not the service's coarse log2
//!    histogram), the final partition for identity checks, and a
//!    `RunMetrics` with the `service` section filled in.
//!
//! The replay itself is deterministic given the config (corpus seed,
//! interleave pattern, probe choice); only the measured latencies vary
//! run to run.

use std::time::{Duration, Instant};

use fuzzydedup_core::{
    CutSpec, DedupService, IncrementalDedup, Partition, ServiceConfig, ServiceError, ServiceStats,
};
use fuzzydedup_datagen::{org, DatasetSpec};
use fuzzydedup_metrics::RunMetrics;
use fuzzydedup_textdist::EditDistance;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Replay workload shape.
#[derive(Debug, Clone, Copy)]
pub struct ReplayConfig {
    /// Org records to generate and ingest.
    pub records: usize,
    /// Bounded ingest-queue capacity ([`ServiceConfig::queue_capacity`]),
    /// which also bounds an epoch: the writer admits all that is queued.
    pub queue_capacity: usize,
    /// Point queries issued per operation, as a fraction of total ops in
    /// `[0, 1)` — e.g. `0.3` ≈ 30% of the op stream are queries.
    pub query_ratio: f64,
    /// Total operations (ingest + query) per second; `0` = unpaced.
    pub qps: u64,
    /// RNG seed for probe selection (corpus seed is fixed at 42 to match
    /// `exp_scale_1m`).
    pub seed: u64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self { records: 10_000, queue_capacity: 1024, query_ratio: 0.3, qps: 0, seed: 7 }
    }
}

/// Everything one replay produced.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// The generated corpus, in submission order.
    pub records: Vec<Vec<String>>,
    /// Final (post-drain) partition from the service snapshot.
    pub partition: Partition,
    /// Final service statistics.
    pub stats: ServiceStats,
    /// Run metrics with the `service` section filled (exact quantiles).
    pub metrics: RunMetrics,
    /// Wall-clock of the whole mixed phase, submit of the first record to
    /// drain completion (ns).
    pub replay_wall_ns: u64,
}

/// Exact quantile over an ascending-sorted latency slice (0 if empty).
fn percentile_ns(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Generate the Org corpus used by the replay (the scale driver's shape:
/// seed 42, `records * 82 / 100` entities, truncated to `records`).
pub fn org_corpus(records: usize) -> Vec<Vec<String>> {
    let entities = (records * 82 / 100).max(1);
    let mut rng = StdRng::seed_from_u64(42);
    let dataset =
        org::generate(&mut rng, DatasetSpec { n_entities: entities, ..DatasetSpec::medium() });
    let mut out = dataset.records;
    assert!(out.len() >= records, "need {records} Org records, got {}", out.len());
    out.truncate(records);
    out
}

/// Run one traffic replay; see module docs. The service is configured
/// with `EditDistance` + `DE_S(4)` / `Max` / `c = 4` — the same knobs the
/// drain-identity suite pins, so callers can cheaply verify the final
/// partition against a from-scratch batch run.
///
/// # Errors
/// [`ServiceError::InvalidConfig`] for a zero `queue_capacity` (passed
/// to the service as given), and
/// [`ServiceError::WriterFailed`] if the service's writer thread panicked
/// at any point of the replay — the drained partition would be short.
pub fn replay(config: ReplayConfig) -> Result<ReplayOutcome, ServiceError> {
    assert!((0.0..1.0).contains(&config.query_ratio), "query_ratio must be in [0, 1)");
    let records = org_corpus(config.records);
    let service_config = ServiceConfig::new().queue_capacity(config.queue_capacity);
    // The service `fuzzydedup replay` and the repo benchmark's
    // `service_replay` ship: the builder's defaults under the cut and
    // threshold the drain-identity suite pins.
    let mut service = DedupService::spawn(
        IncrementalDedup::builder(EditDistance).cut(CutSpec::Size(4)).sn_threshold(4.0),
        service_config,
    )?;

    let mut rng = StdRng::seed_from_u64(config.seed);
    // Queries per ingest op: ratio r of total ops means r/(1-r) queries
    // accompany each submitted record.
    let queries_per_ingest = config.query_ratio / (1.0 - config.query_ratio);
    let pacing = (config.qps > 0).then(|| Duration::from_nanos(1_000_000_000 / config.qps));

    let mut latencies: Vec<u64> = Vec::new();
    let mut query_debt = 0.0f64;
    let mut ops = 0u64;
    let started = Instant::now();
    for (i, record) in records.iter().enumerate() {
        service.submit_wait(record.clone())?;
        ops += 1;
        query_debt += queries_per_ingest;
        while query_debt >= 1.0 {
            query_debt -= 1.0;
            // Probe the text of a record generated so far (it may or may
            // not be admitted yet — query-by-content either way).
            let probe = &records[rng.gen_range(0..=i)];
            let fields: Vec<&str> = probe.iter().map(String::as_str).collect();
            let t = Instant::now();
            let answer = service.query(&fields);
            latencies.push(t.elapsed().as_nanos().min(u64::MAX as u128) as u64);
            ops += 1;
            debug_assert!(answer.corpus_len <= records.len());
        }
        if let Some(per_op) = pacing {
            let due = per_op * ops as u32;
            let elapsed = started.elapsed();
            if due > elapsed {
                std::thread::sleep(due - elapsed);
            }
        }
    }
    service.drain();
    let replay_wall_ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;

    let stats = service.stats();
    if stats.writer_failed {
        return Err(ServiceError::WriterFailed);
    }
    let (_, partition) = service.snapshot_partition();
    let mut metrics = service.metrics();
    // Quantiles exact from the recorded requests (the in-service histogram
    // is log2-coarse).
    latencies.sort_unstable();
    metrics.service.query_p50_ns = percentile_ns(&latencies, 0.50);
    metrics.service.query_p99_ns = percentile_ns(&latencies, 0.99);
    service.shutdown();

    Ok(ReplayOutcome { records, partition, stats, metrics, replay_wall_ns })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_on_small_slices() {
        assert_eq!(percentile_ns(&[], 0.5), 0);
        assert_eq!(percentile_ns(&[7], 0.5), 7);
        assert_eq!(percentile_ns(&[7], 0.99), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&v, 0.50), 50);
        assert_eq!(percentile_ns(&v, 0.99), 99);
        assert_eq!(percentile_ns(&v, 1.0), 100);
    }

    #[test]
    fn tiny_replay_round_trips() {
        let outcome = replay(ReplayConfig {
            records: 300,
            queue_capacity: 32,
            query_ratio: 0.25,
            qps: 0,
            seed: 7,
        })
        .expect("replay");
        assert_eq!(outcome.stats.records_admitted, 300);
        assert_eq!(outcome.stats.corpus_len, 300);
        // ~1 query per 3 ingests at ratio 0.25.
        assert!(outcome.stats.point_queries >= 90);
        assert!(outcome.metrics.service.query_p50_ns > 0);
        // An epoch admits at most a full queue.
        assert!(outcome.metrics.service.batches_admitted >= 300 / 32);
        let covered: usize = outcome.partition.groups().iter().map(Vec::len).sum();
        assert_eq!(covered, 300);
    }

    #[test]
    fn a_zero_queue_is_the_services_error_not_one() {
        let config = ReplayConfig { records: 20, queue_capacity: 0, ..ReplayConfig::default() };
        let err = replay(config).expect_err("a zero size is not clamped to 1");
        assert!(matches!(err, ServiceError::InvalidConfig(_)), "{err}");
    }
}
