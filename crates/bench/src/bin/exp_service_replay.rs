//! Service replay driver: mixed ingest/query traffic against the
//! long-running dedup service, plus the drain-identity check.
//!
//! The batch pipeline's scale story is `exp_scale_1m`; this is the
//! service-shaped counterpart. It replays an Org corpus through
//! `fuzzydedup_core::DedupService` — records through the bounded ingest
//! queue, point queries against the epoch snapshot while the writer
//! admits batches — then:
//!
//! - **asserts drain-identity**: after the final drain, the service
//!   partition must be *bit-identical* to a from-scratch
//!   `Deduplicator::run_records` over the same corpus with the same knobs
//!   (`EditDistance`, `DE_S(4)`, `Max`, `c = 4`). Exits non-zero on
//!   mismatch — this is the CI `service-smoke` invariant — and on a
//!   service error (`ServiceError::WriterFailed`: the writer thread
//!   panicked, so the drained partition would be short);
//! - reports ingest ÷ batch: the mixed phase's wall time over that batch
//!   run's, with what the service counted per admitted record (lookups,
//!   postings scanned, distance calls; queries included). With
//!   `--max-ingest-ratio R` it exits non-zero when the ratio exceeds `R`;
//! - reports exact point-query latency quantiles and service throughput;
//! - emits the `RunMetrics` JSON (with the `service` and `timings_ns`
//!   sections filled) to `--out`, or stdout.
//!
//! The writer admits everything queued as one epoch and re-runs both
//! phases on every core, so `--queue-capacity` is the only admission knob:
//! it bounds an epoch. Run with e.g.:
//!
//! ```text
//! cargo run --release -p fuzzydedup-bench --bin exp_service_replay -- \
//!     --records 10000 --query-ratio 0.3 --qps 0 --max-ingest-ratio 4
//! ```
//!
//! `--records 5000 --query-ratio 0.3 --max-ingest-ratio 4` is the CI smoke
//! configuration (`scripts/ci.sh` service-smoke tier).
//! `results/exp_service_curve.txt` holds the ingest curve at `--query-ratio
//! 0 --qps 0`.

use std::process::ExitCode;
use std::time::Instant;

use fuzzydedup_bench::replay::{replay, ReplayConfig};
use fuzzydedup_core::{Aggregation, CutSpec, DedupConfig, Deduplicator};
use fuzzydedup_textdist::DistanceKind;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let mut config = ReplayConfig { records: 10_000, ..ReplayConfig::default() };
    let mut out_path: Option<String> = None;
    let mut max_ingest_ratio: Option<f64> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--records" => {
                i += 1;
                config.records = args[i].parse().expect("--records <n>");
            }
            "--queue-capacity" => {
                i += 1;
                config.queue_capacity = args[i].parse().expect("--queue-capacity <n>");
            }
            "--query-ratio" => {
                i += 1;
                config.query_ratio = args[i].parse().expect("--query-ratio <0..1>");
            }
            "--qps" => {
                i += 1;
                config.qps = args[i].parse().expect("--qps <ops/s, 0 = unpaced>");
            }
            "--seed" => {
                i += 1;
                config.seed = args[i].parse().expect("--seed <n>");
            }
            "--out" => {
                i += 1;
                out_path = Some(args[i].clone());
            }
            "--max-ingest-ratio" => {
                i += 1;
                max_ingest_ratio = Some(args[i].parse().expect("--max-ingest-ratio <ratio>"));
            }
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }

    eprintln!(
        "[exp_service_replay] replaying {} Org records (queue {}, query ratio {:.2}, qps {})...",
        config.records, config.queue_capacity, config.query_ratio, config.qps
    );
    let outcome = match replay(config) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("[exp_service_replay] SERVICE FAILURE: {e}");
            return ExitCode::FAILURE;
        }
    };
    let s = &outcome.stats;
    eprintln!(
        "[exp_service_replay] mixed phase {:.1?}: {} batches / {} records admitted over \
         {} epochs; {} point queries (p50 {} ns, p99 {} ns); queue high-water {}; \
         {} groups",
        std::time::Duration::from_nanos(outcome.replay_wall_ns),
        s.batches_admitted,
        s.records_admitted,
        s.epochs_published,
        s.point_queries,
        outcome.metrics.service.query_p50_ns,
        outcome.metrics.service.query_p99_ns,
        s.queue_depth_high_water,
        s.num_groups,
    );

    // Drain-identity: the service partition after the final drain must be
    // bit-identical to the from-scratch batch pipeline on the same corpus.
    eprintln!("[exp_service_replay] checking drain-identity against the batch pipeline...");
    let t = Instant::now();
    let batch = Deduplicator::new(
        DedupConfig::new(DistanceKind::EditDistance)
            .cut(CutSpec::Size(4))
            .aggregation(Aggregation::Max)
            .sn_threshold(4.0),
    )
    .run_records(&outcome.records)
    .expect("batch pipeline");
    let batch_s = t.elapsed().as_secs_f64();
    if outcome.partition != batch.partition {
        eprintln!(
            "[exp_service_replay] DRAIN-IDENTITY VIOLATION: service partition \
             ({} groups) != batch partition ({} groups)",
            outcome.partition.num_groups(),
            batch.partition.num_groups(),
        );
        return ExitCode::FAILURE;
    }
    eprintln!(
        "[exp_service_replay] drain-identity holds: {} groups, batch recompute took {batch_s:.2} s",
        batch.partition.num_groups(),
    );

    let ingest_s = outcome.replay_wall_ns as f64 / 1e9;
    let ratio = ingest_s / batch_s;
    let m = &outcome.metrics;
    let per_record = |count: u64| count as f64 / s.records_admitted.max(1) as f64;
    eprintln!(
        "[exp_service_replay] ingest {ingest_s:.2} s over {} epochs, batch run {batch_s:.2} s: \
         ingest / batch {ratio:.2}; per admitted record {:.1} lookups, {:.0} postings scanned, \
         {:.0} distance calls",
        s.epochs_published,
        per_record(m.nnindex.lookups),
        per_record(m.nnindex.postings_scanned),
        per_record(m.nnindex.exact_distance_calls),
    );

    let json = outcome.metrics.to_json();
    match out_path {
        Some(path) => {
            std::fs::write(&path, &json).expect("write metrics JSON");
            eprintln!("[exp_service_replay] metrics written to {path}");
        }
        None => println!("{json}"),
    }
    if let Some(bound) = max_ingest_ratio {
        if ratio > bound {
            eprintln!("[exp_service_replay] INGEST TOO SLOW: ingest / batch {ratio:.2} > {bound}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
