//! Service replay bench: point-query latency under concurrent ingest.
//!
//! Not a criterion microbench — one "sample" here is a whole traffic
//! replay (mixed ingest/query over the Org corpus), and the interesting
//! statistics are request-latency quantiles, not closure time. So this is
//! a `harness = false` main that runs `REPS` full replays and emits a
//! `BENCH_service.json` in the criterion shim's exact artifact shape:
//!
//! - `replay/point_query_p50` / `replay/point_query_p99` — exact
//!   quantiles over every point query of a replay; row value is the
//!   **min across replays** (the quiet-window reading, same semantics as
//!   `min_ns` in the criterion shim: noise only ever adds time);
//! - `replay/ingest_per_record` — mixed-phase wall clock divided by
//!   records admitted, min across replays.
//!
//! Registered in `ci_bench_gate` and refreshed via the worst-window
//! protocol (`scripts/bench_refresh.sh bench_service`).

use fuzzydedup_bench::replay::{replay, write_bench_artifact, ReplayConfig};

const REPS: usize = 3;

fn main() {
    // `cargo bench` passes `--bench`; nothing here is configurable. The
    // queue holds one batch, as in the repo benchmark's `service_replay`:
    // behind `fuzzydedup replay`'s 1,024 slots a closed-loop client runs
    // arbitrarily far ahead of the writer and the "live" percentiles swing
    // 3–8× between replays of one build (`benchmark/README.md`, "the
    // queue-1024 artifact"), which a regression gate cannot use.
    let config = ReplayConfig {
        records: 2_000,
        batch_size: 64,
        queue_capacity: 64,
        query_ratio: 0.3,
        qps: 0,
        seed: 7,
    };
    let mut p50 = u64::MAX;
    let mut p99 = u64::MAX;
    let mut ingest = u64::MAX;
    for rep in 1..=REPS {
        let outcome = replay(config).expect("replay");
        let rep_p50 = outcome.query_quantile_ns(0.50);
        let rep_p99 = outcome.query_quantile_ns(0.99);
        let rep_ingest = outcome.ingest_ns_per_record();
        eprintln!(
            "bench_service rep {rep}/{REPS}: p50 {rep_p50} ns, p99 {rep_p99} ns, \
             ingest {rep_ingest} ns/record ({} queries)",
            outcome.query_latencies_ns.len()
        );
        p50 = p50.min(rep_p50);
        p99 = p99.min(rep_p99);
        ingest = ingest.min(rep_ingest);
    }
    let rows = vec![
        ("replay/point_query_p50".to_string(), p50),
        ("replay/point_query_p99".to_string(), p99),
        ("replay/ingest_per_record".to_string(), ingest),
    ];
    let path = write_bench_artifact("service", &rows, REPS as u64);
    eprintln!("bench group \"service\" -> {}", path.display());
}
