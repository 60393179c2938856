//! The `service_replay` workload: a closed loop of one client thread that
//! streams the corpus through a `DedupService` built exactly as
//! `fuzzydedup replay` builds it, interleaving point queries on text it has
//! already submitted, then drains.

use std::time::Instant;

use fuzzydedup_core::{
    evaluate, DedupConfig, DedupService, Deduplicator, IncrementalDedup, IncrementalDedupBuilder,
    NnReln, Partition, ServiceConfig, ServiceStats,
};
use fuzzydedup_textdist::EditDistance;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::{
    another_round, end_to_end, MetricSet, Samples, MIN_ROUNDS, MIN_SETUPS, PER_LAYER,
};
use crate::retune;
use crate::stats::{median, percentile_us, ratio};
use crate::trace::Tracer;
use crate::workload::Corpus;
use crate::{peak_rss_mb, Args, Report};

/// Records admitted per `insert_batch`, the CLI's default.
const ADMIT_BATCH: usize = 64;
/// One batch of queue: the client stays at most two batches ahead of what
/// the writer has applied, so its queries are spread over the whole growth
/// of the corpus. (With the CLI's 1024 the client fills the queue in
/// milliseconds and most queries hit a near-empty index.)
const QUEUE_CAPACITY: usize = 64;
/// Records the service already holds when the clock starts, streamed in and
/// drained by the set-up. On an empty state a batch is applied faster than
/// the client refills the queue, so the writer takes whatever it finds and
/// the number of batches — each costs a pass over the corpus — changes from
/// replay to replay (7 or 8 at 400 records, 18 % of `run_s` apart). From
/// this size on an apply outlasts a refill many times over.
const PRELOAD: usize = ADMIT_BATCH;
/// Share of operations that are point queries.
const QUERY_RATIO: f64 = 0.3;
/// Corpora one untraced run replays in turn, each from a seed of its own
/// derived from `--seed`. Corpora of this size differ by 8 % in `run_s` and
/// 14–17 % in `retune_s` and `query_p90_us`, several times what the machine
/// adds; a run reports the mean over its corpora.
const CORPORA: usize = 3;
/// Passes over the retune grid after each replay (a pass takes ~20 ms).
const RETUNE_PASSES_PER_ROUND: usize = 5;
/// Point queries sent after the drain, for the quiet latency.
const QUIET_QUERIES: usize = 2000;

/// The incremental state `fuzzydedup replay` starts from: defaults plus
/// `DE_S(4)` and `c = 4`.
fn builder(args: &Args) -> IncrementalDedupBuilder<EditDistance> {
    IncrementalDedup::builder(EditDistance).cut(args.workload.cut()).sn_threshold(4.0)
}

/// One operation of the client's schedule.
enum Op {
    Submit(usize),
    Query(usize),
}

/// The seeded schedule of the timed part: every record from `preload` on
/// submitted in order, with `QUERY_RATIO / (1 − QUERY_RATIO)` queries per
/// submit, each on the text of a record submitted so far.
fn schedule(preload: usize, records: usize, seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e41);
    let queries_per_submit = QUERY_RATIO / (1.0 - QUERY_RATIO);
    let mut debt = 0.0;
    let mut ops = Vec::new();
    for i in preload..records {
        ops.push(Op::Submit(i));
        debt += queries_per_submit;
        while debt >= 1.0 {
            debt -= 1.0;
            ops.push(Op::Query(rng.gen_range(0..=i)));
        }
    }
    ops
}

struct Prepared {
    corpus: Corpus,
    /// Records the set-up streamed in; the schedule submits the rest.
    preload: usize,
    /// Batches the set-up's records were admitted in.
    preload_batches: u64,
    ops: Vec<Op>,
    service: DedupService<EditDistance>,
}

/// Set-up of one replay: the corpus, the schedule, and a started service
/// that has admitted and published the first `PRELOAD` records.
fn setup(args: &Args, seed: u64) -> Result<(Prepared, f64), String> {
    let started = Instant::now();
    let corpus = args.workload.corpus(seed, args.scale);
    let preload = PRELOAD.min(corpus.records.len() / 2);
    let ops = schedule(preload, corpus.records.len(), seed);
    let service = DedupService::spawn(
        builder(args),
        ServiceConfig::new().admit_batch_size(ADMIT_BATCH).queue_capacity(QUEUE_CAPACITY),
    )
    .map_err(|e| format!("spawn failed: {e}"))?;
    for record in &corpus.records[..preload] {
        service.submit_wait(record.clone()).map_err(|e| format!("preload failed: {e}"))?;
    }
    service.drain();
    let seconds = started.elapsed().as_secs_f64();
    let preload_batches = service.stats().batches_admitted;
    Ok((Prepared { corpus, preload, preload_batches, ops, service }, seconds))
}

/// What one replay measured.
struct Replay {
    run: u32,
    run_s: f64,
    query_ns: Vec<u64>,
    failed_ops: u64,
    partition: Partition,
    nn_reln: NnReln,
    stats: ServiceStats,
    /// Batches the timed records were admitted in.
    batches: u64,
}

/// Drive the schedule against the service: first `submit_wait` to the
/// return of `drain` is the run. Each call is a span of the tracer.
///
/// The first record is handed over alone: the client goes on only once the
/// idle writer has taken it. From then on the writer is applying a batch
/// whenever the client submits, the queue is full before the apply ends, and
/// every replay is the same batches: 1, 64, 64, …
fn replay(prepared: &Prepared, tracer: &mut Tracer) -> Replay {
    let Prepared { corpus, preload, preload_batches, ops, service } = prepared;
    let mut query_ns = Vec::new();
    let mut failed_ops = 0u64;
    let run = tracer.next_run();
    let started = Instant::now();
    tracer.span("run", |tr| {
        for op in ops {
            match *op {
                Op::Submit(i) => {
                    let record = corpus.records[i].clone();
                    let sent = tr.span("core.service.submit_wait", |_| {
                        let sent = service.submit_wait(record);
                        while i == *preload && service.stats().queue_depth > 0 {
                            std::thread::yield_now();
                        }
                        sent
                    });
                    failed_ops += u64::from(sent.is_err());
                }
                Op::Query(i) => {
                    let fields: Vec<&str> = corpus.records[i].iter().map(String::as_str).collect();
                    let t = Instant::now();
                    let answer = tr.span("core.service.query", |_| service.query(&fields));
                    query_ns.push(t.elapsed().as_nanos() as u64);
                    failed_ops += u64::from(answer.corpus_len > corpus.records.len());
                }
            }
        }
        tr.span("core.service.drain", |_| service.drain());
    });
    let run_s = started.elapsed().as_secs_f64();
    let (partition, nn_reln) =
        service.with_snapshot(|_, state| (state.partition().clone(), state.nn_reln()));
    let stats = service.stats();
    let batches = stats.batches_admitted - preload_batches;
    Replay { run, run_s, query_ns, failed_ops, partition, nn_reln, stats, batches }
}

/// The batch pipeline on the same records, under the service's knobs: what
/// the drained partition must equal.
fn batch_partition(args: &Args, corpus: &Corpus) -> Result<(Partition, f64), String> {
    let config =
        DedupConfig::new(args.workload.distance()).cut(args.workload.cut()).sn_threshold(4.0);
    let started = Instant::now();
    let outcome = Deduplicator::new(config)
        .run_records(&corpus.records)
        .map_err(|e| format!("batch reference failed: {e}"))?;
    Ok((outcome.partition, started.elapsed().as_secs_f64()))
}

/// What the direct replay measured.
struct Direct {
    insert_s: f64,
    refreshed: usize,
    inserted: usize,
    state: IncrementalDedup<EditDistance>,
}

/// The same batches applied straight to an `IncrementalDedup`, no service:
/// the preloaded records untimed, then the first record alone and the rest
/// in full batches, as the writer takes them.
fn direct_replay(
    args: &Args,
    corpus: &Corpus,
    preload: usize,
    tracer: &mut Tracer,
) -> Result<Direct, String> {
    let mut state = builder(args).build().map_err(|e| format!("incremental build failed: {e}"))?;
    let (loaded, timed) = corpus.records.split_at(preload);
    state.insert_batch(loaded.to_vec());
    let (mut refreshed, mut inserted) = (0, 0);
    tracer.next_run();
    let started = Instant::now();
    tracer.span("direct_replay", |tr| {
        let (first, rest) = timed.split_at(1);
        for batch in std::iter::once(first).chain(rest.chunks(ADMIT_BATCH)) {
            let stats =
                tr.span("core.incremental.insert_batch", |_| state.insert_batch(batch.to_vec()));
            refreshed += stats.refreshed;
            inserted += stats.inserted;
        }
    });
    Ok(Direct { insert_s: started.elapsed().as_secs_f64(), refreshed, inserted, state })
}

/// The identity checks of a drained replay, outside the clock.
fn check_drain(
    args: &Args,
    report: &mut Report,
    corpus: &Corpus,
    drained: &Partition,
    direct: &Direct,
) -> Result<f64, String> {
    let (batch, batch_s) = batch_partition(args, corpus)?;
    report.check("drained partition equals the batch pipeline's", *drained == batch);
    report.check(
        "drained partition equals a direct insert_batch replay",
        drained == direct.state.partition(),
    );
    Ok(batch_s)
}

/// One corpus of the untraced run: its seed, the samples of its rounds, and
/// its latest replay.
struct Lane {
    seed: u64,
    samples: Samples,
    last: Option<Replay>,
}

/// The untraced run: end-to-end metrics. The measuring time is spent in
/// rounds of one set-up, one replay and a few passes over the retune grid,
/// the corpora taking turns.
pub fn run_untraced(args: &Args, report: &mut Report) -> Result<MetricSet, String> {
    // The first corpus is the traced run's; the others have seeds of their own.
    let mut lanes: Vec<Lane> = (0..CORPORA as u64)
        .map(|k| Lane {
            seed: args.seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            samples: Samples::default(),
            last: None,
        })
        .collect();
    let mut tracer = Tracer::new(false);
    let mut rounds = 0;
    let started = Instant::now();
    while another_round(
        rounds,
        MIN_ROUNDS.max(CORPORA),
        started.elapsed().as_secs_f64(),
        args.seconds,
    ) {
        let lane = &mut lanes[rounds % CORPORA];
        let (prepared, setup_s) = setup(args, lane.seed)?;
        lane.samples.setup_s.push(setup_s);
        let run = replay(&prepared, &mut tracer);
        report.attempted += (prepared.preload + prepared.ops.len()) as u64;
        report.failed += run.failed_ops;
        lane.samples.run_s.push(run.run_s);
        lane.samples.push_queries(&run.query_ns);
        if let Some(earlier) = &lane.last {
            report
                .check("every rep produces the same partition", earlier.partition == run.partition);
        }
        for pass in retune::passes(args.workload, &run.nn_reln, RETUNE_PASSES_PER_ROUND)? {
            lane.samples.retune_s.push(pass.total_s);
        }
        lane.last = Some(run);
        rounds += 1;
        // Dropping `prepared` joins the replay's writer thread.
    }
    for extra in rounds..MIN_SETUPS.max(rounds) {
        let lane = &mut lanes[extra % CORPORA];
        lane.samples.setup_s.push(setup(args, lane.seed)?.1);
    }
    let peak_rss = peak_rss_mb();

    let mut f1_sum = 0.0;
    let mut per_corpus = Vec::new();
    for lane in lanes {
        let last = lane.last.expect("every corpus had a round");
        let corpus = args.workload.corpus(lane.seed, args.scale);
        let preload = PRELOAD.min(corpus.records.len() / 2);
        let direct = direct_replay(args, &corpus, preload, &mut tracer)?;
        check_drain(args, report, &corpus, &last.partition, &direct)?;
        report.check(
            "every record was admitted",
            last.stats.records_admitted == corpus.records.len() as u64,
        );
        let f1 = evaluate(&last.partition, &corpus.gold).f1();
        report.check("pair_f1 is finite and positive", f1.is_finite() && f1 > 0.0);
        f1_sum += f1;
        eprintln!(
            "[{}] seed {}: {} records ({preload} preloaded), {} replays of {} queries under \
             ingest and {} batches",
            args.workload.name(),
            lane.seed,
            corpus.records.len(),
            lane.samples.run_s.len(),
            last.query_ns.len(),
            last.batches,
        );
        per_corpus.push(lane.samples);
    }
    Ok(end_to_end(report, per_corpus, peak_rss, f1_sum / CORPORA as f64))
}

/// The traced run: per-layer metrics of the service and the incremental
/// state under it.
pub fn run_traced(
    args: &Args,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<MetricSet, String> {
    // One untraced replay for the wall time tracing is compared against.
    let (prepared, _) = setup(args, args.seed)?;
    let untraced = replay(&prepared, &mut Tracer::new(false));
    report.attempted += prepared.ops.len() as u64;
    report.failed += untraced.failed_ops;

    let mut run_samples = Vec::new();
    let mut coverage = Vec::new();
    let mut kept: Option<(Prepared, Replay)> = None;
    let started = Instant::now();
    while run_samples.is_empty() || started.elapsed().as_secs_f64() < args.seconds * 0.5 {
        drop(kept.take()); // joins the previous replay's writer thread
        let (prepared, _) = setup(args, args.seed)?;
        let run = replay(&prepared, tracer);
        report.attempted += prepared.ops.len() as u64;
        report.failed += run.failed_ops;
        report.check("every rep produces the same partition", run.partition == untraced.partition);
        run_samples.push(run.run_s);
        coverage.push(tracer.coverage(run.run));
        kept = Some((prepared, run));
    }
    let (prepared, last) = kept.expect("at least one traced replay ran");
    let run_s = median(&run_samples);

    // Quiet latency: the drained service, nothing being admitted.
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x9e7);
    let records = &prepared.corpus.records;
    let mut quiet_ns = Vec::with_capacity(QUIET_QUERIES);
    let mut direct_query_ns = Vec::with_capacity(QUIET_QUERIES);
    let direct = direct_replay(args, &prepared.corpus, prepared.preload, tracer)?;
    for _ in 0..QUIET_QUERIES {
        let fields: Vec<&str> =
            records[rng.gen_range(0..records.len())].iter().map(String::as_str).collect();
        let t = Instant::now();
        std::hint::black_box(prepared.service.query(&fields));
        quiet_ns.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        std::hint::black_box(direct.state.query_record(&fields));
        direct_query_ns.push(t.elapsed().as_nanos() as u64);
    }
    let batch_s = check_drain(args, report, &prepared.corpus, &last.partition, &direct)?;

    let mut m = MetricSet::new(PER_LAYER);
    m.set("incremental.insert_batch_s", direct.insert_s);
    m.set(
        "incremental.refreshed_per_inserted",
        ratio(direct.refreshed as f64, direct.inserted as f64),
    );
    m.set("incremental.query_record_p50_us", percentile_us(&direct_query_ns, 0.50));
    m.set(
        "service.submit_wait_p99_us",
        percentile_us(&tracer.durations_ns("core.service.submit_wait"), 0.99),
    );
    m.set("service.drain_s", percentile_us(&tracer.durations_ns("core.service.drain"), 0.50) / 1e6);
    m.set("service.batches", last.batches as f64);
    m.set("service.epochs", last.stats.epochs_published as f64);
    m.set("service.queue_depth_high_water", last.stats.queue_depth_high_water as f64);
    m.set("service.query_p99_us", percentile_us(&tracer.durations_ns("core.service.query"), 0.99));
    m.set("service.query_quiet_p50_us", percentile_us(&quiet_ns, 0.50));
    m.set("service.apply_ratio", ratio(run_s, direct.insert_s));
    m.set("service.ingest_vs_batch_ratio", ratio(run_s, batch_s));
    m.set("trace.coverage", median(&coverage));
    m.set("trace.overhead_ratio", ratio(run_s, untraced.run_s));

    eprintln!(
        "[{}] {} records: untraced replay {:.3} s, {} traced of {:.3} s, direct insert_batch {:.3} s, \
         batch pipeline {:.3} s",
        args.workload.name(),
        records.len(),
        untraced.run_s,
        run_samples.len(),
        run_s,
        direct.insert_s,
        batch_s
    );
    Ok(m)
}
