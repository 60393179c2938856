//! The three batch workloads.
//!
//! The untraced run goes through the public facade
//! (`Deduplicator::run_records_with_pool`, CSV text in, CSV text out) and
//! yields the end-to-end metrics. The traced run is the same pipeline
//! assembled here from each layer's public functions, one span per call; it
//! yields the per-layer metrics and must produce the facade's partition bit
//! for bit.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fuzzydedup_core::{
    compute_nn_reln_parallel, evaluate, minimality::enforce_minimality, partition_entries_parallel,
    partition_via_tables, read_nn_reln, spill_nn_reln, CollapseMap, DedupOutcome, DedupService,
    Deduplicator, IncrementalDedup, NeighborSpec, NnReln, Partition, Phase1Stats, ServiceConfig,
};
use fuzzydedup_datagen::csvio::{parse_csv, write_csv};
use fuzzydedup_nnindex::{InvertedIndex, LookupSpec, NnIndex};
use fuzzydedup_storage::{BufferPool, BufferStats, HeapFile, PAGE_SIZE};
use fuzzydedup_textdist::{Distance, DistanceKind, EditDistance, FuzzyMatchDistance, IdfModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::{
    another_round, end_to_end, MetricSet, Samples, MIN_ROUNDS, MIN_SETUPS, PER_LAYER,
};
use crate::retune::{self, RetunePass};
use crate::stats::{median, ratio};
use crate::trace::Tracer;
use crate::workload::{Corpus, Workload, QUERY_CORPUS, THREADS};
use crate::{peak_rss_mb, Args, Report};

/// Point queries in one block sent to the quiet services.
const QUERY_BLOCK: usize = 600;
/// Quiet services a block is spread over.
const QUERY_SERVICES: usize = 3;
/// Passes over the retune grid in a traced run.
const TRACED_RETUNE_PASSES: usize = 5;
/// Distance evaluations timed for `textdist.pair_ns`.
const PAIR_SAMPLE: usize = 100_000;
/// The probe pass looks up every this-many-th record.
const PROBE_STRIDE: usize = 16;

/// One run's inputs, made before its clock starts.
struct Prepared {
    corpus: Corpus,
    input_text: String,
    pool: Arc<BufferPool>,
    db_path: PathBuf,
}

impl Drop for Prepared {
    fn drop(&mut self) {
        // Only `org_dup_collapse_spill` creates the file.
        let _ = std::fs::remove_file(&self.db_path);
    }
}

/// Set-up of one run: generate the corpus from the seed, render it as CSV
/// text, and create the buffer pool (with its database file, if any).
fn setup(args: &Args) -> (Prepared, f64) {
    /// Database files made by this process so far; keeps their names apart.
    static DB_FILES: AtomicUsize = AtomicUsize::new(0);
    let started = Instant::now();
    let corpus = args.workload.corpus(args.seed, args.scale);
    let mut rows: Vec<Vec<&str>> = Vec::with_capacity(corpus.records.len() + 1);
    rows.push(corpus.header.iter().map(String::as_str).collect());
    rows.extend(corpus.records.iter().map(|r| r.iter().map(String::as_str).collect::<Vec<_>>()));
    let input_text = write_csv(&rows);
    drop(rows);
    let db_path = args.out_dir.join(format!(
        "{}.{}.{}.db",
        args.workload.name(),
        std::process::id(),
        DB_FILES.fetch_add(1, Ordering::Relaxed)
    ));
    let pool = args.workload.make_pool(&db_path);
    let seconds = started.elapsed().as_secs_f64();
    (Prepared { corpus, input_text, pool, db_path }, seconds)
}

/// Split parsed CSV rows into the header and the records.
fn split_header(mut rows: Vec<Vec<String>>) -> Result<(Vec<String>, Vec<Vec<String>>), String> {
    if rows.is_empty() {
        return Err("input CSV has no header row".into());
    }
    let header = rows.remove(0);
    Ok((header, rows))
}

/// The output CSV: the input rows with a trailing `group_id` column.
fn render_output(header: &[String], records: &[Vec<String>], partition: &Partition) -> String {
    let mut rows: Vec<Vec<String>> = Vec::with_capacity(records.len() + 1);
    let mut out_header = header.to_vec();
    out_header.push("group_id".to_string());
    rows.push(out_header);
    for (id, record) in records.iter().enumerate() {
        let mut row = record.clone();
        row.push(partition.group_index_of(id as u32).to_string());
        rows.push(row);
    }
    write_csv(&rows)
}

struct FacadeRun {
    run_s: f64,
    outcome: DedupOutcome,
    output_text: String,
}

/// The timed end-to-end run: CSV text in, CSV text with `group_id` out.
fn facade_run(w: Workload, input_text: &str, pool: Arc<BufferPool>) -> Result<FacadeRun, String> {
    let started = Instant::now();
    let (header, records) = split_header(parse_csv(input_text)?)?;
    let outcome = Deduplicator::new(w.dedup_config())
        .run_records_with_pool(&records, pool)
        .map_err(|e| format!("pipeline failed: {e}"))?;
    let output_text = render_output(&header, &records, &outcome.partition);
    let run_s = started.elapsed().as_secs_f64();
    Ok(FacadeRun { run_s, outcome, output_text })
}

/// What the staged run leaves behind for the checks and the probe pass.
struct StagedRun {
    run: u32,
    partition: Partition,
    output_text: String,
    phase1_stats: Phase1Stats,
    index: InvertedIndex<Box<dyn Distance>>,
    spec: NeighborSpec,
    /// `(classes, full-corpus records)` when the collapse pre-pass ran.
    collapse: Option<(usize, usize)>,
    pool_stats: BufferStats,
    pool_frames: usize,
}

/// The same pipeline as [`facade_run`], assembled from the layers' public
/// functions in the facade's order, one span around each call.
fn staged_run(
    w: Workload,
    input_text: &str,
    pool: Arc<BufferPool>,
    tracer: &mut Tracer,
) -> Result<StagedRun, String> {
    let config = w.dedup_config();
    let run = tracer.next_run();
    tracer.span("run", |tr| {
        let (header, records) =
            split_header(tr.span("datagen.csv_parse", |_| parse_csv(input_text))?)?;
        let distance = tr.span("textdist.build", |_| config.distance.build(&records));
        let map = w
            .collapse()
            .map(|key| tr.span("core.collapse.build", |_| CollapseMap::build(&records, key)));
        let index = tr.span("nnindex.build", |_| match &map {
            Some(map) => InvertedIndex::build_collapsed(
                map.rep_records(&records),
                map.multiplicities().to_vec(),
                distance,
                pool.clone(),
                w.index_config(),
            ),
            None => {
                InvertedIndex::build(records.to_vec(), distance, pool.clone(), w.index_config())
            }
        });
        pool.reset_stats(); // lookups and Phase-2 tables, not the build
        let spec = NeighborSpec::from_cut(&config.cut, records.len());
        let (mut nn_reln, phase1_stats) =
            tr.span("core.phase1", |_| compute_nn_reln_parallel(&index, spec, config.p, THREADS));
        if let Some(map) = &map {
            let sibling_visible: Vec<bool> =
                (0..map.n_reps() as u32).map(|r| index.record_has_terms(r)).collect();
            nn_reln = tr.span("core.collapse.expand", |_| {
                map.expand_reln(&nn_reln, spec, &sibling_visible)
            });
        }
        if config.spill_threshold > 0 && records.len() >= config.spill_threshold {
            let file = HeapFile::create(pool.clone());
            tr.span("core.spill.write", |_| spill_nn_reln(&nn_reln, &file))
                .map_err(|e| format!("spill write failed: {e}"))?;
            nn_reln = tr
                .span("core.spill.read", |_| read_nn_reln(&file))
                .map_err(|e| format!("spill read failed: {e}"))?;
        }
        let mut partition = tr.span("core.phase2", |_| {
            if config.via_tables {
                partition_via_tables(&nn_reln, config.cut, config.agg, config.c, pool.clone())
                    .map_err(|e| format!("phase 2 via tables failed: {e}"))
            } else {
                Ok(partition_entries_parallel(&nn_reln, config.cut, config.agg, config.c, THREADS))
            }
        })?;
        if config.minimality {
            partition = tr.span("core.minimality", |_| enforce_minimality(&nn_reln, &partition));
        }
        let output_text =
            tr.span("datagen.csv_write", |_| render_output(&header, &records, &partition));
        Ok(StagedRun {
            run,
            partition,
            output_text,
            phase1_stats,
            index,
            spec,
            collapse: map.as_ref().map(|m| (m.n_reps(), m.n_full())),
            pool_stats: pool.stats(),
            pool_frames: pool.capacity(),
        })
    })
}

/// Sends one point query and returns the corpus size the answer saw. Owns
/// the service; dropping it joins the writer thread.
type Ask = Box<dyn Fn(&[&str]) -> usize>;

/// Quiet services, each holding its own [`QUERY_CORPUS`] consecutive
/// records of the workload's corpus under the workload's distance, cut and
/// collapse key, which answer point queries by content in blocks. Which
/// records a service holds moves its 90th percentile by 15 % from corpus to
/// corpus; a block over [`QUERY_SERVICES`] of them moves half as much.
struct QuietServices {
    services: Vec<(Ask, Vec<Vec<String>>)>,
    seed: u64,
}

impl QuietServices {
    fn start(w: Workload, records: &[Vec<String>], seed: u64) -> Result<Self, String> {
        let services = records
            .chunks(QUERY_CORPUS)
            .take(QUERY_SERVICES)
            .map(|held| {
                let ask = match w.distance() {
                    DistanceKind::FuzzyMatch => Self::spawn(
                        FuzzyMatchDistance::new(IdfModel::fit_records(records)),
                        w,
                        held,
                    )?,
                    _ => Self::spawn(EditDistance, w, held)?,
                };
                Ok((ask, held.to_vec()))
            })
            .collect::<Result<_, String>>()?;
        Ok(Self { services, seed })
    }

    fn spawn<D: Distance + Clone + 'static>(
        distance: D,
        w: Workload,
        held: &[Vec<String>],
    ) -> Result<Ask, String> {
        let service = DedupService::spawn(
            IncrementalDedup::builder(distance)
                .cut(w.cut())
                .sn_threshold(4.0)
                .collapse(w.collapse()),
            ServiceConfig::new().admit_batch_size(64).queue_capacity(128),
        )
        .map_err(|e| format!("spawn of the query service failed: {e}"))?;
        for record in held {
            service.submit_wait(record.clone()).map_err(|e| format!("submit failed: {e}"))?;
        }
        service.drain();
        Ok(Box::new(move |fields| service.query(fields).corpus_len))
    }

    /// Latencies in nanoseconds of one block of [`QUERY_BLOCK`] queries, the
    /// services taking turns, each on the text of a held record chosen by
    /// the seeded generator. Every block sends the same queries, so blocks
    /// time the same work.
    fn block(&self) -> Result<Vec<u64>, String> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x51ee7);
        let mut latencies = Vec::with_capacity(QUERY_BLOCK);
        for (ask, held) in self.services.iter().cycle().take(QUERY_BLOCK) {
            let probe = &held[rng.gen_range(0..held.len())];
            let fields: Vec<&str> = probe.iter().map(String::as_str).collect();
            let t = Instant::now();
            let seen = ask(&fields);
            latencies.push(t.elapsed().as_nanos() as u64);
            if seen != held.len() {
                return Err(format!("query saw {seen} of {} records", held.len()));
            }
        }
        Ok(latencies)
    }
}

/// The checks every batch run makes on its output, outside the clock.
fn check_output(
    report: &mut Report,
    prepared: &Prepared,
    partition: &Partition,
    output_text: &str,
) -> f64 {
    let n = prepared.corpus.records.len();
    let covered: usize = partition.groups().iter().map(Vec::len).sum();
    report.check("partition covers every record once", partition.n() == n && covered == n);
    let group_column_ok = match parse_csv(output_text) {
        Ok(rows) => {
            rows.len() == n + 1
                && rows[0].last().map(String::as_str) == Some("group_id")
                && rows[1..].iter().enumerate().all(|(id, row)| {
                    row.last().and_then(|g| g.parse::<usize>().ok())
                        == Some(partition.group_index_of(id as u32))
                })
        }
        Err(_) => false,
    };
    report.check("output CSV carries the partition's group ids", group_column_ok);
    let f1 = evaluate(partition, &prepared.corpus.gold).f1();
    report.check("pair_f1 is finite and positive", f1.is_finite() && f1 > 0.0);
    f1
}

/// The untraced run: end-to-end metrics through the facade. The measuring
/// time is spent in rounds of one set-up, one run, one pass over the retune
/// grid and one block of point queries, so that every metric has samples
/// from the whole length of the run.
pub fn run_untraced(args: &Args, report: &mut Report) -> Result<MetricSet, String> {
    let w = args.workload;
    let mut samples = Samples::default();
    let quiet = QuietServices::start(w, &w.corpus(args.seed, args.scale).records, args.seed)?;
    // The first rep's partition is the reference for the others; only the
    // latest rep's full outcome stays resident, as in a single run.
    let mut reference: Option<Partition> = None;
    let mut kept: Option<(Prepared, FacadeRun)> = None;
    let started = Instant::now();
    while another_round(
        samples.run_s.len(),
        MIN_ROUNDS,
        started.elapsed().as_secs_f64(),
        args.seconds,
    ) {
        drop(kept.take());
        let (prepared, setup_s) = setup(args);
        samples.setup_s.push(setup_s);
        report.attempted += prepared.corpus.records.len() as u64;
        let run = facade_run(w, &prepared.input_text, prepared.pool.clone())?;
        samples.run_s.push(run.run_s);
        match &reference {
            Some(first) => report
                .check("every rep produces the same partition", *first == run.outcome.partition),
            None => reference = Some(run.outcome.partition.clone()),
        }
        samples.retune_s.push(retune::retune_pass(w, &run.outcome.nn_reln)?.total_s);
        samples.push_queries(&quiet.block()?);
        kept = Some((prepared, run));
    }
    while samples.setup_s.len() < MIN_SETUPS {
        samples.setup_s.push(setup(args).1);
    }
    drop(quiet);
    let peak_rss = peak_rss_mb();
    let (prepared, facade) = kept.expect("at least one round ran");

    let f1 = check_output(report, &prepared, &facade.outcome.partition, &facade.output_text);
    // The CSV pair of the run, for the smoke run's CLI ≡ library check.
    let stem = args.out_dir.join(w.name());
    std::fs::write(stem.with_extension("input.csv"), &prepared.input_text)
        .and_then(|()| std::fs::write(stem.with_extension("output.csv"), &facade.output_text))
        .map_err(|e| format!("cannot write the run's CSV pair: {e}"))?;
    let (staged_input, _) = setup(args);
    let staged = staged_run(
        w,
        &staged_input.input_text,
        staged_input.pool.clone(),
        &mut Tracer::new(false),
    )?;
    report.check(
        "staged partition equals the facade's",
        staged.partition == facade.outcome.partition && staged.output_text == facade.output_text,
    );

    eprintln!(
        "[{}] {} records, {} rounds of run, retune and {QUERY_BLOCK} quiet queries",
        w.name(),
        prepared.corpus.records.len(),
        samples.run_s.len(),
    );
    Ok(end_to_end(report, vec![samples], peak_rss, f1))
}

/// Costs of single lookups, from a single-threaded pass over every
/// [`PROBE_STRIDE`]-th record of the staged run's index.
struct Probe {
    lookups: f64,
    candgen_us: f64,
    lookup_us: f64,
    candidates: f64,
    verified: f64,
    returned: f64,
}

fn probe_pass(staged: &StagedRun, p: f64) -> Probe {
    let spec = match staged.spec {
        NeighborSpec::TopK(k) => LookupSpec::TopK(k),
        NeighborSpec::Radius(theta) => LookupSpec::Radius(theta),
    };
    let mut probe = Probe {
        lookups: 0.0,
        candgen_us: 0.0,
        lookup_us: 0.0,
        candidates: 0.0,
        verified: 0.0,
        returned: 0.0,
    };
    for id in (0..staged.index.len() as u32).step_by(PROBE_STRIDE) {
        let t = Instant::now();
        let candidates = staged.index.generate_candidates(id);
        probe.candgen_us += t.elapsed().as_secs_f64() * 1e6;
        std::hint::black_box(candidates);
        let t = Instant::now();
        let (neighbors, _, cost) = staged.index.lookup(id, spec, p);
        probe.lookup_us += t.elapsed().as_secs_f64() * 1e6;
        probe.lookups += 1.0;
        probe.candidates += cost.candidates as f64;
        probe.verified += cost.distance_calls as f64;
        probe.returned += neighbors.len() as f64;
    }
    probe
}

/// Mean nanoseconds of one `Distance::distance` call over a fixed-size
/// sample: the NN pairs of the run first, seeded random pairs after.
fn pair_ns(w: Workload, records: &[Vec<String>], reln: &NnReln, seed: u64) -> f64 {
    let distance = w.distance().build(records);
    let views: Vec<Vec<&str>> =
        records.iter().map(|r| r.iter().map(String::as_str).collect()).collect();
    let mut pairs: Vec<(u32, u32)> = reln
        .entries()
        .iter()
        .flat_map(|e| e.neighbors.iter().map(move |nb| (e.id, nb.id)))
        .take(PAIR_SAMPLE / 2)
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd157);
    while pairs.len() < PAIR_SAMPLE {
        pairs
            .push((rng.gen_range(0..records.len()) as u32, rng.gen_range(0..records.len()) as u32));
    }
    let started = Instant::now();
    let mut sum = 0.0;
    for &(a, b) in &pairs {
        sum += distance.distance(&views[a as usize], &views[b as usize]);
    }
    std::hint::black_box(sum);
    started.elapsed().as_nanos() as f64 / pairs.len() as f64
}

/// The traced run: per-layer metrics from the staged pipeline.
pub fn run_traced(
    args: &Args,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<MetricSet, String> {
    let w = args.workload;
    // One untraced facade run: the partition to match, the counters the
    // facade returns, and the wall time tracing is compared against.
    let (prepared, _) = setup(args);
    report.attempted += prepared.corpus.records.len() as u64;
    let facade = facade_run(w, &prepared.input_text, prepared.pool.clone())?;

    let mut staged_runs: Vec<StagedRun> = Vec::new();
    let started = Instant::now();
    while staged_runs.is_empty() || started.elapsed().as_secs_f64() < args.seconds * 0.5 {
        let (staged_input, _) = setup(args);
        report.attempted += staged_input.corpus.records.len() as u64;
        let staged = staged_run(w, &staged_input.input_text, staged_input.pool.clone(), tracer)?;
        report.check(
            "staged partition equals the facade's",
            staged.partition == facade.outcome.partition
                && staged.output_text == facade.output_text,
        );
        staged_runs.push(staged);
    }
    check_output(report, &prepared, &facade.outcome.partition, &facade.output_text);
    let runs: Vec<u32> = staged_runs.iter().map(|s| s.run).collect();
    let staged = staged_runs.pop().expect("at least one staged run");
    drop(staged_runs);
    // Median over the traced runs of a layer's time within one run.
    let layer_s =
        |name: &str| median(&runs.iter().map(|&r| tracer.seconds(r, name)).collect::<Vec<_>>());

    let config = w.dedup_config();
    let probe = probe_pass(&staged, config.p);
    let pair = pair_ns(w, &prepared.corpus.records, &facade.outcome.nn_reln, args.seed);
    let passes = retune::passes(w, &facade.outcome.nn_reln, TRACED_RETUNE_PASSES)?;
    let facade_metrics = &facade.outcome.metrics;

    let mut m = MetricSet::new(PER_LAYER);
    m.set("datagen.csv_parse_s", layer_s("datagen.csv_parse"));
    m.set("datagen.csv_write_s", layer_s("datagen.csv_write"));
    m.set("textdist.build_s", layer_s("textdist.build"));
    m.set("textdist.pair_ns", pair);
    m.set("textdist.calls", facade_metrics.textdist.total() as f64);
    m.set(
        "textdist.early_exit_ratio",
        ratio(
            facade_metrics.edit_kernel.early_exit as f64,
            facade_metrics.edit_kernel.bounded as f64,
        ),
    );
    m.set("nnindex.build_s", layer_s("nnindex.build"));
    let postings_pages = staged.index.postings_pages();
    m.set(
        "nnindex.postings_bytes",
        match w.index_config().postings_source {
            fuzzydedup_nnindex::PostingsSource::Pages => (postings_pages * PAGE_SIZE) as f64,
            _ => staged.index.postings_bytes().1 as f64,
        },
    );
    let candgen_share = ratio(probe.candgen_us, probe.lookup_us).min(1.0);
    m.set("nnindex.candgen_us", ratio(probe.candgen_us, probe.lookups));
    m.set("nnindex.lookup_us", ratio(probe.lookup_us, probe.lookups));
    m.set("nnindex.candgen_share", candgen_share);
    m.set("nnindex.candidates_per_lookup", ratio(probe.candidates, probe.lookups));
    m.set("nnindex.verified_per_lookup", ratio(probe.verified, probe.lookups));
    m.set(
        "nnindex.postings_scanned_per_lookup",
        ratio(
            facade_metrics.nnindex.postings_scanned as f64,
            facade_metrics.nnindex.lookups as f64,
        ),
    );
    m.set("nnindex.useful_ratio", ratio(probe.returned, probe.verified));
    m.set("storage.hits", staged.pool_stats.hits as f64);
    m.set("storage.misses", staged.pool_stats.misses as f64);
    m.set("storage.evictions", staged.pool_stats.evictions as f64);
    m.set("storage.writebacks", staged.pool_stats.writebacks as f64);
    m.set("storage.hit_ratio", staged.pool_stats.hit_ratio());
    m.set("storage.frames_over_pages", ratio(staged.pool_frames as f64, postings_pages as f64));
    m.set("relation.sort_passes", facade_metrics.phase2.sort_passes as f64);
    m.set("relation.join_passes", facade_metrics.phase2.join_passes as f64);
    m.set("relation.cs_pairs", facade_metrics.phase2.cs_pairs as f64);
    m.set("collapse.build_s", layer_s("core.collapse.build"));
    m.set("collapse.expand_s", layer_s("core.collapse.expand"));
    if let Some((classes, n_full)) = staged.collapse {
        m.set("collapse.classes", classes as f64);
        m.set("collapse.collapsed_share", ratio((n_full - classes) as f64, n_full as f64));
    }
    let phase1_s = layer_s("core.phase1");
    m.set("phase1.s", phase1_s);
    m.set("phase1.lookups", staged.phase1_stats.lookups as f64);
    m.set("phase1.fallback_probes", staged.phase1_stats.fallback_probes as f64);
    m.set("phase1.steal_blocks", facade_metrics.phase1.steal_blocks as f64);
    m.set("phase1.candgen_s_est", phase1_s * candgen_share);
    m.set("phase1.verify_s_est", phase1_s * (1.0 - candgen_share));
    m.set("spill.write_s", layer_s("core.spill.write"));
    m.set("spill.read_s", layer_s("core.spill.read"));
    m.set("spill.bytes", facade_metrics.spill.bytes as f64);
    m.set("phase2.s", layer_s("core.phase2"));
    m.set("phase2.components", facade_metrics.phase2.components as f64);
    let pooled = |pick: fn(&RetunePass) -> &Vec<f64>| {
        median(&passes.iter().flat_map(|p| pick(p).iter().copied()).collect::<Vec<_>>())
    };
    m.set("phase2.par_point_ms", pooled(|p| &p.par_point_ms));
    m.set("phase2.tables_point_ms", pooled(|p| &p.tables_point_ms));
    m.set("minimality.s", median(&passes.iter().map(|p| p.minimality_s).collect::<Vec<_>>()));
    m.set("threshold.estimate_s", median(&passes.iter().map(|p| p.estimate_s).collect::<Vec<_>>()));
    let traced_total = layer_s("run");
    m.set("trace.coverage", median(&runs.iter().map(|&r| tracer.coverage(r)).collect::<Vec<_>>()));
    m.set("trace.overhead_ratio", ratio(traced_total, facade.run_s));

    eprintln!(
        "[{}] {} records, facade run {:.3} s, {} traced runs of {:.3} s; self time by layer:",
        w.name(),
        prepared.corpus.records.len(),
        facade.run_s,
        runs.len(),
        traced_total
    );
    for (name, seconds) in tracer.ledger(staged.run) {
        eprintln!(
            "    {name:<24} {seconds:>9.4} s  {:>5.1} %",
            100.0 * ratio(seconds, traced_total)
        );
    }
    Ok(m)
}
