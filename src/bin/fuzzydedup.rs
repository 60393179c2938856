//! `fuzzydedup` — command-line fuzzy duplicate elimination over CSV files.
//!
//! ```text
//! fuzzydedup --input records.csv [options]
//!
//!   --input PATH          input CSV (required); use "-" for stdin
//!   --output PATH         output CSV with a trailing group_id column
//!                         (default: stdout)
//!   --no-header           input has no header row
//!   --columns 0,2,3       0-based columns to match on (default: all)
//!   --gold-column N       0-based column holding entity labels; when
//!                         given, precision/recall are reported and the
//!                         column is excluded from matching (naming it
//!                         in --columns is an error)
//!   --distance NAME       ed | fms (default fms)
//!   --k N                 DE_S(K) size cut (default 5)
//!   --theta X             DE_D(theta) diameter cut instead of --k
//!   --c X                 SN threshold (default 4)
//!   --dup-fraction F      derive c from an estimated duplicate fraction
//!                         (overrides --c; the §4.4 heuristic)
//!   --agg NAME            max | avg | max2 (default max)
//!   --minimality          apply the §4.5.2 minimality post-pass
//!   --report              print a review report (groups ordered least
//!                         confident first) to stderr
//!   --metrics             print the run-metrics JSON (distance evals,
//!                         index probes, buffer traffic, stage timings)
//!                         to stderr
//!   --threads N           run both phases on N worker threads (0 = all
//!                         CPUs); results are identical to sequential
//!   --collapse KEY        collapse exact duplicates before Phase 1 and
//!                         run it weighted over the representatives:
//!                         record-string (records whose normalized join
//!                         is equal). The partition is identical either
//!                         way (off by default)
//!   --demo NAME           run on a built-in dataset instead of --input
//!                         (the two are mutually exclusive):
//!                         table1 | restaurants | media | org
//! ```
//!
//! ## `fuzzydedup replay` — stream the input through the live service
//!
//! ```text
//! fuzzydedup replay --input records.csv [options]
//!
//!   --input / --output / --no-header / --columns / --demo
//!                         as above
//!   --distance NAME       ed | fms (default fms)
//!   --k N | --theta X     cut specification (default DE_S(4))
//!   --c X                 SN threshold (default 4)
//!   --agg NAME            max | avg | max2 (default max)
//!   --queue-capacity N    bounded ingest queue; submission blocks when
//!                         full — backpressure, not loss. The writer
//!                         admits all that is queued as one epoch, so
//!                         this also bounds an epoch (default 1024)
//!   --query-ratio F       interleave F point queries per op in [0,1)
//!                         against the live epoch snapshot (default 0)
//!   --seed N              probe-selection seed (default 7)
//!   --metrics             print the run-metrics JSON (with the service
//!                         section) to stderr
//! ```
//!
//! Instead of one batch run, records stream through a
//! [`fuzzydedup::core::DedupService`]: the writer admits whatever waits in
//! a bounded queue as one epoch and re-runs both phases on every core,
//! point queries are answered from the published snapshot without waiting
//! on that epoch, then a drain. The drained
//! partition is what the batch pipeline would compute on the same corpus
//! (the drain-identity invariant), so the CSV output is identical — the
//! subcommand trades end-to-end latency for live queryability and reports
//! service statistics (admitted batches, epochs, query p50/p99) on stderr.

use std::io::Read;
use std::process::ExitCode;
use std::time::Duration;

use fuzzydedup::core::{
    estimate_sn_threshold, evaluate, Aggregation, CollapseKey, CutSpec, DedupConfig, DedupService,
    Deduplicator, IncrementalDedup, Parallelism, Partition, ServiceConfig, ServiceError,
};
use fuzzydedup::datagen::csvio::{parse_csv_lines, write_csv};
use fuzzydedup::datagen::{media, org, restaurants, Dataset, DatasetSpec};
use fuzzydedup::textdist::DistanceKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which subcommand is parsing: the batch command or `replay`.
#[derive(Clone, Copy, PartialEq)]
enum Cmd {
    Batch,
    Replay,
}

/// Every flag of both subcommands: name, whether it takes a value, and
/// whether the batch command / `replay` accepts it.
const FLAGS: &[(&str, bool, bool, bool)] = &[
    ("--input", true, true, true),
    ("--output", true, true, true),
    ("--no-header", false, true, true),
    ("--columns", true, true, true),
    ("--gold-column", true, true, false),
    ("--distance", true, true, true),
    ("--k", true, true, true),
    ("--theta", true, true, true),
    ("--c", true, true, true),
    ("--dup-fraction", true, true, false),
    ("--agg", true, true, true),
    ("--minimality", false, true, false),
    ("--report", false, true, false),
    ("--metrics", false, true, true),
    ("--threads", true, true, false),
    ("--collapse", true, true, true),
    ("--demo", true, true, true),
    ("--queue-capacity", true, false, true),
    ("--query-ratio", true, false, true),
    ("--seed", true, false, true),
];

struct Options {
    input: Option<String>,
    output: Option<String>,
    header: bool,
    columns: Option<Vec<usize>>,
    gold_column: Option<usize>,
    distance: DistanceKind,
    cut: CutSpec,
    c: Option<f64>,
    dup_fraction: Option<f64>,
    agg: Aggregation,
    minimality: bool,
    report: bool,
    metrics: bool,
    threads: Option<usize>,
    collapse: Option<CollapseKey>,
    demo: Option<String>,
    queue_capacity: usize,
    query_ratio: f64,
    seed: u64,
}

fn parse_collapse_key(name: &str) -> Result<CollapseKey, String> {
    match name {
        "record-string" => Ok(CollapseKey::RecordString),
        other => Err(format!("unknown collapse key {other:?} (want record-string)")),
    }
}

fn usage(cmd: Cmd) -> &'static str {
    match cmd {
        Cmd::Batch => {
            "usage: fuzzydedup --input records.csv [--output out.csv] [--no-header]\n\
             \x20                 [--columns 0,1] [--gold-column N] [--distance ed|fms]\n\
             \x20                 [--k N | --theta X] [--c X | --dup-fraction F] [--agg max|avg|max2]\n\
             \x20                 [--minimality] [--report] [--metrics] [--threads N]\n\
             \x20                 [--collapse record-string]\n\
             \x20                 [--demo table1|restaurants|media|org]"
        }
        Cmd::Replay => {
            "usage: fuzzydedup replay (--input records.csv | --demo NAME) [--output out.csv]\n\
             \x20                 [--no-header] [--columns 0,1] [--distance ed|fms]\n\
             \x20                 [--k N | --theta X] [--c X] [--agg max|avg|max2]\n\
             \x20                 [--queue-capacity N] [--query-ratio F]\n\
             \x20                 [--collapse record-string] [--seed N] [--metrics]"
        }
    }
}

/// Parse a flag's value, naming the flag on failure.
fn parsed<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("bad {flag}: {e}"))
}

fn parse_args(cmd: Cmd, args: &[String]) -> Result<Options, String> {
    let mut cut_set = false;
    let mut opts = Options {
        input: None,
        output: None,
        header: true,
        columns: None,
        gold_column: None,
        distance: DistanceKind::FuzzyMatch,
        cut: CutSpec::Size(if cmd == Cmd::Batch { 5 } else { 4 }),
        c: None,
        dup_fraction: None,
        agg: Aggregation::Max,
        minimality: false,
        report: false,
        metrics: false,
        threads: None,
        collapse: None,
        demo: None,
        queue_capacity: 1024,
        query_ratio: 0.0,
        seed: 7,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg == "--help" || arg == "-h" {
            return Err(usage(cmd).to_string());
        }
        let &(flag, takes_value, ..) = FLAGS
            .iter()
            .find(|&&(name, _, batch, replay)| {
                name == arg && if cmd == Cmd::Batch { batch } else { replay }
            })
            .ok_or_else(|| format!("unknown argument {arg:?}\n{}", usage(cmd)))?;
        let value = if takes_value {
            args.next().ok_or_else(|| format!("missing value for {flag}"))?.as_str()
        } else {
            ""
        };
        match flag {
            "--input" => opts.input = Some(value.to_string()),
            "--output" => opts.output = Some(value.to_string()),
            "--no-header" => opts.header = false,
            "--columns" => {
                let cols: Result<Vec<usize>, String> =
                    value.split(',').map(|s| parsed(flag, s.trim())).collect();
                opts.columns = Some(cols?);
            }
            "--gold-column" => opts.gold_column = Some(parsed(flag, value)?),
            "--distance" => {
                opts.distance = DistanceKind::parse(value)
                    .ok_or_else(|| format!("unknown distance {value:?} (want ed | fms)"))?;
            }
            "--k" | "--theta" => {
                if cut_set {
                    return Err("--k and --theta are mutually exclusive".to_string());
                }
                cut_set = true;
                opts.cut = if flag == "--k" {
                    CutSpec::Size(parsed(flag, value)?)
                } else {
                    CutSpec::Diameter(parsed(flag, value)?)
                };
            }
            "--c" => opts.c = Some(parsed(flag, value)?),
            "--dup-fraction" => {
                let fraction: f64 = parsed(flag, value)?;
                // `contains` is false for NaN too.
                if !(0.0..=1.0).contains(&fraction) {
                    return Err("--dup-fraction must be in [0, 1]".to_string());
                }
                opts.dup_fraction = Some(fraction);
            }
            "--agg" => {
                opts.agg = Aggregation::parse(value)
                    .ok_or_else(|| format!("unknown aggregation {value:?}"))?;
            }
            "--minimality" => opts.minimality = true,
            "--report" => opts.report = true,
            "--metrics" => opts.metrics = true,
            "--threads" => opts.threads = Some(parsed(flag, value)?),
            "--collapse" => opts.collapse = Some(parse_collapse_key(value)?),
            "--demo" => opts.demo = Some(value.to_string()),
            "--queue-capacity" => opts.queue_capacity = parsed(flag, value)?,
            "--query-ratio" => {
                opts.query_ratio = parsed(flag, value)?;
                if !(0.0..1.0).contains(&opts.query_ratio) {
                    return Err("--query-ratio must be in [0, 1)".to_string());
                }
            }
            "--seed" => opts.seed = parsed(flag, value)?,
            other => unreachable!("{other} is in FLAGS but not applied"),
        }
    }
    match (&opts.input, &opts.demo) {
        (None, None) => return Err(format!("--input or --demo is required\n{}", usage(cmd))),
        (Some(_), Some(_)) => return Err("--input and --demo are mutually exclusive".to_string()),
        _ => {}
    }
    if opts.demo.is_some() && (opts.gold_column.is_some() || opts.columns.is_some()) {
        return Err("--gold-column/--columns do not apply to --demo datasets \
                    (demos carry their own gold labels)"
            .to_string());
    }
    if let (Some(columns), Some(gold)) = (&opts.columns, opts.gold_column) {
        if columns.contains(&gold) {
            return Err(format!(
                "--columns names the --gold-column {gold}: the gold labels would be matched on"
            ));
        }
    }
    Ok(opts)
}

fn demo_dataset(name: &str) -> Result<Dataset, String> {
    let mut rng = StdRng::seed_from_u64(42);
    match name {
        "table1" => Ok(media::table1()),
        "restaurants" => Ok(restaurants::generate(&mut rng, DatasetSpec::small())),
        "media" => Ok(media::generate(&mut rng, DatasetSpec::small())),
        "org" => Ok(org::generate(&mut rng, DatasetSpec::small())),
        other => Err(format!("unknown demo dataset {other:?}")),
    }
}

/// Loaded input: header names, data rows, optional gold labels.
type LoadedInput = (Vec<String>, Vec<Vec<String>>, Option<Vec<usize>>);

fn load_input(opts: &Options) -> Result<LoadedInput, String> {
    if let Some(demo) = &opts.demo {
        let d = demo_dataset(demo)?;
        let gold = Some(d.gold.clone());
        return Ok((d.attributes, d.records, gold));
    }
    let path = opts.input.as_deref().expect("validated");
    let text = if path == "-" {
        let mut buf = String::new();
        std::io::stdin().read_to_string(&mut buf).map_err(|e| format!("cannot read stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
    };
    let lines = parse_csv_lines(&text)?;
    if lines.is_empty() {
        return Ok((Vec::new(), Vec::new(), None));
    }
    // A row wider than the header would add a nameless column to match on.
    if opts.header {
        let width = lines[0].1.len();
        if let Some((line, row)) = lines.iter().find(|(_, row)| row.len() > width) {
            return Err(format!("line {line} has {} fields, the header has {width}", row.len()));
        }
    }
    let mut rows: Vec<Vec<String>> = lines.into_iter().map(|(_, row)| row).collect();
    let arity = rows.iter().map(Vec::len).max().unwrap_or(0);
    for row in &mut rows {
        row.resize(arity, String::new());
    }
    let header =
        if opts.header { rows.remove(0) } else { (0..arity).map(|i| format!("col{i}")).collect() };
    let gold = match opts.gold_column {
        Some(col) if col < arity => {
            let labels: Vec<String> = rows.iter().map(|r| r[col].clone()).collect();
            let mut ids = std::collections::HashMap::new();
            Some(
                labels
                    .iter()
                    .map(|l| {
                        let n = ids.len();
                        *ids.entry(l.clone()).or_insert(n)
                    })
                    .collect(),
            )
        }
        Some(col) => return Err(format!("--gold-column {col} out of range (arity {arity})")),
        None => None,
    };
    Ok((header, rows, gold))
}

// ---------------------------------------------------------------------------
// `replay` subcommand: stream the input through the live dedup service.
// ---------------------------------------------------------------------------

/// Stream `records` through a [`DedupService`] built on `distance`,
/// interleaving point queries, and return the drained partition.
fn run_service<D: fuzzydedup::textdist::Distance + Clone + 'static>(
    distance: D,
    records: &[Vec<String>],
    opts: &Options,
) -> Result<Partition, String> {
    let mut service = DedupService::spawn(
        IncrementalDedup::builder(distance)
            .cut(opts.cut)
            .aggregation(opts.agg)
            .sn_threshold(opts.c.unwrap_or(4.0))
            .collapse(opts.collapse),
        ServiceConfig::new().queue_capacity(opts.queue_capacity),
    )
    .map_err(|e| render_error(&e))?;

    let mut rng = StdRng::seed_from_u64(opts.seed);
    let queries_per_ingest = opts.query_ratio / (1.0 - opts.query_ratio);
    let mut query_debt = 0.0f64;
    let started = std::time::Instant::now();
    for (i, record) in records.iter().enumerate() {
        service.submit_wait(record.clone()).map_err(|e| render_error(&e))?;
        query_debt += queries_per_ingest;
        while query_debt >= 1.0 {
            query_debt -= 1.0;
            let probe = &records[rand::Rng::gen_range(&mut rng, 0..=i)];
            let fields: Vec<&str> = probe.iter().map(String::as_str).collect();
            let _ = service.query(&fields);
        }
    }
    service.drain();
    let stats = service.stats();
    if stats.writer_failed {
        // The drained snapshot is short of the records still queued.
        return Err(render_error(&ServiceError::WriterFailed));
    }
    eprintln!(
        "service: {} records in {} batches over {} epochs ({:.1?} wall); \
         queue high-water {}; {} point queries (p50 ~{} ns, p99 ~{} ns); \
         distinct-entity estimate {}{}",
        stats.records_admitted,
        stats.batches_admitted,
        stats.epochs_published,
        started.elapsed(),
        stats.queue_depth_high_water,
        stats.point_queries,
        stats.query_p50_ns,
        stats.query_p99_ns,
        stats.distinct_groups_estimate,
        if stats.distinct_is_exact { " (exact)" } else { "" },
    );
    if opts.metrics {
        eprintln!("{}", service.metrics().to_json());
    }
    let (_, partition) = service.snapshot_partition();
    service.shutdown();
    Ok(partition)
}

/// The matching columns of every row: `--columns`, or every column but
/// the gold one.
fn project_columns(
    opts: &Options,
    header: &[String],
    rows: &[Vec<String>],
) -> Result<Vec<Vec<String>>, String> {
    let match_columns: Vec<usize> = match &opts.columns {
        Some(cols) => cols.clone(),
        None => (0..header.len()).filter(|i| Some(*i) != opts.gold_column).collect(),
    };
    if let Some(c) = match_columns.iter().find(|&&c| c >= header.len()) {
        return Err(format!("--columns index {c} out of range (arity {})", header.len()));
    }
    Ok(rows.iter().map(|r| match_columns.iter().map(|&c| r[c].clone()).collect()).collect())
}

/// Precision and recall against the gold labels, when the input has them.
fn report_gold(partition: &Partition, gold: Option<&Vec<usize>>) {
    if let Some(gold) = gold {
        let pr = evaluate(partition, gold);
        eprintln!(
            "vs gold labels: recall={:.3} precision={:.3} f1={:.3}",
            pr.recall,
            pr.precision,
            pr.f1()
        );
    }
}

/// Output: the original rows plus a trailing `group_id` column, to
/// `--output` or stdout.
fn write_grouped(
    opts: &Options,
    header: &[String],
    rows: &[Vec<String>],
    partition: &Partition,
) -> Result<(), String> {
    let mut out_rows: Vec<Vec<String>> = Vec::with_capacity(rows.len() + 1);
    let mut out_header = header.to_vec();
    out_header.push("group_id".to_string());
    out_rows.push(out_header);
    for (i, row) in rows.iter().enumerate() {
        let mut out = row.clone();
        out.push(partition.group_index_of(i as u32).to_string());
        out_rows.push(out);
    }
    let text = write_csv(&out_rows);
    match &opts.output {
        Some(path) => {
            std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn run_replay(args: &[String]) -> Result<(), String> {
    let opts = parse_args(Cmd::Replay, args)?;
    let (header, rows, gold) = load_input(&opts)?;
    if rows.is_empty() {
        eprintln!("no records");
        return Ok(());
    }
    let records = project_columns(&opts, &header, &rows)?;

    let partition = match opts.distance {
        DistanceKind::EditDistance => {
            run_service(fuzzydedup::textdist::EditDistance, &records, &opts)?
        }
        DistanceKind::FuzzyMatch => {
            let idf = fuzzydedup::textdist::IdfModel::fit_records(&records);
            run_service(fuzzydedup::textdist::FuzzyMatchDistance::new(idf), &records, &opts)?
        }
    };

    eprintln!(
        "{} records -> {} groups ({} duplicate pairs)",
        records.len(),
        partition.num_groups(),
        partition.num_duplicate_pairs(),
    );
    report_gold(&partition, gold.as_ref());
    write_grouped(&opts, &header, &rows, &partition)
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("replay") {
        return run_replay(&args[1..]);
    }
    let opts = parse_args(Cmd::Batch, &args)?;
    let (header, rows, gold) = load_input(&opts)?;
    if rows.is_empty() {
        eprintln!("no records");
        return Ok(());
    }
    let records = project_columns(&opts, &header, &rows)?;

    // Resolve the SN threshold.
    let mut config = DedupConfig::new(opts.distance)
        .cut(opts.cut)
        .aggregation(opts.agg)
        .minimality(opts.minimality)
        .collapse(opts.collapse);
    if let Some(threads) = opts.threads {
        config = config.parallelism(Parallelism::threads(threads));
    }
    let dedup = Deduplicator::new(config.clone());
    let c = match (opts.dup_fraction, opts.c) {
        (Some(f), _) => {
            // Probe run for NG values, then the heuristic.
            if records.len() < 100 {
                eprintln!(
                    "warning: --dup-fraction needs a meaningful NG distribution; \
                     {} records is likely too few (consider --c instead)",
                    records.len()
                );
            }
            let probe = Deduplicator::new(config.clone().sn_threshold(4.0))
                .run_records(&records)
                .map_err(|e| render_error(&e))?;
            let derived =
                estimate_sn_threshold(&probe.nn_reln.ng_values(), f).ok_or("empty relation")?;
            eprintln!("derived SN threshold c = {derived:.1} from duplicate fraction {f}");
            derived
        }
        (None, Some(c)) => c,
        (None, None) => 4.0,
    };
    let dedup = Deduplicator::new(dedup.config().clone().sn_threshold(c));

    let outcome = dedup.run_records(&records).map_err(|e| render_error(&e))?;
    let partition = &outcome.partition;

    // Report.
    eprintln!(
        "{} records -> {} groups ({} with duplicates, {} duplicate pairs); \
         phase1 {:?}, phase2 {:?}",
        rows.len(),
        partition.num_groups(),
        partition.duplicate_groups().count(),
        partition.num_duplicate_pairs(),
        Duration::from_nanos(outcome.metrics.timings.phase1_ns),
        Duration::from_nanos(outcome.metrics.timings.phase2_ns),
    );
    report_gold(partition, gold.as_ref());
    if opts.metrics {
        // Stdout carries the CSV; observability goes to stderr.
        eprintln!("{}", outcome.metrics.to_json());
    }
    if opts.report {
        let report = fuzzydedup::core::render_report(partition, &records, Some(&outcome.nn_reln));
        eprintln!("\n{report}");
    }
    write_grouped(&opts, &header, &rows, partition)
}

/// Render an error with its full `source()` chain — the Display of each
/// layer does not embed its cause, so the chain is the message.
fn render_error(e: &dyn std::error::Error) -> String {
    let mut msg = e.to_string();
    let mut cause = e.source();
    while let Some(c) = cause {
        msg.push_str(": ");
        msg.push_str(&c.to_string());
        cause = c.source();
    }
    msg
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
