//! The repo benchmark. One invocation runs one workload once:
//!
//! ```text
//! fuzzydedup-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--scale F]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics through the public facade;
//! `--trace 1` measures the per-layer metrics from a staged pipeline whose
//! every call into a layer is a span. Either way the run checks its outputs,
//! prints every metric by name with its unit, and prints as its last line
//! the result object `BENCHMARK.json` describes. `run.sh` builds and calls
//! this; see `README.md`.

mod batch;
mod calib;
mod json;
mod metrics;
mod retune;
mod service;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::MetricSet;
use trace::Tracer;
use workload::Workload;

/// Drift of the calibration kernel beyond which a run is called noisy.
const NOISY_DRIFT: f64 = 0.10;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    pub trace: bool,
    /// Corpus size as a share of full size (the smoke run uses 1/20).
    pub scale: f64,
    /// Where result files, trace files and database files go.
    pub out_dir: PathBuf,
}

/// Operations and checks of one run.
#[derive(Default)]
pub struct Report {
    /// One record through a batch run, one `submit_wait`, or one `query`.
    pub attempted: u64,
    pub failed: u64,
    failed_checks: Vec<String>,
    checks: usize,
    /// The samples behind the reported timings, for the result file: one
    /// list per corpus of the run.
    pub samples: Vec<(&'static str, Vec<Vec<f64>>)>,
}

impl Report {
    pub fn check(&mut self, what: &str, ok: bool) {
        self.checks += 1;
        if !ok {
            eprintln!("CHECK FAILED: {what}");
            self.failed_checks.push(what.to_string());
        }
    }
}

/// `VmHWM` of this process, in MB: the most memory it has held.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn usage() -> String {
    let names: Vec<&str> = workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: fuzzydedup-benchmark --workload {{{}}} [--seed N] [--seconds S] [--trace 0|1] \
         [--scale F] [--out DIR]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::OrgEdTopk,
        seed: 42,
        seconds: 30.0,
        trace: false,
        scale: 1.0,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value\n{}", usage()));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}\n{}", usage()))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--scale" => args.scale = value()?.parse().map_err(|e| format!("--scale: {e}"))?,
            "--out" => args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    args.workload = workload.ok_or_else(usage)?;
    if !(args.seconds > 0.0 && args.scale > 0.0 && args.scale <= 1.0) {
        return Err("--seconds must be positive and --scale in (0, 1]".into());
    }
    Ok(args)
}

fn run(args: &Args) -> Result<(), String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let mut report = Report::default();
    let mut tracer = Tracer::new(args.trace);

    let calib_before = calib::kernel_s();
    let mut metrics: MetricSet = match (args.workload, args.trace) {
        (Workload::ServiceReplay, false) => service::run_untraced(args, &mut report)?,
        (Workload::ServiceReplay, true) => service::run_traced(args, &mut report, &mut tracer)?,
        (_, false) => batch::run_untraced(args, &mut report)?,
        (_, true) => batch::run_traced(args, &mut report, &mut tracer)?,
    };
    let calib_after = calib::kernel_s();
    let drift = calib::drift(calib_before, calib_after);
    let noisy = drift > NOISY_DRIFT;
    if args.trace {
        metrics.set("calib.kernel_s", calib_before.min(calib_after));
        metrics.set("calib.drift", drift);
        let coverage = metrics.get("trace.coverage");
        report.check("trace.coverage is at least 0.95", coverage >= 0.95);
    }
    report.check("every metric is a finite number", metrics.all_finite());
    // A failed check fails every operation of the run.
    if !report.failed_checks.is_empty() {
        report.failed = report.attempted;
    }
    let correct = report.failed_checks.is_empty() && report.failed == 0;

    let name = args.workload.name();
    for m in metrics.as_slice() {
        println!("{name} {} {} {}", m.name, json::number(m.value), m.unit);
    }
    println!(
        "{name} calibration kernel {calib_before:.4} s before, {calib_after:.4} s after, drift \
         {:.1} %{}",
        drift * 100.0,
        if noisy { " — noisy" } else { "" }
    );
    println!(
        "{name} checks: {} of {} passed; operations: {} attempted, {} failed",
        report.checks - report.failed_checks.len(),
        report.checks,
        report.attempted,
        report.failed
    );

    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted.max(1),
        report.failed,
        json::metrics_object(metrics.as_slice())
    );
    let failed_checks: Vec<String> = report.failed_checks.iter().map(|c| json::string(c)).collect();
    let samples: Vec<String> = report
        .samples
        .iter()
        .map(|(name, per_corpus)| {
            let lists: Vec<String> = per_corpus
                .iter()
                .map(|values| {
                    let values: Vec<String> = values.iter().map(|&v| json::number(v)).collect();
                    format!("[{}]", values.join(", "))
                })
                .collect();
            format!("{}: [{}]", json::string(name), lists.join(", "))
        })
        .collect();
    let envelope = format!(
        "\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"scale\": {}, \"threads\": {}, \
         \"available_parallelism\": {}, \"noisy\": {noisy}, \"calib_before_s\": {}, \
         \"calib_after_s\": {}, \"failed_checks\": [{}], \"samples\": {{{}}}, \"result\": {result}",
        json::string(name),
        args.seed,
        json::number(args.seconds),
        json::number(args.scale),
        workload::THREADS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json::number(calib_before),
        json::number(calib_after),
        failed_checks.join(", "),
        samples.join(", "),
    );
    let (file, body) = if args.trace {
        (format!("{name}.trace.json"), format!("{{{envelope}, \"spans\": {}}}\n", tracer.to_json()))
    } else {
        (format!("{name}.json"), format!("{{{envelope}}}\n"))
    };
    let path = args.out_dir.join(file);
    std::fs::write(&path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    println!("{result}");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("benchmark failed: {message}");
            ExitCode::from(1)
        }
    }
}
