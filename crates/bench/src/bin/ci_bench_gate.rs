//! `ci_bench_gate` — the `bench-smoke` stage of `scripts/ci.sh`.
//!
//! Re-runs the cheap benches into a scratch directory, then compares each
//! fresh `BENCH_*.json` against the committed baseline in `results/` with
//! a configurable tolerance (default ±15% on `min_ns`). Exits non-zero on
//! any regression or on a baselined benchmark that vanished; large
//! improvements are reported so the baseline can be refreshed
//! intentionally (`cargo bench -p fuzzydedup-bench --bench <name>` with
//! `BENCH_OUT_DIR` unset writes over `results/`; commit the diff).
//!
//! Usage: `ci_bench_gate [--tolerance 0.15] [--baseline-dir results]
//! [--fresh-dir DIR] [--json-out PATH]`. With `--fresh-dir` the benches
//! are NOT re-run; the artifacts already in that directory are compared
//! instead (used by the CI driver to decouple measurement from judgment,
//! and by the injected-slowdown scratch test). With `--json-out` the
//! per-bench verdicts (name, baseline `min_ns`, fresh `min_ns`, delta,
//! verdict) are also written as one compact JSON object, which
//! `scripts/ci.sh` merges into `results/ci_summary.json`.

use std::path::{Path, PathBuf};
use std::process::Command;

use fuzzydedup_bench::gate::{
    compare_with_tolerances, has_regression, parse_bench_file, render_table, verdicts_json,
    Comparison,
};

/// The cheap benches the gate re-runs: seconds each, covering the edit
/// kernel, the distance-function ladder above it, the storage layer below
/// the index, candidate generation (packed vs page-backed postings), the
/// two phase drivers (Phase 1 collapse on/off, Phase 2 seq/par) and the
/// service replay.
const CHEAP_BENCHES: &[&str] = &[
    "bench_edit_kernel",
    "bench_distances",
    "bench_buffer_pool",
    "bench_candidates",
    "bench_phase1_collapse",
    "bench_phase2",
    "bench_service",
];

/// `BENCH_*.json` artifacts those benches emit.
const GATED_ARTIFACTS: &[&str] = &[
    "BENCH_edit_kernel.json",
    "BENCH_distances.json",
    "BENCH_buffer_pool.json",
    "BENCH_candidates.json",
    "BENCH_phase1_collapse.json",
    "BENCH_phase2.json",
    "BENCH_service.json",
];

/// Per-row tolerance overrides: `(artifact, row, tolerance)`. The service
/// replay's p99 point-query latency is a tail statistic — one scheduler
/// preemption inside the measured window moves it far beyond ±15% even on
/// a quiet machine — so it gets a wider band of its own instead of
/// dragging the whole stage into a storm retry.
const ROW_TOLERANCES: &[(&str, &str, f64)] =
    &[("BENCH_service.json", "replay/point_query_p99", 0.60)];

struct Args {
    tolerance: f64,
    baseline_dir: PathBuf,
    fresh_dir: Option<PathBuf>,
    json_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        tolerance: std::env::var("BENCH_GATE_TOLERANCE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.15),
        baseline_dir: PathBuf::from("results"),
        fresh_dir: None,
        json_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tolerance" => {
                let v = it.next().ok_or("--tolerance needs a value")?;
                args.tolerance =
                    v.parse().map_err(|_| format!("invalid tolerance {v:?} (want e.g. 0.15)"))?;
            }
            "--baseline-dir" => {
                args.baseline_dir = PathBuf::from(it.next().ok_or("--baseline-dir needs a value")?)
            }
            "--fresh-dir" => {
                args.fresh_dir = Some(PathBuf::from(it.next().ok_or("--fresh-dir needs a value")?))
            }
            "--json-out" => {
                args.json_out = Some(PathBuf::from(it.next().ok_or("--json-out needs a value")?))
            }
            "--help" | "-h" => {
                println!(
                    "ci_bench_gate [--tolerance F] [--baseline-dir DIR] [--fresh-dir DIR] [--json-out PATH]\n\
                     Re-runs cheap benches and fails on >F relative slowdown vs baselines.\n\
                     --json-out also writes the per-bench verdicts as one JSON object."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(0.0..10.0).contains(&args.tolerance) {
        return Err(format!("tolerance {} out of range [0, 10)", args.tolerance));
    }
    Ok(args)
}

/// Run the cheap benches with `BENCH_OUT_DIR` pointed at `out_dir`.
fn run_benches(out_dir: &Path) -> Result<(), String> {
    for bench in CHEAP_BENCHES {
        eprintln!("gate: running {bench} ...");
        let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
            .args(["bench", "-q", "-p", "fuzzydedup-bench", "--bench", bench])
            .env("BENCH_OUT_DIR", out_dir)
            .status()
            .map_err(|e| format!("cannot spawn cargo bench {bench}: {e}"))?;
        if !status.success() {
            return Err(format!("cargo bench {bench} failed with {status}"));
        }
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ci_bench_gate: {e}");
            std::process::exit(2);
        }
    };

    let scratch;
    let fresh_dir = match &args.fresh_dir {
        Some(dir) => dir.clone(),
        None => {
            scratch = std::env::temp_dir().join(format!("bench_gate_{}", std::process::id()));
            if let Err(e) = std::fs::create_dir_all(&scratch) {
                eprintln!("ci_bench_gate: cannot create {}: {e}", scratch.display());
                std::process::exit(2);
            }
            if let Err(e) = run_benches(&scratch) {
                eprintln!("ci_bench_gate: {e}");
                std::process::exit(2);
            }
            scratch
        }
    };

    let mut any_regression = false;
    let mut compared = 0usize;
    let mut verdict_groups: Vec<(String, Vec<Comparison>)> = Vec::new();
    for artifact in GATED_ARTIFACTS {
        let base_path = args.baseline_dir.join(artifact);
        let fresh_path = fresh_dir.join(artifact);
        let base_text = match std::fs::read_to_string(&base_path) {
            Ok(t) => t,
            Err(_) => {
                eprintln!(
                    "gate: no baseline {} — run the benches with BENCH_OUT_DIR={} and commit",
                    base_path.display(),
                    args.baseline_dir.display()
                );
                continue;
            }
        };
        let fresh_text = match std::fs::read_to_string(&fresh_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("gate: fresh artifact {} unreadable: {e}", fresh_path.display());
                any_regression = true;
                continue;
            }
        };
        let (baseline, fresh) = match (parse_bench_file(&base_text), parse_bench_file(&fresh_text))
        {
            (Ok(b), Ok(f)) => (b, f),
            (b, f) => {
                if let Err(e) = b {
                    eprintln!("gate: {}: {e}", base_path.display());
                }
                if let Err(e) = f {
                    eprintln!("gate: {}: {e}", fresh_path.display());
                }
                any_regression = true;
                continue;
            }
        };
        let rows = compare_with_tolerances(&baseline, &fresh, args.tolerance, &|row| {
            ROW_TOLERANCES
                .iter()
                .find(|(a, name, _)| a == artifact && *name == row)
                .map(|&(_, _, t)| t)
        });
        print!("{}", render_table(artifact, &rows));
        compared += rows.len();
        any_regression |= has_regression(&rows);
        verdict_groups.push((artifact.to_string(), rows));
    }

    if args.fresh_dir.is_none() {
        let _ = std::fs::remove_dir_all(&fresh_dir);
    }

    if let Some(path) = &args.json_out {
        let json = verdicts_json(args.tolerance, &verdict_groups);
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        match std::fs::write(path, json + "\n") {
            Ok(()) => eprintln!("gate: verdicts -> {}", path.display()),
            Err(e) => {
                eprintln!("ci_bench_gate: cannot write {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }

    if any_regression {
        eprintln!(
            "ci_bench_gate: FAIL — regression beyond ±{:.0}% (or missing benchmark)",
            args.tolerance * 100.0
        );
        std::process::exit(1);
    }
    eprintln!("ci_bench_gate: ok — {compared} benchmarks within ±{:.0}%", args.tolerance * 100.0);
}
