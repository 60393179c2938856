//! Bench-regression gate: compare fresh `BENCH_*.json` artifacts against
//! the committed baselines in `results/`.
//!
//! The comparison key is `min_ns` — the fastest observed sample, which is
//! far more stable under scheduler noise than the mean (noise only ever
//! *adds* time). The gate is one-sided: it fails when a fresh measurement
//! is slower than `baseline · (1 + tolerance)`, and merely reports large
//! improvements so the baseline can be refreshed intentionally (see
//! `README.md` — "Refreshing bench baselines"). A benchmark present in
//! the baseline but missing from the fresh run also fails: renames must
//! be accompanied by a baseline refresh, not slip through silently.

use fuzzydedup_metrics::json::{parse, JsonArray, JsonObject, JsonValue};

/// One benchmark's measurements from a `BENCH_*.json` artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCase {
    /// Benchmark name within the group (e.g. `myers/16`).
    pub name: String,
    /// Fastest observed sample in nanoseconds.
    pub min_ns: f64,
    /// Mean sample in nanoseconds.
    pub mean_ns: f64,
}

/// One benchmark row of a `BENCH_*.json` artifact with every field the
/// criterion shim emits — the full-fidelity counterpart of [`BenchCase`],
/// used where the artifact must be rewritten (the worst-window baseline
/// merge of `bench_merge` / `scripts/bench_refresh.sh`).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// Benchmark name within the group.
    pub name: String,
    /// Mean sample in nanoseconds.
    pub mean_ns: f64,
    /// Fastest observed sample in nanoseconds.
    pub min_ns: f64,
    /// Slowest observed sample in nanoseconds.
    pub max_ns: f64,
    /// Number of timed samples.
    pub samples: u64,
    /// Iterations batched into each sample.
    pub iters_per_sample: u64,
}

/// A whole `BENCH_<group>.json` document, parse/render round-trippable.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    /// Benchmark group name (`BENCH_<group>.json`).
    pub group: String,
    /// Time unit (always `ns` from the shim).
    pub unit: String,
    /// Benchmark rows in artifact order.
    pub rows: Vec<BenchRow>,
}

/// Parse a `BENCH_<group>.json` document keeping every field, so the
/// document can be rewritten without losing `max_ns`/`samples`/... .
pub fn parse_bench_doc(text: &str) -> Result<BenchDoc, String> {
    let doc = parse(text)?;
    let group = doc
        .get("group")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| "missing \"group\"".to_string())?
        .to_string();
    let unit = doc.get("unit").and_then(JsonValue::as_str).unwrap_or("ns").to_string();
    let benches = doc
        .get("benchmarks")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| "missing \"benchmarks\" array".to_string())?;
    let mut rows = Vec::with_capacity(benches.len());
    for b in benches {
        let name = b
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "benchmark entry without \"name\"".to_string())?
            .to_string();
        let field = |key: &str| -> Result<f64, String> {
            b.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("benchmark {name:?} without numeric {key:?}"))
        };
        let min_ns = field("min_ns")?;
        rows.push(BenchRow {
            mean_ns: b.get("mean_ns").and_then(JsonValue::as_f64).unwrap_or(min_ns),
            max_ns: b.get("max_ns").and_then(JsonValue::as_f64).unwrap_or(min_ns),
            samples: b.get("samples").and_then(JsonValue::as_f64).unwrap_or(0.0) as u64,
            iters_per_sample: b.get("iters_per_sample").and_then(JsonValue::as_f64).unwrap_or(1.0)
                as u64,
            name,
            min_ns,
        });
    }
    Ok(BenchDoc { group, unit, rows })
}

/// Render a [`BenchDoc`] in exactly the criterion shim's artifact shape
/// (same field order, one row per line, fixed one-decimal precision), so
/// merged baselines diff cleanly against shim-written ones.
pub fn render_bench_doc(doc: &BenchDoc) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"group\": \"{}\",\n", doc.group));
    out.push_str(&format!("  \"unit\": \"{}\",\n  \"benchmarks\": [\n", doc.unit));
    for (i, r) in doc.rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"max_ns\": {:.1}, \"samples\": {}, \"iters_per_sample\": {}}}{}\n",
            r.name.replace('"', "'"),
            r.mean_ns,
            r.min_ns,
            r.max_ns,
            r.samples,
            r.iters_per_sample,
            if i + 1 < doc.rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Worst-window merge of N passes of the same benchmark group: for each
/// row, keep the pass with the **largest** `min_ns`.
///
/// `min_ns` is noise-floor-stable *within* a pass but optimistic *across*
/// passes: a single quiet window makes the whole baseline unbeatable on a
/// normal day, and the regression gate then cries wolf. Taking the
/// per-row maximum of the per-pass minima keeps the baseline at the level
/// a fresh run can actually reproduce. The winning pass's full row (mean,
/// max, sample counts) is kept, so the artifact stays internally
/// consistent.
///
/// Every pass must contain exactly the rows of the first pass (order may
/// differ); a vanished or extra row is an error, not a silent drop.
pub fn merge_worst_window(passes: &[BenchDoc]) -> Result<BenchDoc, String> {
    let first = passes.first().ok_or("no passes to merge")?;
    let mut merged = first.clone();
    for (i, pass) in passes.iter().enumerate().skip(1) {
        if pass.group != first.group {
            return Err(format!(
                "pass {} is group {:?}, expected {:?}",
                i + 1,
                pass.group,
                first.group
            ));
        }
        if pass.rows.len() != first.rows.len() {
            return Err(format!(
                "pass {} has {} rows, expected {}",
                i + 1,
                pass.rows.len(),
                first.rows.len()
            ));
        }
        for row in &mut merged.rows {
            let other = pass
                .rows
                .iter()
                .find(|r| r.name == row.name)
                .ok_or_else(|| format!("pass {} is missing benchmark {:?}", i + 1, row.name))?;
            if other.min_ns > row.min_ns {
                *row = other.clone();
            }
        }
    }
    Ok(merged)
}

/// Parse the benchmark cases out of a `BENCH_<group>.json` document (the
/// shape the vendored criterion shim emits).
pub fn parse_bench_file(text: &str) -> Result<Vec<BenchCase>, String> {
    let doc = parse(text)?;
    let benches = doc
        .get("benchmarks")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| "missing \"benchmarks\" array".to_string())?;
    let mut out = Vec::with_capacity(benches.len());
    for b in benches {
        let name = b
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "benchmark entry without \"name\"".to_string())?
            .to_string();
        let min_ns = b
            .get("min_ns")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("benchmark {name:?} without numeric \"min_ns\""))?;
        let mean_ns = b.get("mean_ns").and_then(JsonValue::as_f64).unwrap_or(min_ns);
        out.push(BenchCase { name, min_ns, mean_ns });
    }
    Ok(out)
}

/// Outcome of one baseline-vs-fresh benchmark comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance of the baseline.
    Ok,
    /// Faster than `baseline · (1 − tolerance)` — consider refreshing the
    /// baseline (reported, never fails the gate).
    Improved,
    /// Slower than `baseline · (1 + tolerance)` — fails the gate.
    Regressed,
    /// In the baseline but absent from the fresh run — fails the gate.
    Missing,
    /// In the fresh run but absent from the baseline (reported only).
    New,
}

impl Verdict {
    /// Whether this verdict fails the gate.
    pub fn fails(self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::Missing)
    }

    /// Fixed-width label for the report table.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Missing => "MISSING",
            Verdict::New => "new",
        }
    }
}

/// One row of the gate report.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Benchmark name.
    pub name: String,
    /// Baseline `min_ns` (`None` for [`Verdict::New`]).
    pub baseline_ns: Option<f64>,
    /// Fresh `min_ns` (`None` for [`Verdict::Missing`]).
    pub fresh_ns: Option<f64>,
    /// `fresh / baseline` when both sides exist.
    pub ratio: Option<f64>,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compare a fresh run against a baseline with a symmetric reporting
/// tolerance (e.g. `0.15` = ±15%). Rows come back in baseline order with
/// fresh-only rows appended, so the report is stable.
pub fn compare(baseline: &[BenchCase], fresh: &[BenchCase], tolerance: f64) -> Vec<Comparison> {
    compare_with_tolerances(baseline, fresh, tolerance, &|_| None)
}

/// [`compare`] with a per-row tolerance override: `row_tolerance(name)`
/// returning `Some(t)` replaces the global tolerance for that row. Tail
/// statistics (a p99 latency) legitimately wobble far more than a `min_ns`
/// hot-loop row; giving them a wider band here beats either failing the
/// stage into a retry storm or widening the gate for everything.
pub fn compare_with_tolerances(
    baseline: &[BenchCase],
    fresh: &[BenchCase],
    tolerance: f64,
    row_tolerance: &dyn Fn(&str) -> Option<f64>,
) -> Vec<Comparison> {
    let mut rows = Vec::with_capacity(baseline.len());
    for base in baseline {
        let tolerance = row_tolerance(&base.name).unwrap_or(tolerance);
        match fresh.iter().find(|f| f.name == base.name) {
            Some(f) => {
                let ratio = if base.min_ns > 0.0 { f.min_ns / base.min_ns } else { 1.0 };
                let verdict = if ratio > 1.0 + tolerance {
                    Verdict::Regressed
                } else if ratio < 1.0 - tolerance {
                    Verdict::Improved
                } else {
                    Verdict::Ok
                };
                rows.push(Comparison {
                    name: base.name.clone(),
                    baseline_ns: Some(base.min_ns),
                    fresh_ns: Some(f.min_ns),
                    ratio: Some(ratio),
                    verdict,
                });
            }
            None => rows.push(Comparison {
                name: base.name.clone(),
                baseline_ns: Some(base.min_ns),
                fresh_ns: None,
                ratio: None,
                verdict: Verdict::Missing,
            }),
        }
    }
    for f in fresh {
        if !baseline.iter().any(|b| b.name == f.name) {
            rows.push(Comparison {
                name: f.name.clone(),
                baseline_ns: None,
                fresh_ns: Some(f.min_ns),
                ratio: None,
                verdict: Verdict::New,
            });
        }
    }
    rows
}

/// Whether any row fails the gate.
pub fn has_regression(rows: &[Comparison]) -> bool {
    rows.iter().any(|r| r.verdict.fails())
}

/// Render the report rows as an aligned plain-text table.
pub fn render_table(group: &str, rows: &[Comparison]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{group}\n  {:<28} {:>12} {:>12} {:>8}  verdict\n",
        "benchmark", "base min_ns", "fresh min_ns", "ratio"
    ));
    for r in rows {
        let base = r.baseline_ns.map_or("-".to_string(), |v| format!("{v:.1}"));
        let fresh = r.fresh_ns.map_or("-".to_string(), |v| format!("{v:.1}"));
        let ratio = r.ratio.map_or("-".to_string(), |v| format!("{v:.2}x"));
        out.push_str(&format!(
            "  {:<28} {base:>12} {fresh:>12} {ratio:>8}  {}\n",
            r.name,
            r.verdict.label()
        ));
    }
    out
}

/// Render per-bench verdicts as one compact JSON object — the shape
/// `ci_bench_gate --json-out` writes and `scripts/ci.sh` embeds verbatim
/// under the `"bench"` key of `results/ci_summary.json`.
///
/// `groups` pairs each artifact name (`BENCH_candidates.json`, ...) with
/// its comparison rows. `delta` is the relative change (`fresh/baseline −
/// 1`; +0.08 = 8% slower), omitted — like the absent side of the
/// measurement — for `missing`/`new` rows.
pub fn verdicts_json(tolerance: f64, groups: &[(String, Vec<Comparison>)]) -> String {
    let mut rows = JsonArray::new();
    let mut any_fails = false;
    for (artifact, comparisons) in groups {
        for r in comparisons {
            any_fails |= r.verdict.fails();
            rows.push_object(|o| {
                o.str("artifact", artifact);
                o.str("name", &r.name);
                if let Some(v) = r.baseline_ns {
                    o.f64_fixed("baseline_min_ns", v, 1);
                }
                if let Some(v) = r.fresh_ns {
                    o.f64_fixed("fresh_min_ns", v, 1);
                }
                if let Some(ratio) = r.ratio {
                    o.f64_fixed("delta", ratio - 1.0, 4);
                }
                o.str("verdict", r.verdict.label());
            });
        }
    }
    let mut out = JsonObject::new();
    out.f64("tolerance", tolerance);
    out.str("result", if any_fails { "fail" } else { "pass" });
    out.raw("benchmarks", &rows.finish());
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(name: &str, min_ns: f64) -> BenchCase {
        BenchCase { name: name.to_string(), min_ns, mean_ns: min_ns * 1.1 }
    }

    #[test]
    fn parses_criterion_shim_artifact() {
        let text = r#"{
  "group": "edit_kernel",
  "unit": "ns",
  "benchmarks": [
    {"name": "dp/16", "mean_ns": 14875.6, "min_ns": 12778.4, "max_ns": 30149.0, "samples": 20, "iters_per_sample": 10},
    {"name": "myers/16", "mean_ns": 3831.0, "min_ns": 3722.9, "max_ns": 4134.4, "samples": 20, "iters_per_sample": 10}
  ]
}"#;
        let cases = parse_bench_file(text).unwrap();
        assert_eq!(cases.len(), 2);
        assert_eq!(cases[0].name, "dp/16");
        assert_eq!(cases[0].min_ns, 12778.4);
        assert_eq!(cases[1].name, "myers/16");
    }

    #[test]
    fn rejects_malformed_artifacts() {
        assert!(parse_bench_file("not json").is_err());
        assert!(parse_bench_file("{\"group\": \"g\"}").is_err());
        assert!(parse_bench_file("{\"benchmarks\": [{\"min_ns\": 1.0}]}").is_err());
    }

    #[test]
    fn injected_fifty_percent_slowdown_fails_the_gate() {
        // The scratch test of the acceptance criteria: a deliberate 50%
        // slowdown on one benchmark must trip the default ±15% gate.
        let baseline = vec![case("kernel/word", 1000.0), case("kernel/blocked", 5000.0)];
        let fresh = vec![case("kernel/word", 1500.0), case("kernel/blocked", 5000.0)];
        let rows = compare(&baseline, &fresh, 0.15);
        assert!(has_regression(&rows));
        let bad = rows.iter().find(|r| r.name == "kernel/word").unwrap();
        assert_eq!(bad.verdict, Verdict::Regressed);
        assert!((bad.ratio.unwrap() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn within_tolerance_passes() {
        let baseline = vec![case("a", 1000.0), case("b", 2000.0)];
        let fresh = vec![case("a", 1100.0), case("b", 1900.0)];
        let rows = compare(&baseline, &fresh, 0.15);
        assert!(!has_regression(&rows));
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));
    }

    #[test]
    fn improvement_is_reported_not_failed() {
        let baseline = vec![case("a", 1000.0)];
        let fresh = vec![case("a", 500.0)];
        let rows = compare(&baseline, &fresh, 0.15);
        assert!(!has_regression(&rows));
        assert_eq!(rows[0].verdict, Verdict::Improved);
    }

    #[test]
    fn missing_fails_and_new_is_reported() {
        let baseline = vec![case("renamed_away", 1000.0)];
        let fresh = vec![case("renamed_to", 1000.0)];
        let rows = compare(&baseline, &fresh, 0.15);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].verdict, Verdict::Missing);
        assert_eq!(rows[1].verdict, Verdict::New);
        assert!(has_regression(&rows));
    }

    #[test]
    fn per_row_tolerance_override_widens_only_that_row() {
        let baseline = vec![case("replay/point_query_p99", 1000.0), case("hot/loop", 1000.0)];
        let fresh = vec![case("replay/point_query_p99", 1500.0), case("hot/loop", 1500.0)];
        // Globally ±15% both rows regress; with the p99 row widened to
        // ±60%, only the hot loop still fails.
        let rows = compare_with_tolerances(&baseline, &fresh, 0.15, &|name| {
            (name == "replay/point_query_p99").then_some(0.60)
        });
        assert_eq!(rows[0].verdict, Verdict::Ok);
        assert_eq!(rows[1].verdict, Verdict::Regressed);
        // Improvements are judged against the same per-row band.
        let fast = vec![case("replay/point_query_p99", 500.0), case("hot/loop", 500.0)];
        let rows = compare_with_tolerances(&baseline, &fast, 0.15, &|name| {
            (name == "replay/point_query_p99").then_some(0.60)
        });
        assert_eq!(rows[0].verdict, Verdict::Ok, "within the wide band");
        assert_eq!(rows[1].verdict, Verdict::Improved);
    }

    #[test]
    fn boundary_exactly_at_tolerance_passes() {
        let baseline = vec![case("a", 1000.0)];
        let fresh = vec![case("a", 1150.0)];
        let rows = compare(&baseline, &fresh, 0.15);
        assert!(!has_regression(&rows), "ratio exactly 1+tol is not a regression");
    }

    #[test]
    fn table_renders_all_rows() {
        let rows = compare(&[case("a", 1000.0)], &[case("a", 1600.0), case("b", 10.0)], 0.15);
        let table = render_table("edit_kernel", &rows);
        assert!(table.contains("REGRESSED"));
        assert!(table.contains("new"));
        assert!(table.contains("1.60x"));
    }

    fn row(name: &str, min_ns: f64) -> BenchRow {
        BenchRow {
            name: name.to_string(),
            mean_ns: min_ns * 1.2,
            min_ns,
            max_ns: min_ns * 2.0,
            samples: 10,
            iters_per_sample: 3,
        }
    }

    #[test]
    fn bench_doc_round_trips_through_the_shim_format() {
        // Values exact at one decimal: the render is fixed-precision
        // (matching the shim), so only such docs round-trip bit-exactly.
        let exact = |name: &str, min_ns: f64| BenchRow {
            name: name.to_string(),
            mean_ns: min_ns + 0.5,
            min_ns,
            max_ns: min_ns * 2.0,
            samples: 10,
            iters_per_sample: 3,
        };
        let doc = BenchDoc {
            group: "candidates".to_string(),
            unit: "ns".to_string(),
            rows: vec![exact("pages/gen", 17424231.0), exact("packed/gen", 9000001.5)],
        };
        let text = render_bench_doc(&doc);
        // The render must be byte-compatible with what the shim writes:
        // the summary parser must see the same cases either way.
        let cases = parse_bench_file(&text).unwrap();
        assert_eq!(cases.len(), 2);
        assert_eq!(cases[1].min_ns, 9000001.5);
        let reparsed = parse_bench_doc(&text).unwrap();
        assert_eq!(reparsed, doc);
    }

    #[test]
    fn worst_window_merge_keeps_the_slowest_minimum_per_row() {
        let mk = |a: f64, b: f64| BenchDoc {
            group: "g".to_string(),
            unit: "ns".to_string(),
            rows: vec![row("a", a), row("b", b)],
        };
        // Pass 2 hit a quiet window on "a" (faster min); pass 3 on "b".
        // The merge must keep the reproducible (slower) minimum of each.
        let merged =
            merge_worst_window(&[mk(1000.0, 2200.0), mk(900.0, 2500.0), mk(1100.0, 2000.0)])
                .unwrap();
        assert_eq!(merged.rows[0].min_ns, 1100.0);
        assert_eq!(merged.rows[1].min_ns, 2500.0);
        // The winning row is taken whole, so mean/max stay consistent
        // with the min they were measured alongside.
        assert_eq!(merged.rows[0].mean_ns, 1100.0 * 1.2);
        assert_eq!(merged.rows[1].max_ns, 2500.0 * 2.0);
    }

    #[test]
    fn worst_window_merge_rejects_row_mismatches() {
        let one =
            BenchDoc { group: "g".to_string(), unit: "ns".to_string(), rows: vec![row("a", 1.0)] };
        let renamed =
            BenchDoc { group: "g".to_string(), unit: "ns".to_string(), rows: vec![row("b", 1.0)] };
        assert!(merge_worst_window(&[]).is_err());
        assert!(merge_worst_window(&[one.clone(), renamed]).is_err());
        let other_group = BenchDoc { group: "h".to_string(), ..one.clone() };
        assert!(merge_worst_window(&[one, other_group]).is_err());
    }

    #[test]
    fn verdicts_json_carries_every_row_and_parses_back() {
        use fuzzydedup_metrics::json::parse;
        let rows = compare(&[case("a", 1000.0), case("gone", 5.0)], &[case("a", 1500.0)], 0.15);
        let text = verdicts_json(0.15, &[("BENCH_x.json".to_string(), rows)]);
        let doc = parse(&text).unwrap();
        assert_eq!(doc.get("result").and_then(JsonValue::as_str), Some("fail"));
        let benches = doc.get("benchmarks").and_then(JsonValue::as_array).unwrap();
        assert_eq!(benches.len(), 2);
        let a = &benches[0];
        assert_eq!(a.get("name").and_then(JsonValue::as_str), Some("a"));
        assert_eq!(a.get("verdict").and_then(JsonValue::as_str), Some("REGRESSED"));
        assert_eq!(a.get("baseline_min_ns").and_then(JsonValue::as_f64), Some(1000.0));
        assert_eq!(a.get("fresh_min_ns").and_then(JsonValue::as_f64), Some(1500.0));
        assert!((a.get("delta").and_then(JsonValue::as_f64).unwrap() - 0.5).abs() < 1e-9);
        // The missing row has no fresh side and no delta.
        let gone = &benches[1];
        assert_eq!(gone.get("verdict").and_then(JsonValue::as_str), Some("MISSING"));
        assert!(gone.get("fresh_min_ns").is_none());
        assert!(gone.get("delta").is_none());
    }
}
