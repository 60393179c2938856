#![warn(missing_docs)]

//! Experiment harness: shared machinery for the drivers that regenerate
//! every table and figure of the paper (see `DESIGN.md` §5 for the
//! experiment index and `EXPERIMENTS.md` for paper-vs-measured results).
//!
//! Each driver in `src/bin/` prints the same rows/series the paper
//! reports; this library holds the common pieces — algorithm sweeps,
//! precision/recall tabulation, and plain-text table rendering.

pub mod replay;

use fuzzydedup_core::{
    evaluate, partition_entries, single_linkage, Aggregation, CutSpec, DedupConfig, Deduplicator,
    NnReln, PrecisionRecall,
};
use fuzzydedup_datagen::Dataset;
use fuzzydedup_metrics::json::JsonObject;
use fuzzydedup_textdist::DistanceKind;

/// One point of a precision-recall sweep.
#[derive(Debug, Clone)]
pub struct QualityPoint {
    /// Algorithm label (`thr`, `DE_S:max4`, ...).
    pub algorithm: String,
    /// The swept parameter value (θ or K).
    pub parameter: f64,
    /// Pairwise recall.
    pub recall: f64,
    /// Pairwise precision.
    pub precision: f64,
    /// F1 score.
    pub f1: f64,
}

impl QualityPoint {
    fn new(algorithm: String, parameter: f64, pr: PrecisionRecall) -> Self {
        Self { algorithm, parameter, recall: pr.recall, precision: pr.precision, f1: pr.f1() }
    }

    /// Render the point as one flat JSON row, tagged with the dataset and
    /// distance it came from (the `--json` output shape of `exp_quality`).
    pub fn to_json_row(&self, dataset: &str, distance: &str) -> String {
        let mut obj = JsonObject::new();
        obj.str("dataset", dataset);
        obj.str("distance", distance);
        obj.str("algorithm", &self.algorithm);
        obj.f64("parameter", self.parameter);
        obj.f64("recall", self.recall);
        obj.f64("precision", self.precision);
        obj.f64("f1", self.f1);
        obj.finish()
    }
}

/// The θ grid used for threshold sweeps (both for the `thr` baseline and
/// `DE_D(θ)`).
fn theta_grid() -> Vec<f64> {
    vec![0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50, 0.60, 0.70]
}

/// The K grid for `DE_S(K)` sweeps.
fn k_grid() -> Vec<usize> {
    vec![2, 3, 4, 5, 6, 8]
}

/// Phase-1 outputs reusable across a whole sweep: top-K lists fetched once
/// at the largest K of `k_grid`, radius lists fetched once at the
/// largest θ of `theta_grid`.
///
/// The reuse is sound because NN lists for a smaller K are *prefixes* of
/// the larger-K lists, and partitioning at a smaller θ over larger-θ lists
/// rejects the extra candidates through the diameter check — both verified
/// against from-scratch runs in the test suite.
pub struct SweepContext {
    /// `NN_Reln` with `max(k_grid)` neighbors per tuple.
    pub topk_reln: NnReln,
    /// `NN_Reln` with all neighbors within `max(theta_grid)` per tuple.
    pub radius_reln: NnReln,
}

impl SweepContext {
    /// Run Phase 1 twice (top-K and radius flavors) for a dataset.
    pub fn build(dataset: &Dataset, distance: DistanceKind) -> Self {
        let max_k = k_grid().into_iter().max().unwrap_or(8);
        let max_theta = theta_grid().last().copied().unwrap_or(0.7);
        let topk = Deduplicator::new(
            DedupConfig::new(distance).cut(CutSpec::Size(max_k)).sn_threshold(4.0),
        )
        .run_records(&dataset.records)
        .expect("top-K phase 1");
        let radius = Deduplicator::new(
            DedupConfig::new(distance).cut(CutSpec::Diameter(max_theta)).sn_threshold(4.0),
        )
        .run_records(&dataset.records)
        .expect("radius phase 1");
        Self { topk_reln: topk.nn_reln, radius_reln: radius.nn_reln }
    }
}

/// Sweep the single-linkage threshold baseline (`thr`) over the θ grid.
///
/// As in the paper, the threshold graph is induced from the output of the
/// nearest-neighbor computation phase and reused for every threshold.
pub fn sweep_threshold_baseline(ctx: &SweepContext, dataset: &Dataset) -> Vec<QualityPoint> {
    theta_grid()
        .into_iter()
        .map(|theta| {
            let partition = single_linkage(&ctx.radius_reln, theta);
            let pr = evaluate(&partition, &dataset.gold);
            QualityPoint::new("thr".to_string(), theta, pr)
        })
        .collect()
}

/// Sweep `DE_S(K)` over the K grid at a fixed SN threshold `c`, reusing
/// the context's top-K lists.
pub fn sweep_de_size(
    ctx: &SweepContext,
    dataset: &Dataset,
    agg: Aggregation,
    c: f64,
) -> Vec<QualityPoint> {
    k_grid()
        .into_iter()
        .map(|k| {
            let partition = partition_entries(&ctx.topk_reln, CutSpec::Size(k), agg, c);
            let pr = evaluate(&partition, &dataset.gold);
            QualityPoint::new(format!("DE_S:{}{}", agg.name(), c as i64), k as f64, pr)
        })
        .collect()
}

/// Sweep `DE_D(θ)` over the θ grid at a fixed SN threshold `c`, reusing
/// the context's radius lists.
pub fn sweep_de_diameter(
    ctx: &SweepContext,
    dataset: &Dataset,
    agg: Aggregation,
    c: f64,
) -> Vec<QualityPoint> {
    theta_grid()
        .into_iter()
        .map(|theta| {
            let partition = partition_entries(&ctx.radius_reln, CutSpec::Diameter(theta), agg, c);
            let pr = evaluate(&partition, &dataset.gold);
            QualityPoint::new(format!("DE_D:{}{}", agg.name(), c as i64), theta, pr)
        })
        .collect()
}

/// Best F1 over a series (headline comparison number).
pub fn best_f1(points: &[QualityPoint]) -> f64 {
    points.iter().map(|p| p.f1).fold(0.0, f64::max)
}

/// Best precision at recall ≥ `floor` — the paper's "for the same recall,
/// higher precision" comparison.
fn best_precision_at_recall(points: &[QualityPoint], floor: f64) -> Option<f64> {
    points
        .iter()
        .filter(|p| p.recall >= floor)
        .map(|p| p.precision)
        .fold(None, |acc, p| Some(acc.map_or(p, |a: f64| a.max(p))))
}

/// Render a quality table (one row per point) in the figures' shape.
pub fn render_quality_table(title: &str, series: &[Vec<QualityPoint>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n"));
    out.push_str(&format!(
        "{:<16} {:>9} {:>8} {:>10} {:>7}\n",
        "algorithm", "param", "recall", "precision", "f1"
    ));
    for points in series {
        for p in points {
            out.push_str(&format!(
                "{:<16} {:>9.3} {:>8.3} {:>10.3} {:>7.3}\n",
                p.algorithm, p.parameter, p.recall, p.precision, p.f1
            ));
        }
    }
    out
}

/// Render the headline summary: best precision at fixed recall floors,
/// per algorithm family.
pub fn render_summary(dataset: &str, series: &[(&str, &[QualityPoint])]) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {dataset}: headline comparison\n"));
    out.push_str(&format!(
        "{:<16} {:>8} {:>22} {:>22}\n",
        "algorithm", "best F1", "best P @ recall>=0.5", "best P @ recall>=0.7"
    ));
    for (name, points) in series {
        let p50 =
            best_precision_at_recall(points, 0.5).map_or("-".to_string(), |p| format!("{p:.3}"));
        let p70 =
            best_precision_at_recall(points, 0.7).map_or("-".to_string(), |p| format!("{p:.3}"));
        out.push_str(&format!("{:<16} {:>8.3} {:>22} {:>22}\n", name, best_f1(points), p50, p70));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(algo: &str, r: f64, p: f64) -> QualityPoint {
        QualityPoint {
            algorithm: algo.into(),
            parameter: 0.0,
            recall: r,
            precision: p,
            f1: if r + p == 0.0 { 0.0 } else { 2.0 * r * p / (r + p) },
        }
    }

    #[test]
    fn best_f1_and_precision_at_recall() {
        let pts = vec![pt("a", 0.9, 0.3), pt("a", 0.6, 0.8), pt("a", 0.4, 0.95)];
        assert!((best_f1(&pts) - (2.0 * 0.6 * 0.8 / 1.4)).abs() < 1e-12);
        assert_eq!(best_precision_at_recall(&pts, 0.5), Some(0.8));
        assert_eq!(best_precision_at_recall(&pts, 0.95), None);
    }

    #[test]
    fn render_does_not_panic() {
        let pts = vec![pt("thr", 0.5, 0.5)];
        let table = render_quality_table("t", std::slice::from_ref(&pts));
        assert!(table.contains("thr"));
        let summary = render_summary("d", &[("thr", &pts)]);
        assert!(summary.contains("best F1"));
    }

    #[test]
    fn grids_are_sorted() {
        let g = theta_grid();
        assert!(g.windows(2).all(|w| w[0] < w[1]));
        let k = k_grid();
        assert!(k.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn small_end_to_end_sweep() {
        // A tiny smoke test over the Table-1 relation keeps the sweeps
        // honest without slowing the suite.
        let d = fuzzydedup_datagen::media::table1();
        let ctx = SweepContext::build(&d, DistanceKind::FuzzyMatch);
        let thr = sweep_threshold_baseline(&ctx, &d);
        assert_eq!(thr.len(), theta_grid().len());
        let des = sweep_de_size(&ctx, &d, Aggregation::Max, 4.0);
        assert_eq!(des.len(), k_grid().len());
        assert!(best_f1(&des) > 0.0);
    }

    #[test]
    fn reused_lists_match_from_scratch_runs() {
        // The prefix-reuse trick must be exactly equivalent to running the
        // pipeline at each sweep point.
        use fuzzydedup_core::CutSpec;
        let d = fuzzydedup_datagen::media::table1();
        let ctx = SweepContext::build(&d, DistanceKind::FuzzyMatch);
        for k in [2usize, 3, 4] {
            let from_ctx =
                partition_entries(&ctx.topk_reln, CutSpec::Size(k), Aggregation::Max, 4.0);
            let scratch = Deduplicator::new(
                DedupConfig::new(DistanceKind::FuzzyMatch).cut(CutSpec::Size(k)).sn_threshold(4.0),
            )
            .run_records(&d.records)
            .unwrap();
            assert_eq!(from_ctx, scratch.partition, "K={k}");
        }
        for theta in [0.15f64, 0.3, 0.5] {
            let from_ctx = partition_entries(
                &ctx.radius_reln,
                CutSpec::Diameter(theta),
                Aggregation::Max,
                4.0,
            );
            let scratch = Deduplicator::new(
                DedupConfig::new(DistanceKind::FuzzyMatch)
                    .cut(CutSpec::Diameter(theta))
                    .sn_threshold(4.0),
            )
            .run_records(&d.records)
            .unwrap();
            assert_eq!(from_ctx, scratch.partition, "theta={theta}");
        }
    }
}
