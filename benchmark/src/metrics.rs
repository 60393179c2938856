//! The names and units of every metric the benchmark reports, in the order
//! `BENCHMARK.json` lists them, and the value set one run fills in.

use crate::json::Metric;
use crate::stats::{best, percentile_us};
use crate::Report;

/// End-to-end metrics, reported by the untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("retune_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pair_f1", "ratio"),
    ("query_p50_us", "us"),
    ("query_p90_us", "us"),
];

/// Per-layer metrics, reported by the traced run of every workload. A layer
/// a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datagen.csv_parse_s", "s"),
    ("datagen.csv_write_s", "s"),
    ("textdist.build_s", "s"),
    ("textdist.pair_ns", "ns"),
    ("textdist.calls", "count"),
    ("textdist.early_exit_ratio", "ratio"),
    ("nnindex.build_s", "s"),
    ("nnindex.postings_bytes", "bytes"),
    ("nnindex.candgen_us", "us"),
    ("nnindex.lookup_us", "us"),
    ("nnindex.candgen_share", "ratio"),
    ("nnindex.candidates_per_lookup", "count"),
    ("nnindex.verified_per_lookup", "count"),
    ("nnindex.postings_scanned_per_lookup", "count"),
    ("nnindex.useful_ratio", "ratio"),
    ("storage.hits", "count"),
    ("storage.misses", "count"),
    ("storage.evictions", "count"),
    ("storage.writebacks", "count"),
    ("storage.hit_ratio", "ratio"),
    ("storage.frames_over_pages", "ratio"),
    ("relation.sort_passes", "count"),
    ("relation.join_passes", "count"),
    ("relation.cs_pairs", "count"),
    ("collapse.build_s", "s"),
    ("collapse.expand_s", "s"),
    ("collapse.classes", "count"),
    ("collapse.collapsed_share", "ratio"),
    ("phase1.s", "s"),
    ("phase1.lookups", "count"),
    ("phase1.fallback_probes", "count"),
    ("phase1.steal_blocks", "count"),
    ("phase1.candgen_s_est", "s"),
    ("phase1.verify_s_est", "s"),
    ("spill.write_s", "s"),
    ("spill.read_s", "s"),
    ("spill.bytes", "bytes"),
    ("phase2.s", "s"),
    ("phase2.components", "count"),
    ("phase2.par_point_ms", "ms"),
    ("phase2.tables_point_ms", "ms"),
    ("minimality.s", "s"),
    ("threshold.estimate_s", "s"),
    ("incremental.insert_batch_s", "s"),
    ("incremental.refreshed_per_inserted", "ratio"),
    ("incremental.query_record_p50_us", "us"),
    ("service.submit_wait_p99_us", "us"),
    ("service.drain_s", "s"),
    ("service.batches", "count"),
    ("service.epochs", "count"),
    ("service.queue_depth_high_water", "count"),
    ("service.query_p99_us", "us"),
    ("service.query_quiet_p50_us", "us"),
    ("service.apply_ratio", "ratio"),
    ("service.ingest_vs_batch_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("calib.kernel_s", "s"),
    ("calib.drift", "ratio"),
];

/// The values of one run: every name of one table, 0 until set.
pub struct MetricSet {
    metrics: Vec<Metric>,
}

impl MetricSet {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Self {
            metrics: table.iter().map(|&(name, unit)| Metric { name, value: 0.0, unit }).collect(),
        }
    }

    /// Set a metric by name. An unknown name is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .metrics
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        slot.value = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.iter().find(|m| m.name == name).map_or(0.0, |m| m.value)
    }

    pub fn as_slice(&self) -> &[Metric] {
        &self.metrics
    }

    /// Whether every value is a finite number.
    pub fn all_finite(&self) -> bool {
        self.metrics.iter().all(|m| m.value.is_finite())
    }
}

/// Fewest rounds of an untraced run.
pub const MIN_ROUNDS: usize = 3;

/// Whether an untraced run that has done `rounds` rounds in `elapsed_s`
/// starts another: until `min_rounds` are done, and then for as long as a
/// round of the mean length so far still ends within the measuring time.
pub fn another_round(rounds: usize, min_rounds: usize, elapsed_s: f64, seconds: f64) -> bool {
    rounds < min_rounds || elapsed_s + elapsed_s / rounds as f64 <= seconds
}
/// Fewest set-ups behind a reported value.
pub const MIN_SETUPS: usize = 15;

/// The timing samples of one untraced run over one corpus, one entry per
/// round.
#[derive(Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    pub run_s: Vec<f64>,
    pub retune_s: Vec<f64>,
    pub query_p50_us: Vec<f64>,
    pub query_p90_us: Vec<f64>,
}

impl Samples {
    /// Add the quantiles of one block of point-query latencies.
    pub fn push_queries(&mut self, block_ns: &[u64]) {
        self.query_p50_us.push(percentile_us(block_ns, 0.50));
        self.query_p90_us.push(percentile_us(block_ns, 0.90));
    }
}

/// The end-to-end metrics of a run over one or more corpora: each timing is
/// the corpus's fastest round, averaged over the corpora. The samples go to
/// the result file, one list per corpus.
pub fn end_to_end(
    report: &mut Report,
    per_corpus: Vec<Samples>,
    peak_rss_mb: f64,
    pair_f1: f64,
) -> MetricSet {
    let mut e2e = MetricSet::new(END_TO_END);
    e2e.set("peak_rss_mb", peak_rss_mb);
    e2e.set("pair_f1", pair_f1);
    let mut lists = ["setup_s", "run_s", "retune_s", "query_p50_us", "query_p90_us"]
        .map(|name| (name, Vec::new()));
    for s in per_corpus {
        let fields = [s.setup_s, s.run_s, s.retune_s, s.query_p50_us, s.query_p90_us];
        for ((_, list), field) in lists.iter_mut().zip(fields) {
            list.push(field);
        }
    }
    for (name, per_corpus) in lists {
        let bests: f64 = per_corpus.iter().map(|samples| best(samples)).sum();
        e2e.set(name, bests / per_corpus.len() as f64);
        report.samples.push((name, per_corpus));
    }
    e2e
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names and units listed under `key` in `BENCHMARK.json`, in order.
    fn listed(text: &str, key: &str) -> Vec<(String, String)> {
        let start = text.find(&format!("\"{key}\"")).expect("key present");
        let open = start + text[start..].find('[').expect("array opens");
        let close = open + text[open..].find(']').expect("array closes");
        let field = |object: &str, name: &str| -> String {
            let at = object.find(&format!("\"{name}\"")).expect("field present");
            let rest = &object[at + name.len() + 2..];
            let first = rest.find('"').expect("value opens") + 1;
            let len = rest[first..].find('"').expect("value closes");
            rest[first..first + len].to_string()
        };
        text[open..close]
            .split('{')
            .skip(1)
            .map(|object| (field(object, "name"), field(object, "unit")))
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let want: Vec<(String, String)> =
                table.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(listed(&text, key), want, "{key} differs from BENCHMARK.json");
        }
    }
}
