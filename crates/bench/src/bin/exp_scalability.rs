//! Experiment F9 — Figure 9: scalability of both phases.
//!
//! The paper plots normalized running times (normalized by the Phase-1
//! time on the smallest relation) of Phase 1 and Phase 2 against the
//! relation size, both axes logarithmic, on an organization relation of up
//! to 3 million rows; "the linearity of the plots demonstrates the
//! scalability of both phases".
//!
//! We reproduce the sweep at laptop scale (default 2k → 32k rows,
//! doublings) and additionally report the per-doubling growth factor — a
//! near-2 factor is the log-log linearity (slope ≈ 1) the paper shows.
//!
//! Run with:
//! `cargo run --release -p fuzzydedup-bench --bin exp_scalability -- [--sizes 2000,4000,...]`

use fuzzydedup_core::{CutSpec, DedupConfig, Deduplicator};
use fuzzydedup_datagen::{org, DatasetSpec};
use fuzzydedup_textdist::DistanceKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut sizes: Vec<usize> = vec![2_000, 4_000, 8_000, 16_000, 32_000];
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--sizes" => {
                i += 1;
                sizes = args[i]
                    .split(',')
                    .map(|s| s.trim().parse().expect("--sizes n1,n2,..."))
                    .collect();
            }
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }

    // One big relation, truncated per size so the sweeps share data.
    let max_n = sizes.iter().copied().max().unwrap_or(0);
    eprintln!("[exp_scalability] generating {max_n}-record Org relation...");
    let mut rng = StdRng::seed_from_u64(9);
    let dataset =
        org::generate(&mut rng, DatasetSpec { n_entities: max_n, ..DatasetSpec::medium() });

    println!(
        "{:>9} {:>12} {:>12} {:>10} {:>10}",
        "#tuples", "phase1(ms)", "phase2(ms)", "norm p1", "norm p2"
    );
    let mut baseline_p1: Option<f64> = None;
    let mut rows: Vec<(usize, f64, f64)> = Vec::new();
    for &n in &sizes {
        let records: Vec<Vec<String>> = dataset.records.iter().take(n).cloned().collect();
        let config = DedupConfig::new(DistanceKind::FuzzyMatch)
            .cut(CutSpec::Size(5))
            .sn_threshold(4.0)
            .via_tables(true) // the paper's Phase 2 runs on the server
            .buffer_frames(8192);
        let outcome = Deduplicator::new(config.clone()).run_records(&records).expect("pipeline");
        let p1 = outcome.metrics.timings.phase1_ns as f64 / 1e6;
        let p2 = outcome.metrics.timings.phase2_ns as f64 / 1e6;
        let base = *baseline_p1.get_or_insert(p1);
        println!("{:>9} {:>12.1} {:>12.1} {:>10.2} {:>10.2}", n, p1, p2, p1 / base, p2 / base);
        rows.push((n, p1, p2));
    }

    println!("\nPer-doubling growth factors (≈2 ⇒ linear, the paper's log-log slope 1):");
    for w in rows.windows(2) {
        let (n0, p1a, p2a) = w[0];
        let (n1, p1b, p2b) = w[1];
        if n1 == 2 * n0 {
            println!(
                "  {:>7} -> {:>7}: phase1 x{:.2}, phase2 x{:.2}",
                n0,
                n1,
                p1b / p1a.max(1e-9),
                p2b / p2a.max(1e-9)
            );
        }
    }
}
