//! Experiment A1/X2 — ablations of the design choices DESIGN.md calls out.
//!
//! 1. **CS-only vs SN-only vs CS+SN** (the paper argues both criteria are
//!    necessary: CS alone admits mutual-NN pairs among uniques, SN alone
//!    has no mutuality requirement at all);
//! 2. **minimality post-pass** on/off (§4.5.2 — mergers of disjoint
//!    compact sets should be rare on realistic data).
//!
//! Lemmas 1–4 are properties of `DE` itself; `tests/axioms_property.rs`
//! checks them against the paper's definitions (`fuzzydedup-reference`).
//!
//! Run with: `cargo run --release -p fuzzydedup-bench --bin exp_ablation`

use fuzzydedup_core::minimality::enforce_minimality;
use fuzzydedup_core::{
    evaluate, partition_entries_ablation, Aggregation, CutSpec, DedupConfig, Deduplicator,
};
use fuzzydedup_datagen::{restaurants, DatasetSpec};
use fuzzydedup_textdist::DistanceKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    let dataset = restaurants::generate(&mut rng, DatasetSpec::small());
    let distance = DistanceKind::FuzzyMatch;
    let cut = CutSpec::Size(5);
    let c = 4.0;

    eprintln!("[exp_ablation] running pipeline once for NN lists...");
    let config = DedupConfig::new(distance).cut(cut).sn_threshold(c);
    let outcome =
        Deduplicator::new(config.clone()).run_records(&dataset.records).expect("pipeline");
    let reln = &outcome.nn_reln;

    println!(
        "# Criterion ablation on Restaurants ({} records, c={c}, {}):",
        dataset.len(),
        cut.label()
    );
    println!(
        "{:<14} {:>8} {:>10} {:>7} {:>12}",
        "variant", "recall", "precision", "f1", "pred pairs"
    );
    for (label, use_cs, use_sn) in [
        ("CS+SN", true, true),
        ("CS only", true, false),
        ("SN only", false, true),
        ("neither", false, false),
    ] {
        let p = partition_entries_ablation(reln, cut, Aggregation::Max, c, use_cs, use_sn);
        let pr = evaluate(&p, &dataset.gold);
        println!(
            "{:<14} {:>8.3} {:>10.3} {:>7.3} {:>12}",
            label,
            pr.recall,
            pr.precision,
            pr.f1(),
            pr.predicted_pairs
        );
    }

    println!("\n# Minimality post-pass (§4.5.2):");
    let base = &outcome.partition;
    let minimal = enforce_minimality(reln, base);
    let pr_base = evaluate(base, &dataset.gold);
    let pr_min = evaluate(&minimal, &dataset.gold);
    println!(
        "  without: f1={:.3} groups>1={}   with: f1={:.3} groups>1={}   groups split: {}",
        pr_base.f1(),
        base.duplicate_groups().count(),
        pr_min.f1(),
        minimal.duplicate_groups().count(),
        minimal.num_groups().saturating_sub(base.num_groups()),
    );
    println!("  (the paper predicts such mergers are 'very rare' — expect ~0 splits)");
    println!(
        "\n# Lemmas 1-4: against the paper's definitions in `cargo test --test axioms_property`"
    );
}
