//! Quickstart: deduplicate a small music relation in a dozen lines.
//!
//! Run with: `cargo run --example quickstart`

use std::time::Duration;

use fuzzydedup::core::{Aggregation, CutSpec, DedupConfig, Deduplicator};
use fuzzydedup::textdist::DistanceKind;

fn main() {
    // A relation with fuzzy duplicates (the paper's Table 1 flavor).
    let records: Vec<Vec<String>> = [
        ["The Doors", "LA Woman"],
        ["Doors", "LA Woman"],
        ["The Beatles", "A Little Help from My Friends"],
        ["Beatles, The", "With A Little Help From My Friend"],
        ["Shania Twain", "Im Holdin on to Love"],
        ["Twian, Shania", "I'm Holding On To Love"],
        ["Aaliyah", "Are You Ready"],
        ["AC DC", "Are You Ready"],
        ["Bob Dylan", "Are You Ready"],
        ["Creed", "Are You Ready"],
    ]
    .iter()
    .map(|r| r.iter().map(|s| s.to_string()).collect())
    .collect();

    // DE_S(K=4): groups of up to 4 mutual nearest neighbors whose
    // neighborhoods are sparse (max neighborhood growth < 4).
    let config = DedupConfig::new(DistanceKind::FuzzyMatch)
        .cut(CutSpec::Size(4))
        .aggregation(Aggregation::Max)
        .sn_threshold(4.0);

    let outcome = Deduplicator::new(config).run_records(&records).expect("valid configuration");

    println!("found {} duplicate group(s):", outcome.partition.duplicate_groups().count());
    for group in outcome.partition.duplicate_groups() {
        println!("  group:");
        for &id in group {
            println!("    [{id}] {} — {}", records[id as usize][0], records[id as usize][1]);
        }
    }
    println!(
        "\nphase 1 took {:?} ({} index lookups), phase 2 took {:?}",
        Duration::from_nanos(outcome.metrics.timings.phase1_ns),
        outcome.phase1_stats.lookups,
        Duration::from_nanos(outcome.metrics.timings.phase2_ns),
    );
    println!(
        "buffer pool: {:.1}% hit ratio over {} page accesses",
        100.0 * outcome.buffer_stats.hit_ratio(),
        outcome.buffer_stats.accesses()
    );

    // The four distinct "Are You Ready" tracks share a title but are NOT
    // merged: their neighborhoods are dense, so the SN criterion holds the
    // line where a global threshold would collapse them.
    assert!(outcome.partition.are_together(0, 1));
    assert!(!outcome.partition.are_together(6, 7));
}
