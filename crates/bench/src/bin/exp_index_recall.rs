//! Experiment X3 (ours) — validating the paper's "treat probabilistic
//! indexes as exact" assumption, and the `recall-smoke` stage of
//! `scripts/ci.sh`.
//!
//! §4 of the paper: "For the purpose of this paper, we treat these
//! probabilistic indexes as exact nearest neighbor indexes. The
//! experimental results ... illustrate that this assumption does not
//! negatively impact the actual results." We quantify that claim for
//! the inverted index against the exact nested-loop reference:
//!
//! * nearest-neighbor recall (does `top_1` agree with the truth?),
//!   conditioned on the truth being close (the only case the partitioning
//!   phase cares about);
//! * the same recall with the candidate ladder disarmed
//!   (`UnfilteredDistance`), **asserted identical** — the length and
//!   q-gram count filters must be recall-lossless;
//! * the two frozen postings layouts (in memory, page-backed), asserted to
//!   agree with each other on the whole combined lookup, capped too (one
//!   merge reads both, so identical answers, not merely close recall);
//! * end-to-end quality deltas when the whole pipeline runs on each index.
//!
//! Any violated assertion exits non-zero, which is what makes this binary
//! a CI gate and not just a table printer.
//!
//! Run with: `cargo run --release -p fuzzydedup-bench --bin exp_index_recall`

use std::sync::Arc;

use fuzzydedup_core::{evaluate, CollapseKey, CutSpec, DedupConfig, Deduplicator, IndexChoice};
use fuzzydedup_datagen::{restaurants, DatasetSpec};
use fuzzydedup_nnindex::{
    InvertedIndex, InvertedIndexConfig, LookupSpec, NestedLoopIndex, NnIndex, PostingsSource,
};
use fuzzydedup_storage::{BufferPool, BufferPoolConfig, InMemoryDisk};
use fuzzydedup_textdist::{Distance, DistanceKind, EditDistance, UnfilteredDistance};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn nn_recall(approx: &dyn NnIndex, exact: &dyn NnIndex, close: f64) -> (f64, usize) {
    let mut agree = 0usize;
    let mut relevant = 0usize;
    for id in 0..exact.len() as u32 {
        let truth = exact.top_k(id, 1);
        let Some(t) = truth.first() else { continue };
        if t.dist < close {
            relevant += 1;
            if approx.top_k(id, 1).first().map(|x| x.id) == Some(t.id) {
                agree += 1;
            }
        }
    }
    (agree as f64 / relevant.max(1) as f64, relevant)
}

fn pool() -> Arc<BufferPool> {
    Arc::new(BufferPool::new(BufferPoolConfig::with_capacity(4096), Arc::new(InMemoryDisk::new())))
}

fn build_inverted<D: Distance>(
    records: &[Vec<String>],
    distance: D,
    postings_source: PostingsSource,
    candidate_limit: usize,
) -> InvertedIndex<D> {
    let config = InvertedIndexConfig { postings_source, candidate_limit, ..Default::default() };
    InvertedIndex::build(records.to_vec(), distance, pool(), config)
}

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    let dataset = restaurants::generate(&mut rng, DatasetSpec::small());
    let records = dataset.records.clone();
    println!("corpus: Restaurants, {} records, {} true pairs", records.len(), dataset.true_pairs());

    let exact = NestedLoopIndex::new(records.clone(), EditDistance);

    // One inverted index per postings layout, each with an
    // `UnfilteredDistance` control (`admits_qgram_filter() == false`
    // degrades the whole candidate ladder to a no-op).
    let sources = [PostingsSource::Memory, PostingsSource::Pages];
    let names = sources.map(|s| format!("inverted/{s:?}").to_lowercase());
    let inverted = sources.map(|s| build_inverted(&records, EditDistance, s, 256));
    let inverted_nofilter =
        sources.map(|s| build_inverted(&records, UnfilteredDistance(EditDistance), s, 256));

    println!("\n# Nearest-neighbor recall vs exact reference (truth within distance bound):");
    println!("{:<18} {:>12} {:>12} {:>12}", "index", "nn<0.2", "nn<0.3", "nn<0.4");
    for (name, idx) in names.iter().zip(&inverted) {
        let mut row = format!("{name:<18}");
        for bound in [0.2, 0.3, 0.4] {
            let (recall, n) = nn_recall(idx, &exact, bound);
            row.push_str(&format!(" {:>7.3}({n:>3})", recall));
        }
        println!("{row}");
    }

    // Gate 1: the candidate ladder is recall-lossless on every index
    // layout (a still-growing index answers as a built one does, bit for
    // bit: `crates/nnindex/tests/grown_equivalence.rs`).
    for bound in [0.2, 0.3, 0.4] {
        for (name, (idx, control)) in names.iter().zip(inverted.iter().zip(&inverted_nofilter)) {
            let (filtered, _) = nn_recall(idx, &exact, bound);
            let (unfiltered, _) = nn_recall(control, &exact, bound);
            assert_eq!(
                filtered, unfiltered,
                "{name}: candidate filters changed nn<{bound} recall — they must be lossless"
            );
        }
    }
    println!("(filters on/off rows are asserted identical: the candidate ladder is lossless)");

    // Gate 2: the two postings layouts answer every query identically —
    // equality of the whole combined lookup (neighbors, growth, cost), at
    // the default candidate budget and at one that cuts through weight ties.
    let tight = sources.map(|s| build_inverted(&records, EditDistance, s, 16));
    for [memory, pages] in [&inverted, &tight] {
        for id in 0..records.len() as u32 {
            for spec in [LookupSpec::TopK(3), LookupSpec::Radius(0.3)] {
                let (got, want) = (memory.lookup(id, spec, 2.0), pages.lookup(id, spec, 2.0));
                assert_eq!(got, want, "memory vs pages: lookup({id}, {spec:?}) diverged");
            }
        }
    }
    println!("(postings layouts memory/pages are asserted to answer capped lookups identically:");
    println!(" neighbors, growth and cost, at candidate_limit 256 and 16)");

    // Gate 3: the exact-duplicate collapse pre-pass. In the exact regime
    // (no candidate budget, so the budget can never bisect a duplicate
    // class — DESIGN.md §7.10) the expanded NN relation is asserted
    // bit-identical to the collapse-off run. Under the default budget a
    // cut through a weight tie-block keeps a per-representative
    // *superset* of the full-corpus candidates (NG can only grow), so
    // the assertion there is partition identity — the invariant Phase 2
    // actually consumes.
    let mut rng = StdRng::seed_from_u64(7);
    let dup_heavy = restaurants::generate(&mut rng, DatasetSpec::small().dup_rate(0.4));
    let uncapped = InvertedIndexConfig { candidate_limit: 0, ..Default::default() };
    for (name, choice, exact) in [
        ("nested", IndexChoice::NestedLoop, true),
        ("inverted/uncapped", IndexChoice::Inverted(uncapped), true),
        ("inverted/default", IndexChoice::Inverted(InvertedIndexConfig::default()), false),
    ] {
        let base = DedupConfig::new(DistanceKind::EditDistance)
            .cut(CutSpec::Size(4))
            .sn_threshold(4.0)
            .index_choice(choice);
        let plain =
            Deduplicator::new(base.clone()).run_records(&dup_heavy.records).expect("pipeline");
        let collapsed = Deduplicator::new(base.collapse(Some(CollapseKey::RecordString)))
            .run_records(&dup_heavy.records)
            .expect("pipeline");
        assert_eq!(plain.partition, collapsed.partition, "{name}: collapse moved the partition");
        if exact {
            assert_eq!(plain.nn_reln, collapsed.nn_reln, "{name}: collapse moved the NN relation");
        }
        assert!(
            collapsed.metrics.collapse.collapsed_records > 0,
            "{name}: a 40% duplicate stream collapsed nothing"
        );
    }
    println!("(exact-duplicate collapse: relation asserted bit-identical in the exact regime,");
    println!(" partition asserted identical under the default candidate budget)");

    println!("\n# End-to-end quality per index (DE_S(4), c=6, fms):");
    println!("{:<12} {:>8} {:>10} {:>7}", "index", "recall", "precision", "f1");
    for (name, choice) in [
        ("nested", IndexChoice::NestedLoop),
        ("inverted", IndexChoice::Inverted(InvertedIndexConfig::default())),
    ] {
        let config = DedupConfig::new(DistanceKind::FuzzyMatch)
            .cut(CutSpec::Size(4))
            .sn_threshold(6.0)
            .index_choice(choice);
        let outcome =
            Deduplicator::new(config.clone()).run_records(&dataset.records).expect("pipeline");
        let pr = evaluate(&outcome.partition, &dataset.gold);
        println!("{:<12} {:>8.3} {:>10.3} {:>7.3}", name, pr.recall, pr.precision, pr.f1());
    }
    println!("\n(paper's claim holds when the probabilistic rows track the nested row closely)");
    println!("recall-smoke: ok — all losslessness and layout-equivalence assertions held");
}
