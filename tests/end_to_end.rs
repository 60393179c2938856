//! Cross-crate integration tests: the full pipeline on generated,
//! gold-labelled datasets.

use fuzzydedup::core::{
    evaluate, single_linkage, Aggregation, CutSpec, DedupConfig, DedupError, DedupOutcome,
    Deduplicator, IncrementalDedup, IndexChoice, Parallelism,
};
use fuzzydedup::datagen::{media, restaurants, standard_quality_datasets, DatasetSpec};
use fuzzydedup::textdist::{Distance, DistanceKind, EditDistance, FuzzyMatchDistance, IdfModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn de_config(distance: DistanceKind) -> DedupConfig {
    DedupConfig::new(distance).cut(CutSpec::Size(4)).sn_threshold(4.0)
}

fn dedup(records: &[Vec<String>], config: &DedupConfig) -> Result<DedupOutcome, DedupError> {
    Deduplicator::new(config.clone()).run_records(records)
}

#[test]
fn table1_de_beats_any_single_threshold() {
    let dataset = media::table1();
    // DE with fms finds all three pairs with no false positives.
    let outcome = dedup(&dataset.records, &de_config(DistanceKind::FuzzyMatch)).unwrap();
    let de = evaluate(&outcome.partition, &dataset.gold);
    assert_eq!(de.recall, 1.0, "groups: {:?}", outcome.partition.groups());
    assert_eq!(de.precision, 1.0, "groups: {:?}", outcome.partition.groups());

    // No global threshold on the same distance matches that F1.
    let radius =
        DedupConfig::new(DistanceKind::FuzzyMatch).cut(CutSpec::Diameter(0.9)).sn_threshold(1e9);
    let phase1 = dedup(&dataset.records, &radius).unwrap();
    let mut best_thr_f1: f64 = 0.0;
    for i in 1..90 {
        let theta = i as f64 / 100.0;
        let p = single_linkage(&phase1.nn_reln, theta);
        best_thr_f1 = best_thr_f1.max(evaluate(&p, &dataset.gold).f1());
    }
    assert!(
        best_thr_f1 < 1.0,
        "a global threshold should not solve Table 1 perfectly, best f1={best_thr_f1}"
    );
}

#[test]
fn restaurants_quality_is_reasonable() {
    let mut rng = StdRng::seed_from_u64(1);
    let dataset = restaurants::generate(&mut rng, DatasetSpec::with_entities(250));
    let config = DedupConfig::new(DistanceKind::FuzzyMatch).cut(CutSpec::Size(4)).sn_threshold(6.0);
    let outcome = dedup(&dataset.records, &config).unwrap();
    let pr = evaluate(&outcome.partition, &dataset.gold);
    assert!(pr.recall > 0.6, "recall {:.3}", pr.recall);
    assert!(pr.precision > 0.7, "precision {:.3}", pr.precision);
}

#[test]
fn inverted_and_nested_loop_agree_on_quality() {
    let mut rng = StdRng::seed_from_u64(2);
    let dataset = restaurants::generate(&mut rng, DatasetSpec::with_entities(120));
    let inv = dedup(&dataset.records, &de_config(DistanceKind::EditDistance)).unwrap();
    let nl = dedup(
        &dataset.records,
        &de_config(DistanceKind::EditDistance).index_choice(IndexChoice::NestedLoop),
    )
    .unwrap();
    let f_inv = evaluate(&inv.partition, &dataset.gold).f1();
    let f_nl = evaluate(&nl.partition, &dataset.gold).f1();
    // The probabilistic index is treated as exact (§4); quality must be
    // essentially identical to the exact scan.
    assert!((f_inv - f_nl).abs() < 0.05, "inverted f1 {f_inv:.3} vs nested-loop f1 {f_nl:.3}");
}

#[test]
fn via_tables_path_is_identical_on_real_data() {
    let mut rng = StdRng::seed_from_u64(3);
    let dataset = restaurants::generate(&mut rng, DatasetSpec::with_entities(100));
    let mem = dedup(&dataset.records, &de_config(DistanceKind::FuzzyMatch)).unwrap();
    let tab =
        dedup(&dataset.records, &de_config(DistanceKind::FuzzyMatch).via_tables(true)).unwrap();
    assert_eq!(mem.partition, tab.partition);
}

#[test]
fn lookup_order_follows_the_postings_regime() {
    use fuzzydedup::nnindex::{InvertedIndexConfig, PostingsSource};
    let mut rng = StdRng::seed_from_u64(4);
    let dataset = restaurants::generate(&mut rng, DatasetSpec::with_entities(80));
    let over = |postings_source| {
        let index = InvertedIndexConfig { postings_source, ..Default::default() };
        let config = de_config(DistanceKind::FuzzyMatch).index_choice(IndexChoice::Inverted(index));
        dedup(&dataset.records, &config).unwrap()
    };
    // Resident postings: id order. Paged postings: the breadth-first order
    // that keeps neighboring tuples' pages buffered. Same partition.
    let memory = over(PostingsSource::Memory);
    let ids: Vec<u32> = (0..dataset.records.len() as u32).collect();
    assert_eq!(memory.phase1_stats.visit_order, ids);
    assert_eq!(memory.metrics.phase1.bf_queue_high_water, 0);
    let pages = over(PostingsSource::Pages);
    assert!(pages.metrics.phase1.bf_queue_high_water > 0);
    assert_ne!(pages.phase1_stats.visit_order, ids);
    assert_eq!(memory.partition, pages.partition);
}

#[test]
fn de_dominates_threshold_on_most_standard_datasets() {
    // The paper's headline: better precision-recall tradeoffs than single
    // linkage on most datasets (Parks being the stated exception). We
    // check best-F1 dominance on a majority of the battery.
    let datasets = standard_quality_datasets(7);
    let mut de_wins = 0;
    let mut total = 0;
    for dataset in &datasets {
        if dataset.len() > 800 {
            continue; // keep the integration suite fast
        }
        total += 1;
        let de_cfg =
            DedupConfig::new(DistanceKind::FuzzyMatch).cut(CutSpec::Size(4)).sn_threshold(6.0);
        let de = dedup(&dataset.records, &de_cfg).unwrap();
        let de_f1 = evaluate(&de.partition, &dataset.gold).f1();

        let radius = DedupConfig::new(DistanceKind::FuzzyMatch)
            .cut(CutSpec::Diameter(0.7))
            .sn_threshold(1e9);
        let phase1 = dedup(&dataset.records, &radius).unwrap();
        let mut thr_f1: f64 = 0.0;
        for i in 1..14 {
            let theta = i as f64 * 0.05;
            let p = single_linkage(&phase1.nn_reln, theta);
            thr_f1 = thr_f1.max(evaluate(&p, &dataset.gold).f1());
        }
        if de_f1 >= thr_f1 - 0.02 {
            de_wins += 1;
        }
        println!("{}: DE f1={de_f1:.3} thr best f1={thr_f1:.3}", dataset.name);
    }
    assert!(total >= 3, "expected at least three small datasets in the battery");
    assert!(
        de_wins * 2 > total,
        "DE should match or beat the threshold baseline on most datasets ({de_wins}/{total})"
    );
}

#[test]
fn aggregation_functions_agree_on_small_groups() {
    // Figure 7's observation: Max / Avg / Max2 give very similar results
    // because groups are tiny.
    let mut rng = StdRng::seed_from_u64(5);
    let dataset = restaurants::generate(&mut rng, DatasetSpec::with_entities(150));
    let mut f1s = Vec::new();
    for agg in [Aggregation::Max, Aggregation::Avg, Aggregation::Max2] {
        let cfg = de_config(DistanceKind::FuzzyMatch).aggregation(agg);
        let outcome = dedup(&dataset.records, &cfg).unwrap();
        f1s.push(evaluate(&outcome.partition, &dataset.gold).f1());
    }
    let spread = f1s.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - f1s.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(spread < 0.1, "aggregation spread {spread:.3} too wide: {f1s:?}");
}

#[test]
fn constraining_predicates_split_product_versions() {
    // §4.5.1's scenario: "two product descriptions are identical but for
    // the version number at the end" cannot be duplicates. Without the
    // predicate, DE merges them (they are mutual NNs with a sparse
    // neighborhood); the constraining predicate splits them back.
    use fuzzydedup::core::constraints::apply_constraints;
    let records: Vec<Vec<String>> = [
        "frobulator pro version 1",
        "frobulator pro version 2",
        "widgetworks assembler",
        "widgetworks asembler", // true duplicate (typo)
        "completely different product",
        "another unrelated gadget",
    ]
    .iter()
    .map(|s| vec![s.to_string()])
    .collect();

    let outcome = dedup(&records, &de_config(DistanceKind::FuzzyMatch)).unwrap();
    assert!(outcome.partition.are_together(0, 1), "versions merge without the predicate");
    assert!(outcome.partition.are_together(2, 3));

    // Predicate: identical after stripping a trailing version number.
    let version_conflict = |a: u32, b: u32| {
        let strip = |s: &str| -> Option<String> {
            let mut tokens: Vec<&str> = s.split_whitespace().collect();
            let last = tokens.pop()?;
            if last.chars().all(|c| c.is_ascii_digit()) && tokens.last() == Some(&"version") {
                tokens.pop();
                Some(tokens.join(" "))
            } else {
                None
            }
        };
        match (strip(&records[a as usize][0]), strip(&records[b as usize][0])) {
            (Some(x), Some(y)) => x == y && records[a as usize] != records[b as usize],
            _ => false,
        }
    };
    let constrained = apply_constraints(&outcome.partition, &version_conflict);
    assert!(!constrained.are_together(0, 1), "predicate splits the version pair");
    assert!(constrained.are_together(2, 3), "true duplicates survive");
    assert!(outcome.partition.is_refined_by(&constrained));
}

#[test]
fn parallel_pipeline_is_identical_on_real_data() {
    // The thread count is a pure performance lever. One thread is the
    // ordered drive — every tuple visited once, breadth-first over paged
    // postings — and two or all CPUs must reproduce its relation, partition
    // and counted metrics bit for bit on realistic data.
    use fuzzydedup::metrics::RunMetrics;
    use fuzzydedup::nnindex::{InvertedIndexConfig, PostingsSource};
    let mut rng = StdRng::seed_from_u64(8);
    let dataset = restaurants::generate(&mut rng, DatasetSpec::with_entities(150));
    let ids: Vec<u32> = (0..dataset.records.len() as u32).collect();
    // What a run counts, without wall times, memory, and the thread-count
    // telemetry of `phase1` and `phase2.threads`.
    let counted = |m: &RunMetrics| {
        let mut m = *m;
        (m.timings, m.spill.peak_rss_bytes, m.phase1, m.phase2.threads) = Default::default();
        m
    };
    for postings_source in [PostingsSource::Memory, PostingsSource::Pages] {
        let index = InvertedIndexConfig { postings_source, ..Default::default() };
        let base = de_config(DistanceKind::FuzzyMatch).index_choice(IndexChoice::Inverted(index));
        let ordered =
            dedup(&dataset.records, &base.clone().parallelism(Parallelism::threads(1))).unwrap();
        let mut visited = ordered.phase1_stats.visit_order.clone();
        let breadth_first = postings_source == PostingsSource::Pages;
        assert_eq!(visited != ids, breadth_first, "{postings_source:?}");
        assert_eq!(ordered.metrics.phase1.bf_queue_high_water > 0, breadth_first);
        visited.sort_unstable();
        assert_eq!(visited, ids, "{postings_source:?}: a permutation of the ids");
        for threads in [2, 0] {
            let par =
                dedup(&dataset.records, &base.clone().parallelism(Parallelism::threads(threads)))
                    .unwrap();
            assert_eq!(ordered.partition, par.partition, "threads={threads}");
            assert_eq!(ordered.nn_reln, par.nn_reln, "threads={threads}");
            assert_eq!(counted(&ordered.metrics), counted(&par.metrics), "threads={threads}");
        }
    }
}

/// Load `records` into an incremental state in chunks and assert it lands
/// on the batch run's partition and NN relation.
fn assert_incremental_equals_batch<D: Distance>(
    distance: D,
    records: &[Vec<String>],
    batch: &DedupOutcome,
) {
    let mut inc = IncrementalDedup::builder(distance)
        .cut(CutSpec::Size(4))
        .sn_threshold(4.0)
        .build()
        .unwrap();
    for chunk in records.chunks(37) {
        inc.insert_batch(chunk.to_vec());
    }
    assert_eq!(inc.partition(), &batch.partition);
    assert_eq!(inc.nn_reln(), batch.nn_reln);
}

#[test]
fn pair_memo_is_invisible_in_results() {
    // The pair-distance memo follows the entry point: an incremental
    // state always holds one, the batch pipeline never does. It is a pure
    // performance lever: under both of the service's distances (each
    // symmetric to the bit, as the memo contract requires) the partition
    // AND the NN relation of a chunked incremental load must be
    // bit-identical to the batch run.
    let mut rng = StdRng::seed_from_u64(9);
    let records = restaurants::generate(&mut rng, DatasetSpec::with_entities(150)).records;
    let ed = dedup(&records, &de_config(DistanceKind::EditDistance)).unwrap();
    let fms = dedup(&records, &de_config(DistanceKind::FuzzyMatch)).unwrap();
    assert_incremental_equals_batch(EditDistance, &records, &ed);
    let fuzzy = FuzzyMatchDistance::new(IdfModel::fit_records(&records));
    assert_incremental_equals_batch(fuzzy, &records, &fms);
}

#[test]
fn growth_multiplier_is_validated_alike_on_both_entry_points() {
    // One `validate_params` behind the batch pipeline and the incremental
    // builder: a bad `p` is a typed error on both, never a Phase-1 panic
    // (NaN used to slip through the batch side's `p < 1.0`).
    let records = media::table1().records;
    for p in [f64::NAN, 0.5, -1.0, f64::INFINITY] {
        let batch = dedup(&records, &de_config(DistanceKind::EditDistance).growth_multiplier(p));
        let incremental = IncrementalDedup::builder(EditDistance).growth_multiplier(p).build();
        let want_ok = p >= 1.0;
        assert_eq!(batch.is_ok(), want_ok, "batch, p = {p}");
        assert_eq!(incremental.is_ok(), want_ok, "incremental, p = {p}");
        if !want_ok {
            assert!(matches!(batch, Err(DedupError::InvalidConfig(_))), "batch, p = {p}");
            assert!(matches!(incremental, Err(DedupError::InvalidConfig(_))), "incr., p = {p}");
        }
    }
}

#[test]
fn most_found_groups_are_small() {
    // "most (almost 80-90%) sets of duplicates just consist of tuple
    // pairs" — our generator plants geometric group sizes; check the
    // output histogram is dominated by pairs and triples.
    let mut rng = StdRng::seed_from_u64(6);
    let dataset = restaurants::generate(&mut rng, DatasetSpec::with_entities(300));
    let outcome = dedup(&dataset.records, &de_config(DistanceKind::FuzzyMatch)).unwrap();
    let hist = outcome.partition.size_histogram();
    let dup_groups: usize = hist.iter().filter(|(&s, _)| s > 1).map(|(_, &c)| c).sum();
    let small: usize = hist.iter().filter(|(&s, _)| s == 2 || s == 3).map(|(_, &c)| c).sum();
    assert!(dup_groups > 0);
    assert!(small * 10 >= dup_groups * 7, "pairs+triples should dominate: {hist:?}");
}
