//! The paper as the oracle: a random small relation × a random
//! `DedupConfig` → `Deduplicator::run_records`' NN relation and partition
//! equal what `fuzzydedup-reference` computes from the definitions of §2–4.
//!
//! The relation draws what the fast paths special-case: empty fields,
//! term-less records, records shorter than `q`, records past 64 and 256
//! chars, exact and near copies (distance ties), and real Unicode (the
//! proptest shim's `.`). The configuration draws the distance, the cut, the
//! aggregation, `c`, `p`, the index (nested loop, or the inverted index at
//! `candidate_limit: 0` with its postings in memory or on pages),
//! minimality, the relational Phase 2, the thread count, the spill and the
//! collapse of exact duplicates. No stop gram fires on relations this
//! small, so the inverted index sees exactly the records sharing a term
//! with the query — what the reference is told it sees. The property is two-sided: relation and partition,
//! bit for bit.

use fuzzydedup::core::{
    Aggregation, CollapseKey, CutSpec, DedupConfig, Deduplicator, IndexChoice, Parallelism,
};
use fuzzydedup::nnindex::{InvertedIndexConfig, PostingsSource};
use fuzzydedup::textdist::{DistanceKind, IdfModel};
use fuzzydedup_reference as reference;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type Records = Vec<Vec<String>>;

/// A relation of up to 28 records over a small vocabulary, so distances
/// tie often and neighbors share terms.
fn relation(rng: &mut StdRng, unicode: &[String]) -> Records {
    let mut words: Vec<String> = (0..rng.gen_range(3..8))
        .map(|_| {
            let alphabet: Vec<char> = "abcdeİßλ日é0".chars().collect();
            (0..rng.gen_range(1..7)).map(|_| alphabet[rng.gen_range(0..alphabet.len())]).collect()
        })
        .collect();
    words.extend(unicode.iter().flat_map(|s| s.split_whitespace()).map(str::to_owned));
    let phrase = |rng: &mut StdRng, len: usize| -> String {
        let picked: Vec<&str> =
            (0..len).map(|_| words[rng.gen_range(0..words.len())].as_str()).collect();
        picked.join(" ")
    };
    let n = rng.gen_range(1..=28);
    let mut records: Records = Vec::with_capacity(n);
    while records.len() < n {
        let record = match rng.gen_range(0..16) {
            0 => vec![["", "  ", "?!", "-"][rng.gen_range(0..4)].to_string()],
            1 => vec![String::new(), String::new()],
            2 => vec![["a", "ab", "İ", "日"][rng.gen_range(0..4)].to_string()],
            3 => vec![phrase(rng, 12)],
            4 if rng.gen_range(0..4) == 0 => vec![phrase(rng, 50)],
            5 | 6 if !records.is_empty() => records[rng.gen_range(0..records.len())].clone(),
            7 if !records.is_empty() => {
                let mut chars: Vec<char> =
                    records[rng.gen_range(0..records.len())].concat().chars().collect();
                if !chars.is_empty() {
                    let at = rng.gen_range(0..chars.len());
                    chars[at] = 'z';
                }
                vec![chars.into_iter().collect()]
            }
            8 => vec![phrase(rng, 2), String::new()],
            9 => vec![phrase(rng, 1), phrase(rng, 2)],
            _ => {
                let len = rng.gen_range(1..5);
                vec![phrase(rng, len)]
            }
        };
        records.push(record);
    }
    records
}

/// One configuration and the reference's view of it.
struct Case {
    config: DedupConfig,
    cut: reference::Cut,
    agg: reference::Agg,
    /// Whether the index is the inverted one (it sees the records sharing a
    /// term) rather than the nested loop (it sees every record).
    inverted: bool,
}

fn case(rng: &mut StdRng, n: usize) -> Case {
    let distance = [DistanceKind::EditDistance, DistanceKind::FuzzyMatch][rng.gen_range(0..2)];
    // Half the radii are fractions an ed distance lands on exactly, so the
    // strict `d < θ` and the inclusive diameter meet their boundary.
    let theta = match rng.gen_bool(0.5) {
        true => [0.2, 0.25, 1.0 / 3.0, 0.4, 0.5][rng.gen_range(0..5)],
        false => rng.gen_range(0.05..0.7),
    };
    let k = rng.gen_range(2..7);
    let (cut, reference_cut) = match rng.gen_range(0..8) {
        0..=2 => (CutSpec::Size(k), reference::Cut::Size(k)),
        3 | 4 => (CutSpec::Diameter(theta), reference::Cut::Diameter(theta)),
        5 | 6 => (CutSpec::SizeAndDiameter(k, theta), reference::Cut::SizeAndDiameter(k, theta)),
        _ => (CutSpec::Unbounded, reference::Cut::Unbounded),
    };
    let (agg, reference_agg) = [
        (Aggregation::Max, reference::Agg::Max),
        (Aggregation::Avg, reference::Agg::Avg),
        (Aggregation::Max2, reference::Agg::Max2),
        (Aggregation::Min, reference::Agg::Min),
    ][rng.gen_range(0..4)];
    let inverted = rng.gen_bool(0.7);
    let index = match inverted {
        false => IndexChoice::NestedLoop,
        true => IndexChoice::Inverted(InvertedIndexConfig {
            candidate_limit: 0,
            postings_source: [PostingsSource::Memory, PostingsSource::Pages][rng.gen_range(0..2)],
            ..InvertedIndexConfig::default()
        }),
    };
    let config = DedupConfig::new(distance)
        .cut(cut)
        .aggregation(agg)
        .sn_threshold([1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 10.0][rng.gen_range(0..7)])
        .growth_multiplier([1.0, 1.5, 2.0, 3.0][rng.gen_range(0..4)])
        .index_choice(index)
        .minimality(rng.gen_bool(0.3))
        .via_tables(rng.gen_bool(0.3))
        .buffer_frames(rng.gen_range(4..64))
        .parallelism(Parallelism::threads(rng.gen_range(0..4)))
        .spill_threshold(if rng.gen_bool(0.3) { rng.gen_range(1..=n.max(1)) } else { 0 })
        .collapse(rng.gen_bool(0.4).then_some(CollapseKey::RecordString));
    Case { config, cut: reference_cut, agg: reference_agg, inverted }
}

/// The reference's relation and partition of `records` under `case`.
fn expected(records: &Records, case: &Case) -> (Vec<reference::Entry>, Vec<Vec<u32>>) {
    let matrix = match case.config.distance {
        DistanceKind::EditDistance => reference::Matrix::of_records(records, reference::ed),
        DistanceKind::FuzzyMatch => {
            let idf = IdfModel::fit_records(records);
            reference::Matrix::of_records(records, |a, b| reference::fms(&idf, a, b))
        }
    };
    let sees_term = reference::shares_a_term(records);
    let sees = |v, u| !case.inverted || sees_term(v, u);
    let relation =
        reference::nn_relation(&matrix, sees, case.cut.spec(records.len()), case.config.p);
    let mut groups = reference::partition(&relation, &matrix, case.cut, case.agg, case.config.c);
    if case.config.minimality {
        groups = reference::enforce_minimality(&relation, &groups);
    }
    (relation, groups)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn run_records_is_the_papers_partition(
        seed in any::<u64>(),
        unicode in prop::collection::vec(".{0,10}", 0..4),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let records = relation(&mut rng, &unicode);
        let case = case(&mut rng, records.len());
        let outcome = Deduplicator::new(case.config.clone()).run_records(&records).unwrap();
        let (relation, groups) = expected(&records, &case);
        let label = format!("{:?}\n{records:?}", case.config);
        for (got, want) in outcome.nn_reln.entries().iter().zip(&relation) {
            let neighbors: Vec<(u32, f64)> = got.neighbors.iter().map(|n| (n.id, n.dist)).collect();
            prop_assert_eq!(&neighbors, &want.neighbors, "neighbors of {}: {}", got.id, label);
            prop_assert_eq!(got.ng, want.ng, "ng of {}: {}", got.id, label);
        }
        prop_assert_eq!(outcome.nn_reln.len(), relation.len());
        prop_assert_eq!(outcome.partition.groups(), &groups[..], "{}", label);
    }
}
