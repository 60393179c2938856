//! Every index family's combined lookup is the paper's, as the
//! `fuzzydedup-reference` crate states it from the definitions: the
//! neighbor list in `(distance, id)` order cut to the spec, and `ng(v)`
//! counted over everything the index sees — every other record for the
//! nested loop, every record sharing an indexed term for the inverted index
//! at `candidate_limit: 0` (no stop gram fires on corpora this small).
//!
//! One table: four index families (nested loop; inverted frozen in memory,
//! frozen on pages, and growing) × ed and fms × {TopK, Radius} × {plain,
//! collapsed (multiplicity-weighted)}. The collapsed case expands the
//! representative-space answer back to full-corpus ids and compares it with
//! the reference over the *uncollapsed* corpus — the bit-equivalence
//! DESIGN.md §7.10 promises.

use std::sync::Arc;

use fuzzydedup_nnindex::{
    Growing, InvertedIndex, InvertedIndexConfig, LookupSpec, NestedLoopIndex, NnIndex,
    PostingsSource,
};
use fuzzydedup_reference as reference;
use fuzzydedup_relation::Neighbor;
use fuzzydedup_storage::{BufferPool, BufferPoolConfig, InMemoryDisk};
use fuzzydedup_textdist::{Distance, EditDistance, FuzzyMatchDistance, IdfModel};

mod common;
use common::noisy_corpus;

type Records = Vec<Vec<String>>;

/// A verification distance beside its definition, both fit on one corpus.
enum Metric {
    Ed,
    Fms(IdfModel),
}

impl Metric {
    fn both(records: &Records) -> [Metric; 2] {
        [Metric::Ed, Metric::Fms(IdfModel::fit_records(records))]
    }

    fn distance(&self) -> Box<dyn Distance> {
        match self {
            Metric::Ed => Box::new(EditDistance),
            Metric::Fms(idf) => Box::new(FuzzyMatchDistance::new(idf.clone())),
        }
    }

    fn matrix(&self, records: &Records) -> reference::Matrix {
        match self {
            Metric::Ed => reference::Matrix::of_records(records, reference::ed),
            Metric::Fms(idf) => {
                reference::Matrix::of_records(records, |a, b| reference::fms(idf, a, b))
            }
        }
    }
}

fn pool() -> Arc<BufferPool> {
    Arc::new(BufferPool::new(BufferPoolConfig::with_capacity(64), Arc::new(InMemoryDisk::new())))
}

/// `candidate_limit: 0`: the inverted index verifies every record sharing a
/// term, which is what the reference says it sees.
fn inverted_config(postings_source: PostingsSource) -> InvertedIndexConfig {
    InvertedIndexConfig { candidate_limit: 0, postings_source, ..Default::default() }
}

/// The inverted index left growing: `mult[i] − 1` duplicates of record
/// `i` noted after its push.
fn grown<D: Distance>(
    records: Records,
    mult: Option<Vec<u32>>,
    distance: D,
) -> InvertedIndex<D, Growing> {
    let config = inverted_config(PostingsSource::Memory);
    let mut index = match mult {
        Some(_) => InvertedIndex::new_collapsed(distance, config),
        None => InvertedIndex::new(distance, config),
    };
    for (i, record) in records.into_iter().enumerate() {
        let id = index.push(record);
        for _ in 1..mult.as_ref().map_or(1, |m| m[i]) {
            index.note_duplicate(id);
        }
    }
    index
}

/// Builds an index over records with optional multiplicities.
type Build = fn(Records, Option<Vec<u32>>, Box<dyn Distance>) -> Box<dyn NnIndex>;

/// One index family: how to build it, and whether it sees every record or
/// only the records sharing a term.
struct Family {
    name: &'static str,
    build: Build,
    sees_all: bool,
}

fn frozen(
    source: PostingsSource,
    records: Records,
    mult: Option<Vec<u32>>,
    distance: Box<dyn Distance>,
) -> Box<dyn NnIndex> {
    let config = inverted_config(source);
    match mult {
        Some(m) => Box::new(InvertedIndex::build_collapsed(records, m, distance, pool(), config)),
        None => Box::new(InvertedIndex::build(records, distance, pool(), config)),
    }
}

const FAMILIES: &[Family] = &[
    Family {
        name: "nested_loop",
        build: |records, mult, distance| match mult {
            Some(m) => Box::new(NestedLoopIndex::with_multiplicities(records, m, distance)),
            None => Box::new(NestedLoopIndex::new(records, distance)),
        },
        sees_all: true,
    },
    Family {
        name: "inverted/memory",
        build: |r, m, d| frozen(PostingsSource::Memory, r, m, d),
        sees_all: false,
    },
    Family {
        name: "inverted/pages",
        build: |r, m, d| frozen(PostingsSource::Pages, r, m, d),
        sees_all: false,
    },
    Family { name: "inverted/growing", build: |r, m, d| Box::new(grown(r, m, d)), sees_all: false },
];

const SPECS: [LookupSpec; 4] =
    [LookupSpec::TopK(1), LookupSpec::TopK(4), LookupSpec::Radius(0.15), LookupSpec::Radius(0.35)];
const P: f64 = 2.0;

fn reference_spec(spec: LookupSpec) -> reference::Spec {
    match spec {
        LookupSpec::TopK(k) => reference::Spec::TopK(k),
        LookupSpec::Radius(theta) => reference::Spec::Radius(theta),
    }
}

/// The reference relation of `records` under `metric` as `family` sees it,
/// per spec.
fn expected(family: &Family, metric: &Metric, records: &Records) -> Vec<Vec<reference::Entry>> {
    let matrix = metric.matrix(records);
    let sees_term = reference::shares_a_term(records);
    let sees = |v: u32, u: u32| family.sees_all || sees_term(v, u);
    SPECS
        .iter()
        .map(|&spec| reference::nn_relation(&matrix, sees, reference_spec(spec), P))
        .collect()
}

fn pairs(neighbors: &[Neighbor]) -> Vec<(u32, f64)> {
    neighbors.iter().map(|n| (n.id, n.dist)).collect()
}

/// Noisy near-duplicates plus what an index must see exactly as the
/// definition does: two fields, an empty field, term-less records, a record
/// shorter than `q`, and records past 64 and 256 chars.
fn plain_corpus() -> Records {
    let mut records = noisy_corpus(0xD21E, 60);
    let long = "north trading supply works logistics global acme corp ".repeat(5);
    let extra: [&[&str]; 9] = [
        &["ACME Global", "Logistics Corp. 42"],
        &["acme global", ""],
        &["", ""],
        &["?!"],
        &["ab"],
        &["İstanbul Trading 7"],
        &["north north north trading supply works logistics global acme corp 17 and more"],
        &[&long],
        &[&long[1..]],
    ];
    records.extend(extra.iter().map(|r| r.iter().map(|f| f.to_string()).collect::<Vec<_>>()));
    records
}

#[test]
fn every_family_answers_the_reference_lookup() {
    let records = plain_corpus();
    for metric in &Metric::both(&records) {
        // The `Distance` contract's symmetry holds to the bit, and
        // production is the definition's bits.
        let matrix = metric.matrix(&records);
        for (v, u) in (0..records.len() as u32).flat_map(|v| (0..v).map(move |u| (v, u))) {
            assert_eq!(matrix.dist(v, u).to_bits(), matrix.dist(u, v).to_bits(), "d({v}, {u})");
        }
        for family in FAMILIES {
            let index = (family.build)(records.clone(), None, metric.distance());
            let want = expected(family, metric, &records);
            let label = format!("{}/{}", family.name, metric.distance().name());
            for id in 0..index.len() as u32 {
                for (s, spec) in SPECS.into_iter().enumerate() {
                    let (got_n, got_ng, cost) = index.lookup(id, spec, P);
                    let entry = &want[s][id as usize];
                    assert_eq!(
                        pairs(&got_n),
                        entry.neighbors,
                        "{label}: neighbors({id}, {spec:?})"
                    );
                    assert_eq!(got_ng, entry.ng, "{label}: ng({id}, {spec:?})");
                    assert!(cost.distance_calls <= cost.candidates, "{label}: id {id}");
                }
            }
        }
    }
}

/// Collapse a corpus into unique records with multiplicities, and lay the
/// full corpus out class by class so that representative `r` stands for
/// full ids `offsets[r] .. offsets[r + 1]`.
fn collapse(records: Records) -> (Records, Vec<u32>, Records, Vec<u32>) {
    let mut reps: Records = Vec::new();
    let mut mult: Vec<u32> = Vec::new();
    for record in records {
        match reps.iter().position(|r| *r == record) {
            Some(r) => mult[r] += 1,
            None => {
                reps.push(record);
                mult.push(1);
            }
        }
    }
    let mut full: Records = Vec::new();
    let mut offsets = vec![0u32];
    for (record, &m) in reps.iter().zip(&mult) {
        full.extend(std::iter::repeat_n(record.clone(), m as usize));
        offsets.push(full.len() as u32);
    }
    (reps, mult, full, offsets)
}

#[test]
fn weighted_lookups_answer_the_reference_over_the_full_corpus() {
    // Repeat a slice of the corpus so multiplicities of 2 and 3 occur
    // next to singletons (the generator alone yields few exact repeats).
    let mut records = noisy_corpus(0xC011, 70);
    let again: Records = records.iter().step_by(3).cloned().collect();
    records.extend(again.iter().cloned());
    records.extend(again.into_iter().step_by(2));
    let (reps, mult, full, offsets) = collapse(records);
    assert!(mult.iter().any(|&m| m >= 3) && mult.contains(&1), "mixed multiplicities");

    // Expand a representative-space answer to full-corpus ids: the query's
    // own duplicates sit at distance 0, every member of a hit class at the
    // representative's distance; a weighted TopK keeps all survivors, so
    // the cut to `k` happens after expansion.
    let members = |r: u32| offsets[r as usize]..offsets[r as usize + 1];
    let expand = |rep: u32, spec: LookupSpec, rep_neighbors: Vec<Neighbor>| {
        let mut full: Vec<Neighbor> = members(rep)
            .skip(1)
            .map(|sibling| Neighbor::new(sibling, 0.0))
            .chain(
                rep_neighbors
                    .iter()
                    .flat_map(|nb| members(nb.id).map(|member| Neighbor::new(member, nb.dist))),
            )
            .collect();
        full.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
        if let LookupSpec::TopK(k) = spec {
            full.truncate(k);
        }
        full
    };

    // IDF is fit on the full corpus, as a collapsed run fits it.
    for metric in &Metric::both(&full) {
        for family in FAMILIES {
            let weighted = (family.build)(reps.clone(), Some(mult.clone()), metric.distance());
            let want = expected(family, metric, &full);
            let label = format!("{}/{}", family.name, metric.distance().name());
            for rep in 0..weighted.len() as u32 {
                let query = offsets[rep as usize]; // the class's first member
                for (s, spec) in SPECS.into_iter().enumerate() {
                    let (rep_n, got_ng, _) = weighted.lookup(rep, spec, P);
                    let entry = &want[s][query as usize];
                    assert_eq!(
                        pairs(&expand(rep, spec, rep_n)),
                        entry.neighbors,
                        "{label}: neighbors(rep {rep}, {spec:?})"
                    );
                    assert_eq!(got_ng, entry.ng, "{label}: ng(rep {rep}, {spec:?})");
                }
            }
        }
    }
}
