//! Driver equivalence: every index family answers its combined lookup
//! through the crate's one lookup driver, and that answer must equal the
//! `NnIndex` trait's *default* composition of the two primitives —
//! `top_k` for the neighbor list and `nn(v)`, `within(p · nn(v))` for the
//! neighborhood growth — on neighbors and `ng` alike.
//!
//! One table: two index families × {TopK, Radius} × {plain build,
//! collapsed (multiplicity-weighted) build}. The weighted case compares
//! the representative-space answer, expanded back to full-corpus ids,
//! against the default composition over the *uncollapsed* corpus — the
//! bit-equivalence DESIGN.md §7.10 promises. Each case also checks, on the
//! index type that takes one — the inverted index, frozen and growing —
//! that a shared pair-distance memo, cold and then warm, changes nothing.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use fuzzydedup_nnindex::{
    Growing, InvertedIndex, InvertedIndexConfig, Layout, LookupSpec, NestedLoopIndex, NnIndex,
    PairDistanceCache, PairProbe,
};
use fuzzydedup_relation::Neighbor;
use fuzzydedup_storage::{BufferPool, BufferPoolConfig, InMemoryDisk};
use fuzzydedup_textdist::EditDistance;

mod common;
use common::noisy_corpus;

type Records = Vec<Vec<String>>;

/// Forwards only the two primitives, so `lookup` resolves to the trait's
/// default probe-based composition instead of the wrapped index's driver.
struct Primitives<'a>(&'a dyn NnIndex);

impl NnIndex for Primitives<'_> {
    fn len(&self) -> usize {
        self.0.len()
    }
    fn top_k(&self, id: u32, k: usize) -> Vec<Neighbor> {
        self.0.top_k(id, k)
    }
    fn within(&self, id: u32, radius: f64) -> Vec<Neighbor> {
        self.0.within(id, radius)
    }
}

/// An unbounded, exact pair memo: what a cache is allowed to know.
#[derive(Default)]
struct MapCache(Mutex<HashMap<(u32, u32), Known>>);

enum Known {
    Exact(f64),
    Above(f64),
}

fn key(a: u32, b: u32) -> (u32, u32) {
    (a.min(b), a.max(b))
}

impl PairDistanceCache for MapCache {
    fn probe(&self, a: u32, b: u32, cutoff: f64) -> PairProbe {
        match self.0.lock().unwrap().get(&key(a, b)) {
            Some(Known::Exact(d)) => PairProbe::Exact(*d),
            Some(Known::Above(bound)) if *bound >= cutoff => PairProbe::KnownAbove,
            _ => PairProbe::Miss,
        }
    }
    fn store_exact(&self, a: u32, b: u32, d: f64) {
        self.0.lock().unwrap().insert(key(a, b), Known::Exact(d));
    }
    fn store_bound(&self, a: u32, b: u32, cutoff: f64) {
        let mut map = self.0.lock().unwrap();
        let slot = map.entry(key(a, b)).or_insert(Known::Above(cutoff));
        if let Known::Above(bound) = slot {
            *bound = bound.max(cutoff);
        }
    }
}

/// How to build one index family over a plain and over a collapsed corpus.
struct Family {
    name: &'static str,
    plain: fn(Records) -> Box<dyn NnIndex>,
    collapsed: fn(Records, Vec<u32>) -> Box<dyn NnIndex>,
}

fn pool() -> Arc<BufferPool> {
    Arc::new(BufferPool::new(BufferPoolConfig::with_capacity(64), Arc::new(InMemoryDisk::new())))
}

/// `candidate_limit: 0`: both sides verify every candidate, so a
/// divergence is a driver defect, not a truncation tie.
fn inverted_config() -> InvertedIndexConfig {
    InvertedIndexConfig { candidate_limit: 0, ..Default::default() }
}

/// The inverted index left growing: `mult[i] − 1` duplicates of record
/// `i` noted after its push.
fn grown(records: Records, mult: Option<Vec<u32>>) -> InvertedIndex<EditDistance, Growing> {
    let mut index = match mult {
        Some(_) => InvertedIndex::new_collapsed(EditDistance, inverted_config()),
        None => InvertedIndex::new(EditDistance, inverted_config()),
    };
    for (i, record) in records.into_iter().enumerate() {
        let id = index.push(record);
        for _ in 1..mult.as_ref().map_or(1, |m| m[i]) {
            index.note_duplicate(id);
        }
    }
    index
}

const FAMILIES: &[Family] = &[
    Family {
        name: "inverted",
        plain: |r| Box::new(InvertedIndex::build(r, EditDistance, pool(), inverted_config())),
        collapsed: |r, m| {
            Box::new(InvertedIndex::build_collapsed(r, m, EditDistance, pool(), inverted_config()))
        },
    },
    Family {
        name: "nested_loop",
        plain: |r| Box::new(NestedLoopIndex::new(r, EditDistance)),
        collapsed: |r, m| Box::new(NestedLoopIndex::with_multiplicities(r, m, EditDistance)),
    },
];

const SPECS: [LookupSpec; 4] =
    [LookupSpec::TopK(1), LookupSpec::TopK(4), LookupSpec::Radius(0.15), LookupSpec::Radius(0.35)];
const P: f64 = 2.0;

/// `lookup_memoized` with a shared memo — first cold, then warm — must
/// return exactly what the memo-less `lookup` returns, once both neighbor
/// lists are passed through `canonical` (the identity for a plain index;
/// the full-corpus expansion for a weighted one, whose raw TopK list keeps
/// every survivor and so depends on how fast the cutoffs tightened).
fn assert_memo_is_transparent<L: Layout>(
    index: &InvertedIndex<EditDistance, L>,
    label: &str,
    canonical: &dyn Fn(u32, LookupSpec, Vec<Neighbor>) -> Vec<Neighbor>,
) {
    let cache = MapCache::default();
    for pass in ["cold", "warm"] {
        for id in 0..index.len() as u32 {
            for spec in SPECS {
                let (want_n, want_ng, _) = index.lookup(id, spec, P);
                let (got_n, got_ng, _) = index.lookup_memoized(id, spec, P, &cache);
                assert_eq!(
                    canonical(id, spec, got_n),
                    canonical(id, spec, want_n),
                    "{label}: {pass} cache changed neighbors({id}, {spec:?})"
                );
                assert_eq!(got_ng, want_ng, "{label}: {pass} cache changed ng({id}, {spec:?})");
            }
        }
    }
    assert!(!cache.0.lock().unwrap().is_empty(), "{label}: the memo was never consulted");
}

#[test]
fn combined_lookup_equals_default_composition() {
    let records = noisy_corpus(0xD21E, 90);
    for family in FAMILIES {
        let index = (family.plain)(records.clone());
        let reference = Primitives(index.as_ref());
        for id in 0..index.len() as u32 {
            for spec in SPECS {
                let (got_n, got_ng, cost) = index.lookup(id, spec, P);
                let (want_n, want_ng, _) = reference.lookup(id, spec, P);
                assert_eq!(got_n, want_n, "{}: neighbors({id}, {spec:?})", family.name);
                assert_eq!(got_ng, want_ng, "{}: ng({id}, {spec:?})", family.name);
                // The driver gathers once, whatever the family.
                assert_eq!((cost.probes, cost.fallback_probes), (1, 0), "{}: id {id}", family.name);
                assert!(cost.distance_calls <= cost.candidates, "{}: id {id}", family.name);
            }
        }
    }
    let built = InvertedIndex::build(records.clone(), EditDistance, pool(), inverted_config());
    assert_memo_is_transparent(&built, "frozen", &|_, _, neighbors| neighbors);
    assert_memo_is_transparent(&grown(records, None), "growing", &|_, _, neighbors| neighbors);
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
fn weighted_lookup_equals_default_composition_over_the_full_corpus() {
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

    for family in FAMILIES {
        let weighted = (family.collapsed)(reps.clone(), mult.clone());
        let full_index = (family.plain)(full.clone());
        let reference = Primitives(full_index.as_ref());
        for rep in 0..weighted.len() as u32 {
            let query = offsets[rep as usize]; // the class's first member
            for spec in SPECS {
                let (rep_n, got_ng, _) = weighted.lookup(rep, spec, P);
                let (want_n, want_ng, _) = reference.lookup(query, spec, P);
                assert_eq!(
                    expand(rep, spec, rep_n),
                    want_n,
                    "{}: neighbors(rep {rep}, {spec:?})",
                    family.name
                );
                assert_eq!(got_ng, want_ng, "{}: ng(rep {rep}, {spec:?})", family.name);
            }
        }
    }
    let (r, m) = (reps.clone(), mult.clone());
    let built = InvertedIndex::build_collapsed(r, m, EditDistance, pool(), inverted_config());
    assert_memo_is_transparent(&built, "frozen", &expand);
    assert_memo_is_transparent(&grown(reps, Some(mult)), "growing", &expand);
}
