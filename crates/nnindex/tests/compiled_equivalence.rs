//! Compiled-store equivalence: every index family compiles each record
//! once with the verification distance and verifies from that store
//! (DESIGN.md §7.5). Whatever the store holds — decoded chars for `ed`,
//! token decompositions for `fms` — the answers must be the ones the
//! unprepared `Distance::distance` gives on the raw fields.

use std::sync::Arc;

use fuzzydedup_nnindex::{
    InvertedIndex, InvertedIndexConfig, LookupSpec, NestedLoopIndex, NnIndex,
};
use fuzzydedup_storage::{BufferPool, BufferPoolConfig, InMemoryDisk};
use fuzzydedup_textdist::{Distance, EditDistance, FuzzyMatchDistance, IdfModel};

mod common;
use common::noisy_corpus;

type Records = Vec<Vec<String>>;

fn pool() -> Arc<BufferPool> {
    Arc::new(BufferPool::new(BufferPoolConfig::with_capacity(64), Arc::new(InMemoryDisk::new())))
}

/// The distance between records `a` and `b` through the unprepared call.
fn unprepared(distance: &impl Distance, records: &Records, a: u32, b: u32) -> f64 {
    let fields = |id: u32| records[id as usize].iter().map(String::as_str).collect::<Vec<_>>();
    distance.distance(&fields(a), &fields(b))
}

fn built<D: Distance>(records: &Records, distance: D) -> InvertedIndex<D> {
    let config = InvertedIndexConfig { candidate_limit: 0, ..Default::default() };
    InvertedIndex::build(records.clone(), distance, pool(), config)
}

/// `normalize` used to be non-idempotent on U+0130 (`'İ'` lowercases to
/// `i` + a combining dot, which a second pass turned into a space), and
/// the inverted indexes verified against a twice-normalized record
/// string: they reported record 2 as an exact duplicate of record 0
/// while the nested-loop reference and `Distance::distance` put both at
/// 0.3077.
#[test]
fn indexes_agree_on_a_char_whose_lowercase_mapping_expands() {
    let records: Records =
        ["İİİİ cafe", "iiii cafe", "i i i i cafe"].iter().map(|s| vec![s.to_string()]).collect();
    let exact = NestedLoopIndex::new(records.clone(), EditDistance);
    let inverted = built(&records, EditDistance);
    for id in 0..records.len() as u32 {
        let truth = exact.lookup(id, LookupSpec::TopK(2), 2.0);
        for n in &truth.0 {
            assert_eq!(
                n.dist,
                unprepared(&EditDistance, &records, id, n.id),
                "id {id} vs {}",
                n.id
            );
        }
        assert_eq!(inverted.lookup(id, LookupSpec::TopK(2), 2.0), truth, "inverted id {id}");
    }
}

/// Noisy single-field records plus the shapes compilation must see
/// exactly as the unprepared `distance` does: several fields, empty fields,
/// uppercase, punctuation, non-ASCII, and a record past 64 chars.
fn messy_corpus() -> Records {
    let mut records = noisy_corpus(11, 90);
    let extra: [&[&str]; 8] = [
        &["ACME Global", "Logistics Corp.", "42"],
        &["acme global", "", "logistics corp 42"],
        &["İstanbul Trading", "Supply-Works №7"],
        &["istanbul trading", "supply works 7"],
        &["", ""],
        &["north north north trading supply works logistics global acme corp 17 and then some more"],
        &["north north north trading supply works logistics global acme corp 71 and then some more"],
        &["Ünïted Süpply — Wörks"],
    ];
    records.extend(extra.iter().map(|r| r.iter().map(|f| f.to_string()).collect::<Vec<_>>()));
    records
}

/// Whatever the store holds — chars or tokens — the distances an
/// index verifies from it are the unprepared `Distance::distance`'s.
#[test]
fn compiled_distances_match_the_unprepared_distance() {
    fn check<D: Distance + Clone>(records: &Records, distance: D) {
        let name = distance.name().to_string();
        let index = built(records, distance.clone());
        for id in 0..records.len() as u32 {
            for spec in [LookupSpec::TopK(4), LookupSpec::Radius(0.5)] {
                for n in index.lookup(id, spec, 2.0).0 {
                    let want = unprepared(&distance, records, id, n.id);
                    assert_eq!(n.dist, want, "{name}: {id} vs {}", n.id);
                }
            }
        }
    }
    let records = messy_corpus();
    check(&records, EditDistance);
    check(&records, FuzzyMatchDistance::new(IdfModel::fit_records(&records)));
}
