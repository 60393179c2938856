//! Grown ≡ `Memory` build ≡ `Pages` build: the inverted index is one struct
//! that grows by `push` and is frozen by `build`, and one merge reads its
//! postings wherever they live — so an index still growing, a build that
//! kept its lists in memory and a build that wrote them to pages must give
//! the same answers, plain, and collapsed with the duplicates noted in
//! whatever order they arrive.
//!
//! Every comparison is bit for bit: the combined lookup with its cost, the
//! ranked candidates, `record_has_terms` — uncapped, at the default
//! `candidate_limit`, and at a cap small enough to cut through weight ties,
//! where one ulp of a weight sum would change the kept set.

use std::sync::Arc;

use fuzzydedup_metrics::Counter;
use fuzzydedup_nnindex::{
    Frozen, Growing, InvertedIndex, InvertedIndexConfig, LookupSpec, NnIndex, PostingsSource,
};
use fuzzydedup_storage::{BufferPool, BufferPoolConfig, InMemoryDisk};
use fuzzydedup_textdist::EditDistance;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::noisy_corpus;

type Records = Vec<Vec<String>>;
type Index<L> = InvertedIndex<EditDistance, L>;

const SPECS: [LookupSpec; 2] = [LookupSpec::TopK(3), LookupSpec::Radius(0.4)];
const P: f64 = 2.0;

fn pool() -> Arc<BufferPool> {
    Arc::new(BufferPool::new(BufferPoolConfig::with_capacity(64), Arc::new(InMemoryDisk::new())))
}

/// `n` records over a small vocabulary, so they share tokens and grams:
/// phrases of one to four words (the words carry the shim's real Unicode),
/// some with an empty second field, term-less records, one shorter than
/// `q`, near-duplicates past 64 chars, and exact repeats of earlier records.
fn corpus(words: &[String], long: &str, seed: u64, n: usize) -> Records {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut records: Records = Vec::new();
    while records.len() < n {
        let phrase: Vec<&str> = (0..rng.gen_range(1..5))
            .map(|_| words[rng.gen_range(0..words.len())].as_str())
            .collect();
        let phrase = phrase.join(" ");
        let record = match rng.gen_range(0..12) {
            0 => vec![["", "  ", "?!", "ab"][rng.gen_range(0..4)].to_string()],
            1 => vec![format!("{long} {phrase}")],
            2 | 3 if !records.is_empty() => records[rng.gen_range(0..records.len())].clone(),
            4 => vec![phrase, String::new()],
            _ => vec![phrase],
        };
        records.push(record);
    }
    records
}

fn single_field(records: &[&str]) -> Records {
    records.iter().map(|s| vec![s.to_string()]).collect()
}

/// The distinct records in order of first arrival, their multiplicities,
/// and each arriving record's representative.
fn collapse(records: &Records) -> (Records, Vec<u32>, Vec<u32>) {
    let (mut reps, mut mult, mut owner) = (Records::new(), Vec::new(), Vec::new());
    for record in records {
        let rep = reps.iter().position(|r| r == record).unwrap_or_else(|| {
            reps.push(record.clone());
            mult.push(0);
            reps.len() - 1
        });
        mult[rep] += 1;
        owner.push(rep as u32);
    }
    (reps, mult, owner)
}

/// Grow an index over `records` as they arrive, in batches of random size
/// with a lookup between batches (a read must leave nothing behind). In
/// collapsed mode (`owner` given) a repeat bumps its representative.
fn grow(
    records: &Records,
    owner: Option<&[u32]>,
    config: &InvertedIndexConfig,
    seed: u64,
) -> Index<Growing> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut index = match owner {
        Some(_) => InvertedIndex::new_collapsed(EditDistance, config.clone()),
        None => InvertedIndex::new(EditDistance, config.clone()),
    };
    let mut batch_left = 0;
    for (i, record) in records.iter().enumerate() {
        match owner {
            Some(owner) if (owner[i] as usize) < index.len() => index.note_duplicate(owner[i]),
            _ => _ = index.push(record.clone()),
        }
        if batch_left == 0 {
            batch_left = rng.gen_range(1..6);
            index.lookup(index.len() as u32 - 1, SPECS[0], P);
        }
        batch_left -= 1;
    }
    index
}

/// Every answer of `grown` equals `built`'s, bit for bit.
fn assert_same_answers(grown: &Index<Growing>, built: &Index<Frozen>, what: &str) {
    assert_eq!(grown.len(), built.len(), "{what}");
    for id in 0..built.len() as u32 {
        assert_eq!(grown.record_has_terms(id), built.record_has_terms(id), "{what}: id {id}");
        let (got, want) = (grown.generate_candidates(id), built.generate_candidates(id));
        assert_eq!(got, want, "{what}: candidates({id})");
        for spec in SPECS {
            assert_eq!(
                grown.lookup(id, spec, P),
                built.lookup(id, spec, P),
                "{what}: lookup({id}, {spec:?})"
            );
        }
    }
}

/// The three places postings live answer alike over `records` under
/// `config` (its `postings_source` is overridden): the plain corpus, and
/// the corpus collapsed to its distinct records. Returns the two grown
/// indexes, plain and collapsed.
fn assert_layouts_agree(
    records: &Records,
    config: &InvertedIndexConfig,
    seed: u64,
    what: &str,
) -> (Index<Growing>, Index<Growing>) {
    let (reps, mult, owner) = collapse(records);
    let plain = grow(records, None, config, seed);
    let collapsed = grow(records, Some(&owner), config, seed);
    for postings_source in [PostingsSource::Memory, PostingsSource::Pages] {
        let config = InvertedIndexConfig { postings_source, ..config.clone() };
        let built = InvertedIndex::build(records.clone(), EditDistance, pool(), config.clone());
        assert_same_answers(&plain, &built, &format!("{what}: plain/{postings_source:?}"));
        let (r, m) = (reps.clone(), mult.clone());
        let built = InvertedIndex::build_collapsed(r, m, EditDistance, pool(), config);
        assert_same_answers(&collapsed, &built, &format!("{what}: collapsed/{postings_source:?}"));
    }
    (plain, collapsed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn grown_index_answers_as_built(
        words in proptest::collection::vec(".{1,6}", 3..9),
        long in ".{65,90}",
        seed in any::<u64>(),
        n in 10usize..36,
    ) {
        let records = corpus(&words, &long, seed, n);
        let (reps, mult, owner) = collapse(&records);
        // Unlimited, the default limit (no corpus here reaches it), a cap
        // that cuts through weight ties, and a stop-gram floor low enough
        // that document frequencies decide what is merged.
        for (candidate_limit, stop_df_floor) in [(0, 100), (256, 100), (4, 100), (0, 2)] {
            let config =
                InvertedIndexConfig { candidate_limit, stop_df_floor, ..Default::default() };
            let (plain, collapsed) = assert_layouts_agree(&records, &config, seed, "drawn");
            // The maintained document frequencies are the full corpus's: a
            // representative sees the classes its first member sees there.
            for rep in 0..reps.len() as u32 {
                let first = owner.iter().position(|&o| o == rep).expect("a class has a member");
                let mut want: Vec<u32> = plain
                    .candidates_with_limit(first as u32, 0)
                    .iter()
                    .map(|&c| owner[c as usize])
                    .filter(|&o| o != rep)
                    .collect();
                want.sort_unstable();
                want.dedup();
                let mut got = collapsed.candidates_with_limit(rep, 0);
                got.sort_unstable();
                prop_assert_eq!(
                    got, want, "classes seen by rep {} (×{}), floor {}",
                    rep, mult[rep as usize], stop_df_floor
                );
            }

            // A probe answers as the same text, appended, looks itself up —
            // while the corpus is below the stop-gram floor and the cap, so
            // that the shifted document frequencies only reorder candidates.
            if stop_df_floor < 100 || (1..=n).contains(&candidate_limit) {
                continue;
            }
            for text in [&records[0], &vec![format!("{} {}", words[0], words[1])]] {
                let fields: Vec<&str> = text.iter().map(String::as_str).collect();
                let mut appended = records.clone();
                appended.push(text.clone());
                let control = grow(&appended, None, &config, seed);
                for spec in SPECS {
                    let (got_n, got_ng, _) = plain.probe(&fields, spec, P);
                    let (want_n, want_ng, _) = control.lookup(records.len() as u32, spec, P);
                    prop_assert_eq!((got_n, got_ng), (want_n, want_ng), "probe {:?} {:?}", text, spec);
                }
            }
        }
    }
}

#[test]
fn single_term_and_disjoint_records() {
    // "xy" yields very short gram lists; the symbols-only records share
    // nothing with anyone (empty intersections everywhere).
    let records = single_field(&["xy", "xy", "qqq", "zzzz", "a b", "c d"]);
    for candidate_limit in [0, 2] {
        let config = InvertedIndexConfig { candidate_limit, ..Default::default() };
        assert_layouts_agree(&records, &config, 1, "single-term");
    }
}

#[test]
fn fully_stopped_queries_fall_back_identically() {
    // Every term has df >= 2 with an aggressive stop cutoff: the first
    // merge pass drops everything and every layout must take the
    // include-stops fallback and still agree.
    let records = single_field(&["the doors", "the doors", "the doors live", "the doors"]);
    let config = InvertedIndexConfig {
        max_df_fraction: 0.01,
        stop_df_floor: 1,
        candidate_limit: 0,
        ..Default::default()
    };
    let (plain, _) = assert_layouts_agree(&records, &config, 2, "fully-stopped");
    let nn = plain.top_k(0, 2);
    assert!(!nn.is_empty(), "fallback must produce candidates");
    assert_eq!(nn[0].dist, 0.0);
}

#[test]
fn a_shared_token_list_outgrows_one_page_chunk() {
    // 40 records sharing one token at four ids a chunk: its postings span
    // ten heap records, which the page merge must stitch back into the one
    // list the other two layouts hold. The per-id suffix keeps records
    // distinguishable.
    let records: Records = (0..40).map(|i| vec![format!("sharedtoken entry{i:03}")]).collect();
    for candidate_limit in [0, 16] {
        let config = InvertedIndexConfig { candidate_limit, chunk_size: 4, ..Default::default() };
        assert_layouts_agree(&records, &config, 3, "chunk-crossing");
    }
}

#[test]
fn noisy_duplicated_corpus_agrees_across_layouts() {
    // Noisy near-duplicates, each arriving one to four times: df, IDF and
    // the stop set are computed in full-corpus units by code every layout
    // shares; the merge must still agree on top of it, capped or not.
    let distinct = noisy_corpus(0xFEED, 40);
    let records: Records = (0..4)
        .flat_map(|round| distinct.iter().enumerate().filter(move |(i, _)| i % 4 >= round))
        .map(|(_, record)| record.clone())
        .collect();
    for candidate_limit in [0, 8] {
        let config = InvertedIndexConfig { candidate_limit, ..Default::default() };
        assert_layouts_agree(&records, &config, 4, "noisy-duplicated");
    }
}

#[test]
fn postings_scanned_is_the_same_count_wherever_postings_live() {
    // Every lookup merges its whole query: the count is the summed length
    // of the merged lists, whichever layout holds them.
    let records: Records = (0..150)
        .map(|i| {
            vec![match i % 4 {
                0 => format!("customer record number {i:02}"),
                1 => format!("customer record numbr {i:02}"),
                2 => format!("supplier invoice {i:02} pending review"),
                _ => format!("zz{i:02}"),
            }]
        })
        .collect();
    let scanned = |index: &dyn NnIndex| {
        let ((), delta) = fuzzydedup_metrics::scoped(|| {
            for id in 0..records.len() as u32 {
                for spec in [LookupSpec::Radius(0.05), LookupSpec::Radius(0.15)] {
                    index.lookup(id, spec, P);
                }
            }
        });
        delta.get(Counter::NnPostingsScanned)
    };
    let config = InvertedIndexConfig { candidate_limit: 0, ..Default::default() };
    assert_eq!(scanned(&grow(&records, None, &config, 5)), 355_528, "grown");
    for postings_source in [PostingsSource::Memory, PostingsSource::Pages] {
        let config = InvertedIndexConfig { postings_source, ..config.clone() };
        let built = InvertedIndex::build(records.clone(), EditDistance, pool(), config);
        assert_eq!(scanned(&built), 355_528, "{postings_source:?}");
    }
}
