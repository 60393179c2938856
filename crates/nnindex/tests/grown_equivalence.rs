//! Grown ≡ built: the inverted index is one struct that grows by `push`
//! and is frozen by `build`, so an index still growing must answer exactly
//! as a build over the same records does — plain, and collapsed with the
//! duplicates noted in whatever order they arrive.
//!
//! A growing index sums a candidate's IDF weight in term-string order, as
//! a [`PostingsSource::Pages`] build does, so against that build every
//! answer is compared bit for bit: the combined lookup with its cost, the
//! ranked candidates, `record_has_terms`. The packed merge sums rarest term
//! first, which may move a weight by an ulp and with it the verification
//! order; against a packed build the comparison is what cannot depend on
//! that order — candidate sets, neighbors and growth of a plain corpus
//! under `candidate_limit: 0`.

use std::sync::Arc;

use fuzzydedup_nnindex::{
    Growing, InvertedIndex, InvertedIndexConfig, Layout, LookupSpec, NnIndex, PostingsSource,
};
use fuzzydedup_storage::{BufferPool, BufferPoolConfig, InMemoryDisk};
use fuzzydedup_textdist::EditDistance;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// Every answer of `grown` equals `built`'s: bit for bit when `exact`,
/// else up to the order candidates were verified in.
fn assert_same_answers<L: Layout>(
    grown: &Index<Growing>,
    built: &Index<L>,
    exact: bool,
    what: &str,
) {
    assert_eq!(grown.len(), built.len(), "{what}");
    for id in 0..built.len() as u32 {
        assert_eq!(grown.record_has_terms(id), built.record_has_terms(id), "{what}: id {id}");
        let (mut got, mut want) = (grown.generate_candidates(id), built.generate_candidates(id));
        if !exact {
            got.sort_unstable();
            want.sort_unstable();
        }
        assert_eq!(got, want, "{what}: candidates({id})");
        for spec in SPECS {
            let (got_n, got_ng, got_cost) = grown.lookup(id, spec, P);
            let (want_n, want_ng, want_cost) = built.lookup(id, spec, P);
            assert_eq!((got_n, got_ng), (want_n, want_ng), "{what}: lookup({id}, {spec:?})");
            if exact {
                assert_eq!(got_cost, want_cost, "{what}: cost({id}, {spec:?})");
            }
        }
    }
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
        // Unlimited, the default limit (no corpus here reaches it, so no
        // weight tie straddles the cut), and a stop-gram floor low enough
        // that document frequencies decide what is merged.
        for (candidate_limit, stop_df_floor) in [(0, 100), (256, 100), (0, 2)] {
            let config = |postings_source| InvertedIndexConfig {
                candidate_limit,
                stop_df_floor,
                postings_source,
                ..Default::default()
            };
            let pages = config(PostingsSource::Pages);
            let plain = grow(&records, None, &pages, seed);
            let built = InvertedIndex::build(records.clone(), EditDistance, pool(), pages.clone());
            assert_same_answers(&plain, &built, true, "plain/pages");
            let packed = config(PostingsSource::Packed);
            let built = InvertedIndex::build(records.clone(), EditDistance, pool(), packed);
            assert_same_answers(&plain, &built, false, "plain/packed");

            let collapsed = grow(&records, Some(&owner), &pages, seed);
            let (r, m) = (reps.clone(), mult.clone());
            let built = InvertedIndex::build_collapsed(r, m, EditDistance, pool(), pages);
            assert_same_answers(&collapsed, &built, true, "collapsed/pages");
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
                // A duplicated record that shares non-stop terms with its
                // own copies only: the full corpus stops at the copies, the
                // representative sees nothing and falls back to stop grams.
                if mult[rep as usize] > 1 && want.is_empty() {
                    continue;
                }
                let mut got = collapsed.candidates_with_limit(rep, 0);
                got.sort_unstable();
                prop_assert_eq!(got, want, "classes seen by rep {}, floor {}", rep, stop_df_floor);
            }

            // A probe answers as the same text, appended, looks itself up —
            // while the corpus is below the stop-gram floor, so that the
            // shifted document frequencies only reorder candidates.
            if stop_df_floor < 100 {
                continue;
            }
            for text in [&records[0], &vec![format!("{} {}", words[0], words[1])]] {
                let fields: Vec<&str> = text.iter().map(String::as_str).collect();
                let mut appended = records.clone();
                appended.push(text.clone());
                let control = grow(&appended, None, &config(PostingsSource::Packed), seed);
                for spec in SPECS {
                    let (got_n, got_ng, _) = plain.probe(&fields, spec, P);
                    let (want_n, want_ng, _) = control.lookup(records.len() as u32, spec, P);
                    prop_assert_eq!((got_n, got_ng), (want_n, want_ng), "probe {:?} {:?}", text, spec);
                }
            }
        }
    }
}
