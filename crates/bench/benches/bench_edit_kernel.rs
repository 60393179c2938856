//! Criterion micro-bench: edit-distance kernel ladder — the classic
//! two-row DP against the bit-parallel Myers kernel across string-length
//! buckets, plus the k-bounded variant candidate verification uses.
//!
//! Emits `results/BENCH_edit_kernel.json`. The committed baseline backs
//! the acceptance claim that the Myers word path is ≥ 4× faster than the
//! DP on the 16–64 char buckets, and the bench-regression gate
//! (`ci_bench_gate`) watches it for slowdowns.
//!
//! Two more rows time the kernel where Phase 1 calls it: **ns per
//! candidate** through the prepared batch call over compiled Org records
//! at cutoff 0.6 — everything verification pays per candidate, not the scan
//! alone — once per lane kind of the chunk kernel (DESIGN.md §7.6):
//! `verify/org_word_per_candidate` (the query is the first record of ≤ 64
//! chars: word lanes) and `verify/org_blocked_per_candidate` (the first
//! longer one: blocked lanes, and window lanes where affixes strip). Org
//! record strings have a median of ≈ 63 chars with ≈ 41 % over 64, so a
//! single row prepared from `records[0]` timed whichever kind that one
//! record's length happened to select.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fuzzydedup_datagen::{org, DatasetSpec};
use fuzzydedup_textdist::edit::levenshtein_dp_chars_with;
use fuzzydedup_textdist::{
    myers_bounded_chars, myers_chars, record_string, Candidate, CompiledRecords, Distance,
    EditDistance,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Length buckets: 16–64 exercise the single-word path (the acceptance
/// buckets), 128 and 256 the blocked multi-word path.
const BUCKETS: [usize; 5] = [16, 32, 64, 128, 256];

/// Pairs per bucket; every measurement iterates the full set so the
/// numbers are per-batch, stable, and comparable across kernels.
const PAIRS_PER_BUCKET: usize = 32;

/// A random mostly-ASCII string of exactly `len` chars, alphabet sized to
/// give realistic match density for record text.
fn random_string(rng: &mut StdRng, len: usize) -> Vec<char> {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz 0123456789";
    (0..len).map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char).collect()
}

/// A near-duplicate of `base`: ~10% of positions substituted, one char
/// appended half the time — the distance regime verification sees.
fn perturb(rng: &mut StdRng, base: &[char]) -> Vec<char> {
    let mut out: Vec<char> = base.to_vec();
    for slot in out.iter_mut() {
        if rng.gen_bool(0.1) {
            *slot = (b'a' + rng.gen_range(0..26u8)) as char;
        }
    }
    if rng.gen_bool(0.5) {
        out.push('x');
    }
    out
}

/// One pre-generated (base, near-duplicate) pair, as char slices.
type CharPair = (Vec<char>, Vec<char>);

fn pairs_for(rng: &mut StdRng, len: usize) -> Vec<CharPair> {
    (0..PAIRS_PER_BUCKET)
        .map(|_| {
            let a = random_string(rng, len);
            let b = perturb(rng, &a);
            (a, b)
        })
        .collect()
}

fn bench_edit_kernel(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(42);
    let buckets: Vec<(usize, Vec<CharPair>)> =
        BUCKETS.iter().map(|&len| (len, pairs_for(&mut rng, len))).collect();

    let mut group = c.benchmark_group("edit_kernel");
    group.sample_size(20);
    for (len, pairs) in &buckets {
        group.bench_function(format!("dp/{len}"), |b| {
            let mut bufs = (Vec::new(), Vec::new());
            b.iter(|| {
                for (x, y) in pairs {
                    black_box(levenshtein_dp_chars_with(&mut bufs, x, y));
                }
            })
        });
        group.bench_function(format!("myers/{len}"), |b| {
            b.iter(|| {
                for (x, y) in pairs {
                    black_box(myers_chars(x, y));
                }
            })
        });
        // The verification regime: a tight cutoff (best-so-far already
        // small) lets the bounded kernel bail out early on most pairs.
        group.bench_function(format!("myers_bounded_k2/{len}"), |b| {
            b.iter(|| {
                for (x, y) in pairs {
                    black_box(myers_bounded_chars(x, y, 2));
                }
            })
        });
    }

    // One lookup's worth of verification: the query prepared once, then
    // 256 candidates (the default candidate limit) in batches of 32 (the
    // driver's flush size) at one cutoff — every other record, so both rows
    // verify the same kind of candidates and differ in the query alone.
    const CANDIDATES: usize = 256;
    const BATCH: usize = 32;
    let records = org::generate(&mut rng, DatasetSpec::with_entities(CANDIDATES)).records;
    let store = CompiledRecords::compile(&EditDistance, &records);
    let fields = |id: usize| records[id].iter().map(String::as_str).collect::<Vec<&str>>();
    let first = |long: bool| {
        (0..records.len())
            .find(|&id| (record_string(&fields(id)).chars().count() > 64) == long)
            .expect("Org has records on both sides of 64 chars")
    };
    for (row, query) in [("org_word", first(false)), ("org_blocked", first(true))] {
        let candidates: Vec<Candidate> = (0..records.len())
            .filter(|&id| id != query)
            .take(CANDIDATES)
            .map(|id| store.candidate(id, &records[id]))
            .collect();
        group.bench_function(format!("verify/{row}_per_candidate"), |b| {
            let mut prepared = EditDistance.prepare(&fields(query));
            let mut out = Vec::new();
            b.iter_per_element(CANDIDATES as u64, || {
                for batch in candidates.chunks(BATCH) {
                    prepared.distance_bounded_batch(black_box(batch), 0.6, &mut out);
                    black_box(&out);
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_edit_kernel);
criterion_main!(benches);
