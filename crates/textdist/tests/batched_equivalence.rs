//! Property tests pinning the lock-step batched prepared path to the
//! scalar prepared path it accelerates (DESIGN.md §7.6).
//!
//! For every built-in distance — and one custom distance running on the
//! trait's defaults — `Prepared::distance_bounded_batch` over a list of
//! compiled candidates must agree *bit-exactly*, slot for slot, with
//! calling `Prepared::distance_bounded` per candidate at the same cutoff,
//! and with the unprepared `Distance::distance_bounded` on the raw fields
//! — across Unicode (including 4-byte supplementary-plane chars), >64-char
//! blocked patterns, cutoffs on both sides of the true distance, ragged
//! final batches, batch size 1, and batches mixing compiled candidates
//! with raw-field ones.

use fuzzydedup_textdist::{
    record_string, Candidate, CompiledRecords, Distance, EditDistance, FuzzyMatchDistance,
    IdfModel, UnfilteredDistance,
};
use proptest::prelude::*;

/// A third-party distance that implements only what the trait demands
/// (the relative length gap of the record strings); bounded calls,
/// `prepare`, `compile_record` and the batch call are all defaults.
struct LengthGap;

impl Distance for LengthGap {
    fn distance(&self, a: &[&str], b: &[&str]) -> f64 {
        let la = record_string(a).chars().count();
        let lb = record_string(b).chars().count();
        la.abs_diff(lb) as f64 / la.max(lb).max(1) as f64
    }
    fn name(&self) -> &str {
        "length-gap"
    }
}

fn idf() -> IdfModel {
    IdfModel::fit_strings(&[
        "microsoft corp",
        "boeing corporation",
        "microsft corporation",
        "intel corp",
        "mic corporation",
        "golden dragon palace",
        "日本語 café 🜁𝄞",
    ])
}

fn all_distances() -> Vec<Box<dyn Distance>> {
    vec![
        Box::new(EditDistance),
        Box::new(FuzzyMatchDistance::new(idf())),
        Box::new(UnfilteredDistance(EditDistance)),
        Box::new(LengthGap),
    ]
}

/// Cutoff grid straddling every candidate's true distance, plus fixed
/// points — one shared cutoff per batch call, as the verification driver
/// issues them.
fn batch_cutoffs(dist: &dyn Distance, query: &[&str], candidates: &[Vec<&str>]) -> Vec<f64> {
    let mut cuts = vec![0.0, 0.2, 0.5, 0.8, 1.0];
    for cand in candidates {
        let fields: Vec<&str> = cand.to_vec();
        let d = dist.distance(query, &fields);
        cuts.extend([d, (d - 1e-9).max(0.0), (d + 1e-9).min(1.0)]);
    }
    cuts
}

/// Core check: batched results over compiled candidates equal the
/// unprepared call on the raw fields and the per-candidate scalar
/// results — for the whole list in one call and re-chunked at sizes 1
/// and 3 (ragged final chunks included whenever `len % 3 != 0`), and
/// again with every other candidate handed over as raw fields.
fn assert_batch_equals_scalar(dist: &dyn Distance, query: &[&str], candidates: &[Vec<&str>]) {
    let owned: Vec<Vec<String>> =
        candidates.iter().map(|c| c.iter().map(|f| f.to_string()).collect()).collect();
    let mut store = CompiledRecords::default();
    for cand in candidates {
        dist.compile_record(cand, &mut store);
    }
    let compiled: Vec<Candidate> =
        owned.iter().enumerate().map(|(i, fields)| store.candidate(i, fields)).collect();
    let mixed: Vec<Candidate> = compiled
        .iter()
        .zip(&owned)
        .enumerate()
        .map(|(i, (&form, fields))| if i % 2 == 0 { form } else { Candidate::Fields(fields) })
        .collect();
    let mut prepared = dist.prepare(query);
    let mut out = Vec::new();
    for cutoff in batch_cutoffs(dist, query, candidates) {
        let expected: Vec<Option<f64>> =
            candidates.iter().map(|c| dist.distance_bounded(query, c, cutoff)).collect();
        let scalar: Vec<Option<f64>> =
            compiled.iter().map(|&c| prepared.distance_bounded(c, cutoff)).collect();
        assert_eq!(
            scalar,
            expected,
            "{}: scalar(compiled) != unprepared at cutoff {cutoff} for {query:?} vs {candidates:?}",
            dist.name()
        );
        for forms in [&compiled, &mixed] {
            for chunk_len in [candidates.len().max(1), 1, 3] {
                let mut got: Vec<Option<f64>> = Vec::new();
                for chunk in forms.chunks(chunk_len) {
                    prepared.distance_bounded_batch(chunk, cutoff, &mut out);
                    got.extend_from_slice(&out);
                }
                assert_eq!(
                    got,
                    expected,
                    "{}: batch(chunk={chunk_len}) != scalar at cutoff {cutoff} for {query:?} vs {candidates:?}",
                    dist.name()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Batched ≡ scalar for every distance on arbitrary Unicode records,
    /// 4-byte supplementary-plane chars included.
    #[test]
    fn batched_equals_scalar(
        query in "[a-f0-9éüß日語🜁𝄞 ]{0,40}",
        cands in prop::collection::vec("[a-f0-9éüß日語🜁𝄞 ]{0,40}", 1..8),
    ) {
        let candidates: Vec<Vec<&str>> = cands.iter().map(|c| vec![c.as_str()]).collect();
        for dist in all_distances() {
            assert_batch_equals_scalar(&dist, &[query.as_str()], &candidates);
        }
    }

    /// Long strings push edit distance onto the blocked (>64 char) Myers
    /// path inside a batch whose other members may stay on the word path.
    #[test]
    fn batched_blocked_myers_equivalence(
        prefix in "[a-céü]{0,80}",
        mids in prop::collection::vec("[a-f日語𝄞]{0,30}", 1..6),
        suffix in "[a-céü]{0,80}",
    ) {
        let query = format!("{prefix}golden dragon{suffix}");
        let cands: Vec<String> =
            mids.iter().map(|m| format!("{prefix}{m}{suffix}")).collect();
        let candidates: Vec<Vec<&str>> = cands.iter().map(|c| vec![c.as_str()]).collect();
        assert_batch_equals_scalar(&EditDistance, &[query.as_str()], &candidates);
    }

    /// Multi-field candidates through the batch gather.
    #[test]
    fn batched_multi_field_equivalence(
        f1 in "[a-d é]{0,20}",
        f2 in "[a-d é]{0,20}",
        pairs in prop::collection::vec(("[a-d é]{0,20}", "[a-d é]{0,20}"), 1..5),
    ) {
        let candidates: Vec<Vec<&str>> =
            pairs.iter().map(|(g1, g2)| vec![g1.as_str(), g2.as_str()]).collect();
        for dist in all_distances() {
            assert_batch_equals_scalar(&dist, &[f1.as_str(), f2.as_str()], &candidates);
        }
    }
}

/// Deterministic seams: empty strings, identical records, the 63/64/65
/// word boundary, 4-byte chars, U+0130 (whose lowercase mapping expands),
/// uppercase/punctuation/empty fields, and a mixed batch that straddles
/// the word/blocked split so lane bucketing retires lanes at different
/// columns.
#[test]
fn deterministic_batch_boundary_cases() {
    let b63 = "x".repeat(63);
    let b64 = "x".repeat(64);
    let b65 = "x".repeat(63) + "yz";
    let long_uni = "é".repeat(70) + "golden dragon" + &"𝄞".repeat(10);
    let cands: Vec<Vec<&str>> = vec![
        vec![""],
        vec!["golden dragon palace"],
        vec!["golden dragon"],
        vec![&b63],
        vec![&b64],
        vec![&b65],
        vec![&long_uni],
        vec!["日本語 café 🜁"],
        vec!["microsft corporation"],
        vec!["GOLDEN Dragon", "", "Palace!"],
        vec!["İİİİ golden", "dragon"],
        vec![],
    ];
    for query in ["golden dragon palace", "", &b64, &long_uni, "İİİİ Golden-Dragon"] {
        for dist in all_distances() {
            assert_batch_equals_scalar(&dist, &[query], &cands);
        }
    }
}

/// An empty batch is a no-op that clears the output buffer.
#[test]
fn empty_batch_clears_output() {
    for dist in all_distances() {
        let mut prepared = dist.prepare(&["golden dragon"]);
        let mut out = vec![Some(0.5)];
        prepared.distance_bounded_batch(&[], 0.5, &mut out);
        assert!(out.is_empty(), "{}", dist.name());
    }
}
