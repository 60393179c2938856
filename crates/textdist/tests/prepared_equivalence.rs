//! Property tests pinning the prepared-query layer to the unprepared
//! [`Distance`] API it accelerates (DESIGN.md §7.5).
//!
//! For every built-in distance, compiling the query once via
//! [`Distance::prepare`] and evaluating candidates, in the form
//! [`Distance::compile_record`] compiled once, through
//! `Prepared::bounded` must agree *bit-exactly* with the plain
//! [`Distance::distance`] filtered at the cutoff. Cutoffs are sampled on
//! both sides of the true distance (including the exact boundary),
//! candidates include Unicode/multibyte text, and the edit distance is
//! driven across the 64-char word boundary so the blocked Myers path and
//! the prepare-time affix stripping are both exercised.

use fuzzydedup_textdist::{
    CompiledRecords, Distance, EditDistance, FuzzyMatchDistance, IdfModel, UnfilteredDistance,
};
use proptest::prelude::*;

/// Cutoffs straddling the true distance `d`: fixed grid points plus the
/// exact boundary and points just inside/outside it.
fn cutoffs(d: f64) -> Vec<f64> {
    vec![
        0.0,
        0.2,
        0.5,
        0.8,
        1.0,
        d,
        (d - 1e-9).max(0.0),
        (d + 1e-9).min(1.0),
        (d * 0.5).max(0.0),
        (d * 1.5).min(1.0),
    ]
}

/// Core equivalence check: the candidates compiled once, one query
/// prepared once, every candidate evaluated at every cutoff through the
/// prepared query and through the unprepared call, filtered.
fn assert_equivalent(dist: &dyn Distance, query: &[&str], candidates: &[Vec<&str>]) {
    let mut store = CompiledRecords::default();
    for cand in candidates {
        dist.compile_record(cand, &mut store);
    }
    let mut prepared = dist.prepare(query);
    for (i, cand) in candidates.iter().enumerate() {
        let plain = dist.distance(query, cand);
        for cutoff in cutoffs(plain) {
            let expect = (plain <= cutoff).then_some(plain);
            assert_eq!(
                prepared.bounded(store.candidate(i), cutoff),
                expect,
                "{}: prepared != filtered distance at cutoff {cutoff} for {query:?} vs {cand:?}",
                dist.name()
            );
        }
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
        "日本語 café",
    ])
}

/// Every built-in distance, boxed so one loop covers them all (and the
/// `Box<dyn Distance>` prepare forwarding with it).
fn all_distances() -> Vec<Box<dyn Distance>> {
    vec![
        Box::new(EditDistance),
        Box::new(FuzzyMatchDistance::new(idf())),
        Box::new(UnfilteredDistance(EditDistance)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// prepared ≡ filtered-plain for every distance on arbitrary Unicode
    /// records.
    #[test]
    fn prepared_equals_unprepared(
        query in "[a-f0-9éüß日語 ]{0,40}",
        cands in prop::collection::vec("[a-f0-9éüß日語 ]{0,40}", 1..4),
    ) {
        let candidates: Vec<Vec<&str>> = cands.iter().map(|c| vec![c.as_str()]).collect();
        for dist in all_distances() {
            assert_equivalent(&dist, &[query.as_str()], &candidates);
        }
    }

    /// Long strings push edit distance onto the blocked (>64 char) Myers
    /// path; shared prefixes/suffixes of varying length exercise the
    /// prepare-time affix handling against per-call stripping.
    #[test]
    fn blocked_myers_prepared_equivalence(
        prefix in "[a-céü]{0,80}",
        qmid in "[a-f日語]{0,30}",
        cmid in "[a-f日語]{0,30}",
        suffix in "[a-céü]{0,80}",
    ) {
        let query = format!("{prefix}{qmid}{suffix}");
        let cand = format!("{prefix}{cmid}{suffix}");
        let dist = EditDistance;
        let candidates = vec![vec![cand.as_str()]];
        assert_equivalent(&dist, &[query.as_str()], &candidates);
    }

    /// Multi-field records must behave identically through both paths
    /// (field joining happens at prepare time for string distances).
    #[test]
    fn multi_field_prepared_equivalence(
        f1 in "[a-d é]{0,20}",
        f2 in "[a-d é]{0,20}",
        g1 in "[a-d é]{0,20}",
        g2 in "[a-d é]{0,20}",
    ) {
        let candidates = vec![vec![g1.as_str(), g2.as_str()]];
        for dist in all_distances() {
            assert_equivalent(&dist, &[f1.as_str(), f2.as_str()], &candidates);
        }
    }
}

/// Deterministic seams: empty records, identical records, and the exact
/// 63/64/65-char word boundary with multibyte chars and shared affixes.
#[test]
fn deterministic_boundary_cases() {
    let long_a = "é".repeat(70) + "golden dragon" + &"語".repeat(10);
    let long_b = "é".repeat(70) + "goldn dargon" + &"語".repeat(10);
    let b64 = "x".repeat(64);
    let b65 = "x".repeat(63) + "yz";
    let cases: Vec<(&str, &str)> = vec![
        ("", ""),
        ("", "abc"),
        ("abc", ""),
        ("golden dragon palace", "golden dragon palace"),
        ("microsoft corp", "microsft corporation"),
        (&long_a, &long_b),
        (&b64, &b65),
        ("日本語 café", "cafe 日本語"),
    ];
    for dist in all_distances() {
        for (q, c) in &cases {
            assert_equivalent(&dist, &[q], &[vec![*c]]);
        }
    }
}

/// What compilation must see exactly as the unprepared `distance` does:
/// uppercase, punctuation, empty and multiple fields, non-ASCII whose
/// lowercase mapping expands (U+0130), and records past 64 chars.
#[test]
fn compiled_candidates_on_messy_records() {
    let long = "Golden-Dragon PALACE ".repeat(4) + "İstanbul";
    let candidates: Vec<Vec<&str>> = vec![
        vec!["The DOORS", "L.A. Woman!"],
        vec!["the doors", "", "la woman"],
        vec!["", ""],
        vec![],
        vec!["İİİİ Cafe", "İSTANBUL"],
        vec!["iiii cafe", "istanbul"],
        vec!["i i i i cafe"],
        vec![&long, "Ünïcödé — Straße №5"],
        vec!["??", "--", "!!"],
    ];
    for dist in all_distances() {
        for query in &candidates {
            assert_equivalent(&dist, query, &candidates);
        }
    }
}

/// One prepared query evaluated against many candidates in sequence —
/// internal scratch buffers must not leak state between candidates.
#[test]
fn prepared_reuse_across_candidates() {
    let cands: Vec<Vec<String>> = [
        "golden dragon palace",
        "",
        "golden dragon",
        "a much longer candidate string that exceeds sixty four characters in total length",
        "golden dragon palace",
        "日本語",
    ]
    .iter()
    .map(|c| vec![c.to_string()])
    .collect();
    for dist in all_distances() {
        let query = ["golden dragon palace"];
        let mut store = CompiledRecords::default();
        for c in &cands {
            dist.compile_record(&[c[0].as_str()], &mut store);
        }
        let mut prepared = dist.prepare(&query);
        for (i, c) in cands.iter().enumerate() {
            let plain = dist.distance(&query, &[c[0].as_str()]);
            let expect = (plain <= 0.75).then_some(plain);
            let compiled = prepared.bounded(store.candidate(i), 0.75);
            assert_eq!(expect, compiled, "{}: reuse mismatch on {c:?}", dist.name());
        }
    }
}
