//! Property tests pinning the bit-parallel Myers kernel to the classic
//! dynamic program it replaced (DESIGN.md, "kernel selection ladder"):
//! the full-matrix DP of `common`, exact by construction, and for the
//! bounded kernel the DP's distance whenever it is at most the bound.
//!
//! Strings are drawn from a Unicode-heavy alphabet (ASCII + 2–3-byte
//! accents/CJK + a 4-byte astral emoji) at lengths 0–200, which crosses
//! the 64-char single-word boundary and exercises the blocked multi-word
//! path, the non-ASCII spill table, and common prefix/suffix stripping.

use fuzzydedup_textdist::{myers, myers_bounded};
use proptest::prelude::*;

mod common;

/// Levenshtein by the full DP matrix.
fn levenshtein_dp(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    common::levenshtein_matrix(&a, &b)
}

/// Mixed alphabet as a shim pattern: ASCII letters/digits, 2-byte
/// (`é` `ü` `ß` `ñ`), 3-byte CJK (`日` `本` `語`), and 4-byte `😀`, so
/// char-vs-byte confusion cannot hide.
const UNI: &str = "[a-z0-9éüßñ日本語😀]";

/// The same alphabet as a slice, for index-driven edits.
const UNI_CHARS: &[char] = &['a', 'b', 'z', '0', '9', 'é', 'ü', 'ß', 'ñ', '日', '本', '語', '😀'];

/// Perturb `s` into a near-duplicate so the pair is *correlated* — random
/// independent pairs are almost always at distance ≈ max(len), which never
/// exercises the interesting small-k region. Each edit is a
/// (position, alphabet-index) pair steering a substitute/insert/delete.
fn near_duplicate(s: &str, edits: &[(usize, usize)]) -> String {
    let mut chars: Vec<char> = s.chars().collect();
    for &(pos, ci) in edits {
        let c = UNI_CHARS[ci % UNI_CHARS.len()];
        if chars.is_empty() {
            chars.push(c);
            continue;
        }
        let len = chars.len();
        match pos % 3 {
            0 => chars[pos % len] = c,
            1 => chars.insert(pos % (len + 1), c),
            _ => {
                chars.remove(pos % len);
            }
        }
    }
    chars.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Tentpole equivalence: Myers (word + blocked paths, with stripping)
    /// computes exactly the DP edit distance on arbitrary Unicode input.
    #[test]
    fn myers_matches_dp(a in "[a-z0-9éüßñ日本語😀]{0,200}", b in "[a-z0-9éüßñ日本語😀]{0,200}") {
        prop_assert_eq!(myers(&a, &b), levenshtein_dp(&a, &b));
    }

    /// Same, on correlated near-duplicates (small true distance, long
    /// common prefixes/suffixes — the stripping fast path).
    #[test]
    fn myers_matches_dp_on_near_duplicates(
        a in "[a-z0-9éüßñ日本語😀]{0,200}",
        edits in prop::collection::vec((0usize..1000, 0usize..64), 0..6),
    ) {
        let b = near_duplicate(&a, &edits);
        prop_assert_eq!(myers(&a, &b), levenshtein_dp(&a, &b));
    }

    /// `myers_bounded` agrees with the banded-DP oracle on BOTH sides of
    /// the cutoff: identical `Some(d)` when the distance is within the
    /// bound, identical `None` when it is not.
    #[test]
    fn bounded_matches_the_dp_on_near_duplicates(
        a in "[a-z0-9éüßñ日本語😀]{0,120}",
        edits in prop::collection::vec((0usize..1000, 0usize..64), 0..9),
        bound in 0usize..12,
    ) {
        let b = near_duplicate(&a, &edits);
        let d = levenshtein_dp(&a, &b);
        prop_assert_eq!(myers_bounded(&a, &b, bound), (d <= bound).then_some(d));
    }

    /// Bounded semantics are exactly "distance if ≤ k": tie the bounded
    /// result straight back to the unbounded DP truth.
    #[test]
    fn bounded_is_filtered_exact_distance(
        a in "[a-z0-9éüßñ日本語😀]{0,100}",
        b in "[a-z0-9éüßñ日本語😀]{0,100}",
        bound in 0usize..220,
    ) {
        let d = levenshtein_dp(&a, &b);
        let expect = (d <= bound).then_some(d);
        prop_assert_eq!(myers_bounded(&a, &b, bound), expect);
    }

    /// Metric sanity carried over from the DP era: symmetry and the
    /// identity axiom hold for the Myers kernel too.
    #[test]
    fn myers_is_symmetric_and_zero_on_equal(
        a in "[a-z0-9éüßñ日本語😀]{0,150}",
        b in "[a-z0-9éüßñ日本語😀]{0,150}",
    ) {
        prop_assert_eq!(myers(&a, &b), myers(&b, &a));
        prop_assert_eq!(myers(&a, &a), 0);
    }
}

// Silence "unused const" if a refactor drops a use — UNI documents the
// pattern the literals above repeat (the shim needs `'static` literals).
const _: &str = UNI;

/// Deterministic spot checks at the word-size boundary with multibyte
/// chars — the exact seams the property tests rely on randomness to hit.
#[test]
fn word_boundary_with_multibyte_chars() {
    for m in [63usize, 64, 65, 127, 128, 129] {
        let a: String = "é".repeat(m);
        let mut b = a.clone();
        b.push('語');
        assert_eq!(myers(&a, &b), 1, "append at m={m}");
        assert_eq!(myers_bounded(&a, &b, 1), Some(1), "bounded at m={m}");
        assert_eq!(myers_bounded(&a, &b, 0), None, "cutoff at m={m}");
        // Substitution in the middle defeats prefix AND suffix stripping.
        let mut c: Vec<char> = a.chars().collect();
        c[m / 2] = '😀';
        let c: String = c.into_iter().collect();
        assert_eq!(myers(&a, &c), levenshtein_dp(&a, &c), "substitution at m={m}");
    }
}
