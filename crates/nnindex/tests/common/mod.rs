//! Helpers shared by the nnindex integration suites.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A corpus of `n` records: random base entities plus noisy duplicates
/// (character substitutions, deletions, and insertions), the regime the
/// filters must stay lossless in.
pub fn noisy_corpus(seed: u64, n: usize) -> Vec<Vec<String>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let words = ["acme", "global", "logistics", "corp", "north", "trading", "supply", "works"];
    let mut bases: Vec<String> = Vec::new();
    for _ in 0..(n / 3).max(1) {
        let k = rng.gen_range(1..4);
        let mut parts: Vec<String> = Vec::new();
        for _ in 0..k {
            parts.push(words[rng.gen_range(0..words.len())].to_string());
        }
        parts.push(format!("{}", rng.gen_range(0..100)));
        bases.push(parts.join(" "));
    }
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let base = &bases[rng.gen_range(0..bases.len())];
        let mut chars: Vec<char> = base.chars().collect();
        for _ in 0..rng.gen_range(0..3) {
            if chars.is_empty() {
                break;
            }
            let pos = rng.gen_range(0..chars.len());
            match rng.gen_range(0..3) {
                0 => chars[pos] = (b'a' + rng.gen_range(0..26) as u8) as char,
                1 => {
                    chars.remove(pos);
                }
                _ => chars.insert(pos, (b'a' + rng.gen_range(0..26) as u8) as char),
            }
        }
        out.push(vec![chars.into_iter().collect()]);
    }
    out
}
