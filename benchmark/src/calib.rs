//! Calibration control: a fixed pure-CPU kernel that calls no repository
//! code, timed before and after every workload. The two readings say
//! whether the machine ran at the same speed throughout; they are reported
//! beside the metrics and never divided into them.

use std::hint::black_box;
use std::time::Instant;

const LEN: usize = 256;
/// Iterations of the 256 × 256 DP; about half a second on the 2-core box
/// the benchmark was defined on.
const ITERATIONS: usize = 3000;

/// Two fixed, different 256-byte strings from a fixed LCG.
fn fixed_strings() -> ([u8; LEN], [u8; LEN]) {
    let mut state: u32 = 0x2545_f491;
    let mut next = || {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        b'a' + ((state >> 24) % 8) as u8
    };
    let mut a = [0u8; LEN];
    let mut b = [0u8; LEN];
    for i in 0..LEN {
        a[i] = next();
        b[i] = next();
    }
    (a, b)
}

/// Two-row dynamic-programming Levenshtein distance.
fn levenshtein(a: &[u8], b: &[u8], prev: &mut [u32], cur: &mut [u32]) -> u32 {
    for (j, cell) in prev.iter_mut().enumerate() {
        *cell = j as u32;
    }
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i as u32 + 1;
        for (j, &cb) in b.iter().enumerate() {
            let substitute = prev[j] + u32::from(ca != cb);
            cur[j + 1] = substitute.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        prev.copy_from_slice(cur);
    }
    prev[b.len()]
}

/// Seconds the fixed kernel takes right now.
pub fn kernel_s() -> f64 {
    let (a, b) = fixed_strings();
    let mut prev = vec![0u32; LEN + 1];
    let mut cur = vec![0u32; LEN + 1];
    let started = Instant::now();
    let mut sum = 0u64;
    for _ in 0..ITERATIONS {
        sum += u64::from(levenshtein(black_box(&a), black_box(&b), &mut prev, &mut cur));
    }
    black_box(sum);
    started.elapsed().as_secs_f64()
}

/// Relative difference between the readings before and after a workload.
pub fn drift(before_s: f64, after_s: f64) -> f64 {
    (after_s - before_s).abs() / before_s.min(after_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_computes_levenshtein() {
        let mut prev = vec![0u32; 8];
        let mut cur = vec![0u32; 8];
        assert_eq!(levenshtein(b"kitten", b"sitting", &mut prev, &mut cur), 3);
        let (a, b) = fixed_strings();
        assert_ne!(a, b);
        assert!((drift(1.0, 1.1) - 0.1).abs() < 1e-12);
    }
}
