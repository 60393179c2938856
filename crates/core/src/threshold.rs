//! SN-threshold estimation from a duplicate-fraction estimate (§4.4).
//!
//! Setting the sparse-neighborhood threshold `c` directly requires "a
//! deeper understanding of the data distribution"; the paper instead asks
//! the user for the *fraction `f` of duplicate tuples* and derives `c` from
//! the cumulative distribution `D` of neighborhood growths:
//!
//! * ideally, `c` is the `f`-percentile of `D` (duplicates have the lowest
//!   NG values);
//! * to be robust, the heuristic picks the least value `x = D⁻¹(y)` around
//!   the `f`-percentile (`y ∈ [f − δ, f + δ]`, `δ = WINDOW`) where the
//!   distribution *spikes* — where the mass concentrated at a single NG
//!   value reaches a spike threshold (`SPIKE_MASS`, the paper's
//!   `D'(x) > 0.1`);
//! * if no spike exists in the window, fall back to `D⁻¹(f + δ)`.
//!
//! The returned value is used as a strict upper bound (`AGG < c`), so we
//! return the spike's NG value itself: groups must be strictly sparser
//! than the spike.

/// Half-width δ of the percentile window around `f`: the paper's 0.05.
const WINDOW: f64 = 0.05;

/// Least probability mass at one NG value that counts as a spike: the
/// paper's 0.1.
const SPIKE_MASS: f64 = 0.1;

/// Estimate the SN threshold `c` from NG values and an estimated duplicate
/// fraction `f ∈ [0, 1]`. Returns `None` for an empty relation.
pub fn estimate_sn_threshold(ng_values: &[f64], f: f64) -> Option<f64> {
    let n = ng_values.len() as f64;
    let mut sorted: Vec<f64> = ng_values.to_vec();
    sorted.sort_by(f64::total_cmp);

    let f = f.clamp(0.0, 1.0);
    let lo = (f - WINDOW).max(0.0);
    let hi = (f + WINDOW).min(1.0);
    // Percentile position of each distinct value: its mass occupies the
    // span `(below, below + mass]` of the cumulative distribution.
    let mut cumulative = 0.0;
    let mut fallback = None;
    for run in sorted.chunk_by(|a, b| a == b) {
        let (value, mass) = (run[0], run.len() as f64 / n);
        let below = cumulative;
        cumulative += mass;
        // A spike marks where the bulk of *unique* tuples begins: its span
        // must *start* inside the window (a heavy value starting below the
        // window is the duplicates' own NG level, not the boundary).
        if (lo..=hi).contains(&below) && mass >= SPIKE_MASS {
            return Some(value);
        }
        // Track D⁻¹(f + δ): the first value whose cumulative mass reaches
        // the upper window edge.
        if fallback.is_none() && cumulative >= hi {
            fallback = Some(value);
        }
    }
    fallback.or_else(|| sorted.last().copied())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input() {
        assert_eq!(estimate_sn_threshold(&[], 0.2), None);
    }

    #[test]
    fn spike_at_unique_tuples_is_found() {
        // 20% duplicates with NG ≈ 2, then a large spike of uniques at
        // NG = 5. The threshold should land on the spike value 5 (used
        // strictly, so groups need NG < 5).
        let mut ng = vec![2.0; 20];
        ng.extend(vec![5.0; 60]);
        ng.extend(vec![6.0; 10]);
        ng.extend(vec![7.0; 10]);
        let c = estimate_sn_threshold(&ng, 0.2).unwrap();
        assert_eq!(c, 5.0);
    }

    #[test]
    fn no_spike_falls_back_to_upper_percentile() {
        // Smooth distribution 1..=100: no value holds ≥ 10% of the mass.
        let ng: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let c = estimate_sn_threshold(&ng, 0.2).unwrap();
        // D⁻¹(0.25) = 25.
        assert_eq!(c, 25.0);
    }

    #[test]
    fn f_zero_and_one() {
        let ng: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let c0 = estimate_sn_threshold(&ng, 0.0).unwrap();
        assert!(c0 <= 2.0, "f=0 → threshold near the smallest NG, got {c0}");
        let c1 = estimate_sn_threshold(&ng, 1.0).unwrap();
        assert_eq!(c1, 10.0);
    }

    #[test]
    fn all_equal_ng_values() {
        let ng = vec![3.0; 50];
        // One giant spike; the window always overlaps it.
        assert_eq!(estimate_sn_threshold(&ng, 0.2), Some(3.0));
    }

    #[test]
    fn spike_below_window_is_ignored() {
        // Spike at NG=1 covering 0..10%; with f=0.5 the window is
        // [0.45, 0.55] — far above the spike.
        let mut ng = vec![1.0; 10];
        ng.extend((1..=90).map(|i| 1.0 + i as f64));
        let c = estimate_sn_threshold(&ng, 0.5).unwrap();
        assert!(c > 1.0);
    }

    #[test]
    fn heavy_value_starting_below_the_window_is_reached_by_the_fallback() {
        // 9.0 holds 80 % of the mass but its span (0.2, 1.0] starts below
        // the window [0.45, 0.55] around f = 0.5, so it is no spike; it is
        // still the answer, as D⁻¹(f + δ).
        let mut ng = vec![2.0; 20];
        ng.extend(vec![9.0; 80]);
        assert_eq!(estimate_sn_threshold(&ng, 0.5), Some(9.0), "fallback to D⁻¹(f+δ)");
    }

    #[test]
    fn clamps_out_of_range_f() {
        let ng = vec![1.0, 2.0, 3.0];
        assert!(estimate_sn_threshold(&ng, -5.0).is_some());
        assert!(estimate_sn_threshold(&ng, 5.0).is_some());
    }

    #[test]
    fn estimate_ignores_input_order() {
        // Deterministic pseudo-random NG values with heavy ties, plus the
        // shaped distributions from the other tests: the estimate is a
        // function of the NG distribution, so every order of the same
        // values must give it bit for bit.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut noisy: Vec<f64> = (0..997)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) % 40) as f64 / 4.0
            })
            .collect();
        noisy.push(f64::NAN); // total_cmp must keep NaN handling identical
        let mut planted = vec![2.0; 15];
        planted.extend(vec![3.0; 15]);
        planted.extend(vec![6.0; 55]);
        planted.extend(vec![8.0; 15]);
        let all_equal = vec![3.0; 50];
        let singleton = vec![7.5];
        for (name, ng) in [
            ("noisy", &noisy),
            ("planted", &planted),
            ("all-equal", &all_equal),
            ("singleton", &singleton),
        ] {
            let reversed: Vec<f64> = ng.iter().rev().copied().collect();
            let mut rotated = ng.to_vec();
            rotated.rotate_left(ng.len() / 3);
            for f in [0.0, 0.2, 0.5, 1.0] {
                let want = estimate_sn_threshold(ng, f);
                for (order, other) in [("reversed", &reversed), ("rotated", &rotated)] {
                    let got = estimate_sn_threshold(other, f);
                    // Bit-level equality so a shared NaN outcome counts as
                    // agreement.
                    assert_eq!(
                        want.map(f64::to_bits),
                        got.map(f64::to_bits),
                        "{name} {order}: f={f} ({want:?} vs {got:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn planted_scenario_recovers_separating_threshold() {
        // Duplicates (30%) have NG in {2, 3}; uniques concentrate at 6.
        let mut ng = Vec::new();
        ng.extend(vec![2.0; 15]);
        ng.extend(vec![3.0; 15]);
        ng.extend(vec![6.0; 55]);
        ng.extend(vec![8.0; 15]);
        let c = estimate_sn_threshold(&ng, 0.3).unwrap();
        // A threshold of 6 admits exactly the duplicate NG values (2, 3)
        // under strict comparison and rejects the unique-tuple level.
        assert_eq!(c, 6.0);
        assert!(3.0 < c);
        assert!(c <= 6.0);
    }
}
