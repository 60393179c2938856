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
//!   the `f`-percentile (`y ∈ [f − δ, f + δ]`, default `δ = 0.05`) where
//!   the distribution *spikes* — where the mass concentrated at a single
//!   NG value exceeds a spike threshold (default `0.1`, the paper's
//!   `D'(x) > 0.1`);
//! * if no spike exists in the window, fall back to `D⁻¹(f + δ)`.
//!
//! The returned value is used as a strict upper bound (`AGG < c`), so we
//! return the spike's NG value itself: groups must be strictly sparser
//! than the spike.

/// Tuning knobs of the heuristic (the paper: "the parameters for defining
/// the vicinity of f ... and the spike may be guided by a user").
#[derive(Debug, Clone, Copy)]
pub struct SnThresholdConfig {
    /// Half-width δ of the percentile window around `f`.
    pub window: f64,
    /// Minimum probability mass at one NG value to count as a spike.
    pub spike_mass: f64,
}

impl Default for SnThresholdConfig {
    fn default() -> Self {
        Self { window: 0.05, spike_mass: 0.1 }
    }
}

/// Estimate the SN threshold `c` from NG values and an estimated duplicate
/// fraction `f ∈ [0, 1]`. Returns `None` for an empty relation.
pub fn estimate_sn_threshold(ng_values: &[f64], f: f64) -> Option<f64> {
    estimate_sn_threshold_with(ng_values, f, SnThresholdConfig::default())
}

/// [`estimate_sn_threshold`] with explicit tuning parameters.
pub fn estimate_sn_threshold_with(
    ng_values: &[f64],
    f: f64,
    config: SnThresholdConfig,
) -> Option<f64> {
    if ng_values.is_empty() {
        return None;
    }
    let n = ng_values.len();
    let mut sorted: Vec<f64> = ng_values.to_vec();
    sorted.sort_by(f64::total_cmp);

    // Distinct values with their counts, ascending.
    let mut distinct: Vec<(f64, u64)> = Vec::new();
    for &v in &sorted {
        push_run(&mut distinct, v, 1);
    }
    spike_walk(&distinct, n, f, config)
}

/// Parallel form of [`estimate_sn_threshold`]: the NG-distribution scan
/// (sort + distinct-run counting over the whole relation) is sharded over
/// `n_threads` scoped worker threads (`0` = one per CPU) and the per-shard
/// sorted runs are merged before the same spike walk. The result is
/// identical to the sequential estimator for every input — only the
/// distribution construction parallelizes; the walk itself is O(distinct).
pub fn estimate_sn_threshold_parallel(ng_values: &[f64], f: f64, n_threads: usize) -> Option<f64> {
    estimate_sn_threshold_parallel_with(ng_values, f, n_threads, SnThresholdConfig::default())
}

/// [`estimate_sn_threshold_parallel`] with explicit tuning parameters.
pub fn estimate_sn_threshold_parallel_with(
    ng_values: &[f64],
    f: f64,
    n_threads: usize,
    config: SnThresholdConfig,
) -> Option<f64> {
    if ng_values.is_empty() {
        return None;
    }
    let n = ng_values.len();
    let threads = crate::parallel::resolve_threads(n_threads, n);
    let chunk_size = n.div_ceil(threads).max(1);

    // Shard: each worker sorts its slice and collapses it to distinct
    // (value, count) runs. It reaches no `incr`: no metrics tally to fold.
    let mut shard_runs: Vec<Vec<(f64, u64)>> = vec![Vec::new(); threads];
    std::thread::scope(|scope| {
        for (chunk, out) in ng_values.chunks(chunk_size).zip(shard_runs.iter_mut()) {
            scope.spawn(move || {
                let mut sorted: Vec<f64> = chunk.to_vec();
                sorted.sort_by(f64::total_cmp);
                let mut runs: Vec<(f64, u64)> = Vec::new();
                for &v in &sorted {
                    push_run(&mut runs, v, 1);
                }
                *out = runs;
            });
        }
    });

    // K-way merge of the sorted per-shard run lists into one global
    // distinct-count list (deterministic: order by value via total_cmp).
    let mut cursors: Vec<usize> = vec![0; shard_runs.len()];
    let mut distinct: Vec<(f64, u64)> = Vec::new();
    loop {
        let mut best: Option<(usize, f64)> = None;
        for (s, runs) in shard_runs.iter().enumerate() {
            if let Some(&(v, _)) = runs.get(cursors[s]) {
                if best.is_none_or(|(_, bv)| v.total_cmp(&bv) == std::cmp::Ordering::Less) {
                    best = Some((s, v));
                }
            }
        }
        let Some((s, _)) = best else { break };
        let (v, count) = shard_runs[s][cursors[s]];
        cursors[s] += 1;
        push_run(&mut distinct, v, count);
    }
    spike_walk(&distinct, n, f, config)
}

/// Append `count` occurrences of `v` to an ascending run list, merging
/// with the last run when the value repeats.
fn push_run(runs: &mut Vec<(f64, u64)>, v: f64, count: u64) {
    match runs.last_mut() {
        Some((last, c)) if *last == v => *c += count,
        _ => runs.push((v, count)),
    }
}

/// The §4.4 spike heuristic over an ascending distinct-count distribution
/// of `n` total NG values. Shared by the sequential and parallel
/// estimators so they cannot diverge.
fn spike_walk(distinct: &[(f64, u64)], n: usize, f: f64, config: SnThresholdConfig) -> Option<f64> {
    let f = f.clamp(0.0, 1.0);
    // Percentile position of each distinct value: its mass occupies the
    // span `(below, below + mass]` of the cumulative distribution.
    let mut cumulative = 0.0;
    let lo = (f - config.window).max(0.0);
    let hi = (f + config.window).min(1.0);
    let mut fallback = None;
    for &(value, count) in distinct {
        let mass = count as f64 / n as f64;
        let below = cumulative;
        cumulative += mass;
        // A spike marks where the bulk of *unique* tuples begins: its span
        // must *start* inside the window (a heavy value starting below the
        // window is the duplicates' own NG level, not the boundary).
        if (lo..=hi).contains(&below) && mass >= config.spike_mass {
            return Some(value);
        }
        // Track D⁻¹(f + δ): the first value whose cumulative mass reaches
        // the upper window edge.
        if fallback.is_none() && cumulative >= hi {
            fallback = Some(value);
        }
    }
    fallback.or_else(|| distinct.last().map(|&(v, _)| v))
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
    fn custom_config_widens_window() {
        let mut ng = vec![2.0; 20];
        ng.extend(vec![9.0; 80]);
        // Narrow window around f=0.5 misses the spike at cumulative 1.0?
        // No: 9.0 spans (0.2, 1.0], overlapping any window. Use a spike
        // mass too high to trigger instead.
        let cfg = SnThresholdConfig { window: 0.05, spike_mass: 0.9 };
        let c = estimate_sn_threshold_with(&ng, 0.5, cfg).unwrap();
        assert_eq!(c, 9.0, "fallback to D⁻¹(f+δ)");
    }

    #[test]
    fn clamps_out_of_range_f() {
        let ng = vec![1.0, 2.0, 3.0];
        assert!(estimate_sn_threshold(&ng, -5.0).is_some());
        assert!(estimate_sn_threshold(&ng, 5.0).is_some());
    }

    #[test]
    fn parallel_estimator_matches_sequential() {
        // Deterministic pseudo-random NG values with heavy ties, plus the
        // shaped distributions from the other tests: every thread count
        // must reproduce the sequential estimate exactly.
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
            for f in [0.0, 0.2, 0.5, 1.0] {
                let seq = estimate_sn_threshold(ng, f);
                for threads in [1, 2, 4, 0] {
                    let par = estimate_sn_threshold_parallel(ng, f, threads);
                    // Bit-level equality so a shared NaN outcome counts as
                    // agreement.
                    assert_eq!(
                        seq.map(f64::to_bits),
                        par.map(f64::to_bits),
                        "{name}: f={f} threads={threads} ({seq:?} vs {par:?})"
                    );
                }
            }
        }
        assert_eq!(estimate_sn_threshold_parallel(&[], 0.2, 4), None);
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
