//! Medians and nearest-rank percentiles over the samples of one run.

/// Median of the samples (mean of the middle two for an even count);
/// 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The value reported for a timing sampled several times in one run: the
/// fastest sample. Every sample times the same work, and what disturbs a
/// sample on a shared machine only ever slows it, so the fastest is the one
/// the machine disturbed least (`README.md`, "How a run reports a timing").
pub fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Nearest-rank quantile `q` of nanosecond samples, in microseconds;
/// 0 for no samples.
pub fn percentile_us(samples_ns: &[u64], q: f64) -> f64 {
    if samples_ns.is_empty() {
        return 0.0;
    }
    let mut sorted = samples_ns.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1e3
}

/// `numerator / denominator`, or 0 when there is nothing to divide by.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let ns: Vec<u64> = (1..=100).map(|v| v * 1000).collect();
        assert_eq!(percentile_us(&ns, 0.50), 50.0);
        assert_eq!(percentile_us(&ns, 0.90), 90.0);
        assert_eq!(percentile_us(&[], 0.5), 0.0);
        assert_eq!(best(&[3.0, 1.5, 2.0]), 1.5);
    }
}
