//! Numeric demonstration relations (§3's integer example).

/// The §3 example instance: `{1, 2, 4, 20, 22, 30, 32}` with
/// `d(a, b) = |a − b|`. The intuitive partition (which DE with a cut
/// recovers) is `{1, 2, 4}, {20, 22}, {30, 32}`.
pub fn paper_integers() -> Vec<f64> {
    vec![1.0, 2.0, 4.0, 20.0, 22.0, 30.0, 32.0]
}

/// The gold grouping of [`paper_integers`] as index groups.
pub fn paper_integers_gold() -> Vec<Vec<u32>> {
    vec![vec![0, 1, 2], vec![3, 4], vec![5, 6]]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_is_the_papers() {
        let p = paper_integers();
        assert_eq!(p.len(), 7);
        assert_eq!(p[3], 20.0);
        let gold = paper_integers_gold();
        assert_eq!(gold.iter().map(Vec::len).sum::<usize>(), 7);
    }
}
