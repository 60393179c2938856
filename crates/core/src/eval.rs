//! Pairwise precision / recall evaluation (§5, "Evaluation Metrics").
//!
//! "Recall is the fraction of true pairs of duplicate tuples identified by
//! an algorithm. And, precision is the fraction of tuple pairs an algorithm
//! returns which are truly duplicates."
//!
//! Gold truth is a cluster labelling: `gold[i]` is the cluster id of tuple
//! `i`; tuples sharing a label are duplicates. Pair counts are computed
//! from the contingency table (never materializing the pair sets), so
//! evaluation is `O(n)`.

use std::collections::HashMap;

use crate::partition::Partition;

/// Precision/recall of a predicted partition against gold labels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionRecall {
    /// Fraction of predicted pairs that are true duplicate pairs
    /// (1 when nothing is predicted — the conventional "vacuous
    /// precision").
    pub precision: f64,
    /// Fraction of true duplicate pairs that were predicted.
    pub recall: f64,
    /// Number of predicted pairs.
    pub predicted_pairs: u64,
    /// Number of true duplicate pairs.
    pub true_pairs: u64,
    /// Number of correctly predicted pairs.
    pub correct_pairs: u64,
}

impl PrecisionRecall {
    /// Harmonic mean of precision and recall (0 when both are 0).
    pub fn f1(&self) -> f64 {
        let (p, r) = (self.precision, self.recall);
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

fn pairs_of(count: u64) -> u64 {
    count * count.saturating_sub(1) / 2
}

/// Evaluate a predicted partition against gold cluster labels.
///
/// # Panics
/// Panics if `gold.len() != partition.n()` (mismatched relations are a
/// harness bug).
pub fn evaluate(partition: &Partition, gold: &[usize]) -> PrecisionRecall {
    assert_eq!(gold.len(), partition.n(), "gold labels must cover the relation");

    // True pairs: per gold cluster.
    let mut gold_sizes: HashMap<usize, u64> = HashMap::new();
    for &g in gold {
        *gold_sizes.entry(g).or_insert(0) += 1;
    }
    let true_pairs: u64 = gold_sizes.values().map(|&c| pairs_of(c)).sum();

    // Predicted pairs: per predicted group.
    let predicted_pairs = partition.num_duplicate_pairs();

    // Correct pairs: contingency (group, gold) cells.
    let mut cells: HashMap<(usize, usize), u64> = HashMap::new();
    for id in 0..partition.n() as u32 {
        let cell = (partition.group_index_of(id), gold[id as usize]);
        *cells.entry(cell).or_insert(0) += 1;
    }
    let correct_pairs: u64 = cells.values().map(|&c| pairs_of(c)).sum();

    let precision =
        if predicted_pairs == 0 { 1.0 } else { correct_pairs as f64 / predicted_pairs as f64 };
    let recall = if true_pairs == 0 { 1.0 } else { correct_pairs as f64 / true_pairs as f64 };
    PrecisionRecall { precision, recall, predicted_pairs, true_pairs, correct_pairs }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction() {
        let gold = vec![0, 0, 1, 1, 2];
        let p = Partition::from_groups(5, vec![vec![0, 1], vec![2, 3]]);
        let pr = evaluate(&p, &gold);
        assert_eq!(pr.precision, 1.0);
        assert_eq!(pr.recall, 1.0);
        assert_eq!(pr.f1(), 1.0);
        assert_eq!(pr.true_pairs, 2);
        assert_eq!(pr.predicted_pairs, 2);
    }

    #[test]
    fn empty_prediction_has_vacuous_precision() {
        let gold = vec![0, 0, 1];
        let pr = evaluate(&Partition::singletons(3), &gold);
        assert_eq!(pr.precision, 1.0);
        assert_eq!(pr.recall, 0.0);
        assert_eq!(pr.f1(), 0.0);
    }

    #[test]
    fn over_merging_hurts_precision() {
        let gold = vec![0, 0, 1, 1];
        let p = Partition::from_groups(4, vec![vec![0, 1, 2, 3]]);
        let pr = evaluate(&p, &gold);
        // 6 predicted pairs, 2 correct.
        assert_eq!(pr.predicted_pairs, 6);
        assert_eq!(pr.correct_pairs, 2);
        assert!((pr.precision - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(pr.recall, 1.0);
    }

    #[test]
    fn under_merging_hurts_recall() {
        let gold = vec![0, 0, 0];
        let p = Partition::from_groups(3, vec![vec![0, 1]]);
        let pr = evaluate(&p, &gold);
        assert_eq!(pr.precision, 1.0);
        assert!((pr.recall - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn wrong_pairs_zero_both() {
        let gold = vec![0, 1, 0, 1];
        let p = Partition::from_groups(4, vec![vec![0, 1], vec![2, 3]]);
        let pr = evaluate(&p, &gold);
        assert_eq!(pr.correct_pairs, 0);
        assert_eq!(pr.precision, 0.0);
        assert_eq!(pr.recall, 0.0);
        assert_eq!(pr.f1(), 0.0);
    }

    #[test]
    fn all_unique_gold_with_no_predictions() {
        let gold = vec![0, 1, 2, 3];
        let pr = evaluate(&Partition::singletons(4), &gold);
        assert_eq!(pr.precision, 1.0);
        assert_eq!(pr.recall, 1.0, "vacuous recall when no true pairs exist");
    }

    #[test]
    fn partial_overlap_counts() {
        // Gold: {0,1,2} and {3,4}. Predicted: {0,1} and {2,3}.
        let gold = vec![0, 0, 0, 1, 1];
        let p = Partition::from_groups(5, vec![vec![0, 1], vec![2, 3]]);
        let pr = evaluate(&p, &gold);
        assert_eq!(pr.true_pairs, 4);
        assert_eq!(pr.predicted_pairs, 2);
        assert_eq!(pr.correct_pairs, 1); // only (0,1)
        assert!((pr.precision - 0.5).abs() < 1e-12);
        assert!((pr.recall - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "gold labels")]
    fn mismatched_lengths_panic() {
        evaluate(&Partition::singletons(3), &[0, 1]);
    }
}
