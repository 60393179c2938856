//! The global-threshold baseline: single-linkage.
//!
//! The paper compares against "a standard thresholding strategy (denoted
//! thr) based on single linkage clustering": induce the threshold graph
//! from `NN_Reln` (an edge between tuples at distance below θ) and return
//! each maximal connected component as a set of duplicates.

use crate::components::UnionFind;
use crate::nnreln::NnReln;
use crate::partition::Partition;

/// Single-linkage with a global threshold (the `thr` baseline): connected
/// components of the threshold graph induced by the NN lists. An edge
/// exists between `v` and `u` iff `u` appears in `v`'s list (or vice versa)
/// at distance `< theta`.
pub fn single_linkage(reln: &NnReln, theta: f64) -> Partition {
    let n = reln.len();
    let mut uf = UnionFind::new(n);
    for e in reln.entries() {
        for nb in &e.neighbors {
            if nb.dist < theta {
                uf.union(e.id, nb.id);
            }
        }
    }
    Partition::from_groups(n, uf.components())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::MatrixIndex;
    use crate::phase1::{compute_nn_reln, NeighborSpec};
    use fuzzydedup_nnindex::LookupOrder;

    /// A chain 0—1—2 (consecutive distance 1) and an outlier 3 far away.
    fn chain() -> NnReln {
        let idx = MatrixIndex::from_points_1d(&[0.0, 1.0, 2.0, 50.0]);
        compute_nn_reln(&idx, NeighborSpec::TopK(3), LookupOrder::Sequential, 2.0).0
    }

    #[test]
    fn single_linkage_chains_transitively() {
        let reln = chain();
        let p = single_linkage(&reln, 1.5);
        // d(0,2) = 2 > 1.5 but the chain connects them — the false-positive
        // mode the paper criticizes.
        assert!(p.are_together(0, 2));
        assert!(p.are_together(0, 1));
        assert!(!p.are_together(0, 3));
        assert_eq!(p.num_groups(), 2);
    }

    #[test]
    fn zero_threshold_yields_singletons() {
        let reln = chain();
        assert_eq!(single_linkage(&reln, 0.0), Partition::singletons(4));
    }

    #[test]
    fn huge_threshold_merges_everything() {
        let reln = chain();
        let p = single_linkage(&reln, 1000.0);
        assert_eq!(p.num_groups(), 1);
    }

    #[test]
    fn threshold_is_strict() {
        let idx = MatrixIndex::from_points_1d(&[0.0, 1.0]);
        let reln = compute_nn_reln(&idx, NeighborSpec::TopK(1), LookupOrder::Sequential, 2.0).0;
        assert!(!single_linkage(&reln, 1.0).are_together(0, 1));
        assert!(single_linkage(&reln, 1.0 + 1e-9).are_together(0, 1));
    }

    #[test]
    fn empty_relation() {
        let reln = NnReln::new(vec![]);
        assert_eq!(single_linkage(&reln, 0.5).num_groups(), 0);
    }

    #[test]
    fn asymmetric_list_membership_still_links() {
        // Truncated top-K lists may record the edge on only one side; the
        // union must still happen.
        let idx = MatrixIndex::from_points_1d(&[0.0, 1.0, 1.9]);
        let reln = compute_nn_reln(&idx, NeighborSpec::TopK(1), LookupOrder::Sequential, 2.0).0;
        // 2's only listed neighbor is 1 (d 0.9); 1's is 0 (d 1.0)... both
        // edges below 1.5 chain all three together.
        let p = single_linkage(&reln, 1.5);
        assert!(p.are_together(0, 2));
    }
}
