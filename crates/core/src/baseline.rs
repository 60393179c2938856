//! The global-threshold baseline: single-linkage.
//!
//! The paper compares against "a standard thresholding strategy (denoted
//! thr) based on single linkage clustering": induce the threshold graph
//! from `NN_Reln` (an edge between tuples at distance below θ) and return
//! each maximal connected component as a set of duplicates.

use crate::nnreln::NnReln;
use crate::partition::Partition;

/// Union-find with path halving and union by size.
struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self { parent: (0..n as u32).collect(), size: vec![1; n] }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grandparent = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grandparent;
            x = grandparent;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
    }
}

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
    let mut groups: Vec<Vec<u32>> = vec![Vec::new(); n];
    for id in 0..n as u32 {
        let root = uf.find(id);
        groups[root as usize].push(id);
    }
    Partition::from_groups(n, groups.into_iter().filter(|g| !g.is_empty()))
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
