//! Minimality of compact sets (§4.5.2).
//!
//! The union of disjoint non-trivial compact sets can itself be a compact
//! SN set, producing groups like `{v₁, v₁', v₂, v₂', v₃, v₃'}` where each
//! `{vᵢ, vᵢ'}` is a pair of duplicates. `S` is a **minimal** compact set if
//! it contains no two disjoint non-trivial compact subsets. The paper makes
//! minimality an optional post-processing check ("we would further split
//! such groups into minimal groups") and argues such mergers are rare in
//! real data; [`enforce_minimality`] implements the split.
//!
//! **Compact subsets are nested.** A compact set is the prefix set of each
//! of its members: `S = prefix(u, |S|)` for every `u ∈ S`. Two compact sets
//! that share a member `u` are therefore both prefix sets of `u`'s list, so
//! one contains the other. A group's compact proper subsets form a laminar
//! family, a forest under inclusion. A set holds two disjoint non-trivial
//! compact subsets exactly when the family strictly inside it is not a
//! chain. Its parts are then the maximal sets inside it, each split again,
//! and a singleton for every member none of them covers.
//!
//! **How the family is found.** A group of `g > 3` members records, in one
//! `g × g` rank table, where each member stands in each other member's
//! first `g − 2` neighbours: the lists every proper subset reads. A rank
//! after a neighbour outside the group is left out, since no subset of the
//! group can reach past that neighbour. `prefix(u, m)` is compact exactly
//! when every pair inside it ranks at most `m − 2`: each member's `m − 1`
//! fellow members then fill the first `m − 1` places of its list. So one
//! walk along each member's list, keeping the largest rank among the pairs
//! met, finds every compact prefix of that member. A set is recorded only
//! from its least member: a walk stops where a smaller member enters.
//!
//! **What a group costs.** The table is `g²` words and reads no more of
//! `NN_Reln` than the prefix sets do. A walk of length `L` costs `O(L²)`;
//! most walks stop at their first neighbour, and a group of `g` exact
//! copies walks only from its least member, so it costs `O(g²)` in all
//! (`O(g³)` at worst). Splitting reads the family only: the `O(g)` sets,
//! each placed in the forest once.

use fuzzydedup_metrics::{incr, Counter};

use crate::nnreln::NnReln;
use crate::partition::Partition;

/// A rank no pair inside a compact proper subset can have, and a missing
/// set or member.
const NONE: u32 = u32::MAX;

/// Buffers one post-pass reuses from group to group.
struct Scratch {
    /// Each tuple's index in the current group, or [`NONE`].
    local: Vec<u32>,
    /// `rank[i · g + j]`: where member `j` stands in member `i`'s list.
    rank: Vec<u32>,
    /// The walks that found a set, one after another, in local indices.
    walked: Vec<u32>,
    /// The compact proper subsets as `(start in walked, size)`, and the
    /// group itself last while it is split.
    sets: Vec<(usize, usize)>,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Self { local: vec![NONE; n], rank: Vec::new(), walked: Vec::new(), sets: Vec::new() }
    }

    /// Split `group` (ascending, more than 3 members) into minimal parts;
    /// a minimal group is its own one part.
    fn split(&mut self, reln: &NnReln, group: &[u32]) -> Vec<Vec<u32>> {
        for (i, &id) in group.iter().enumerate() {
            self.local[id as usize] = i as u32;
        }
        self.find_compact_subsets(reln, group);
        for &id in group {
            self.local[id as usize] = NONE;
        }
        self.split_by_family(group)
    }

    /// Fill `sets` with every non-trivial compact proper subset of `group`.
    fn find_compact_subsets(&mut self, reln: &NnReln, group: &[u32]) {
        let g = group.len();
        let reach = g - 2;
        let local = &self.local;
        let list = |i: usize| reln.entry(group[i]).neighbors.iter().take(reach);
        self.rank.clear();
        self.rank.resize(g * g, NONE);
        for i in 0..g {
            for (r, nb) in list(i).enumerate() {
                let j = local[nb.id as usize];
                if j == NONE {
                    break;
                }
                self.rank[i * g + j as usize] = r as u32;
            }
        }
        self.walked.clear();
        self.sets.clear();
        for i in 0..g {
            let start = self.walked.len();
            let found = self.sets.len();
            self.walked.push(i as u32);
            let mut max = 0;
            for nb in list(i) {
                let j = local[nb.id as usize];
                if j == NONE || (j as usize) < i {
                    break;
                }
                let j = j as usize;
                for &x in &self.walked[start..] {
                    let x = x as usize;
                    max = max.max(self.rank[x * g + j]).max(self.rank[j * g + x]);
                }
                if max == NONE {
                    break;
                }
                self.walked.push(j as u32);
                let m = self.walked.len() - start;
                if max as usize <= m - 2 {
                    self.sets.push((start, m));
                }
            }
            if self.sets.len() == found {
                self.walked.truncate(start);
            }
        }
    }

    /// The parts of `group` from the laminar family in `sets`: the group
    /// itself when the family is a chain.
    fn split_by_family(&mut self, group: &[u32]) -> Vec<Vec<u32>> {
        // Fewer than two sets are a chain: the common case, kept cheap.
        if self.sets.len() < 2 {
            return vec![group.to_vec()];
        }
        // Ascending size, so a set comes after everything inside it (two
        // sets of one size that meet are equal, and each is found once);
        // the group itself closes the family as its root.
        let g = group.len();
        self.sets.sort_unstable_by_key(|&(start, size)| (size, start));
        self.sets.push((self.walked.len(), g));
        self.walked.extend(0..g as u32);
        let root = self.sets.len() - 1;
        let members = |s: usize| {
            let (start, size) = self.sets[s];
            &self.walked[start..start + size]
        };
        // `innermost[x]`: the last set placed that holds `x`. The next set
        // to hold `x` is the smallest set around it, its parent.
        let mut parent = vec![NONE; root];
        let mut innermost = vec![NONE; g];
        for s in 0..=root {
            for &x in members(s) {
                let inner = innermost[x as usize];
                if inner != NONE {
                    parent[inner as usize] = s as u32;
                }
                innermost[x as usize] = s as u32;
            }
        }
        // A set whose family is not a chain: two children, or a child
        // whose own family is not a chain.
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); root + 1];
        let mut branching = vec![false; root + 1];
        for s in 0..=root {
            branching[s] |= children[s].len() >= 2;
            if s < root {
                let p = parent[s] as usize;
                children[p].push(s);
                branching[p] |= branching[s];
            }
        }
        let mut parts = Vec::new();
        let mut covered = vec![false; g];
        let mut stack = vec![root];
        while let Some(s) = stack.pop() {
            if !branching[s] {
                parts.push(members(s).iter().map(|&x| group[x as usize]).collect());
                continue;
            }
            for &c in &children[s] {
                members(c).iter().for_each(|&x| covered[x as usize] = true);
                stack.push(c);
            }
            for &x in members(s) {
                if !std::mem::take(&mut covered[x as usize]) {
                    parts.push(vec![group[x as usize]]);
                }
            }
        }
        parts
    }
}

/// Apply the minimality post-pass to a whole partition: every group that
/// holds two disjoint non-trivial compact subsets is split into minimal
/// ones. Counts the groups it split as [`Counter::MinimalitySplits`].
pub fn enforce_minimality(reln: &NnReln, partition: &Partition) -> Partition {
    let mut scratch = Scratch::new(reln.len());
    let mut groups: Vec<Vec<u32>> = Vec::new();
    for g in partition.groups() {
        // Two disjoint subsets of size ≥ 2 need at least 4 members.
        if g.len() <= 3 {
            groups.push(g.clone());
            continue;
        }
        let parts = scratch.split(reln, g);
        if parts.len() > 1 {
            incr(Counter::MinimalitySplits, 1);
        }
        groups.extend(parts);
    }
    Partition::from_groups(partition.n(), groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criteria::{is_compact_set, Aggregation};
    use crate::matrix::MatrixIndex;
    use crate::phase1::{compute_nn_reln, NeighborSpec};
    use crate::phase2::partition_entries;
    use crate::problem::CutSpec;
    use fuzzydedup_metrics::scoped;
    use fuzzydedup_nnindex::LookupOrder;

    /// The §4.5.2 construction: three well-separated duplicate pairs whose
    /// union still forms a compact set. Pairs at {0, 0.1}, {10, 10.1},
    /// {20, 20.1}; the whole cluster sits 10⁶ away from a far crowd, so the
    /// 6-element set is compact (members are closer to each other than to
    /// anything outside).
    fn pairs_universe() -> MatrixIndex {
        MatrixIndex::from_points_1d(&[0.0, 0.1, 10.0, 10.1, 20.0, 20.1, 1e6, 1e6 + 1.0])
    }

    fn reln() -> NnReln {
        compute_nn_reln(&pairs_universe(), NeighborSpec::TopK(7), LookupOrder::Sequential, 2.0).0
    }

    /// The parts of one group, sorted.
    fn parts_of(reln: &NnReln, group: &[u32]) -> Vec<Vec<u32>> {
        let mut parts = Scratch::new(reln.len()).split(reln, group);
        parts.iter_mut().for_each(|p| p.sort_unstable());
        parts.sort();
        parts
    }

    #[test]
    fn union_of_pairs_is_compact_but_not_minimal() {
        let r = reln();
        let six = vec![0, 1, 2, 3, 4, 5];
        assert!(is_compact_set(&r, &six), "the 6-set is compact");
        assert_eq!(parts_of(&r, &six), vec![vec![0, 1], vec![2, 3], vec![4, 5]]);
        // Four of the six hold two of the pairs, which are disjoint.
        assert_eq!(parts_of(&r, &[0, 1, 2, 3]), vec![vec![0, 1], vec![2, 3]]);
        // A pair and two loose members hold one compact subset only.
        assert_eq!(parts_of(&r, &[0, 1, 2, 4]), vec![vec![0, 1, 2, 4]]);
    }

    #[test]
    fn partition_post_pass_splits_one_group() {
        let r = reln();
        // With a lenient c and size cut 6, DE merges the six tuples (the
        // §4.5.2 outcome)...
        let merged = partition_entries(&r, CutSpec::Size(6), Aggregation::Max, 100.0);
        assert!(merged.are_together(0, 5));
        // ...and the post-pass splits them back into minimal pairs.
        let (minimal, tally) = scoped(|| enforce_minimality(&r, &merged));
        assert_eq!(
            minimal,
            Partition::from_groups(8, vec![vec![0, 1], vec![2, 3], vec![4, 5], vec![6, 7]])
        );
        assert_eq!(tally.get(Counter::MinimalitySplits), 1, "one group was split");
    }

    #[test]
    fn minimal_groups_pass_through_unchanged() {
        let r = reln();
        let p = Partition::from_groups(8, vec![vec![0, 1], vec![2, 3]]);
        let (same, tally) = scoped(|| enforce_minimality(&r, &p));
        assert_eq!(same, p);
        assert_eq!(tally.get(Counter::MinimalitySplits), 0);
    }

    #[test]
    fn genuine_sextet_is_not_split() {
        // Six mutually-equidistant-ish points forming one true cluster: no
        // disjoint compact subsets exist because every pair's nearest
        // neighbors interleave.
        let idx = MatrixIndex::from_fn(7, |a, b| {
            if a == 6 || b == 6 {
                1000.0
            } else {
                1.0 + 0.001 * (a + b) as f64
            }
        });
        let r = compute_nn_reln(&idx, NeighborSpec::TopK(6), LookupOrder::Sequential, 2.0).0;
        let six = vec![0, 1, 2, 3, 4, 5];
        assert_eq!(parts_of(&r, &six), vec![six]);
    }

    /// 128 exact copies beside three nested pairs: `{0, 1}` inside
    /// `{0, 1, 2, 3}` inside `{0, …, 5}`, each level's new pair at ten times
    /// the last level's span. The copies' family is a chain, so they stay
    /// whole; the pairs' family branches at every level, so they come
    /// apart into pairs.
    #[test]
    fn a_class_of_128_copies_stays_whole_beside_nested_pairs_that_split() {
        let mut points = vec![0.0, 0.1, 1.0, 1.1, 10.0, 10.1];
        points.extend(std::iter::repeat_n(1e6, 128));
        let n = points.len();
        let idx = MatrixIndex::from_points_1d(&points);
        let r = compute_nn_reln(&idx, NeighborSpec::TopK(n - 1), LookupOrder::Sequential, 2.0).0;
        let copies: Vec<u32> = (6..n as u32).collect();
        let merged = Partition::from_groups(n, vec![(0..6).collect(), copies.clone()]);
        let (minimal, tally) = scoped(|| enforce_minimality(&r, &merged));
        assert_eq!(
            minimal,
            Partition::from_groups(n, vec![vec![0, 1], vec![2, 3], vec![4, 5], copies])
        );
        assert_eq!(tally.get(Counter::MinimalitySplits), 1);
    }
}
