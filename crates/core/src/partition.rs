//! Partitions of a relation into groups of duplicates.

use std::collections::HashMap;

/// A partition of tuple ids `0..n` into disjoint groups. Groups are stored
/// in canonical form: each group sorted ascending, groups ordered by their
/// minimum id, singletons included. Canonical form makes partitions
/// directly comparable — which the uniqueness property relies on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    n: usize,
    groups: Vec<Vec<u32>>,
    group_of: Vec<u32>,
}

impl Partition {
    /// Build from groups (possibly missing singletons, possibly unsorted).
    /// Ids not covered by any group become singletons.
    ///
    /// # Panics
    /// Panics if a group references an id `>= n` or if two groups overlap —
    /// both indicate a bug in the partitioning algorithm, not bad data.
    pub fn from_groups(n: usize, groups: impl IntoIterator<Item = Vec<u32>>) -> Self {
        // `u32::MAX` marks ids no supplied group covers (future
        // singletons); covered ids get their final index once canonical
        // order is known.
        const FREE: u32 = u32::MAX;
        let mut group_of: Vec<u32> = vec![FREE; n];
        let mut supplied: Vec<Vec<u32>> = Vec::new();
        for mut g in groups {
            g.sort_unstable();
            g.dedup();
            if g.is_empty() {
                continue;
            }
            for &id in &g {
                assert!((id as usize) < n, "group references id {id} >= n={n}");
                assert!(group_of[id as usize] == FREE, "id {id} appears in more than one group");
                group_of[id as usize] = 0; // provisional; remapped below
            }
            supplied.push(g);
        }
        // Canonical order: by minimum id. Walk ids ascending, merging the
        // sorted supplied groups with the uncovered ids' singletons.
        supplied.sort_unstable_by_key(|g| g[0]);
        let singles = group_of.iter().filter(|&&gi| gi == FREE).count();
        let mut canonical: Vec<Vec<u32>> = Vec::with_capacity(supplied.len() + singles);
        let mut next = supplied.into_iter().peekable();
        for id in 0..n as u32 {
            if group_of[id as usize] == FREE {
                group_of[id as usize] = canonical.len() as u32;
                canonical.push(vec![id]);
            } else if next.peek().is_some_and(|g| g[0] == id) {
                let g = next.next().expect("peeked");
                let gi = canonical.len() as u32;
                for &u in &g {
                    group_of[u as usize] = gi;
                }
                canonical.push(g);
            }
            // Non-minimum members of supplied groups take neither branch:
            // their group was already emitted at its minimum id.
        }
        debug_assert!(next.peek().is_none(), "every supplied group starts at some id");
        Self { n, groups: canonical, group_of }
    }

    /// The all-singletons partition.
    pub fn singletons(n: usize) -> Self {
        Self::from_groups(n, std::iter::empty())
    }

    /// Number of tuples.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The groups in canonical order (singletons included).
    pub fn groups(&self) -> &[Vec<u32>] {
        &self.groups
    }

    /// Groups with at least two members (the actual duplicate groups).
    pub fn duplicate_groups(&self) -> impl Iterator<Item = &Vec<u32>> {
        self.groups.iter().filter(|g| g.len() > 1)
    }

    /// Index of the group containing `id`.
    pub fn group_index_of(&self, id: u32) -> usize {
        self.group_of[id as usize] as usize
    }

    /// The group containing `id`.
    pub fn group_of(&self, id: u32) -> &[u32] {
        &self.groups[self.group_index_of(id)]
    }

    /// Whether two ids are in the same group.
    pub fn are_together(&self, a: u32, b: u32) -> bool {
        self.group_of[a as usize] == self.group_of[b as usize]
    }

    /// All unordered pairs `(a, b)`, `a < b`, placed in the same group.
    pub fn duplicate_pairs(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for g in self.duplicate_groups() {
            for i in 0..g.len() {
                for j in i + 1..g.len() {
                    out.push((g[i], g[j]));
                }
            }
        }
        out
    }

    /// Number of same-group pairs (without materializing them).
    pub fn num_duplicate_pairs(&self) -> u64 {
        self.duplicate_groups().map(|g| (g.len() as u64 * (g.len() as u64 - 1)) / 2).sum()
    }

    /// Number of groups (including singletons).
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Size histogram: map from group size to count, useful for the
    /// "most groups of duplicates are of size 2 or 3" observations.
    pub fn size_histogram(&self) -> HashMap<usize, usize> {
        let mut h = HashMap::new();
        for g in &self.groups {
            *h.entry(g.len()).or_insert(0) += 1;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_form_and_singletons() {
        let p = Partition::from_groups(6, vec![vec![4, 2], vec![5, 0]]);
        assert_eq!(p.groups(), &[vec![0, 5], vec![1], vec![2, 4], vec![3]]);
        assert_eq!(p.num_groups(), 4);
        assert!(p.are_together(2, 4));
        assert!(!p.are_together(0, 1));
        assert_eq!(p.group_of(5), &[0, 5]);
    }

    #[test]
    fn equality_is_structural() {
        let a = Partition::from_groups(4, vec![vec![1, 0], vec![3, 2]]);
        let b = Partition::from_groups(4, vec![vec![2, 3], vec![0, 1]]);
        assert_eq!(a, b);
        let c = Partition::from_groups(4, vec![vec![0, 2]]);
        assert_ne!(a, c);
    }

    #[test]
    fn duplicate_pairs_enumeration() {
        let p = Partition::from_groups(5, vec![vec![0, 1, 2]]);
        let mut pairs = p.duplicate_pairs();
        pairs.sort();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (1, 2)]);
        assert_eq!(p.num_duplicate_pairs(), 3);
        assert_eq!(Partition::singletons(5).num_duplicate_pairs(), 0);
    }

    #[test]
    #[should_panic(expected = "more than one group")]
    fn overlapping_groups_panic() {
        Partition::from_groups(3, vec![vec![0, 1], vec![1, 2]]);
    }

    #[test]
    #[should_panic(expected = ">= n")]
    fn out_of_range_panics() {
        Partition::from_groups(2, vec![vec![0, 5]]);
    }

    #[test]
    fn size_histogram_counts() {
        let p = Partition::from_groups(6, vec![vec![0, 1], vec![2, 3]]);
        let h = p.size_histogram();
        assert_eq!(h[&2], 2);
        assert_eq!(h[&1], 2);
    }

    #[test]
    fn empty_relation() {
        let p = Partition::singletons(0);
        assert_eq!(p.num_groups(), 0);
        assert!(p.duplicate_pairs().is_empty());
    }

    #[test]
    fn duplicate_ids_within_group_are_deduped() {
        let p = Partition::from_groups(3, vec![vec![1, 1, 0]]);
        assert_eq!(p.groups(), &[vec![0, 1], vec![2]]);
    }
}
