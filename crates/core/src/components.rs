//! Connected components of the CS-pair graph, and cost-balanced sharding
//! of components over worker threads.
//!
//! Phase 2 only ever emits groups that are *cliques* in the mutual-
//! neighbor ("CS-pair") graph: a compact set `S` requires every member's
//! `|S|`-nearest-neighbor set to equal `S`, so any two members are mutual
//! neighbors. Every candidate group therefore lies inside one connected
//! component of that graph, and the greedy partitioner's decisions in one
//! component never depend on another component's state — the basis of the
//! component-parallel Phase 2 (`DESIGN.md` §7.4). This module holds the
//! shared machinery: a union-find over pair edges, component extraction in
//! canonical (min-id) order, and a deterministic greedy cost balancer that
//! assigns components to a fixed number of worker shards.

/// Union-find (disjoint-set forest) over ids `0..n`, with union by rank
/// and path halving.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self { parent: (0..n as u32).collect(), rank: vec![0; n] }
    }

    /// Representative of `x`'s set (path-halving).
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grandparent = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grandparent;
            x = grandparent;
        }
        x
    }

    /// Merge the sets containing `a` and `b`.
    pub fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        match self.rank[ra as usize].cmp(&self.rank[rb as usize]) {
            std::cmp::Ordering::Less => self.parent[ra as usize] = rb,
            std::cmp::Ordering::Greater => self.parent[rb as usize] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb as usize] = ra;
                self.rank[ra as usize] += 1;
            }
        }
    }

    /// Extract all components in canonical order: each component's members
    /// ascending, components ordered by their minimum id. Singletons are
    /// included (every id belongs to exactly one component).
    pub fn components(mut self) -> Vec<Vec<u32>> {
        let n = self.parent.len();
        // First pass: slot index per root, in min-id order (ids ascend, so
        // a root's first appearance is at its component's minimum id).
        let mut slot_of_root: Vec<u32> = vec![u32::MAX; n];
        let mut components: Vec<Vec<u32>> = Vec::new();
        for id in 0..n as u32 {
            let root = self.find(id) as usize;
            let slot = if slot_of_root[root] == u32::MAX {
                let s = components.len() as u32;
                slot_of_root[root] = s;
                components.push(Vec::new());
                s
            } else {
                slot_of_root[root]
            };
            components[slot as usize].push(id);
        }
        components
    }
}

/// Deterministically assign `components` (given per-component costs) to
/// `shards` buckets, balancing total cost: longest-processing-time greedy —
/// components in descending cost order (ties broken by index), each placed
/// on the currently lightest shard (ties broken by shard index). Returns
/// one `Vec` of component indexes per shard; empty shards are possible
/// when there are fewer components than shards.
pub fn balance_components(costs: &[u64], shards: usize) -> Vec<Vec<usize>> {
    let shards = shards.max(1);
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(costs[i]), i));
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); shards];
    let mut loads: Vec<u64> = vec![0; shards];
    for i in order {
        let lightest = (0..shards).min_by_key(|&s| (loads[s], s)).expect("shards >= 1");
        loads[lightest] += costs[i].max(1);
        buckets[lightest].push(i);
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_when_no_unions() {
        let uf = UnionFind::new(4);
        assert_eq!(uf.components(), vec![vec![0], vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn unions_merge_and_order_is_canonical() {
        let mut uf = UnionFind::new(6);
        uf.union(4, 1);
        uf.union(3, 5);
        // A duplicate edge is a no-op.
        uf.union(1, 4);
        // Components ordered by min id, members ascending.
        assert_eq!(uf.components(), vec![vec![0], vec![1, 4], vec![2], vec![3, 5]]);
    }

    #[test]
    fn chain_collapses_to_one_component() {
        let mut uf = UnionFind::new(5);
        for i in 0..4 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.components(), vec![vec![0, 1, 2, 3, 4]]);
    }

    #[test]
    fn empty_universe() {
        assert!(UnionFind::new(0).components().is_empty());
    }

    #[test]
    fn balance_is_deterministic_and_covers_all() {
        let costs = [10, 1, 7, 7, 2, 30];
        let shards = balance_components(&costs, 3);
        assert_eq!(shards.len(), 3);
        let mut seen: Vec<usize> = shards.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        // LPT: 30 goes first to shard 0, 10 to shard 1, 7 to shard 2,
        // the second 7 to shard 1 or 2 (lightest), etc. Re-running is
        // byte-identical.
        assert_eq!(shards, balance_components(&costs, 3));
        assert_eq!(shards[0][0], 5, "heaviest component starts shard 0");
    }

    #[test]
    fn balance_with_more_shards_than_components() {
        let shards = balance_components(&[3, 1], 8);
        assert_eq!(shards.len(), 8);
        assert_eq!(shards.iter().filter(|b| !b.is_empty()).count(), 2);
    }

    #[test]
    fn balance_with_zero_shards_clamps_to_one() {
        let shards = balance_components(&[5, 5], 0);
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].len(), 2);
    }
}
