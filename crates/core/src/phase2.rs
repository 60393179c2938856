//! Phase 2 — partitioning the relation into compact SN groups (§4.2).
//!
//! Four entry points, three of them equivalent implementations of the
//! real algorithm:
//!
//! * [`partition_entries`] — the direct in-memory form: process tuples in
//!   increasing id order; for each unassigned tuple `v`, find the largest
//!   non-trivial compact SN set anchored at `v` (i.e. whose minimum id is
//!   `v`) satisfying the cut specification, emit it, and mark its members.
//!
//! * [`partition_entries_ablation`] — the same loop with either criterion
//!   switchable off (`exp_ablation`); `partition_entries` is it with both
//!   on.
//!
//! * [`partition_entries_parallel`] — the component-parallel form: every
//!   emitted group is a clique in the mutual-neighbor (CS-pair) graph, so
//!   the greedy partitioner's decisions decompose over that graph's
//!   connected components. Components are extracted with a union-find,
//!   cost-balanced over scoped worker threads, processed independently
//!   (each worker runs the identical greedy over its components' tuples in
//!   ascending id order), and the collected groups are canonicalized by
//!   [`Partition::from_groups`] — the output is bit-for-bit identical to
//!   [`partition_entries`] for every cut/aggregation (`DESIGN.md` §7.4).
//!
//! * [`partition_via_tables`] — the paper's SQL-shaped form running on the
//!   `relation` substrate: unnest the NN lists, equi-join the unnested
//!   relation with itself to find *mutual* neighbor pairs (`ID < ID2`, each
//!   in the other's list), compute the `[CS2..CSK]` prefix-equality flags
//!   into a `CSPairs` table, sort it by `ID` (the CS-group query), extract
//!   the connected components of the `CSPairs` graph with the same
//!   union-find as the parallel path, and process each component under its
//!   minimum id. The paper's observation makes this sound: "each compact
//!   SN set G ... is grouped under v₁ in the result of CS-group query",
//!   because set equality is transitive.
//!
//! `tests` (and the `phase2_equivalence` property suite) assert that the
//! sequential, component-parallel and relational paths produce identical
//! partitions.

use std::collections::HashMap;
use std::sync::Arc;

use fuzzydedup_metrics::{incr, Counter};
use fuzzydedup_relation::{
    external_sort, group_sorted, hash_join, Column, ColumnType, Neighbor, RelationResult, Schema,
    SortConfig, Table, Tuple, Value,
};
use fuzzydedup_storage::BufferPool;

use crate::components::{balance_components, UnionFind};
use crate::criteria::{diameter, is_compact_set, sparse_neighborhood_ok, Aggregation};
use crate::nnreln::{NnEntry, NnReln};
use crate::partition::Partition;
use crate::problem::CutSpec;

/// Partition a relation given its materialized `NN_Reln` (in-memory path).
pub fn partition_entries(reln: &NnReln, cut: CutSpec, agg: Aggregation, c: f64) -> Partition {
    partition_entries_ablation(reln, cut, agg, c, true, true)
}

/// The greedy group search anchored at `v`: the largest non-trivial
/// prefix set of `v` whose minimum id is `v`, with no member already
/// assigned, passing the (optionally ablated) CS and SN criteria and the
/// diameter cut. Shared by the sequential (ablation) and component-parallel
/// drivers so those two cannot drift; [`partition_via_tables`] runs its own
/// loop over the stored `CSPairs` flags and is held to this one by the
/// equivalence suites.
///
/// `prune` optionally supplies the materialized CS-pair back ranks
/// ([`CsPairGraph`]); candidate sizes the graph proves hopeless are then
/// skipped without allocating a prefix set. The prune is a *necessary*
/// condition of the min-id and CS checks below, so passing `Some` never
/// changes the result — it requires `use_cs` (asserted in debug builds),
/// which every caller that prunes satisfies.
#[allow(clippy::too_many_arguments)]
fn greedy_group_at(
    reln: &NnReln,
    v: u32,
    max_size: usize,
    theta: Option<f64>,
    agg: Aggregation,
    c: f64,
    use_cs: bool,
    use_sn: bool,
    assigned: &[bool],
    prune: Option<&CsPairGraph>,
) -> Option<Vec<u32>> {
    debug_assert!(prune.is_none() || use_cs, "CS-pair pruning presumes the CS criterion");
    let entry = reln.entry(v);
    let upper = max_size.min(entry.neighbors.len() + 1);
    if let Some(graph) = prune {
        // Anchor bits are only ever set for sizes ≤ upper (the prefix is
        // that long) and < 64, so an all-zero mask rules out the whole
        // tuple in O(1) — unless sizes ≥ 64 are in play, which the mask
        // cannot speak for.
        if upper < 64 && graph.anchor[v as usize] == 0 {
            return None;
        }
    }
    for m in (2..=upper).rev() {
        if let Some(graph) = prune {
            if !graph.can_anchor(entry, m) {
                continue; // the min-id or CS check below is doomed
            }
        }
        let Some(s) = entry.prefix_set(m) else { continue };
        // v must be the minimum id of the group ("grouped under the
        // tuple with the minimum ID"); larger-anchored sets are found
        // when their own minimum is processed.
        if s[0] != v {
            continue;
        }
        if s.iter().any(|&u| assigned[u as usize]) {
            continue;
        }
        if use_cs && !is_compact_set(reln, &s) {
            continue;
        }
        if use_sn && !sparse_neighborhood_ok(reln, &s, agg, c) {
            continue;
        }
        if let Some(t) = theta {
            match diameter(reln, &s) {
                Some(d) if d <= t => {}
                _ => continue,
            }
        }
        return Some(s);
    }
    None
}

/// Ablation variant of [`partition_entries`]: either criterion can be
/// switched off (used by the `exp_ablation` driver to quantify what CS and
/// SN each contribute). With `use_cs = false`, any prefix set is accepted
/// as a candidate group; with `use_sn = false`, the growth check is
/// skipped. Both `true` is the real algorithm.
pub fn partition_entries_ablation(
    reln: &NnReln,
    cut: CutSpec,
    agg: Aggregation,
    c: f64,
    use_cs: bool,
    use_sn: bool,
) -> Partition {
    let n = reln.len();
    let max_size = cut.max_group_size(n);
    let theta = cut.diameter_bound();
    let mut assigned = vec![false; n];
    let mut groups: Vec<Vec<u32>> = Vec::new();

    for v in 0..n as u32 {
        if assigned[v as usize] {
            continue;
        }
        if let Some(s) =
            greedy_group_at(reln, v, max_size, theta, agg, c, use_cs, use_sn, &assigned, None)
        {
            for &u in &s {
                assigned[u as usize] = true;
            }
            groups.push(s);
        }
    }
    Partition::from_groups(n, groups)
}

/// The materialized CS-pair structure backing the component-parallel path —
/// the in-memory analogue of the relational `CSPairs` table of §5. Per
/// tuple `v` it records, for each of `v`'s first `max_size − 1` neighbors
/// `u` (distance order), the *back rank* of `v` inside `u`'s own prefix:
/// exactly the information the `CS2..CSK` flags carry, collapsed into one
/// integer per directed pair. Stored as flat CSR arrays (one allocation
/// each) so extraction stays cheap relative to the greedy scan it feeds.
struct CsPairGraph {
    /// CSR offsets (`n + 1` entries): tuple `v`'s prefix occupies
    /// `off[v]..off[v + 1]` in `back`.
    off: Vec<u32>,
    /// `back[off[v] + j]`: 0-based rank of `v` in the NN list of `v`'s
    /// `j`-th nearest neighbor, or `u32::MAX` when that neighbor does not
    /// list `v` in its prefix (the pair is not mutual).
    back: Vec<u32>,
    /// Prefix neighbor ids in distance order, CSR-indexed by `off` (a flat
    /// copy of the first `max_size − 1` entries of each NN list).
    pref: Vec<u32>,
    /// Per-tuple *mutuality* bitmask: bit `m` (for `m < 64`) is set iff
    /// every one of the tuple's first `m − 1` neighbors lists it back
    /// within their own first `m − 1` — a necessary condition for the
    /// tuple to be a *member* of any compact set of size `m`.
    mutual: Vec<u64>,
    /// Per-tuple *anchor* bitmask: the mutuality condition plus "the tuple
    /// is the minimum id of its size-`m` prefix set" — a necessary
    /// condition for the greedy to emit a group of size `m` anchored here.
    anchor: Vec<u64>,
}

impl CsPairGraph {
    /// Materialize the graph and the union-find of mutual pairs in two
    /// flat sweeps over the NN lists. Back ranks are found by scanning the
    /// partner's prefix directly — prefixes are at most `max_size − 1`
    /// long, the same bound the greedy's own membership checks live under.
    fn build(reln: &NnReln, max_size: usize) -> (Self, UnionFind) {
        let n = reln.len();
        let mut off: Vec<u32> = Vec::with_capacity(n + 1);
        let mut total = 0u32;
        off.push(0);
        for e in reln.entries() {
            total += max_size.saturating_sub(1).min(e.neighbors.len()) as u32;
            off.push(total);
        }

        let mut pref = vec![0u32; total as usize];
        for (v, e) in reln.entries().iter().enumerate() {
            let (s, t) = (off[v] as usize, off[v + 1] as usize);
            for (slot, nb) in pref[s..t].iter_mut().zip(&e.neighbors) {
                *slot = nb.id;
            }
        }

        let mut back = vec![u32::MAX; total as usize];
        let mut mutual = vec![0u64; n];
        let mut anchor = vec![0u64; n];
        let mut uf = UnionFind::new(n);
        for v in 0..n as u32 {
            let (s, t) = (off[v as usize] as usize, off[v as usize + 1] as usize);
            // Running state over the growing prefix: whether `v` is still
            // the minimum id, and the worst back rank seen so far.
            let mut min_id_ok = true;
            let mut max_back = 0u32;
            for j in 0..t - s {
                let u = pref[s + j];
                // Each unordered pair is scanned once, from its smaller
                // endpoint: finding `v` at rank `r` of `u`'s prefix fixes
                // both directions' back ranks (`v` sits at rank `j` of its
                // own prefix edge to `u`). Pairs with `u < v` were settled
                // during `u`'s iteration — ids ascend — or are one-way and
                // correctly keep `u32::MAX`.
                if u > v {
                    let (us, ut) = (off[u as usize] as usize, off[u as usize + 1] as usize);
                    if let Some(r) = pref[us..ut].iter().position(|&b| b == v) {
                        back[s + j] = r as u32;
                        back[us + r] = j as u32;
                        uf.union(v, u);
                    }
                } else {
                    min_id_ok = false;
                }
                max_back = max_back.max(back[s + j]);
                // Group size m = j + 2 needs every back rank ≤ m − 2.
                let m = j + 2;
                if max_back <= (m - 2) as u32 && m < 64 {
                    mutual[v as usize] |= 1 << m;
                    if min_id_ok {
                        anchor[v as usize] |= 1 << m;
                    }
                }
            }
        }
        (Self { off, pref, mutual, anchor, back }, uf)
    }

    /// Necessary condition for the greedy at `v` to emit a group of size
    /// `m`: `v` must be the minimum id of its size-`m` prefix set, every
    /// prefix neighbor `u` must hold `v` within its own first `m − 1`
    /// neighbors, and every prefix neighbor must itself be fully mutual at
    /// level `m` — otherwise some member's `m`-nearest-neighbor set cannot
    /// equal the candidate and [`is_compact_set`] rejects it. All three
    /// facts are read off the materialized bitmasks without allocating.
    fn can_anchor(&self, entry: &NnEntry, m: usize) -> bool {
        let v = entry.id as usize;
        if m < 64 {
            let bit = 1u64 << m;
            return self.anchor[v] & bit != 0
                && self.pref[self.off[v] as usize..][..m - 1]
                    .iter()
                    .all(|&u| self.mutual[u as usize] & bit != 0);
        }
        let k = m - 1;
        let s = self.off[v] as usize;
        let t = self.off[v + 1] as usize;
        if t - s < k {
            return false; // prefix set ill-defined: the greedy skips m too
        }
        let lim = (m - 2) as u32;
        entry.neighbors[..k].iter().all(|nb| nb.id > entry.id)
            && self.back[s..s + k].iter().all(|&r| r <= lim)
    }
}

/// Connected components of the CS-pair graph: tuples `u`, `v` are joined
/// iff each appears in the other's first `max_size − 1` neighbors (a
/// mutual-neighbor pair — exactly the pairs the relational path
/// materializes into `CSPairs`). Every compact set is a clique of such
/// pairs, so every candidate group lies inside one component. Components
/// come back in canonical order (members ascending, ordered by min id),
/// singletons included.
pub fn cs_pair_components(reln: &NnReln, max_size: usize) -> Vec<Vec<u32>> {
    CsPairGraph::build(reln, max_size).1.components()
}

/// Component-parallel Phase 2: identical output to [`partition_entries`],
/// computed on `n_threads` scoped worker threads (`0` = one per available
/// CPU).
///
/// The CS-pair structure is materialized once ([`CsPairGraph`], the
/// in-memory `CSPairs` of §5) and decomposed into connected components
/// (as [`cs_pair_components`]); components are cost-balanced over the
/// workers ([`balance_components`], cost ∝ Σ per-tuple prefix-set work);
/// each worker runs the same greedy as the sequential path over its
/// components' tuples in ascending id order with worker-local `assigned`
/// state (sound because no candidate group spans components), using the
/// materialized back ranks to skip candidate sizes the CS criterion is
/// bound to reject; and the collected groups are canonicalized by
/// [`Partition::from_groups`] (groups sorted by anchor id), which erases
/// any scheduling order. Singleton components are skipped outright — a
/// tuple with no mutual neighbor can never anchor or join a group.
pub fn partition_entries_parallel(
    reln: &NnReln,
    cut: CutSpec,
    agg: Aggregation,
    c: f64,
    n_threads: usize,
) -> Partition {
    let n = reln.len();
    let threads = crate::parallel::resolve_threads(n_threads, n);
    let max_size = cut.max_group_size(n);
    let theta = cut.diameter_bound();

    let (graph, uf) = CsPairGraph::build(reln, max_size);
    let components = uf.components();
    incr(Counter::Phase2Components, components.len() as u64);

    // Cost model: the greedy at tuple v tries up to |prefix(v)| set sizes,
    // each checking ≤ |prefix(v)| members — quadratic in the list length.
    let costs: Vec<u64> = components
        .iter()
        .map(|comp| {
            comp.iter()
                .map(|&v| {
                    let len = reln.entry(v).neighbors.len().min(max_size) as u64 + 1;
                    len * len
                })
                .sum()
        })
        .collect();
    let shards = balance_components(&costs, threads);

    let mut shard_groups: Vec<Vec<Vec<u32>>> = vec![Vec::new(); shards.len()];
    // The workers reach no `incr` (the greedy counts nothing), so there is
    // no tally to hand back to the caller's metrics scope.
    std::thread::scope(|scope| {
        for (shard, out) in shards.iter().zip(shard_groups.iter_mut()) {
            let (components, graph) = (&components, &graph);
            scope.spawn(move || {
                let mut assigned = vec![false; n];
                let mut groups: Vec<Vec<u32>> = Vec::new();
                for &ci in shard {
                    let comp = &components[ci];
                    if comp.len() < 2 {
                        continue; // no mutual pair, no possible group
                    }
                    for &v in comp {
                        if assigned[v as usize] {
                            continue;
                        }
                        if let Some(s) = greedy_group_at(
                            reln,
                            v,
                            max_size,
                            theta,
                            agg,
                            c,
                            true,
                            true,
                            &assigned,
                            Some(graph),
                        ) {
                            for &u in &s {
                                assigned[u as usize] = true;
                            }
                            groups.push(s);
                        }
                    }
                }
                *out = groups;
            });
        }
    });
    Partition::from_groups(n, shard_groups.into_iter().flatten())
}

/// Schema of the materialized `NN_Reln` table: `[ID, NN-List, NG]`.
pub fn nn_reln_schema() -> Schema {
    Schema::new(vec![
        Column::new("id", ColumnType::I64),
        Column::new("nn_list", ColumnType::Neighbors),
        Column::new("ng", ColumnType::F64),
    ])
}

/// Schema of the `CSPairs` relation: ids, NG values, and the variable-length
/// `[CS2..]` prefix-equality flags.
pub fn cs_pairs_schema() -> Schema {
    Schema::new(vec![
        Column::new("id1", ColumnType::I64),
        Column::new("id2", ColumnType::I64),
        Column::new("ng1", ColumnType::F64),
        Column::new("ng2", ColumnType::F64),
        Column::new("cs", ColumnType::BoolList),
    ])
}

/// Materialize `NN_Reln` as a relation on the given buffer pool.
pub fn materialize_nn_reln(reln: &NnReln, pool: Arc<BufferPool>) -> RelationResult<Table> {
    let table = Table::create(pool, Arc::new(nn_reln_schema()));
    for e in reln.entries() {
        table.insert(&Tuple::new(vec![
            Value::I64(e.id as i64),
            Value::Neighbors(e.neighbors.clone()),
            Value::F64(e.ng),
        ]))?;
    }
    Ok(table)
}

/// The paper's SQL-shaped Phase 2 over the relation substrate.
///
/// Steps (all running through tables on `pool`):
/// 1. materialize `NN_Reln`;
/// 2. unnest NN lists into `Edges[id, nb]`;
/// 3. self-equi-join `Edges` on `(id, nb) = (nb, id)` to find mutual
///    neighbor pairs with `id1 < id2` (the residual predicate);
/// 4. compute the `[CS2..]` flags per pair into `CSPairs`;
/// 5. `ORDER BY id1` via external sort, then group and partition.
pub fn partition_via_tables(
    reln: &NnReln,
    cut: CutSpec,
    agg: Aggregation,
    c: f64,
    pool: Arc<BufferPool>,
) -> RelationResult<Partition> {
    let n = reln.len();
    let max_size = cut.max_group_size(n);
    let theta = cut.diameter_bound();

    // Step 1: NN_Reln.
    let nn_table = materialize_nn_reln(reln, pool.clone())?;

    // Step 2: unnest into Edges[id, nb].
    let edges_schema = Arc::new(Schema::new(vec![
        Column::new("id", ColumnType::I64),
        Column::new("nb", ColumnType::I64),
    ]));
    let edges = Table::create(pool.clone(), edges_schema);
    let mut unnested_rows: u64 = 0;
    nn_table.scan(|_, t| {
        let id = t.get(0).as_i64().expect("id column");
        for nb in t.get(1).as_neighbors().expect("nn_list column") {
            edges
                .insert(&Tuple::new(vec![Value::I64(id), Value::I64(nb.id as i64)]))
                .expect("edges schema");
            unnested_rows += 1;
        }
    })?;
    incr(Counter::Phase2UnnestedRows, unnested_rows);

    // A hash "index" on NN_Reln for the flag computation (the paper uses
    // user-defined functions / expanded columns server-side; we read the
    // lists back from the materialized table).
    let mut by_id: HashMap<i64, (Vec<Neighbor>, f64)> = HashMap::with_capacity(n);
    nn_table.scan(|_, t| {
        by_id.insert(
            t.get(0).as_i64().expect("id"),
            (t.get(1).as_neighbors().expect("list").to_vec(), t.get(2).as_f64().expect("ng")),
        );
    })?;

    // Prefix set of a stored list: {id} ∪ first m−1 neighbor ids, sorted.
    let prefix_set = |id: i64, list: &[Neighbor], m: usize| -> Option<Vec<u32>> {
        if list.len() < m - 1 {
            return None;
        }
        let mut s: Vec<u32> = Vec::with_capacity(m);
        s.push(id as u32);
        s.extend(list[..m - 1].iter().map(|nb| nb.id));
        s.sort_unstable();
        Some(s)
    };

    // Steps 3–4: mutual pairs + CS flags into CSPairs.
    let cs_pairs = Table::create(pool.clone(), Arc::new(cs_pairs_schema()));
    let mut cs_pair_rows: u64 = 0;
    incr(Counter::Phase2JoinPasses, 1);
    hash_join(&edges, &edges, &[0, 1], &[1, 0], |l, _r| {
        let id1 = l.get(0).as_i64().expect("id");
        let id2 = l.get(1).as_i64().expect("nb");
        if id1 >= id2 {
            return; // residual predicate ID1 < ID2
        }
        let (list1, ng1) = &by_id[&id1];
        let (list2, ng2) = &by_id[&id2];
        let max_m = max_size.min(list1.len().min(list2.len()) + 1);
        let mut flags = Vec::with_capacity(max_m.saturating_sub(1));
        for m in 2..=max_m {
            let equal = match (prefix_set(id1, list1, m), prefix_set(id2, list2, m)) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            };
            flags.push(equal);
        }
        cs_pairs
            .insert(&Tuple::new(vec![
                Value::I64(id1),
                Value::I64(id2),
                Value::F64(*ng1),
                Value::F64(*ng2),
                Value::BoolList(flags),
            ]))
            .expect("cs_pairs schema");
        cs_pair_rows += 1;
    })?;
    incr(Counter::Phase2CsPairs, cs_pair_rows);

    // Step 5: ORDER BY id1 (the CS-group query), then group the sorted
    // pairs by anchor and extract the connected components of the CSPairs
    // graph — the same union-find machinery the component-parallel
    // in-memory path uses ([`cs_pair_components`]), so a component bug
    // shows up in the `phase2_equivalence` suite on either path.
    incr(Counter::Phase2SortPasses, 1);
    let sorted = external_sort(&cs_pairs, &SortConfig::by_columns(vec![0, 1]))?;
    let groups_by_id = group_sorted(sorted.iter().collect::<RelationResult<Vec<_>>>()?, &[0]);

    // Partner flags per anchor (id1 -> id2 -> cs vector) and the CSPairs
    // graph components.
    let mut uf = UnionFind::new(n);
    let mut partners_of: HashMap<u32, HashMap<u32, Vec<bool>>> = HashMap::new();
    for (key, rows) in groups_by_id {
        let v = key[0].as_i64().expect("id1") as u32;
        let partners: HashMap<u32, Vec<bool>> = rows
            .iter()
            .map(|r| {
                let u = r.get(1).as_i64().expect("id2") as u32;
                uf.union(v, u);
                (u, r.get(4).as_bool_list().expect("cs").to_vec())
            })
            .collect();
        partners_of.insert(v, partners);
    }
    let components = uf.components();
    incr(Counter::Phase2Components, components.len() as u64);

    let ngs_of = |s: &[u32]| -> Vec<f64> { s.iter().map(|&u| by_id[&(u as i64)].1).collect() };
    let mut assigned = vec![false; n];
    let mut out_groups: Vec<Vec<u32>> = Vec::new();
    for comp in &components {
        if comp.len() < 2 {
            continue; // no CS pair, no possible group
        }
        for &v in comp {
            if assigned[v as usize] {
                continue;
            }
            // Only tuples with outgoing (v < u) pairs can anchor a group.
            let Some(partners) = partners_of.get(&v) else { continue };
            let (list_v, _) = &by_id[&(v as i64)];
            let upper = max_size.min(list_v.len() + 1);
            for m in (2..=upper).rev() {
                let Some(s) = prefix_set(v as i64, list_v, m) else { continue };
                if s[0] != v {
                    continue;
                }
                if s.iter().any(|&u| assigned[u as usize]) {
                    continue;
                }
                // All other members must be CSm-equal partners of v. (Set
                // equality is transitive, so pairwise checks against v
                // suffice.)
                let all_partnered = s.iter().filter(|&&u| u != v).all(|&u| {
                    partners.get(&u).and_then(|flags| flags.get(m - 2)).copied().unwrap_or(false)
                });
                if !all_partnered {
                    continue;
                }
                // SN criterion over stored NG values. The negated
                // comparison deliberately treats a NaN aggregate as
                // failing.
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                let sn_ok = agg.aggregate(&ngs_of(&s)) < c;
                if !sn_ok {
                    continue;
                }
                // Diameter cut, if present, from the stored lists.
                if let Some(t) = theta {
                    let mut ok = true;
                    'outer: for (i, &u) in s.iter().enumerate() {
                        let (list_u, _) = &by_id[&(u as i64)];
                        for &w in &s[i + 1..] {
                            match list_u.iter().find(|nb| nb.id == w) {
                                Some(nb) if nb.dist <= t => {}
                                _ => {
                                    ok = false;
                                    break 'outer;
                                }
                            }
                        }
                    }
                    if !ok {
                        continue;
                    }
                }
                for &u in &s {
                    assigned[u as usize] = true;
                }
                out_groups.push(s);
                break;
            }
        }
    }
    Ok(Partition::from_groups(n, out_groups))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::MatrixIndex;
    use crate::phase1::{compute_nn_reln, NeighborSpec};
    use fuzzydedup_nnindex::{LookupOrder, NnIndex};
    use fuzzydedup_storage::{BufferPoolConfig, InMemoryDisk};

    fn integers() -> MatrixIndex {
        MatrixIndex::from_points_1d(&[1.0, 2.0, 4.0, 20.0, 22.0, 30.0, 32.0])
    }

    fn reln_for(index: &MatrixIndex, cut: &CutSpec) -> NnReln {
        let spec = NeighborSpec::from_cut(cut, index.len());
        compute_nn_reln(index, spec, LookupOrder::Sequential, 2.0).0
    }

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(
            BufferPoolConfig::with_capacity(32),
            Arc::new(InMemoryDisk::new()),
        ))
    }

    #[test]
    fn integers_example_with_cut_gives_three_groups() {
        // The §3 example: with max aggregation and c just above the NG
        // values of the pairs, plus a size cut, we expect
        // {1,2,4}, {20,22}, {30,32}.
        let idx = integers();
        let cut = CutSpec::Size(3);
        let reln = reln_for(&idx, &cut);
        let p = partition_entries(&reln, cut, Aggregation::Max, 4.0);
        let expected = Partition::from_groups(7, vec![vec![0, 1, 2], vec![3, 4], vec![5, 6]]);
        assert_eq!(p, expected);
    }

    #[test]
    fn unbounded_formulation_merges_everything_with_lenient_c() {
        // The paper's warning: without a cut, all tuples can land in one
        // group. Reproduce with a generous SN threshold.
        let idx = integers();
        let reln = reln_for(&idx, &CutSpec::Unbounded);
        let p = partition_entries(&reln, CutSpec::Unbounded, Aggregation::Max, 100.0);
        assert_eq!(p.num_groups(), 1, "groups: {:?}", p.groups());
    }

    #[test]
    fn sn_threshold_blocks_dense_groups() {
        // With c = 2 (max NG must be < 2), the triple {1,2,4} is blocked
        // (NG(4)=3) but the loose pairs survive.
        let idx = integers();
        let cut = CutSpec::Size(3);
        let reln = reln_for(&idx, &cut);
        let p = partition_entries(&reln, cut, Aggregation::Max, 2.5);
        assert!(p.are_together(3, 4));
        assert!(p.are_together(5, 6));
        assert!(!p.are_together(0, 2), "dense member 4 has ng=3");
        // {1,2} = ids {0,1} both have ng 2 < 2.5 and are mutual NNs.
        assert!(p.are_together(0, 1));
    }

    #[test]
    fn diameter_cut_bounds_groups() {
        let idx = integers();
        let cut = CutSpec::Diameter(2.5);
        let reln = reln_for(&idx, &cut);
        let p = partition_entries(&reln, cut, Aggregation::Max, 4.0);
        // {20,22} and {30,32} have diameter 2; {1,2,4} has diameter 3 → at
        // most {1,2} can group (diameter 1).
        assert!(p.are_together(3, 4));
        assert!(p.are_together(5, 6));
        assert!(!p.are_together(0, 2));
        assert!(p.are_together(0, 1));
    }

    #[test]
    fn size_and_diameter_combined() {
        let idx = integers();
        let cut = CutSpec::SizeAndDiameter(2, 2.5);
        let reln = reln_for(&idx, &cut);
        let p = partition_entries(&reln, cut, Aggregation::Max, 4.0);
        for g in p.duplicate_groups() {
            assert!(g.len() <= 2);
        }
        assert!(p.are_together(0, 1));
    }

    #[test]
    fn table_path_matches_in_memory_path() {
        let idx = integers();
        for cut in [
            CutSpec::Size(2),
            CutSpec::Size(3),
            CutSpec::Size(4),
            CutSpec::Diameter(2.5),
            CutSpec::Diameter(5.0),
            CutSpec::SizeAndDiameter(3, 3.5),
        ] {
            for c in [2.0, 2.5, 3.5, 6.0] {
                for agg in [Aggregation::Max, Aggregation::Avg, Aggregation::Max2] {
                    let reln = reln_for(&idx, &cut);
                    let mem = partition_entries(&reln, cut, agg, c);
                    let tab = partition_via_tables(&reln, cut, agg, c, pool()).unwrap();
                    assert_eq!(mem, tab, "cut={cut:?} c={c} agg={agg:?}");
                }
            }
        }
    }

    #[test]
    fn empty_and_singleton_relations() {
        let empty = NnReln::new(vec![]);
        let p = partition_entries(&empty, CutSpec::Size(3), Aggregation::Max, 4.0);
        assert_eq!(p.num_groups(), 0);

        let idx = MatrixIndex::from_points_1d(&[1.0]);
        let reln = reln_for(&idx, &CutSpec::Size(2));
        let p = partition_entries(&reln, CutSpec::Size(2), Aggregation::Max, 4.0);
        assert_eq!(p.groups(), &[vec![0]]);
    }

    #[test]
    fn groups_are_anchored_at_min_id() {
        // Every emitted duplicate group's min id must be the anchor; verify
        // indirectly: re-running must be deterministic and equal.
        let idx = integers();
        let cut = CutSpec::Size(3);
        let reln = reln_for(&idx, &cut);
        let a = partition_entries(&reln, cut, Aggregation::Max, 4.0);
        let b = partition_entries(&reln, cut, Aggregation::Max, 4.0);
        assert_eq!(a, b);
    }

    #[test]
    fn ablation_flags_relax_the_criteria() {
        let idx = integers();
        let cut = CutSpec::Size(3);
        let reln = reln_for(&idx, &cut);
        let full = partition_entries_ablation(&reln, cut, Aggregation::Max, 2.5, true, true);
        let no_sn = partition_entries_ablation(&reln, cut, Aggregation::Max, 2.5, true, false);
        let no_cs = partition_entries_ablation(&reln, cut, Aggregation::Max, 2.5, false, true);
        assert_eq!(full, partition_entries(&reln, cut, Aggregation::Max, 2.5));
        // Without SN, the dense triple {1,2,4} is admitted.
        assert!(no_sn.are_together(0, 2));
        assert!(!full.are_together(0, 2));
        // Relaxations can only merge more, never less.
        assert!(no_sn.num_duplicate_pairs() >= full.num_duplicate_pairs());
        assert!(no_cs.num_duplicate_pairs() >= full.num_duplicate_pairs());
    }

    #[test]
    fn far_apart_points_stay_singletons() {
        let idx = MatrixIndex::from_points_1d(&[0.0, 100.0, 250.0, 400.0]);
        let cut = CutSpec::Diameter(10.0);
        let reln = reln_for(&idx, &cut);
        let p = partition_entries(&reln, cut, Aggregation::Max, 4.0);
        assert_eq!(p.num_duplicate_pairs(), 0);
    }
}
