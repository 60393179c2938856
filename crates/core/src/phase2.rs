//! Phase 2 — partitioning the relation into compact SN groups (§4.2).
//!
//! Four entry points, one grouping loop. [`Greedy::greedy_group_at`] is the
//! only place the minimum-id rule, already-assigned members, CS, SN and
//! the diameter cut are decided: for an unassigned tuple `v` it finds the
//! largest non-trivial compact SN set anchored at `v` (i.e. whose minimum
//! id is `v`) satisfying the cut specification. The entry points differ in
//! the order they offer it anchors and in the [`CsEvidence`] they hand it:
//!
//! * [`partition_entries`] — every tuple in increasing id order, CS read
//!   off the in-memory NN lists.
//!
//! * [`partition_entries_ablation`] — the same with either criterion
//!   switchable off (`exp_ablation`); `partition_entries` is it with both
//!   on.
//!
//! * [`partition_entries_parallel`] — the component-parallel form: every
//!   emitted group is a clique in the mutual-neighbor (CS-pair) graph, so
//!   the greedy's decisions decompose over that graph's connected
//!   components. Components are extracted with a union-find, cost-balanced
//!   over scoped worker threads and processed independently (each worker
//!   offers its components' tuples in ascending id order), the
//!   materialized back ranks ([`CsPairGraph`]) pruning sizes the CS check
//!   is bound to reject; the collected groups are canonicalized by
//!   [`Partition::from_groups`] — the output is bit-for-bit identical to
//!   [`partition_entries`] for every cut/aggregation (`DESIGN.md` §7.4).
//!
//! * [`partition_via_tables`] — the paper's SQL-shaped form, a fixed query
//!   plan over three fixed record layouts on heap-file pages: `NN_Reln` in
//!   the spill's format ([`crate::spill`]), unnested into
//!   `Edges(id, nb, rank)`; `Edges` equi-joined with itself on
//!   `(id, nb) = (nb, id)` to find *mutual* neighbor pairs (`ID < ID2`,
//!   each in the other's list) into `CSPairs(id1, id2, rank12, rank21)`;
//!   `CSPairs` sorted by `ID` (the CS-group query). The sorted rows give
//!   the components (the same union-find) and are the CS evidence: a set
//!   of `m` tuples is compact iff every two of its members are a row with
//!   both ranks below `m − 1` — what the paper's `[CS2..CSK]` flag columns
//!   say, at a width that does not grow with the NN lists.
//!
//! `tests` (and the `phase2_equivalence` property suite) assert that the
//! sequential, component-parallel and relational paths produce identical
//! partitions.

use std::sync::Arc;

use fuzzydedup_metrics::{incr, Counter};
use fuzzydedup_relation::{external_sort, hash_join};
use fuzzydedup_storage::{BufferPool, HeapFile, StorageError, StorageResult};

use crate::components::{balance_components, UnionFind};
use crate::criteria::{diameter, is_compact_set, sparse_neighborhood_ok, Aggregation};
use crate::nnreln::{NnEntry, NnReln};
use crate::partition::Partition;
use crate::problem::CutSpec;
use crate::spill::{scan_nn_reln, write_nn_reln};

/// Partition a relation given its materialized `NN_Reln` (in-memory path).
pub fn partition_entries(reln: &NnReln, cut: CutSpec, agg: Aggregation, c: f64) -> Partition {
    partition_entries_ablation(reln, cut, agg, c, true, true)
}

/// Where the greedy reads the CS criterion from.
#[derive(Clone, Copy)]
enum CsEvidence<'a> {
    /// Nowhere: any prefix set is a candidate group (the ablation).
    Off,
    /// The in-memory NN lists ([`is_compact_set`]), optionally behind the
    /// materialized back ranks: candidate sizes the graph proves hopeless
    /// are then skipped without allocating a prefix set. The prune is a
    /// *necessary* condition of the min-id and CS checks, so supplying the
    /// graph never changes the result.
    Lists(Option<&'a CsPairGraph>),
    /// The `CSPairs` rows read back from pages, sorted by `(id1, id2)`.
    Pairs(&'a [CsPair]),
}

/// One `CSPairs` row: a mutual-neighbor pair `id1 < id2` and the 0-based
/// rank of each inside the other's NN list.
struct CsPair {
    id1: u32,
    id2: u32,
    rank12: u32,
    rank21: u32,
}

/// The CS criterion from sorted `CSPairs` rows: `s` (ascending, `m` ids)
/// is compact iff every member's first `m − 1` neighbors are the other
/// members — every two members are a row, each ranked below `m − 1` by the
/// other (a member holding the other `m − 1` at ranks `0..m − 1` holds
/// nothing else there).
fn is_compact_in_pairs(rows: &[CsPair], s: &[u32]) -> bool {
    let lim = s.len() as u32 - 2;
    s.iter().enumerate().all(|(i, &u)| {
        s[i + 1..].iter().all(|&w| {
            rows.binary_search_by_key(&(u, w), |r| (r.id1, r.id2))
                .is_ok_and(|at| rows[at].rank12.max(rows[at].rank21) <= lim)
        })
    })
}

/// What Phase 2 decides with: the relation, the cut, the SN criterion
/// (optionally ablated) and the evidence CS is read from.
struct Greedy<'a> {
    reln: &'a NnReln,
    max_size: usize,
    theta: Option<f64>,
    agg: Aggregation,
    c: f64,
    cs: CsEvidence<'a>,
    use_sn: bool,
}

impl Greedy<'_> {
    /// The greedy group search anchored at `v`: the largest non-trivial
    /// prefix set of `v` whose minimum id is `v`, with no member already
    /// assigned, passing the CS and SN criteria and the diameter cut.
    fn greedy_group_at(&self, v: u32, assigned: &[bool]) -> Option<Vec<u32>> {
        let entry = self.reln.entry(v);
        let upper = self.max_size.min(entry.neighbors.len() + 1);
        let hopeless = match self.cs {
            // Anchor bits are only ever set for sizes ≤ upper (the prefix
            // is that long) and < 64, so an all-zero mask rules out the
            // whole tuple in O(1) — unless sizes ≥ 64 are in play, which
            // the mask cannot speak for.
            CsEvidence::Lists(Some(graph)) => upper < 64 && graph.anchor[v as usize] == 0,
            // A group's minimum id has a row of its own to each member.
            CsEvidence::Pairs(rows) => rows.binary_search_by_key(&v, |r| r.id1).is_err(),
            _ => false,
        };
        if hopeless {
            return None;
        }
        for m in (2..=upper).rev() {
            if let CsEvidence::Lists(Some(graph)) = self.cs {
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
            let compact = match self.cs {
                CsEvidence::Off => true,
                CsEvidence::Lists(_) => is_compact_set(self.reln, &s),
                CsEvidence::Pairs(rows) => is_compact_in_pairs(rows, &s),
            };
            if !compact {
                continue;
            }
            if self.use_sn && !sparse_neighborhood_ok(self.reln, &s, self.agg, self.c) {
                continue;
            }
            if let Some(t) = self.theta {
                // An unrecorded pairwise distance means it exceeds θ.
                if !diameter(self.reln, &s).is_some_and(|d| d <= t) {
                    continue;
                }
            }
            return Some(s);
        }
        None
    }

    /// Offer `anchors` to the greedy in order, marking each emitted
    /// group's members assigned.
    fn groups(&self, anchors: impl IntoIterator<Item = u32>) -> Vec<Vec<u32>> {
        let mut assigned = vec![false; self.reln.len()];
        let mut groups: Vec<Vec<u32>> = Vec::new();
        for v in anchors {
            if assigned[v as usize] {
                continue;
            }
            if let Some(s) = self.greedy_group_at(v, &assigned) {
                for &u in &s {
                    assigned[u as usize] = true;
                }
                groups.push(s);
            }
        }
        groups
    }
}

/// The tuples of the components that can hold a group, in component
/// order: a singleton component has no mutual pair, so it can neither
/// anchor nor join one.
fn anchors_in<'a>(
    components: impl IntoIterator<Item = &'a Vec<u32>> + 'a,
) -> impl Iterator<Item = u32> + 'a {
    components.into_iter().filter(|comp| comp.len() >= 2).flatten().copied()
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
    let greedy = Greedy {
        reln,
        max_size: cut.max_group_size(n),
        theta: cut.diameter_bound(),
        agg,
        c,
        cs: if use_cs { CsEvidence::Lists(None) } else { CsEvidence::Off },
        use_sn,
    };
    Partition::from_groups(n, greedy.groups(0..n as u32))
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

    let greedy = Greedy {
        reln,
        max_size,
        theta: cut.diameter_bound(),
        agg,
        c,
        cs: CsEvidence::Lists(Some(&graph)),
        use_sn: true,
    };
    let mut shard_groups: Vec<Vec<Vec<u32>>> = vec![Vec::new(); shards.len()];
    // The workers reach no `incr` (the greedy counts nothing), so there is
    // no tally to hand back to the caller's metrics scope.
    std::thread::scope(|scope| {
        for (shard, out) in shards.iter().zip(shard_groups.iter_mut()) {
            let (components, greedy) = (&components, &greedy);
            scope.spawn(move || {
                *out = greedy.groups(anchors_in(shard.iter().map(|&ci| &components[ci])));
            });
        }
    });
    Partition::from_groups(n, shard_groups.into_iter().flatten())
}

/// A record of `N` little-endian `u32` columns — the layout of `Edges`
/// (3) and `CSPairs` (4), fixed whatever the NN lists' lengths.
fn u32_record<const N: usize>(columns: [u32; N]) -> Vec<u8> {
    columns.iter().flat_map(|c| c.to_le_bytes()).collect()
}

/// Decode a [`u32_record`]; `None` when `rec` is not `N` columns wide.
fn u32_columns<const N: usize>(rec: &[u8]) -> Option<[u32; N]> {
    let mut columns = [0u32; N];
    if rec.len() != 4 * N {
        return None;
    }
    for (column, bytes) in columns.iter_mut().zip(rec.chunks_exact(4)) {
        *column = u32::from_le_bytes(bytes.try_into().ok()?);
    }
    Some(columns)
}

/// The paper's SQL-shaped Phase 2: a fixed plan over heap files on `pool`.
///
/// 1. write `NN_Reln` (the spill's record format, so a list of any length
///    chunks across pages);
/// 2. unnest it into `Edges[id, nb, rank]`;
/// 3. self-equi-join `Edges` on `(id, nb) = (nb, id)` with the residual
///    predicate `id < nb`: each mutual neighbor pair once, with both
///    ranks, into `CSPairs`;
/// 4. `ORDER BY id1, id2` via the external sort;
/// 5. read the sorted rows back, take their graph's connected components
///    (the union-find the component-parallel path uses), and offer each
///    non-trivial component's tuples to the one greedy with the rows as
///    its CS evidence.
pub fn partition_via_tables(
    reln: &NnReln,
    cut: CutSpec,
    agg: Aggregation,
    c: f64,
    pool: Arc<BufferPool>,
) -> StorageResult<Partition> {
    let n = reln.len();

    let nn_reln = HeapFile::create(pool.clone());
    write_nn_reln(reln, &nn_reln)?;

    let edges = HeapFile::create(pool.clone());
    let mut unnested_rows: u64 = 0;
    scan_nn_reln(&nn_reln, |entry| {
        for (rank, nb) in entry.neighbors.iter().enumerate() {
            edges.insert(&u32_record([entry.id, nb.id, rank as u32]))?;
        }
        unnested_rows += entry.neighbors.len() as u64;
        Ok(())
    })?;
    incr(Counter::Phase2UnnestedRows, unnested_rows);

    let cs_pairs = HeapFile::create(pool);
    let mut cs_pair_rows: u64 = 0;
    incr(Counter::Phase2JoinPasses, 1);
    hash_join(
        &edges,
        &edges,
        |rec| u32_columns(rec).map(|[id, nb, rank]| ((id, nb), rank)),
        |rec| u32_columns(rec).map(|[id, nb, rank]| ((nb, id), rank)),
        |&(id1, id2), &rank12, &rank21| {
            if id1 < id2 {
                cs_pairs.insert(&u32_record([id1, id2, rank12, rank21]))?;
                cs_pair_rows += 1;
            }
            Ok(())
        },
    )?;
    incr(Counter::Phase2CsPairs, cs_pair_rows);

    incr(Counter::Phase2SortPasses, 1);
    let sorted = external_sort(&cs_pairs, |rec| {
        u32_columns(rec).map(|[id1, id2, _, _]: [u32; 4]| (id1, id2))
    })?;
    let mut rows: Vec<CsPair> = Vec::with_capacity(sorted.len() as usize);
    let mut uf = UnionFind::new(n);
    sorted.try_scan(|at, rec| {
        let [id1, id2, rank12, rank21] =
            u32_columns(rec).ok_or(StorageError::CorruptPage(at.page, "CSPairs record length"))?;
        uf.union(id1, id2);
        rows.push(CsPair { id1, id2, rank12, rank21 });
        Ok(())
    })?;
    let components = uf.components();
    incr(Counter::Phase2Components, components.len() as u64);

    let greedy = Greedy {
        reln,
        max_size: cut.max_group_size(n),
        theta: cut.diameter_bound(),
        agg,
        c,
        cs: CsEvidence::Pairs(&rows),
        use_sn: true,
    };
    Ok(Partition::from_groups(n, greedy.groups(anchors_in(&components))))
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
