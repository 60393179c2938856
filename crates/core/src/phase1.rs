//! Phase 1 — nearest-neighbor list computation (§4.1, Figure 5).
//!
//! For every tuple, fetch its neighbor list (top-K or within-θ, per the cut
//! specification) and its neighborhood growth, producing [`NnReln`]. The
//! order of lookups is pluggable ([`LookupOrder`]); the breadth-first order
//! feeds each lookup's results back into the traversal queue, giving the
//! buffer-locality win of Figure 8.

use fuzzydedup_nnindex::{drive_lookups, LookupCost, LookupOrder, NnIndex};

use crate::nnreln::{NnEntry, NnReln};
use crate::problem::CutSpec;

/// What Phase 1 fetches per tuple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NeighborSpec {
    /// The best `k` neighbors (excluding self) — for `DE_S(K)`.
    TopK(usize),
    /// All neighbors within distance θ — for `DE_D(θ)`.
    Radius(f64),
}

impl NeighborSpec {
    /// Derive the neighbor spec a cut specification needs, for a relation
    /// of `n` tuples.
    ///
    /// * `DE_S(K)` needs the `K` best neighbors (a group of size `m ≤ K`
    ///   uses each member's `m`-NN set = self + `m − 1` neighbors);
    /// * `DE_D(θ)` needs every neighbor within θ;
    /// * the combined cut needs the radius lists (the size bound is
    ///   enforced during partitioning);
    /// * the unbounded formulation needs complete lists.
    pub fn from_cut(cut: &CutSpec, n: usize) -> Self {
        match *cut {
            CutSpec::Size(k) => NeighborSpec::TopK(k.min(n.saturating_sub(1))),
            CutSpec::Diameter(theta) | CutSpec::SizeAndDiameter(_, theta) => {
                NeighborSpec::Radius(theta)
            }
            CutSpec::Unbounded => NeighborSpec::TopK(n.saturating_sub(1)),
        }
    }
}

/// Statistics from a Phase-1 run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Phase1Stats {
    /// Number of physical index probes performed: at least one per tuple,
    /// plus any fallback top-1 probes (radius fetch came back empty) and
    /// neighborhood-growth probes the index needed. Counted from the
    /// per-lookup costs the index reports, not assumed.
    pub lookups: u64,
    /// Fallback top-1 probes within [`Phase1Stats::lookups`].
    pub fallback_probes: u64,
    /// High-water mark of the breadth-first queue (0 for other orders).
    pub bf_queue_high_water: u64,
    /// The order tuples were looked up in (useful for locality analysis;
    /// one `u32` per tuple).
    pub visit_order: Vec<u32>,
}

/// Compute `NN_Reln` over an index.
///
/// `p` is the neighborhood-growth multiplier (the paper fixes `p = 2`):
/// `ng(v) = |{u : d(u, v) < p · nn(v)}|`, counting `v` itself. Tuples with
/// no neighbors (singleton relations) get `ng = 1`.
pub fn compute_nn_reln(
    index: &dyn NnIndex,
    spec: NeighborSpec,
    order: LookupOrder,
    p: f64,
) -> (NnReln, Phase1Stats) {
    assert!(p >= 1.0, "growth multiplier p must be >= 1, got {p}");
    let n = index.len();
    let mut entries: Vec<Option<NnEntry>> = vec![None; n];
    let mut total_cost = LookupCost::default();
    let report = drive_lookups::<std::convert::Infallible>(n, order, |id| {
        // `compute_entry` handles the nn(v) fallback probe (the radius
        // fetch may be empty even when a nearest neighbor exists beyond θ)
        // and the ng(v) growth-sphere count; see `parallel::compute_entry`.
        let (entry, cost) = crate::parallel::compute_entry(index, spec, p, id);
        total_cost.absorb(&cost);
        let expansion: Vec<u32> = entry.neighbors.iter().map(|nb| nb.id).collect();
        entries[id as usize] = Some(entry);
        Ok(expansion)
    })
    .unwrap_or_else(|e| match e {});
    let entries: Vec<NnEntry> = entries.into_iter().map(|e| e.expect("every id visited")).collect();
    let stats = Phase1Stats {
        lookups: total_cost.probes,
        fallback_probes: total_cost.fallback_probes,
        bf_queue_high_water: report.queue_high_water as u64,
        visit_order: report.visit_order,
    };
    (NnReln::new(entries), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::MatrixIndex;

    /// The §3 integers example: {1, 2, 4, 20, 22, 30, 32}.
    fn integers() -> MatrixIndex {
        MatrixIndex::from_points_1d(&[1.0, 2.0, 4.0, 20.0, 22.0, 30.0, 32.0])
    }

    #[test]
    fn neighbor_spec_from_cut() {
        assert_eq!(NeighborSpec::from_cut(&CutSpec::Size(5), 100), NeighborSpec::TopK(5));
        assert_eq!(NeighborSpec::from_cut(&CutSpec::Size(5), 3), NeighborSpec::TopK(2));
        assert_eq!(NeighborSpec::from_cut(&CutSpec::Diameter(0.3), 100), NeighborSpec::Radius(0.3));
        assert_eq!(
            NeighborSpec::from_cut(&CutSpec::SizeAndDiameter(4, 0.2), 10),
            NeighborSpec::Radius(0.2)
        );
        assert_eq!(NeighborSpec::from_cut(&CutSpec::Unbounded, 10), NeighborSpec::TopK(9));
    }

    #[test]
    fn topk_entries_shape() {
        let idx = integers();
        let (reln, stats) =
            compute_nn_reln(&idx, NeighborSpec::TopK(3), LookupOrder::Sequential, 2.0);
        assert_eq!(reln.len(), 7);
        // MatrixIndex uses the default combined lookup: one top-k fetch
        // plus one growth-sphere probe per tuple (every point here has a
        // nonzero nearest-neighbor distance) — two real probes each.
        assert_eq!(stats.lookups, 14);
        assert_eq!(stats.fallback_probes, 0);
        assert_eq!(stats.visit_order, (0..7).collect::<Vec<u32>>());
        for e in reln.entries() {
            assert_eq!(e.neighbors.len(), 3);
        }
        // Tuple 0 (=1): neighbors 1 (=2, d1), 2 (=4, d3), 3 (=20, d19).
        assert_eq!(reln.entry(0).neighbors[0].id, 1);
        assert_eq!(reln.entry(0).neighbors[1].id, 2);
    }

    #[test]
    fn ng_matches_hand_computation() {
        let idx = integers();
        let (reln, _) = compute_nn_reln(&idx, NeighborSpec::TopK(3), LookupOrder::Sequential, 2.0);
        // v=1 (value 2): nn = 1 (to value 1), sphere radius 2 → {1, 2}
        // (value 4 is at distance 2, excluded by strict <), plus self → 2.
        assert_eq!(reln.entry(1).ng, 2.0);
        // v=0 (value 1): nn = 1 (to 2), radius 2 → neighbors {2}, +self = 2.
        assert_eq!(reln.entry(0).ng, 2.0);
        // v=2 (value 4): nn = 2 (to 2), radius 4 → {1, 2} within (1 at d3,
        // 2 at d2), +self = 3.
        assert_eq!(reln.entry(2).ng, 3.0);
        // v=3 (value 20): nn = 2 (to 22), radius 4 → {22}, +self = 2.
        assert_eq!(reln.entry(3).ng, 2.0);
    }

    #[test]
    fn radius_entries_shape() {
        let idx = integers();
        let (reln, _) =
            compute_nn_reln(&idx, NeighborSpec::Radius(3.5), LookupOrder::Sequential, 2.0);
        // value 1: within 3.5 → {2 (d1), 4 (d3)}.
        assert_eq!(reln.entry(0).neighbors.len(), 2);
        // value 20: within 3.5 → {22}.
        assert_eq!(reln.entry(3).neighbors.len(), 1);
        // value 30: within 3.5 → {32}.
        assert_eq!(reln.entry(5).neighbors.len(), 1);
    }

    #[test]
    fn radius_smaller_than_nn_still_defines_ng() {
        // Radius 0.5 catches nothing, but nn probes still work.
        let idx = integers();
        let (reln, _) =
            compute_nn_reln(&idx, NeighborSpec::Radius(0.5), LookupOrder::Sequential, 2.0);
        for e in reln.entries() {
            assert!(e.neighbors.is_empty());
            assert!(e.ng >= 1.0);
        }
        assert_eq!(reln.entry(0).ng, 2.0, "growth sphere from the top-1 probe");
    }

    #[test]
    fn lookups_count_fallback_probes_in_radius_mode() {
        // A radius below every nearest-neighbor distance forces the
        // fallback top-1 probe on all 7 tuples: each lookup costs the
        // empty radius fetch + the fallback + the growth probe. The old
        // accounting hardcoded `lookups = n`; the real count must exceed n
        // and expose the fallbacks explicitly.
        let idx = integers();
        let n = 7u64;
        let (_, stats) =
            compute_nn_reln(&idx, NeighborSpec::Radius(0.5), LookupOrder::Sequential, 2.0);
        assert!(stats.lookups > n, "fallback probes must be counted: {}", stats.lookups);
        assert_eq!(stats.fallback_probes, n, "one fallback per empty radius fetch");
        assert_eq!(stats.lookups, 3 * n, "radius fetch + fallback + growth probe per tuple");
        // Top-k mode on the same data needs no fallbacks.
        let (_, stats) = compute_nn_reln(&idx, NeighborSpec::TopK(3), LookupOrder::Sequential, 2.0);
        assert_eq!(stats.fallback_probes, 0);
    }

    #[test]
    fn bf_stats_report_queue_high_water() {
        let idx = integers();
        let (_, bf) =
            compute_nn_reln(&idx, NeighborSpec::TopK(3), LookupOrder::breadth_first(), 2.0);
        assert!(bf.bf_queue_high_water > 0, "BF on connected data queues neighbors");
        let (_, seq) = compute_nn_reln(&idx, NeighborSpec::TopK(3), LookupOrder::Sequential, 2.0);
        assert_eq!(seq.bf_queue_high_water, 0);
    }

    #[test]
    fn bf_order_produces_same_reln() {
        let idx = integers();
        let (seq, _) = compute_nn_reln(&idx, NeighborSpec::TopK(3), LookupOrder::Sequential, 2.0);
        let (bf, stats) =
            compute_nn_reln(&idx, NeighborSpec::TopK(3), LookupOrder::breadth_first(), 2.0);
        let (rnd, _) = compute_nn_reln(&idx, NeighborSpec::TopK(3), LookupOrder::Random(9), 2.0);
        assert_eq!(seq, bf, "lookup order must not change the result");
        assert_eq!(seq, rnd);
        assert_eq!(stats.visit_order.len(), 7);
    }

    #[test]
    fn exact_duplicates_get_ng_one() {
        let idx = MatrixIndex::from_points_1d(&[5.0, 5.0, 9.0]);
        let (reln, _) = compute_nn_reln(&idx, NeighborSpec::TopK(2), LookupOrder::Sequential, 2.0);
        assert_eq!(reln.entry(0).ng, 1.0);
        assert_eq!(reln.entry(1).ng, 1.0);
        assert_eq!(reln.entry(0).nn_dist(), Some(0.0));
    }

    #[test]
    fn singleton_relation() {
        let idx = MatrixIndex::from_points_1d(&[3.0]);
        let (reln, _) = compute_nn_reln(&idx, NeighborSpec::TopK(5), LookupOrder::Sequential, 2.0);
        assert_eq!(reln.len(), 1);
        assert!(reln.entry(0).neighbors.is_empty());
        assert_eq!(reln.entry(0).ng, 1.0);
    }

    #[test]
    #[should_panic(expected = "p must be >= 1")]
    fn bad_p_panics() {
        let idx = integers();
        compute_nn_reln(&idx, NeighborSpec::TopK(2), LookupOrder::Sequential, 0.5);
    }
}
