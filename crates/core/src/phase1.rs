//! Phase 1 — nearest-neighbor list computation (§4.1, Figure 5).
//!
//! For every tuple, fetch its neighbor list (top-K or within-θ, per the cut
//! specification) and its neighborhood growth, producing [`NnReln`]. The
//! order of lookups is pluggable ([`LookupOrder`]); the breadth-first order
//! feeds each lookup's results back into the traversal queue, giving the
//! buffer-locality win of Figure 8.

use fuzzydedup_nnindex::{drive_lookups, LookupOrder, NnIndex};

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
    /// Index lookups performed: one combined lookup per tuple of the
    /// index.
    pub lookups: u64,
    /// Always 0: a combined lookup reads `nn(v)` past an empty radius list
    /// itself, so no lookup probes twice. Kept because the repo benchmark
    /// still reads it.
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
    let report = drive_lookups::<std::convert::Infallible>(n, order, |id| {
        let entry = crate::parallel::compute_entry(index, spec, p, id);
        let expansion: Vec<u32> = entry.neighbors.iter().map(|nb| nb.id).collect();
        entries[id as usize] = Some(entry);
        Ok(expansion)
    })
    .unwrap_or_else(|e| match e {});
    let entries: Vec<NnEntry> = entries.into_iter().map(|e| e.expect("every id visited")).collect();
    let stats = Phase1Stats {
        lookups: n as u64,
        fallback_probes: 0,
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
        // One combined lookup per tuple.
        assert_eq!(stats.lookups, 7);
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
        // Radius 0.5 catches nothing, but nn(v) is read past it.
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
