//! The §4.5.2 post-pass against the reference, on groups deep enough to
//! split: `core::minimality::enforce_minimality` must return the partition
//! `fuzzydedup-reference` computes from the definition, group for group.
//!
//! The relations are 1-D points drawn as nested clusters: clusters of
//! clusters, each level ten to forty times wider than the one inside it,
//! with pairs (so pairs of pairs, the §4.5.2 shape), single points and
//! classes of 4–48 exact copies at the leaves. Ids are shuffled, so a
//! group's least member sits anywhere in it. Phase 2 runs with no cut and a
//! lenient `c`, which groups whole clusters; the post-pass then has deep
//! families of compact subsets to split.

use fuzzydedup_core::minimality::enforce_minimality;
use fuzzydedup_core::{
    compute_nn_reln, partition_entries, Aggregation, CutSpec, MatrixIndex, NeighborSpec, NnReln,
};
use fuzzydedup_nnindex::LookupOrder;
use fuzzydedup_reference as reference;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Points past this many stop the drawing.
const MAX_POINTS: usize = 64;

/// Append a cluster centred at `at`, of width about `span`, to `points`.
fn cluster(rng: &mut StdRng, at: f64, span: f64, depth: u32, points: &mut Vec<f64>) {
    if points.len() >= MAX_POINTS {
        return;
    }
    let jitter = |rng: &mut StdRng| span * rng.gen_range(0.0..0.2);
    match rng.gen_range(0..6) {
        0 => points.push(at),
        1 => points.extend([at, at + span * rng.gen_range(0.5..1.0)]),
        2 => {
            let copies = rng.gen_range(4..=48);
            points.extend(std::iter::repeat_n(at, copies));
        }
        _ if depth == 0 => points.extend([at, at + span]),
        _ => {
            let inner = span / rng.gen_range(10.0..40.0);
            for part in 0..rng.gen_range(2..=3) {
                let at = at + part as f64 * span + jitter(rng);
                cluster(rng, at, inner, depth - 1, points);
            }
        }
    }
}

/// Well-separated top-level clusters, in shuffled id order.
fn points(rng: &mut StdRng) -> Vec<f64> {
    let mut points = Vec::new();
    for top in 0..rng.gen_range(1..=3) {
        cluster(rng, top as f64 * 1e7, 1e4, 3, &mut points);
    }
    for i in (1..points.len()).rev() {
        points.swap(i, rng.gen_range(0..=i));
    }
    points
}

/// The reference's view of a relation: the same lists, the same growths.
fn reference_relation(reln: &NnReln) -> Vec<reference::Entry> {
    reln.entries()
        .iter()
        .map(|e| reference::Entry {
            neighbors: e.neighbors.iter().map(|nb| (nb.id, nb.dist)).collect(),
            ng: e.ng,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_post_pass_is_the_references_on_nested_clusters(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let points = points(&mut rng);
        let n = points.len();
        let index = MatrixIndex::from_points_1d(&points);
        let spec = NeighborSpec::TopK(n.saturating_sub(1));
        let (reln, _) = compute_nn_reln(&index, spec, LookupOrder::Sequential, 2.0);
        let merged = partition_entries(&reln, CutSpec::Unbounded, Aggregation::Max, 1e9);
        let got = enforce_minimality(&reln, &merged);
        let want = reference::enforce_minimality(&reference_relation(&reln), merged.groups());
        prop_assert_eq!(got.groups(), &want[..], "points {:?}\nmerged {:?}", points, merged.groups());
    }
}
