//! Property-based integration tests of the §3.1 axioms (Lemmas 1–4) over
//! randomized metric relations.
//!
//! The Lemmas are properties of `DE` itself, so each is checked here, once,
//! on the paper's definitions written naively in `fuzzydedup-reference`.
//! Every partition a property reads first holds the production pipeline
//! over the same relation to that definition: an axiom checked only
//! against the production Phase 2 would check it against itself.

use fuzzydedup::core::{
    compute_nn_reln, partition_entries, Aggregation, CutSpec, MatrixIndex, NeighborSpec, Partition,
};
use fuzzydedup::datagen::numeric::paper_integers;
use fuzzydedup::nnindex::{LookupOrder, NnIndex};
use fuzzydedup_reference as reference;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn points_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..1000.0, 3..20)
}

fn reference_cut(cut: CutSpec) -> reference::Cut {
    match cut {
        CutSpec::Size(k) => reference::Cut::Size(k),
        CutSpec::Diameter(theta) => reference::Cut::Diameter(theta),
        CutSpec::SizeAndDiameter(k, theta) => reference::Cut::SizeAndDiameter(k, theta),
        CutSpec::Unbounded => reference::Cut::Unbounded,
    }
}

/// `DE` over `m` by the definitions: the NN relation at `p = 2` and its
/// partition.
fn definition(m: &MatrixIndex, cut: CutSpec, c: f64) -> (Vec<reference::Entry>, Partition) {
    let d = reference::Matrix::from_fn(m.len(), |a, b| m.dist(a, b));
    let cut = reference_cut(cut);
    let relation = reference::nn_relation(&d, |_, _| true, cut.spec(m.len()), 2.0);
    let groups = reference::partition(&relation, &d, cut, reference::Agg::Max, c);
    (relation, Partition::from_groups(m.len(), groups))
}

/// `DE` over `m` as the production pipeline computes it: Phase 1 visiting
/// the tuples in `order` at `p = 2`, then Phase 2.
fn de_on_matrix(m: &MatrixIndex, cut: CutSpec, c: f64, order: LookupOrder) -> Partition {
    let (reln, _) = compute_nn_reln(m, NeighborSpec::from_cut(&cut, m.len()), order, 2.0);
    partition_entries(&reln, cut, Aggregation::Max, c)
}

/// `DE_S(K)` / `DE_D(θ)` with max-aggregated growth below `c`, by the
/// definitions — after checking that the production pipeline agrees.
fn de(m: &MatrixIndex, cut: CutSpec, c: f64) -> Partition {
    let (_, want) = definition(m, cut, c);
    assert_eq!(de_on_matrix(m, cut, c, LookupOrder::Sequential), want, "production ≠ definition");
    want
}

/// Lemma 1: one partition, whatever order Phase 1 visits the tuples in —
/// the definition's.
fn check_uniqueness(points: &[f64], cuts: &[CutSpec]) {
    let m = MatrixIndex::from_points_1d(points);
    for &cut in cuts {
        let (_, want) = definition(&m, cut, 4.0);
        for order in [
            LookupOrder::Sequential,
            LookupOrder::Random(0xDED0),
            LookupOrder::Random(0xDED1),
            LookupOrder::breadth_first(),
        ] {
            assert_eq!(de_on_matrix(&m, cut, 4.0, order), want, "{cut:?} in {order:?}");
        }
    }
}

/// Whether every pairwise distance of `m` is distinct (the paper's standing
/// assumption; with ties the `(distance, id)` rule depends on the labels).
fn distinct_distances(m: &MatrixIndex) -> bool {
    let mut d: Vec<f64> = (0..m.len() as u32)
        .flat_map(|a| (a + 1..m.len() as u32).map(move |b| (a, b)))
        .map(|(a, b)| m.dist(a, b))
        .collect();
    d.sort_by(f64::total_cmp);
    d.windows(2).all(|w| w[0] != w[1])
}

/// Realize `sizes` on the line: group `i` is a run of points `1e-3` apart
/// starting at `i · 1e3`. Returns the relation and the target partition.
fn realize(sizes: &[usize]) -> (MatrixIndex, Partition) {
    let mut points = Vec::new();
    let mut groups = Vec::new();
    for (i, &size) in sizes.iter().enumerate() {
        groups.push((0..size).map(|j| (points.len() + j) as u32).collect());
        points.extend((0..size).map(|j| i as f64 * 1e3 + j as f64 * 1e-3));
    }
    let n = points.len();
    (MatrixIndex::from_points_1d(&points), Partition::from_groups(n, groups))
}

#[test]
fn de_d_is_not_scale_invariant() {
    // The §3 integers: DE_D(θ) compares diameters with an absolute θ, so
    // a ×100 rescale changes its partition (Lemma 2 is about DE_S alone).
    let m = MatrixIndex::from_points_1d(&paper_integers());
    let cut = CutSpec::Diameter(2.5);
    assert_ne!(de(&m.scaled(100.0), cut, 4.0), de(&m, cut, 4.0));
}

#[test]
fn richness_recovers_realized_partitions_of_small_groups() {
    // Lemma 4: DE_S(K) reaches every partition into small groups, each
    // through some distance function — here the realization on the line.
    // All singletons need the SN criterion to do the work (any finite
    // relation has a mutual-nearest pair, so CS alone cannot forbid every
    // group): at c = 1 no group is sparse enough.
    for (sizes, k, c) in [
        (&[2, 2, 2, 1, 3][..], 3, 10.0),
        (&[1, 1, 1, 1], 2, 1.0),
        (&[3, 3, 3], 3, 10.0),
        (&[2; 10], 4, 10.0),
        (&[2, 2, 3, 1, 2], 3, 10.0),
        (&[2; 12], 4, 10.0),
    ] {
        let (m, target) = realize(sizes);
        assert_eq!(de(&m, CutSpec::Size(k), c), target, "sizes {sizes:?}, K = {k}, c = {c}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn uniqueness_holds_on_random_relations(points in points_strategy()) {
        check_uniqueness(&points, &[CutSpec::Size(4), CutSpec::Diameter(10.0)]);
    }

    #[test]
    fn uniqueness_holds_under_distance_ties(grid in prop::collection::vec(0u32..40, 3..20)) {
        // Integer points: equal distances everywhere, and equal points at
        // distance 0.
        let points: Vec<f64> = grid.iter().map(|&x| f64::from(x)).collect();
        check_uniqueness(
            &points,
            &[CutSpec::Size(3), CutSpec::Size(4), CutSpec::Diameter(5.0), CutSpec::Diameter(10.0)],
        );
    }

    #[test]
    fn scale_invariance_holds_for_de_s(points in points_strategy(), alpha in 0.001f64..1000.0) {
        let m = MatrixIndex::from_points_1d(&points);
        prop_assert_eq!(de(&m.scaled(alpha), CutSpec::Size(4), 4.0), de(&m, CutSpec::Size(4), 4.0));
    }

    #[test]
    fn split_merge_consistency_holds(
        points in points_strategy(),
        shrink in 0.1f64..=1.0,
        expand in 1.0f64..8.0,
    ) {
        let m = MatrixIndex::from_points_1d(&points);
        let p = de(&m, CutSpec::Size(4), 4.0);
        // The P-conscious transform: shrink within P's groups, expand
        // across them.
        let t = m.transformed(|a, b, d| if p.are_together(a, b) { d * shrink } else { d * expand });
        for a in 0..points.len() as u32 {
            for b in 0..points.len() as u32 {
                if p.are_together(a, b) {
                    prop_assert!(t.dist(a, b) <= m.dist(a, b), "({a}, {b}) grew within a group");
                } else {
                    prop_assert!(t.dist(a, b) >= m.dist(a, b), "({a}, {b}) shrank across groups");
                }
            }
        }
        let q = de(&t, CutSpec::Size(4), 4.0);
        for g in q.groups() {
            let inside_one = g.iter().all(|&id| p.group_index_of(id) == p.group_index_of(g[0]));
            let union_of_groups =
                g.iter().all(|&id| p.group_of(id).iter().all(|other| g.contains(other)));
            prop_assert!(inside_one || union_of_groups, "group {:?} of {:?}", g, q.groups());
        }
    }

    #[test]
    fn permutation_equivariance_holds(points in points_strategy(), seed in any::<u64>()) {
        // f(π(d)) = π(f(d)): DE reads no label beyond the tie rule, so on
        // distinct distances relabeling the tuples relabels the partition.
        let m = MatrixIndex::from_points_1d(&points);
        prop_assume!(distinct_distances(&m));
        let n = points.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        let mut inverse = vec![0u32; n];
        for (old, &new) in perm.iter().enumerate() {
            inverse[new as usize] = old as u32;
        }
        let permuted = MatrixIndex::from_fn(n, |a, b| m.dist(inverse[a as usize], inverse[b as usize]));
        for cut in [CutSpec::Size(3), CutSpec::Diameter(25.0)] {
            let p = de(&m, cut, 4.0);
            let relabeled = Partition::from_groups(
                n,
                p.groups().iter().map(|g| g.iter().map(|&id| perm[id as usize]).collect()),
            );
            prop_assert_eq!(de(&permuted, cut, 4.0), relabeled, "{:?} under {:?}", cut, perm);
        }
    }

    #[test]
    fn partitions_cover_the_relation(points in points_strategy()) {
        let m = MatrixIndex::from_points_1d(&points);
        let p = de(&m, CutSpec::Size(4), 4.0);
        prop_assert_eq!(p.n(), points.len());
        let covered: usize = p.groups().iter().map(Vec::len).sum();
        prop_assert_eq!(covered, points.len());
        // Groups respect the size cut.
        prop_assert!(p.groups().iter().all(|g| g.len() <= 4));
    }

    #[test]
    fn diameter_cut_is_respected(points in points_strategy(), theta in 0.5f64..50.0) {
        let m = MatrixIndex::from_points_1d(&points);
        let p = de(&m, CutSpec::Diameter(theta), 6.0);
        for g in p.groups() {
            for (i, &a) in g.iter().enumerate() {
                for &b in &g[i + 1..] {
                    prop_assert!(m.dist(a, b) <= theta,
                        "group {:?} violates diameter {}", g, theta);
                }
            }
        }
    }

    #[test]
    fn every_duplicate_group_satisfies_both_criteria(points in points_strategy()) {
        let m = MatrixIndex::from_points_1d(&points);
        let cut = CutSpec::Size(4);
        let (reln, _) = compute_nn_reln(
            &m,
            NeighborSpec::from_cut(&cut, points.len()),
            LookupOrder::Sequential,
            2.0,
        );
        let (relation, p) = definition(&m, cut, 4.0);
        for (got, want) in reln.entries().iter().zip(&relation) {
            let neighbors: Vec<(u32, f64)> = got.neighbors.iter().map(|n| (n.id, n.dist)).collect();
            prop_assert_eq!(&neighbors, &want.neighbors);
            prop_assert_eq!(got.ng, want.ng);
        }
        for g in p.duplicate_groups() {
            prop_assert!(reference::is_compact(&relation, g), "non-compact group {:?}", g);
            prop_assert!(
                reference::is_sparse(&relation, g, reference::Agg::Max, 4.0),
                "dense group {:?}",
                g
            );
        }
    }

    #[test]
    fn stricter_sn_threshold_never_adds_pairs(points in points_strategy()) {
        let m = MatrixIndex::from_points_1d(&points);
        let loose = de(&m, CutSpec::Size(4), 8.0);
        let strict = de(&m, CutSpec::Size(4), 3.0);
        // Monotonicity of the SN criterion in c: every group admitted at
        // c=3 is admitted at c=8, so strict pairs ⊆ loose pairs... note the
        // greedy anchor choice makes this subtle; we check the weaker and
        // always-true invariant that pair *counts* do not increase.
        prop_assert!(strict.num_duplicate_pairs() <= loose.num_duplicate_pairs());
    }
}
