//! Property test: the in-memory Phase 2 (`partition_entries`), the
//! component-parallel Phase 2 (`partition_entries_parallel`), and the
//! SQL-shaped relational Phase 2 (`partition_via_tables`) are the same
//! function.
//!
//! The relational path re-derives the compact-set and sparse-neighborhood
//! checks through unnest / self-join / sort / group operators over the
//! paged substrate, and the parallel path processes CS-pair connected
//! components on worker threads; any divergence from the in-memory
//! reference is a bug in one of the three. We drive all of them over
//! randomized metric relations and every [`CutSpec`] variant.

use std::sync::Arc;

use fuzzydedup::core::{
    compute_nn_reln, partition_entries, partition_entries_parallel, partition_via_tables,
    Aggregation, CutSpec, MatrixIndex, NeighborSpec,
};
use fuzzydedup::nnindex::LookupOrder;
use fuzzydedup::storage::{BufferPool, BufferPoolConfig, InMemoryDisk};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn fresh_pool(frames: usize) -> Arc<BufferPool> {
    Arc::new(BufferPool::new(
        BufferPoolConfig::with_capacity(frames),
        Arc::new(InMemoryDisk::new()),
    ))
}

/// Every cut-specification shape, sized for an `n`-tuple relation with
/// coordinates in `[0, span)`.
fn all_cuts(n: usize, span: f64) -> Vec<CutSpec> {
    vec![
        CutSpec::Size(2),
        CutSpec::Size(4),
        CutSpec::Size(n.max(2)),
        CutSpec::Diameter(span * 0.01),
        CutSpec::Diameter(span * 0.1),
        CutSpec::SizeAndDiameter(3, span * 0.05),
        CutSpec::Unbounded,
    ]
}

fn assert_paths_agree(points: &[f64], span: f64, label: &str) {
    let idx = MatrixIndex::from_points_1d(points);
    for cut in all_cuts(points.len(), span) {
        let (reln, _) = compute_nn_reln(
            &idx,
            NeighborSpec::from_cut(&cut, points.len()),
            LookupOrder::Sequential,
            2.0,
        );
        for agg in [Aggregation::Max, Aggregation::Avg, Aggregation::Max2] {
            for c in [2.0, 4.0] {
                let mem = partition_entries(&reln, cut, agg, c);
                let tab = partition_via_tables(&reln, cut, agg, c, fresh_pool(16))
                    .expect("relational phase 2");
                assert_eq!(mem, tab, "{label}: cut {cut:?}, agg {agg:?}, c {c} diverged");
                for threads in [2, 4] {
                    let par = partition_entries_parallel(&reln, cut, agg, c, threads);
                    assert_eq!(
                        mem, par,
                        "{label}: cut {cut:?}, agg {agg:?}, c {c}, {threads} threads diverged"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn table_path_matches_in_memory_path_on_random_relations(
        points in prop::collection::vec(0.0f64..1000.0, 2..24),
    ) {
        assert_paths_agree(&points, 1000.0, "uniform");
    }
}

#[test]
fn table_path_matches_on_clustered_relations() {
    // Uniform point clouds rarely produce multi-tuple duplicate groups;
    // plant tight clusters so the compact-set machinery on both paths is
    // genuinely exercised (including ties and exact duplicates).
    let mut rng = StdRng::seed_from_u64(0xF022);
    for trial in 0..10 {
        let n_clusters = rng.gen_range(1..6);
        let mut points = Vec::new();
        for _ in 0..n_clusters {
            let center = rng.gen_range(0.0..500.0);
            for _ in 0..rng.gen_range(1..5) {
                points.push(center + rng.gen_range(0.0..2.0));
            }
        }
        // A few exact duplicates (zero-distance pairs stress tie-breaks).
        if points.len() > 1 {
            let dup = points[rng.gen_range(0..points.len())];
            points.push(dup);
        }
        assert_paths_agree(&points, 500.0, &format!("clustered trial {trial}"));
    }
}

#[test]
fn table_path_matches_when_an_nn_list_outgrows_a_page() {
    // 700 points inside θ of one another: every NN list holds 699
    // neighbors, 8,404 bytes in `NN_Reln`'s record format against a page's
    // 8,184 — the relation chunks across records where a one-record-per-
    // tuple table returned `RecordTooLarge`. (The size bound keeps the
    // candidate groups small; the lists are what must be long.)
    let points: Vec<f64> = (0..700).map(|i| f64::from(i) * 1e-4).collect();
    let idx = MatrixIndex::from_points_1d(&points);
    let cut = CutSpec::SizeAndDiameter(5, 0.5);
    let spec = NeighborSpec::from_cut(&cut, points.len());
    let (reln, _) = compute_nn_reln(&idx, spec, LookupOrder::Sequential, 2.0);
    assert_eq!(reln.entry(0).neighbors.len(), 699);
    let par = partition_entries_parallel(&reln, cut, Aggregation::Max, 4.0, 2);
    let tab = partition_via_tables(&reln, cut, Aggregation::Max, 4.0, fresh_pool(16))
        .expect("relational phase 2");
    assert_eq!(par, tab);
}
