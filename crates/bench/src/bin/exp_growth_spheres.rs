//! Experiment F1 — Figure 1 / the §3 integers example.
//!
//! Prints, for the relation `{1, 2, 4, 20, 22, 30, 32}` with
//! `d(a,b) = |a−b|`, each tuple's nearest-neighbor distance `nn(v)`, its
//! growth sphere radius `2·nn(v)`, and its neighborhood growth `ng(v)`;
//! then shows how the *initial* DE formulation (no cut) collapses the
//! relation into a single group while the cut formulations recover the
//! intuitive `{1,2,4}, {20,22}, {30,32}`.
//!
//! Run with: `cargo run --release -p fuzzydedup-bench --bin exp_growth_spheres`

use fuzzydedup_core::{
    compute_nn_reln, partition_entries, Aggregation, CutSpec, MatrixIndex, NeighborSpec, Partition,
};
use fuzzydedup_datagen::numeric::{paper_integers, paper_integers_gold};
use fuzzydedup_nnindex::{LookupOrder, NnIndex};

/// `DE` over `idx` with max-aggregated growth below `c`: Phase 1 in id
/// order at `p = 2`, then the partition.
fn de(idx: &MatrixIndex, cut: CutSpec, c: f64) -> Partition {
    let spec = NeighborSpec::from_cut(&cut, idx.len());
    let (reln, _) = compute_nn_reln(idx, spec, LookupOrder::Sequential, 2.0);
    partition_entries(&reln, cut, Aggregation::Max, c)
}

fn main() {
    let points = paper_integers();
    let idx = MatrixIndex::from_points_1d(&points);
    let (reln, _) =
        compute_nn_reln(&idx, NeighborSpec::TopK(points.len() - 1), LookupOrder::Sequential, 2.0);

    println!("Relation: {points:?}   (d(a,b) = |a-b|, p = 2)");
    println!("{:>5} {:>7} {:>8} {:>10} {:>6}", "id", "value", "nn(v)", "2*nn(v)", "ng(v)");
    for e in reln.entries() {
        let nn = e.nn_dist().unwrap_or(f64::NAN);
        println!(
            "{:>5} {:>7} {:>8.1} {:>10.1} {:>6.0}",
            e.id,
            points[e.id as usize],
            nn,
            2.0 * nn,
            e.ng
        );
    }

    println!("\nInitial formulation (no cut), AGG=max, c=2 ... 8:");
    for c in [2.0, 3.0, 4.0, 8.0] {
        let p = de(&idx, CutSpec::Unbounded, c);
        println!("  c={c:<4} groups={:?}", p.groups());
    }
    println!("\nWith a lenient c the whole relation collapses (the paper's warning):");
    let p = de(&idx, CutSpec::Unbounded, 100.0);
    println!("  c=100  groups={:?}", p.groups());

    println!("\nCut formulations recover the intuitive partition {:?}:", paper_integers_gold());
    let p = de(&idx, CutSpec::Size(3), 4.0);
    println!("  DE_S(3), c=4:   groups={:?}", p.groups());
    let p = de(&idx, CutSpec::Diameter(3.5), 4.0);
    println!("  DE_D(3.5), c=4: groups={:?}", p.groups());
}
