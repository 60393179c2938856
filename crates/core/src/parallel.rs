//! Parallel Phase 1: multi-threaded nearest-neighbor materialization.
//!
//! The paper's Phase 1 is a sequential scan in breadth-first order because
//! its win is *buffer locality* against a disk-resident index. When the
//! index is memory-resident (the common modern deployment), Phase 1 is
//! embarrassingly parallel instead: every tuple's NN list is an
//! independent query. [`compute_nn_reln_parallel`] shards the id space
//! over scoped threads and produces a result *identical* to the
//! sequential computation (the NN lists do not depend on lookup order —
//! the same fact Lemma 1's uniqueness rests on).
//!
//! This is an engineering extension beyond the paper; every batch
//! workload of the repo benchmark runs it on two threads, and every epoch
//! of the dedup service re-runs it on one thread per CPU
//! ([`crate::incremental`]).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use fuzzydedup_metrics::{absorb, incr, scoped, Counter};
use fuzzydedup_nnindex::NnIndex;

use crate::nnreln::{NnEntry, NnReln};
use crate::phase1::{NeighborSpec, Phase1Stats};

/// Resolve a thread-count knob against the number of work items: `0`
/// means one thread per available CPU, and the result is clamped to
/// `[1, n_items.max(1)]` so degenerate inputs never over-spawn. Shared by
/// the Phase-1 sharder and the Phase-2 component scheduler.
pub fn resolve_threads(n_threads: usize, n_items: usize) -> usize {
    let threads = if n_threads == 0 {
        std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1)
    } else {
        n_threads
    };
    threads.max(1).min(n_items.max(1))
}

/// Run `work(i)` for every `i` in `0..n` on `threads` scoped workers and
/// return the results in index order: the work-stealing dispenser behind
/// the parallel Phase-1 drive. Static range sharding strands workers
/// when lookup costs are skewed (duplicate-dense neighborhoods verify far
/// more candidates than sparse ones); a shared cursor over fixed blocks
/// keeps every worker busy until the index space drains. ~8 blocks per
/// worker amortizes the cursor contention while leaving enough granules to
/// rebalance; the cap keeps tail blocks short on huge corpora. Which
/// worker claims which block never shows in the result — every item is an
/// independent query — nor in what the caller counts: each worker hands
/// its metrics tally back through its join handle and the caller absorbs
/// it, so `work`'s `incr`s land in the scopes the caller has open.
fn steal_blocks<T: Send + Sync>(
    n: usize,
    threads: usize,
    work: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    let block = n.div_ceil(threads * 8).clamp(1, 1024);
    let n_blocks = n.div_ceil(block);
    let next_block = AtomicUsize::new(0);
    let drain = || loop {
        let b = next_block.fetch_add(1, Ordering::Relaxed);
        if b >= n_blocks {
            break;
        }
        incr(Counter::Phase1StealBlocks, 1);
        let start = b * block;
        let end = (start + block).min(n);
        for (i, slot) in slots.iter().enumerate().take(end).skip(start) {
            let claimed = slot.set(work(i)).is_ok();
            debug_assert!(claimed, "item {i} computed twice");
        }
    };
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads).map(|_| scope.spawn(|| scoped(drain).1)).collect();
        for worker in workers {
            absorb(&worker.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
    });
    slots.into_iter().map(|slot| slot.into_inner().expect("all items computed")).collect()
}

/// Compute one tuple's `NN_Reln` entry (shared by the sequential and
/// parallel drivers) via the index's combined lookup.
pub(crate) fn compute_entry(index: &dyn NnIndex, spec: NeighborSpec, p: f64, id: u32) -> NnEntry {
    let (neighbors, ng, _) = index.lookup(id, spec.into(), p);
    NnEntry::new(id, neighbors, ng)
}

/// Compute `NN_Reln` using `n_threads` worker threads (`0` = one per
/// available CPU). Produces exactly the same relation as
/// [`crate::phase1::compute_nn_reln`] (`visit_order` stays empty:
/// interleaved parallel lookups have no meaningful single order).
pub fn compute_nn_reln_parallel(
    index: &dyn NnIndex,
    spec: NeighborSpec,
    p: f64,
    n_threads: usize,
) -> (NnReln, Phase1Stats) {
    assert!(p >= 1.0, "growth multiplier p must be >= 1, got {p}");
    let n = index.len();
    let threads = resolve_threads(n_threads, n);

    let entries = steal_blocks(n, threads, |id| compute_entry(index, spec, p, id as u32));
    let reln = NnReln::new(entries);
    let stats = Phase1Stats {
        lookups: n as u64,
        fallback_probes: 0,
        bf_queue_high_water: 0,
        visit_order: Vec::new(),
    };
    (reln, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::MatrixIndex;
    use crate::phase1::compute_nn_reln;
    use fuzzydedup_nnindex::LookupOrder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(n: usize, seed: u64) -> MatrixIndex {
        let mut rng = StdRng::seed_from_u64(seed);
        let points: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1000.0)).collect();
        MatrixIndex::from_points_1d(&points)
    }

    #[test]
    fn matches_sequential_for_topk() {
        let idx = random_matrix(200, 1);
        let (seq, seq_stats) =
            compute_nn_reln(&idx, NeighborSpec::TopK(5), LookupOrder::Sequential, 2.0);
        for threads in [1, 2, 4, 0] {
            let (par, stats) = compute_nn_reln_parallel(&idx, NeighborSpec::TopK(5), 2.0, threads);
            assert_eq!(seq, par, "threads={threads}");
            assert_eq!(stats.lookups, seq_stats.lookups, "threads={threads}");
            assert!(stats.visit_order.is_empty());
        }
    }

    #[test]
    fn matches_sequential_for_radius() {
        let idx = random_matrix(150, 2);
        let (seq, seq_stats) =
            compute_nn_reln(&idx, NeighborSpec::Radius(20.0), LookupOrder::Sequential, 2.0);
        let (par, stats) = compute_nn_reln_parallel(&idx, NeighborSpec::Radius(20.0), 2.0, 3);
        assert_eq!(seq, par);
        assert_eq!(stats.lookups, seq_stats.lookups);
    }

    #[test]
    fn degenerate_sizes() {
        let idx = random_matrix(1, 3);
        let (par, _) = compute_nn_reln_parallel(&idx, NeighborSpec::TopK(3), 2.0, 8);
        assert_eq!(par.len(), 1);
        let empty = MatrixIndex::new(vec![]);
        let (par, stats) = compute_nn_reln_parallel(&empty, NeighborSpec::TopK(3), 2.0, 4);
        assert!(par.is_empty());
        assert_eq!(stats.lookups, 0);
    }

    #[test]
    fn more_threads_than_items() {
        let idx = random_matrix(3, 4);
        let (par, _) = compute_nn_reln_parallel(&idx, NeighborSpec::TopK(2), 2.0, 64);
        assert_eq!(par.len(), 3);
    }

    #[test]
    #[should_panic(expected = "p must be >= 1")]
    fn bad_p_panics() {
        let idx = random_matrix(4, 5);
        compute_nn_reln_parallel(&idx, NeighborSpec::TopK(2), 0.0, 2);
    }

    #[test]
    fn phase2_is_parallel_safe() {
        // Mirror of the Phase-1 tests above for the component-parallel
        // partitioner: thread counts {1, 2, 4, 0} must all reproduce the
        // sequential partition bit-for-bit, across cut shapes and
        // aggregations.
        use crate::criteria::Aggregation;
        use crate::phase2::{partition_entries, partition_entries_parallel};
        use crate::problem::CutSpec;

        let idx = random_matrix(300, 7);
        for cut in [
            CutSpec::Size(3),
            CutSpec::Size(6),
            CutSpec::Diameter(15.0),
            CutSpec::SizeAndDiameter(4, 25.0),
            CutSpec::Unbounded,
        ] {
            let (reln, _) = compute_nn_reln(
                &idx,
                NeighborSpec::from_cut(&cut, 300),
                LookupOrder::Sequential,
                2.0,
            );
            for agg in [Aggregation::Max, Aggregation::Avg, Aggregation::Max2] {
                for c in [2.5, 6.0] {
                    let seq = partition_entries(&reln, cut, agg, c);
                    for threads in [1, 2, 4, 0] {
                        let par = partition_entries_parallel(&reln, cut, agg, c, threads);
                        assert_eq!(
                            seq, par,
                            "cut={cut:?} agg={agg:?} c={c} threads={threads} diverged"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn phase2_parallel_more_threads_than_components() {
        use crate::criteria::Aggregation;
        use crate::phase2::{partition_entries, partition_entries_parallel};
        use crate::problem::CutSpec;

        // Two tight clusters -> at most a handful of CS-pair components;
        // 64 workers must leave most shards empty without deadlocking.
        let points = [1.0, 1.1, 1.2, 50.0, 50.1, 50.2];
        let idx = MatrixIndex::from_points_1d(&points);
        let cut = CutSpec::Size(3);
        let (reln, _) = compute_nn_reln(
            &idx,
            NeighborSpec::from_cut(&cut, points.len()),
            LookupOrder::Sequential,
            2.0,
        );
        let seq = partition_entries(&reln, cut, Aggregation::Max, 6.0);
        let par = partition_entries_parallel(&reln, cut, Aggregation::Max, 6.0, 64);
        assert_eq!(seq, par);
        assert!(par.are_together(0, 1), "{:?}", par.groups());
    }

    #[test]
    fn phase2_parallel_single_giant_component() {
        use crate::criteria::Aggregation;
        use crate::phase2::{cs_pair_components, partition_entries, partition_entries_parallel};
        use crate::problem::CutSpec;

        // Degenerate case: one evenly-spaced chain is a single connected
        // CS-pair component — no parallelism available. The scheduler must
        // put the whole component on one worker, not deadlock, and still
        // match the sequential partition exactly.
        let points: Vec<f64> = (0..120).map(|i| i as f64 * 0.5).collect();
        let idx = MatrixIndex::from_points_1d(&points);
        let cut = CutSpec::Unbounded;
        let (reln, _) = compute_nn_reln(
            &idx,
            NeighborSpec::from_cut(&cut, points.len()),
            LookupOrder::Sequential,
            2.0,
        );
        let comps = cs_pair_components(&reln, cut.max_group_size(points.len()));
        assert_eq!(comps.len(), 1, "chain must form one giant component");
        let seq = partition_entries(&reln, cut, Aggregation::Max, 100.0);
        for threads in [2, 4, 0] {
            let par = partition_entries_parallel(&reln, cut, Aggregation::Max, 100.0, threads);
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn inverted_index_is_parallel_safe() {
        // Candidate generation accumulates on a thread-local
        // scoreboard, zero between lookups; parallel workers must produce the
        // byte-identical relation the sequential drive produces.
        use fuzzydedup_nnindex::{InvertedIndex, InvertedIndexConfig};
        use fuzzydedup_storage::{BufferPool, BufferPoolConfig, InMemoryDisk};
        use fuzzydedup_textdist::EditDistance;
        use std::sync::Arc;

        let records: Vec<Vec<String>> = (0..120)
            .map(|i| {
                let s = match i % 3 {
                    0 => format!("customer record number {i:03}"),
                    1 => format!("customer record numbr {i:03}"),
                    _ => format!("unrelated payload {i:03}"),
                };
                vec![s]
            })
            .collect();
        let pool = Arc::new(BufferPool::new(
            BufferPoolConfig::with_capacity(64),
            Arc::new(InMemoryDisk::new()),
        ));
        let idx = InvertedIndex::build(records, EditDistance, pool, InvertedIndexConfig::default());
        for spec in [NeighborSpec::TopK(4), NeighborSpec::Radius(0.2)] {
            let (seq, _) = compute_nn_reln(&idx, spec, LookupOrder::Sequential, 2.0);
            for threads in [2, 4, 0] {
                let (par, _) = compute_nn_reln_parallel(&idx, spec, 2.0, threads);
                assert_eq!(seq, par, "spec={spec:?} threads={threads}");
            }
        }
    }

    const POISON: &str = "poison";

    /// `ed`, except that `prepare` panics on a query carrying [`POISON`].
    struct PanicsOnPoison;

    impl fuzzydedup_textdist::Distance for PanicsOnPoison {
        fn distance(&self, a: &[&str], b: &[&str]) -> f64 {
            fuzzydedup_textdist::EditDistance.distance(a, b)
        }
        fn admits_qgram_filter(&self) -> bool {
            fuzzydedup_textdist::EditDistance.admits_qgram_filter()
        }
        fn prepare<'a>(&'a self, query: &[&str]) -> fuzzydedup_textdist::Prepared<'a> {
            assert!(!query.iter().any(|f| f.contains(POISON)), "prepare met the poison record");
            fuzzydedup_textdist::EditDistance.prepare(query)
        }
        fn compile_record(
            &self,
            fields: &[&str],
            store: &mut fuzzydedup_textdist::CompiledRecords,
        ) {
            fuzzydedup_textdist::EditDistance.compile_record(fields, store)
        }
        fn name(&self) -> &str {
            "panics-on-poison"
        }
    }

    /// A lookup whose `prepare` panics, on one of Phase 1's workers or on
    /// the sequential drive, unwinds to the caller with the distance's own
    /// message: `steal_blocks` re-raises the first panic it joins, and
    /// neither drive hangs or hands back a relation.
    #[test]
    fn a_panicking_prepare_unwinds_to_the_caller() {
        use fuzzydedup_nnindex::{InvertedIndex, InvertedIndexConfig};
        use fuzzydedup_storage::{BufferPool, BufferPoolConfig, InMemoryDisk};
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::{mpsc, Arc};
        use std::time::Duration;

        let records: Vec<Vec<String>> = (0..120)
            .map(|i| match i {
                77 => vec![format!("customer record number {i:03} {POISON}")],
                _ => vec![format!("customer record number {i:03}")],
            })
            .collect();
        let pool = Arc::new(BufferPool::new(
            BufferPoolConfig::with_capacity(64),
            Arc::new(InMemoryDisk::new()),
        ));
        let idx = Arc::new(InvertedIndex::build(
            records,
            PanicsOnPoison,
            pool,
            InvertedIndexConfig::default(),
        ));
        let spec = NeighborSpec::TopK(3);
        type Drive = fn(&dyn NnIndex, NeighborSpec) -> NnReln;
        let drives: [(&str, Drive); 2] = [
            ("parallel, 2 threads", |idx, spec| compute_nn_reln_parallel(idx, spec, 2.0, 2).0),
            ("sequential", |idx, spec| compute_nn_reln(idx, spec, LookupOrder::Sequential, 2.0).0),
        ];
        for (name, drive) in drives {
            let (sent, received) = mpsc::channel();
            let idx = Arc::clone(&idx);
            // On a thread of its own, so that a hang fails the test.
            let driver = std::thread::spawn(move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| drive(&*idx, spec)));
                let _ = sent.send(outcome.map_err(|panic| {
                    panic
                        .downcast_ref::<&str>()
                        .map(|m| m.to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                }));
            });
            let outcome = received.recv_timeout(Duration::from_secs(120)).expect(name);
            driver.join().expect("the panic was caught on the driving thread");
            match outcome {
                Ok(reln) => panic!("{name}: returned a relation of {} entries", reln.len()),
                Err(message) => {
                    assert_eq!(message.as_deref(), Some("prepare met the poison record"), "{name}")
                }
            }
        }
    }
}
