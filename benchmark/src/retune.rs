//! Retuning: re-partitioning an already materialized `NN_Reln` for other
//! cuts, aggregations and thresholds — the paper's "`c` is not needed until
//! Phase 2" use. Every workload ends its run with it.

use std::sync::Arc;
use std::time::Instant;

use fuzzydedup_core::{
    estimate_sn_threshold, minimality::enforce_minimality, partition_entries_parallel,
    partition_via_tables, Aggregation, NnReln,
};
use fuzzydedup_storage::{BufferPool, BufferPoolConfig, InMemoryDisk};

use crate::workload::{Workload, THREADS};

/// SN thresholds of the grid.
const RETUNE_C: [f64; 3] = [2.0, 4.0, 6.0];
/// SN aggregations of the grid.
const RETUNE_AGG: [Aggregation; 3] = [Aggregation::Max, Aggregation::Avg, Aggregation::Max2];
/// Duplicate fraction handed to the SN-threshold estimator.
const RETUNE_DUP_FRACTION: f64 = 0.2;
/// Timings of one pass over the retune grid.
pub struct RetunePass {
    pub total_s: f64,
    pub par_point_ms: Vec<f64>,
    pub tables_point_ms: Vec<f64>,
    pub minimality_s: f64,
    pub estimate_s: f64,
}

/// Re-partition a materialized `NN_Reln` over the fixed grid — the paper's
/// "`c` is not needed until Phase 2" use: every cut of the workload × three
/// aggregations × three thresholds in memory (with the minimality
/// post-pass), one SN-threshold estimate, and the workload's own cut
/// through the relational tables once per aggregation.
pub fn retune_pass(w: Workload, reln: &NnReln) -> Result<RetunePass, String> {
    let mut pass = RetunePass {
        total_s: 0.0,
        par_point_ms: Vec::new(),
        tables_point_ms: Vec::new(),
        minimality_s: 0.0,
        estimate_s: 0.0,
    };
    for cut in w.retune_cuts() {
        for agg in RETUNE_AGG {
            for c in RETUNE_C {
                let t = Instant::now();
                let partition = partition_entries_parallel(reln, cut, agg, c, THREADS);
                let par_s = t.elapsed().as_secs_f64();
                let t = Instant::now();
                let minimal = enforce_minimality(reln, &partition);
                let minimality_s = t.elapsed().as_secs_f64();
                std::hint::black_box(minimal);
                pass.par_point_ms.push(par_s * 1e3);
                pass.minimality_s += minimality_s;
                pass.total_s += par_s + minimality_s;
            }
        }
    }
    let t = Instant::now();
    let estimate = estimate_sn_threshold(&reln.ng_values(), RETUNE_DUP_FRACTION);
    pass.estimate_s = t.elapsed().as_secs_f64();
    std::hint::black_box(estimate);
    pass.total_s += pass.estimate_s;
    for agg in RETUNE_AGG {
        let pool = Arc::new(BufferPool::new(
            BufferPoolConfig::with_capacity(4096),
            Arc::new(InMemoryDisk::new()),
        ));
        let t = Instant::now();
        let partition = partition_via_tables(reln, w.cut(), agg, 4.0, pool)
            .map_err(|e| format!("retune via tables failed: {e}"))?;
        let tables_s = t.elapsed().as_secs_f64();
        std::hint::black_box(partition);
        pass.tables_point_ms.push(tables_s * 1e3);
        pass.total_s += tables_s;
    }
    Ok(pass)
}

/// `count` passes over the grid.
pub fn passes(w: Workload, reln: &NnReln, count: usize) -> Result<Vec<RetunePass>, String> {
    (0..count).map(|_| retune_pass(w, reln)).collect()
}
