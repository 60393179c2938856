//! Scale-out driver: the full two-phase pipeline on a synthetic Org
//! relation up to 1M records, with every memory-hungry intermediate
//! behind bounded storage.
//!
//! The paper runs its scalability experiment (Figure 9) to 3M rows on a
//! database server; this driver is our equivalent at workstation scale:
//!
//! - **work-stealing Phase 1** — `--threads` workers drain the id space
//!   through the shared block dispenser (`fuzzydedup_core::parallel`);
//! - **bounded buffer pool on real disk** — `--frames` 8 KiB frames over
//!   a temporary [`FileDisk`] carry the postings heap file, Phase-2
//!   tables, and the `NN_Reln` spill, so the relation's resident
//!   footprint is capped regardless of corpus size;
//! - **`NN_Reln` spill** — above `--spill-threshold` tuples the Phase-1
//!   result round-trips through heap pages (`fuzzydedup_core::spill`)
//!   before Phase 2 reads it back (bit-exact by construction);
//! - **peak RSS in the metrics** — the emitted `RunMetrics` JSON carries
//!   `spill.peak_rss_bytes` (VmHWM, or sampled VmRSS on kernels that
//!   omit the high-water mark), the bounded-memory evidence.
//!
//! Run with e.g.:
//!
//! ```text
//! cargo run --release -p fuzzydedup-bench --bin exp_scale_1m -- \
//!     --records 1000000 --threads 0 --frames 16384 --spill-threshold 100000
//! ```
//!
//! `--records 50000` is the CI smoke configuration (`scripts/ci.sh`,
//! stage `scale-smoke`). The default cut is `DE_D(0.15)` — a tight radius
//! lets the length and q-gram count filters spare most candidates their
//! distance call; `--cut size:5` selects the paper's `DE_S(K)` shape
//! instead.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fuzzydedup_core::{CutSpec, DedupConfig, Deduplicator, Parallelism};
use fuzzydedup_datagen::{org, DatasetSpec};
use fuzzydedup_storage::{BufferPool, BufferPoolConfig, FileDisk};
use fuzzydedup_textdist::DistanceKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn parse_cut(s: &str) -> CutSpec {
    match s.split_once(':') {
        Some(("size", k)) => CutSpec::Size(k.parse().expect("--cut size:<K>")),
        Some(("diameter", t)) => CutSpec::Diameter(t.parse().expect("--cut diameter:<theta>")),
        _ => panic!("--cut size:<K> | diameter:<theta>, got {s}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut records_n: usize = 1_000_000;
    let mut threads: usize = 0;
    let mut frames: usize = 16_384;
    let mut spill_threshold: usize = 100_000;
    let mut cut = CutSpec::Diameter(0.15);
    let mut out_path: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--records" => {
                i += 1;
                records_n = args[i].parse().expect("--records <n>");
            }
            "--threads" => {
                i += 1;
                threads = args[i].parse().expect("--threads <n> (0 = all cores)");
            }
            "--frames" => {
                i += 1;
                frames = args[i].parse().expect("--frames <n>");
            }
            "--spill-threshold" => {
                i += 1;
                spill_threshold = args[i].parse().expect("--spill-threshold <tuples>");
            }
            "--cut" => {
                i += 1;
                cut = parse_cut(&args[i]);
            }
            "--out" => {
                i += 1;
                out_path = Some(args[i].clone());
            }
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }

    // The standard Org shape yields ≈ 1.22 records per entity (20% of
    // entities duplicated, geometric group tail), so inflate and truncate
    // to hit the requested count exactly.
    let entities = records_n * 82 / 100;
    eprintln!("[exp_scale_1m] generating {records_n} Org records ({entities} entities)...");
    let t_gen = Instant::now();
    let mut rng = StdRng::seed_from_u64(42);
    let dataset =
        org::generate(&mut rng, DatasetSpec { n_entities: entities, ..DatasetSpec::medium() });
    let mut records = dataset.records;
    assert!(records.len() >= records_n, "need {records_n} records, got {}", records.len());
    records.truncate(records_n);
    eprintln!("[exp_scale_1m] generated in {:.1?}", t_gen.elapsed());

    // Bounded pool over a real temp file: index pages, Phase-2 tables,
    // and the NN_Reln spill all live behind `frames` frames of memory.
    let db_path = std::env::temp_dir()
        .join(format!("fuzzydedup_scale_{}_{records_n}.db", std::process::id()));
    let disk = FileDisk::create(&db_path).expect("create temp database file");
    let pool =
        Arc::new(BufferPool::new(BufferPoolConfig::with_capacity(frames.max(1)), Arc::new(disk)));

    let config = DedupConfig::new(DistanceKind::EditDistance)
        .cut(cut)
        .sn_threshold(4.0)
        .parallelism(Parallelism::threads(threads))
        .spill_threshold(spill_threshold);
    eprintln!(
        "[exp_scale_1m] running pipeline: cut={cut:?}, threads={threads} (0 = all cores), \
         frames={frames}, spill_threshold={spill_threshold}"
    );
    let t_run = Instant::now();
    let outcome =
        Deduplicator::new(config).run_records_with_pool(&records, pool).expect("pipeline");
    let wall = t_run.elapsed();

    let m = &outcome.metrics;
    eprintln!(
        "[exp_scale_1m] done in {wall:.1?}: {} records -> {} groups \
         (phase1 {:.1?}, phase2 {:.1?})",
        records_n,
        outcome.partition.num_groups(),
        Duration::from_nanos(m.timings.phase1_ns),
        Duration::from_nanos(m.timings.phase2_ns),
    );
    eprintln!(
        "[exp_scale_1m] spill: {} entries / {} bytes; peak RSS {:.2} GiB; \
         steal blocks {}; verify batches {} ({} candidates)",
        m.spill.entries,
        m.spill.bytes,
        m.spill.peak_rss_bytes as f64 / (1u64 << 30) as f64,
        m.phase1.steal_blocks,
        m.verify_batch.batches,
        m.verify_batch.batched_candidates,
    );
    let json = m.to_json();
    match out_path {
        Some(path) => {
            std::fs::write(&path, &json).expect("write metrics JSON");
            eprintln!("[exp_scale_1m] metrics written to {path}");
        }
        None => println!("{json}"),
    }
    drop(outcome);
    let _ = std::fs::remove_file(&db_path);
}
