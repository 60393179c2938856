//! The tripwire: every micro-measurement the docs rest a claim on, as a
//! claim `subject ≤ max_ratio × control` timed in this one process.
//!
//! An absolute baseline cannot be compared with on a box whose cores flip
//! between two clock speeds 1.43× apart, so none is committed: the control
//! *is* the baseline. Subject and control run alternately in short rounds
//! (A B A B …) and each side reads the minimum over its rounds, so both
//! meet the fast clock at least once (`benchmark/src/calib.rs`'s pattern).
//! What a ratio cannot see — everything slowing together — the repo
//! benchmark's end-to-end cells on parent/change pairs see. Each
//! `max_ratio` is the claim as DESIGN.md states it, not today's reading.
//!
//! `cargo run --release -p fuzzydedup-bench --bin tripwire` (`scripts/ci.sh
//! --stage tripwire`) prints one table row per claim and, as the last line
//! of standard output, the same rows as a JSON array; exits 1 when a claim
//! fails.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fuzzydedup_core::{
    compute_nn_reln, partition_entries, partition_entries_parallel, partition_via_tables,
    Aggregation, CollapseKey, CollapseMap, CutSpec, NeighborSpec,
};
use fuzzydedup_datagen::{org, restaurants, DatasetSpec};
use fuzzydedup_metrics::json::JsonArray;
use fuzzydedup_nnindex::{
    InvertedIndex, InvertedIndexConfig, LookupOrder, LookupSpec, NestedLoopIndex, NnIndex,
    PostingsSource,
};
use fuzzydedup_storage::{BufferPool, BufferPoolConfig, InMemoryDisk, PageId};
use fuzzydedup_textdist::{
    myers_bounded_chars, myers_chars, record_string, Candidate, CompiledRecords, Distance,
    EditDistance, FuzzyMatchDistance, IdfModel,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rounds per side; a reading is the minimum over them.
const ROUNDS: usize = 7;

/// What one side may spend per round: a side whose single call is shorter
/// repeats it to fill this, a longer one runs once.
const ROUND_BUDGET: Duration = Duration::from_millis(100);

/// One side of a claim: one unit of work, its results passed through
/// `black_box`.
type Side<'a> = &'a mut dyn FnMut();

/// `subject ≤ max_ratio × control`.
struct Claim<'a> {
    name: String,
    max_ratio: f64,
    subject: Side<'a>,
    control: Side<'a>,
}

/// A judged claim, as printed and as written to `ci_summary.json`.
struct Row {
    name: String,
    subject_ns: f64,
    control_ns: f64,
    ratio: f64,
    max_ratio: f64,
    /// `None` is a pass.
    failure: Option<String>,
}

/// Mean nanoseconds per call over `calls` back-to-back calls.
fn round(side: Side<'_>, calls: u32) -> f64 {
    let start = Instant::now();
    (0..calls).for_each(|_| side());
    start.elapsed().as_nanos() as f64 / f64::from(calls)
}

/// Calls of `side` that fill `budget`, from one call that also warms
/// caches and lazy set-up.
fn calibrate(side: Side<'_>, budget: Duration) -> u32 {
    (budget.as_nanos() as f64 / round(side, 1).max(1.0)).clamp(1.0, 1e6) as u32
}

/// The one timing loop: subject and control alternately, `ROUNDS` times.
fn run(claim: Claim<'_>, budget: Duration) -> Row {
    let Claim { name, max_ratio, subject, control } = claim;
    let subject_calls = calibrate(subject, budget);
    let control_calls = calibrate(control, budget);
    let mut subject_rounds = Vec::with_capacity(ROUNDS);
    let mut control_rounds = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        subject_rounds.push(round(subject, subject_calls));
        control_rounds.push(round(control, control_calls));
    }
    judge(name, max_ratio, &subject_rounds, &control_rounds)
}

/// The verdict on one claim from each side's per-round readings (ns).
fn judge(name: String, max_ratio: f64, subject_rounds: &[f64], control_rounds: &[f64]) -> Row {
    // `f64::min` skips a NaN operand, which would hide a broken reading.
    let min = |rounds: &[f64]| {
        rounds.iter().copied().fold(f64::INFINITY, |a, b| if b < a || b.is_nan() { b } else { a })
    };
    let (subject_ns, control_ns) = (min(subject_rounds), min(control_rounds));
    let ratio = subject_ns / control_ns;
    let positive = |ns: f64| ns.is_finite() && ns > 0.0;
    let failure = if !positive(control_ns) {
        Some(format!("control reading {control_ns} ns is not a positive time"))
    } else if !positive(subject_ns) {
        Some(format!("subject reading {subject_ns} ns is not a positive time"))
    } else if ratio > max_ratio {
        Some(format!("ratio {ratio:.3} exceeds {max_ratio}"))
    } else {
        None
    };
    Row { name, subject_ns, control_ns, ratio, max_ratio, failure }
}

fn render_header() -> String {
    format!(
        "{:<36} {:>14} {:>14} {:>8} {:>6}  verdict",
        "claim", "subject_ns", "control_ns", "ratio", "max"
    )
}

fn render_row(r: &Row) -> String {
    let verdict = match &r.failure {
        None => "ok".to_string(),
        Some(why) => format!("FAIL: {why}"),
    };
    format!(
        "{:<36} {:>14.1} {:>14.1} {:>8.3} {:>6.2}  {verdict}",
        r.name, r.subject_ns, r.control_ns, r.ratio, r.max_ratio
    )
}

fn rows_json(rows: &[Row]) -> String {
    let mut arr = JsonArray::new();
    for r in rows {
        arr.push_object(|o| {
            o.str("name", &r.name)
                .f64_fixed("subject_ns", r.subject_ns, 1)
                .f64_fixed("control_ns", r.control_ns, 1)
                .f64_fixed("ratio", r.ratio, 4)
                .f64("max_ratio", r.max_ratio)
                .str("verdict", if r.failure.is_none() { "ok" } else { "FAIL" });
        });
    }
    arr.finish()
}

impl Claim<'_> {
    /// Time and judge the claim where it is stated, so that only one
    /// group's corpus is alive at a time.
    fn check(self, rows: &mut Vec<Row>) {
        let row = run(self, ROUND_BUDGET);
        println!("{}", render_row(&row));
        rows.push(row);
    }
}

/// The first `n` records of the seed-42 Org relation of shape `spec`.
fn org_records(spec: DatasetSpec, n: usize) -> Vec<Vec<String>> {
    let mut records = org::generate(&mut StdRng::seed_from_u64(42), spec).records;
    assert!(records.len() >= n, "need {n} Org records, got {}", records.len());
    records.truncate(n);
    records
}

fn in_memory_pool(frames: usize) -> Arc<BufferPool> {
    Arc::new(BufferPool::new(
        BufferPoolConfig::with_capacity(frames),
        Arc::new(InMemoryDisk::new()),
    ))
}

/// The control of the `myers <= dp` rows: the classic two-row DP
/// Levenshtein over caller-provided row buffers, the shorter side on the
/// rows.
fn two_row_dp(bufs: &mut (Vec<usize>, Vec<usize>), a: &[char], b: &[char]) -> usize {
    let (a, b) = if a.len() < b.len() { (b, a) } else { (a, b) };
    if b.is_empty() {
        return a.len();
    }
    let (prev, cur) = (&mut bufs.0, &mut bufs.1);
    prev.clear();
    prev.extend(0..=b.len());
    cur.clear();
    cur.resize(b.len() + 1, 0);
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(prev, cur);
    }
    prev[b.len()]
}

/// DESIGN §7.2: the bit-parallel kernel against the DP it replaced, and the
/// k-bounded exit against the unbounded scan. 32 pairs per length of a
/// random string and a near-duplicate of it (every tenth char replaced, one
/// appended to every other): 64 is the single-word path, 256 the blocked.
fn edit_kernel(rows: &mut Vec<Row>) {
    type CharPair = (Vec<char>, Vec<char>);
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz 0123456789";
    let mut rng = StdRng::seed_from_u64(42);
    let mut pairs_of = |len: usize| -> Vec<CharPair> {
        (0..32)
            .map(|pair| {
                let a: Vec<char> =
                    (0..len).map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char).collect();
                let mut b = a.clone();
                b.iter_mut().skip(3).step_by(10).for_each(|slot| *slot = '#');
                b.extend((pair % 2 == 1).then_some('x'));
                (a, b)
            })
            .collect()
    };
    fn over<R>(pairs: &[CharPair], mut f: impl FnMut(&[char], &[char]) -> R) {
        pairs.iter().for_each(|(a, b)| drop(black_box(f(a, b))));
    }
    for len in [64, 256] {
        let pairs = pairs_of(len);
        let mut bufs = (Vec::new(), Vec::new());
        Claim {
            name: format!("myers/{len} <= dp/{len}"),
            max_ratio: 0.25,
            subject: &mut || over(&pairs, myers_chars),
            control: &mut || over(&pairs, |a, b| two_row_dp(&mut bufs, a, b)),
        }
        .check(rows);
        if len == 256 {
            // The verification regime: a tight bound abandons most pairs
            // within a few columns.
            Claim {
                name: "myers_bounded_k2/256 <= myers/256".into(),
                max_ratio: 0.5,
                subject: &mut || over(&pairs, |a, b| myers_bounded_chars(a, b, 2)),
                control: &mut || over(&pairs, myers_chars),
            }
            .check(rows);
        }
    }
}

/// DESIGN §7.6: one lookup's worth of verification — a prepared query, 256
/// compiled Org candidates at cutoff 0.6 — through the chunk kernel in the
/// driver's flushes of 32, against the same candidates one at a time
/// through the scalar rung. One row per lane kind: the first query of ≤ 64
/// chars rides word lanes, the first longer one blocked (and window) lanes.
/// An AVX2 intrinsic that stopped inlining reads ≈ 4× here.
fn chunk_kernel(rows: &mut Vec<Row>) {
    const CANDIDATES: usize = 256;
    const FLUSH: usize = 32;
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    // What §7.6 states for the instance that runs here.
    let (lanes, max_ratio) = if avx2 { ("avx2", 0.7) } else { ("u64x4", 1.1) };

    let records =
        org::generate(&mut StdRng::seed_from_u64(42), DatasetSpec::with_entities(256)).records;
    let store = CompiledRecords::compile(&EditDistance, &records);
    let fields = |id: usize| records[id].iter().map(String::as_str).collect::<Vec<&str>>();
    let first = |long: bool| {
        (0..records.len())
            .find(|&id| (record_string(&fields(id)).chars().count() > 64) == long)
            .expect("Org has records on both sides of 64 chars")
    };
    for (kind, query) in [("word", first(false)), ("blocked", first(true))] {
        let candidates: Vec<Candidate> = (0..records.len())
            .filter(|&id| id != query)
            .take(CANDIDATES)
            .map(|id| store.candidate(id, &records[id]))
            .collect();
        let mut batched = EditDistance.prepare(&fields(query));
        let mut scalar = EditDistance.prepare(&fields(query));
        let mut out = Vec::new();
        Claim {
            name: format!("chunk[{lanes}]/{kind} <= scalar/{kind}"),
            max_ratio,
            subject: &mut || {
                for flush in candidates.chunks(FLUSH) {
                    batched.distance_bounded_batch(black_box(flush), 0.6, &mut out);
                    black_box(&out);
                }
            },
            control: &mut || {
                for &candidate in &candidates {
                    black_box(scalar.distance_bounded(black_box(candidate), 0.6));
                }
            },
        }
        .check(rows);
    }
}

/// DESIGN §7.5: one lookup's worth of fms verification — prepare a
/// Restaurants query, then 256 compiled candidates at cutoff 1.0, each
/// distinct token pair scanned once — against the same 256 pairs through
/// the unprepared `Distance::distance`, which prepares its query per pair
/// and takes both decompositions from its memo.
fn fms_verification(rows: &mut Vec<Row>) {
    const CANDIDATES: usize = 256;
    let records =
        restaurants::generate(&mut StdRng::seed_from_u64(42), DatasetSpec::with_entities(300))
            .records;
    assert!(records.len() > CANDIDATES, "need {CANDIDATES} candidates beside the query");
    let fms = FuzzyMatchDistance::new(IdfModel::fit_records(&records));
    let store = CompiledRecords::compile(&fms, &records);
    let fields: Vec<Vec<&str>> =
        records.iter().map(|r| r.iter().map(String::as_str).collect()).collect();
    let candidates = 1..=CANDIDATES;
    Claim {
        name: format!("fms prepared/{CANDIDATES} <= fms distance/{CANDIDATES}"),
        max_ratio: 0.3,
        subject: &mut || {
            let mut prepared = fms.prepare(&fields[0]);
            for id in candidates.clone() {
                let candidate = store.candidate(id, &records[id]);
                black_box(prepared.distance_bounded(black_box(candidate), 1.0));
            }
        },
        control: &mut || {
            for id in candidates.clone() {
                black_box(fms.distance(&fields[0], black_box(&fields[id])));
            }
        },
    }
    .check(rows);
}

/// DESIGN §7.7 (postings in memory against pages) and §7.4 (Phase 2's
/// paths), on one 10k-record Org corpus. Candidate generation: the full merge + score +
/// truncate over the same 64 queries, the only variable being where
/// postings come from. Phase 2: the relation is `TopK(8)` / `Size(8)` —
/// more prefix work per tuple than the default cut.
fn candidates_and_phase2(rows: &mut Vec<Row>) {
    const CORPUS: usize = 10_000;
    let records = org_records(DatasetSpec::with_entities(8200), CORPUS);
    let build = |source| {
        InvertedIndex::build(
            records.clone(),
            EditDistance,
            in_memory_pool(1024),
            InvertedIndexConfig { postings_source: source, ..Default::default() },
        )
    };
    let mut rng = StdRng::seed_from_u64(7);
    let queries: Vec<u32> = (0..64).map(|_| rng.gen_range(0..CORPUS) as u32).collect();
    let generate = |index: &InvertedIndex<EditDistance>| {
        queries.iter().for_each(|&id| drop(black_box(index.generate_candidates(id))))
    };
    let memory = build(PostingsSource::Memory);
    {
        let pages = build(PostingsSource::Pages);
        assert!(!pages.generate_candidates(queries[0]).is_empty());
        Claim {
            name: "candgen memory <= pages".into(),
            max_ratio: 1.0,
            subject: &mut || generate(&memory),
            control: &mut || generate(&pages),
        }
        .check(rows);
    }

    let (reln, _) = compute_nn_reln(&memory, NeighborSpec::TopK(8), LookupOrder::Sequential, 2.0);
    drop(memory);
    let cut = CutSpec::Size(8);
    let naive = || partition_entries(&reln, cut, Aggregation::Max, 4.0);
    let components = || partition_entries_parallel(&reln, cut, Aggregation::Max, 4.0, 1);
    assert_eq!(naive(), components());
    Claim {
        name: "phase2 components(1) <= naive".into(),
        max_ratio: 0.8,
        subject: &mut || drop(black_box(components())),
        control: &mut || drop(black_box(naive())),
    }
    .check(rows);
    // The relational path writes, joins and sorts page records: a
    // constant factor above the in-memory path, not a different growth
    // order.
    let pool = in_memory_pool(4096);
    Claim {
        name: "phase2 via_tables <= components".into(),
        max_ratio: 30.0,
        subject: &mut || {
            let tables = partition_via_tables(&reln, cut, Aggregation::Max, 4.0, pool.clone());
            black_box(tables.expect("in-memory tables"));
        },
        control: &mut || drop(black_box(components())),
    }
    .check(rows);
}

/// DESIGN §7.10: everything the collapse path adds at run time — hash the
/// corpus into exact-duplicate classes, weighted Phase 1 over the
/// representatives, expand back to full ids — against Phase 1 over the
/// full corpus, half of which is exact re-emission (`dup_rate(0.5)`). Both
/// indexes are built outside the timed region.
fn phase1_collapse(rows: &mut Vec<Row>) {
    const CORPUS: usize = 1_600;
    let records = org_records(DatasetSpec::with_entities(660).dup_rate(0.5), CORPUS);
    let map = CollapseMap::build(&records, CollapseKey::RecordString);
    let config = InvertedIndexConfig::default;
    let full = InvertedIndex::build(records.clone(), EditDistance, in_memory_pool(64), config());
    let reps = InvertedIndex::build_collapsed(
        map.rep_records(&records),
        map.multiplicities().to_vec(),
        EditDistance,
        in_memory_pool(64),
        config(),
    );
    let sibling_visible: Vec<bool> =
        (0..map.n_reps() as u32).map(|r| reps.record_has_terms(r)).collect();
    let spec = NeighborSpec::TopK(5);
    let order = LookupOrder::Sequential;
    let off = || compute_nn_reln(&full, spec, order, 2.0).0;
    let on = || {
        let map = CollapseMap::build(&records, CollapseKey::RecordString);
        let (rep_reln, _) = compute_nn_reln(&reps, spec, order, 2.0);
        map.expand_reln(&rep_reln, spec, &sibling_visible)
    };
    // A collapse that changed the partition would not be worth timing.
    let partition = |reln| partition_entries(&reln, CutSpec::Size(5), Aggregation::Max, 4.0);
    assert_eq!(partition(off()), partition(on()), "collapse changed the partition");
    Claim {
        name: "phase1 collapse_on <= collapse_off".into(),
        max_ratio: 0.7,
        subject: &mut || drop(black_box(on())),
        control: &mut || drop(black_box(off())),
    }
    .check(rows);
}

/// DESIGN §6 ablation 4: 64 top-5 lookups through the inverted index
/// against the same lookups over the exact nested-loop scan, 2,000 Org
/// entities. Both verify through the one bounded, batched driver, so the
/// index's lead is what its candidate gather spares.
fn nn_index(rows: &mut Vec<Row>) {
    let records =
        org::generate(&mut StdRng::seed_from_u64(3), DatasetSpec::with_entities(2000)).records;
    let inverted = InvertedIndex::build(
        records.clone(),
        EditDistance,
        in_memory_pool(64),
        InvertedIndexConfig::default(),
    );
    let nested = NestedLoopIndex::new(records, EditDistance);
    let lookups = |index: &dyn NnIndex| {
        (0..64u32).for_each(|id| drop(black_box(index.lookup(id, LookupSpec::TopK(5), 2.0))))
    };
    Claim {
        name: "lookup inverted <= nested_loop".into(),
        max_ratio: 0.35,
        subject: &mut || lookups(&inverted),
        control: &mut || lookups(&nested),
    }
    .check(rows);
}

/// DESIGN §4 (Figure 8's cost model): 64 page reads with every page
/// resident against the same reads through a pool a quarter the size of
/// the working set, where each one evicts.
fn buffer_pool(rows: &mut Vec<Row>) {
    let make = |frames: usize| -> (Arc<BufferPool>, Vec<PageId>) {
        let pool = in_memory_pool(frames);
        let ids = (0..64).map(|_| pool.allocate_page()).collect();
        (pool, ids)
    };
    let read_all = |(pool, ids): &(Arc<BufferPool>, Vec<PageId>)| {
        for &id in ids {
            pool.with_page(id, |p| black_box(p.slot_count())).expect("allocated page");
        }
    };
    let (resident, thrashing) = (make(64), make(16));
    Claim {
        name: "pool hits <= thrash".into(),
        max_ratio: 0.5,
        subject: &mut || read_all(&resident),
        control: &mut || read_all(&thrashing),
    }
    .check(rows);
}

fn main() {
    let started = Instant::now();
    let mut rows = Vec::new();
    println!("{}", render_header());
    edit_kernel(&mut rows);
    chunk_kernel(&mut rows);
    fms_verification(&mut rows);
    candidates_and_phase2(&mut rows);
    phase1_collapse(&mut rows);
    nn_index(&mut rows);
    buffer_pool(&mut rows);
    let failed = rows.iter().filter(|r| r.failure.is_some()).count();
    eprintln!(
        "tripwire: {} of {} claims hold ({:.0} s)",
        rows.len() - failed,
        rows.len(),
        started.elapsed().as_secs_f64()
    );
    println!("{}", rows_json(&rows));
    std::process::exit(i32::from(failed > 0));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn judged(max_ratio: f64, subject: &[f64], control: &[f64]) -> Row {
        judge("row".into(), max_ratio, subject, control)
    }

    #[test]
    fn the_boundary_passes_and_the_next_representable_ratio_fails() {
        let at = judged(1.5, &[3.0], &[2.0]);
        assert_eq!(at.ratio, 1.5);
        assert!(at.failure.is_none(), "ratio == max_ratio holds the claim");
        // Halving is exact, so this ratio is the next f64 above 1.5.
        let above = judged(1.5, &[f64::from_bits(3.0f64.to_bits() + 1)], &[2.0]);
        assert_eq!(above.ratio, f64::from_bits(1.5f64.to_bits() + 1));
        assert!(above.failure.is_some());
    }

    #[test]
    fn a_control_that_is_not_a_positive_time_fails_with_a_message() {
        for control in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            // Under every bound, including ones a 0/0 or x/inf would slip by.
            for max_ratio in [0.5, f64::INFINITY] {
                let row = judged(max_ratio, &[1.0, 1.0], &[control, control]);
                let why = row.failure.expect("never a pass");
                assert!(why.contains("control reading"), "{control}: {why}");
            }
        }
        // A NaN in any round is the reading, whichever rounds surround it.
        for rounds in [[f64::NAN, 1.0, 1.0], [1.0, f64::NAN, 1.0], [1.0, 1.0, f64::NAN]] {
            assert!(judged(2.0, &[1.0], &rounds).failure.is_some());
            assert!(judged(2.0, &rounds, &[1.0]).failure.expect("no pass").contains("subject"));
        }
    }

    #[test]
    fn readings_are_minima_so_a_slow_round_of_either_side_changes_nothing() {
        let quiet = judged(0.6, &[50.0; 7], &[100.0; 7]);
        assert!(quiet.failure.is_none());
        for slow in 0..7 {
            let mut subject = [50.0; 7];
            subject[slow] = 900.0;
            let row = judged(0.6, &subject, &[100.0; 7]);
            assert_eq!((row.subject_ns, row.ratio), (50.0, 0.5));
            assert!(row.failure.is_none(), "a stall in the subject's round {slow} failed it");
            // A stalled control must not excuse a subject that is too slow.
            let mut control = [100.0; 7];
            control[slow] = 900.0;
            let row = judged(0.6, &[70.0; 7], &control);
            assert_eq!((row.control_ns, row.ratio), (100.0, 0.7));
            assert!(row.failure.is_some(), "a stall in the control's round {slow} passed it");
        }
    }

    #[test]
    fn the_table_and_the_json_carry_every_claim() {
        let rows = [
            judged(0.5, &[10.0], &[40.0]),
            Row { name: "second \"quoted\"".into(), ..judged(0.5, &[30.0], &[40.0]) },
            Row { name: "third".into(), ..judged(0.5, &[1.0], &[0.0]) },
        ];
        let table: Vec<String> = rows.iter().map(render_row).collect();
        assert!(table[0].starts_with("row ") && table[0].ends_with("  ok"), "{}", table[0]);
        assert!(table[1].contains("0.750") && table[1].contains("FAIL: ratio 0.750 exceeds 0.5"));
        assert!(table[2].contains("FAIL: control reading 0 ns"), "{}", table[2]);
        assert_eq!(render_header().find("verdict"), table[0].rfind("ok"), "columns line up");
        assert_eq!(
            rows_json(&rows),
            "[{\"name\": \"row\", \"subject_ns\": 10.0, \"control_ns\": 40.0, \"ratio\": 0.2500, \
             \"max_ratio\": 0.5, \"verdict\": \"ok\"}, \
             {\"name\": \"second \\\"quoted\\\"\", \"subject_ns\": 30.0, \"control_ns\": 40.0, \
             \"ratio\": 0.7500, \"max_ratio\": 0.5, \"verdict\": \"FAIL\"}, \
             {\"name\": \"third\", \"subject_ns\": 1.0, \"control_ns\": 0.0, \"ratio\": null, \
             \"max_ratio\": 0.5, \"verdict\": \"FAIL\"}]"
        );
    }

    /// End to end through the timing loop: a subject that is its control
    /// run twice reads ≈ 2, which fails a claim of 1.5 and holds one of 2.5.
    #[test]
    fn a_subject_twice_its_control_fails_at_one_and_a_half_and_passes_at_two_and_a_half() {
        let work = || {
            black_box((0..20_000).fold(1u64, |x, i| black_box(x.wrapping_mul(31).wrapping_add(i))));
        };
        for (max_ratio, holds) in [(1.5, false), (2.5, true)] {
            let claim = Claim {
                name: "twice".into(),
                max_ratio,
                subject: &mut || (0..2).for_each(|_| work()),
                control: &mut || work(),
            };
            let row = run(claim, Duration::from_micros(200));
            assert_eq!(row.failure.is_none(), holds, "ratio {} against {max_ratio}", row.ratio);
        }
    }
}
