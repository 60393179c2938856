#![warn(missing_docs)]

//! Nearest-neighbor indexes over string distance functions.
//!
//! Phase 1 of the paper's algorithm materializes, for every tuple, its
//! nearest neighbors (top-K for the `DE_S(K)` problem, all within radius θ
//! for `DE_D(θ)`) and its neighborhood growth. It assumes "the availability
//! of an index for efficiently answering: for any given tuple v in R, fetch
//! its nearest neighbors", citing probabilistic inverted-index-style
//! structures for edit distance and fuzzy match similarity [24, 23, 9], and
//! explicitly falls back to nested-loop methods when no index exists.
//!
//! This crate provides both:
//!
//! * [`nested_loop::NestedLoopIndex`] — the exact reference: scans the
//!   whole relation per query;
//! * [`inverted::InvertedIndex`] — an IDF-weighted inverted index over
//!   q-grams and tokens. One struct serves the batch and the streaming
//!   entry points: it grows by `push` (the incremental path queries it
//!   while it does) and `build` is push-all followed by a freeze that
//!   keeps the grown lists in memory or writes them onto **buffer-pool
//!   pages** (as in the paper, "nearest neighbor indexes ... have a
//!   structure similar to inverted indexes in IR, and are usually large"
//!   — lookups therefore hit the database buffer, which is what makes
//!   the breadth-first lookup order of §4.1.1 profitable); one merge
//!   reads all three;
//! * [`bforder`] — the lookup-order driver of Figure 5 (breadth-first
//!   expansion with a bounded queue and a visited bit vector), plus
//!   sequential and shuffled orders for the Figure-8 comparison.
//!
//! Every index family only says which records are worth verifying for a
//! query; one private lookup driver turns that into the one answer an
//! index gives — the combined lookup, by id or by content — through one
//! bounded-verification loop.
//!
//! Like the paper, we treat the (probabilistic) inverted index as if it
//! were exact; `tests/` hold every family's lookups to the paper's
//! definitions (the `fuzzydedup-reference` crate) and the experiment
//! drivers measure its recall.

pub mod bforder;
pub mod candgen;
mod driver;
pub mod inverted;
pub mod nested_loop;
mod scratch;

pub use bforder::{drive_lookups, DriveReport, LookupOrder};
pub use candgen::RecordMeta;
pub use inverted::{Frozen, Growing, InvertedIndex, InvertedIndexConfig, Layout, PostingsSource};
pub use nested_loop::NestedLoopIndex;

use candgen::CandFilter;
use driver::Query;

use fuzzydedup_metrics::{incr, Counter};
use fuzzydedup_relation::Neighbor;
use fuzzydedup_textdist::{Candidate, CompiledRecords, Distance, Prepared};

/// Cost accounting for one combined [`NnIndex::lookup`] — one probe of the
/// index, whatever the spec — reported by every implementation and
/// aggregated into `RunMetrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LookupCost {
    /// Candidates generated before verification (0 when the
    /// implementation does not expose candidate generation).
    pub candidates: u64,
    /// Exact distance evaluations spent verifying candidates. At most
    /// `candidates`: the q-gram length/count filters prune provably-far
    /// candidates before their distance call.
    pub distance_calls: u64,
}

impl LookupCost {
    /// Count this lookup and its cost on the calling thread's tally — what
    /// every lookup of this crate does before it returns.
    pub fn record(&self) {
        incr(Counter::NnLookups, 1);
        incr(Counter::NnCandidates, self.candidates);
        incr(Counter::NnExactDistCalls, self.distance_calls);
    }
}

/// A nearest-neighbor index over a fixed corpus of records with dense ids
/// `0..len`, answering the one question the paper's Phase 1 asks of it:
/// "get NN-List(v) and the number of neighbors within radius 2·NN(v) using
/// index I".
///
/// Result contract shared by all implementations, which the paper's
/// definitions (the `fuzzydedup-reference` crate) state naively and the
/// tests hold every index of this crate to:
///
/// * the query record itself is **excluded** from the neighbor list;
/// * the list is sorted ascending by `(distance, id)` — the deterministic
///   tie-break the partitioning phase relies on;
/// * `TopK(k)` keeps the first `k` of what the index sees, `Radius(θ)`
///   every neighbor at distance strictly less than θ (an index over a
///   collapsed corpus answers in representative space and keeps every
///   TopK survivor, for the caller to expand to full ids — DESIGN.md
///   §7.10);
/// * `ng(v) = |{u : d(u, v) < p · nn(v)}|` counts `v` itself, with `nn(v)`
///   the nearest distance the index sees whatever the spec (a radius list
///   may be empty while `nn(v)` lies beyond it), and is 1 when the index
///   sees nothing.
///
/// What an index *sees*: the nested-loop index every other record; the
/// inverted index every record sharing at least one indexed term with the
/// query — the probabilistic caveat the paper accepts — cut further by
/// `candidate_limit` and stop grams when those are armed.
///
/// Every index of this crate compiles its records once with the
/// verification distance ([`Distance::compile_record`]) and verifies
/// candidates from that store through the query [`Distance::prepare`]
/// compiled. An index implemented outside this crate is free to verify
/// however it likes; only the result contract above binds it.
pub trait NnIndex: Send + Sync {
    /// Number of records in the indexed corpus.
    fn len(&self) -> usize;

    /// Whether the corpus is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The combined lookup of record `id`: its neighbor list per `spec`,
    /// its neighborhood growth `ng` for multiplier `p`, and the
    /// [`LookupCost`] paid — one candidate gather and one verification
    /// pass for every index of this crate.
    fn lookup(&self, id: u32, spec: LookupSpec, p: f64) -> (Vec<Neighbor>, f64, LookupCost);
}

/// What a combined [`NnIndex::lookup`] fetches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LookupSpec {
    /// The best `k` neighbors (excluding self).
    TopK(usize),
    /// All neighbors within distance θ.
    Radius(f64),
}

/// Multiplicities of a collapsed corpus (DESIGN.md §7.10): record `id` of
/// the indexed corpus stands for `mult[id]` identical originals, so a
/// weighted lookup must treat every candidate as `mult[c]` co-located
/// records and the query itself as `self_mult` co-located records at
/// distance 0. Threading this through verification keeps the running
/// TopK k-th-best cutoff, the growth cutoff, and `ng` bit-equivalent to
/// running the same lookup over the full (uncollapsed) corpus:
///
/// * the k-th best list is seeded with `self_mult − 1` zeros (the query's
///   own duplicates are its closest "neighbors" in the full corpus) and
///   every survivor inserts `mult[c]` copies of its distance, so the
///   running k-th value equals the full corpus's k-th value at every
///   step — the weighted cutoff is never looser *or* tighter than the
///   full-corpus one, which is what makes collapse a pure win;
/// * `nn_running` starts at 0 when `self_mult ≥ 2` (the full corpus
///   reaches 0 after verifying the first duplicate; seeding it is sound
///   because the final growth threshold is `p·0 = 0` and the inclusive
///   bounded call still admits every distance-0 candidate);
/// * `ng` sums candidate multiplicities over survivors inside `p·nn`,
///   and is 1 outright when `self_mult ≥ 2` (then `nn = 0` and the
///   strict `<` count is empty, exactly as in the full corpus).
#[derive(Clone, Copy)]
pub(crate) struct LookupWeights<'a> {
    /// Per-record multiplicity of the indexed (collapsed) corpus.
    pub mult: &'a [u32],
    /// Multiplicity of the query record (`mult[id]` of the lookup).
    pub self_mult: u32,
}

impl LookupWeights<'_> {
    /// Multiplicity of candidate `c`.
    #[inline]
    fn of(&self, c: u32) -> u32 {
        self.mult[c as usize]
    }
}

/// Bounded verification of a candidate list — the one verification loop
/// in the crate, called only by the lookup driver ([`driver`]), which
/// every index family and both query flavors (the combined lookup by id,
/// the by-content probe) go through.
///
/// Every candidate is scored with the prepared query's `bounded`, passing
/// the current best-so-far as the cutoff so the k-bounded edit kernel can
/// abandon hopeless pairs early. The running cutoff is the larger of what
/// the `spec` still needs and what the growth estimate still needs:
///
/// * **TopK(k)** — the running k-th best distance (`∞` until `k`
///   candidates survive);
/// * **Radius(θ)** — θ itself;
/// * **growth** — `p · nn_running` where `nn_running` is the best distance
///   seen so far (`∞` before the first survivor), because
///   `ng(v)` counts neighbors within `p · nn(v)`.
///
/// Both running cutoffs only shrink toward their final values, and
/// `bounded` is inclusive (`Some(d)` iff `d <= cutoff`), so every
/// candidate the final answer needs survives with its exact distance — the
/// result after [`lookup_from_verified`]'s sort/filter is identical to full
/// verification. Returns the surviving neighbors (unsorted) and the number
/// of verification attempts (for [`LookupCost`] accounting: every attempt
/// is one distance call, bounded or not).
///
/// The `query` is compiled **once** via [`Distance::prepare`] from its
/// attribute strings — an indexed query's are read from the corpus, an
/// external one's are given — and every candidate is read through
/// `records` in the form the index compiled at build, so the loop itself
/// normalizes, decodes and allocates nothing per candidate. Candidates
/// whose cutoff is finite and below 1 are deferred into lock-step
/// batches (see [`Running::flush_batch`]); the rest verify immediately.
///
/// `weights` puts the cutoffs in full-corpus units when the corpus is
/// collapsed (see [`LookupWeights`]). `filter` — the q-gram length/count
/// bounds (only sound for distances with
/// [`Distance::admits_qgram_filter`]) — sits in front of the distance call
/// as a pure performance lever: it is tested **with the same running
/// cutoff** passed to `bounded`, so a pruned candidate is one the bounded
/// call would provably have rejected, and it skips the distance call (and
/// the `attempted` count) entirely.
#[allow(clippy::too_many_arguments)]
pub(crate) fn verify_candidates_bounded<D: Distance>(
    distance: &D,
    records: RecordView<'_>,
    query: Query<'_>,
    candidates: &[u32],
    spec: LookupSpec,
    p: f64,
    weights: Option<&LookupWeights<'_>>,
    filter: Option<&CandFilter<'_>>,
) -> (Vec<Neighbor>, u64) {
    let query_fields: Vec<&str> = match query {
        Query::Indexed(id) => records.records[id as usize].iter().map(String::as_str).collect(),
        Query::External(fields) => fields.to_vec(),
    };
    let mut prepared = distance.prepare(&query_fields);
    scratch::with_verify_scratch(|scratch| {
        let mut run = Running::start(spec, weights, &mut scratch.kth, candidates.len());
        for (i, &c) in candidates.iter().enumerate() {
            let cutoff = run.cutoff(p);
            if let Some(f) = filter {
                if f.prunes(i, c, cutoff) {
                    continue;
                }
            }
            // Finite sub-ratio-1 cutoffs defer into a lock-step batch at
            // the cutoff frozen from the batch's first (loosest) member;
            // everything else — the ∞ warm-up before the running cutoffs
            // tighten, and ratios the bounded ladder resolves via the
            // plain kernel anyway — verifies immediately on the scalar
            // path so tightening starts as early as possible.
            if cutoff < 1.0 {
                run.defer(c, records.candidate(c), cutoff, &mut prepared);
                continue;
            }
            run.resolve(c, prepared.bounded(records.candidate(c), cutoff));
        }
        run.flush_batch(&mut prepared);
        (run.survivors, run.attempted)
    })
}

/// Candidates accumulated per lock-step verification flush. Large enough
/// to fill the 8-lane Myers kernel several times over (so length
/// bucketing inside the batch finds same-length company), small enough
/// that the running cutoffs still tighten many times per lookup.
const VERIFY_BATCH: usize = 32;

/// The running state of one verification pass over records read as
/// `'r`: the survivors so far, the two cutoffs they tighten, the weights
/// every survivor is counted with, and the lock-step batch of deferred
/// candidates.
struct Running<'a, 'r> {
    spec: LookupSpec,
    weights: Option<&'a LookupWeights<'a>>,
    survivors: Vec<Neighbor>,
    /// Ascending running top-k distances (TopK spec only), capped at k.
    kth: &'a mut Vec<f64>,
    /// Best distance seen so far (`∞` before the first survivor).
    nn_running: f64,
    /// Distance calls paid, bounded or not.
    attempted: u64,
    /// Candidates deferred into the current lock-step batch — ids and,
    /// in step, their compiled forms — and the cutoff frozen when the
    /// first of them was deferred.
    pending: Vec<u32>,
    pending_forms: Vec<Candidate<'r>>,
    batch_cutoff: f64,
    /// The batch's results, reused across flushes.
    results: Vec<Option<f64>>,
}

impl<'a, 'r> Running<'a, 'r> {
    fn start(
        spec: LookupSpec,
        weights: Option<&'a LookupWeights<'a>>,
        kth: &'a mut Vec<f64>,
        capacity: usize,
    ) -> Self {
        let self_mult = weights.map_or(1, |w| w.self_mult);
        kth.clear();
        if self_mult >= 2 {
            if let LookupSpec::TopK(k) = spec {
                // The query's m − 1 duplicates occupy the head of the full
                // corpus's top-k at distance 0.
                kth.resize((self_mult as usize - 1).min(k), 0.0);
            }
        }
        Self {
            spec,
            weights,
            survivors: Vec::with_capacity(capacity),
            kth,
            // A query standing for m ≥ 2 identical records has nn = 0 in
            // the full corpus (its own duplicates); seeding the running nn
            // is sound — see [`LookupWeights`].
            nn_running: if self_mult >= 2 { 0.0 } else { f64::INFINITY },
            attempted: 0,
            pending: Vec::with_capacity(VERIFY_BATCH),
            pending_forms: Vec::with_capacity(VERIFY_BATCH),
            batch_cutoff: f64::INFINITY,
            results: Vec::new(),
        }
    }

    /// The cutoff the next candidate is verified at: the larger of what
    /// the spec and the growth estimate still need.
    fn cutoff(&self, p: f64) -> f64 {
        let spec_cut = match self.spec {
            LookupSpec::TopK(0) => f64::NEG_INFINITY,
            LookupSpec::TopK(k) => {
                if self.kth.len() < k {
                    f64::INFINITY
                } else {
                    self.kth[k - 1]
                }
            }
            LookupSpec::Radius(theta) => theta,
        };
        let growth_cut = p * self.nn_running; // ∞ until the first survivor
        spec_cut.max(growth_cut)
    }

    /// Record a survivor and tighten the running cutoffs. A weighted
    /// survivor inserts as many copies of its distance into the running
    /// top-k list as its multiplicity (1 for an uncollapsed corpus),
    /// exactly as its duplicates would have one by one in the full corpus.
    fn survive(&mut self, c: u32, d: f64) {
        self.survivors.push(Neighbor::new(c, d));
        self.nn_running = self.nn_running.min(d);
        if let LookupSpec::TopK(k) = self.spec {
            if k > 0 {
                let pos = self.kth.partition_point(|&x| x <= d);
                if pos < k {
                    let copies = self.weights.map_or(1, |w| w.of(c));
                    let ins = (copies as usize).min(k - pos);
                    self.kth.splice(pos..pos, std::iter::repeat_n(d, ins));
                    self.kth.truncate(k);
                }
            }
        }
    }

    /// Account for one distance call on candidate `c`: a result survives,
    /// a rejection drops it.
    fn resolve(&mut self, c: u32, result: Option<f64>) {
        self.attempted += 1;
        if let Some(d) = result {
            self.survive(c, d);
        }
    }

    /// Defer candidate `c`, read as `form` and whose own cutoff is
    /// `cutoff`, into the lock-step batch; a full batch is flushed.
    fn defer<'p>(&mut self, c: u32, form: Candidate<'r>, cutoff: f64, prepared: &mut Prepared<'p>)
    where
        'r: 'p,
    {
        if self.pending.is_empty() {
            self.batch_cutoff = cutoff;
        }
        self.pending.push(c);
        self.pending_forms.push(form);
        if self.pending.len() == VERIFY_BATCH {
            self.flush_batch(prepared);
        }
    }

    /// Verify every pending candidate against the prepared query in one
    /// lock-step batch at the cutoff frozen when the batch's **first**
    /// member was deferred, and clear the batch.
    ///
    /// Running cutoffs only shrink over the candidate order, so the frozen
    /// cutoff dominates the cutoff every later member would have seen on
    /// the scalar path: the batch is *over-inclusive*. Any extra survivor
    /// it admits has `d` above its own scalar cutoff — hence above the
    /// final `max(spec, p·nn)` threshold — and [`lookup_from_verified`]'s
    /// sort/filter discards it, while feeding it into [`Self::survive`]
    /// meanwhile only tightens the running cutoffs toward (never past)
    /// their final values. A batch rejection proves `d > batch_cutoff ≥`
    /// the member's own cutoff, so dropping the candidate is exactly what
    /// the scalar path would have done. The final relation is therefore bit-identical to unbatched
    /// verification.
    fn flush_batch<'p>(&mut self, prepared: &mut Prepared<'p>)
    where
        'r: 'p,
    {
        if self.pending.is_empty() {
            return;
        }
        incr(Counter::VerifyBatches, 1);
        incr(Counter::VerifyBatchedCandidates, self.pending.len() as u64);
        prepared.distance_bounded_batch(&self.pending_forms, self.batch_cutoff, &mut self.results);
        for i in 0..self.pending.len() {
            self.resolve(self.pending[i], self.results[i]);
        }
        self.pending.clear();
        self.pending_forms.clear();
    }
}

/// How verification reads the indexed corpus: the raw records — the query
/// side of a lookup — beside the store the index compiled them into, once,
/// with [`Distance::compile_record`], which is where candidates are read.
#[derive(Clone, Copy)]
pub(crate) struct RecordView<'r> {
    /// One slice of attribute strings per record.
    pub records: &'r [Vec<String>],
    /// The same records, compiled by the verification distance.
    pub compiled: &'r CompiledRecords,
}

impl<'r> RecordView<'r> {
    /// Record `c` as verification reads it.
    #[inline]
    pub fn candidate(self, c: u32) -> Candidate<'r> {
        self.compiled.candidate(c as usize)
    }
}

/// Shared implementation of the combined lookup over a *verified*
/// candidate list (every surviving candidate carries its exact distance,
/// self excluded, unsorted). One gather answers both the neighbor list and
/// the growth estimate, so the cost is `generated` candidates, of which
/// `attempted` reached a (possibly bounded) distance call — the rest were
/// pruned by the q-gram filters.
pub(crate) fn lookup_from_verified(
    mut verified: Vec<Neighbor>,
    generated: u64,
    attempted: u64,
    spec: LookupSpec,
    p: f64,
    weights: Option<&LookupWeights<'_>>,
) -> (Vec<Neighbor>, f64, LookupCost) {
    let cost = LookupCost { candidates: generated, distance_calls: attempted };
    sort_neighbors(&mut verified);
    let nn = verified.first().map(|n| n.dist);
    let ng = match nn {
        // A query standing for m ≥ 2 identical records has nn = 0 (its
        // own duplicates) and therefore ng = 1 under the strict `<`.
        _ if weights.is_some_and(|w| w.self_mult >= 2) => 1.0,
        Some(nn) if nn > 0.0 => {
            let within: u64 = verified
                .iter()
                .filter(|n| n.dist < p * nn)
                .map(|n| u64::from(weights.map_or(1, |w| w.of(n.id))))
                .sum();
            within as f64 + 1.0
        }
        _ => 1.0,
    };
    let neighbors = match spec {
        LookupSpec::TopK(k) => {
            // A weighted lookup keeps every survivor: `k` counts *full
            // corpus* neighbors, and the caller expands each survivor to
            // its `mult` duplicates before truncating per member — cutting
            // the representative list at `k` here could drop part of the
            // expansion the k-th full-corpus slot still needs.
            if weights.is_none() {
                verified.truncate(k);
            }
            verified
        }
        LookupSpec::Radius(theta) => {
            verified.retain(|n| n.dist < theta);
            verified
        }
    };
    cost.record();
    (neighbors, ng, cost)
}

impl<I: NnIndex + ?Sized> NnIndex for &I {
    fn len(&self) -> usize {
        (**self).len()
    }
    fn lookup(&self, id: u32, spec: LookupSpec, p: f64) -> (Vec<Neighbor>, f64, LookupCost) {
        (**self).lookup(id, spec, p)
    }
}

/// Sort a scored candidate list into the canonical result order:
/// ascending distance, ties by id.
pub(crate) fn sort_neighbors(neighbors: &mut [Neighbor]) {
    neighbors.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
}

/// The neighbor list of `index`'s combined lookup at the paper's `p = 2`.
#[cfg(test)]
pub(crate) fn neighbors(
    index: &(impl NnIndex + ?Sized),
    id: u32,
    spec: LookupSpec,
) -> Vec<Neighbor> {
    index.lookup(id, spec, 2.0).0
}

/// `n` single-field records in groups of four: a base string, two
/// one-edit variants of it, and an unrelated filler — close pairs among
/// many candidates, the regime lock-step batching has to stay lossless in.
#[cfg(test)]
pub(crate) fn near_duplicate_corpus(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| match i % 4 {
            0 => format!("golden dragon palace branch {:02}", i / 4),
            1 => format!("golden dragon palace branch {:02}x", i / 4),
            2 => format!("golden drgon palace branch {:02}", i / 4),
            _ => format!("totally different payload {i:03}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzydedup_textdist::{Distance, EditDistance};

    #[test]
    fn sort_neighbors_orders_by_distance_then_id() {
        let mut ns = vec![Neighbor::new(5, 0.5), Neighbor::new(1, 0.5), Neighbor::new(9, 0.1)];
        sort_neighbors(&mut ns);
        assert_eq!(ns.iter().map(|n| n.id).collect::<Vec<_>>(), vec![9, 1, 5]);
    }

    /// Full-verification reference for [`verify_candidates_bounded`].
    fn verify_full(records: &[Vec<String>], id: u32, candidates: &[u32]) -> Vec<Neighbor> {
        let query: Vec<&str> = records[id as usize].iter().map(String::as_str).collect();
        candidates
            .iter()
            .map(|&c| {
                let fields: Vec<&str> = records[c as usize].iter().map(String::as_str).collect();
                Neighbor::new(c, EditDistance.distance(&query, &fields))
            })
            .collect()
    }

    #[test]
    fn bounded_verification_matches_full_verification() {
        let records: Vec<Vec<String>> = [
            "the doors",
            "doors",
            "the beatles",
            "beatles the",
            "shania twain",
            "twian shania",
            "completely unrelated string of text",
            "aaliyah",
        ]
        .iter()
        .map(|s| vec![s.to_string()])
        .collect();
        let compiled = CompiledRecords::compile(&EditDistance, &records);
        let candidates: Vec<u32> = (1..records.len() as u32).collect();
        let specs = [
            LookupSpec::TopK(0),
            LookupSpec::TopK(1),
            LookupSpec::TopK(3),
            LookupSpec::TopK(100),
            LookupSpec::Radius(0.0),
            LookupSpec::Radius(0.3),
            LookupSpec::Radius(1.0),
        ];
        for spec in specs {
            for p in [1.0, 2.0, 4.0] {
                let (survivors, attempted) = verify_candidates_bounded(
                    &EditDistance,
                    RecordView { records: &records, compiled: &compiled },
                    Query::Indexed(0),
                    &candidates,
                    spec,
                    p,
                    None,
                    None,
                );
                assert_eq!(attempted, candidates.len() as u64);
                let n = candidates.len() as u64;
                let full = verify_full(&records, 0, &candidates);
                let (got_n, got_ng, _) =
                    lookup_from_verified(survivors, n, attempted, spec, p, None);
                let (want_n, want_ng, _) = lookup_from_verified(full, n, attempted, spec, p, None);
                assert_eq!(got_n, want_n, "{spec:?} p={p}");
                assert_eq!(got_ng, want_ng, "{spec:?} p={p}");
            }
        }
    }

    /// Scalar reference: the pre-batching driver — one immediate `bounded`
    /// per candidate, read from the compiled store, at its own running
    /// cutoff.
    fn verify_scalar(
        records: &[Vec<String>],
        compiled: &CompiledRecords,
        id: u32,
        candidates: &[u32],
        spec: LookupSpec,
        p: f64,
    ) -> Vec<Neighbor> {
        let query: Vec<&str> = records[id as usize].iter().map(String::as_str).collect();
        let mut prepared = EditDistance.prepare(&query);
        let mut kth: Vec<f64> = Vec::new();
        let mut run = Running::start(spec, None, &mut kth, candidates.len());
        for &c in candidates {
            let spec_cut = match spec {
                LookupSpec::TopK(0) => f64::NEG_INFINITY,
                LookupSpec::TopK(k) => {
                    if run.kth.len() < k {
                        f64::INFINITY
                    } else {
                        run.kth[k - 1]
                    }
                }
                LookupSpec::Radius(theta) => theta,
            };
            let cutoff = spec_cut.max(p * run.nn_running);
            if let Some(d) = prepared.bounded(compiled.candidate(c as usize), cutoff) {
                run.survive(c, d);
            }
        }
        run.survivors
    }

    #[test]
    fn batched_driver_recall_identity_with_scalar_driver() {
        // Recall identity: the batching driver must reproduce the scalar
        // driver's final NN lists and growth estimates bit-for-bit. A
        // duplicate-heavy corpus well past VERIFY_BATCH forces several
        // ragged flushes per lookup and survivors *inside* batches.
        let records: Vec<Vec<String>> =
            near_duplicate_corpus(200).into_iter().map(|s| vec![s]).collect();
        let compiled = CompiledRecords::compile(&EditDistance, &records);
        let specs = [
            LookupSpec::TopK(1),
            LookupSpec::TopK(5),
            LookupSpec::Radius(0.25),
            LookupSpec::Radius(0.6),
        ];
        for id in [0u32, 7, 199] {
            let candidates: Vec<u32> = (0..records.len() as u32).filter(|&c| c != id).collect();
            for spec in specs {
                for p in [1.0, 2.0] {
                    let (survivors, attempted) = verify_candidates_bounded(
                        &EditDistance,
                        RecordView { records: &records, compiled: &compiled },
                        Query::Indexed(id),
                        &candidates,
                        spec,
                        p,
                        None,
                        None,
                    );
                    assert_eq!(attempted, candidates.len() as u64);
                    let scalar = verify_scalar(&records, &compiled, id, &candidates, spec, p);
                    let n = candidates.len() as u64;
                    let (got_n, got_ng, _) =
                        lookup_from_verified(survivors, n, attempted, spec, p, None);
                    let (want_n, want_ng, _) =
                        lookup_from_verified(scalar, n, attempted, spec, p, None);
                    assert_eq!(got_n, want_n, "id={id} {spec:?} p={p}");
                    assert_eq!(got_ng, want_ng, "id={id} {spec:?} p={p}");
                }
            }
        }
    }

    #[test]
    fn batched_driver_counts_batches() {
        // The duplicate-heavy setup above must actually exercise the
        // batch path.
        let records: Vec<Vec<String>> =
            (0..100).map(|i| vec![format!("golden dragon palace branch {:02}", i / 2)]).collect();
        let compiled = CompiledRecords::compile(&EditDistance, &records);
        let candidates: Vec<u32> = (1..100).collect();
        let ((_, attempted), d) = fuzzydedup_metrics::scoped(|| {
            verify_candidates_bounded(
                &EditDistance,
                RecordView { records: &records, compiled: &compiled },
                Query::Indexed(0),
                &candidates,
                LookupSpec::TopK(3),
                2.0,
                None,
                None,
            )
        });
        assert_eq!(attempted, 99);
        assert_eq!(d.get(Counter::VerifyBatches), 3, "tight cutoffs defer candidates into batches");
        assert_eq!(d.get(Counter::VerifyBatchedCandidates), 96, "K scalar, the rest batched");
        // The records differ in their last two chars only, so what a lane is
        // offered is the one or two text columns left after stripping — and
        // it scans them all: the kernel asks whether to stop every fourth.
        assert_eq!(d.get(Counter::VerifyColumnsOffered), 168);
        assert_eq!(d.get(Counter::VerifyColumnsScanned), 168);
    }

    #[test]
    fn filtered_verification_matches_unfiltered() {
        use fuzzydedup_textdist::tokenize::record_string;
        use fuzzydedup_textdist::{record_term_set, QgramProfile};
        let records: Vec<Vec<String>> = [
            "the doors",
            "doors",
            "the beatles",
            "beatles the",
            "shania twain",
            "twian shania",
            "completely unrelated string of text",
            "aaliyah",
            "x",
            "an extremely long record string that shares nothing with the query at all",
        ]
        .iter()
        .map(|s| vec![s.to_string()])
        .collect();
        let compiled = CompiledRecords::compile(&EditDistance, &records);
        let q = 3usize;
        let joined: Vec<String> = records
            .iter()
            .map(|r| {
                let fields: Vec<&str> = r.iter().map(String::as_str).collect();
                record_string(&fields)
            })
            .collect();
        let meta: Vec<RecordMeta> = records
            .iter()
            .map(|r| {
                let fields: Vec<&str> = r.iter().map(String::as_str).collect();
                let ts = record_term_set(&fields, q);
                RecordMeta { chars: ts.chars, grams: ts.gram_total }
            })
            .collect();
        let profiles: Vec<QgramProfile> =
            joined.iter().map(|s| QgramProfile::build(s, q)).collect();
        let candidates: Vec<u32> = (1..records.len() as u32).collect();
        // The exact multiset overlap is the tightest sound value for the
        // filter's overlap slot: pruning is maximal yet must stay lossless.
        let overlaps: Vec<u32> =
            candidates.iter().map(|&c| profiles[0].overlap(&profiles[c as usize])).collect();
        let filter = CandFilter {
            q: q as u32,
            query: meta[0],
            meta: &meta,
            overlaps: Some(&overlaps),
            slack: 0,
        };
        let specs = [
            LookupSpec::TopK(1),
            LookupSpec::TopK(3),
            LookupSpec::Radius(0.25),
            LookupSpec::Radius(0.6),
        ];
        let mut pruned_somewhere = false;
        for spec in specs {
            for p in [1.0, 2.0] {
                let (filtered, f_attempted) = verify_candidates_bounded(
                    &EditDistance,
                    RecordView { records: &records, compiled: &compiled },
                    Query::Indexed(0),
                    &candidates,
                    spec,
                    p,
                    None,
                    Some(&filter),
                );
                let (unfiltered, u_attempted) = verify_candidates_bounded(
                    &EditDistance,
                    RecordView { records: &records, compiled: &compiled },
                    Query::Indexed(0),
                    &candidates,
                    spec,
                    p,
                    None,
                    None,
                );
                assert!(f_attempted <= u_attempted);
                pruned_somewhere |= f_attempted < u_attempted;
                let n = candidates.len() as u64;
                let (got_n, got_ng, _) =
                    lookup_from_verified(filtered, n, f_attempted, spec, p, None);
                let (want_n, want_ng, _) =
                    lookup_from_verified(unfiltered, n, u_attempted, spec, p, None);
                assert_eq!(got_n, want_n, "{spec:?} p={p}");
                assert_eq!(got_ng, want_ng, "{spec:?} p={p}");
            }
        }
        assert!(pruned_somewhere, "filters never fired on an obviously prunable corpus");
    }

    #[test]
    fn bounded_verification_takes_bounded_kernel_path() {
        let records: Vec<Vec<String>> = [
            "golden dragon palace",
            "golden dragon palce",
            "zzz qqq xxx unrelated",
            "another far away record",
        ]
        .iter()
        .map(|s| vec![s.to_string()])
        .collect();
        let compiled = CompiledRecords::compile(&EditDistance, &records);
        let candidates: Vec<u32> = vec![1, 2, 3];
        let ((survivors, _), delta) = fuzzydedup_metrics::scoped(|| {
            verify_candidates_bounded(
                &EditDistance,
                RecordView { records: &records, compiled: &compiled },
                Query::Indexed(0),
                &candidates,
                LookupSpec::TopK(1),
                2.0,
                None,
                None,
            )
        });
        // The first candidate is verified with an infinite cutoff (full
        // compute); later ones go through the k-bounded kernel.
        assert_eq!(delta.get(Counter::EdKernelBounded), 2, "delta {delta:?}");
        // The close pair survives with its exact distance.
        assert!(survivors.iter().any(|n| n.id == 1));
    }
}
