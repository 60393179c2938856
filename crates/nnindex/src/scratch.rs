//! Reusable per-thread lookup scratch: a dense scoreboard that is zero
//! between lookups.
//!
//! Candidate generation accumulates per-candidate shared IDF weight and
//! q-gram overlap while merging postings lists. [`Scoreboard`] is the one
//! accumulator the merge writes to, through [`Scoreboard::add_run`],
//! wherever the postings live — growing lists, frozen lists, heap-file
//! pages: two dense arrays indexed by record id, **all zero between
//! lookups**, so a posting is two unconditional adds and the drain that
//! reads the candidates back puts the zeros back (a `HashMap` per lookup
//! pays an allocation plus hashing per posting id). The scoreboard lives in
//! a thread-local, so repeated lookups allocate nothing and the kernel
//! composes with `compute_nn_reln_parallel`'s scoped workers (each worker
//! thread lazily materializes its own scoreboard).

use std::cell::RefCell;

/// Dense accumulator over record ids, zero between lookups; see module docs.
///
/// A candidate is a slot with a non-zero `score`. That is sound because
/// every weight the merge adds is an IDF weight `ln(1 + N/df)` with
/// `df ≤ N` — in a growing, a frozen and a collapsed index alike — so at
/// least `ln 2`: a slot that took any add is positive. So no slot carries
/// a stamp: an epoch stamp would cost every posting a load, a compare and
/// a store, plus a first-contact branch that goes the other way on about
/// a fifth of them, which is more than putting the zeros back costs a
/// lookup. There is deliberately **no first-contact list** either:
/// tracking touched ids would cost the merge an extra store per posting,
/// and reading results back through it one *random* load per candidate.
/// The admitted set is recovered by a sequential scan over
/// `score[..active]` ([`Scoreboard::drain_into`]), a dense,
/// prefetcher-friendly sweep followed by a `fill` of the same prefix —
/// cheaper than the random walk whenever a lookup admits more than a few
/// percent of the corpus, which the postings merge always does.
///
/// **Unwinding.** A lookup that panics mid-merge (a `Pages` chunk that
/// cannot be read) leaves its sums on the board. `dirty` is set by
/// [`Scoreboard::begin`] and cleared only at the end of the drain, so the
/// next `begin` on the thread finds it set and zeroes the whole slab.
#[derive(Default)]
pub(crate) struct Scoreboard {
    /// Ids `0..active` take part in the current lookup; the arrays may be
    /// longer (and are zero there) if an earlier lookup served a bigger
    /// corpus.
    active: usize,
    /// From `begin` until the drain has zeroed what the merge wrote.
    dirty: bool,
    /// Shared IDF weight per id.
    score: Vec<f64>,
    /// Shared q-gram mass per id.
    overlap: Vec<u32>,
}

impl Scoreboard {
    /// Start a new accumulation over ids `0..n`: zeroes a board the last
    /// lookup left undrained (see the struct docs) and grows the arrays if
    /// the corpus outgrew them.
    pub fn begin(&mut self, n: usize) {
        if self.dirty {
            self.score.fill(0.0);
            self.overlap.fill(0);
        }
        if self.score.len() < n {
            self.score.resize(n, 0.0);
            self.overlap.resize(n, 0);
        }
        self.active = n;
        self.dirty = true;
    }

    /// The merge's inner loop: one term's postings, each gaining the
    /// term's `weight` and `overlap` — two unconditional adds a posting.
    /// `weight` is an IDF weight, so at least `ln 2` (see the struct docs).
    #[inline]
    pub fn add_run(&mut self, ids: impl IntoIterator<Item = u32>, weight: f64, overlap: u32) {
        debug_assert!(weight >= std::f64::consts::LN_2, "IDF weight {weight} is below ln 2");
        let score = &mut self.score[..self.active];
        let mass = &mut self.overlap[..self.active];
        for id in ids {
            score[id as usize] += weight;
            mass[id as usize] += overlap;
        }
    }

    /// Drain the candidates as `(id, score, overlap)` tuples in
    /// ascending-id order, appended to `out`, with `exclude` — the query's
    /// own id, whose slot soaked up its self-postings and so spared the
    /// merge an `other != id` branch a posting — withheld; then zero the
    /// active prefix. A branchless sequential scan (see the struct docs):
    /// the tuple is written to the output cursor unconditionally and the
    /// cursor advances by `score != 0.0`. Takes a caller-provided buffer so
    /// the hot lookup path can reuse a thread-local one (see
    /// [`with_scored`]) instead of allocating ~100 KB per query.
    pub fn drain_into(&mut self, exclude: Option<u32>, out: &mut Vec<(u32, f64, u32)>) {
        let active = self.active;
        let score = &mut self.score[..active];
        let mass = &mut self.overlap[..active];
        if let Some(id) = exclude {
            score[id as usize] = 0.0;
        }
        let base = out.len();
        out.reserve(active + 1);
        let ptr = out.as_mut_ptr();
        let mut len = base;
        for (i, (&s, &m)) in score.iter().zip(mass.iter()).enumerate() {
            // SAFETY: `len <= base + i < base + active`, and capacity for
            // `base + active + 1` tuples was reserved above — the
            // unconditional store is in-bounds even when every slot
            // is a candidate.
            unsafe { ptr.add(len).write((i as u32, s, m)) };
            len += usize::from(s != 0.0);
        }
        // SAFETY: slots `..len` hold initialized tuples (prefix survived
        // from before the call; the rest written above), `len` ≤ capacity.
        unsafe { out.set_len(len) };
        score.fill(0.0);
        mass.fill(0);
        self.dirty = false;
    }
}

/// Reusable buffers for the bounded-verification loop: the running top-k
/// distance window survives across lookups on the same thread. What
/// borrows from the corpus — the prepared query and the lock-step batch
/// buffers — is allocated once per lookup by `verify_candidates_bounded`
/// itself.
#[derive(Default)]
pub(crate) struct VerifyScratch {
    /// Ascending running top-k distances; cleared at the start of each
    /// verification, capacity retained.
    pub kth: Vec<f64>,
}

thread_local! {
    static SCOREBOARD: RefCell<Scoreboard> = RefCell::new(Scoreboard::default());
    static SCORED: RefCell<Vec<(u32, f64, u32)>> = const { RefCell::new(Vec::new()) };
    static VERIFY: RefCell<VerifyScratch> = RefCell::new(VerifyScratch::default());
}

/// Run `f` with this thread's scoreboard. Panics on reentrant use (a
/// lookup does not recurse into another lookup on the same thread).
pub(crate) fn with_scoreboard<R>(f: impl FnOnce(&mut Scoreboard) -> R) -> R {
    SCOREBOARD.with(|cell| f(&mut cell.borrow_mut()))
}

/// Run `f` with this thread's scored-candidate buffer — the drain target
/// of candidate generation, reused across lookups so the hot path
/// allocates nothing for the untruncated candidate set. Panics on
/// reentrant use (a lookup does not recurse into another lookup on the
/// same thread).
pub(crate) fn with_scored<R>(f: impl FnOnce(&mut Vec<(u32, f64, u32)>) -> R) -> R {
    SCORED.with(|cell| f(&mut cell.borrow_mut()))
}

/// Run `f` with this thread's verification scratch. Panics on reentrant
/// use (verification does not recurse into verification).
pub(crate) fn with_verify_scratch<R>(f: impl FnOnce(&mut VerifyScratch) -> R) -> R {
    VERIFY.with(|cell| f(&mut cell.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    fn drained(board: &mut Scoreboard, exclude: Option<u32>) -> Vec<(u32, f64, u32)> {
        let mut out = Vec::new();
        board.drain_into(exclude, &mut out);
        out
    }

    /// Feed `(ids, weight, overlap)` terms to `board` in order, as the
    /// merge does.
    fn merge(board: &mut Scoreboard, terms: &[(&[u32], f64, u32)]) {
        for &(ids, weight, overlap) in terms {
            board.add_run(ids.iter().copied(), weight, overlap);
        }
    }

    #[test]
    fn accumulates_and_starts_each_lookup_from_zero() {
        let mut board = Scoreboard::default();
        board.begin(10);
        merge(&mut board, &[(&[7], 1.0, 0), (&[3], 1.25, 2), (&[3], 0.75, 1)]);
        // Drained ascending by id regardless of first-contact order; a
        // candidate with no shared gram mass still surfaces.
        assert_eq!(drained(&mut board, None), vec![(3, 2.0, 3), (7, 1.0, 0)]);
        // The drain left the board zero: the next lookup sees nothing of
        // the last one.
        board.begin(10);
        assert!(drained(&mut board, None).is_empty());
        merge(&mut board, &[(&[3], 9.0, 9)]);
        assert_eq!(drained(&mut board, None), vec![(3, 9.0, 9)]);
    }

    #[test]
    fn excluded_id_never_surfaces() {
        let mut board = Scoreboard::default();
        board.begin(10);
        // Self hits are absorbed and withheld from the scan.
        merge(&mut board, &[(&[4, 5], 1.0, 1), (&[4], 1.5, 1), (&[5], 1.0, 1)]);
        assert_eq!(drained(&mut board, Some(4)), vec![(5, 2.0, 2)]);
        // The exclusion is per-lookup: a later lookup sees id 4 again.
        board.begin(10);
        merge(&mut board, &[(&[4], 3.0, 3)]);
        assert_eq!(drained(&mut board, None), vec![(4, 3.0, 3)]);
    }

    #[test]
    fn grows_with_corpus() {
        let mut board = Scoreboard::default();
        board.begin(2);
        merge(&mut board, &[(&[1], 1.0, 1)]);
        board.begin(100);
        merge(&mut board, &[(&[99], 1.0, 1)]);
        assert_eq!(drained(&mut board, None), vec![(99, 1.0, 1)]);
        // Shrinking back re-activates only the smaller prefix, and the
        // drain of the larger one left slot 99 zero.
        board.begin(2);
        merge(&mut board, &[(&[1], 2.0, 2)]);
        assert_eq!(drained(&mut board, None), vec![(1, 2.0, 2)]);
        board.begin(100);
        assert!(drained(&mut board, None).is_empty());
    }

    #[test]
    fn thread_local_is_per_thread() {
        with_scoreboard(|b| {
            b.begin(4);
            merge(b, &[(&[0], 1.0, 0)]);
        });
        std::thread::scope(|s| {
            s.spawn(|| {
                with_scoreboard(|b| {
                    b.begin(4);
                    // A sibling thread starts from its own scoreboard.
                    assert!(drained(b, None).is_empty());
                });
            });
        });
    }

    /// One begin/drain cycle: the corpus size, the terms in merge order as
    /// `(posting ids, weight, overlap)`, and the query's own id.
    type Cycle = (usize, Vec<(Vec<u32>, f64, u32)>, Option<u32>);

    /// The accumulation restated naively: a sorted map from id to sums,
    /// created on first contact, the query's own id removed.
    fn naive(terms: &[(Vec<u32>, f64, u32)], exclude: Option<u32>) -> Vec<(u32, u64, u32)> {
        let mut sums: BTreeMap<u32, (f64, u32)> = BTreeMap::new();
        for (ids, weight, overlap) in terms {
            for &id in ids {
                let sum = sums.entry(id).or_insert((0.0, 0));
                sum.0 += weight;
                sum.1 += overlap;
            }
        }
        if let Some(id) = exclude {
            sums.remove(&id);
        }
        sums.into_iter().map(|(id, (score, overlap))| (id, score.to_bits(), overlap)).collect()
    }

    fn bits(drained: &[(u32, f64, u32)]) -> Vec<(u32, u64, u32)> {
        drained.iter().map(|&(id, score, overlap)| (id, score.to_bits(), overlap)).collect()
    }

    /// A random cycle over at most 300 ids: up to 11 terms of sorted,
    /// distinct postings, IDF weights `ln(1 + N/df)` with `1 ≤ df ≤ N` (so
    /// down to exactly `ln 2`), gram counts 0–4, and half the time a query
    /// id.
    fn cycle(rng: &mut StdRng) -> Cycle {
        let n = rng.gen_range(1..=300);
        let terms = (0..rng.gen_range(0..12))
            .map(|_| {
                let mut ids: Vec<u32> =
                    (0..rng.gen_range(0..=n.min(24))).map(|_| rng.gen_range(0..n as u32)).collect();
                ids.sort_unstable();
                ids.dedup();
                let (a, b) = (rng.gen_range(1..2000u32), rng.gen_range(1..2000u32));
                let weight = (1.0 + f64::from(a.max(b)) / f64::from(a.min(b))).ln();
                (ids, weight, rng.gen_range(0..=4))
            })
            .collect();
        let exclude = rng.gen_bool(0.5).then(|| rng.gen_range(0..n as u32));
        (n, terms, exclude)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Several gathers on one board while the corpus grows and
        /// shrinks; each gather runs one begin/drain cycle or two into
        /// the same buffer (the stop-gram re-merge), and some lookups are
        /// abandoned before their drain (a lookup that unwound). Every
        /// drain equals the naive map bit for bit: ascending ids, the
        /// `to_bits` of each sum, and overlaps.
        #[test]
        fn board_equals_a_naive_map(seed in proptest::prelude::any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut board = Scoreboard::default();
            for _ in 0..rng.gen_range(1..8) {
                let cycles = rng.gen_range(1..=2);
                let abandon = rng.gen_bool(0.15);
                let mut out = Vec::new();
                let mut expected = Vec::new();
                for _ in 0..cycles {
                    let (n, terms, exclude) = cycle(&mut rng);
                    board.begin(n);
                    for (ids, weight, overlap) in &terms {
                        board.add_run(ids.iter().copied(), *weight, *overlap);
                    }
                    if abandon {
                        break;
                    }
                    board.drain_into(exclude, &mut out);
                    expected.extend(naive(&terms, exclude));
                }
                proptest::prop_assert_eq!(bits(&out), expected);
            }
        }
    }
}
