//! Reusable per-thread lookup scratch: an epoch-stamped dense scoreboard.
//!
//! Candidate generation accumulates per-candidate shared IDF weight and
//! q-gram overlap while merging postings lists. [`Scoreboard`] is the one
//! accumulator every postings layout merges onto — the packed arena
//! through the staged [`Scoreboard::apply_runs`], heap-file pages and the
//! dynamic index's append-only lists through the scalar
//! [`Scoreboard::add_run`]: a dense array indexed by record id,
//! **epoch-stamped** so that starting a new lookup is one counter bump
//! instead of an `O(n)` clear (a `HashMap` per lookup pays an allocation
//! plus hashing per posting id). The scoreboard lives in a thread-local,
//! so repeated lookups allocate nothing and the kernel composes with
//! `compute_nn_reln_parallel`'s scoped workers (each worker thread lazily
//! materializes its own scoreboard).

use std::cell::RefCell;

/// One candidate's accumulator cell: epoch stamp, shared gram mass, and
/// shared IDF weight, fused so the merge loop's random access costs one
/// cache line.
#[derive(Clone, Copy, Default)]
struct Slot {
    stamp: u32,
    overlap: u32,
    score: f64,
}

/// Epoch-stamped dense accumulator over record ids; see module docs.
///
/// Laid out as a single slot array rather than parallel stamp / score /
/// overlap slabs: every [`Scoreboard::add`] — hit or first contact —
/// writes all three fields, and the postings merge issues hundreds of
/// millions of adds at effectively random ids, so fusing the fields turns
/// three random cache-line touches per posting into one (a 16-byte `Slot`
/// never straddles a 64-byte line).
///
/// There is deliberately **no first-contact list**: tracking touched ids
/// would cost the merge's hot loop an extra store (plus length
/// bookkeeping) per posting, and reading the results back through such a
/// list costs one *random* slot load per candidate. Instead the admitted
/// set is recovered by a sequential stamp scan over `slots[..active]`
/// ([`Scoreboard::drain_into`]) — a dense, prefetcher-friendly sweep that
/// is cheaper than the random walk whenever a lookup admits more than a
/// few percent of the corpus, which the postings merge always does.
#[derive(Default)]
pub(crate) struct Scoreboard {
    epoch: u32,
    /// Id pre-stamped by [`Scoreboard::exclude`] this epoch
    /// (`u32::MAX` = none).
    excluded: u32,
    /// Ids `0..active` participate in the current epoch; the slab may be
    /// larger if an earlier lookup served a bigger corpus.
    active: usize,
    slots: Vec<Slot>,
}

impl Scoreboard {
    /// Start a new accumulation over ids `0..n`: grows the slab if the
    /// corpus outgrew it and advances the epoch (wrapping safely — on
    /// wrap-around every stamp is reset so stale epochs cannot alias,
    /// and the epoch counter skips 0 so a zeroed stamp is never current).
    pub fn begin(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, Slot::default());
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            for slot in &mut self.slots {
                slot.stamp = 0;
            }
            self.epoch = 1;
        }
        self.active = n;
        self.excluded = u32::MAX;
    }

    /// Pre-stamp a slot so it accumulates silently and is withheld from
    /// the drained results. Candidate generation excludes the query's own
    /// id this way once per lookup, which removes the `other != id`
    /// branch from every posting visit of the staged merge (the self slot
    /// soaks up the adds and is un-stamped before the stamp scan).
    #[inline]
    pub fn exclude(&mut self, id: u32) {
        self.slots[id as usize] = Slot { stamp: self.epoch, overlap: 0, score: 0.0 };
        self.excluded = id;
    }

    /// Drop the excluded slot's stamp so the stamp scan skips it without
    /// a per-slot comparison. Stamp 0 is never the current epoch (see
    /// [`Scoreboard::begin`]). Further [`Scoreboard::add`]s to the id would
    /// re-admit it, so the scan must come after the merge — which is the
    /// only order the lookup paths ever use.
    #[inline]
    fn unstamp_excluded(&mut self) {
        if let Some(slot) = self.slots.get_mut(self.excluded as usize) {
            slot.stamp = 0;
        }
    }

    /// Add `weight` (and `overlap` gram mass) to a candidate's slot,
    /// stamping it on first contact this epoch.
    #[inline]
    pub fn add(&mut self, id: u32, weight: f64, overlap: u32) {
        let epoch = self.epoch;
        let slot = &mut self.slots[id as usize];
        if slot.stamp == epoch {
            slot.score += weight;
            slot.overlap += overlap;
        } else {
            *slot = Slot { stamp: epoch, overlap, score: weight };
        }
    }

    /// The scalar merge's inner loop: one term's postings, each gaining
    /// the term's `weight` and `overlap`. Layouts that hand over a term at
    /// a time — heap-file chunks, the dynamic index's lists — merge through
    /// here; the packed arena stages several terms for
    /// [`Scoreboard::apply_runs`], which must leave the board as this
    /// would.
    #[inline]
    pub fn add_run(&mut self, ids: impl IntoIterator<Item = u32>, weight: f64, overlap: u32) {
        for id in ids {
            self.add(id, weight, overlap);
        }
    }

    /// Pull a candidate's slot toward L1 ahead of its [`Scoreboard::add`]
    /// — the merge scan knows the next several posting ids while the
    /// current one is being scored, and the slot accesses are the loop's
    /// only unpredictable loads.
    #[inline]
    pub fn prefetch(&self, id: u32) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: prefetch is a hint; any address is safe to pass. The id
        // is in-bounds anyway (posting ids index the record table).
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch(self.slots.as_ptr().add(id as usize).cast::<i8>(), _MM_HINT_T0);
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = id;
    }

    /// Apply a staged frontier batch: `ids` is the flat concatenation of
    /// the staged term runs, `runs` describes them in query-term order.
    /// Runs are applied strictly in order — per-candidate `f64` weight
    /// accumulation must happen in the same term order as the scalar
    /// merge, so the results stay bit-identical — but the slot prefetch
    /// lookahead runs over the *flat* id array, crossing run boundaries;
    /// short lists therefore get the same lookahead depth as long ones,
    /// which the one-term-at-a-time scalar loop cannot provide.
    pub fn apply_runs(&mut self, ids: &[u32], runs: &[StageRun]) {
        /// Matches the merge scan's slot lookahead (`SLOT_LOOKAHEAD` in
        /// `inverted.rs`): deep enough to cover an L2 miss.
        const LOOKAHEAD: usize = 16;
        let n = ids.len();
        if n == 0 {
            debug_assert!(runs.iter().all(|r| r.len == 0));
            return;
        }
        let epoch = self.epoch;
        let last = n - 1;
        let mut at = 0usize;
        // The hot loop of the packed merge: one slot update per staged
        // posting. Bounds checks are hoisted to debug assertions — the
        // invariants are structural (runs cover `ids` exactly; posting
        // ids index the record table, which `begin(n)` sized `slots`
        // for) — the lookahead index is clamped instead of branched, and
        // the hit-or-first-contact split is *branchless*: whether a slot
        // was already stamped this epoch is data-dependent and flips
        // unpredictably through the merge's mid-phase, so both cases
        // select their inputs (zero or the current accumulators) and
        // write the slot unconditionally.
        for run in runs {
            let end = at + run.len as usize;
            debug_assert!(end <= n, "runs must not overrun the staged ids");
            let weight = run.weight;
            let overlap = run.overlap;
            // Two postings per step. A decoded run is strictly ascending,
            // so a pair's ids are distinct and both slots can be *read
            // before either is written* — the compiler may not reorder
            // the scalar loop that way (the next load could alias the
            // previous store for all it knows), but stated explicitly the
            // two slot updates become independent and their latencies
            // overlap.
            while at + 1 < end {
                // SAFETY: `(at + 1 + LOOKAHEAD).min(last) <= last < n`.
                let (a0, a1) = unsafe {
                    (
                        *ids.get_unchecked((at + LOOKAHEAD).min(last)),
                        *ids.get_unchecked((at + 1 + LOOKAHEAD).min(last)),
                    )
                };
                self.prefetch(a0);
                self.prefetch(a1);
                // SAFETY: `at + 1 < end <= n` (asserted above).
                let (id0, id1) = unsafe { (*ids.get_unchecked(at), *ids.get_unchecked(at + 1)) };
                debug_assert!(id0 < id1, "run ids strictly ascending");
                debug_assert!((id1 as usize) < self.slots.len());
                // SAFETY: posting ids are record ids; `begin(n)` resized
                // `slots` to cover every record id (debug-asserted), and
                // `id0 != id1` makes the two reads-then-writes disjoint.
                unsafe {
                    let s0 = *self.slots.get_unchecked(id0 as usize);
                    let s1 = *self.slots.get_unchecked(id1 as usize);
                    let hit0 = s0.stamp == epoch;
                    let hit1 = s1.stamp == epoch;
                    *self.slots.get_unchecked_mut(id0 as usize) = Slot {
                        stamp: epoch,
                        overlap: if hit0 { s0.overlap } else { 0 } + overlap,
                        score: if hit0 { s0.score } else { 0.0 } + weight,
                    };
                    *self.slots.get_unchecked_mut(id1 as usize) = Slot {
                        stamp: epoch,
                        overlap: if hit1 { s1.overlap } else { 0 } + overlap,
                        score: if hit1 { s1.score } else { 0.0 } + weight,
                    };
                }
                at += 2;
            }
            if at < end {
                // SAFETY: `at < end <= n`.
                let id = unsafe { *ids.get_unchecked(at) };
                debug_assert!((id as usize) < self.slots.len());
                // SAFETY: as above.
                let slot = unsafe { self.slots.get_unchecked_mut(id as usize) };
                let hit = slot.stamp == epoch;
                let score = if hit { slot.score } else { 0.0 } + weight;
                let prev = if hit { slot.overlap } else { 0 };
                *slot = Slot { stamp: epoch, overlap: prev + overlap, score };
                at += 1;
            }
        }
        debug_assert_eq!(at, n, "runs must cover the staged ids exactly");
    }

    /// Drain the admitted candidates as `(id, score, overlap)` tuples in
    /// ascending-id order, appended to `out`. A branchless sequential
    /// stamp scan over the active slots (see the struct docs): the tuple
    /// is written to the output cursor unconditionally and the cursor
    /// advances by the stamp match. Takes a caller-provided buffer so the
    /// hot lookup path can reuse a thread-local one (see [`with_scored`])
    /// instead of allocating ~100 KB per query.
    pub fn drain_into(&mut self, out: &mut Vec<(u32, f64, u32)>) {
        self.unstamp_excluded();
        let epoch = self.epoch;
        let active = self.active;
        let base = out.len();
        out.reserve(active + 1);
        let ptr = out.as_mut_ptr();
        let mut len = base;
        for (i, slot) in self.slots[..active].iter().enumerate() {
            // SAFETY: `len <= base + i < base + active`, and capacity for
            // `base + active + 1` tuples was reserved above — the
            // unconditional store is in-bounds even when every slot
            // matches.
            unsafe { ptr.add(len).write((i as u32, slot.score, slot.overlap)) };
            len += usize::from(slot.stamp == epoch);
        }
        // SAFETY: slots `..len` hold initialized tuples (prefix survived
        // from before the call; the rest written above), `len` ≤ capacity.
        unsafe { out.set_len(len) };
    }
}

/// One staged term run of the lane-wise frontier merge: how many ids of
/// the flat stage belong to this term, and what each contributes.
#[derive(Clone, Copy)]
pub(crate) struct StageRun {
    /// Ids staged for this term.
    pub len: u32,
    /// The term's IDF weight.
    pub weight: f64,
    /// The term's query-side gram count (overlap mass).
    pub overlap: u32,
}

/// Reusable buffers of the staged packed-postings merge: the flat decoded
/// id stage with its run descriptors. Thread-local like the scoreboard, so
/// a lookup allocates nothing after warm-up.
#[derive(Default)]
pub(crate) struct MergeStage {
    /// Flat staged posting ids, concatenated across up to
    /// `FRONTIER_LANES` term runs.
    pub ids: Vec<u32>,
    /// Run descriptors, in query-term order.
    pub runs: Vec<StageRun>,
}

impl MergeStage {
    /// Clear the staged runs (capacity retained).
    pub fn clear(&mut self) {
        self.ids.clear();
        self.runs.clear();
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
    static STAGE: RefCell<MergeStage> = RefCell::new(MergeStage::default());
    static SCORED: RefCell<Vec<(u32, f64, u32)>> = const { RefCell::new(Vec::new()) };
    static VERIFY: RefCell<VerifyScratch> = RefCell::new(VerifyScratch::default());
}

/// Run `f` with this thread's scoreboard. Panics on reentrant use (a
/// lookup does not recurse into another lookup on the same thread).
pub(crate) fn with_scoreboard<R>(f: impl FnOnce(&mut Scoreboard) -> R) -> R {
    SCOREBOARD.with(|cell| f(&mut cell.borrow_mut()))
}

/// Run `f` with this thread's merge stage. Panics on reentrant use (a
/// merge does not recurse into another merge on the same thread).
pub(crate) fn with_merge_stage<R>(f: impl FnOnce(&mut MergeStage) -> R) -> R {
    STAGE.with(|cell| f(&mut cell.borrow_mut()))
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

    fn drained(board: &mut Scoreboard) -> Vec<(u32, f64, u32)> {
        let mut out = Vec::new();
        board.drain_into(&mut out);
        out
    }

    /// The two merges every test that feeds a board runs under: the scalar
    /// one-term-at-a-time [`Scoreboard::add_run`] and the staged
    /// [`Scoreboard::apply_runs`], each handed `(ids, weight, overlap)`
    /// terms in order.
    type Merge = fn(&mut Scoreboard, &[(&[u32], f64, u32)]);
    const MERGES: [(&str, Merge); 2] = [
        ("scalar", |board, terms| {
            for &(ids, weight, overlap) in terms {
                board.add_run(ids.iter().copied(), weight, overlap);
            }
        }),
        ("staged", |board, terms| {
            let ids: Vec<u32> = terms.iter().flat_map(|t| t.0).copied().collect();
            let runs: Vec<StageRun> = terms
                .iter()
                .map(|&(ids, weight, overlap)| StageRun { len: ids.len() as u32, weight, overlap })
                .collect();
            board.apply_runs(&ids, &runs);
        }),
    ];

    #[test]
    fn accumulates_and_resets_by_epoch() {
        let mut board = Scoreboard::default();
        board.begin(10);
        board.add(7, 1.0, 0);
        board.add(3, 1.5, 2);
        board.add(3, 0.5, 1);
        // Drained ascending by id regardless of first-contact order.
        assert_eq!(drained(&mut board), vec![(3, 2.0, 3), (7, 1.0, 0)]);
        // New epoch: previous contributions vanish without any clearing.
        board.begin(10);
        assert!(drained(&mut board).is_empty());
        board.add(3, 9.0, 9);
        assert_eq!(drained(&mut board), vec![(3, 9.0, 9)]);
    }

    #[test]
    fn excluded_id_never_surfaces() {
        for (label, merge) in MERGES {
            let mut board = Scoreboard::default();
            board.begin(10);
            board.exclude(4);
            // Self hits are absorbed and withheld from the scan.
            merge(&mut board, &[(&[4, 5], 1.0, 1), (&[4], 0.5, 1), (&[5], 1.0, 1)]);
            assert_eq!(drained(&mut board), vec![(5, 2.0, 2)], "{label}");
            // The exclusion is per-epoch: a later lookup sees id 4 again.
            board.begin(10);
            merge(&mut board, &[(&[4], 3.0, 3)]);
            assert_eq!(drained(&mut board), vec![(4, 3.0, 3)], "{label}");
        }
    }

    #[test]
    fn apply_runs_matches_scalar_adds() {
        let terms: [(&[u32], f64, u32); 3] =
            [(&[1, 3, 5], 0.5, 2), (&[3, 7], 1.25, 1), (&[1], 2.0, 4)];
        let [scalar, staged] = MERGES.map(|(_, merge)| {
            let mut board = Scoreboard::default();
            board.begin(10);
            merge(&mut board, &terms);
            drained(&mut board)
        });
        assert_eq!(staged, scalar);
        assert_eq!(scalar, vec![(1, 2.5, 6), (3, 1.75, 3), (5, 0.5, 2), (7, 1.25, 1)]);
    }

    #[test]
    fn grows_with_corpus() {
        let mut board = Scoreboard::default();
        board.begin(2);
        board.add(1, 1.0, 1);
        board.begin(100);
        board.add(99, 1.0, 1);
        assert_eq!(drained(&mut board), vec![(99, 1.0, 1)]);
        // Shrinking back re-activates only the smaller prefix: the stale
        // stamp on slot 99 is from a dead epoch and cannot resurface.
        board.begin(2);
        board.add(1, 2.0, 2);
        assert_eq!(drained(&mut board), vec![(1, 2.0, 2)]);
    }

    #[test]
    fn epoch_wraparound_cannot_alias() {
        for (label, merge) in MERGES {
            let mut board = Scoreboard::default();
            board.begin(4);
            merge(&mut board, &[(&[2], 1.0, 1)]);
            // Force the wrap: the pre-wrap stamp on slot 2 must not read as
            // current after the epoch counter cycles through 0.
            board.epoch = u32::MAX;
            board.begin(4);
            assert!(drained(&mut board).is_empty(), "{label}");
            merge(&mut board, &[(&[2, 3], 5.0, 5), (&[2], 1.0, 1)]);
            assert_eq!(drained(&mut board), vec![(2, 6.0, 6), (3, 5.0, 5)], "{label}");
        }
    }

    #[test]
    fn thread_local_is_per_thread() {
        with_scoreboard(|b| {
            b.begin(4);
            b.add(0, 1.0, 0);
        });
        std::thread::scope(|s| {
            s.spawn(|| {
                with_scoreboard(|b| {
                    b.begin(4);
                    // A sibling thread starts from its own scoreboard.
                    assert!(drained(b).is_empty());
                });
            });
        });
    }
}
