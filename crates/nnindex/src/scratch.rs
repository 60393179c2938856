//! Reusable per-thread lookup scratch: an epoch-stamped dense scoreboard.
//!
//! Candidate generation accumulates per-candidate shared IDF weight and
//! q-gram overlap while merging postings lists. A `HashMap` per lookup
//! (the historical implementation) pays an allocation plus hashing per
//! posting id; the scoreboard replaces it with dense arrays indexed by
//! record id, **epoch-stamped** so that starting a new lookup is one
//! counter bump instead of an `O(n)` clear. The scoreboard lives in a
//! thread-local, so repeated lookups allocate nothing and the kernel
//! composes with `compute_nn_reln_parallel`'s scoped workers (each worker
//! thread lazily materializes its own scoreboard).

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
/// ([`Scoreboard::drain_into`] / [`Scoreboard::admitted_ids`]) — a dense,
/// prefetcher-friendly sweep that is cheaper than the random walk
/// whenever a lookup admits more than a few percent of the corpus, which
/// the postings merge always does. The scan also yields ids in ascending
/// order, so consumers that need sorted admission sets (the MergeSkip
/// top-up probes) get them for free.
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

    /// Drop the excluded slot's stamp so the stamp scans skip it without
    /// a per-slot comparison. Stamp 0 is never the current epoch (see
    /// [`Scoreboard::begin`]), and idempotence makes it safe to call
    /// before every scan. Further [`Scoreboard::add`]s to the id would
    /// re-admit it, so scans must come after the merge — which is the
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

    /// Whether a candidate has been stamped this epoch.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        self.slots[id as usize].stamp == self.epoch
    }

    /// The admitted ids of this epoch (excluded id withheld), ascending.
    ///
    /// A branchless sequential stamp scan: every slot writes its id to
    /// the output cursor unconditionally and the cursor advances by the
    /// stamp match, so the sweep runs at streaming speed regardless of
    /// how the admitted set is scattered.
    pub fn admitted_ids(&mut self) -> Vec<u32> {
        self.unstamp_excluded();
        let epoch = self.epoch;
        let active = self.active;
        let mut out: Vec<u32> = Vec::with_capacity(active + 1);
        let ptr = out.as_mut_ptr();
        let mut len = 0usize;
        for (i, slot) in self.slots[..active].iter().enumerate() {
            // SAFETY: `len <= i < active`, and `active + 1` slots were
            // reserved above — the unconditional store is in-bounds even
            // when every slot matches.
            unsafe { ptr.add(len).write(i as u32) };
            len += usize::from(slot.stamp == epoch);
        }
        // SAFETY: slots `..len` were written above, `len <= active`.
        unsafe { out.set_len(len) };
        out
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

    /// [`Self::drain_into`] into a fresh vector, for paths where the
    /// allocation is not on a measured hot loop.
    pub fn drain(&mut self) -> Vec<(u32, f64, u32)> {
        let mut out = Vec::new();
        self.drain_into(&mut out);
        out
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
/// id stage with its run descriptors, plus a per-block decode scratch for
/// the skip-pointer top-up walk. Thread-local like the scoreboard, so a
/// lookup allocates nothing after warm-up.
#[derive(Default)]
pub(crate) struct MergeStage {
    /// Flat staged posting ids, concatenated across up to
    /// `FRONTIER_LANES` term runs.
    pub ids: Vec<u32>,
    /// Run descriptors, in query-term order.
    pub runs: Vec<StageRun>,
    /// Decode target for single blocks during the skip-pointer walk.
    pub block: Vec<u32>,
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

    #[test]
    fn accumulates_and_resets_by_epoch() {
        let mut board = Scoreboard::default();
        board.begin(10);
        board.add(7, 1.0, 0);
        board.add(3, 1.5, 2);
        board.add(3, 0.5, 1);
        assert_eq!(board.admitted_ids(), vec![3, 7]);
        assert!(board.contains(3) && board.contains(7) && !board.contains(0));
        // Drained ascending by id regardless of first-contact order.
        let drained = board.drain();
        assert_eq!(drained, vec![(3, 2.0, 3), (7, 1.0, 0)]);
        // New epoch: previous contributions vanish without any clearing.
        board.begin(10);
        assert!(board.admitted_ids().is_empty());
        assert!(!board.contains(3));
        board.add(3, 9.0, 9);
        assert_eq!(board.drain(), vec![(3, 9.0, 9)]);
    }

    #[test]
    fn excluded_id_never_surfaces() {
        let mut board = Scoreboard::default();
        board.begin(10);
        board.exclude(4);
        board.add(4, 1.0, 1); // self hit: absorbed, withheld from scans
        board.add(5, 2.0, 2);
        assert_eq!(board.admitted_ids(), vec![5]);
        assert_eq!(board.drain(), vec![(5, 2.0, 2)]);
        // The exclusion is per-epoch: a later lookup sees id 4 again.
        board.begin(10);
        board.add(4, 3.0, 3);
        assert_eq!(board.drain(), vec![(4, 3.0, 3)]);
    }

    #[test]
    fn apply_runs_matches_scalar_adds() {
        let mut staged = Scoreboard::default();
        staged.begin(10);
        let ids = [1u32, 3, 5, 3, 7, 1];
        let runs = [
            StageRun { len: 3, weight: 0.5, overlap: 2 },
            StageRun { len: 2, weight: 1.25, overlap: 1 },
            StageRun { len: 1, weight: 2.0, overlap: 4 },
        ];
        staged.apply_runs(&ids, &runs);
        let mut scalar = Scoreboard::default();
        scalar.begin(10);
        for (run, chunk) in runs.iter().zip([&ids[0..3], &ids[3..5], &ids[5..6]]) {
            for &id in chunk {
                scalar.add(id, run.weight, run.overlap);
            }
        }
        assert_eq!(staged.drain(), scalar.drain());
    }

    #[test]
    fn grows_with_corpus() {
        let mut board = Scoreboard::default();
        board.begin(2);
        board.add(1, 1.0, 1);
        board.begin(100);
        board.add(99, 1.0, 1);
        assert_eq!(board.admitted_ids(), vec![99]);
        // Shrinking back re-activates only the smaller prefix: the stale
        // stamp on slot 99 is from a dead epoch and cannot resurface.
        board.begin(2);
        board.add(1, 2.0, 2);
        assert_eq!(board.drain(), vec![(1, 2.0, 2)]);
    }

    #[test]
    fn epoch_wraparound_cannot_alias() {
        let mut board = Scoreboard::default();
        board.begin(4);
        board.add(2, 1.0, 1);
        // Force the wrap: the pre-wrap stamp on slot 2 must not read as
        // current after the epoch counter cycles through 0.
        board.epoch = u32::MAX;
        board.begin(4);
        assert!(!board.contains(2));
        board.add(2, 5.0, 5);
        assert_eq!(board.drain(), vec![(2, 5.0, 5)]);
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
                    assert!(b.admitted_ids().is_empty());
                });
            });
        });
    }
}
