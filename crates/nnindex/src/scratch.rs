//! Reusable per-thread lookup scratch: an epoch-stamped dense scoreboard.
//!
//! Candidate generation accumulates per-candidate shared IDF weight and
//! q-gram overlap while merging postings lists. [`Scoreboard`] is the one
//! accumulator the merge writes to, through [`Scoreboard::add_run`],
//! wherever the postings live — growing lists, frozen lists, heap-file
//! pages: a dense array indexed by record id, **epoch-stamped** so that
//! starting a new lookup is one counter bump instead of an `O(n)` clear (a
//! `HashMap` per lookup pays an allocation plus hashing per posting id).
//! The scoreboard lives in a thread-local, so repeated lookups allocate
//! nothing and the kernel composes with `compute_nn_reln_parallel`'s scoped
//! workers (each worker thread lazily materializes its own scoreboard).

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
    /// branch from every posting visit of the merge (the self slot soaks
    /// up the adds and is un-stamped before the stamp scan).
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

    /// The merge's inner loop: one term's postings, each gaining the
    /// term's `weight` and `overlap`.
    #[inline]
    pub fn add_run(&mut self, ids: impl IntoIterator<Item = u32>, weight: f64, overlap: u32) {
        for id in ids {
            self.add(id, weight, overlap);
        }
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

    fn drained(board: &mut Scoreboard) -> Vec<(u32, f64, u32)> {
        let mut out = Vec::new();
        board.drain_into(&mut out);
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
        let mut board = Scoreboard::default();
        board.begin(10);
        board.exclude(4);
        // Self hits are absorbed and withheld from the scan.
        merge(&mut board, &[(&[4, 5], 1.0, 1), (&[4], 0.5, 1), (&[5], 1.0, 1)]);
        assert_eq!(drained(&mut board), vec![(5, 2.0, 2)]);
        // The exclusion is per-epoch: a later lookup sees id 4 again.
        board.begin(10);
        merge(&mut board, &[(&[4], 3.0, 3)]);
        assert_eq!(drained(&mut board), vec![(4, 3.0, 3)]);
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
        let mut board = Scoreboard::default();
        board.begin(4);
        merge(&mut board, &[(&[2], 1.0, 1)]);
        // Force the wrap: the pre-wrap stamp on slot 2 must not read as
        // current after the epoch counter cycles through 0.
        board.epoch = u32::MAX;
        board.begin(4);
        assert!(drained(&mut board).is_empty());
        merge(&mut board, &[(&[2, 3], 5.0, 5), (&[2], 1.0, 1)]);
        assert_eq!(drained(&mut board), vec![(2, 6.0, 6), (3, 5.0, 5)]);
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
