//! Filtered candidate generation: q-gram length/count pruning and
//! top-candidate selection.
//!
//! What sits on either side of the postings merge:
//!
//! * [`CandFilter`] — the verification-time pruning filters. For
//!   distances that admit them
//!   ([`Distance::admits_qgram_filter`](fuzzydedup_textdist::Distance::admits_qgram_filter)),
//!   a normalized cutoff `t < 1` over records with char counts
//!   `(cq, cc)` implies `lev <= K = floor(t * max(cq, cc))`, which bounds
//!   both the length gap (`|cq - cc| <= lev`) and, since one edit destroys
//!   at most `q` padded q-grams, the q-gram multiset overlap
//!   (`overlap >= max(gq, gc) - K*q`, see
//!   [`QgramProfile::required_overlap`](fuzzydedup_textdist::QgramProfile::required_overlap)).
//!   Candidates violating either bound are pruned *before* the exact
//!   distance call. Where no sound bound exists the filters are no-ops.
//! * [`select_top_candidates`] — selection of the candidates to verify,
//!   the `limit` highest-weight ones (counted in full-corpus units on a
//!   collapsed corpus), via `select_nth_unstable_by` (average `O(n)`) and a
//!   sort of the kept head only, never of every scored candidate.

use std::cmp::Ordering;

use fuzzydedup_metrics::{incr, Counter};

/// Per-record statistics consumed by the pruning filters: the char count
/// of the normalized record string and its total padded q-gram mass
/// (`chars + q - 1`, or `0` for an empty record).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecordMeta {
    /// Char count of the normalized record string.
    pub chars: u32,
    /// Total padded q-gram occurrences of the record string.
    pub grams: u32,
}

/// Verification-time pruning filter; see module docs. Constructed per
/// query by the index (only when its distance admits the q-gram bounds)
/// and applied by `verify_candidates_bounded` with the *same* running
/// cutoff it passes to `Prepared::bounded` — so a pruned candidate is one
/// the bounded distance call would provably have rejected, and the
/// surviving set is identical to the unfiltered one.
pub(crate) struct CandFilter<'a> {
    /// q-gram length the index was built with.
    pub q: u32,
    /// Query-record statistics.
    pub query: RecordMeta,
    /// Per-record statistics, indexed by record id.
    pub meta: &'a [RecordMeta],
    /// Query-side shared gram mass per candidate, parallel to the
    /// candidate list (an over-estimate of the true multiset overlap over
    /// the merged terms). `None` disables the count filter (length-only).
    pub overlaps: Option<&'a [u32]>,
    /// Query gram mass *not* merged (stop grams dropped during candidate
    /// generation): a candidate may share up to this much overlap beyond
    /// its recorded proxy, so it is credited before comparing to the
    /// required bound.
    pub slack: u32,
}

impl CandFilter<'_> {
    /// Whether the candidate at position `i` of the list (record id
    /// `cand`) is provably outside the normalized cutoff. Increments the
    /// pruning counters on the first bound that fires.
    pub fn prunes(&self, i: usize, cand: u32, cutoff: f64) -> bool {
        // A cutoff >= 1 admits any pair (lev <= max_chars always holds);
        // this branch also rejects the infinite cutoff of the first
        // verification attempts and NaN.
        if cutoff.is_nan() || cutoff >= 1.0 {
            return false;
        }
        let cm = self.meta[cand as usize];
        let max_chars = f64::from(self.query.chars.max(cm.chars));
        // d = lev / max_chars <= cutoff  ⇔  lev <= floor(cutoff * max_chars).
        let k = (cutoff * max_chars).floor() as i64;
        let gap = i64::from(self.query.chars) - i64::from(cm.chars);
        if gap.abs() > k {
            incr(Counter::PrunedByLength, 1);
            return true;
        }
        if let Some(overlaps) = self.overlaps {
            let required = i64::from(self.query.grams.max(cm.grams)) - k * i64::from(self.q);
            let available = i64::from(overlaps[i]) + i64::from(self.slack);
            if available < required {
                incr(Counter::PrunedByCount, 1);
                return true;
            }
        }
        false
    }
}

/// Candidate ordering for verification: highest shared IDF weight first,
/// ties by ascending id (the historical full-sort order, so truncation
/// keeps the same set).
#[inline]
fn cand_cmp(a: &(u32, f64, u32), b: &(u32, f64, u32)) -> Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// Reduce scored candidates `(id, weight, overlap)` to the ones verified,
/// returned as parallel `(ids, overlaps)` lists in the `(weight desc, id
/// asc)` order of [`cand_cmp`]. Selects in place so callers can hand in a
/// reused buffer (truncated to the kept set on return); the dropped
/// candidates are counted in [`Counter::CandidatesTruncated`].
///
/// * `weights == None`: the `limit` best (all of them for `limit == 0`).
/// * `weights == Some((mult, self_mult))`, a collapsed corpus (DESIGN.md
///   §7.10): the `limit` budget counts **full-corpus** candidates, so each
///   kept representative debits its multiplicity and the query's own
///   duplicates (`self_mult − 1` of them, the highest-weight candidates the
///   full corpus would generate) debit the budget up front. The walk keeps
///   representatives in order, stops once the cumulative multiplicity
///   covers the budget, and then completes the final weight tie-block — a
///   full-corpus cut inside a tie block lands on ids the representative
///   order cannot see, so taking the whole block keeps every class the full
///   corpus kept (identity is exact unless the full-corpus cut bisects a
///   class; the collapse property suites and bench assert identity on
///   their corpora).
///
/// Either way only the kept candidates are sorted. Every multiplicity is
/// at least 1, so the walk's sum reaches `budget` within the first
/// `budget` places: `select_nth_unstable_by` (average `O(n)`) puts those
/// places at the head, only the head is sorted and walked, and a tie block
/// still open at the end of the head is finished from the tail — the
/// entries of the head's last weight, which [`cand_cmp`], a total order,
/// puts next in the full sort.
pub(crate) fn select_top_candidates(
    scored: &mut Vec<(u32, f64, u32)>,
    limit: usize,
    weights: Option<(&[u32], u32)>,
) -> (Vec<u32>, Vec<u32>) {
    let keep = if limit == 0 {
        scored.sort_unstable_by(cand_cmp);
        scored.len()
    } else {
        let budget = match weights {
            Some((_, self_mult)) => limit.saturating_sub(self_mult as usize - 1),
            None => limit,
        };
        let head = budget.min(scored.len());
        if head > 0 && head < scored.len() {
            scored.select_nth_unstable_by(head - 1, cand_cmp);
        }
        scored[..head].sort_unstable_by(cand_cmp);
        match weights {
            None => head,
            Some((mult, _)) => weighted_cut(scored, head, budget as u64, mult),
        }
    };
    if keep < scored.len() {
        incr(Counter::CandidatesTruncated, (scored.len() - keep) as u64);
        scored.truncate(keep);
    }
    (scored.iter().map(|s| s.0).collect(), scored.iter().map(|s| s.2).collect())
}

/// Where the weighted walk of [`select_top_candidates`] stops, given
/// `scored[..head]` sorted and the rest of `scored` after it under
/// [`cand_cmp`]. Moves a tie block that runs past the head up behind it,
/// sorted.
fn weighted_cut(scored: &mut [(u32, f64, u32)], head: usize, budget: u64, mult: &[u32]) -> usize {
    let mut cum = 0u64;
    for (i, s) in scored[..head].iter().enumerate() {
        if cum >= budget && (i == 0 || s.1 != scored[i - 1].1) {
            return i;
        }
        cum += u64::from(mult[s.0 as usize]);
    }
    if head == 0 || head == scored.len() {
        return head;
    }
    // `head == budget` and `cum >= budget` here, so the full walk stops at
    // the next weight change: after the tail's entries of the head's last
    // weight, which `cand_cmp` puts first in the tail.
    let last = scored[head - 1].1;
    let mut end = head;
    for i in head..scored.len() {
        if scored[i].1 == last {
            scored.swap(i, end);
            end += 1;
        }
    }
    scored[head..end].sort_unstable_by(cand_cmp);
    end
}

#[cfg(test)]
mod tests {
    use super::*;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// The selection as a full sort states it: order every candidate, then
    /// keep the first `limit` (plain), or walk the order until the kept
    /// multiplicities cover the budget and the weight changes (weighted).
    fn full_sort_selection(
        scored: &[(u32, f64, u32)],
        limit: usize,
        weights: Option<(&[u32], u32)>,
    ) -> Vec<(u32, f64, u32)> {
        let mut sorted = scored.to_vec();
        sorted.sort_by(cand_cmp);
        if limit == 0 {
            return sorted;
        }
        let Some((mult, self_mult)) = weights else {
            sorted.truncate(limit);
            return sorted;
        };
        let budget = limit.saturating_sub(self_mult as usize - 1) as u64;
        let mut cum = 0u64;
        let mut keep = sorted.len();
        for (i, s) in sorted.iter().enumerate() {
            if cum >= budget && (i == 0 || s.1 != sorted[i - 1].1) {
                keep = i;
                break;
            }
            cum += u64::from(mult[s.0 as usize]);
        }
        sorted.truncate(keep);
        sorted
    }

    /// `select_top_candidates` against the full sort, with the truncation
    /// count.
    fn assert_selects_as_full_sort(
        scored: &[(u32, f64, u32)],
        limit: usize,
        weights: Option<(&[u32], u32)>,
    ) {
        let want = full_sort_selection(scored, limit, weights);
        let mut buf = scored.to_vec();
        let ((ids, overlaps), counts) =
            fuzzydedup_metrics::scoped(|| select_top_candidates(&mut buf, limit, weights));
        assert_eq!(ids, want.iter().map(|s| s.0).collect::<Vec<_>>(), "limit {limit}");
        assert_eq!(overlaps, want.iter().map(|s| s.2).collect::<Vec<_>>());
        assert_eq!(buf, want, "the buffer is left holding the kept set");
        assert_eq!(
            counts.get(Counter::CandidatesTruncated),
            (scored.len() - want.len()) as u64,
            "every dropped candidate is counted"
        );
    }

    #[test]
    fn selection_matches_full_sort() {
        // select_nth + truncate + sort must keep exactly the prefix a
        // full sort would have kept, including weight ties broken by id.
        let mut rng = 42u64;
        for n in [0usize, 1, 5, 64, 257] {
            for limit in [0usize, 1, 3, 64, 300] {
                let scored: Vec<(u32, f64, u32)> = (0..n)
                    .map(|i| {
                        let w = (splitmix(&mut rng) % 7) as f64 / 3.0;
                        (i as u32, w, (i % 5) as u32)
                    })
                    .collect();
                assert_selects_as_full_sort(&scored, limit, None);
            }
        }
    }

    #[test]
    fn a_tie_block_past_the_head_is_kept_whole() {
        // Ten equal weights at limit 4, every multiplicity 1: the budget is
        // covered after four, but the weight never changes, so all ten stay.
        let mult = vec![1u32; 12];
        let tied: Vec<(u32, f64, u32)> = (0..10).map(|i| (9 - i, 1.5, i)).collect();
        assert_selects_as_full_sort(&tied, 4, Some((&mult, 1)));
        let mut buf = tied.clone();
        let (ids, _) = select_top_candidates(&mut buf, 4, Some((&mult, 1)));
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
        // The plain selection cuts inside the block, by id.
        let (ids, _) = select_top_candidates(&mut tied.clone(), 4, None);
        assert_eq!(ids, [0, 1, 2, 3]);
        // A lower weight after the block is dropped; a higher one before it
        // shifts the block's start into the head.
        let mut mixed = tied.clone();
        mixed.extend([(10, 0.5, 0), (11, 2.0, 0)]);
        assert_selects_as_full_sort(&mixed, 4, Some((&mult, 1)));
        let (ids, _) = select_top_candidates(&mut mixed, 4, Some((&mult, 1)));
        assert_eq!(ids, [11, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        // A self multiplicity of 2 leaves a budget of 3: the block still
        // runs past the head.
        assert_selects_as_full_sort(&tied, 4, Some((&mult, 2)));
    }

    #[test]
    fn weighted_edge_cases_keep_what_the_full_sort_keeps() {
        let mult = vec![3u32, 1, 2, 1, 4];
        let scored: Vec<(u32, f64, u32)> =
            vec![(0, 1.0, 0), (1, 2.0, 1), (2, 2.0, 2), (3, 0.5, 3), (4, 1.0, 4)];
        // limit 0 keeps everything, sorted.
        assert_selects_as_full_sort(&scored, 0, Some((&mult, 1)));
        // A self multiplicity above the limit leaves a budget of 0.
        assert_selects_as_full_sort(&scored, 3, Some((&mult, 9)));
        let (ids, _) = select_top_candidates(&mut scored.clone(), 3, Some((&mult, 9)));
        assert!(ids.is_empty());
        // Fewer candidates than the budget.
        assert_selects_as_full_sort(&scored, 64, Some((&mult, 1)));
        // A multiplicity that covers the budget by itself stops the walk
        // inside the head, at the next weight change.
        assert_selects_as_full_sort(&scored, 3, Some((&mult, 1)));
        assert_selects_as_full_sort(&[], 3, Some((&mult, 1)));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Few distinct weights so ties are common; multiplicities 1–4;
        /// `self_mult` up to above the limit (a budget of 0); limit 0; and
        /// fewer candidates than the budget.
        #[test]
        fn selection_equals_the_full_sort(
            draws in proptest::collection::vec((0u8..5, 1u32..=4, 0u32..8), 0..80),
            pick in 0usize..7,
            self_mult in 1u32..=20,
        ) {
            let limit = [0usize, 1, 2, 4, 5, 16, 64][pick];
            // Ids are a permutation of the draw order (83 is prime and above
            // the draw count), so the tie-break by id is not the input order.
            let id = |i: usize| (i as u32 * 37) % 83;
            let scored: Vec<(u32, f64, u32)> = draws
                .iter()
                .enumerate()
                .map(|(i, &(w, _, overlap))| (id(i), f64::from(w) / 4.0, overlap))
                .collect();
            let mut mult = vec![0u32; 83];
            for (i, d) in draws.iter().enumerate() {
                mult[id(i) as usize] = d.1;
            }
            assert_selects_as_full_sort(&scored, limit, None);
            assert_selects_as_full_sort(&scored, limit, Some((&mult, self_mult)));
        }
    }

    #[test]
    fn filter_is_noop_at_or_above_unit_cutoff() {
        let meta = [RecordMeta { chars: 3, grams: 5 }, RecordMeta { chars: 100, grams: 102 }];
        let overlaps = [0u32, 0];
        let filter =
            CandFilter { q: 3, query: meta[0], meta: &meta, overlaps: Some(&overlaps), slack: 0 };
        for cutoff in [1.0, 2.0, f64::INFINITY, f64::NAN] {
            assert!(!filter.prunes(1, 1, cutoff));
        }
        // Below 1.0 the mismatched pair is prunable by length alone.
        assert!(filter.prunes(1, 1, 0.5));
    }

    #[test]
    fn filter_keeps_identical_records() {
        let meta = [RecordMeta { chars: 10, grams: 12 }, RecordMeta { chars: 10, grams: 12 }];
        let overlaps = [12u32, 12];
        let filter =
            CandFilter { q: 3, query: meta[0], meta: &meta, overlaps: Some(&overlaps), slack: 0 };
        // Full overlap, equal lengths: never pruned, at any cutoff >= 0.
        for cutoff in [0.0, 0.1, 0.5, 0.99] {
            assert!(!filter.prunes(1, 1, cutoff));
        }
    }

    #[test]
    fn count_filter_uses_slack_credit() {
        // Same lengths, zero recorded overlap: prunable at a tight cutoff
        // unless the unmerged slack could account for the required mass.
        let meta = [RecordMeta { chars: 20, grams: 22 }, RecordMeta { chars: 20, grams: 22 }];
        let overlaps = [0u32];
        let tight =
            CandFilter { q: 3, query: meta[0], meta: &meta, overlaps: Some(&overlaps), slack: 0 };
        assert!(tight.prunes(0, 1, 0.1));
        let slackful = CandFilter { slack: 22, ..tight };
        assert!(!slackful.prunes(0, 1, 0.1));
        // Length-only mode (no overlap data) cannot use the count bound.
        let length_only = CandFilter { overlaps: None, ..tight };
        assert!(!length_only.prunes(0, 1, 0.1));
    }
}
