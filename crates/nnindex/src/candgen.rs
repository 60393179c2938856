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
//! * [`select_top_candidates`] — selection of the `limit` highest-weight
//!   candidates via `select_nth_unstable_by` (average `O(n)`) instead of a
//!   full sort of every scored candidate.

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
/// cutoff it passes to `distance_bounded` — so a pruned candidate is one
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

/// Reduce scored candidates `(id, weight, overlap)` to the `limit` best
/// (all of them for `limit == 0`), returned as parallel `(ids, overlaps)`
/// lists in weight-descending order. Uses `select_nth_unstable_by` to
/// avoid sorting the dropped tail; counts the dropped candidates in
/// [`Counter::CandidatesTruncated`]. Selects in place so callers can
/// hand in a reused buffer (truncated to the kept set on return).
pub(crate) fn select_top_candidates(
    scored: &mut Vec<(u32, f64, u32)>,
    limit: usize,
) -> (Vec<u32>, Vec<u32>) {
    if limit > 0 && scored.len() > limit {
        incr(Counter::CandidatesTruncated, (scored.len() - limit) as u64);
        scored.select_nth_unstable_by(limit - 1, cand_cmp);
        scored.truncate(limit);
    }
    scored.sort_unstable_by(cand_cmp);
    (scored.iter().map(|s| s.0).collect(), scored.iter().map(|s| s.2).collect())
}

/// [`select_top_candidates`] for a collapsed corpus (DESIGN.md §7.10):
/// the `limit` budget counts **full-corpus** candidates, so each kept
/// representative debits its multiplicity and the query's own duplicates
/// (`self_mult − 1` of them, the highest-weight candidates the full
/// corpus would generate) debit the budget up front. The walk keeps
/// representatives in the same `(weight desc, id asc)` order the full
/// sort uses, stops once the cumulative multiplicity covers the budget,
/// and then completes the final weight tie-block — a full-corpus cut
/// inside a tie block lands on ids the representative order cannot see,
/// so taking the whole block keeps every class the full corpus kept
/// (identity is exact unless the full-corpus cut bisects a class; the
/// collapse property suites and bench assert identity on their corpora).
pub(crate) fn select_top_candidates_weighted(
    scored: &mut Vec<(u32, f64, u32)>,
    limit: usize,
    mult: &[u32],
    self_mult: u32,
) -> (Vec<u32>, Vec<u32>) {
    scored.sort_unstable_by(cand_cmp);
    if limit > 0 {
        let budget = limit.saturating_sub(self_mult as usize - 1) as u64;
        let mut cum = 0u64;
        let mut keep = scored.len();
        for (i, s) in scored.iter().enumerate() {
            if cum >= budget && (i == 0 || s.1 != scored[i - 1].1) {
                keep = i;
                break;
            }
            cum += u64::from(mult[s.0 as usize]);
        }
        if keep < scored.len() {
            incr(Counter::CandidatesTruncated, (scored.len() - keep) as u64);
            scored.truncate(keep);
        }
    }
    (scored.iter().map(|s| s.0).collect(), scored.iter().map(|s| s.2).collect())
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

    #[test]
    fn selection_matches_full_sort() {
        // select_nth + truncate + sort must keep exactly the prefix a
        // full sort would have kept, including weight ties broken by id.
        let mut rng = 42u64;
        for n in [0usize, 1, 5, 64, 257] {
            for limit in [0usize, 1, 3, 64, 300] {
                let mut scored: Vec<(u32, f64, u32)> = (0..n)
                    .map(|i| {
                        let w = (splitmix(&mut rng) % 7) as f64 / 3.0;
                        (i as u32, w, (i % 5) as u32)
                    })
                    .collect();
                let mut reference = scored.clone();
                reference.sort_by(cand_cmp);
                if limit > 0 {
                    reference.truncate(limit);
                }
                let (ids, overlaps) = select_top_candidates(&mut scored, limit);
                assert_eq!(ids, reference.iter().map(|s| s.0).collect::<Vec<_>>());
                assert_eq!(overlaps, reference.iter().map(|s| s.2).collect::<Vec<_>>());
            }
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
