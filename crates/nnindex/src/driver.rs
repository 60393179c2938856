//! The single Phase-1 lookup driver.
//!
//! The paper's Phase 1 is one line — "for each v, get NN-List(v) and
//! ng(v) using index I". Here an index family is only a
//! [`CandidateSource`]: it says which records are worth verifying for a
//! query ([`Gathered`]) and how to read them; this module turns a source
//! and a [`Query`] into the one answer the crate serves — the combined
//! lookup, by id or by content — through the one verification loop ([`crate::verify_candidates_bounded`]). Kernel
//! work and instrumentation therefore have one place to go. The gather
//! has one scaffold too ([`gather_merged`]): an inverted index supplies
//! only its merge pass, and the stop-gram fallback, the counting and the
//! top-candidate selection around it are stated here once.

use fuzzydedup_metrics::{incr, Counter};
use fuzzydedup_relation::Neighbor;
use fuzzydedup_textdist::Distance;

use crate::candgen::{select_top_candidates, CandFilter, RecordMeta};
use crate::scratch::with_scored;
use crate::{
    lookup_from_verified, verify_candidates_bounded, LookupCost, LookupSpec, LookupWeights,
    RecordView,
};

/// The query of one lookup.
#[derive(Clone, Copy)]
pub(crate) enum Query<'q> {
    /// Record `id` of the indexed corpus, weighted by its own
    /// multiplicity.
    Indexed(u32),
    /// The attribute strings of a record that need not be indexed (a
    /// point query): multiplicity 1.
    External(&'q [&'q str]),
}

/// One candidate gather, ready for verification.
pub(crate) struct Gathered {
    /// Candidate ids in verification order (an indexed query's own id
    /// excluded).
    pub ids: Vec<u32>,
    /// Candidates generated before any truncation to `ids`.
    pub generated: u64,
    /// The query's length/gram statistics: the q-gram filter's query side.
    pub query_meta: RecordMeta,
    /// Query-side shared gram mass per candidate, parallel to `ids`;
    /// `None` leaves only the length bound of the filter.
    pub overlaps: Option<Vec<u32>>,
    /// Query gram mass the gather did not merge (stop grams), credited to
    /// every candidate by the count filter.
    pub slack: u32,
}

impl Gathered {
    /// A gather that tracked no overlap mass.
    pub fn ids_only(ids: Vec<u32>, query_meta: RecordMeta) -> Self {
        let generated = ids.len() as u64;
        Self { ids, generated, query_meta, overlaps: None, slack: 0 }
    }
}

/// The gather of an inverted index, around its merge pass.
///
/// `merge(include_stops, scored)` merges the query's postings once,
/// appending every candidate sharing a merged term as `(id, weight, shared
/// gram mass)`, and returns the query gram mass it left unmerged as stop
/// grams (the count filter's slack) with the number of stop terms dropped,
/// of the query's `n_terms`. The first pass drops stop grams; if that
/// leaves nothing although terms were dropped — every candidate-bearing
/// term was a stop gram, common for short records in skewed corpora — the
/// query is not dropped on the floor (that would silently cost recall, and
/// the SN criterion its growth estimate) but merged again with stop grams
/// included. The `limit` best candidates are kept; `weights` — the
/// multiplicities of a collapsed corpus with the query's own — makes the
/// limit count full-corpus candidates.
///
/// A representative standing for two or more copies does not fall back
/// once a non-stop term was merged: in the full corpus that pass finds the
/// record's own copies, so it is not empty there and the lookup stops at
/// them (DESIGN.md §7.10).
///
/// The untruncated scored set lives in a thread-local buffer
/// ([`with_scored`]) reused across lookups, so the steady-state hot path
/// allocates only the two truncated output lists.
pub(crate) fn gather_merged(
    mut merge: impl FnMut(bool, &mut Vec<(u32, f64, u32)>) -> (u32, u64),
    n_terms: usize,
    limit: usize,
    weights: Option<(&[u32], u32)>,
    query_meta: RecordMeta,
) -> Gathered {
    with_scored(|scored| {
        scored.clear();
        let (mut slack, dropped) = merge(false, scored);
        incr(Counter::StopGramsDropped, dropped);
        let found_own_copies =
            weights.is_some_and(|(_, self_mult)| self_mult > 1) && dropped < n_terms as u64;
        if scored.is_empty() && dropped > 0 && !found_own_copies {
            (slack, _) = merge(true, scored);
        }
        let generated = scored.len() as u64;
        incr(Counter::CandidatesGenerated, generated);
        let (ids, overlaps) = select_top_candidates(scored, limit, weights);
        Gathered { ids, generated, query_meta, overlaps: Some(overlaps), slack }
    })
}

/// What the driver needs from an index family.
pub(crate) trait CandidateSource {
    /// The distance candidates are verified with.
    type Dist: Distance;

    /// The verification distance.
    fn distance(&self) -> &Self::Dist;

    /// How verification reads the indexed records.
    fn record_view(&self) -> RecordView<'_>;

    /// Per-record multiplicities when the corpus is collapsed
    /// (DESIGN.md §7.10), `None` otherwise.
    fn multiplicities(&self) -> Option<&[u32]>;

    /// The q-gram length `q` and per-record statistics the pruning filter
    /// runs on; `None` when the distance admits no sound q-gram bound or
    /// the index keeps no statistics.
    fn filter_stats(&self) -> Option<(u32, &[RecordMeta])>;

    /// Candidates for indexed record `id`.
    fn gather_candidates(&self, id: u32) -> Gathered;
}

/// The combined lookup over an already-gathered candidate list: the q-gram
/// filter armed from the source's statistics, then one verification pass
/// serves both the neighbor list and the neighborhood growth. Candidates
/// count in full-corpus units when the source is collapsed.
pub(crate) fn lookup_gathered<S: CandidateSource>(
    source: &S,
    query: Query<'_>,
    gathered: Gathered,
    spec: LookupSpec,
    p: f64,
) -> (Vec<Neighbor>, f64, LookupCost) {
    let weights = source.multiplicities().map(|mult| LookupWeights {
        mult,
        self_mult: match query {
            Query::Indexed(id) => mult[id as usize],
            Query::External(_) => 1,
        },
    });
    let filter = source.filter_stats().map(|(q, meta)| CandFilter {
        q,
        query: gathered.query_meta,
        meta,
        overlaps: gathered.overlaps.as_deref(),
        slack: gathered.slack,
    });
    let (verified, attempted) = verify_candidates_bounded(
        source.distance(),
        source.record_view(),
        query,
        &gathered.ids,
        spec,
        p,
        weights.as_ref(),
        filter.as_ref(),
    );
    lookup_from_verified(verified, gathered.generated, attempted, spec, p, weights.as_ref())
}

/// [`crate::NnIndex::lookup`] for indexed record `id`.
pub(crate) fn lookup<S: CandidateSource>(
    source: &S,
    id: u32,
    spec: LookupSpec,
    p: f64,
) -> (Vec<Neighbor>, f64, LookupCost) {
    lookup_gathered(source, Query::Indexed(id), source.gather_candidates(id), spec, p)
}
