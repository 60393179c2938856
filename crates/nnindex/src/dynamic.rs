//! Dynamic (append-only) inverted index for incremental deduplication.
//!
//! The paper's pipeline is batch: the index is built once over a frozen
//! relation. Production deduplication is incremental — records arrive in
//! batches and the partition must be kept current. [`DynamicInvertedIndex`]
//! supports `push` with memory-resident postings (no buffer-pool layout:
//! an appendable disk index is a different engineering exercise, and the
//! incremental path is CPU-bound on verification anyway).
//!
//! IDF weights shift as the corpus grows; weights are computed from the
//! current document frequency at query time, so a term that becomes common
//! automatically loses discrimination power without any rebuild.

use std::collections::HashMap;

use fuzzydedup_relation::Neighbor;
use fuzzydedup_textdist::{record_term_set, CompiledRecords, Distance, TermSet};

use crate::candgen::RecordMeta;
use crate::driver::{self, CandidateSource, Gathered, Query};
use crate::scratch::with_scoreboard;
use crate::{LookupCost, LookupSpec, NnIndex, PairDistanceCache, RecordView};

/// Configuration of the dynamic index (mirrors
/// [`crate::InvertedIndexConfig`]'s candidate-generation knobs).
#[derive(Debug, Clone)]
pub struct DynamicIndexConfig {
    /// q-gram length (default 3).
    pub q: usize,
    /// Also index whole tokens.
    pub index_tokens: bool,
    /// Verify at most this many candidates per query (0 = unlimited).
    pub candidate_limit: usize,
    /// Stop-gram fraction (terms above `max(fraction·n, floor)` document
    /// frequency are skipped at query time).
    pub max_df_fraction: f64,
    /// Stop-gram document-frequency floor.
    pub stop_df_floor: u32,
}

impl Default for DynamicIndexConfig {
    fn default() -> Self {
        Self {
            q: 3,
            index_tokens: true,
            candidate_limit: 256,
            max_df_fraction: 0.2,
            stop_df_floor: 100,
        }
    }
}

/// Append-only inverted index; see module docs.
pub struct DynamicInvertedIndex<D> {
    records: Vec<Vec<String>>,
    distance: D,
    config: DynamicIndexConfig,
    postings: HashMap<String, Vec<u32>>,
    /// Per-record length/gram statistics for the pruning filters.
    meta: Vec<RecordMeta>,
    /// Whether the distance admits the q-gram pruning filters.
    filter_ok: bool,
    /// Every record compiled by the distance on `push`
    /// ([`Distance::compile_record`]): what verification reads candidates
    /// from.
    compiled: CompiledRecords,
    /// Per-record multiplicities when the index fronts a collapsed corpus
    /// (DESIGN.md §7.10); `None` in ordinary mode. Maintained by
    /// [`Self::push`] (new class, multiplicity 1) and
    /// [`Self::note_duplicate`].
    mult: Option<Vec<u32>>,
    /// Full-corpus record count behind the index (`records.len()` in
    /// ordinary mode); drives query-time IDF weights and stop thresholds
    /// so collapsed-mode lookups see full-corpus statistics.
    n_full: u64,
    /// Per record, whether it generates at least one index term (recorded
    /// at `push`; see [`Self::has_terms`]).
    has_terms: Vec<bool>,
}

impl<D: Distance> DynamicInvertedIndex<D> {
    /// Create an empty index.
    pub fn new(distance: D, config: DynamicIndexConfig) -> Self {
        let filter_ok = distance.admits_qgram_filter();
        Self {
            records: Vec::new(),
            distance,
            config,
            postings: HashMap::new(),
            meta: Vec::new(),
            filter_ok,
            compiled: CompiledRecords::default(),
            mult: None,
            n_full: 0,
            has_terms: Vec::new(),
        }
    }

    /// Create an empty index in **collapsed mode**: each pushed record is
    /// a class representative with multiplicity 1, bumped by
    /// [`Self::note_duplicate`] when an exact duplicate arrives. Lookups
    /// then weight document frequencies, candidate budgets, cutoffs and
    /// growth counts in full-corpus units (DESIGN.md §7.10).
    pub fn new_collapsed(distance: D, config: DynamicIndexConfig) -> Self {
        Self { mult: Some(Vec::new()), ..Self::new(distance, config) }
    }

    /// Append a record, returning its id.
    pub fn push(&mut self, record: Vec<String>) -> u32 {
        let id = self.records.len() as u32;
        let fields: Vec<&str> = record.iter().map(String::as_str).collect();
        let ts = record_term_set(&fields, self.config.q, self.config.index_tokens);
        self.has_terms.push(!ts.terms.is_empty());
        for (term, _) in ts.terms {
            self.postings.entry(term).or_default().push(id);
        }
        self.meta.push(RecordMeta { chars: ts.chars, grams: ts.gram_total });
        self.distance.compile_record(&fields, &mut self.compiled);
        self.records.push(record);
        if let Some(mult) = &mut self.mult {
            mult.push(1);
        }
        self.n_full += 1;
        id
    }

    /// Record the arrival of an exact duplicate of representative `id`
    /// (collapsed mode only): bumps its multiplicity and the full-corpus
    /// count, shifting query-time document frequencies accordingly.
    pub fn note_duplicate(&mut self, id: u32) {
        let mult = self.mult.as_mut().expect("note_duplicate requires collapsed mode");
        mult[id as usize] += 1;
        self.n_full += 1;
    }

    /// Full-corpus record count (equals [`NnIndex::len`] in ordinary mode).
    pub fn n_full(&self) -> u64 {
        self.n_full
    }

    /// Multiplicity of representative `id` (1 in ordinary mode).
    pub fn multiplicity(&self, id: u32) -> u32 {
        self.mult.as_ref().map_or(1, |m| m[id as usize])
    }

    /// Whether record `id` generates at least one index term. A term-less
    /// record gathers no candidates, so an exact duplicate of it cannot
    /// see its sibling through the index; expansion of a collapsed answer
    /// consults this to decide sibling visibility (DESIGN.md §7.10).
    pub fn has_terms(&self, id: u32) -> bool {
        self.has_terms[id as usize]
    }

    /// The indexed records.
    pub fn records(&self) -> &[Vec<String>] {
        &self.records
    }

    /// Exact distance between two indexed records.
    pub fn distance_between(&self, a: u32, b: u32) -> f64 {
        let ra: Vec<&str> = self.records[a as usize].iter().map(String::as_str).collect();
        let rb: Vec<&str> = self.records[b as usize].iter().map(String::as_str).collect();
        self.distance.distance(&ra, &rb)
    }

    /// Candidate ids sharing at least one non-stop term with `id`, sorted
    /// descending by shared IDF weight (capped at `candidate_limit`).
    pub fn candidates(&self, id: u32) -> Vec<u32> {
        self.candidates_with_limit(id, self.config.candidate_limit)
    }

    /// [`Self::candidates`] with an explicit cap (`0` = unlimited). The
    /// incremental-dedup affected-set scan needs the *uncapped* variant:
    /// candidate visibility is symmetric in shared terms, but the per-query
    /// cap is not — an existing record can rank a new record inside its own
    /// top-k while falling outside the new record's.
    pub fn candidates_with_limit(&self, id: u32, limit: usize) -> Vec<u32> {
        self.gather(id, limit).ids
    }

    /// Generate, score, truncate.
    fn gather(&self, id: u32, limit: usize) -> Gathered {
        let fields: Vec<&str> = self.records[id as usize].iter().map(String::as_str).collect();
        let ts = record_term_set(&fields, self.config.q, self.config.index_tokens);
        self.gather_terms(&ts, Some(id), limit)
    }

    /// [`Self::gather`] over an explicit term set — the shared entry for
    /// indexed queries (`exclude = Some(id)`) and by-content probes of
    /// records not (yet) in the index (`exclude = None`): the driver's
    /// gather scaffold around this index's merge.
    fn gather_terms(&self, ts: &TermSet, exclude: Option<u32>, limit: usize) -> Gathered {
        driver::gather_merged(
            |include_stops, scored| self.generate_terms(ts, exclude, include_stops, scored),
            limit,
            self.mult.as_deref().map(|m| (m, exclude.map_or(1, |id| m[id as usize]))),
            RecordMeta { chars: ts.chars, grams: ts.gram_total },
        )
    }

    /// One merge pass: appends the scored candidates `(id, weight, shared
    /// gram mass)` to `out` and returns the stop-gram slack and the number
    /// of dropped stop terms. The scalar merge on the epoch-stamped
    /// thread-local scoreboard (the accumulator of the static index); an
    /// indexed query's own id is excluded by pre-stamping its slot. Terms
    /// are applied in the term-set's sorted order, which fixes every
    /// per-candidate `f64` weight sum.
    fn generate_terms(
        &self,
        ts: &TermSet,
        exclude: Option<u32>,
        include_stops: bool,
        out: &mut Vec<(u32, f64, u32)>,
    ) -> (u32, u64) {
        let n = self.n_full.max(1) as f64;
        let max_df = (self.config.max_df_fraction * n).max(f64::from(self.config.stop_df_floor));
        let mut slack = 0u32;
        let mut dropped = 0u64;
        with_scoreboard(|board| {
            board.begin(self.records.len());
            if let Some(id) = exclude {
                board.exclude(id);
            }
            for (term, gram_count) in &ts.terms {
                let Some(ids) = self.postings.get(term) else { continue };
                // Collapsed mode: df in full-corpus units — identical
                // records have identical term sets, so the weighted sum is
                // exactly the document frequency of the full corpus.
                let df = match &self.mult {
                    Some(m) => ids.iter().map(|&i| u64::from(m[i as usize])).sum::<u64>() as f64,
                    None => ids.len() as f64,
                };
                if !include_stops && df > max_df {
                    slack += gram_count;
                    dropped += 1;
                    continue;
                }
                board.add_run(ids.iter().copied(), (1.0 + n / df).ln(), *gram_count);
            }
            board.drain_into(out);
        });
        (slack, dropped)
    }

    /// Combined lookup **by content**: the nearest neighbors of a record
    /// given as attribute strings, whether or not it is in the index,
    /// through the same candidate generation and the same verification
    /// driver as [`NnIndex::lookup`]. Nothing is inserted and no id is
    /// excluded — probing with the text of an indexed record returns
    /// that record itself at distance 0. This is the read side of a
    /// point-query API ("find duplicates of this record now").
    ///
    /// The answer is exactly what an identical appended record would see
    /// under the same corpus statistics (document frequencies, stop-gram
    /// thresholds).
    pub fn probe(
        &self,
        fields: &[&str],
        spec: LookupSpec,
        p: f64,
    ) -> (Vec<Neighbor>, f64, LookupCost) {
        let ts = record_term_set(fields, self.config.q, self.config.index_tokens);
        let gathered = self.gather_terms(&ts, None, self.config.candidate_limit);
        driver::lookup_gathered(self, Query::External(fields), gathered, spec, p, None)
    }
}

impl<D: Distance> CandidateSource for DynamicInvertedIndex<D> {
    type Dist = D;

    fn distance(&self) -> &D {
        &self.distance
    }

    fn record_view(&self) -> RecordView<'_> {
        RecordView { records: &self.records, compiled: &self.compiled }
    }

    fn multiplicities(&self) -> Option<&[u32]> {
        self.mult.as_deref()
    }

    fn filter_stats(&self) -> Option<(u32, &[RecordMeta])> {
        self.filter_ok.then_some((self.config.q as u32, &self.meta[..]))
    }

    fn gather_candidates(&self, id: u32) -> Gathered {
        self.gather(id, self.config.candidate_limit)
    }
}

impl<D: Distance> NnIndex for DynamicInvertedIndex<D> {
    fn len(&self) -> usize {
        self.records.len()
    }

    fn top_k(&self, id: u32, k: usize) -> Vec<Neighbor> {
        driver::top_k(self, id, k)
    }

    fn within(&self, id: u32, radius: f64) -> Vec<Neighbor> {
        driver::within(self, id, radius)
    }

    fn lookup_cached(
        &self,
        id: u32,
        spec: LookupSpec,
        p: f64,
        cache: Option<&dyn PairDistanceCache>,
    ) -> (Vec<Neighbor>, f64, LookupCost) {
        driver::lookup(self, id, spec, p, cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzydedup_textdist::EditDistance;

    fn push_all(idx: &mut DynamicInvertedIndex<EditDistance>, records: &[&str]) {
        for r in records {
            idx.push(vec![r.to_string()]);
        }
    }

    #[test]
    fn grows_and_finds_new_neighbors() {
        let mut idx = DynamicInvertedIndex::new(EditDistance, DynamicIndexConfig::default());
        push_all(&mut idx, &["the doors", "aaliyah"]);
        assert!(idx.top_k(0, 1).first().map(|n| n.dist > 0.5).unwrap_or(true));
        let new_id = idx.push(vec!["doors".to_string()]);
        assert_eq!(new_id, 2);
        // The old record's nearest neighbor is now the new one.
        let nn = idx.top_k(0, 1);
        assert_eq!(nn[0].id, 2);
        // And symmetrically.
        assert_eq!(idx.top_k(2, 1)[0].id, 0);
    }

    #[test]
    fn matches_static_index_after_bulk_load() {
        use crate::{InvertedIndex, InvertedIndexConfig};
        use fuzzydedup_storage::{BufferPool, BufferPoolConfig, InMemoryDisk};
        use std::sync::Arc;

        let records: Vec<Vec<String>> = [
            "the doors",
            "doors",
            "the beatles",
            "beatles the",
            "shania twain",
            "twian shania",
            "aaliyah",
            "bob dylan",
        ]
        .iter()
        .map(|s| vec![s.to_string()])
        .collect();

        let mut dynamic = DynamicInvertedIndex::new(EditDistance, DynamicIndexConfig::default());
        for r in &records {
            dynamic.push(r.clone());
        }
        let pool = Arc::new(BufferPool::new(
            BufferPoolConfig::with_capacity(16),
            Arc::new(InMemoryDisk::new()),
        ));
        let static_idx = InvertedIndex::build(
            records.clone(),
            EditDistance,
            pool,
            InvertedIndexConfig::default(),
        );
        for id in 0..records.len() as u32 {
            assert_eq!(dynamic.top_k(id, 3), static_idx.top_k(id, 3), "id {id}");
        }
    }

    #[test]
    fn candidate_sets_are_symmetric_for_shared_terms() {
        let mut idx = DynamicInvertedIndex::new(EditDistance, DynamicIndexConfig::default());
        push_all(&mut idx, &["golden dragon", "golden palace", "unrelated thing"]);
        let c0 = idx.candidates(0);
        let c1 = idx.candidates(1);
        assert!(c0.contains(&1));
        assert!(c1.contains(&0));
    }

    #[test]
    fn empty_index_queries() {
        let mut idx = DynamicInvertedIndex::new(EditDistance, DynamicIndexConfig::default());
        assert!(idx.is_empty());
        let id = idx.push(vec!["only".to_string()]);
        assert!(idx.top_k(id, 3).is_empty());
        assert!(idx.within(id, 0.9).is_empty());
    }

    #[test]
    fn has_terms_bit_matches_retokenization() {
        let config = DynamicIndexConfig::default();
        let mut idx = DynamicInvertedIndex::new(EditDistance, config.clone());
        push_all(&mut idx, &["golden dragon", "", "  ", "ab", "?!"]);
        for (id, record) in idx.records().iter().enumerate() {
            let fields: Vec<&str> = record.iter().map(String::as_str).collect();
            let terms = record_term_set(&fields, config.q, config.index_tokens).terms;
            assert_eq!(idx.has_terms(id as u32), !terms.is_empty(), "record {record:?}");
        }
        assert!(idx.has_terms(0));
        assert!(!idx.has_terms(1));
    }

    #[test]
    fn combined_lookup_consistent() {
        let mut idx = DynamicInvertedIndex::new(EditDistance, DynamicIndexConfig::default());
        push_all(&mut idx, &["alpha beta", "alpha betb", "gamma delta"]);
        let (neighbors, ng, cost) = idx.lookup(0, LookupSpec::TopK(2), 2.0);
        assert_eq!(neighbors, idx.top_k(0, 2));
        assert!(ng >= 2.0);
        assert_eq!(cost.probes, 1);
        assert!(cost.distance_calls <= cost.candidates);
    }

    #[test]
    fn probe_finds_indexed_duplicate_at_distance_zero() {
        let mut idx = DynamicInvertedIndex::new(EditDistance, DynamicIndexConfig::default());
        push_all(&mut idx, &["golden dragon", "golden palace", "unrelated thing"]);
        let (neighbors, ng, cost) = idx.probe(&["golden dragon"], LookupSpec::TopK(2), 2.0);
        assert_eq!(neighbors[0].id, 0);
        assert_eq!(neighbors[0].dist, 0.0);
        assert!(ng >= 1.0);
        assert_eq!(cost.probes, 1);
        assert!(cost.distance_calls <= cost.candidates);
    }

    #[test]
    fn probe_matches_appended_record_lookup() {
        // A probe must answer exactly what the same record would see if it
        // were appended and queried — provided the corpus statistics
        // match, so the control index holds the probe record too (the
        // appended shift of document frequencies only reorders
        // candidates), and `lookup` excludes it from its own results.
        //
        // Small corpus, default config: the stop floor (df > 100) never
        // fires and no candidate truncation occurs, hence identical
        // candidate sets.
        let small: Vec<String> =
            ["the doors", "doors", "the beatles", "beatles the", "shania twain", "aaliyah"]
                .map(str::to_owned)
                .to_vec();
        // Noisy near-duplicate corpus well past `VERIFY_BATCH`: every
        // probe verifies hundreds of candidates, so the external-query
        // path runs through ragged lock-step batches with survivors
        // inside them. Stop grams and truncation are switched off, for
        // the same identical-candidate-sets reason as above.
        let noisy = crate::near_duplicate_corpus(240);
        let unpruned = DynamicIndexConfig {
            candidate_limit: 0,
            stop_df_floor: u32::MAX,
            ..DynamicIndexConfig::default()
        };
        let inputs = [
            (small, DynamicIndexConfig::default(), ["the doorz", "shania twin", "zzz nothing"]),
            (
                noisy,
                unpruned,
                ["golden dragon palace branch 17", "goldn dragon palace brnch 3", "payload 777"],
            ),
        ];
        for (corpus, config, probes) in inputs {
            let corpus: Vec<&str> = corpus.iter().map(String::as_str).collect();
            for probe_text in probes {
                let mut base = DynamicInvertedIndex::new(EditDistance, config.clone());
                let mut ctrl = DynamicInvertedIndex::new(EditDistance, config.clone());
                push_all(&mut base, &corpus);
                push_all(&mut ctrl, &corpus);
                let probe_id = ctrl.push(vec![probe_text.to_string()]);
                for spec in [LookupSpec::TopK(3), LookupSpec::Radius(0.4)] {
                    let (got, got_ng, _) = base.probe(&[probe_text], spec, 2.0);
                    let (want, want_ng, _) = ctrl.lookup(probe_id, spec, 2.0);
                    assert_eq!(got, want, "probe {probe_text:?} {spec:?}");
                    assert_eq!(got_ng, want_ng, "probe {probe_text:?} {spec:?}");
                }
            }
        }
    }

    #[test]
    fn probe_on_empty_index_is_empty() {
        let idx =
            DynamicInvertedIndex::<EditDistance>::new(EditDistance, DynamicIndexConfig::default());
        let (neighbors, ng, _) = idx.probe(&["anything"], LookupSpec::TopK(3), 2.0);
        assert!(neighbors.is_empty());
        assert_eq!(ng, 1.0);
    }

    #[test]
    fn filters_do_not_change_results() {
        use fuzzydedup_textdist::UnfilteredDistance;
        let records =
            ["the doors", "doors", "shania twain", "twian shania", "a very long unrelated record"];
        let config = DynamicIndexConfig { candidate_limit: 0, ..Default::default() };
        let mut filtered = DynamicInvertedIndex::new(EditDistance, config.clone());
        let mut control = DynamicInvertedIndex::new(UnfilteredDistance(EditDistance), config);
        for r in records {
            filtered.push(vec![r.to_string()]);
            control.push(vec![r.to_string()]);
        }
        for id in 0..filtered.len() as u32 {
            assert_eq!(filtered.top_k(id, 3), control.top_k(id, 3), "id {id}");
            assert_eq!(filtered.within(id, 0.35), control.within(id, 0.35), "id {id}");
            let (n_f, ng_f, _) = filtered.lookup(id, LookupSpec::TopK(2), 2.0);
            let (n_u, ng_u, _) = control.lookup(id, LookupSpec::TopK(2), 2.0);
            assert_eq!((n_f, ng_f), (n_u, ng_u), "id {id}");
        }
    }
}
