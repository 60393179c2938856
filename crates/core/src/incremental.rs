//! Incremental duplicate elimination: keep the partition current as
//! records arrive in batches.
//!
//! The paper's pipeline is batch-only; this module is the natural
//! production extension. The key observation makes incremental maintenance
//! cheap: Phase 2 is a fast function of `NN_Reln` (the paper measures it
//! at a small fraction of Phase-1 cost), so only the *NN entries* need
//! incremental maintenance — the partition is recomputed from scratch
//! each batch.
//!
//! **Affected-set rule.** After appending a batch, an existing tuple's
//! entry can only change if some new record is visible to it through the
//! index, i.e. appears in its candidate set (shares a non-stop term).
//! We therefore recompute entries for (a) every new id and (b) every
//! existing id in some new id's candidate set. This is exactly consistent
//! with the index semantics: a pair the index cannot see never appears in
//! any NN list, so its entry cannot have depended on the new record.
//! Equivalence with full recomputation is asserted by the test suite on
//! randomized batch splits.
//!
//! **Forks.** The dedup service never mutates the state it serves: each
//! batch runs on a fork of the published state (`IncrementalDedup::fork`,
//! crate-private), which is then published whole (`DESIGN.md` §7.9).
//!
//! **The pair memo follows the entry point.** Every batch re-verifies the
//! unchanged pairs of the entries it refreshes, which is exactly the
//! traffic a symmetric pair-distance memo absorbs, so an incremental state
//! always holds one [`PairCache`] of `PAIR_MEMO_SLOTS` slots — there is
//! no setting for it, and the batch pipeline, where a pair is verified at
//! most twice, never holds one (`DESIGN.md` §7.5). The memo is keyed on
//! the unordered pair, so it leans on the [`Distance`] contract's symmetry
//! holding to the bit, as it does for every built-in distance. It only
//! skips recomputation: the incremental ≡ batch identities asserted here
//! and in `crate::service` are the memo-on ≡ memo-off check.
//!
//! Construct states with [`IncrementalDedup::builder`], which exposes the
//! same configuration surface as [`crate::pipeline::DedupConfig`].

use std::sync::Arc;

use fuzzydedup_nnindex::{
    Growing, InvertedIndex, InvertedIndexConfig, LookupCost, LookupSpec, NnIndex,
};
use fuzzydedup_relation::Neighbor;
use fuzzydedup_textdist::Distance;

use crate::collapse::{CollapseKey, CollapseMap};
use crate::criteria::Aggregation;
use crate::nnreln::{NnEntry, NnReln};
use crate::pair_cache::PairCache;
use crate::partition::Partition;
use crate::phase1::NeighborSpec;
use crate::phase2::partition_entries_parallel;
use crate::pipeline::{validate_params, DedupError};
use crate::problem::CutSpec;

/// Slots of the pair memo every incremental state holds (768 KiB): the
/// largest size that keeps `peak_rss_mb` within +5 % on every workload of
/// the repo benchmark (sizing table in `DESIGN.md` §7.5).
const PAIR_MEMO_SLOTS: usize = 1 << 15;

/// Statistics of one incremental batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct BatchStats {
    /// Records appended in this batch.
    pub inserted: usize,
    /// Pre-existing entries recomputed because a new record entered their
    /// candidate neighborhoods.
    pub refreshed: usize,
}

/// Builder for [`IncrementalDedup`], mirroring the
/// [`crate::pipeline::DedupConfig`] surface on the incremental path.
///
/// Defaults match `DedupConfig::new`: `DE_S(5)`, `Max` aggregation,
/// `c = 4`, `p = 2` and [`InvertedIndexConfig::default`] for the index.
/// A state refreshes its entries and recomputes its partition on the
/// calling thread — the dedup service's writer thread.
///
/// ```no_run
/// use fuzzydedup_core::{Aggregation, CutSpec, IncrementalDedup};
/// use fuzzydedup_textdist::EditDistance;
///
/// let state = IncrementalDedup::builder(EditDistance)
///     .cut(CutSpec::Size(4))
///     .aggregation(Aggregation::Max)
///     .sn_threshold(4.0)
///     .build()
///     .unwrap();
/// # let _ = state;
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalDedupBuilder<D> {
    distance: D,
    index: InvertedIndexConfig,
    cut: CutSpec,
    agg: Aggregation,
    c: f64,
    p: f64,
    collapse: Option<CollapseKey>,
}

impl<D: Distance> IncrementalDedupBuilder<D> {
    /// Start from the defaults (see the type docs).
    pub fn new(distance: D) -> Self {
        Self {
            distance,
            index: InvertedIndexConfig::default(),
            cut: CutSpec::Size(5),
            agg: Aggregation::Max,
            c: 4.0,
            p: 2.0,
            collapse: None,
        }
    }

    /// Set the cut specification (`DE_S(K)` / `DE_D(θ)` / both / none).
    pub fn cut(mut self, cut: CutSpec) -> Self {
        self.cut = cut;
        self
    }

    /// Set the SN aggregation function.
    pub fn aggregation(mut self, agg: Aggregation) -> Self {
        self.agg = agg;
        self
    }

    /// Set the SN threshold `c`.
    pub fn sn_threshold(mut self, c: f64) -> Self {
        self.c = c;
        self
    }

    /// Set the neighborhood-growth multiplier `p` (the paper fixes 2).
    pub fn growth_multiplier(mut self, p: f64) -> Self {
        self.p = p;
        self
    }

    /// Set the index configuration (candidate limit, stop-gram
    /// thresholds). The state's index keeps growing, so `postings_source`
    /// — where a batch build freezes into — is never read.
    pub fn index_config(mut self, config: InvertedIndexConfig) -> Self {
        self.index = config;
        self
    }

    /// Enable the exact-duplicate collapse pre-pass on the incremental
    /// path — the mirror of [`crate::pipeline::DedupConfig::collapse`].
    /// Arriving records that normalize to an already-indexed key (see
    /// [`CollapseKey`]) are *not* re-indexed: their representative's
    /// multiplicity is bumped instead
    /// ([`InvertedIndex::note_duplicate`]), lookups weight cutoffs
    /// and growth counts in full-corpus units, and the partition /
    /// `NN_Reln` / point-query surfaces are expanded back to full-corpus
    /// ids — identical to running with the knob off (DESIGN.md §7.10).
    pub fn collapse(mut self, key: Option<CollapseKey>) -> Self {
        self.collapse = key;
        self
    }

    /// Build the empty incremental state.
    ///
    /// # Errors
    /// [`DedupError::InvalidConfig`] for an invalid cut, a non-positive
    /// (or NaN) SN threshold, or a growth multiplier below 1.
    pub fn build(self) -> Result<IncrementalDedup<D>, DedupError> {
        self.build_with(Arc::new(PairCache::new(PAIR_MEMO_SLOTS)))
    }

    fn build_with(self, pair_cache: Arc<PairCache>) -> Result<IncrementalDedup<D>, DedupError> {
        validate_params(&self.cut, self.c, self.p)?;
        let index = match self.collapse {
            Some(_) => InvertedIndex::new_collapsed(self.distance, self.index),
            None => InvertedIndex::new(self.distance, self.index),
        };
        Ok(IncrementalDedup {
            index,
            entries: Vec::new(),
            cut: self.cut,
            agg: self.agg,
            c: self.c,
            p: self.p,
            partition: Partition::singletons(0),
            pair_cache,
            collapse: self.collapse.map(CollapseMap::new),
        })
    }
}

/// An incrementally-maintained deduplication state; see module docs.
pub struct IncrementalDedup<D: Distance> {
    /// The batch pipeline's index, never frozen: with the collapse
    /// pre-pass on it holds one record per class of `collapse`.
    index: InvertedIndex<D, Growing>,
    entries: Vec<NnEntry>,
    cut: CutSpec,
    agg: Aggregation,
    c: f64,
    p: f64,
    partition: Partition,
    /// Owned by a lone state; shared by a state and its forks
    /// ([`IncrementalDedup::fork`]), so its holder count is the number of
    /// live states of one history.
    pub(crate) pair_cache: Arc<PairCache>,
    /// The class map of the collapse pre-pass, admitting records as they
    /// arrive: index ids are its representative ids, and full-corpus ids
    /// only materialize on the expansion surfaces.
    collapse: Option<CollapseMap>,
}

impl<D: Distance + Clone> IncrementalDedup<D> {
    /// A copy of this state, sharing its pair memo: what the dedup service
    /// runs a batch on while readers keep this one. `insert_batch` on the
    /// fork leaves this state untouched and brings the fork where
    /// `insert_batch` on this state would have.
    ///
    /// The memo is keyed on index ids, which name the same records only
    /// within one history. It stays sound because only `insert_batch`
    /// touches it and the service runs one batch at a time, on a fork of
    /// the state it last published — only the newest fork writes — and a
    /// fork's ids extend its source's, so what a fork stores holds for
    /// every later fork of it. A fork dropped unpublished (a batch that
    /// panicked) may have stored pairs under ids that a second fork of the
    /// same source would give to other records, so a failed fork must end
    /// ingest, as it does in the service (`ServiceError::WriterFailed`).
    pub(crate) fn fork(&self) -> Self {
        Self {
            index: self.index.clone(),
            entries: self.entries.clone(),
            cut: self.cut,
            agg: self.agg,
            c: self.c,
            p: self.p,
            partition: self.partition.clone(),
            pair_cache: Arc::clone(&self.pair_cache),
            collapse: self.collapse.clone(),
        }
    }
}

impl<D: Distance> IncrementalDedup<D> {
    /// Configure an incremental state with the [`IncrementalDedupBuilder`]
    /// — the incremental counterpart of [`crate::pipeline::DedupConfig`].
    pub fn builder(distance: D) -> IncrementalDedupBuilder<D> {
        IncrementalDedupBuilder::new(distance)
    }

    /// Number of records, in full-corpus units: with the collapse
    /// pre-pass on, exact duplicates count even though only their
    /// representative is indexed.
    pub fn len(&self) -> usize {
        self.index.n_full() as usize
    }

    /// Whether the state is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The current partition (over full-corpus ids).
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The current `NN_Reln` over full-corpus ids (rebuilt view over the
    /// maintained entries; with collapse on, the representative-space
    /// entries expanded through [`CollapseMap::expand_reln`]).
    pub fn nn_reln(&self) -> NnReln {
        self.expand(NnReln::new(self.entries.clone()))
    }

    /// The indexed records — one per exact-duplicate class when the
    /// collapse pre-pass is on (members of a class are bytewise
    /// indistinguishable to the pipeline, so the representative stands in
    /// for all of them).
    pub fn records(&self) -> &[Vec<String>] {
        self.index.records()
    }

    /// Point query by content: the neighbor list and growth estimate the
    /// given record sees against the *current* corpus, plus the lookup
    /// cost paid — without inserting anything. Probing with the text of
    /// an indexed record returns that record itself at distance 0. This
    /// is the read primitive behind the dedup service's "find duplicates
    /// of this record now" API (see `crate::service`).
    pub fn query_record(&self, fields: &[&str]) -> (Vec<Neighbor>, f64, LookupCost) {
        let (neighbors, ng, cost) = self.index.probe(fields, self.spec(), self.p);
        let Some(map) = &self.collapse else {
            return (neighbors, ng, cost);
        };
        // Expand representative hits to full-corpus ids: every member of a
        // hit class sits at the representative's distance. The weighted
        // probe already counts in full-corpus units (a TopK lookup returns
        // all survivors), so only the canonical re-sort and the final cut
        // happen here.
        let mut full: Vec<Neighbor> = neighbors
            .iter()
            .flat_map(|nb| {
                map.classes()[nb.id as usize].iter().map(|&member| Neighbor::new(member, nb.dist))
            })
            .collect();
        full.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
        if let LookupSpec::TopK(k) = self.spec() {
            full.truncate(k);
        }
        (full, ng, cost)
    }

    fn spec(&self) -> LookupSpec {
        // Full-corpus units: a weighted lookup's cutoffs and k count every
        // collapsed duplicate, so the spec is derived from the full count.
        match NeighborSpec::from_cut(&self.cut, self.len()) {
            NeighborSpec::TopK(k) => LookupSpec::TopK(k),
            NeighborSpec::Radius(theta) => LookupSpec::Radius(theta),
        }
    }

    /// The full-corpus `NN_Reln` of a relation over index ids: expanded
    /// through the class structure when collapse is on.
    fn expand(&self, reln: NnReln) -> NnReln {
        match &self.collapse {
            None => reln,
            Some(map) => {
                let visible: Vec<bool> =
                    (0..map.n_reps()).map(|r| self.index.record_has_terms(r as u32)).collect();
                map.expand_reln(&reln, NeighborSpec::from_cut(&self.cut, self.len()), &visible)
            }
        }
    }

    fn compute_entry(&self, id: u32) -> NnEntry {
        let (neighbors, ng, _cost) =
            self.index.lookup_memoized(id, self.spec(), self.p, &*self.pair_cache);
        NnEntry::new(id, neighbors, ng)
    }

    /// Append a batch of records, refresh affected entries, and recompute
    /// the partition.
    pub fn insert_batch(&mut self, records: impl IntoIterator<Item = Vec<String>>) -> BatchStats {
        // Index the records (or, collapse mode, bump the multiplicity of
        // the class an exact duplicate falls in) and give every new id a
        // placeholder entry, filled once all ids exist (a batch can contain
        // mutual duplicates, so entries must see the whole batch).
        // `dup_reps`: pre-existing representatives whose multiplicity the
        // batch bumped — their own entries change (ng pins to 1, the
        // weighted cutoff tightens), and so may any entry that sees them.
        let first_new = self.index.len() as u32;
        let mut new_ids: Vec<u32> = Vec::new();
        let mut dup_reps: Vec<u32> = Vec::new();
        let mut inserted = 0usize;
        for record in records {
            inserted += 1;
            if let Some(map) = self.collapse.as_mut() {
                let fields: Vec<&str> = record.iter().map(String::as_str).collect();
                let rep = map.admit(&fields);
                if (rep as usize) < self.index.len() {
                    // Exact duplicate of an indexed class: no re-indexing,
                    // just the multiplicity bump.
                    self.index.note_duplicate(rep);
                    if rep < first_new {
                        dup_reps.push(rep);
                    }
                    continue;
                }
            }
            let id = self.index.push(record);
            self.entries.push(NnEntry::new(id, Vec::new(), 1.0));
            new_ids.push(id);
        }
        dup_reps.sort_unstable();
        dup_reps.dedup();

        // Affected pre-existing ids: candidates of the changed records —
        // the appended representatives plus (collapse mode) the bumped
        // ones, whose weight shift moves every entry they survive in. The
        // scan is *uncapped*: term-sharing visibility is symmetric, but the
        // per-query candidate cap is not — an old record can rank a new one
        // inside its own top-k even when the (capped) reverse query drops
        // it, and that old record's entry must still refresh. A state that
        // was empty has no earlier record to find (and no bumped one), so
        // its first batch gathers exactly what a batch run does.
        let mut affected: Vec<u32> = Vec::new();
        if first_new > 0 {
            for &id in new_ids.iter().chain(&dup_reps) {
                for candidate in self.index.candidates_with_limit(id, 0) {
                    if candidate < first_new {
                        affected.push(candidate);
                    }
                }
            }
        }
        affected.extend_from_slice(&dup_reps);
        affected.sort_unstable();
        affected.dedup();

        // Recompute every new and affected entry, then Phase 2 from scratch
        // (cheap) over the relation they produce.
        for &id in new_ids.iter().chain(&affected) {
            self.entries[id as usize] = self.compute_entry(id);
        }
        let reln = self.expand(NnReln::new(self.entries.clone()));
        self.partition = partition_entries_parallel(&reln, self.cut, self.agg, self.c, 1);
        BatchStats { inserted, refreshed: affected.len() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzydedup_metrics::{scoped, Counter};
    use fuzzydedup_textdist::EditDistance;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fresh_builder() -> IncrementalDedupBuilder<EditDistance> {
        IncrementalDedup::builder(EditDistance).cut(CutSpec::Size(4)).sn_threshold(4.0)
    }

    fn fresh() -> IncrementalDedup<EditDistance> {
        fresh_builder().build().unwrap()
    }

    /// The batch pipeline under `fresh_builder`'s parameters and `cut`. It
    /// never holds a pair memo, so it is the memo-off side of every
    /// incremental ≡ batch assertion below.
    fn batch_run(records: &[Vec<String>], cut: CutSpec) -> crate::pipeline::DedupOutcome {
        use crate::pipeline::{DedupConfig, Deduplicator};
        let config = DedupConfig::new(fuzzydedup_textdist::DistanceKind::EditDistance)
            .cut(cut)
            .sn_threshold(4.0);
        Deduplicator::new(config).run_records(records).unwrap()
    }

    #[test]
    fn invalid_params_rejected() {
        let bad_cut = fresh_builder().cut(CutSpec::Size(1)).build();
        assert!(matches!(bad_cut, Err(DedupError::InvalidConfig(_))));
        let bad_c = fresh_builder().sn_threshold(f64::NAN).build();
        assert!(matches!(bad_c, Err(DedupError::InvalidConfig(_))));
        let bad_p = fresh_builder().growth_multiplier(0.5).build();
        assert!(matches!(bad_p, Err(DedupError::InvalidConfig(_))));
    }

    #[test]
    fn single_batch_matches_batch_pipeline() {
        // Single-typo pairs: close enough that their 2·nn growth spheres
        // stay sparse even in a six-record relation.
        let records: Vec<Vec<String>> = [
            "the doors",
            "the doorz",
            "xylophone concerto",
            "xylophone concertoo",
            "aaliyah",
            "bob dylan",
        ]
        .iter()
        .map(|s| vec![s.to_string()])
        .collect();
        let mut inc = fresh();
        inc.insert_batch(records.clone());
        assert!(inc.partition().are_together(0, 1), "{:?}", inc.partition().groups());
        assert!(inc.partition().are_together(2, 3));
        assert!(!inc.partition().are_together(4, 5));
    }

    #[test]
    fn later_batch_merges_with_earlier_records() {
        let mut inc = fresh();
        inc.insert_batch(vec![vec!["the doors".to_string()], vec!["aaliyah".to_string()]]);
        assert_eq!(inc.partition().num_duplicate_pairs(), 0);
        let stats = inc.insert_batch(vec![vec!["the doorz".to_string()]]);
        assert_eq!(stats.inserted, 1);
        assert!(stats.refreshed >= 1, "the old 'the doors' entry must refresh");
        assert!(inc.partition().are_together(0, 2));
        assert_eq!(inc.len(), 3);
    }

    /// Also the memo-on ≡ memo-off check: an incremental state always
    /// holds the pair memo, the batch pipeline never does.
    #[test]
    fn incremental_equals_full_recompute_on_random_splits() {
        let mut rng = StdRng::seed_from_u64(13);
        let base: Vec<Vec<String>> = (0..60)
            .map(|i| {
                let v = if i % 3 == 0 {
                    format!("entity number {:03} alpha", i / 3)
                } else {
                    format!("entity number {:03} alphaa", i / 3)
                };
                vec![v]
            })
            .collect();
        let batch = batch_run(&base, CutSpec::Size(4));
        for trial in 0..3 {
            // Random batch split.
            let mut inc = fresh();
            let mut at = 0;
            while at < base.len() {
                let take = rng.gen_range(1..=10).min(base.len() - at);
                inc.insert_batch(base[at..at + take].to_vec());
                at += take;
            }
            // Full recompute: one batch into a fresh state.
            let mut full = fresh();
            full.insert_batch(base.clone());
            assert_eq!(inc.partition(), full.partition(), "trial {trial}");
            assert_eq!(inc.nn_reln(), full.nn_reln(), "trial {trial}");
            assert_eq!(inc.partition(), &batch.partition, "trial {trial}: batch pipeline");
            assert_eq!(inc.nn_reln(), batch.nn_reln, "trial {trial}: batch pipeline");
        }
    }

    #[test]
    fn a_first_batch_counts_what_a_batch_run_counts() {
        // A state that was empty has no earlier record a new one could
        // refresh, so one `insert_batch(all)` must gather and scan exactly
        // what the batch pipeline does over the same records — and land on
        // its relation and partition.
        let records: Vec<Vec<String>> = (0..90)
            .map(|i| {
                let v = match i % 3 {
                    0 => format!("first batch entity {:02} kappa", i / 3),
                    1 => format!("first batch entity {:02} kapa", i / 3),
                    _ => format!("unrelated payload {i:02}"),
                };
                vec![v]
            })
            .collect();
        let (batch, batch_counted) = scoped(|| batch_run(&records, CutSpec::Size(4)));
        let mut inc = fresh();
        let (stats, inc_counted) = scoped(|| inc.insert_batch(records.clone()));
        assert_eq!(stats, BatchStats { inserted: records.len(), refreshed: 0 });
        for counter in
            [Counter::CandidatesGenerated, Counter::NnPostingsScanned, Counter::NnLookups]
        {
            assert_eq!(inc_counted.get(counter), batch_counted.get(counter), "{counter:?}");
        }
        assert_eq!(inc.nn_reln(), batch.nn_reln);
        assert_eq!(inc.partition(), &batch.partition);
    }

    #[test]
    fn query_record_matches_partition_membership() {
        let mut inc = fresh();
        inc.insert_batch(vec![
            vec!["golden dragon palace".to_string()],
            vec!["golden dragon palce".to_string()],
            vec!["unrelated payload".to_string()],
        ]);
        // Probing with an indexed record's text sees that record at 0.
        let (neighbors, _, _) = inc.query_record(&["golden dragon palace"]);
        assert_eq!(neighbors[0].id, 0);
        assert_eq!(neighbors[0].dist, 0.0);
        // Probing with a near-duplicate of the cluster ranks it first.
        let (neighbors, _, _) = inc.query_record(&["golden dragon  palace"]);
        assert!(inc.partition().are_together(0, neighbors[0].id));
    }

    #[test]
    fn empty_batches_are_noops() {
        let mut inc = fresh();
        let stats = inc.insert_batch(Vec::<Vec<String>>::new());
        assert_eq!(stats, BatchStats { inserted: 0, refreshed: 0 });
        assert!(inc.is_empty());
        inc.insert_batch(vec![vec!["solo".to_string()]]);
        let stats = inc.insert_batch(Vec::<Vec<String>>::new());
        assert_eq!(stats.inserted, 0);
        assert_eq!(inc.partition().num_groups(), 1);
    }

    #[test]
    fn pair_memo_hits_without_changing_results() {
        // Duplicate-heavy append stream: every batch lands near the same
        // entities, so refreshed entries re-verify the same pairs over
        // and over — exactly the traffic the memo exists to absorb.
        let batches: Vec<Vec<Vec<String>>> = (0..6)
            .map(|b| {
                (0..10).map(|i| vec![format!("shared entity record {:02} v{b}", i % 5)]).collect()
            })
            .collect();
        let mut inc = fresh();
        let ((), d) = scoped(|| {
            for batch in &batches {
                inc.insert_batch(batch.clone());
            }
        });
        // Sequential refreshes over fixed batches: the memo traffic repeats
        // exactly.
        assert_eq!(d.get(Counter::PairCacheHits), 2698, "duplicate-heavy refreshes hit the memo");
        assert_eq!(d.get(Counter::PairCacheMisses), 592);
        // The memo only skips recomputation; the memo-less batch pipeline
        // must land on the same state.
        let batch = batch_run(&batches.concat(), CutSpec::Size(4));
        assert_eq!(inc.partition(), &batch.partition);
        assert_eq!(inc.nn_reln(), batch.nn_reln);
    }

    #[test]
    fn tiny_pair_memo_under_heavy_eviction_is_sound() {
        // The soundness contract on `PairDistanceCache`: exact hits carry
        // true distances and `KnownAbove` only skips calls that would be
        // rejected anyway, so the state must not depend on the memo's
        // size. A 64-slot memo (the smallest `PairCache`) collides on
        // nearly every store, which exercises the overwrite/eviction path.
        // Edit distance is the bit-symmetric kernel the contract requires.
        let near_dups: Vec<Vec<String>> = (0..120)
            .map(|i| {
                let s = match i % 3 {
                    0 => format!("customer record number {i:03}"),
                    1 => format!("customer record numbr {i:03}"),
                    _ => format!("unrelated payload {i:03}"),
                };
                vec![s]
            })
            .collect();
        let repeats: Vec<Vec<String>> =
            (0..90).map(|i| vec![format!("shared prefix token row {:02}", i % 45)]).collect();
        let tiny = || Arc::new(PairCache::new(64));
        for records in [near_dups, repeats] {
            for cut in [CutSpec::Size(4), CutSpec::Diameter(0.2)] {
                let builder = fresh_builder().cut(cut);
                let mut roomy = builder.clone().build().unwrap();
                let mut small = builder.build_with(tiny()).unwrap();
                for chunk in records.chunks(23) {
                    roomy.insert_batch(chunk.to_vec());
                    small.insert_batch(chunk.to_vec());
                    assert_eq!(roomy.nn_reln(), small.nn_reln(), "{cut:?}: tiny memo diverged");
                    assert_eq!(roomy.partition(), small.partition(), "{cut:?}");
                }
                assert!(small.pair_cache.len() > 32, "the tiny memo saw traffic");
                // Memo-off: the batch pipeline never holds one.
                let batch = batch_run(&records, cut);
                assert_eq!(small.nn_reln(), batch.nn_reln, "{cut:?}: batch pipeline");
                assert_eq!(small.partition(), &batch.partition, "{cut:?}: batch pipeline");
            }
        }
    }

    #[test]
    fn collapse_does_not_change_incremental_results() {
        // Duplicate-heavy append stream with exact repeats inside and
        // across batches: collapse-on must track collapse-off (and thus
        // the batch pipeline, by the existing identity tests) exactly.
        let batches: Vec<Vec<Vec<String>>> = (0..5)
            .map(|b| {
                (0..12)
                    .map(|i| {
                        let e = (b * 12 + i) % 9;
                        let v = if i % 3 == 2 {
                            format!("incr entity {e:02} lambdaa")
                        } else {
                            format!("incr entity {e:02} lambda")
                        };
                        vec![v]
                    })
                    .collect()
            })
            .collect();
        let mut plain = fresh();
        let mut collapsed =
            fresh_builder().collapse(Some(CollapseKey::RecordString)).build().unwrap();
        for batch in &batches {
            let a = plain.insert_batch(batch.clone());
            let b = collapsed.insert_batch(batch.clone());
            assert_eq!(a.inserted, b.inserted);
            assert_eq!(plain.partition(), collapsed.partition());
            assert_eq!(plain.nn_reln(), collapsed.nn_reln());
            assert_eq!(plain.len(), collapsed.len());
        }
        // Only unique keys were indexed.
        assert!(collapsed.records().len() < plain.records().len());
        // Point queries agree after expansion back to full ids.
        for probe in ["incr entity 04 lambda", "incr entity 07 lambdaa", "no such thing"] {
            let (n_plain, ng_plain, _) = plain.query_record(&[probe]);
            let (n_coll, ng_coll, _) = collapsed.query_record(&[probe]);
            assert_eq!(n_plain, n_coll, "probe {probe:?}");
            assert_eq!(ng_plain, ng_coll, "probe {probe:?}");
        }
    }

    #[test]
    fn only_forks_share_a_pair_memo() {
        let a = fresh();
        let b = a.fork();
        assert!(Arc::ptr_eq(&a.pair_cache, &b.pair_cache));
        assert!(!Arc::ptr_eq(&a.pair_cache, &fresh().pair_cache));
    }

    #[test]
    fn a_fork_chain_equals_plain_insert_batch() {
        // The service's discipline without the threads: every batch runs on
        // a fork of the previous state, which must come out where plain
        // `insert_batch` on one state does and leave the state it was
        // forked from as it was. Near-duplicates, exact repeats inside and
        // across batches (the collapse path) and two term-less records.
        let mut rng = StdRng::seed_from_u64(29);
        let mut base: Vec<Vec<String>> = (0..72)
            .map(|i| {
                let e = (i * 7) % 19;
                let v = match i % 4 {
                    0 | 1 => format!("replay entity {e:02} sigma"),
                    2 => format!("replay entity {e:02} sigmaa"),
                    _ => format!("replay entitty {e:02} sigma"),
                };
                vec![v]
            })
            .collect();
        base.insert(20, vec!["?!".to_string()]);
        base.insert(50, vec!["?!".to_string()]);
        let probes = ["replay entity 04 sigma", "replay entitty 11 sigmaa", "?!", "no such thing"];
        let collapses = [None, Some(CollapseKey::RecordString)];
        for cut in [CutSpec::Size(4), CutSpec::Diameter(0.2)] {
            for collapse in collapses {
                let what = format!("{cut:?} {collapse:?}");
                let builder = fresh_builder().cut(cut).collapse(collapse);
                let mut forked = builder.clone().build().unwrap();
                let mut plain = builder.build().unwrap();
                // What a state answers: relation, partition, length, probes.
                let view = |s: &IncrementalDedup<EditDistance>| {
                    let answers: Vec<_> = probes
                        .iter()
                        .map(|&probe| {
                            let (neighbors, ng, _) = s.query_record(&[probe]);
                            (neighbors, ng)
                        })
                        .collect();
                    (s.nn_reln(), s.partition().clone(), s.len(), answers)
                };
                let mut at = 0;
                while at < base.len() {
                    let take = rng.gen_range(1..=12).min(base.len() - at);
                    let batch = base[at..at + take].to_vec();
                    at += take;
                    let want = plain.insert_batch(batch.clone());
                    let before = view(&forked);
                    let mut next = forked.fork();
                    let got = next.insert_batch(batch);
                    assert_eq!(view(&forked), before, "{what}: the source moved at {at}");
                    forked = next;

                    assert_eq!(got, want, "{what}: stats at {at}");
                    assert_eq!(view(&forked), view(&plain), "{what}: state at {at}");
                }
            }
        }
    }

    #[test]
    fn refresh_counts_are_bounded_by_corpus() {
        let mut inc = fresh();
        inc.insert_batch((0..20).map(|i| vec![format!("record {i:02}")]));
        let stats = inc.insert_batch(vec![vec!["record 21".to_string()]]);
        assert!(stats.refreshed <= 20);
    }
}
