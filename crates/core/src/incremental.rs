//! Incremental duplicate elimination: keep the partition current as
//! records arrive in batches.
//!
//! The paper's pipeline is batch-only; this module is the natural
//! production extension. The partition is a function of the whole
//! relation's `NN_Reln` (Lemma 1), so a batch must leave the state where a
//! batch run over the same records would.
//!
//! **An append is a re-run, on every core.** A batch is appended to the
//! growing index, then the batch pipeline's parallel Phase 1 driver
//! ([`crate::parallel::compute_nn_reln_parallel`]) recomputes every entry
//! and Phase 2 ([`partition_entries_parallel`]) partitions the relation
//! they form, each on one worker per available CPU. Both drivers produce
//! exactly what their one-thread drive does (an entry is an independent
//! lookup, Lemma 1), so the thread count shows in no result. No narrower
//! rule is exact: the IDF weights `ln(1 + N/df)` and the stop threshold
//! `max(0.2·N, floor)` move with `N` for every entry, so an entry that
//! shares no term with an arrival can still re-rank its candidates under
//! the cap or gain or lose a stop gram.
//! The affected-set scan this replaced (refresh only entries that share a
//! non-stop term with an arrival) missed exactly those: it left 4 of the
//! 96 cases of `tests/end_to_end.rs`'s incremental ≡ batch test with a
//! different `NN_Reln`, all with stop grams or a small cap binding. Nor
//! did it narrow anything on measured traffic: every standing entry
//! refreshed on Org at 387, 1,895 and 7,629 records, 15,657 of 15,660 on
//! Restaurants at 1,918, and 99 % on the repo benchmark's
//! `service_replay`, whose `run_s` the re-run lowered from 0.123 to
//! 0.106 s (medians of ten alternating pairs, 2 vCPU). Running it on both
//! of those CPUs instead of one lowered `run_s` again, 0.120 → 0.080 s
//! (ten alternating 10 s pairs, faster in all ten).
//!
//! **No pair memo.** The re-run re-verifies the unchanged pairs of every
//! standing entry. A 2^15-slot pair-distance memo once absorbed that, but
//! re-timed on `service_replay` its `run_s` gain (3.9 %) sat inside the
//! run-to-run spread while it cost 1.8 % of peak RSS, so it went
//! (`DESIGN.md` §7.5).
//!
//! **Clones.** The dedup service never mutates the state it serves: each
//! batch runs on a clone of the published state, which is then published
//! whole (`DESIGN.md` §7.9).
//!
//! Construct states with [`IncrementalDedup::builder`], which exposes the
//! same configuration surface as [`crate::pipeline::DedupConfig`].

use std::time::{Duration, Instant};

use fuzzydedup_nnindex::{
    Growing, InvertedIndex, InvertedIndexConfig, LookupCost, LookupSpec, NnIndex,
};
use fuzzydedup_relation::Neighbor;
use fuzzydedup_textdist::Distance;

use crate::collapse::{CollapseKey, CollapseMap};
use crate::criteria::Aggregation;
use crate::nnreln::NnReln;
use crate::parallel::{compute_nn_reln_parallel, resolve_threads};
use crate::partition::Partition;
use crate::phase1::NeighborSpec;
use crate::phase2::partition_entries_parallel;
use crate::pipeline::{validate_params, DedupError};
use crate::problem::CutSpec;

/// Statistics of one incremental batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct BatchStats {
    /// Records appended in this batch.
    pub inserted: usize,
    /// Entries standing before the batch, all recomputed; 0 for a first or
    /// empty batch.
    pub refreshed: usize,
    /// Wall time of the Phase 1 re-run (zero for an empty batch).
    pub phase1: Duration,
    /// Wall time of Phase 2 over the re-run's relation (zero for an empty
    /// batch).
    pub phase2: Duration,
    /// Workers that ran the Phase 1 re-run and Phase 2 (zero for an empty
    /// batch).
    pub threads: (usize, usize),
}

/// Builder for [`IncrementalDedup`], mirroring the
/// [`crate::pipeline::DedupConfig`] surface on the incremental path.
///
/// Defaults match `DedupConfig::new`: `DE_S(5)`, `Max` aggregation,
/// `c = 4`, `p = 2` and [`InvertedIndexConfig::default`] for the index.
/// A state recomputes its entries and its partition on every core: both
/// phases run one worker per available CPU, with results identical to a
/// one-thread drive, so there is no thread-count option.
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
        validate_params(&self.cut, self.c, self.p)?;
        let index = match self.collapse {
            Some(_) => InvertedIndex::new_collapsed(self.distance, self.index),
            None => InvertedIndex::new(self.distance, self.index),
        };
        Ok(IncrementalDedup {
            index,
            reln: NnReln::default(),
            cut: self.cut,
            agg: self.agg,
            c: self.c,
            p: self.p,
            partition: Partition::singletons(0),
            collapse: self.collapse.map(CollapseMap::new),
            #[cfg(test)]
            holders: std::sync::Arc::default(),
        })
    }
}

/// An incrementally-maintained deduplication state; see module docs. A
/// clone is independent of its source: `insert_batch` on one leaves the
/// other as it was.
#[derive(Clone)]
pub struct IncrementalDedup<D: Distance> {
    /// The batch pipeline's index, never frozen: with the collapse
    /// pre-pass on it holds one record per class of `collapse`.
    index: InvertedIndex<D, Growing>,
    /// The full-corpus relation the last batch computed, and the partition
    /// was computed from.
    reln: NnReln,
    cut: CutSpec,
    agg: Aggregation,
    c: f64,
    p: f64,
    partition: Partition,
    /// The class map of the collapse pre-pass, admitting records as they
    /// arrive: index ids are its representative ids, and full-corpus ids
    /// only materialize on the expansion surfaces.
    collapse: Option<CollapseMap>,
    /// Shared by a state and its clones, so its strong count is the number
    /// of live states of one history (what the service's tests count).
    #[cfg(test)]
    pub(crate) holders: std::sync::Arc<()>,
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

    /// The current `NN_Reln` over full-corpus ids (with collapse on, the
    /// representative-space entries expanded through
    /// [`CollapseMap::expand_reln`]).
    pub fn nn_reln(&self) -> NnReln {
        self.reln.clone()
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
        NeighborSpec::from_cut(&self.cut, self.len()).into()
    }

    /// Append a batch of records, recompute every entry over the grown
    /// corpus, and recompute the partition. An empty batch changes nothing.
    pub fn insert_batch(&mut self, records: impl IntoIterator<Item = Vec<String>>) -> BatchStats {
        // Index the records (or, collapse mode, bump the multiplicity of
        // the class an exact duplicate falls in).
        let standing = self.index.len();
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
                    continue;
                }
            }
            self.index.push(record);
        }
        if inserted == 0 {
            return BatchStats { inserted, ..BatchStats::default() };
        }

        // Phase 1 over every entry (module docs), then Phase 2.
        let started = Instant::now();
        let spec = NeighborSpec::from_cut(&self.cut, self.len());
        let threads = (resolve_threads(0, self.index.len()), resolve_threads(0, self.len()));
        let (reln, _) = compute_nn_reln_parallel(&self.index, spec, self.p, threads.0);
        self.reln = match &self.collapse {
            None => reln,
            // Back to full-corpus ids through the class structure.
            Some(map) => {
                let visible: Vec<bool> =
                    (0..map.n_reps()).map(|r| self.index.record_has_terms(r as u32)).collect();
                map.expand_reln(&reln, spec, &visible)
            }
        };
        let phase1 = started.elapsed();
        let started = Instant::now();
        self.partition =
            partition_entries_parallel(&self.reln, self.cut, self.agg, self.c, threads.1);
        BatchStats { inserted, refreshed: standing, phase1, phase2: started.elapsed(), threads }
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

    /// The batch pipeline under `fresh_builder`'s parameters and `cut`.
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
        assert_eq!(stats.refreshed, 2, "every standing entry refreshes");
        assert!(inc.partition().are_together(0, 2));
        assert_eq!(inc.len(), 3);
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
        assert_eq!((stats.inserted, stats.refreshed), (records.len(), 0));
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
        assert_eq!(stats, BatchStats::default(), "nothing ran, so nothing was timed");
        assert!(inc.is_empty());
        inc.insert_batch(vec![vec!["solo".to_string()]]);
        let stats = inc.insert_batch(Vec::<Vec<String>>::new());
        assert_eq!(stats.inserted, 0);
        assert_eq!(inc.partition().num_groups(), 1);
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
    fn a_clone_chain_equals_plain_insert_batch() {
        // The service's discipline without the threads: every batch runs on
        // a clone of the previous state, which must come out where plain
        // `insert_batch` on one state does and leave the state it was
        // cloned from as it was. Near-duplicates, exact repeats inside and
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
                let mut cloned = builder.clone().build().unwrap();
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
                    let before = view(&cloned);
                    let mut next = cloned.clone();
                    let got = next.insert_batch(batch);
                    assert_eq!(view(&cloned), before, "{what}: the source moved at {at}");
                    cloned = next;

                    let counts = |s: BatchStats| (s.inserted, s.refreshed);
                    assert_eq!(counts(got), counts(want), "{what}: stats at {at}");
                    assert_eq!(view(&cloned), view(&plain), "{what}: state at {at}");
                }
            }
        }
    }

    #[test]
    fn a_batch_refreshes_every_standing_entry() {
        // Even when the arrival shares no term with any of them: `N` moves
        // every IDF weight and the stop threshold.
        let mut inc = fresh();
        inc.insert_batch((0..20).map(|i| vec![format!("record {i:02}")]));
        let stats = inc.insert_batch(vec![vec!["zzz".to_string()]]);
        assert_eq!((stats.inserted, stats.refreshed), (1, 20));
    }
}
