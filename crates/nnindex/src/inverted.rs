//! IDF-weighted inverted index over q-grams and tokens, with filtered
//! candidate generation.
//!
//! This is our stand-in for the probabilistic nearest-neighbor indexes the
//! paper cites for edit distance and fuzzy match similarity ([24, 23, 9]):
//! an inverted index in the IR style, queried in two steps —
//!
//! 1. **candidate generation**: merge the postings of the query record's
//!    terms (padded q-grams of the normalized record string, plus whole
//!    tokens) and accumulate per-candidate shared IDF weight and q-gram
//!    overlap mass;
//! 2. **verification**: compute the exact distance to the
//!    highest-weight candidates and keep the qualifying ones.
//!
//! **One struct over its postings layout.** The paper's partition does not
//! depend on arrival order, so the index a batch run builds and the index a
//! stream grows are the same object at two moments. An
//! [`InvertedIndex<D, Growing>`] takes records one [`push`] at a time —
//! term set → dictionary / document frequency / posting, the cached query,
//! the filter statistics, the compiled record and the multiplicity are all
//! written there, once — and answers while it grows: IDF weights and the
//! stop-gram test are evaluated at lookup from the maintained document
//! frequencies, so a term that becomes common loses discrimination power
//! without a rebuild. [`InvertedIndex::build`] is push-all followed by a
//! freeze into the place [`InvertedIndexConfig::postings_source`] names:
//! [`PostingsSource::Memory`] (default) keeps the lists `push` grew, moved
//! into sorted term order; [`PostingsSource::Pages`] writes them as chunked
//! records of a [`HeapFile`] in that order (the paper's picture: "nearest
//! neighbor indexes ... have a structure similar to inverted indexes in IR,
//! and are usually large", so lookups hit the database buffer — the
//! locality the breadth-first lookup order of §4.1.1 exploits). A
//! [`Frozen`] index has no `push`; no lookup, growing or frozen,
//! re-tokenizes an indexed record.
//!
//! There is one merge, onto the one epoch-stamped scoreboard
//! (`scratch::Scoreboard`): a term at a time in term-string order, fed from
//! a growing list, a frozen list or a heap page's chunks alike — so every
//! candidate's weight is the same `f64` sum wherever its postings live, and
//! a grown index, a `Memory` build and a `Pages` build answer bit for bit
//! alike, capped or not. The lookup driver's gather scaffold wraps it in
//! the stop-gram fallback and top-candidate selection. On top of the merge
//! sits the **candidate ladder** (DESIGN.md §7.3): q-gram length/count
//! pruning during verification, reusing the exact running cutoff of bounded
//! verification, so results are identical to the unfiltered path; where no
//! sound bound exists (distances without [`Distance::admits_qgram_filter`])
//! the filters degrade to no-ops.
//!
//! Like the paper, we *treat this index as exact* (§4: "For the purpose of
//! this paper, we treat these probabilistic indexes as exact nearest
//! neighbor indexes"); `tests/` measure how close it gets against
//! [`crate::NestedLoopIndex`].
//!
//! [`push`]: InvertedIndex::push

use std::collections::HashMap;
use std::sync::Arc;

use fuzzydedup_relation::Neighbor;
use fuzzydedup_storage::{BufferPool, HeapFile, RecordId};
use fuzzydedup_textdist::{record_term_set, CompiledRecords, Distance};

use crate::candgen::RecordMeta;
use crate::driver::{self, CandidateSource, Gathered, Query};
use crate::scratch::{with_scoreboard, Scoreboard};
use crate::{LookupCost, LookupSpec, NnIndex, PairDistanceCache, RecordView};
use fuzzydedup_metrics::{incr, Counter};

/// Where [`InvertedIndex::build`] leaves the postings — the one Phase-1
/// regime decision: is the NN index resident, or larger than the database
/// buffer?
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PostingsSource {
    /// In memory (default): the `Vec<u32>` lists `push` grew, kept as they
    /// are.
    #[default]
    Memory,
    /// Heap-file postings read through the buffer pool: the paper's
    /// disk-resident index, the regime its breadth-first lookup order
    /// (§4.1.1, Fig 8) is for, and what a run whose postings do not fit in
    /// memory bounds them with.
    Pages,
}

/// q-gram length of the index's terms: every record is indexed under its
/// padded 3-grams and its whole tokens.
const Q: usize = 3;

/// Posting ids per heap record of a [`PostingsSource::Pages`] index: 1 KiB,
/// so a page holds several terms' chunks (cross-term locality) and a longer
/// list spans several records.
const CHUNK_IDS: usize = 256;

/// Configuration of the inverted index. The term shape is fixed (padded
/// 3-grams plus whole tokens); what stays configurable is what the
/// experiments and the repo benchmark set.
#[derive(Debug, Clone)]
pub struct InvertedIndexConfig {
    /// Verify at most this many candidates per query, highest shared
    /// weight first (0 = verify everything sharing a term).
    pub candidate_limit: usize,
    /// Skip terms whose document frequency exceeds this fraction of the
    /// corpus ("stop grams"): they add little discrimination at high cost.
    pub max_df_fraction: f64,
    /// Never treat a term as a stop gram unless its document frequency
    /// also exceeds this floor. Guards small corpora, where pruning even
    /// moderately-shared terms destroys recall (and with it the
    /// neighborhood-growth estimates the SN criterion depends on).
    pub stop_df_floor: u32,
    /// Where [`InvertedIndex::build`] leaves the postings. A growing index
    /// never reads it.
    pub postings_source: PostingsSource,
}

impl Default for InvertedIndexConfig {
    fn default() -> Self {
        Self {
            candidate_limit: 256,
            max_df_fraction: 0.2,
            stop_df_floor: 100,
            postings_source: PostingsSource::Memory,
        }
    }
}

/// One term of a record's cached query: term id plus the record-side
/// q-gram multiset count (`0` for a token-only term, which carries IDF
/// weight but no overlap mass).
type QueryTerm = (u32, u32);

/// A query term one merge pass applies: term id, gram count, IDF weight.
type MergeTerm = (u32, u32, f64);

/// The postings layout of an [`InvertedIndex`]: [`Growing`] while records
/// arrive, [`Frozen`] once [`InvertedIndex::build`] has put them where they
/// stay. Everything else about the index — and every answer it gives — is
/// the same under both.
pub trait Layout: Send + Sync + Sized {
    /// Term `tid`'s IDF weight and stop-gram verdict.
    #[doc(hidden)]
    fn term<D: Distance>(index: &InvertedIndex<D, Self>, tid: u32) -> (f64, bool);

    /// Merge the postings of `terms`, in order: every record holding one,
    /// `exclude` withheld, is appended to `out` as `(id, weight, shared
    /// gram mass)`.
    #[doc(hidden)]
    fn merge<D: Distance>(
        index: &InvertedIndex<D, Self>,
        terms: &[MergeTerm],
        exclude: Option<u32>,
        out: &mut Vec<(u32, f64, u32)>,
    );
}

/// Postings that still take records: one appendable list per term, term
/// ids in order of first appearance.
#[derive(Clone, Default)]
pub struct Growing {
    /// Term string → term id.
    dictionary: HashMap<String, u32>,
    /// Per term id, its document frequency in full-corpus units —
    /// maintained by [`InvertedIndex::push`] and
    /// [`InvertedIndex::note_duplicate`], never re-summed at lookup.
    df: Vec<u32>,
    /// Per term id, the ascending ids of the records that hold it.
    lists: Vec<Vec<u32>>,
}

/// Postings of a fixed corpus, term ids in sorted term order (so
/// neighboring ids are lexicographically-similar grams).
pub struct Frozen {
    terms: Vec<TermEntry>,
    postings: Postings,
}

/// Per-term state of a frozen index, indexed by term id.
struct TermEntry {
    /// IDF weight `ln(1 + N/df)`.
    weight: f64,
    /// Stop gram: df exceeded the configured cutoff at freeze.
    stop: bool,
}

/// Where a frozen index's postings live (see [`PostingsSource`]).
enum Postings {
    /// Per term id, the ascending record ids [`InvertedIndex::push`] grew.
    Lists(Vec<Vec<u32>>),
    Pages(PagedPostings),
}

/// Heap-file postings plus what a lookup needs to find them.
struct PagedPostings {
    heap: HeapFile,
    /// Per term id, its postings chunks in the heap file, in id order.
    chunks: Vec<Vec<RecordId>>,
}

/// Inverted-index nearest-neighbor search; see module docs.
#[derive(Clone)]
pub struct InvertedIndex<D, L = Frozen> {
    records: Vec<Vec<String>>,
    distance: D,
    config: InvertedIndexConfig,
    layout: L,
    /// Per-record query terms cached at [`Self::push`], in term-string order
    /// (which is term-id order once frozen).
    queries: Vec<Vec<QueryTerm>>,
    /// Per-record length/gram statistics for the pruning filters.
    meta: Vec<RecordMeta>,
    /// Every record compiled once by the distance ([`Distance::compile_record`]):
    /// what verification reads candidates from.
    compiled: CompiledRecords,
    /// Whether the distance admits the q-gram pruning filters.
    filter_ok: bool,
    /// Per-record multiplicities of a collapsed corpus (DESIGN.md §7.10):
    /// record `i` stands for `mult[i]` identical originals. `None` for an
    /// ordinary corpus. When present, document frequencies, IDF weights,
    /// stop-gram thresholds, the candidate budget, and the verification
    /// cutoffs are all computed in **full-corpus** units, so lookups are
    /// bit-equivalent to querying the uncollapsed corpus.
    mult: Option<Vec<u32>>,
    /// Full-corpus record count behind the index: the sum of `mult`, or
    /// the number of records.
    n_full: u64,
}

impl<D: Distance> InvertedIndex<D, Growing> {
    /// Create an empty index.
    pub fn new(distance: D, config: InvertedIndexConfig) -> Self {
        let filter_ok = distance.admits_qgram_filter();
        Self {
            records: Vec::new(),
            distance,
            config,
            layout: Growing::default(),
            queries: Vec::new(),
            meta: Vec::new(),
            compiled: CompiledRecords::default(),
            filter_ok,
            mult: None,
            n_full: 0,
        }
    }

    /// Create an empty index in **collapsed mode**: each pushed record is
    /// a class representative with multiplicity 1, bumped by
    /// [`Self::note_duplicate`] when an exact duplicate arrives
    /// (DESIGN.md §7.10).
    pub fn new_collapsed(distance: D, config: InvertedIndexConfig) -> Self {
        Self { mult: Some(Vec::new()), ..Self::new(distance, config) }
    }

    /// Append a record, returning its id. All per-record work of the
    /// index happens here, whichever way the index is later read.
    pub fn push(&mut self, record: Vec<String>) -> u32 {
        let id = self.records.len() as u32;
        let fields: Vec<&str> = record.iter().map(String::as_str).collect();
        let ts = record_term_set(&fields, Q);
        let Growing { dictionary, df, lists } = &mut self.layout;
        let query = ts.terms.into_iter().map(|(term, gram_count)| {
            let tid = *dictionary.entry(term).or_insert_with(|| {
                df.push(0);
                lists.push(Vec::new());
                (lists.len() - 1) as u32
            });
            df[tid as usize] += 1;
            // Term sets are deduplicated per record, so ids arrive in
            // strictly increasing order.
            lists[tid as usize].push(id);
            (tid, gram_count)
        });
        self.queries.push(query.collect());
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
    /// (collapsed mode only). Identical records carry identical term sets,
    /// so bumping the document frequency of each of `id`'s terms keeps
    /// them exactly those of the full corpus.
    pub fn note_duplicate(&mut self, id: u32) {
        let mult = self.mult.as_mut().expect("duplicates are noted in collapsed mode");
        mult[id as usize] += 1;
        self.n_full += 1;
        for &(tid, _) in &self.queries[id as usize] {
            self.layout.df[tid as usize] += 1;
        }
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
        // The probe's text is not indexed, so this is the one lookup that
        // tokenizes; a term no record holds has nothing to merge.
        let ts = record_term_set(fields, Q);
        let query: Vec<QueryTerm> = ts
            .terms
            .iter()
            .filter_map(|(term, gram_count)| {
                Some((*self.layout.dictionary.get(term)?, *gram_count))
            })
            .collect();
        let meta = RecordMeta { chars: ts.chars, grams: ts.gram_total };
        let gathered = self.gather(&query, meta, None, self.config.candidate_limit);
        driver::lookup_gathered(self, Query::External(fields), gathered, spec, p, None)
    }

    /// Leave the postings where [`InvertedIndexConfig::postings_source`]
    /// names, `Pages` through `pool`. Term ids are reassigned in sorted
    /// term order, for page locality and lexicographic adjacency of
    /// similar grams.
    fn freeze(mut self, pool: Arc<BufferPool>) -> InvertedIndex<D> {
        let Growing { dictionary, df, mut lists } = std::mem::take(&mut self.layout);
        let mut sorted: Vec<(String, u32)> = dictionary.into_iter().collect();
        sorted.sort_unstable();
        let mut postings = match self.config.postings_source {
            PostingsSource::Memory => Postings::Lists(Vec::with_capacity(sorted.len())),
            PostingsSource::Pages => Postings::Pages(PagedPostings {
                heap: HeapFile::create(pool),
                chunks: Vec::with_capacity(sorted.len()),
            }),
        };
        let mut frozen_tid = vec![0u32; sorted.len()];
        let mut terms = Vec::with_capacity(sorted.len());
        for (_, grown_tid) in sorted {
            let ids = std::mem::take(&mut lists[grown_tid as usize]);
            match &mut postings {
                Postings::Lists(frozen) => frozen.push(ids),
                Postings::Pages(PagedPostings { heap, chunks }) => {
                    let mut term_chunks = Vec::with_capacity(ids.len().div_ceil(CHUNK_IDS));
                    for chunk in ids.chunks(CHUNK_IDS) {
                        let mut bytes = Vec::with_capacity(chunk.len() * 4);
                        for &id in chunk {
                            bytes.extend_from_slice(&id.to_le_bytes());
                        }
                        term_chunks.push(heap.insert(&bytes).expect("postings chunk fits a page"));
                    }
                    chunks.push(term_chunks);
                }
            }
            frozen_tid[grown_tid as usize] = terms.len() as u32;
            let df = df[grown_tid as usize];
            let (weight, stop) = (self.idf_weight(df), self.is_stop_gram(df));
            terms.push(TermEntry { weight, stop });
        }
        // Term-string order is now term-id order.
        let mut queries = self.queries;
        for (tid, _) in queries.iter_mut().flatten() {
            *tid = frozen_tid[*tid as usize];
        }
        InvertedIndex {
            records: self.records,
            distance: self.distance,
            config: self.config,
            layout: Frozen { terms, postings },
            queries,
            meta: self.meta,
            compiled: self.compiled,
            filter_ok: self.filter_ok,
            mult: self.mult,
            n_full: self.n_full,
        }
    }
}

impl<D: Distance> InvertedIndex<D> {
    /// Build the index over a corpus — push every record, then freeze —
    /// storing [`PostingsSource::Pages`] postings through `pool`.
    pub fn build(
        records: Vec<Vec<String>>,
        distance: D,
        pool: Arc<BufferPool>,
        config: InvertedIndexConfig,
    ) -> Self {
        let mut index = InvertedIndex::new(distance, config);
        for record in records {
            index.push(record);
        }
        index.freeze(pool)
    }

    /// Build over a collapsed corpus: record `i` stands for
    /// `multiplicities[i]` identical originals (DESIGN.md §7.10).
    /// Identical records contribute identical term sets, so weighting each
    /// posting by its multiplicity reproduces the full corpus's document
    /// frequencies — and with them the IDF weights, stop-gram set, and
    /// query term order — exactly.
    pub fn build_collapsed(
        records: Vec<Vec<String>>,
        multiplicities: Vec<u32>,
        distance: D,
        pool: Arc<BufferPool>,
        config: InvertedIndexConfig,
    ) -> Self {
        assert_eq!(records.len(), multiplicities.len(), "one multiplicity per record");
        assert!(multiplicities.iter().all(|&m| m >= 1), "multiplicities are positive");
        let mut index = InvertedIndex::new_collapsed(distance, config);
        for (record, m) in records.into_iter().zip(multiplicities) {
            let id = index.push(record);
            for _ in 1..m {
                index.note_duplicate(id);
            }
        }
        index.freeze(pool)
    }

    /// Number of heap pages occupied by postings (`0` for an in-memory
    /// index, which never touches the pool).
    pub fn postings_pages(&self) -> usize {
        match &self.layout.postings {
            Postings::Lists(_) => 0,
            Postings::Pages(paged) => paged.heap.num_pages(),
        }
    }

    /// Postings footprint as `(raw, resident)`: the `4 × postings` bytes a
    /// `u32` per posting takes (what a [`PostingsSource::Pages`] index
    /// writes, before page overhead), and how many of them this index holds
    /// in memory — all for [`PostingsSource::Memory`], `0` for `Pages`.
    /// Per-term tables are excluded from both counts.
    pub fn postings_bytes(&self) -> (usize, usize) {
        // Every record appears once in the list of each of its terms.
        let raw = self.queries.iter().map(Vec::len).sum::<usize>() * 4;
        match &self.layout.postings {
            Postings::Lists(_) => (raw, raw),
            Postings::Pages(_) => (raw, 0),
        }
    }
}

impl<D: Distance, L: Layout> InvertedIndex<D, L> {
    /// Whether record `id` produces any indexed terms. For a collapsed
    /// corpus this decides whether a class's members can see each other at
    /// all in the full corpus (a term-less record generates no candidates,
    /// not even its exact duplicates), which the expansion of the
    /// representative relation must reproduce.
    pub fn record_has_terms(&self, id: u32) -> bool {
        !self.queries[id as usize].is_empty()
    }

    /// The indexed records.
    pub fn records(&self) -> &[Vec<String>] {
        &self.records
    }

    /// Full-corpus record count (equals [`NnIndex::len`] unless the corpus
    /// is collapsed).
    pub fn n_full(&self) -> u64 {
        self.n_full
    }

    /// Candidate ids for a query record in verification order (highest
    /// shared IDF weight first), capped at
    /// [`InvertedIndexConfig::candidate_limit`].
    pub fn generate_candidates(&self, id: u32) -> Vec<u32> {
        self.candidates_with_limit(id, self.config.candidate_limit)
    }

    /// [`Self::generate_candidates`] with an explicit cap (`0` =
    /// unlimited). The incremental-dedup affected-set scan needs the
    /// *uncapped* variant: candidate visibility is symmetric in shared
    /// terms, but the per-query cap is not — an existing record can rank a
    /// new record inside its own top-k while falling outside the new
    /// record's.
    pub fn candidates_with_limit(&self, id: u32, limit: usize) -> Vec<u32> {
        self.gather_indexed(id, limit).ids
    }

    /// [`NnIndex::lookup`] with a shared [`PairDistanceCache`] consulted
    /// during candidate verification — same answer, fewer distance calls
    /// where lookups re-verify pairs (the incremental path, DESIGN.md
    /// §7.5).
    pub fn lookup_memoized(
        &self,
        id: u32,
        spec: LookupSpec,
        p: f64,
        memo: &dyn PairDistanceCache,
    ) -> (Vec<Neighbor>, f64, LookupCost) {
        driver::lookup(self, id, spec, p, Some(memo))
    }

    /// IDF weight `ln(1 + N/df)` of a term, `N` and `df` in full-corpus
    /// units. A frozen index evaluates this and [`Self::is_stop_gram`] per
    /// term at freeze, a growing one per merged term at lookup.
    fn idf_weight(&self, df: u32) -> f64 {
        (1.0 + self.n_full.max(1) as f64 / f64::from(df)).ln()
    }

    /// Whether a term of document frequency `df` is a stop gram.
    fn is_stop_gram(&self, df: u32) -> bool {
        let floor = f64::from(self.config.stop_df_floor);
        f64::from(df) > (self.config.max_df_fraction * self.n_full as f64).max(floor)
    }

    fn gather_indexed(&self, id: u32, limit: usize) -> Gathered {
        self.gather(&self.queries[id as usize], self.meta[id as usize], Some(id), limit)
    }

    /// Generate, score, truncate: the driver's gather scaffold around the
    /// layout's merge — for an indexed query (`exclude = Some(id)`, read
    /// from its cached terms) and for a by-content probe alike. A pass
    /// that drops stop grams leaves their gram mass unmerged: the count
    /// filter's slack.
    fn gather(
        &self,
        query: &[QueryTerm],
        query_meta: RecordMeta,
        exclude: Option<u32>,
        limit: usize,
    ) -> Gathered {
        driver::gather_merged(
            |include_stops, scored| {
                let (mut slack, mut dropped) = (0u32, 0u64);
                let mut terms: Vec<MergeTerm> = Vec::with_capacity(query.len());
                for &(tid, gram_count) in query {
                    let (weight, stop) = L::term(self, tid);
                    if stop && !include_stops {
                        slack += gram_count;
                        dropped += 1;
                    } else {
                        terms.push((tid, gram_count, weight));
                    }
                }
                L::merge(self, &terms, exclude, scored);
                (slack, dropped)
            },
            query.len(),
            limit,
            self.mult.as_deref().map(|m| (m, exclude.map_or(1, |id| m[id as usize]))),
            query_meta,
        )
    }
}

/// Start a merge pass on `board`: ids `0..n`, the query's own id — when it
/// has one — excluded by pre-stamping its slot, which spares a per-posting
/// `other != id` branch without changing the admitted set.
fn begin_merge(board: &mut Scoreboard, n: usize, exclude: Option<u32>) {
    board.begin(n);
    if let Some(id) = exclude {
        board.exclude(id);
    }
}

/// The merge: one term at a time in cached-query (term-string) order, which
/// fixes every per-candidate `f64` weight sum wherever the postings live.
/// `add_list` feeds a term's postings to [`Scoreboard::add_run`] and returns
/// how many there were.
fn merge_scalar(
    n: usize,
    terms: &[MergeTerm],
    exclude: Option<u32>,
    add_list: impl Fn(&mut Scoreboard, u32, f64, u32) -> u64,
    out: &mut Vec<(u32, f64, u32)>,
) {
    let mut scanned = 0u64;
    with_scoreboard(|board| {
        begin_merge(board, n, exclude);
        for &(tid, gram_count, weight) in terms {
            scanned += add_list(board, tid, weight, gram_count);
        }
        board.drain_into(out);
    });
    incr(Counter::NnPostingsScanned, scanned);
}

/// Feed one in-memory list to `board`, growing or frozen.
fn add_ids(board: &mut Scoreboard, ids: &[u32], weight: f64, gram_count: u32) -> u64 {
    board.add_run(ids.iter().copied(), weight, gram_count);
    ids.len() as u64
}

impl Layout for Growing {
    /// Evaluated at lookup: the corpus these describe is still growing.
    fn term<D: Distance>(index: &InvertedIndex<D, Self>, tid: u32) -> (f64, bool) {
        let df = index.layout.df[tid as usize];
        (index.idf_weight(df), index.is_stop_gram(df))
    }

    fn merge<D: Distance>(
        index: &InvertedIndex<D, Self>,
        terms: &[MergeTerm],
        exclude: Option<u32>,
        out: &mut Vec<(u32, f64, u32)>,
    ) {
        let add_list = |board: &mut Scoreboard, tid: u32, weight, gram_count| {
            add_ids(board, &index.layout.lists[tid as usize], weight, gram_count)
        };
        merge_scalar(index.records.len(), terms, exclude, add_list, out)
    }
}

impl Layout for Frozen {
    fn term<D: Distance>(index: &InvertedIndex<D, Self>, tid: u32) -> (f64, bool) {
        let entry = &index.layout.terms[tid as usize];
        (entry.weight, entry.stop)
    }

    fn merge<D: Distance>(
        index: &InvertedIndex<D, Self>,
        terms: &[MergeTerm],
        exclude: Option<u32>,
        out: &mut Vec<(u32, f64, u32)>,
    ) {
        let postings = &index.layout.postings;
        let add_list = |board: &mut Scoreboard, tid: u32, weight, gram_count| match postings {
            Postings::Lists(lists) => add_ids(board, &lists[tid as usize], weight, gram_count),
            // Every postings chunk is fetched through the buffer pool.
            Postings::Pages(paged) => {
                let mut scanned = 0;
                for &chunk in &paged.chunks[tid as usize] {
                    let bytes = paged.heap.get(chunk).expect("postings chunk exists");
                    scanned += (bytes.len() / 4) as u64;
                    let ids = bytes.chunks_exact(4).map(|raw| {
                        u32::from_le_bytes(raw.try_into().expect("chunks_exact(4) yields 4 bytes"))
                    });
                    board.add_run(ids, weight, gram_count);
                }
                scanned
            }
        };
        merge_scalar(index.records.len(), terms, exclude, add_list, out)
    }
}

impl<D: Distance, L: Layout> CandidateSource for InvertedIndex<D, L> {
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
        self.filter_ok.then_some((Q as u32, &self.meta[..]))
    }

    fn gather_candidates(&self, id: u32) -> Gathered {
        self.gather_indexed(id, self.config.candidate_limit)
    }
}

/// One candidate gather + one verification pass serves both the neighbor
/// list and the neighborhood growth — the access pattern the paper's
/// Phase 1 assumes, and half the I/O of two separate calls.
impl<D: Distance, L: Layout> NnIndex for InvertedIndex<D, L> {
    fn len(&self) -> usize {
        self.records.len()
    }

    fn lookup(&self, id: u32, spec: LookupSpec, p: f64) -> (Vec<Neighbor>, f64, LookupCost) {
        driver::lookup(self, id, spec, p, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{neighbors, NestedLoopIndex};
    use fuzzydedup_storage::{BufferPoolConfig, InMemoryDisk};
    use fuzzydedup_textdist::{EditDistance, UnfilteredDistance};

    const CORPUS: [&str; 10] = [
        "the doors",
        "doors",
        "the beatles",
        "beatles the",
        "shania twain",
        "twian shania",
        "4th elemynt",
        "4 th elemynt",
        "aaliyah",
        "bob dylan",
    ];

    fn corpus() -> Vec<Vec<String>> {
        CORPUS.iter().map(|s| vec![s.to_string()]).collect()
    }

    fn pool(frames: usize) -> Arc<BufferPool> {
        let disk = Arc::new(InMemoryDisk::new());
        Arc::new(BufferPool::new(BufferPoolConfig::with_capacity(frames), disk))
    }

    fn build(config: InvertedIndexConfig) -> InvertedIndex<EditDistance> {
        build_records(corpus(), config)
    }

    fn build_records(
        records: Vec<Vec<String>>,
        config: InvertedIndexConfig,
    ) -> InvertedIndex<EditDistance> {
        InvertedIndex::build(records, EditDistance, pool(16), config)
    }

    /// An index left growing over single-field records.
    fn grown<D: Distance>(
        records: &[&str],
        distance: D,
        config: InvertedIndexConfig,
    ) -> InvertedIndex<D, Growing> {
        let mut index = InvertedIndex::new(distance, config);
        for record in records {
            index.push(vec![record.to_string()]);
        }
        index
    }

    #[test]
    fn finds_obvious_neighbors() {
        let idx = build(InvertedIndexConfig::default());
        let nn = neighbors(&idx, 0, LookupSpec::TopK(1));
        assert_eq!(nn[0].id, 1, "'doors' is the nearest neighbor of 'the doors'");
        let nn = neighbors(&idx, 4, LookupSpec::TopK(1));
        assert_eq!(nn[0].id, 5, "transposed tokens still share grams");
    }

    #[test]
    fn excludes_self() {
        let idx = build(InvertedIndexConfig::default());
        for id in 0..idx.len() as u32 {
            assert!(neighbors(&idx, id, LookupSpec::TopK(5)).iter().all(|n| n.id != id));
        }
    }

    #[test]
    fn an_index_holds_its_postings_in_one_place() {
        let pool = pool(16);
        let memory = InvertedIndex::build(corpus(), EditDistance, pool.clone(), Default::default());
        // An in-memory index never touches the pool, building or answering...
        assert_eq!(memory.postings_pages(), 0);
        assert_eq!(neighbors(&memory, 0, LookupSpec::TopK(1))[0].id, 1);
        assert_eq!(pool.stats(), Default::default());
        let (raw, resident) = memory.postings_bytes();
        assert!(raw > 0);
        assert_eq!(resident, raw);
        let config =
            InvertedIndexConfig { postings_source: PostingsSource::Pages, ..Default::default() };
        let pages = InvertedIndex::build(corpus(), EditDistance, pool, config);
        // ...and a paged build holds the same postings, none of them resident.
        assert!(pages.postings_pages() >= 1);
        assert_eq!(pages.postings_bytes(), (raw, 0));
    }

    #[test]
    fn agrees_with_nested_loop_on_close_pairs() {
        let idx = build(InvertedIndexConfig::default());
        let exact = NestedLoopIndex::new(corpus(), EditDistance);
        for id in 0..idx.len() as u32 {
            let approx = neighbors(&idx, id, LookupSpec::TopK(3));
            let truth = neighbors(&exact, id, LookupSpec::TopK(3));
            // The nearest neighbor (which drives nn(v) and the CS checks)
            // must agree whenever it is genuinely close.
            if truth[0].dist < 0.5 {
                assert_eq!(approx[0].id, truth[0].id, "query {id}");
                assert!((approx[0].dist - truth[0].dist).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn radius_lookups_respect_the_radius() {
        let idx = build(InvertedIndexConfig::default());
        for id in 0..idx.len() as u32 {
            for n in neighbors(&idx, id, LookupSpec::Radius(0.3)) {
                assert!(n.dist < 0.3);
                let (a, b) = (&idx.records()[id as usize], &idx.records()[n.id as usize]);
                assert_eq!(n.dist, EditDistance.distance(&[a[0].as_str()], &[b[0].as_str()]));
            }
        }
    }

    #[test]
    fn candidate_limit_caps_verification() {
        let small = build(InvertedIndexConfig { candidate_limit: 1, ..Default::default() });
        for id in 0..small.len() as u32 {
            assert!(neighbors(&small, id, LookupSpec::TopK(10)).len() <= 1);
        }
        let unlimited = build(InvertedIndexConfig { candidate_limit: 0, ..Default::default() });
        // Unlimited: everything sharing a term is verified.
        assert!(neighbors(&unlimited, 0, LookupSpec::TopK(10)).len() >= 2);
    }

    #[test]
    fn page_backed_lookups_touch_the_pool() {
        let pool = pool(2);
        let config =
            InvertedIndexConfig { postings_source: PostingsSource::Pages, ..Default::default() };
        let idx = InvertedIndex::build(corpus(), EditDistance, pool.clone(), config);
        assert!(idx.layout.terms.len() > 10);
        assert!(idx.postings_pages() >= 1);
        pool.reset_stats();
        neighbors(&idx, 0, LookupSpec::TopK(3));
        assert!(pool.stats().accesses() > 0, "page-backed queries must touch the buffer pool");
    }

    #[test]
    fn both_postings_sources_agree() {
        for candidate_limit in [0, 3, 256] {
            let memory = build(InvertedIndexConfig { candidate_limit, ..Default::default() });
            let pages = build(InvertedIndexConfig {
                candidate_limit,
                postings_source: PostingsSource::Pages,
                ..Default::default()
            });
            for id in 0..memory.len() as u32 {
                for spec in [LookupSpec::TopK(3), LookupSpec::TopK(4), LookupSpec::Radius(0.4)] {
                    let (n_k, ng_k, _) = memory.lookup(id, spec, 2.0);
                    let (n_p, ng_p, _) = pages.lookup(id, spec, 2.0);
                    assert_eq!((n_k, ng_k), (n_p, ng_p), "id {id} {spec:?}");
                }
            }
        }
    }

    #[test]
    fn stop_gram_pruning_drops_frequent_terms() {
        // With an aggressive df cutoff the shared token "the" cannot be the
        // only bridge between records.
        let strict = build(InvertedIndexConfig {
            max_df_fraction: 0.05,
            stop_df_floor: 3,
            ..Default::default()
        });
        // Index still functions.
        let nn = neighbors(&strict, 0, LookupSpec::TopK(1));
        assert_eq!(nn[0].id, 1);
    }

    #[test]
    fn fully_stopped_query_falls_back_to_stop_grams() {
        // Near-duplicate records: every term has df >= 2 > the stop
        // cutoff, so the first merge pass drops everything. The fallback
        // pass must still surface the duplicate instead of silently
        // returning nothing (the historical behavior).
        let records: Vec<Vec<String>> = ["the doors", "the doors", "the doors live", "the doors"]
            .iter()
            .map(|s| vec![s.to_string()])
            .collect();
        for source in [PostingsSource::Memory, PostingsSource::Pages] {
            let config = InvertedIndexConfig {
                max_df_fraction: 0.01,
                stop_df_floor: 1,
                postings_source: source,
                ..Default::default()
            };
            let idx = build_records(records.clone(), config);
            let (nn, delta) =
                fuzzydedup_metrics::scoped(|| neighbors(&idx, 0, LookupSpec::TopK(2)));
            assert!(!nn.is_empty(), "{source:?}: fallback must produce candidates");
            assert_eq!(nn[0].dist, 0.0, "{source:?}: the exact duplicate is found");
            assert_eq!(
                delta.get(Counter::StopGramsDropped),
                12,
                "{source:?}: dropped stop grams are counted"
            );
            assert_eq!(delta.get(Counter::CandidatesGenerated), 3, "{source:?}");
        }
    }

    #[test]
    fn empty_and_tiny_corpora() {
        let mut growing = InvertedIndex::new(EditDistance, Default::default());
        assert!(growing.is_empty());
        let (nn, ng, _) = growing.probe(&["anything"], LookupSpec::TopK(3), 2.0);
        assert!(nn.is_empty());
        assert_eq!(ng, 1.0);
        assert_eq!(growing.push(vec!["solo".to_string()]), 0);
        let built = build_records(vec![vec!["solo".to_string()]], Default::default());
        for idx in [&growing as &dyn NnIndex, &built] {
            assert!(neighbors(&idx, 0, LookupSpec::TopK(3)).is_empty());
            assert!(neighbors(&idx, 0, LookupSpec::Radius(0.9)).is_empty());
        }
    }

    #[test]
    fn grows_and_finds_new_neighbors() {
        let mut idx = grown(&["the doors", "aaliyah"], EditDistance, Default::default());
        assert!(neighbors(&idx, 0, LookupSpec::TopK(1))
            .first()
            .map(|n| n.dist > 0.5)
            .unwrap_or(true));
        let new_id = idx.push(vec!["doors".to_string()]);
        assert_eq!(new_id, 2);
        // The old record's nearest neighbor is now the new one.
        let nn = neighbors(&idx, 0, LookupSpec::TopK(1));
        assert_eq!(nn[0].id, 2);
        // And symmetrically.
        assert_eq!(neighbors(&idx, 2, LookupSpec::TopK(1))[0].id, 0);
    }

    #[test]
    fn candidate_sets_are_symmetric_for_shared_terms() {
        let records = ["golden dragon", "golden palace", "unrelated thing"];
        let idx = grown(&records, EditDistance, Default::default());
        assert!(idx.generate_candidates(0).contains(&1));
        assert!(idx.generate_candidates(1).contains(&0));
    }

    #[test]
    fn record_has_terms_bit_matches_retokenization() {
        let idx = grown(&["golden dragon", "", "  ", "ab", "?!"], EditDistance, Default::default());
        for (id, record) in idx.records().iter().enumerate() {
            let fields: Vec<&str> = record.iter().map(String::as_str).collect();
            let terms = record_term_set(&fields, Q).terms;
            assert_eq!(idx.record_has_terms(id as u32), !terms.is_empty(), "record {record:?}");
        }
        assert!(idx.record_has_terms(0));
        assert!(!idx.record_has_terms(1));
    }

    #[test]
    fn probe_finds_indexed_duplicate_at_distance_zero() {
        let records = ["golden dragon", "golden palace", "unrelated thing"];
        let idx = grown(&records, EditDistance, Default::default());
        let (neighbors, ng, cost) = idx.probe(&["golden dragon"], LookupSpec::TopK(2), 2.0);
        assert_eq!(neighbors[0].id, 0);
        assert_eq!(neighbors[0].dist, 0.0);
        assert!(ng >= 1.0);
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
        let unpruned = InvertedIndexConfig {
            candidate_limit: 0,
            stop_df_floor: u32::MAX,
            ..InvertedIndexConfig::default()
        };
        let inputs = [
            (small, InvertedIndexConfig::default(), ["the doorz", "shania twin", "zzz nothing"]),
            (
                noisy,
                unpruned,
                ["golden dragon palace branch 17", "goldn dragon palace brnch 3", "payload 777"],
            ),
        ];
        for (corpus, config, probes) in inputs {
            let corpus: Vec<&str> = corpus.iter().map(String::as_str).collect();
            for probe_text in probes {
                let base = grown(&corpus, EditDistance, config.clone());
                let mut ctrl = grown(&corpus, EditDistance, config.clone());
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
    fn filters_are_lossless_against_unfiltered_distance() {
        // The UnfilteredDistance adapter computes identical distances but
        // reports no q-gram bound, so generation and verification run
        // unpruned: both indexes must answer identically, frozen or
        // growing. candidate_limit is 0 so truncation cannot make the
        // comparison vacuous.
        let config = InvertedIndexConfig { candidate_limit: 0, ..Default::default() };
        let unfiltered = || UnfilteredDistance(EditDistance);
        let filtered = InvertedIndex::build(corpus(), EditDistance, pool(16), config.clone());
        let control = InvertedIndex::build(corpus(), unfiltered(), pool(16), config.clone());
        let growing = grown(&CORPUS, EditDistance, config.clone());
        let growing_control = grown(&CORPUS, unfiltered(), config);
        let pairs: [(&dyn NnIndex, &dyn NnIndex); 2] =
            [(&filtered, &control), (&growing, &growing_control)];
        for (filtered, control) in pairs {
            for id in 0..filtered.len() as u32 {
                for spec in [
                    LookupSpec::TopK(3),
                    LookupSpec::TopK(5),
                    LookupSpec::Radius(0.1),
                    LookupSpec::Radius(0.3),
                    LookupSpec::Radius(0.6),
                ] {
                    let (n_f, ng_f, cost_f) = filtered.lookup(id, spec, 2.0);
                    let (n_u, ng_u, cost_u) = control.lookup(id, spec, 2.0);
                    assert_eq!((n_f, ng_f), (n_u, ng_u), "id {id} {spec:?}");
                    assert_eq!(cost_f.candidates, cost_u.candidates, "id {id}");
                    assert!(cost_f.distance_calls <= cost_u.distance_calls, "id {id}");
                }
            }
        }
    }

    #[test]
    fn radius_results_match_the_unfiltered_control() {
        // Corpora with shared prefixes and varied lengths, tight radii
        // over long queries: a radius lookup must return exactly what the
        // unfiltered control returns.
        let records: Vec<Vec<String>> = (0..40)
            .map(|i| {
                let base = match i % 4 {
                    0 => format!("customer record number {i:02}"),
                    1 => format!("customer record numbr {i:02}"),
                    2 => format!("supplier invoice {i:02} pending review"),
                    _ => format!("zz{i:02}"),
                };
                vec![base]
            })
            .collect();
        let config = InvertedIndexConfig { candidate_limit: 0, ..Default::default() };
        let idx = build_records(records.clone(), config.clone());
        let pool = pool(16);
        let control = InvertedIndex::build(records, UnfilteredDistance(EditDistance), pool, config);
        for id in 0..idx.len() as u32 {
            for radius in [0.05, 0.15, 0.3] {
                let ((n_f, ng_f, _), (n_u, ng_u, _)) = (
                    idx.lookup(id, LookupSpec::Radius(radius), 2.0),
                    control.lookup(id, LookupSpec::Radius(radius), 2.0),
                );
                assert_eq!((n_f, ng_f), (n_u, ng_u), "id {id} radius {radius}");
            }
        }
    }

    #[test]
    fn chunking_splits_long_postings() {
        // 600 records sharing one token: its list spans three chunks of
        // `CHUNK_IDS`, and every chunk fits the page it is written to.
        let records: Vec<Vec<String>> =
            (0..600).map(|i| vec![format!("shared token{i:03}")]).collect();
        let idx = build_records(
            records,
            InvertedIndexConfig {
                max_df_fraction: 1.1,
                stop_df_floor: 1000,
                postings_source: PostingsSource::Pages,
                ..Default::default()
            },
        );
        assert!(CHUNK_IDS * 4 <= fuzzydedup_storage::Page::max_record_size());
        let Postings::Pages(paged) = &idx.layout.postings else { panic!("built as Pages") };
        // The shared token (and its grams) are the terms every record holds.
        assert!(paged.chunks.iter().any(|term_chunks| term_chunks.len() == 3));
        // And the index still answers queries.
        assert!(!neighbors(&idx, 0, LookupSpec::TopK(2)).is_empty());
    }

    /// Delegates to [`EditDistance`] but compiles nothing, so candidates
    /// reach the prepared query as raw fields — what a third-party
    /// distance that overrides only `prepare` gets.
    struct RawFieldsEdit;

    impl Distance for RawFieldsEdit {
        fn distance(&self, a: &[&str], b: &[&str]) -> f64 {
            EditDistance.distance(a, b)
        }
        fn distance_bounded(&self, a: &[&str], b: &[&str], cutoff: f64) -> Option<f64> {
            EditDistance.distance_bounded(a, b, cutoff)
        }
        fn prepare<'a>(&'a self, query: &[&str]) -> fuzzydedup_textdist::Prepared<'a> {
            EditDistance.prepare(query)
        }
        fn name(&self) -> &str {
            "rawfields-ed"
        }
    }

    #[test]
    fn compiled_store_matches_raw_field_path() {
        use fuzzydedup_textdist::Candidate;
        // Multi-field records with messy whitespace/case/punctuation so
        // the per-call normalize+join actually has work to do.
        let records: Vec<Vec<String>> = [
            vec!["Acme  Widgets", "12 Main St", "Springfield"],
            vec!["ACME widgets", "12 Main Street", "Springfield"],
            vec!["Beta Corp", "9 Pier Rd", "Oakland"],
            vec!["beta corp.", "9 pier road", "oakland"],
            vec!["Gamma LLC", "", "Dover"],
            vec!["Gama LLC", "--", "Dover"],
        ]
        .into_iter()
        .map(|r| r.into_iter().map(str::to_owned).collect())
        .collect();
        let config = InvertedIndexConfig::default();
        let compiled = build_records(records.clone(), config.clone());
        assert!(
            matches!(compiled.record_view().candidate(0), Candidate::Chars(_)),
            "ed compiles records to chars"
        );
        let pool = pool(16);
        let control = InvertedIndex::build(records, RawFieldsEdit, pool, config);
        assert!(
            matches!(control.record_view().candidate(0), Candidate::Fields(_)),
            "a distance that compiles nothing is verified from raw fields"
        );
        for id in 0..compiled.len() as u32 {
            for spec in [LookupSpec::TopK(3), LookupSpec::Radius(0.4)] {
                let (n_c, ng_c, _) = compiled.lookup(id, spec, 2.0);
                let (n_r, ng_r, _) = control.lookup(id, spec, 2.0);
                assert_eq!((n_c, ng_c), (n_r, ng_r), "id {id} {spec:?}");
            }
        }
    }
}
