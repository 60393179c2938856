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
//! An index holds its postings in exactly one layout, chosen at build by
//! [`InvertedIndexConfig::postings_source`] for the regime it serves:
//! [`PostingsSource::Packed`] (default) is the in-memory delta-block arena
//! ([`PackedPostings`]) with per-record term ids cached at build, so
//! lookups never re-tokenize and never touch the pool;
//! [`PostingsSource::Pages`] writes chunked records of a [`HeapFile`] in
//! sorted term order (the paper's picture: "nearest neighbor indexes ...
//! have a structure similar to inverted indexes in IR, and are usually
//! large", so lookups hit the database buffer — the locality the
//! breadth-first lookup order of §4.1.1 exploits).
//!
//! Both layouts merge onto the one epoch-stamped scoreboard
//! (`scratch::Scoreboard`), and the lookup driver's gather scaffold
//! wraps either merge in the same stop-gram fallback and top-candidate
//! selection. On top of the merge sits the **candidate ladder**
//! (DESIGN.md §7.3): q-gram length/count pruning during verification,
//! reusing the exact running cutoff of bounded verification, so results
//! are identical to the unfiltered path; where no sound bound exists
//! (distances without [`Distance::admits_qgram_filter`]) the filters
//! degrade to no-ops.
//!
//! Like the paper, we *treat this index as exact* (§4: "For the purpose of
//! this paper, we treat these probabilistic indexes as exact nearest
//! neighbor indexes"); `tests/` measure how close it gets against
//! [`crate::NestedLoopIndex`].

use std::collections::HashMap;
use std::sync::Arc;

use fuzzydedup_relation::Neighbor;
use fuzzydedup_storage::{BufferPool, HeapFile, Page, RecordId};
use fuzzydedup_textdist::{record_term_set, CompiledRecords, Distance};

use crate::candgen::{PackedPostings, RecordMeta};
use crate::driver::{self, CandidateSource, Gathered};
use crate::scratch::{with_merge_stage, with_scoreboard, StageRun};
use crate::{LookupCost, LookupSpec, NnIndex, PairDistanceCache, RecordView};
use fuzzydedup_metrics::{incr, Counter};

/// Most term runs staged per frontier flush of the packed merge. The
/// cached query is df-ascending — i.e. already sorted by posting-list
/// length — so a flush advances the next (up to) eight shortest unmerged
/// lists in lock-step through one flat SoA buffer.
const FRONTIER_LANES: usize = 8;

/// Most staged ids per frontier flush: bounds the stage buffer (16 KiB of
/// ids) so a flush's flat array stays L1/L2-resident while the scoreboard
/// adds stream over it.
const STAGE_CAP: usize = 4096;

/// Which postings layout an index builds and reads — the one Phase-1
/// regime decision: is the NN index resident, or larger than the database
/// buffer?
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PostingsSource {
    /// The in-memory delta-encoded block-compressed arena (default): ~4×
    /// denser than raw `u32` postings, merged by the staged lane-wise
    /// frontier.
    #[default]
    Packed,
    /// Heap-file postings read through the buffer pool: the paper's
    /// disk-resident index, the regime its breadth-first lookup order
    /// (§4.1.1, Fig 8) is for, and the behavioral reference for the packed
    /// merge.
    Pages,
}

/// Configuration of the inverted index.
#[derive(Debug, Clone)]
pub struct InvertedIndexConfig {
    /// q-gram length (default 3).
    pub q: usize,
    /// Also index whole tokens (helps token-level distances like fms).
    pub index_tokens: bool,
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
    /// Posting ids per storage chunk of a [`PostingsSource::Pages`] index
    /// (clamped to `[1, what one heap page holds]`). Smaller chunks pack
    /// more distinct terms per page, increasing cross-term locality.
    pub chunk_size: usize,
    /// Which postings layout the index builds and reads.
    pub postings_source: PostingsSource,
}

impl Default for InvertedIndexConfig {
    fn default() -> Self {
        Self {
            q: 3,
            index_tokens: true,
            candidate_limit: 256,
            max_df_fraction: 0.2,
            stop_df_floor: 100,
            chunk_size: 256,
            postings_source: PostingsSource::Packed,
        }
    }
}

/// Build-time per-term state, indexed by term id (term ids follow sorted
/// term order, so neighboring ids are lexicographically-similar grams).
struct TermEntry {
    /// IDF weight `ln(1 + N/df)`.
    weight: f64,
    /// Document frequency.
    df: u32,
    /// Stop gram: df exceeded the configured cutoff at build time.
    stop: bool,
}

/// The one postings layout an index holds (see [`PostingsSource`]).
enum Postings {
    Packed(PackedPostings),
    Pages(PagedPostings),
}

/// Heap-file postings plus what a lookup needs to find them.
struct PagedPostings {
    heap: HeapFile,
    /// Term string → term id: page-backed lookups re-tokenize the query
    /// and resolve strings at query time.
    term_ids: HashMap<String, u32>,
    /// Per term id, its postings chunks in the heap file, in id order.
    chunks: Vec<Vec<RecordId>>,
}

/// One term of a record's cached query: term id plus the record-side
/// q-gram multiset count (`0` for a token-only term, which carries IDF
/// weight but no overlap mass).
type QueryTerm = (u32, u32);

/// Inverted-index nearest-neighbor search; see module docs.
pub struct InvertedIndex<D> {
    records: Vec<Vec<String>>,
    distance: D,
    config: InvertedIndexConfig,
    terms: Vec<TermEntry>,
    postings: Postings,
    /// Per-record query terms cached at build, document-frequency
    /// ascending (rarest first: the packed merge's term order).
    queries: Vec<Vec<QueryTerm>>,
    /// Per-record length/gram statistics for the pruning filters.
    meta: Vec<RecordMeta>,
    /// Every record compiled once by the distance
    /// ([`Distance::compile_record`]): what verification reads candidates
    /// from.
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
}

impl<D: Distance> InvertedIndex<D> {
    /// Build the index over a corpus, storing postings through `pool`.
    pub fn build(
        records: Vec<Vec<String>>,
        distance: D,
        pool: Arc<BufferPool>,
        config: InvertedIndexConfig,
    ) -> Self {
        Self::build_inner(records, None, distance, pool, config)
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
        Self::build_inner(records, Some(multiplicities), distance, pool, config)
    }

    fn build_inner(
        records: Vec<Vec<String>>,
        mult: Option<Vec<u32>>,
        distance: D,
        pool: Arc<BufferPool>,
        config: InvertedIndexConfig,
    ) -> Self {
        // Extract every record's term set once; it feeds the postings,
        // the cached queries, and the filter statistics.
        let term_sets: Vec<_> = records
            .iter()
            .map(|record| {
                let fields: Vec<&str> = record.iter().map(String::as_str).collect();
                record_term_set(&fields, config.q, config.index_tokens)
            })
            .collect();
        let mut term_postings: HashMap<&str, Vec<u32>> = HashMap::new();
        for (id, ts) in term_sets.iter().enumerate() {
            for (term, _) in &ts.terms {
                // Term sets are deduplicated per record, so ids arrive in
                // strictly increasing order.
                term_postings.entry(term.as_str()).or_default().push(id as u32);
            }
        }
        // Assign term ids and write postings in sorted term order, for
        // page locality and lexicographic adjacency of similar grams.
        let mut sorted: Vec<(&str, Vec<u32>)> = term_postings.into_iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(b.0));
        // All corpus-level statistics are in full-corpus units: for a
        // collapsed corpus, N is the original record count and each
        // posting counts its multiplicity toward df — identical records
        // carry identical term sets, so these are exactly the df values
        // the uncollapsed build would compute.
        let n_full: u64 = match &mult {
            Some(m) => m.iter().map(|&x| u64::from(x)).sum(),
            None => records.len() as u64,
        };
        let n = n_full.max(1) as f64;
        let max_df = (config.max_df_fraction * n_full as f64).max(f64::from(config.stop_df_floor));
        let mut postings = match config.postings_source {
            PostingsSource::Packed => Postings::Packed(PackedPostings::new()),
            PostingsSource::Pages => Postings::Pages(PagedPostings {
                heap: HeapFile::create(pool),
                term_ids: HashMap::with_capacity(sorted.len()),
                chunks: Vec::with_capacity(sorted.len()),
            }),
        };
        let chunk_size = config.chunk_size.clamp(1, Page::max_record_size() / 4);
        let mut tid_of: HashMap<&str, u32> = HashMap::with_capacity(sorted.len());
        let mut terms = Vec::with_capacity(sorted.len());
        for (term, ids) in sorted {
            let df = match &mult {
                Some(m) => ids.iter().map(|&i| m[i as usize]).sum::<u32>(),
                None => ids.len() as u32,
            };
            let tid = terms.len() as u32;
            match &mut postings {
                Postings::Packed(packed) => packed.push_list(&ids),
                Postings::Pages(PagedPostings { heap, term_ids, chunks }) => {
                    let mut term_chunks = Vec::with_capacity(ids.len().div_ceil(chunk_size));
                    for chunk in ids.chunks(chunk_size) {
                        let mut bytes = Vec::with_capacity(chunk.len() * 4);
                        for &id in chunk {
                            bytes.extend_from_slice(&id.to_le_bytes());
                        }
                        term_chunks.push(heap.insert(&bytes).expect("postings chunk fits a page"));
                    }
                    chunks.push(term_chunks);
                    term_ids.insert(term.to_string(), tid);
                }
            }
            tid_of.insert(term, tid);
            let weight = (1.0 + n / f64::from(df)).ln();
            terms.push(TermEntry { weight, df, stop: f64::from(df) > max_df });
        }
        // Cache each record's query: term ids + gram counts, rarest term
        // first (ties by id for determinism).
        let mut queries = Vec::with_capacity(records.len());
        let mut meta = Vec::with_capacity(records.len());
        for ts in &term_sets {
            let mut query: Vec<QueryTerm> =
                ts.terms.iter().map(|(term, count)| (tid_of[term.as_str()], *count)).collect();
            query.sort_by_key(|&(tid, _)| (terms[tid as usize].df, tid));
            queries.push(query);
            meta.push(RecordMeta { chars: ts.chars, grams: ts.gram_total });
        }
        let filter_ok = distance.admits_qgram_filter();
        let compiled = CompiledRecords::compile(&distance, &records);
        Self {
            records,
            distance,
            config,
            terms,
            postings,
            queries,
            meta,
            compiled,
            filter_ok,
            mult,
        }
    }

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

    /// Number of heap pages occupied by postings (`0` for a packed index,
    /// which never touches the pool).
    pub fn postings_pages(&self) -> usize {
        match &self.postings {
            Postings::Packed(_) => 0,
            Postings::Pages(paged) => paged.heap.num_pages(),
        }
    }

    /// Exact distance between two indexed records.
    pub fn distance_between(&self, a: u32, b: u32) -> f64 {
        let ra: Vec<&str> = self.records[a as usize].iter().map(String::as_str).collect();
        let rb: Vec<&str> = self.records[b as usize].iter().map(String::as_str).collect();
        self.distance.distance(&ra, &rb)
    }

    /// Postings footprint as `(raw, packed)`: the raw `4 × postings` a
    /// `u32`-per-posting layout takes (what a [`PostingsSource::Pages`]
    /// index writes, before page overhead) against the delta arena plus its
    /// block directory (first id and offset 4 B each, length 2 B, width
    /// 1 B per block) — `0` for an index that holds no arena. Per-term offset
    /// tables are excluded from both counts. Backs the compression ratio
    /// quoted in DESIGN §7.7.
    pub fn postings_bytes(&self) -> (usize, usize) {
        // Every record appears once in the list of each of its terms.
        let raw = self.queries.iter().map(Vec::len).sum::<usize>() * 4;
        let packed = match &self.postings {
            Postings::Packed(packed) => packed.arena_bytes() + packed.num_blocks() * 11,
            Postings::Pages(_) => 0,
        };
        (raw, packed)
    }

    /// Candidate ids for a query record in verification order (highest
    /// shared IDF weight first). Public for benchmarks and experiments.
    pub fn generate_candidates(&self, id: u32) -> Vec<u32> {
        self.gather_candidates(id).ids
    }

    /// Packed merge: the staged lane-wise frontier over the delta-block
    /// arena (DESIGN.md §7.7), walking the cached query terms rarest-first:
    /// whole lists decode into a flat stage, and up to [`FRONTIER_LANES`]
    /// term runs are applied per scoreboard pass.
    ///
    /// Scores match a scalar one-term-at-a-time merge bit for bit (the
    /// packed-equivalence suite holds it to one):
    ///
    /// * terms are applied to the scoreboard strictly in cached-query
    ///   order (df-ascending = list-length-ascending), so every
    ///   candidate's `f64` weight accumulates in that order;
    /// * the query's own id is excluded by pre-stamping its slot, which
    ///   spares a per-posting `other != id` branch without changing the
    ///   admitted set.
    fn generate_packed(
        &self,
        packed: &PackedPostings,
        id: u32,
        include_stops: bool,
        out: &mut Vec<(u32, f64, u32)>,
    ) -> (u32, u64) {
        let query = &self.queries[id as usize];
        let mut slack = 0u32;
        let mut dropped = 0u64;
        // The mergeable terms, in query (df-ascending) order.
        let mut mergeable: Vec<(u32, u32)> = Vec::with_capacity(query.len());
        for &(tid, gram_count) in query {
            if !include_stops && self.terms[tid as usize].stop {
                slack += gram_count;
                dropped += 1;
            } else {
                mergeable.push((tid, gram_count));
            }
        }
        let mut scanned = 0u64;
        let mut batches = 0u64;
        let mut blocks_scanned = 0u64;
        with_scoreboard(|board| {
            with_merge_stage(|stage| {
                board.begin(self.records.len());
                board.exclude(id);
                stage.clear();
                for (k, &(tid, gram_count)) in mergeable.iter().enumerate() {
                    // Pull the next list's delta bytes toward L1 while
                    // this one is decoded.
                    if let Some(&(next_tid, _)) = mergeable.get(k + 1) {
                        packed.prefetch(next_tid);
                    }
                    let before = stage.ids.len();
                    blocks_scanned += packed.decode_list(tid, &mut stage.ids);
                    let len = (stage.ids.len() - before) as u32;
                    scanned += u64::from(len);
                    let entry = &self.terms[tid as usize];
                    stage.runs.push(StageRun { len, weight: entry.weight, overlap: gram_count });
                    if stage.runs.len() >= FRONTIER_LANES || stage.ids.len() >= STAGE_CAP {
                        board.apply_runs(&stage.ids, &stage.runs);
                        batches += 1;
                        stage.clear();
                    }
                }
                if !stage.runs.is_empty() {
                    board.apply_runs(&stage.ids, &stage.runs);
                    batches += 1;
                    stage.clear();
                }
                board.drain_into(out);
            })
        });
        incr(Counter::NnPostingsScanned, scanned);
        incr(Counter::CandBlocksScanned, blocks_scanned);
        incr(Counter::CandFrontierBatches, batches);
        (slack, dropped)
    }

    /// Page-backed merge: re-extracts the query's term set, resolves term
    /// strings through the dictionary, and fetches every postings chunk
    /// through the buffer pool — one term at a time in term-set order, onto
    /// the same scoreboard as the packed merge.
    fn generate_pages(
        &self,
        paged: &PagedPostings,
        id: u32,
        include_stops: bool,
        out: &mut Vec<(u32, f64, u32)>,
    ) -> (u32, u64) {
        let record = &self.records[id as usize];
        let fields: Vec<&str> = record.iter().map(String::as_str).collect();
        let ts = record_term_set(&fields, self.config.q, self.config.index_tokens);
        let mut scanned = 0u64;
        let mut slack = 0u32;
        let mut dropped = 0u64;
        with_scoreboard(|board| {
            board.begin(self.records.len());
            board.exclude(id);
            for (term, gram_count) in &ts.terms {
                let Some(&tid) = paged.term_ids.get(term) else { continue };
                let entry = &self.terms[tid as usize];
                if !include_stops && entry.stop {
                    slack += gram_count;
                    dropped += 1;
                    continue;
                }
                for &chunk in &paged.chunks[tid as usize] {
                    let bytes = paged.heap.get(chunk).expect("postings chunk exists");
                    scanned += (bytes.len() / 4) as u64;
                    let ids = bytes.chunks_exact(4).map(|raw| {
                        u32::from_le_bytes(raw.try_into().expect("chunks_exact(4) yields 4 bytes"))
                    });
                    board.add_run(ids, entry.weight, *gram_count);
                }
            }
            board.drain_into(out);
        });
        incr(Counter::NnPostingsScanned, scanned);
        (slack, dropped)
    }
}

impl<D: Distance> CandidateSource for InvertedIndex<D> {
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

    /// Generate, score, truncate: the driver's gather scaffold around this
    /// index's one merge.
    fn gather_candidates(&self, id: u32) -> Gathered {
        driver::gather_merged(
            |include_stops, scored| match &self.postings {
                Postings::Packed(packed) => self.generate_packed(packed, id, include_stops, scored),
                Postings::Pages(paged) => self.generate_pages(paged, id, include_stops, scored),
            },
            self.config.candidate_limit,
            self.mult.as_deref().map(|m| (m, m[id as usize])),
            self.meta[id as usize],
        )
    }
}

/// One candidate gather + one verification pass serves both the neighbor
/// list and the neighborhood growth — the access pattern the paper's
/// Phase 1 assumes, and half the I/O of two separate calls.
impl<D: Distance> NnIndex for InvertedIndex<D> {
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
    use crate::NestedLoopIndex;
    use fuzzydedup_storage::{BufferPoolConfig, InMemoryDisk};
    use fuzzydedup_textdist::{EditDistance, UnfilteredDistance};

    fn corpus() -> Vec<Vec<String>> {
        [
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
        ]
        .iter()
        .map(|s| vec![s.to_string()])
        .collect()
    }

    fn build(config: InvertedIndexConfig) -> InvertedIndex<EditDistance> {
        build_records(corpus(), config)
    }

    fn build_records(
        records: Vec<Vec<String>>,
        config: InvertedIndexConfig,
    ) -> InvertedIndex<EditDistance> {
        let disk = Arc::new(InMemoryDisk::new());
        let pool = Arc::new(BufferPool::new(BufferPoolConfig::with_capacity(16), disk));
        InvertedIndex::build(records, EditDistance, pool, config)
    }

    #[test]
    fn finds_obvious_neighbors() {
        let idx = build(InvertedIndexConfig::default());
        let nn = idx.top_k(0, 1);
        assert_eq!(nn[0].id, 1, "'doors' is the nearest neighbor of 'the doors'");
        let nn = idx.top_k(4, 1);
        assert_eq!(nn[0].id, 5, "transposed tokens still share grams");
    }

    #[test]
    fn excludes_self() {
        let idx = build(InvertedIndexConfig::default());
        for id in 0..idx.len() as u32 {
            assert!(idx.top_k(id, 5).iter().all(|n| n.id != id));
        }
    }

    #[test]
    fn an_index_holds_one_postings_layout() {
        let disk = Arc::new(InMemoryDisk::new());
        let pool = Arc::new(BufferPool::new(BufferPoolConfig::with_capacity(16), disk));
        let packed = InvertedIndex::build(corpus(), EditDistance, pool.clone(), Default::default());
        // A packed index never touches the pool, building or answering...
        assert_eq!(packed.postings_pages(), 0);
        assert_eq!(packed.top_k(0, 1)[0].id, 1);
        assert_eq!(pool.stats(), Default::default());
        let (raw, arena) = packed.postings_bytes();
        assert!(raw > 0 && arena > 0);
        // (The tiny test corpus is directory-dominated — mostly df-1
        // terms — so no compression claim here; that lives in the DESIGN
        // §7.7 numbers measured on the 10k bench corpus.)
        let config =
            InvertedIndexConfig { postings_source: PostingsSource::Pages, ..Default::default() };
        let pages = InvertedIndex::build(corpus(), EditDistance, pool, config);
        // ...and a paged build holds no arena, only the same raw postings.
        assert!(pages.postings_pages() >= 1);
        assert_eq!(pages.postings_bytes(), (raw, 0));
    }

    #[test]
    fn agrees_with_nested_loop_on_close_pairs() {
        let idx = build(InvertedIndexConfig::default());
        let exact = NestedLoopIndex::new(corpus(), EditDistance);
        for id in 0..idx.len() as u32 {
            let approx = idx.top_k(id, 3);
            let truth = exact.top_k(id, 3);
            // The nearest neighbor (which drives nn(v) and the CS checks)
            // must agree whenever it is genuinely close.
            if truth[0].dist < 0.5 {
                assert_eq!(approx[0].id, truth[0].id, "query {id}");
                assert!((approx[0].dist - truth[0].dist).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn within_respects_radius() {
        let idx = build(InvertedIndexConfig::default());
        for id in 0..idx.len() as u32 {
            for n in idx.within(id, 0.3) {
                assert!(n.dist < 0.3);
                assert_eq!(n.dist, idx.distance_between(id, n.id));
            }
        }
    }

    #[test]
    fn candidate_limit_caps_verification() {
        let small = build(InvertedIndexConfig { candidate_limit: 1, ..Default::default() });
        for id in 0..small.len() as u32 {
            assert!(small.top_k(id, 10).len() <= 1);
        }
        let unlimited = build(InvertedIndexConfig { candidate_limit: 0, ..Default::default() });
        // Unlimited: everything sharing a term is verified.
        assert!(unlimited.top_k(0, 10).len() >= 2);
    }

    #[test]
    fn page_backed_lookups_touch_the_pool() {
        let disk = Arc::new(InMemoryDisk::new());
        let pool = Arc::new(BufferPool::new(BufferPoolConfig::with_capacity(2), disk));
        let config =
            InvertedIndexConfig { postings_source: PostingsSource::Pages, ..Default::default() };
        let idx = InvertedIndex::build(corpus(), EditDistance, pool.clone(), config);
        assert!(idx.terms.len() > 10);
        assert!(idx.postings_pages() >= 1);
        pool.reset_stats();
        idx.top_k(0, 3);
        assert!(pool.stats().accesses() > 0, "page-backed queries must touch the buffer pool");
    }

    #[test]
    fn both_postings_sources_agree() {
        for candidate_limit in [0, 3, 256] {
            let packed = build(InvertedIndexConfig { candidate_limit, ..Default::default() });
            let pages = build(InvertedIndexConfig {
                candidate_limit,
                postings_source: PostingsSource::Pages,
                ..Default::default()
            });
            for id in 0..packed.len() as u32 {
                assert_eq!(packed.top_k(id, 4), pages.top_k(id, 4), "id {id}");
                assert_eq!(packed.within(id, 0.4), pages.within(id, 0.4), "id {id}");
                let (n_k, ng_k, _) = packed.lookup(id, LookupSpec::TopK(3), 2.0);
                let (n_p, ng_p, _) = pages.lookup(id, LookupSpec::TopK(3), 2.0);
                assert_eq!(n_k, n_p, "id {id}");
                assert_eq!(ng_k, ng_p, "id {id}");
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
        let nn = strict.top_k(0, 1);
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
        for source in [PostingsSource::Packed, PostingsSource::Pages] {
            let config = InvertedIndexConfig {
                max_df_fraction: 0.01,
                stop_df_floor: 1,
                postings_source: source,
                ..Default::default()
            };
            let idx = build_records(records.clone(), config);
            let (nn, delta) = fuzzydedup_metrics::scoped(|| idx.top_k(0, 2));
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
        let disk = Arc::new(InMemoryDisk::new());
        let pool = Arc::new(BufferPool::new(BufferPoolConfig::with_capacity(2), disk));
        let idx = InvertedIndex::build(
            vec![vec!["solo".to_string()]],
            EditDistance,
            pool,
            Default::default(),
        );
        assert!(idx.top_k(0, 3).is_empty());
        assert!(idx.within(0, 0.9).is_empty());
    }

    #[test]
    fn combined_lookup_matches_separate_calls() {
        let idx = build(InvertedIndexConfig::default());
        for id in 0..idx.len() as u32 {
            // Top-K flavor.
            let (neighbors, ng, cost) = idx.lookup(id, LookupSpec::TopK(3), 2.0);
            assert_eq!(neighbors, idx.top_k(id, 3), "id {id}");
            let nn = idx.top_k(id, 1).first().map(|n| n.dist);
            let expected_ng = match nn {
                Some(nn) if nn > 0.0 => idx.within(id, 2.0 * nn).len() as f64 + 1.0,
                _ => 1.0,
            };
            assert_eq!(ng, expected_ng, "id {id}");
            // The combined lookup gathers once: one probe; the pruning
            // filters may spare some candidates their distance call.
            assert_eq!(cost.probes, 1, "id {id}");
            assert_eq!(cost.fallback_probes, 0, "id {id}");
            assert!(cost.distance_calls <= cost.candidates, "id {id}");
            // Radius flavor.
            let (neighbors, _, _) = idx.lookup(id, LookupSpec::Radius(0.4), 2.0);
            assert_eq!(neighbors, idx.within(id, 0.4), "id {id}");
        }
    }

    #[test]
    fn filters_are_lossless_against_unfiltered_distance() {
        // The UnfilteredDistance adapter computes identical distances but
        // reports no q-gram bound, so generation and verification run
        // unpruned: both indexes must answer identically. candidate_limit
        // is 0 so truncation cannot make the comparison vacuous.
        let records = corpus();
        let config = InvertedIndexConfig { candidate_limit: 0, ..Default::default() };
        let disk = Arc::new(InMemoryDisk::new());
        let pool = Arc::new(BufferPool::new(BufferPoolConfig::with_capacity(16), disk));
        let filtered =
            InvertedIndex::build(records.clone(), EditDistance, pool.clone(), config.clone());
        let control = InvertedIndex::build(records, UnfilteredDistance(EditDistance), pool, config);
        for id in 0..filtered.len() as u32 {
            assert_eq!(filtered.top_k(id, 5), control.top_k(id, 5), "id {id}");
            for radius in [0.1, 0.3, 0.6] {
                assert_eq!(filtered.within(id, radius), control.within(id, radius), "id {id}");
            }
            let (n_f, ng_f, cost_f) = filtered.lookup(id, LookupSpec::TopK(3), 2.0);
            let (n_u, ng_u, cost_u) = control.lookup(id, LookupSpec::TopK(3), 2.0);
            assert_eq!(n_f, n_u, "id {id}");
            assert_eq!(ng_f, ng_u, "id {id}");
            assert_eq!(cost_f.candidates, cost_u.candidates, "id {id}");
            assert!(cost_f.distance_calls <= cost_u.distance_calls, "id {id}");
        }
    }

    #[test]
    fn radius_results_match_the_unfiltered_control() {
        // Corpora with shared prefixes and varied lengths, tight radii
        // over long queries: `within` must return exactly what the
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
        let disk = Arc::new(InMemoryDisk::new());
        let pool = Arc::new(BufferPool::new(BufferPoolConfig::with_capacity(16), disk));
        let control = InvertedIndex::build(records, UnfilteredDistance(EditDistance), pool, config);
        for id in 0..idx.len() as u32 {
            for radius in [0.05, 0.15, 0.3] {
                assert_eq!(idx.within(id, radius), control.within(id, radius), "id {id}");
            }
        }
    }

    #[test]
    fn chunking_splits_long_postings() {
        // 300 records sharing one token with chunk_size 64 → ≥5 chunks.
        let records: Vec<Vec<String>> =
            (0..300).map(|i| vec![format!("shared token{i:03}")]).collect();
        let idx = build_records(
            records,
            InvertedIndexConfig {
                chunk_size: 64,
                max_df_fraction: 1.1,
                stop_df_floor: 1000,
                postings_source: PostingsSource::Pages,
                ..Default::default()
            },
        );
        let Postings::Pages(paged) = &idx.postings else { panic!("built as Pages") };
        let tid = paged.term_ids["shared"];
        assert!(paged.chunks[tid as usize].len() >= 5);
        assert_eq!(idx.terms[tid as usize].df, 300);
        // And the index still answers queries.
        assert!(!idx.top_k(0, 2).is_empty());
    }

    #[test]
    fn chunk_size_is_clamped_to_what_a_page_holds() {
        // One token with 3000 postings: `chunk_size: 0` used to divide by
        // zero sizing the chunk vector, and a single 12 kB chunk does not
        // fit a page.
        let records: Vec<Vec<String>> =
            (0..3000).map(|i| vec![format!("shared t{i:04}")]).collect();
        let build = |chunk_size| {
            build_records(
                records.clone(),
                InvertedIndexConfig {
                    chunk_size,
                    postings_source: PostingsSource::Pages,
                    ..Default::default()
                },
            )
        };
        let reference = build(256);
        for chunk_size in [0, usize::MAX] {
            let idx = build(chunk_size);
            for id in [0, 1500, 2999] {
                assert_eq!(idx.top_k(id, 3), reference.top_k(id, 3), "chunk_size {chunk_size}");
            }
        }
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
        let disk = Arc::new(InMemoryDisk::new());
        let pool = Arc::new(BufferPool::new(BufferPoolConfig::with_capacity(16), disk));
        let control = InvertedIndex::build(records, RawFieldsEdit, pool, config);
        assert!(
            matches!(control.record_view().candidate(0), Candidate::Fields(_)),
            "a distance that compiles nothing is verified from raw fields"
        );
        for id in 0..compiled.len() as u32 {
            assert_eq!(compiled.top_k(id, 3), control.top_k(id, 3), "top_k id {id}");
            assert_eq!(compiled.within(id, 0.4), control.within(id, 0.4), "within id {id}");
        }
    }
}
