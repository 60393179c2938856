//! MinHash-LSH signature index.
//!
//! The second family of probabilistic nearest-neighbor indexes the paper
//! cites ([23, 24]) are *signature schemes*: hash each record's term set to
//! a short signature such that similar records collide. We implement the
//! classic MinHash + banded LSH construction:
//!
//! * each record's term set (padded q-grams + tokens, as in the inverted
//!   index) is hashed by `num_hashes` independent hash functions; the
//!   minimum value per function forms the signature — the probability two
//!   records agree on one coordinate equals their term-set Jaccard
//!   similarity;
//! * signatures are cut into `bands` of `rows` coordinates; records
//!   agreeing on *all* rows of any band become candidates of each other
//!   (collision probability `1 − (1 − s^rows)^bands` — the standard
//!   S-curve);
//! * candidates are verified with the exact distance function.
//!
//! Compared to the inverted index, LSH probing is `O(bands)` per query
//! regardless of corpus size, at the price of recall on low-similarity
//! pairs; the test suite measures that recall against the exact reference,
//! mirroring how the paper "treat\[s\] these probabilistic indexes as exact"
//! after empirical validation.

use std::collections::HashMap;

use fuzzydedup_metrics::{incr, Counter};
use fuzzydedup_relation::Neighbor;
use fuzzydedup_textdist::{record_term_set, CompiledRecords, Distance};

use crate::candgen::RecordMeta;
use crate::driver::{self, CandidateSource, Gathered};
use crate::scratch::with_scoreboard;
use crate::{LookupCost, LookupSpec, NnIndex, PairDistanceCache, RecordView};

/// Configuration of the MinHash index.
#[derive(Debug, Clone)]
pub struct MinHashConfig {
    /// q-gram length for the term set (default 3).
    pub q: usize,
    /// Number of LSH bands.
    pub bands: usize,
    /// Signature rows per band (`num_hashes = bands × rows`).
    pub rows: usize,
    /// Seed for the hash family (index rebuilds are deterministic).
    pub seed: u64,
}

impl Default for MinHashConfig {
    fn default() -> Self {
        // 32 bands × 4 rows: collision probability ≥ 0.95 at Jaccard 0.5,
        // ≈ 0.27 at Jaccard 0.2 — tuned for near-duplicate term overlap.
        Self { q: 3, bands: 32, rows: 4, seed: 0x5EED }
    }
}

/// splitmix64 — cheap, well-distributed 64-bit mixer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn hash_term(term: &str) -> u64 {
    // FNV-1a, then mixed: stable across runs, no external deps.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in term.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    mix(h)
}

/// MinHash-LSH nearest-neighbor index; see module docs.
pub struct MinHashIndex<D> {
    records: Vec<Vec<String>>,
    distance: D,
    config: MinHashConfig,
    /// Per-band hash buckets: signature-slice hash → record ids.
    buckets: Vec<HashMap<u64, Vec<u32>>>,
    /// Signatures kept for diagnostics (`bands × rows` values per record).
    signatures: Vec<Vec<u64>>,
    /// Per-record length statistics for the length pruning filter.
    meta: Vec<RecordMeta>,
    /// Every record compiled once by the distance
    /// ([`Distance::compile_record`]): what verification reads candidates
    /// from.
    compiled: CompiledRecords,
    /// Whether the distance admits the q-gram pruning filters. The LSH
    /// index tracks no per-candidate overlap mass, so only the length
    /// bound applies.
    filter_ok: bool,
    /// Per-record multiplicities of a collapsed corpus (DESIGN.md §7.10);
    /// `None` for an ordinary (uncollapsed) corpus.
    mult: Option<Vec<u32>>,
}

impl<D: Distance> MinHashIndex<D> {
    /// Build the index over a corpus.
    pub fn build(records: Vec<Vec<String>>, distance: D, config: MinHashConfig) -> Self {
        assert!(config.bands > 0 && config.rows > 0, "bands and rows must be positive");
        let num_hashes = config.bands * config.rows;
        let mut signatures: Vec<Vec<u64>> = Vec::with_capacity(records.len());
        let mut meta = Vec::with_capacity(records.len());
        for record in &records {
            let fields: Vec<&str> = record.iter().map(String::as_str).collect();
            let ts = record_term_set(&fields, config.q, true);
            meta.push(RecordMeta { chars: ts.chars, grams: ts.gram_total });
            let mut sig = vec![u64::MAX; num_hashes];
            for (term, _) in &ts.terms {
                let base = hash_term(term);
                for (i, slot) in sig.iter_mut().enumerate() {
                    // The i-th hash function: mix the term hash with a
                    // per-function constant derived from the seed.
                    let h = mix(base ^ mix(config.seed.wrapping_add(i as u64)));
                    if h < *slot {
                        *slot = h;
                    }
                }
            }
            signatures.push(sig);
        }
        let mut buckets: Vec<HashMap<u64, Vec<u32>>> =
            (0..config.bands).map(|_| HashMap::new()).collect();
        for (id, sig) in signatures.iter().enumerate() {
            for (band, bucket_map) in buckets.iter_mut().enumerate() {
                let slice = &sig[band * config.rows..(band + 1) * config.rows];
                let mut key: u64 = 0x9E37_79B9;
                for &v in slice {
                    key = mix(key ^ v);
                }
                bucket_map.entry(key).or_default().push(id as u32);
            }
        }
        let filter_ok = distance.admits_qgram_filter();
        let compiled = CompiledRecords::compile(&distance, &records);
        Self {
            records,
            distance,
            config,
            buckets,
            signatures,
            meta,
            compiled,
            filter_ok,
            mult: None,
        }
    }

    /// Build over a collapsed corpus: record `i` stands for
    /// `multiplicities[i]` identical originals. Identical records hash to
    /// identical signatures, so banding is unchanged; combined lookups
    /// weight cutoffs and growth counts by multiplicity.
    pub fn build_collapsed(
        records: Vec<Vec<String>>,
        multiplicities: Vec<u32>,
        distance: D,
        config: MinHashConfig,
    ) -> Self {
        assert_eq!(records.len(), multiplicities.len(), "one multiplicity per record");
        assert!(multiplicities.iter().all(|&m| m >= 1), "multiplicities are positive");
        let mut built = Self::build(records, distance, config);
        built.mult = Some(multiplicities);
        built
    }

    /// Candidate ids: all records colliding with `id` in at least one
    /// band. Cross-band duplicates (near-duplicates collide in *many*
    /// bands) are deduplicated on the epoch-stamped scoreboard — one
    /// stamp check per collision instead of sorting the multiset — with
    /// the query's own id excluded by pre-stamping its slot.
    fn candidates(&self, id: u32) -> Vec<u32> {
        let sig = &self.signatures[id as usize];
        let out = with_scoreboard(|board| {
            board.begin(self.records.len());
            board.exclude(id);
            for (band, bucket_map) in self.buckets.iter().enumerate() {
                let slice = &sig[band * self.config.rows..(band + 1) * self.config.rows];
                let mut key: u64 = 0x9E37_79B9;
                for &v in slice {
                    key = mix(key ^ v);
                }
                if let Some(ids) = bucket_map.get(&key) {
                    for &o in ids {
                        board.add(o, 0.0, 0);
                    }
                }
            }
            board.admitted_ids() // ascending — the stamp scan sorts
        });
        incr(Counter::CandidatesGenerated, out.len() as u64);
        out
    }

    /// Estimated Jaccard similarity of two records from their signatures.
    pub fn estimated_jaccard(&self, a: u32, b: u32) -> f64 {
        let sa = &self.signatures[a as usize];
        let sb = &self.signatures[b as usize];
        let agree = sa.iter().zip(sb).filter(|(x, y)| x == y).count();
        agree as f64 / sa.len() as f64
    }

    /// Exact distance between two indexed records.
    pub fn distance_between(&self, a: u32, b: u32) -> f64 {
        let ra: Vec<&str> = self.records[a as usize].iter().map(String::as_str).collect();
        let rb: Vec<&str> = self.records[b as usize].iter().map(String::as_str).collect();
        self.distance.distance(&ra, &rb)
    }
}

impl<D: Distance> CandidateSource for MinHashIndex<D> {
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

    /// One band probe. It tracks no overlap mass, so only the length
    /// bound of the filter applies; banding is distance-agnostic, so
    /// `radius_bound` goes unused.
    fn gather_candidates(&self, id: u32, _radius_bound: Option<f64>) -> Gathered {
        Gathered::ids_only(self.candidates(id), self.meta[id as usize])
    }
}

impl<D: Distance> NnIndex for MinHashIndex<D> {
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
    use fuzzydedup_textdist::EditDistance;

    fn corpus() -> Vec<Vec<String>> {
        [
            "the doors",
            "doors",
            "the beatles",
            "beatles the",
            "shania twain",
            "twian shania",
            "aaliyah",
            "bob dylan",
            "golden dragon palace",
            "golden dragon palce",
        ]
        .iter()
        .map(|s| vec![s.to_string()])
        .collect()
    }

    fn index() -> MinHashIndex<EditDistance> {
        MinHashIndex::build(corpus(), EditDistance, MinHashConfig::default())
    }

    #[test]
    fn finds_near_duplicates() {
        let idx = index();
        let nn = idx.top_k(8, 1);
        assert_eq!(nn[0].id, 9, "one-typo pair must collide in some band");
        let nn = idx.top_k(0, 1);
        assert_eq!(nn[0].id, 1);
    }

    #[test]
    fn excludes_self_and_sorts() {
        let idx = index();
        for id in 0..idx.len() as u32 {
            let nn = idx.top_k(id, 5);
            assert!(nn.iter().all(|n| n.id != id));
            assert!(nn.windows(2).all(|w| w[0].dist <= w[1].dist));
        }
    }

    #[test]
    fn estimated_jaccard_tracks_overlap() {
        let idx = index();
        let close = idx.estimated_jaccard(8, 9);
        let far = idx.estimated_jaccard(8, 6);
        assert!(close > far, "close {close} far {far}");
        assert_eq!(idx.estimated_jaccard(0, 0), 1.0);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = MinHashIndex::build(corpus(), EditDistance, MinHashConfig::default());
        let b = MinHashIndex::build(corpus(), EditDistance, MinHashConfig::default());
        for id in 0..a.len() as u32 {
            assert_eq!(a.top_k(id, 3), b.top_k(id, 3));
        }
    }

    #[test]
    fn recall_against_exact_reference() {
        // Generate a corpus of phrase pairs differing by one token-level
        // typo; LSH must find nearly all of them.
        let mut records: Vec<Vec<String>> = Vec::new();
        for i in 0..150 {
            let base = format!("specimen entity number {i:04} with stable suffix tokens");
            let variant = base.replace("stable", "stab1e");
            records.push(vec![base]);
            records.push(vec![variant]);
        }
        let lsh = MinHashIndex::build(records.clone(), EditDistance, MinHashConfig::default());
        let exact = NestedLoopIndex::new(records.clone(), EditDistance);
        let mut agree = 0;
        let n = records.len() as u32;
        for id in 0..n {
            let truth = exact.top_k(id, 1)[0].id;
            if lsh.top_k(id, 1).first().map(|x| x.id) == Some(truth) {
                agree += 1;
            }
        }
        let recall = f64::from(agree) / f64::from(n);
        assert!(recall > 0.9, "LSH nearest-neighbor recall {recall:.3}");
    }

    #[test]
    fn within_respects_radius() {
        let idx = index();
        for id in 0..idx.len() as u32 {
            for nb in idx.within(id, 0.25) {
                assert!(nb.dist < 0.25);
                assert_eq!(nb.dist, idx.distance_between(id, nb.id));
            }
        }
    }

    #[test]
    fn few_bands_lose_recall() {
        // 1 band × 4 rows: collision only when all 4 minima agree — weak.
        let weak = MinHashIndex::build(
            corpus(),
            EditDistance,
            MinHashConfig { bands: 1, rows: 8, ..Default::default() },
        );
        let strong = index();
        let weak_found: usize = (0..weak.len() as u32).map(|id| weak.top_k(id, 1).len()).sum();
        let strong_found: usize =
            (0..strong.len() as u32).map(|id| strong.top_k(id, 1).len()).sum();
        assert!(weak_found <= strong_found);
    }

    #[test]
    #[should_panic(expected = "bands and rows")]
    fn zero_bands_panics() {
        MinHashIndex::build(
            corpus(),
            EditDistance,
            MinHashConfig { bands: 0, ..Default::default() },
        );
    }

    #[test]
    fn empty_corpus() {
        let idx = MinHashIndex::build(Vec::new(), EditDistance, MinHashConfig::default());
        assert!(idx.is_empty());
    }
}
