//! Exact nested-loop nearest-neighbor "index".
//!
//! The paper: "Otherwise, we apply nested loop join methods in this
//! phase." This implementation scans the entire corpus per query and is the
//! ground truth the inverted index is validated against.

use fuzzydedup_relation::Neighbor;
use fuzzydedup_textdist::{CompiledRecords, Distance};

use crate::candgen::RecordMeta;
use crate::driver::{self, CandidateSource, Gathered};
use crate::{sort_neighbors, LookupCost, LookupSpec, NnIndex, RecordView};

/// Exact nearest-neighbor search by full scan.
pub struct NestedLoopIndex<D> {
    records: Vec<Vec<String>>,
    distance: D,
    /// Every record compiled once by the distance, read by the combined
    /// lookup's verification (the full-scan primitives stay on the
    /// unprepared [`Distance::distance`]).
    compiled: CompiledRecords,
    /// Per-record multiplicities of a collapsed corpus (DESIGN.md §7.10);
    /// `None` for an ordinary (uncollapsed) corpus.
    mult: Option<Vec<u32>>,
}

impl<D: Distance> NestedLoopIndex<D> {
    /// Build over a corpus of records.
    pub fn new(records: Vec<Vec<String>>, distance: D) -> Self {
        let compiled = CompiledRecords::compile(&distance, &records);
        Self { records, distance, compiled, mult: None }
    }

    /// Build over a collapsed corpus: record `i` stands for
    /// `multiplicities[i]` identical originals, and combined lookups
    /// weight cutoffs and growth counts accordingly (bit-equivalent to
    /// scanning the full corpus).
    pub fn with_multiplicities(
        records: Vec<Vec<String>>,
        multiplicities: Vec<u32>,
        distance: D,
    ) -> Self {
        assert_eq!(records.len(), multiplicities.len(), "one multiplicity per record");
        assert!(multiplicities.iter().all(|&m| m >= 1), "multiplicities are positive");
        Self { mult: Some(multiplicities), ..Self::new(records, distance) }
    }

    /// The indexed records.
    pub fn records(&self) -> &[Vec<String>] {
        &self.records
    }

    /// Distance between two records by id.
    pub fn distance_between(&self, a: u32, b: u32) -> f64 {
        let ra: Vec<&str> = self.records[a as usize].iter().map(String::as_str).collect();
        let rb: Vec<&str> = self.records[b as usize].iter().map(String::as_str).collect();
        self.distance.distance(&ra, &rb)
    }

    fn all_neighbors(&self, id: u32) -> Vec<Neighbor> {
        let query: Vec<&str> = self.records[id as usize].iter().map(String::as_str).collect();
        let mut out = Vec::with_capacity(self.records.len().saturating_sub(1));
        for (other, rec) in self.records.iter().enumerate() {
            if other as u32 == id {
                continue;
            }
            let fields: Vec<&str> = rec.iter().map(String::as_str).collect();
            out.push(Neighbor::new(other as u32, self.distance.distance(&query, &fields)));
        }
        out
    }
}

impl<D: Distance> CandidateSource for NestedLoopIndex<D> {
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

    /// The exact reference keeps no statistics and prunes nothing.
    fn filter_stats(&self) -> Option<(u32, &[RecordMeta])> {
        None
    }

    /// Every other record is a candidate.
    fn gather_candidates(&self, id: u32) -> Gathered {
        let ids = (0..self.records.len() as u32).filter(|&other| other != id).collect();
        Gathered::ids_only(ids, RecordMeta::default())
    }
}

impl<D: Distance> NnIndex for NestedLoopIndex<D> {
    fn len(&self) -> usize {
        self.records.len()
    }

    /// Full scan with unbounded distance calls — deliberately *not*
    /// routed through the lookup driver, so the ground truth the other
    /// indexes (and the driver itself) are validated against shares no
    /// cutoff logic with them.
    fn top_k(&self, id: u32, k: usize) -> Vec<Neighbor> {
        let mut all = self.all_neighbors(id);
        sort_neighbors(&mut all);
        all.truncate(k);
        all
    }

    /// Full scan, like [`Self::top_k`].
    fn within(&self, id: u32, radius: f64) -> Vec<Neighbor> {
        let mut all = self.all_neighbors(id);
        all.retain(|n| n.dist < radius);
        sort_neighbors(&mut all);
        all
    }

    /// One corpus scan through the shared driver answers both the
    /// neighbor list and the growth estimate (the default implementation
    /// would scan up to three times), verifying with the current
    /// best-so-far as cutoff.
    fn lookup(&self, id: u32, spec: LookupSpec, p: f64) -> (Vec<Neighbor>, f64, LookupCost) {
        driver::lookup(self, id, spec, p, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzydedup_textdist::EditDistance;

    fn corpus() -> Vec<Vec<String>> {
        ["doors", "the doors", "beatles", "the beatles", "shania twain"]
            .iter()
            .map(|s| vec![s.to_string()])
            .collect()
    }

    fn index() -> NestedLoopIndex<EditDistance> {
        NestedLoopIndex::new(corpus(), EditDistance)
    }

    #[test]
    fn top_k_excludes_self_and_is_sorted() {
        let idx = index();
        let nn = idx.top_k(1, 4);
        assert_eq!(nn.len(), 4);
        assert!(nn.iter().all(|n| n.id != 1));
        assert!(nn.windows(2).all(|w| w[0].dist <= w[1].dist));
        // "doors" is the nearest neighbor of "the doors".
        assert_eq!(nn[0].id, 0);
    }

    #[test]
    fn top_k_truncates_to_corpus() {
        let idx = index();
        assert_eq!(idx.top_k(0, 100).len(), 4);
        assert_eq!(idx.top_k(0, 0).len(), 0);
    }

    #[test]
    fn within_uses_strict_inequality() {
        let idx = index();
        let d = idx.distance_between(0, 1);
        assert!(idx.within(0, d).iter().all(|n| n.id != 1), "boundary excluded");
        assert!(idx.within(0, d + 1e-9).iter().any(|n| n.id == 1));
    }

    #[test]
    fn within_zero_radius_is_empty() {
        let idx = index();
        assert!(idx.within(0, 0.0).is_empty());
    }

    #[test]
    fn distances_are_symmetric() {
        let idx = index();
        for a in 0..5u32 {
            for b in 0..5u32 {
                assert_eq!(idx.distance_between(a, b), idx.distance_between(b, a));
            }
        }
    }

    #[test]
    fn singleton_corpus() {
        let idx = NestedLoopIndex::new(vec![vec!["only".to_string()]], EditDistance);
        assert!(idx.top_k(0, 3).is_empty());
        assert!(idx.within(0, 1.0).is_empty());
        assert_eq!(idx.len(), 1);
        assert!(!idx.is_empty());
    }
}
