//! Exact nested-loop nearest-neighbor "index".
//!
//! The paper: "Otherwise, we apply nested loop join methods in this
//! phase." This index offers every other record as a candidate, so its
//! lookups see the whole corpus: the exact answer the inverted index
//! approximates.

use fuzzydedup_relation::Neighbor;
use fuzzydedup_textdist::{CompiledRecords, Distance};

use crate::candgen::RecordMeta;
use crate::driver::{self, CandidateSource, Gathered};
use crate::{LookupCost, LookupSpec, NnIndex, RecordView};

/// Exact nearest-neighbor search by full scan.
pub struct NestedLoopIndex<D> {
    records: Vec<Vec<String>>,
    distance: D,
    /// Every record compiled once by the distance, read by verification.
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

    /// One corpus scan through the shared driver answers both the
    /// neighbor list and the growth estimate, verifying with the current
    /// best-so-far as cutoff.
    fn lookup(&self, id: u32, spec: LookupSpec, p: f64) -> (Vec<Neighbor>, f64, LookupCost) {
        driver::lookup(self, id, spec, p, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzydedup_textdist::EditDistance;

    fn index() -> NestedLoopIndex<EditDistance> {
        let corpus = ["doors", "the doors", "beatles", "the beatles", "shania twain"];
        NestedLoopIndex::new(corpus.iter().map(|s| vec![s.to_string()]).collect(), EditDistance)
    }

    #[test]
    fn sees_the_whole_corpus_but_itself() {
        let idx = index();
        let (nn, ng, cost) = idx.lookup(1, LookupSpec::TopK(4), 2.0);
        assert_eq!(nn.iter().map(|n| n.id).collect::<Vec<_>>(), vec![0, 3, 2, 4]);
        assert_eq!(nn[0].dist, 4.0 / 9.0, "\"doors\" is the nearest neighbor of \"the doors\"");
        assert_eq!(ng, 5.0, "all four lie within 2 · 4/9 (the farthest at 10/12)");
        assert_eq!((cost.candidates, cost.distance_calls), (4, 4));
        let (all, _, _) = idx.lookup(0, LookupSpec::TopK(100), 2.0);
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn the_radius_is_strict_and_nn_reads_past_it() {
        let idx = index();
        let d = 4.0 / 9.0;
        let (at, ng, _) = idx.lookup(0, LookupSpec::Radius(d), 2.0);
        assert!(at.is_empty(), "boundary excluded");
        assert_eq!(ng, 3.0, "nn(v) = d lies past the empty list; 1 and 2 lie within 2d");
        let (past, _, _) = idx.lookup(0, LookupSpec::Radius(d + 1e-9), 2.0);
        assert_eq!(past.iter().map(|n| n.id).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn singleton_corpus() {
        let idx = NestedLoopIndex::new(vec![vec!["only".to_string()]], EditDistance);
        for spec in [LookupSpec::TopK(3), LookupSpec::Radius(1.0)] {
            let (nn, ng, _) = idx.lookup(0, spec, 2.0);
            assert!(nn.is_empty());
            assert_eq!(ng, 1.0);
        }
        assert_eq!(idx.len(), 1);
        assert!(!idx.is_empty());
    }
}
