//! Exact-duplicate collapse pre-pass (DESIGN.md §7.10).
//!
//! Duplicate-heavy corpora (the common shape of real ingest traffic) spend
//! most of Phase 1 re-verifying records that are *exactly* identical. This
//! module collapses the corpus to unique **representatives** before any
//! fuzzy matching runs: a hash pass groups records by their normalized
//! record string ([`CollapseKey`]), Phase 1 runs over the
//! representatives with per-record multiplicities threaded through every
//! cutoff and growth computation (`fuzzydedup-nnindex`'s weighted lookups),
//! and [`CollapseMap::expand_reln`] rebuilds the full-corpus `NN_Reln`
//! exactly — so Phase 2 and everything after it runs unchanged and the
//! final partition is bit-identical to the collapse-off pipeline.
//!
//! The correctness frame is Tang et al. (arXiv:1412.4303): the similarity
//! group-by result must be multiplicity-independent, so replacing `m`
//! identical records by one weighted representative must not change the
//! expanded partition. The weighted-cutoff direction argument lives in
//! DESIGN.md §7.10.

use std::collections::HashMap;

use fuzzydedup_relation::Neighbor;
use fuzzydedup_textdist::record_string;

use crate::nnreln::{NnEntry, NnReln};
use crate::phase1::NeighborSpec;

/// Which normalization key the collapse pass groups records by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollapseKey {
    /// The record-string normalization
    /// ([`fuzzydedup_textdist::record_string`]: lowercase, punctuation to
    /// spaces, whitespace collapsed, fields joined). Two records with the
    /// same key are at distance 0 under every
    /// [`Distance`](fuzzydedup_textdist::Distance) — each is a function of
    /// the record string by the trait's contract — *and* indistinguishable
    /// to the q-gram/token indexes (their term sets derive from the same
    /// string), so they are exact duplicates of the pipeline.
    RecordString,
}

impl CollapseKey {
    /// The normalization key of one record under this keying. Two records
    /// with equal keys belong to the same exact-duplicate class.
    fn key_of(self, fields: &[&str]) -> String {
        match self {
            Self::RecordString => record_string(fields),
        }
    }
}

/// The class structure mapping the full corpus onto its unique
/// representatives and back. It grows one record at a time
/// ([`CollapseMap::admit`]): the batch pre-pass admits the whole corpus
/// ([`CollapseMap::build`]), the incremental path each batch as it arrives.
///
/// Representative ids are assigned in order of first occurrence, so
/// representative `r`'s record is the first (minimum-id) member of class
/// `r` and the representative id order matches ascending minimum member
/// id — the canonical order [`Partition`](crate::partition::Partition)
/// expects after expansion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollapseMap {
    key: CollapseKey,
    /// Normalization key → representative id.
    by_key: HashMap<String, u32>,
    /// Per representative, the full-corpus member ids, ascending (records
    /// are admitted in full-id order).
    classes: Vec<Vec<u32>>,
    /// Full-corpus record count (records admitted so far).
    n_full: usize,
    /// Per representative, its class size (`classes[r].len()`).
    mult: Vec<u32>,
}

impl CollapseMap {
    /// An empty map grouping records by `key`.
    pub fn new(key: CollapseKey) -> Self {
        Self { key, by_key: HashMap::new(), classes: Vec::new(), n_full: 0, mult: Vec::new() }
    }

    /// Group `records` into exact-duplicate classes under `key`.
    pub fn build(records: &[Vec<String>], key: CollapseKey) -> Self {
        let mut map = Self::new(key);
        map.by_key.reserve(records.len());
        for record in records {
            let fields: Vec<&str> = record.iter().map(String::as_str).collect();
            map.admit(&fields);
        }
        map
    }

    /// Admit the next record of the corpus (full id [`Self::n_full`]) and
    /// return its representative id; the record opened a new class exactly
    /// when that id equals the previous [`Self::n_reps`].
    pub fn admit(&mut self, fields: &[&str]) -> u32 {
        let rep = *self.by_key.entry(self.key.key_of(fields)).or_insert(self.classes.len() as u32);
        if rep as usize == self.classes.len() {
            self.classes.push(Vec::new());
            self.mult.push(0);
        }
        self.classes[rep as usize].push(self.n_full as u32);
        self.mult[rep as usize] += 1;
        self.n_full += 1;
        rep
    }

    /// Number of classes (= representatives).
    pub fn n_reps(&self) -> usize {
        self.classes.len()
    }

    /// Full-corpus record count.
    pub fn n_full(&self) -> usize {
        self.n_full
    }

    /// Records removed by collapsing: `n_full − n_reps`.
    pub fn collapsed_records(&self) -> usize {
        self.n_full() - self.n_reps()
    }

    /// Per-representative multiplicities (class sizes), in rep-id order.
    pub fn multiplicities(&self) -> &[u32] {
        &self.mult
    }

    /// Member ids (ascending) of each class, in rep-id order.
    pub fn classes(&self) -> &[Vec<u32>] {
        &self.classes
    }

    /// The representative corpus: one record per class, in rep-id order
    /// (each class's first member).
    pub fn rep_records(&self, records: &[Vec<String>]) -> Vec<Vec<String>> {
        self.classes.iter().map(|members| records[members[0] as usize].clone()).collect()
    }

    /// Reconstruct the full-corpus `NN_Reln` from the representative-space
    /// relation of a weighted Phase 1 run.
    ///
    /// Per member `v` of class `r`, the full-corpus entry is:
    ///
    /// * every representative survivor `s` of `r` expanded to all of
    ///   `s`'s members at the same distance (identical records are
    ///   co-located);
    /// * plus `v`'s own siblings at distance 0 — but only when
    ///   `sibling_visible[r]`: a record that generates no index terms
    ///   gathers no candidates in the full corpus, so its duplicates never
    ///   reach its neighbor list there and must not appear here either
    ///   (the exact/nested-loop indexes see everything — pass all-true);
    /// * sorted canonically and re-cut per `spec` (a weighted `TopK`
    ///   lookup deliberately returns *all* survivors; the truncation to
    ///   `k` happens here, after expansion, because `k` counts full-corpus
    ///   neighbors);
    /// * `ng = 1` for members of classes with `m ≥ 2` (their `nn` is 0 in
    ///   the full corpus — or they see no candidates at all — so the
    ///   strict-`<` growth sphere is empty), and the representative's
    ///   weighted `ng` otherwise.
    ///
    /// # Panics
    /// Panics if `rep_reln`/`sibling_visible` do not cover every class.
    pub fn expand_reln(
        &self,
        rep_reln: &NnReln,
        spec: NeighborSpec,
        sibling_visible: &[bool],
    ) -> NnReln {
        assert_eq!(rep_reln.len(), self.n_reps(), "one rep entry per class");
        assert_eq!(sibling_visible.len(), self.n_reps(), "one visibility flag per class");
        let mut entries: Vec<NnEntry> = Vec::with_capacity(self.n_full());
        for (r, members) in self.classes.iter().enumerate() {
            let rep_entry = rep_reln.entry(r as u32);
            let m = members.len();
            // The expanded rep-survivor list is shared by every member of
            // the class; only the sibling zeros differ per member.
            let mut base: Vec<Neighbor> = Vec::new();
            for nb in &rep_entry.neighbors {
                for &member in &self.classes[nb.id as usize] {
                    base.push(Neighbor::new(member, nb.dist));
                }
            }
            let ng = if m >= 2 { 1.0 } else { rep_entry.ng };
            for (i, &v) in members.iter().enumerate() {
                let mut neighbors = base.clone();
                if m >= 2 && sibling_visible[r] {
                    for (j, &sibling) in members.iter().enumerate() {
                        if j != i {
                            neighbors.push(Neighbor::new(sibling, 0.0));
                        }
                    }
                }
                neighbors.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
                match spec {
                    NeighborSpec::TopK(k) => neighbors.truncate(k),
                    NeighborSpec::Radius(theta) => neighbors.retain(|n| n.dist < theta),
                }
                entries.push(NnEntry::new(v, neighbors, ng));
            }
        }
        NnReln::new(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(fields: &[&str]) -> Vec<String> {
        fields.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn record_string_key_merges_normalized_equals() {
        let records = vec![
            rec(&["The Doors", "LA Woman"]),
            rec(&["the doors!", "la woman"]), // same record string
            rec(&["Aaliyah", ""]),
            rec(&["The Doors", "LA Woman"]), // exact repeat
        ];
        let map = CollapseMap::build(&records, CollapseKey::RecordString);
        assert_eq!(map.n_reps(), 2);
        assert_eq!(map.n_full(), 4);
        assert_eq!(map.collapsed_records(), 2);
        assert_eq!(map.classes(), &[vec![0, 1, 3], vec![2]]);
        assert_eq!(map.multiplicities(), &[3, 1]);
        let reps = map.rep_records(&records);
        assert_eq!(reps.len(), 2);
        assert_eq!(reps[0], records[0], "rep record is the first member's");
    }

    #[test]
    fn admit_returns_the_class_and_opens_one_on_a_new_key() {
        let mut map = CollapseMap::new(CollapseKey::RecordString);
        assert_eq!(map.admit(&["x"]), 0);
        assert_eq!(map.admit(&["y"]), 1);
        assert_eq!(map.admit(&["x"]), 0, "a repeat joins its class");
        assert_eq!((map.n_reps(), map.n_full()), (2, 3));
        let records = [rec(&["x"]), rec(&["y"]), rec(&["x"])];
        assert_eq!(map, CollapseMap::build(&records, CollapseKey::RecordString));
    }

    #[test]
    fn record_string_key_ignores_field_boundaries() {
        // Same record string, different fields: one class, as every
        // distance sees the two alike.
        let records = vec![rec(&["a b", "c"]), rec(&["a", "b c"])];
        let map = CollapseMap::build(&records, CollapseKey::RecordString);
        assert_eq!(map.n_reps(), 1);
    }

    #[test]
    fn empty_corpus() {
        let map = CollapseMap::build(&[], CollapseKey::RecordString);
        assert_eq!(map.n_reps(), 0);
        assert_eq!(map.n_full(), 0);
        assert!(map.expand_reln(&NnReln::new(vec![]), NeighborSpec::TopK(3), &[]).is_empty());
    }

    #[test]
    fn expand_reln_topk_inserts_sibling_zeros_and_truncates() {
        let records = vec![rec(&["x"]), rec(&["x"]), rec(&["y"])];
        let map = CollapseMap::build(&records, CollapseKey::RecordString);
        // Rep space: 0 = {0,1} (m=2), 1 = {2}. Weighted rep reln: rep 0
        // has survivor rep 1 at 0.5 (kept beyond k by the weighted
        // lookup), rep 1 has rep 0 at 0.5 with weighted ng 3 (= 1 + m).
        let rep_reln = NnReln::new(vec![
            NnEntry::new(0, vec![Neighbor::new(1, 0.5)], 1.0),
            NnEntry::new(1, vec![Neighbor::new(0, 0.5)], 3.0),
        ]);
        let full = map.expand_reln(&rep_reln, NeighborSpec::TopK(1), &[true, true]);
        assert_eq!(full.len(), 3);
        // Members of the m=2 class: the sibling zero wins the single slot.
        assert_eq!(full.entry(0).neighbors, vec![Neighbor::new(1, 0.0)]);
        assert_eq!(full.entry(0).ng, 1.0);
        assert_eq!(full.entry(1).neighbors, vec![Neighbor::new(0, 0.0)]);
        // The singleton keeps the expanded rep survivor (smaller member
        // first on the distance tie) and its weighted ng.
        assert_eq!(full.entry(2).neighbors, vec![Neighbor::new(0, 0.5)]);
        assert_eq!(full.entry(2).ng, 3.0);
    }

    #[test]
    fn expand_reln_radius_keeps_all_within() {
        let records = vec![rec(&["x"]), rec(&["x"]), rec(&["y"])];
        let map = CollapseMap::build(&records, CollapseKey::RecordString);
        let rep_reln = NnReln::new(vec![
            NnEntry::new(0, vec![Neighbor::new(1, 0.5)], 1.0),
            NnEntry::new(1, vec![Neighbor::new(0, 0.5)], 3.0),
        ]);
        let full = map.expand_reln(&rep_reln, NeighborSpec::Radius(0.7), &[true, true]);
        assert_eq!(full.entry(0).neighbors, vec![Neighbor::new(1, 0.0), Neighbor::new(2, 0.5)]);
        assert_eq!(full.entry(2).neighbors, vec![Neighbor::new(0, 0.5), Neighbor::new(1, 0.5)]);
        // Radius 0 excludes even the sibling zeros (strict <).
        let zero = map.expand_reln(&rep_reln, NeighborSpec::Radius(0.0), &[true, true]);
        assert!(zero.entry(0).neighbors.is_empty());
    }

    #[test]
    fn expand_reln_respects_sibling_visibility() {
        // A term-less class (e.g. punctuation-only records under the
        // inverted index) must not gain sibling neighbors it would never
        // see in the full corpus.
        let records = vec![rec(&["!!!"]), rec(&["???"]), rec(&["y"])];
        let map = CollapseMap::build(&records, CollapseKey::RecordString);
        assert_eq!(map.n_reps(), 2, "punctuation-only records share an empty record string");
        let rep_reln =
            NnReln::new(vec![NnEntry::new(0, vec![], 1.0), NnEntry::new(1, vec![], 1.0)]);
        let full = map.expand_reln(&rep_reln, NeighborSpec::TopK(2), &[false, true]);
        assert!(full.entry(0).neighbors.is_empty(), "invisible siblings stay invisible");
        assert!(full.entry(1).neighbors.is_empty());
        assert_eq!(full.entry(0).ng, 1.0);
    }
}
