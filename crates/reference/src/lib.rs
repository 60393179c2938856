#![warn(missing_docs)]

//! The paper's definitions, written naively: the oracle the fast paths are
//! held to.
//!
//! Sections 2–4 of the paper say what a duplicate group is. This crate
//! computes exactly that, the slow way, and shares no code with what it
//! checks: not `core`'s Phase 2, not `nnindex`, not `textdist`'s Myers
//! kernels or its fms scorer. From `textdist` it takes only the inputs the
//! definitions are stated over: the normalized record string, the tokens,
//! the IDF weights and the indexed term sets.
//!
//! | Definition | Here |
//! |---|---|
//! | `ed`: Levenshtein over the record string, over the longer length | [`ed`], by the full matrix |
//! | `fms`: greedy largest-gain token matching, `ned ≤ 0.8` | [`fms`] |
//! | NN list: the K best, or every neighbor within θ (`d < θ`) | [`nn_relation`] over a [`Matrix`] |
//! | `ng(v) = \|{u : d(v, u) < p · nn(v)}\|`, `v` counted | [`nn_relation`], by counting |
//! | CS: every member's `\|S\|`-NN set is `S` | [`is_compact`] |
//! | SN(agg, c): `\|S\| = 1` or `agg(ng) < c` | [`is_sparse`] |
//! | the cuts: `\|S\| ≤ K`, `diameter(S) ≤ θ` | [`Cut`] |
//! | the greedy: smallest id first, the largest group anchored there | [`partition`] |
//! | minimality (§4.5.2) | [`enforce_minimality`] |
//!
//! **The tie rule.** Neighbors are ordered by `(distance, id)`, and the
//! `m`-NN set of `v` is `v` with the first `m − 1` of its list. With
//! distinct distances this is the paper's CS ("closer to every other member
//! than to any tuple outside"); with ties it is the refinement every path of
//! the workspace follows.
//!
//! **What a lookup sees.** An exact index sees every other tuple. The
//! inverted index, with no candidate cap and no stop grams, sees exactly
//! the tuples that share an indexed term with the query: the caveat the
//! paper accepts when it treats the probabilistic index as exact. Either
//! is a `sees(v, u)` predicate here ([`shares_a_term`] is the second), and
//! `nn(v)` and `ng(v)` count only what `v` sees.
//!
//! Everything costs `O(n²)` distance calls and up to `O(n³)` set checks:
//! it is meant for relations of a few dozen tuples.

use std::collections::BTreeSet;

use fuzzydedup_textdist::tokenize::tokenize_record;
use fuzzydedup_textdist::{record_string, record_term_set, IdfModel};

fn fields(record: &[String]) -> Vec<&str> {
    record.iter().map(String::as_str).collect()
}

/// Levenshtein distance by the full `(|a| + 1) × (|b| + 1)` matrix: cell
/// `(i, j)` is the distance between the first `i` chars of `a` and the
/// first `j` of `b`.
fn levenshtein(a: &[char], b: &[char]) -> usize {
    let mut d = vec![vec![0usize; b.len() + 1]; a.len() + 1];
    for (i, row) in d.iter_mut().enumerate() {
        row[0] = i;
    }
    for (j, cell) in d[0].iter_mut().enumerate() {
        *cell = j;
    }
    for i in 1..=a.len() {
        for j in 1..=b.len() {
            let substitute = d[i - 1][j - 1] + usize::from(a[i - 1] != b[j - 1]);
            d[i][j] = substitute.min(d[i - 1][j] + 1).min(d[i][j - 1] + 1);
        }
    }
    d[a.len()][b.len()]
}

/// The `ed` distance: Levenshtein between the two records' normalized
/// record strings, over the longer one's char count. Two empty strings are
/// at distance 0.
pub fn ed(a: &[String], b: &[String]) -> f64 {
    let a: Vec<char> = record_string(&fields(a)).chars().collect();
    let b: Vec<char> = record_string(&fields(b)).chars().collect();
    let longer = a.len().max(b.len());
    if longer == 0 {
        return 0.0;
    }
    levenshtein(&a, &b) as f64 / longer as f64
}

/// The `fms` distance, `1 − fms`. Each token pair gains `(w(a) + w(b)) ·
/// (1 − ned(a, b))`, with `ned` the Levenshtein distance over the longer
/// token and `w` the IDF weight; pairs past `ned = 0.8` gain nothing. The
/// pairs are matched greedily, largest gain first, ties by `(i, j)`, and
/// `fms` is the matched gain over the two records' total weight. The
/// distance is what the matching loses — `(w(a) + w(b)) · ned(a, b)` per
/// matched pair, in matching order, then the weight of every unmatched
/// token — over the total weight: `1 − fms`, exactly 0 for identical token
/// multisets. Two token-less records are identical; one token-less record
/// is as far as can be.
pub fn fms(idf: &IdfModel, a: &[String], b: &[String]) -> f64 {
    let weighted = |record: &[String]| -> Vec<(Vec<char>, f64)> {
        tokenize_record(&fields(record))
            .into_iter()
            .map(|t| (t.text.chars().collect(), idf.idf(&t.text)))
            .collect()
    };
    let (ta, tb) = (weighted(a), weighted(b));
    if ta.is_empty() || tb.is_empty() {
        return if ta.is_empty() && tb.is_empty() { 0.0 } else { 1.0 };
    }
    let mut pairs = Vec::new();
    for (i, (ca, wa)) in ta.iter().enumerate() {
        for (j, (cb, wb)) in tb.iter().enumerate() {
            let longer = ca.len().max(cb.len());
            let ned = levenshtein(ca, cb) as f64 / longer as f64;
            let gain = (wa + wb) * (1.0 - ned);
            if ned <= 0.8 && gain > 0.0 {
                pairs.push((gain, i, j, (wa + wb) * ned));
            }
        }
    }
    pairs.sort_by(|x, y| y.0.total_cmp(&x.0).then((x.1, x.2).cmp(&(y.1, y.2))));
    let (mut matched_a, mut matched_b) = (vec![false; ta.len()], vec![false; tb.len()]);
    let mut lost = 0.0;
    for (_, i, j, loss) in pairs {
        if !matched_a[i] && !matched_b[j] {
            (matched_a[i], matched_b[j]) = (true, true);
            lost += loss;
        }
    }
    let unmatched = |t: &[(Vec<char>, f64)], matched: &[bool]| {
        t.iter().zip(matched).filter(|(_, &m)| !m).fold(0.0, |sum, ((_, w), _)| sum + w)
    };
    lost += unmatched(&ta, &matched_a) + unmatched(&tb, &matched_b);
    let total = |t: &[(Vec<char>, f64)]| t.iter().fold(0.0, |sum, (_, w)| sum + w);
    (lost / (total(&ta) + total(&tb))).clamp(0.0, 1.0)
}

/// What the inverted index sees with no candidate cap and no stop grams:
/// `u` is visible to `v` iff the two records share an indexed term — a
/// padded 3-gram of the record string or a whole token.
pub fn shares_a_term(records: &[Vec<String>]) -> impl Fn(u32, u32) -> bool {
    let terms: Vec<BTreeSet<String>> = records
        .iter()
        .map(|r| record_term_set(&fields(r), 3).terms.into_iter().map(|t| t.0).collect())
        .collect();
    move |v, u| !terms[v as usize].is_disjoint(&terms[u as usize])
}

/// Every pairwise distance of a relation. Row `v` holds `d(v, u)` with `v`
/// on the query side, so no symmetry is assumed.
#[derive(Debug, Clone)]
pub struct Matrix {
    n: usize,
    d: Vec<f64>,
}

impl Matrix {
    /// Evaluate `f(v, u)` for every ordered pair of distinct ids `0..n`;
    /// the diagonal is 0.
    pub fn from_fn(n: usize, mut f: impl FnMut(u32, u32) -> f64) -> Self {
        let mut d = vec![0.0; n * n];
        for v in 0..n {
            for u in (0..n).filter(|&u| u != v) {
                d[v * n + u] = f(v as u32, u as u32);
            }
        }
        Self { n, d }
    }

    /// The distances of `records` under `distance`.
    pub fn of_records(
        records: &[Vec<String>],
        distance: impl Fn(&[String], &[String]) -> f64,
    ) -> Self {
        Self::from_fn(records.len(), |v, u| distance(&records[v as usize], &records[u as usize]))
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// `d(v, u)`.
    pub fn dist(&self, v: u32, u: u32) -> f64 {
        self.d[v as usize * self.n + u as usize]
    }
}

/// What an NN list holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Spec {
    /// The best `k` neighbors.
    TopK(usize),
    /// Every neighbor at distance `< θ`.
    Radius(f64),
}

/// One tuple's row of the NN relation.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// `(id, distance)` in `(distance, id)` order, the tuple itself left out.
    pub neighbors: Vec<(u32, f64)>,
    /// The neighborhood growth `ng(v)`.
    pub ng: f64,
}

/// The NN relation: per tuple `v`, every tuple `v` sees ordered by
/// `(distance, id)` and cut to `spec`, and `ng(v) = 1 + |{u : d(v, u) < p ·
/// nn(v)}|` counted over everything `v` sees — `nn(v)` is the smallest such
/// distance however short the list, and a tuple that sees nothing has
/// `ng = 1`.
pub fn nn_relation(d: &Matrix, sees: impl Fn(u32, u32) -> bool, spec: Spec, p: f64) -> Vec<Entry> {
    (0..d.len() as u32)
        .map(|v| {
            let mut seen: Vec<(u32, f64)> = (0..d.len() as u32)
                .filter(|&u| u != v && sees(v, u))
                .map(|u| (u, d.dist(v, u)))
                .collect();
            seen.sort_by(|x, y| x.1.total_cmp(&y.1).then(x.0.cmp(&y.0)));
            let nn = seen.iter().fold(f64::INFINITY, |nn, &(_, x)| nn.min(x));
            let ng = 1 + seen.iter().filter(|&&(_, x)| x < p * nn).count();
            match spec {
                Spec::TopK(k) => seen.truncate(k),
                Spec::Radius(theta) => seen.retain(|&(_, x)| x < theta),
            }
            Entry { neighbors: seen, ng: ng as f64 }
        })
        .collect()
}

/// The cut specification of §3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cut {
    /// `DE_S(K)`: at most `K` members.
    Size(usize),
    /// `DE_D(θ)`: diameter at most θ.
    Diameter(f64),
    /// Both bounds.
    SizeAndDiameter(usize, f64),
    /// No cut.
    Unbounded,
}

impl Cut {
    /// The NN lists the cut needs over `n` tuples: the `K` best (a group of
    /// `m ≤ K` reads each member's first `m − 1`), every neighbor within θ
    /// (a group of diameter `≤ θ` lies in each member's radius), or
    /// complete lists.
    pub fn spec(&self, n: usize) -> Spec {
        match *self {
            Cut::Size(k) => Spec::TopK(k.min(n.saturating_sub(1))),
            Cut::Diameter(theta) | Cut::SizeAndDiameter(_, theta) => Spec::Radius(theta),
            Cut::Unbounded => Spec::TopK(n.saturating_sub(1)),
        }
    }

    fn max_size(&self, n: usize) -> usize {
        match *self {
            Cut::Size(k) | Cut::SizeAndDiameter(k, _) => k.min(n),
            Cut::Diameter(_) | Cut::Unbounded => n,
        }
    }

    fn admits_diameter(&self, diameter: f64) -> bool {
        match *self {
            Cut::Diameter(theta) | Cut::SizeAndDiameter(_, theta) => diameter <= theta,
            Cut::Size(_) | Cut::Unbounded => true,
        }
    }
}

/// The SN aggregation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// The largest growth.
    Max,
    /// The mean growth, summed in member order.
    Avg,
    /// The second largest growth (the largest of a singleton).
    Max2,
    /// The smallest growth.
    Min,
}

/// Aggregate a non-empty list of growths.
fn aggregate(agg: Agg, values: &[f64]) -> f64 {
    let mut descending = values.to_vec();
    descending.sort_by(|a, b| b.total_cmp(a));
    match agg {
        Agg::Max => descending[0],
        Agg::Avg => values.iter().sum::<f64>() / values.len() as f64,
        Agg::Max2 => descending[1.min(values.len() - 1)],
        Agg::Min => descending[values.len() - 1],
    }
}

/// The `m`-NN set of `v`: `v` and the first `m − 1` of its list, ascending;
/// `None` when the list is shorter than that.
fn nn_set(relation: &[Entry], v: u32, m: usize) -> Option<Vec<u32>> {
    let list = &relation[v as usize].neighbors;
    if m == 0 || list.len() < m - 1 {
        return None;
    }
    let mut set: Vec<u32> = list[..m - 1].iter().map(|&(u, _)| u).collect();
    set.push(v);
    set.sort_unstable();
    Some(set)
}

/// CS: `s` (ascending) is compact iff every member's `|s|`-NN set is `s`.
pub fn is_compact(relation: &[Entry], s: &[u32]) -> bool {
    s.iter().all(|&u| nn_set(relation, u, s.len()).as_deref() == Some(s))
}

/// SN(agg, c): a singleton, or the aggregated growths of the members
/// below `c`.
pub fn is_sparse(relation: &[Entry], s: &[u32], agg: Agg, c: f64) -> bool {
    let growths: Vec<f64> = s.iter().map(|&u| relation[u as usize].ng).collect();
    s.len() == 1 || aggregate(agg, &growths) < c
}

/// The largest distance between two members, each pair read from the row
/// of its smaller id.
fn diameter(d: &Matrix, s: &[u32]) -> f64 {
    let mut max = 0.0f64;
    for (i, &u) in s.iter().enumerate() {
        for &w in &s[i + 1..] {
            max = max.max(d.dist(u, w));
        }
    }
    max
}

/// The partition of §4.2: tuples are taken in increasing id order, and each
/// not yet grouped takes the largest set with it as its smallest id that is
/// one of its NN sets, holds no grouped tuple, is compact and sparse, and
/// passes the cut — or stays alone. Groups come ascending, ordered by their
/// smallest id, singletons included.
pub fn partition(relation: &[Entry], d: &Matrix, cut: Cut, agg: Agg, c: f64) -> Vec<Vec<u32>> {
    let n = relation.len();
    let mut grouped = vec![false; n];
    let mut groups = Vec::new();
    for v in 0..n as u32 {
        if grouped[v as usize] {
            continue;
        }
        let group = (2..=cut.max_size(n))
            .rev()
            .filter_map(|m| nn_set(relation, v, m))
            .find(|s| {
                s[0] == v
                    && s.iter().all(|&u| !grouped[u as usize])
                    && is_compact(relation, s)
                    && is_sparse(relation, s, agg, c)
                    && cut.admits_diameter(diameter(d, s))
            })
            .unwrap_or_else(|| vec![v]);
        for &u in &group {
            grouped[u as usize] = true;
        }
        groups.push(group);
    }
    groups
}

/// The non-trivial compact proper subsets of `group`. A compact set is an
/// NN set of each of its members, so the NN sets of the members are every
/// candidate.
fn compact_subsets(relation: &[Entry], group: &[u32]) -> Vec<Vec<u32>> {
    let mut found: Vec<Vec<u32>> = Vec::new();
    for &v in group {
        for m in 2..group.len() {
            if let Some(s) = nn_set(relation, v, m) {
                if s.iter().all(|u| group.contains(u))
                    && is_compact(relation, &s)
                    && !found.contains(&s)
                {
                    found.push(s);
                }
            }
        }
    }
    found
}

/// Minimality (§4.5.2): a group holding two disjoint non-trivial compact
/// proper subsets is split. Two compact sets that meet are nested (both are
/// NN sets of a shared member), so the maximal compact proper subsets are
/// disjoint: they become the parts, each split again in turn, and a member
/// in none of them stands alone.
fn split_to_minimal(relation: &[Entry], group: &[u32]) -> Vec<Vec<u32>> {
    let subsets = compact_subsets(relation, group);
    let disjoint = |a: &Vec<u32>, b: &Vec<u32>| a.iter().all(|u| !b.contains(u));
    if !subsets.iter().any(|a| subsets.iter().any(|b| disjoint(a, b))) {
        return vec![group.to_vec()];
    }
    let inside = |s: &Vec<u32>, t: &Vec<u32>| t.len() > s.len() && s.iter().all(|u| t.contains(u));
    let maximal: Vec<&Vec<u32>> =
        subsets.iter().filter(|s| !subsets.iter().any(|t| inside(s, t))).collect();
    let mut parts: Vec<Vec<u32>> =
        maximal.iter().flat_map(|s| split_to_minimal(relation, s)).collect();
    parts.extend(group.iter().filter(|u| !maximal.iter().any(|s| s.contains(u))).map(|&u| vec![u]));
    parts
}

/// A partition with every group split to minimal ones, in the canonical
/// order of [`partition`].
pub fn enforce_minimality(relation: &[Entry], groups: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let mut parts: Vec<Vec<u32>> =
        groups.iter().flat_map(|g| split_to_minimal(relation, g)).collect();
    for part in &mut parts {
        part.sort_unstable();
    }
    parts.sort_unstable_by_key(|part| part[0]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points(xs: &[f64]) -> Matrix {
        Matrix::from_fn(xs.len(), |v, u| (xs[v as usize] - xs[u as usize]).abs())
    }

    fn relation(d: &Matrix, cut: Cut) -> Vec<Entry> {
        nn_relation(d, |_, _| true, cut.spec(d.len()), 2.0)
    }

    #[test]
    fn levenshtein_by_the_matrix() {
        let chars = |s: &str| s.chars().collect::<Vec<_>>();
        assert_eq!(levenshtein(&chars("kitten"), &chars("sitting")), 3);
        assert_eq!(levenshtein(&chars(""), &chars("abc")), 3);
        assert_eq!(levenshtein(&chars("İx"), &chars("ix")), 1);
    }

    #[test]
    fn distances_of_records() {
        let r = |s: &str| vec![s.to_string()];
        assert_eq!(ed(&r("the doors"), &r("doors")), 4.0 / 9.0);
        assert_eq!(ed(&r(""), &[String::new(), "?!".into()]), 0.0);
        let idf = IdfModel::fit_strings(&["microsoft corp", "microsft corporation", "boeing"]);
        assert_eq!(fms(&idf, &r("microsoft"), &r("MICROSOFT!")), 0.0);
        assert_eq!(fms(&idf, &r("boeing"), &r("zzz")), 1.0);
        assert_eq!(fms(&idf, &r("?!"), &r("")), 0.0);
    }

    #[test]
    fn the_integer_example_of_section_3() {
        // {1, 2, 4, 20, 22, 30, 32} with K = 3 and max-aggregated growth
        // below 4: {1, 2, 4}, {20, 22}, {30, 32}.
        let d = points(&[1.0, 2.0, 4.0, 20.0, 22.0, 30.0, 32.0]);
        let rel = relation(&d, Cut::Size(3));
        assert_eq!(rel[2].ng, 3.0, "nn(4) = 2; 1 and 2 lie within 4");
        let groups = partition(&rel, &d, Cut::Size(3), Agg::Max, 4.0);
        assert_eq!(groups, vec![vec![0, 1, 2], vec![3, 4], vec![5, 6]]);
        // c = 2.5 keeps the dense triple apart.
        let groups = partition(&rel, &d, Cut::Size(3), Agg::Max, 2.5);
        assert_eq!(groups, vec![vec![0, 1], vec![2], vec![3, 4], vec![5, 6]]);
        // Without a cut and with a lenient c, everything merges.
        let rel = relation(&d, Cut::Unbounded);
        assert_eq!(partition(&rel, &d, Cut::Unbounded, Agg::Max, 100.0).len(), 1);
    }

    #[test]
    fn the_radius_is_strict_and_the_diameter_inclusive() {
        let d = points(&[0.0, 1.0, 10.0]);
        // At θ = 1 the pair is in neither list, so it never groups.
        let rel = relation(&d, Cut::Diameter(1.0));
        assert!(rel[0].neighbors.is_empty());
        assert_eq!(rel[0].ng, 2.0, "nn(v) is read past the radius");
        assert_eq!(partition(&rel, &d, Cut::Diameter(1.0), Agg::Max, 4.0).len(), 3);
        let rel = relation(&d, Cut::Diameter(1.5));
        assert_eq!(partition(&rel, &d, Cut::Diameter(1.5), Agg::Max, 4.0).len(), 2);
    }

    #[test]
    fn ties_are_broken_by_id() {
        // Three points at mutual distance 1: the 2-NN set of 2 is {0, 2},
        // not {1, 2}, so {1, 2} is not compact and {0, 1} is.
        let d = Matrix::from_fn(3, |_, _| 1.0);
        let rel = relation(&d, Cut::Size(2));
        assert_eq!(nn_set(&rel, 2, 2), Some(vec![0, 2]));
        assert!(is_compact(&rel, &[0, 1]));
        assert!(!is_compact(&rel, &[1, 2]));
        assert_eq!(rel[0].ng, 3.0, "both others lie inside 2 · nn");
    }

    #[test]
    fn aggregations() {
        let v = [2.0, 5.0, 3.0];
        assert_eq!(aggregate(Agg::Max, &v), 5.0);
        assert_eq!(aggregate(Agg::Avg, &v), 10.0 / 3.0);
        assert_eq!(aggregate(Agg::Max2, &v), 3.0);
        assert_eq!(aggregate(Agg::Min, &v), 2.0);
        assert_eq!(aggregate(Agg::Max2, &[7.0]), 7.0);
        assert_eq!(aggregate(Agg::Max2, &[7.0, 7.0]), 7.0);
    }

    #[test]
    fn a_union_of_pairs_splits_back_into_the_pairs() {
        // Three tight pairs, together far from a fourth: the six form one
        // compact set that is not minimal.
        let d = points(&[0.0, 0.1, 10.0, 10.1, 20.0, 20.1, 1e6, 1e6 + 1.0]);
        let rel = relation(&d, Cut::Size(6));
        let merged = partition(&rel, &d, Cut::Size(6), Agg::Max, 100.0);
        assert_eq!(merged[0], vec![0, 1, 2, 3, 4, 5]);
        let minimal = enforce_minimality(&rel, &merged);
        assert_eq!(minimal, vec![vec![0, 1], vec![2, 3], vec![4, 5], vec![6, 7]]);
    }

    #[test]
    fn sight_limits_the_lists_and_the_growth() {
        let records: Vec<Vec<String>> =
            ["golden dragon", "golden dragn", "zq"].iter().map(|s| vec![s.to_string()]).collect();
        let sees = shares_a_term(&records);
        assert!(sees(0, 1) && sees(1, 0));
        assert!(!sees(0, 2), "\"zq\" shares no gram or token");
        let d = Matrix::of_records(&records, ed);
        let rel = nn_relation(&d, sees, Spec::TopK(2), 2.0);
        assert_eq!(rel[2], Entry { neighbors: vec![], ng: 1.0 });
        assert_eq!(rel[0].neighbors, vec![(1, 1.0 / 13.0)]);
    }
}
