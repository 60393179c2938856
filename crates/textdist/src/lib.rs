#![warn(missing_docs)]

//! String and record distance functions for fuzzy duplicate detection.
//!
//! This crate provides the distance-function substrate used by the ICDE 2005
//! paper *Robust Identification of Fuzzy Duplicates* (Chaudhuri, Ganti,
//! Motwani). The paper's duplicate-elimination framework is deliberately
//! orthogonal to the choice of distance function; its experiments use two:
//!
//! * **edit distance** (`ed`) — classic Levenshtein distance, normalized to
//!   `[0, 1]`, see [`edit`];
//! * **fuzzy match similarity** (`fms`) — a token-level function combining
//!   edit distance with IDF weights, following Chaudhuri et al.'s "Robust and
//!   efficient fuzzy match for online data cleaning" (SIGMOD 2003). We
//!   implement the *symmetric* variant the paper evaluates, see [`fms`].
//!
//! Those two are the crate's distances; [`DistanceKind`] names them for
//! the command line. Both implement the [`Distance`] trait: **symmetric**,
//! bounded in `[0, 1]` (the paper assumes `d : R × R → [0, 1]` symmetric),
//! and a function of the record string (see the trait's contract).
//! Property tests in each module check symmetry, range, and
//! identity-of-indiscernibles; `tests/record_string_contract.rs` checks
//! the contract.

pub mod compiled;
pub mod edit;
pub mod fms;
pub mod idf;
pub mod myers;
pub mod qgram;
pub mod tokenize;

pub use compiled::{Candidate, CompiledRecords, WeightedTokens};
pub use edit::{levenshtein, levenshtein_bounded, normalized_levenshtein, EditDistance};
pub use fms::FuzzyMatchDistance;
pub use idf::IdfModel;
pub use myers::{myers, myers_bounded, myers_bounded_chars, myers_chars};
pub use qgram::{qgrams, record_term_set, QgramProfile, TermSet};
pub use tokenize::{normalize, normalize_into, tokenize, Token};

pub use tokenize::{record_string, record_string_into};

/// A symmetric distance function over string records, bounded in `[0, 1]`.
///
/// `0.0` means "identical for the purposes of matching"; `1.0` means
/// "completely dissimilar". Implementations must guarantee:
///
/// * **symmetry**: `d(a, b) == d(b, a)`;
/// * **range**: `0.0 <= d(a, b) <= 1.0`;
/// * **reflexivity**: `d(a, a) == 0.0`.
///
/// The triangle inequality is *not* required — neither edit distance after
/// normalization nor fuzzy match similarity satisfies it, and the
/// duplicate-elimination framework does not rely on it.
///
/// **Contract: a function of the record string.** A distance sees a
/// record's fields only through their joined normalized view
/// ([`record_string`]):
/// `d(a, b) == d(&[record_string(a)], &[record_string(b)])` for every pair.
/// Records with equal record strings are therefore at distance 0 and
/// interchangeable, which is what lets the collapse pre-pass key
/// duplicate classes on the record string for any distance. `ed` and
/// `fms` both hold it (`tests/record_string_contract.rs`); a per-field
/// weighting does not, and is not a `Distance`.
///
/// **Extension point.** Only [`Distance::distance`] and
/// [`Distance::name`] are required. Everything else is a performance
/// lever with a correct default: `distance_bounded` filters the full
/// distance, [`Distance::prepare`] recompiles the query per call,
/// [`Distance::compile_record`] compiles nothing — so the indexes verify
/// a third-party distance from the raw attribute strings, one
/// `distance_bounded` call per candidate. Override them in that order as
/// profiles demand; each override must reproduce the default's results
/// bit for bit.
pub trait Distance: Send + Sync {
    /// Distance between two records, each given as a slice of attribute
    /// strings. Single-attribute records pass a one-element slice.
    fn distance(&self, a: &[&str], b: &[&str]) -> f64;

    /// Distance with a cutoff: `Some(d)` iff `d <= cutoff`, else `None`.
    ///
    /// Candidate-verification loops (the nearest-neighbor indexes in
    /// `fuzzydedup-nnindex`) call this with their current best-so-far as the
    /// cutoff, letting implementations abandon hopeless pairs early.
    /// Implementations must agree exactly with [`Distance::distance`] on
    /// pairs within the cutoff — the default simply computes the full
    /// distance and filters. [`EditDistance`] overrides this with the
    /// k-bounded Myers kernel.
    fn distance_bounded(&self, a: &[&str], b: &[&str], cutoff: f64) -> Option<f64> {
        let d = self.distance(a, b);
        (d <= cutoff).then_some(d)
    }

    /// Whether the q-gram length/count filters are *sound* for this
    /// distance: `true` promises that the distance equals Levenshtein over
    /// [`tokenize::record_string`] normalized by the longer side's char
    /// count, so `d(a, b) <= t` implies `lev(a, b) <= floor(t · max_chars)`
    /// and the q-gram count bound of [`QgramProfile::required_overlap`]
    /// applies. Candidate generation uses this to decide whether pruning
    /// filters may run; for every other distance the filters degrade to
    /// no-ops (never silently dropping candidates).
    fn admits_qgram_filter(&self) -> bool {
        false
    }

    /// Compile a query record once for repeated bounded evaluation
    /// against many candidates (the verification loops of
    /// `fuzzydedup-nnindex` prepare each query once and reuse it across
    /// the whole candidate list).
    ///
    /// The returned [`Prepared`] must agree *exactly* with
    /// [`Distance::distance_bounded`] on every `(candidate, cutoff)` pair
    /// — preparation is a pure performance lever, property-tested in
    /// `tests/prepared_equivalence.rs`. The default recompiles per call
    /// through the unprepared path, so every existing implementation
    /// keeps working; distances with expensive per-query state (Peq
    /// tables, token vectors, IDF weights) override it.
    ///
    /// `'a` spans the distance **and** the corpus: the candidates handed
    /// to the prepared query live at least as long as it does, so it may
    /// keep slices of them in buffers it reuses across batches.
    fn prepare<'a>(&'a self, query: &[&str]) -> Prepared<'a> {
        Prepared::new(Box::new(FallbackPrepared {
            distance: self,
            query: query.iter().map(|s| s.to_string()).collect(),
        }))
    }

    /// Compile a *candidate* record once: append to `store` whatever
    /// this distance derives from the record alone, so that verifying it
    /// against any prepared query repeats none of that work. An index
    /// calls this once per record, in record-id order, and hands
    /// verification [`CompiledRecords::candidate`] views.
    ///
    /// The default compiles nothing: candidates then reach the prepared
    /// query as [`Candidate::Fields`], the raw attribute strings, and the
    /// per-call path serves them — a third-party distance is correct
    /// without overriding anything. An override must derive the compiled
    /// form with the same function its [`Distance::prepare`] applies to
    /// the query (`ed`: [`record_string`] decoded to chars; `fms`: the
    /// token/IDF decomposition), which is what keeps compiled results
    /// bit-identical to [`Distance::distance_bounded`] on the raw fields;
    /// its prepared query must still accept [`Candidate::Fields`].
    fn compile_record(&self, fields: &[&str], store: &mut CompiledRecords) {
        let _ = (fields, store);
    }

    /// A short human-readable name ("ed", "fms").
    fn name(&self) -> &str;
}

/// The compiled form of one query record, produced by
/// [`Distance::prepare`]: query-side preprocessing (equality bitmasks,
/// token vectors, IDF weights) done once, candidate-side work per call.
///
/// `&mut self` lets implementations keep internal scratch buffers — a
/// prepared query is owned by one lookup on one thread (`Send`, not
/// `Sync`). `'c` is the lifetime of the candidates it verifies (see
/// [`Distance::prepare`]).
pub trait PreparedDistance<'c>: Send {
    /// Bounded distance from the compiled query to a candidate record:
    /// `Some(d)` iff `d <= cutoff`, else `None`, exactly as
    /// [`Distance::distance_bounded`] on the original query and the
    /// candidate's raw fields. Every implementation accepts
    /// [`Candidate::Fields`]; one whose distance overrides
    /// [`Distance::compile_record`] also accepts that compiled form.
    fn distance_bounded_prepared(&mut self, candidate: Candidate<'c>, cutoff: f64) -> Option<f64>;

    /// Bounded distance to a whole batch of candidates at one shared
    /// cutoff: `out[i]` must equal
    /// `distance_bounded_prepared(candidates[i], cutoff)` bit-exactly.
    ///
    /// The default is the scalar loop, so every implementation is correct
    /// by construction; implementations with a lock-step kernel (the
    /// prepared edit distance) override it to verify the batch in one
    /// pass over their compiled tables.
    fn distance_bounded_batch(
        &mut self,
        candidates: &[Candidate<'c>],
        cutoff: f64,
        out: &mut Vec<Option<f64>>,
    ) {
        out.clear();
        for &cand in candidates {
            let d = self.distance_bounded_prepared(cand, cutoff);
            out.push(d);
        }
    }
}

/// A query compiled by [`Distance::prepare`], borrowing the distance it
/// came from and the corpus it verifies. Records prepared-layer metrics
/// (`prepared` section of `RunMetrics`): one `PreparedQueries` per
/// compilation, one `PreparedReuses` per evaluation served.
pub struct Prepared<'a>(Box<dyn PreparedDistance<'a> + 'a>);

impl<'a> Prepared<'a> {
    /// Wrap a compiled query (implementation hook for `prepare`
    /// overrides).
    pub fn new(inner: Box<dyn PreparedDistance<'a> + 'a>) -> Self {
        fuzzydedup_metrics::incr(fuzzydedup_metrics::Counter::PreparedQueries, 1);
        Prepared(inner)
    }

    /// Bounded distance to a candidate through the compiled query;
    /// equivalent to `distance_bounded(query, candidate fields, cutoff)`.
    pub fn distance_bounded(&mut self, candidate: Candidate<'a>, cutoff: f64) -> Option<f64> {
        fuzzydedup_metrics::incr(fuzzydedup_metrics::Counter::PreparedReuses, 1);
        self.0.distance_bounded_prepared(candidate, cutoff)
    }

    /// Bounded distances to a batch of candidates at one shared cutoff;
    /// `out[i]` equals `distance_bounded(candidates[i], cutoff)`
    /// bit-exactly, with lock-step kernels where the distance provides
    /// them (see [`PreparedDistance::distance_bounded_batch`]).
    pub fn distance_bounded_batch(
        &mut self,
        candidates: &[Candidate<'a>],
        cutoff: f64,
        out: &mut Vec<Option<f64>>,
    ) {
        fuzzydedup_metrics::incr(
            fuzzydedup_metrics::Counter::PreparedReuses,
            candidates.len() as u64,
        );
        self.0.distance_bounded_batch(candidates, cutoff, out);
    }
}

/// Default compiled form: owns a copy of the query and routes every call
/// through the unprepared [`Distance::distance_bounded`] — correctness
/// for free, speed only where `prepare` is overridden.
struct FallbackPrepared<'a, D: ?Sized> {
    distance: &'a D,
    query: Vec<String>,
}

impl<'c, D: Distance + ?Sized> PreparedDistance<'c> for FallbackPrepared<'_, D> {
    fn distance_bounded_prepared(&mut self, candidate: Candidate<'c>, cutoff: f64) -> Option<f64> {
        Candidate::Fields(&self.query).with_fields(|query| {
            candidate.with_fields(|fields| self.distance.distance_bounded(query, fields, cutoff))
        })
    }
}

impl<D: Distance + ?Sized> Distance for &D {
    fn distance(&self, a: &[&str], b: &[&str]) -> f64 {
        (**self).distance(a, b)
    }
    fn distance_bounded(&self, a: &[&str], b: &[&str], cutoff: f64) -> Option<f64> {
        // Forward explicitly: the default body would bypass the inner
        // type's override.
        (**self).distance_bounded(a, b, cutoff)
    }
    fn admits_qgram_filter(&self) -> bool {
        // Same vtable gotcha as distance_bounded: forward explicitly or
        // the default `false` silently disables pruning through `&D`.
        (**self).admits_qgram_filter()
    }
    fn prepare<'a>(&'a self, query: &[&str]) -> Prepared<'a> {
        // Same vtable gotcha: without this the default fallback would
        // recompile per call even when the inner type compiles queries.
        (**self).prepare(query)
    }
    fn compile_record(&self, fields: &[&str], store: &mut CompiledRecords) {
        // Same vtable gotcha: the default compiles nothing, which is
        // correct but re-normalizes every candidate on every lookup.
        (**self).compile_record(fields, store)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

impl Distance for Box<dyn Distance> {
    fn distance(&self, a: &[&str], b: &[&str]) -> f64 {
        (**self).distance(a, b)
    }
    fn distance_bounded(&self, a: &[&str], b: &[&str], cutoff: f64) -> Option<f64> {
        (**self).distance_bounded(a, b, cutoff)
    }
    fn admits_qgram_filter(&self) -> bool {
        (**self).admits_qgram_filter()
    }
    fn prepare<'a>(&'a self, query: &[&str]) -> Prepared<'a> {
        (**self).prepare(query)
    }
    fn compile_record(&self, fields: &[&str], store: &mut CompiledRecords) {
        (**self).compile_record(fields, store)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

/// Adapter that hides the inner distance's pruning admissibility:
/// identical distances, but [`Distance::admits_qgram_filter`] reports
/// `false` (it is not forwarded, so the trait default applies), so
/// candidate generation and verification run unpruned. Used to A/B the
/// pruning filters (recall-losslessness tests, `exp_index_recall`).
pub struct UnfilteredDistance<D>(pub D);

impl<D: Distance> Distance for UnfilteredDistance<D> {
    fn distance(&self, a: &[&str], b: &[&str]) -> f64 {
        self.0.distance(a, b)
    }
    fn distance_bounded(&self, a: &[&str], b: &[&str], cutoff: f64) -> Option<f64> {
        self.0.distance_bounded(a, b, cutoff)
    }
    fn prepare<'a>(&'a self, query: &[&str]) -> Prepared<'a> {
        // Filter admissibility is hidden, but prepared kernels stay live:
        // distances are identical either way.
        self.0.prepare(query)
    }
    fn compile_record(&self, fields: &[&str], store: &mut CompiledRecords) {
        self.0.compile_record(fields, store)
    }
    fn name(&self) -> &str {
        self.0.name()
    }
}

/// Enumeration of the built-in distance functions, convenient for
/// command-line experiment drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistanceKind {
    /// Normalized Levenshtein edit distance over the concatenated record.
    EditDistance,
    /// Symmetric fuzzy match similarity (token-level edit distance + IDF).
    FuzzyMatch,
}

impl DistanceKind {
    /// Parse from the names used by the experiment drivers.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "ed" | "edit" | "levenshtein" => Some(Self::EditDistance),
            "fms" | "fuzzy" | "fuzzymatch" => Some(Self::FuzzyMatch),
            _ => None,
        }
    }

    /// Short name as used in `EXPERIMENTS.md` and driver output.
    pub fn name(&self) -> &'static str {
        match self {
            Self::EditDistance => "ed",
            Self::FuzzyMatch => "fms",
        }
    }

    /// Build a boxed distance for a corpus of records. Corpus statistics
    /// (IDF weights) are only consumed by fms.
    pub fn build(&self, corpus: &[Vec<String>]) -> Box<dyn Distance> {
        match self {
            Self::EditDistance => Box::new(EditDistance),
            Self::FuzzyMatch => {
                let idf = IdfModel::fit_records(corpus);
                Box::new(FuzzyMatchDistance::new(idf))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parsing_round_trips() {
        for kind in [DistanceKind::EditDistance, DistanceKind::FuzzyMatch] {
            assert_eq!(DistanceKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(DistanceKind::parse("nope"), None);
    }

    #[test]
    fn build_produces_named_distances() {
        let corpus =
            vec![vec!["microsoft corp".to_string()], vec!["boeing corporation".to_string()]];
        for kind in [DistanceKind::EditDistance, DistanceKind::FuzzyMatch] {
            let d = kind.build(&corpus);
            assert_eq!(d.name(), kind.name());
            assert_eq!(d.distance(&["abc"], &["abc"]), 0.0);
        }
    }

    #[test]
    fn boxed_distance_delegates() {
        let d: Box<dyn Distance> = Box::new(EditDistance);
        assert_eq!(d.name(), "ed");
        assert!(d.distance(&["kitten"], &["sitting"]) > 0.0);
    }

    #[test]
    fn boxed_distance_forwards_bounded_override() {
        // The Box impl must forward distance_bounded to the inner type's
        // override, not fall back to the full-compute default.
        let d: Box<dyn Distance> = Box::new(EditDistance);
        let exact = d.distance(&["microsoft corp"], &["microsft corporation"]);
        assert_eq!(
            d.distance_bounded(&["microsoft corp"], &["microsft corporation"], 1.0),
            Some(exact)
        );
        let (far, delta) = fuzzydedup_metrics::scoped(|| {
            d.distance_bounded(&["completely unrelated text"], &["zzzz"], 0.05)
        });
        assert_eq!(far, None);
        // Reaching the bounded kernel proves the override was dispatched.
        assert_eq!(delta.get(fuzzydedup_metrics::Counter::EdKernelBounded), 1);
    }

    #[test]
    fn default_distance_bounded_filters_by_cutoff() {
        // fms keeps the trait's default `distance_bounded`.
        let d = FuzzyMatchDistance::new(IdfModel::fit_strings(&["alpha beta", "alpha gamma"]));
        let exact = d.distance(&["alpha beta"], &["alpha gamma"]);
        assert!(exact > 0.0);
        assert_eq!(d.distance_bounded(&["alpha beta"], &["alpha gamma"], 1.0), Some(exact));
        assert_eq!(d.distance_bounded(&["alpha beta"], &["alpha gamma"], exact / 2.0), None);
    }
}
