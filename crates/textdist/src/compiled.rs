//! Compiled records: what a distance keeps of a record so that verifying
//! it against a query costs only the comparison.
//!
//! A nearest-neighbor index verifies the same record against hundreds of
//! queries and the record never changes, so everything a distance derives
//! from the record alone — the normalized record string decoded to chars
//! for `ed`, the token/IDF decomposition for `fms` — is derived **once**,
//! by [`Distance::compile_record`](crate::Distance::compile_record), into a
//! [`CompiledRecords`] store the index owns. Verification then hands the
//! prepared query a [`Candidate`] view of the store (DESIGN.md §7.5).
//! A candidate has one form, the one its distance compiled: a prepared
//! query never sees raw attribute strings.

use crate::Distance;

/// One token of a record compiled by `fms`: its chars' span in the store's
/// arena, its IDF vocabulary id ([`NO_ID`] for a token the fit never saw)
/// and its IDF weight. The length is a `u32` so that the span, id
/// included, stays at 24 bytes.
#[derive(Debug, Clone, Copy)]
struct TokenSpan {
    start: usize,
    len: u32,
    id: u32,
    weight: f64,
}

/// [`TokenSpan::id`] of a token without a vocabulary id.
const NO_ID: u32 = u32::MAX;

/// The token/IDF decomposition of one record: its normalized tokens in
/// record order, each with its IDF weight and vocabulary id, and their
/// total weight.
#[derive(Debug, Clone, Copy)]
pub struct WeightedTokens<'c> {
    arena: &'c [char],
    spans: &'c [TokenSpan],
    total: f64,
}

impl<'c> WeightedTokens<'c> {
    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the record has no tokens.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Sum of the token weights, accumulated in record order.
    pub fn total_weight(&self) -> f64 {
        self.total
    }

    /// The tokens in record order, as `(chars, weight, vocabulary id)`; the
    /// id is `None` for a token the IDF fit never saw.
    pub fn iter(&self) -> impl Iterator<Item = (&'c [char], f64, Option<u32>)> + '_ {
        self.spans.iter().map(|t| self.token(t))
    }

    /// Token `j` in record order, as [`WeightedTokens::iter`] yields it.
    pub(crate) fn get(&self, j: usize) -> (&'c [char], f64, Option<u32>) {
        self.token(&self.spans[j])
    }

    fn token(&self, t: &TokenSpan) -> (&'c [char], f64, Option<u32>) {
        let chars = &self.arena[t.start..t.start + t.len as usize];
        (chars, t.weight, (t.id != NO_ID).then_some(t.id))
    }
}

/// One candidate record as a prepared query sees it: the form its
/// **own** distance compiled. Handing a prepared query another distance's
/// compiled form is a bug in the caller and panics.
#[derive(Debug, Clone, Copy)]
pub enum Candidate<'c> {
    /// The normalized record string ([`crate::record_string`]) decoded to
    /// chars: what `ed` compiles.
    Chars(&'c [char]),
    /// The token/IDF decomposition: what `fms` compiles.
    Tokens(WeightedTokens<'c>),
}

impl<'c> Candidate<'c> {
    /// The chars of a [`Candidate::Chars`] candidate.
    ///
    /// # Panics
    /// On another form: the candidate was compiled by another distance.
    pub(crate) fn chars(self) -> &'c [char] {
        match self {
            Candidate::Chars(chars) => chars,
            other => panic!("candidate was compiled by another distance: {other:?}"),
        }
    }

    /// The tokens of a [`Candidate::Tokens`] candidate.
    ///
    /// # Panics
    /// On another form: the candidate was compiled by another distance.
    pub(crate) fn tokens(self) -> WeightedTokens<'c> {
        match self {
            Candidate::Tokens(tokens) => tokens,
            other => panic!("candidate was compiled by another distance: {other:?}"),
        }
    }
}

/// The records of one corpus compiled by one distance, appended to by
/// [`Distance::compile_record`](crate::Distance::compile_record) in record-id
/// order and read back as [`Candidate`]s.
///
/// All records live in flat arenas, so a candidate costs two offset loads
/// and no pointer chase. A store holds one compiled form: the first push
/// decides it.
#[derive(Debug, Clone, Default)]
pub struct CompiledRecords {
    /// `None` until the first push.
    repr: Option<Repr>,
}

#[derive(Debug, Clone)]
enum Repr {
    /// One run of chars per record; `ends[id]` closes record `id`'s run.
    Chars { arena: Vec<char>, ends: Vec<usize> },
    /// One run of tokens per record; `records[id]` holds where its run of
    /// `spans` ends and its total weight.
    Tokens { arena: Vec<char>, spans: Vec<TokenSpan>, records: Vec<(usize, f64)> },
}

impl CompiledRecords {
    /// Compile a whole corpus with `distance`, in record-id order — the
    /// store an index over a fixed corpus builds once.
    pub fn compile<D: Distance + ?Sized>(distance: &D, records: &[Vec<String>]) -> Self {
        let mut store = Self::default();
        for record in records {
            let fields: Vec<&str> = record.iter().map(String::as_str).collect();
            distance.compile_record(&fields, &mut store);
        }
        store
    }

    /// Append a record compiled to its record-string chars.
    pub fn push_chars(&mut self, chars: impl IntoIterator<Item = char>) {
        let repr =
            self.repr.get_or_insert_with(|| Repr::Chars { arena: Vec::new(), ends: Vec::new() });
        let Repr::Chars { arena, ends } = repr else {
            panic!("a store holds one compiled form");
        };
        arena.extend(chars);
        ends.push(arena.len());
    }

    /// Append a record compiled to its tokens, in record order, each as
    /// `(text, IDF weight, vocabulary id)`.
    ///
    /// An id of `u32::MAX` reads back as `None`.
    ///
    /// # Panics
    /// On a token of 2³² chars or more.
    pub fn push_tokens<'t>(
        &mut self,
        tokens: impl IntoIterator<Item = (&'t str, f64, Option<u32>)>,
    ) {
        let repr = self.repr.get_or_insert_with(|| Repr::Tokens {
            arena: Vec::new(),
            spans: Vec::new(),
            records: Vec::new(),
        });
        let Repr::Tokens { arena, spans, records } = repr else {
            panic!("a store holds one compiled form");
        };
        let first = spans.len();
        for (text, weight, id) in tokens {
            let start = arena.len();
            arena.extend(text.chars());
            let len = u32::try_from(arena.len() - start).expect("a token is under 2^32 chars");
            spans.push(TokenSpan { start, len, id: id.unwrap_or(NO_ID), weight });
        }
        let total = spans[first..].iter().map(|t| t.weight).sum();
        records.push((spans.len(), total));
    }

    /// Record `id` as a candidate, in its compiled form.
    ///
    /// # Panics
    /// If the store holds no record `id`.
    pub fn candidate(&self, id: usize) -> Candidate<'_> {
        match &self.repr {
            Some(Repr::Chars { arena, ends }) => {
                let start = if id == 0 { 0 } else { ends[id - 1] };
                Candidate::Chars(&arena[start..ends[id]])
            }
            Some(Repr::Tokens { arena, spans, records }) => {
                let start = if id == 0 { 0 } else { records[id - 1].0 };
                let (end, total) = records[id];
                Candidate::Tokens(WeightedTokens { arena, spans: &spans[start..end], total })
            }
            None => panic!("an empty store holds no record {id}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn char_runs_come_back_per_record() {
        let mut store = CompiledRecords::default();
        store.push_chars("abc".chars());
        store.push_chars("".chars());
        store.push_chars("dé".chars());
        let runs: Vec<String> =
            (0..3).map(|id| store.candidate(id).chars().iter().collect()).collect();
        assert_eq!(runs, ["abc", "", "dé"]);
    }

    #[test]
    fn token_runs_come_back_per_record() {
        let mut store = CompiledRecords::default();
        store.push_tokens([("golden", 1.5, Some(0)), ("dragon", 2.0, None)]);
        store.push_tokens([]);
        store.push_tokens([("café", 0.25, Some(7))]);
        let first = store.candidate(0).tokens();
        assert_eq!(first.len(), 2);
        assert_eq!(first.total_weight(), 3.5);
        let tokens: Vec<(String, Option<u32>)> =
            first.iter().map(|(c, _, id)| (c.iter().collect(), id)).collect();
        assert_eq!(tokens, [("golden".into(), Some(0)), ("dragon".into(), None)]);
        let second = store.candidate(1).tokens();
        assert!(second.is_empty());
        let third = store.candidate(2).tokens();
        assert_eq!(
            third.iter().next().map(|(c, w, id)| (c.len(), w, id)),
            Some((4, 0.25, Some(7)))
        );
    }

    #[test]
    #[should_panic(expected = "one compiled form")]
    fn a_store_holds_one_form() {
        let mut store = CompiledRecords::default();
        store.push_chars("abc".chars());
        store.push_tokens([("abc", 1.0, None)]);
    }

    #[test]
    #[should_panic(expected = "another distance")]
    fn another_distances_form_panics() {
        Candidate::Chars(&['a']).tokens();
    }
}
