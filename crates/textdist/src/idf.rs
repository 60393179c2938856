//! Inverse-document-frequency model over tokens.
//!
//! The fuzzy match similarity weights tokens by IDF (as TF-IDF cosine,
//! the paper's other token measure, would) so that frequent, uninformative tokens ("corp", "inc", "the") carry
//! little weight while rare, discriminating tokens ("microsoft") dominate.
//! The model is fit once over the relation being deduplicated — the paper
//! treats the relation itself as the corpus.

use std::collections::HashMap;

use crate::tokenize::tokenize;

/// IDF statistics for a token corpus.
///
/// `idf(t) = ln(1 + N / df(t))` where `N` is the number of documents
/// (records) and `df(t)` the number of documents containing `t`. Unknown
/// tokens receive the maximum observed specificity, `ln(1 + N)`, so that a
/// rare typo'd token still carries high weight (important: a misspelled rare
/// token must not become cheap to drop in fms).
///
/// Every fitted token also has a dense vocabulary id, counting from 0 in
/// first-seen order, kept beside its document frequency: fms keys its
/// token-pair memo on it.
#[derive(Debug, Clone, Default)]
pub struct IdfModel {
    /// Per fitted token: `(document frequency, vocabulary id)`.
    doc_freq: HashMap<String, (u32, u32)>,
    n_docs: u32,
}

impl IdfModel {
    /// Fit over a corpus of documents, each already tokenized into strings.
    fn fit_token_docs<S: AsRef<str>>(docs: &[Vec<S>]) -> Self {
        let mut doc_freq: HashMap<String, (u32, u32)> = HashMap::new();
        let mut seen: Vec<&str> = Vec::new();
        for doc in docs {
            seen.clear();
            for tok in doc {
                let t = tok.as_ref();
                if !seen.contains(&t) {
                    seen.push(t);
                }
            }
            for t in &seen {
                let next_id = doc_freq.len() as u32;
                doc_freq.entry((*t).to_string()).or_insert((0, next_id)).0 += 1;
            }
        }
        Self { doc_freq, n_docs: docs.len() as u32 }
    }

    /// Fit over raw strings, tokenizing each with [`tokenize`].
    pub fn fit_strings<S: AsRef<str>>(docs: &[S]) -> Self {
        let token_docs: Vec<Vec<String>> = docs
            .iter()
            .map(|d| tokenize(d.as_ref()).into_iter().map(|t| t.text).collect())
            .collect();
        Self::fit_token_docs(&token_docs)
    }

    /// Fit over multi-attribute records; every record is one document whose
    /// tokens are the union of its fields' tokens.
    pub fn fit_records(records: &[Vec<String>]) -> Self {
        let token_docs: Vec<Vec<String>> = records
            .iter()
            .map(|r| r.iter().flat_map(|f| tokenize(f).into_iter().map(|t| t.text)).collect())
            .collect();
        Self::fit_token_docs(&token_docs)
    }

    /// IDF weight of a token. Unknown tokens get the maximum weight
    /// `ln(1 + N)`; with an empty model every token weighs `ln(2)`.
    pub fn idf(&self, token: &str) -> f64 {
        self.idf_and_id(token).0
    }

    /// A token's IDF weight ([`IdfModel::idf`]) and its vocabulary id,
    /// `None` for a token the fit never saw — one map lookup for both.
    pub fn idf_and_id(&self, token: &str) -> (f64, Option<u32>) {
        let n = self.n_docs.max(1) as f64;
        match self.doc_freq.get(token) {
            Some(&(df, id)) => ((1.0 + n / df as f64).ln(), Some(id)),
            None => ((1.0 + n).ln(), None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> IdfModel {
        IdfModel::fit_strings(&[
            "microsoft corp",
            "boeing corp",
            "intel corp",
            "microsft corporation",
        ])
    }

    #[test]
    fn frequent_tokens_weigh_less() {
        let m = corpus();
        assert!(m.idf("corp") < m.idf("microsoft"));
        assert!(m.idf("corp") < m.idf("boeing"));
    }

    #[test]
    fn unknown_tokens_get_max_weight() {
        let m = corpus();
        let unknown = m.idf("zzzz");
        assert!(unknown >= m.idf("microsoft"));
        assert_eq!(unknown, (1.0 + 4.0f64).ln());
    }

    #[test]
    fn doc_freq_counts_documents_not_occurrences() {
        // `ln(1 + N/df)`: the unknown token's weight pins N = 2, and then
        // each token's weight pins its df.
        let m = IdfModel::fit_strings(&["a a a", "a b"]);
        assert_eq!(m.idf("zzzz"), 3f64.ln());
        assert_eq!(m.idf_and_id("a"), (2f64.ln(), Some(0)));
        assert_eq!(m.idf_and_id("b"), (3f64.ln(), Some(1)));
    }

    #[test]
    fn vocabulary_ids_are_dense_in_first_seen_order() {
        let m = IdfModel::fit_strings(&["b a b", "c a", "d"]);
        let ids: Vec<Option<u32>> = ["b", "a", "c", "d", "zzzz"].map(|t| m.idf_and_id(t).1).into();
        assert_eq!(ids, [Some(0), Some(1), Some(2), Some(3), None]);
    }

    #[test]
    fn empty_model_is_usable() {
        let m = IdfModel::default();
        assert_eq!(m.idf_and_id("anything"), (2f64.ln(), None));
    }

    #[test]
    fn idf_is_positive_and_monotone_in_rarity() {
        let m = corpus();
        for t in ["corp", "microsoft", "corporation", "boeing"] {
            assert!(m.idf(t) > 0.0);
        }
        // df(corp)=3 > df(corporation)=1 so idf(corp) < idf(corporation)
        assert!(m.idf("corp") < m.idf("corporation"));
    }

    #[test]
    fn fit_records_unions_fields() {
        let m = IdfModel::fit_records(&[
            vec!["The Doors".into(), "LA Woman".into()],
            vec!["Doors".into(), "LA Woman".into()],
        ]);
        // N = 2: df 2 weighs ln 2, df 1 weighs ln 3.
        assert_eq!(m.idf("doors"), 2f64.ln());
        assert_eq!(m.idf("la"), 2f64.ln());
        assert_eq!(m.idf_and_id("the"), (3f64.ln(), Some(0)));
    }
}
