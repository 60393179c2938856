//! Tokenization and string normalization.
//!
//! All distance functions in this crate operate on a shared normalized view
//! of the input: lowercase, punctuation mapped to spaces, whitespace
//! collapsed. This mirrors the preprocessing commonly applied before edit
//! distance / cosine similarity in data cleaning pipelines, and makes e.g.
//! `"AC DC"` and `"ac-dc"` tokenize identically.

/// A token: a maximal run of alphanumeric characters in the normalized
/// string, with its position (order matters for fms token alignment).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Token {
    /// Normalized token text (lowercase).
    pub text: String,
    /// 0-based position of the token within its field.
    pub position: usize,
}

impl Token {
    /// Construct a token at a position.
    pub fn new(text: impl Into<String>, position: usize) -> Self {
        Self { text: text.into(), position }
    }
}

/// Normalize a string: lowercase, replace any non-alphanumeric character with
/// a space, and collapse runs of whitespace into a single space. Leading and
/// trailing whitespace is removed.
///
/// Idempotent: of the chars a lowercase mapping yields, only the
/// alphanumeric ones are kept (`'İ'` lowercases to `i` plus a combining
/// dot, which a second pass would otherwise turn into a space).
///
/// ```
/// use fuzzydedup_textdist::normalize;
/// assert_eq!(normalize("  The  Doors! "), "the doors");
/// assert_eq!(normalize("I'm Holdin' On"), "i m holdin on");
/// assert_eq!(normalize("AC/DC"), "ac dc");
/// assert_eq!(normalize("İİ"), "ii");
/// ```
pub fn normalize(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    normalize_into(s, &mut out);
    out
}

/// [`normalize`] **appended** to a caller-provided buffer: whatever `out`
/// already holds is kept, and a normalized form that turns out empty
/// appends nothing.
pub fn normalize_into(s: &str, out: &mut String) {
    let start = out.len();
    let mut pending_space = false;
    for ch in s.chars() {
        if !ch.is_alphanumeric() {
            pending_space = true;
            continue;
        }
        for lower in ch.to_lowercase().filter(|c| c.is_alphanumeric()) {
            if pending_space && out.len() > start {
                out.push(' ');
            }
            pending_space = false;
            out.push(lower);
        }
    }
}

/// Tokenize a string into normalized word tokens.
///
/// ```
/// use fuzzydedup_textdist::tokenize;
/// let toks = tokenize("Twian, Shania");
/// assert_eq!(toks.len(), 2);
/// assert_eq!(toks[0].text, "twian");
/// assert_eq!(toks[1].text, "shania");
/// ```
pub fn tokenize(s: &str) -> Vec<Token> {
    normalize(s)
        .split(' ')
        .filter(|t| !t.is_empty())
        .enumerate()
        .map(|(i, t)| Token::new(t, i))
        .collect()
}

/// Tokenize a multi-attribute record into a flat token list. Token positions
/// restart per field but fields are kept in order; a `field` marker is not
/// needed by any consumer, so tokens are simply concatenated.
pub fn tokenize_record(fields: &[&str]) -> Vec<Token> {
    let mut out = Vec::new();
    for field in fields {
        let base = out.len();
        for (i, t) in tokenize(field).into_iter().enumerate() {
            out.push(Token::new(t.text, base + i));
        }
    }
    out
}

/// Join a record's fields into one normalized string, separating fields with
/// a single space. Every [`Distance`](crate::Distance) is a function of this
/// string (the trait's contract); edit distance compares it whole.
pub fn record_string(fields: &[&str]) -> String {
    let mut out = String::new();
    record_string_into(fields, &mut out);
    out
}

/// [`record_string`] written into a caller-provided buffer (cleared
/// first), so callers that join many records reuse one allocation.
pub fn record_string_into(fields: &[&str], out: &mut String) {
    out.clear();
    for field in fields {
        let mark = out.len();
        if mark > 0 {
            out.push(' ');
        }
        let body = out.len();
        normalize_into(field, out);
        if out.len() == body {
            // The field normalized to nothing: take the separator back.
            out.truncate(mark);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn normalize_basic() {
        assert_eq!(normalize("Hello, World!"), "hello world");
        assert_eq!(normalize(""), "");
        assert_eq!(normalize("   "), "");
        assert_eq!(normalize("a"), "a");
        assert_eq!(normalize("4 th Elemynt"), "4 th elemynt");
        assert_eq!(normalize("4th Elemynt"), "4th elemynt");
    }

    #[test]
    fn normalize_unicode_lowercase() {
        assert_eq!(normalize("Ärger"), "ärger");
        assert_eq!(normalize("ÉCOLE"), "école");
    }

    #[test]
    fn tokenize_positions_are_sequential() {
        let toks = tokenize("With A Little Help From My Friend");
        let positions: Vec<usize> = toks.iter().map(|t| t.position).collect();
        assert_eq!(positions, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn tokenize_empty_and_punct_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("--- !!! ///").is_empty());
    }

    #[test]
    fn tokenize_record_concatenates_fields() {
        let toks = tokenize_record(&["The Doors", "LA Woman"]);
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["the", "doors", "la", "woman"]);
        assert_eq!(toks.last().unwrap().position, 3);
    }

    #[test]
    fn record_string_joins_fields() {
        assert_eq!(record_string(&["The Doors", "LA Woman"]), "the doors la woman");
        assert_eq!(record_string(&["", "LA Woman"]), "la woman");
        assert_eq!(record_string(&[]), "");
    }

    #[test]
    fn normalize_keeps_only_alphanumerics_of_a_lowercase_mapping() {
        // 'İ' (U+0130) lowercases to 'i' + U+0307; the combining dot is
        // not alphanumeric and must not survive to become a space later.
        assert_eq!(normalize("İİİİ cafe"), "iiii cafe");
        assert_eq!(normalize(&normalize("İstanbul İ")), normalize("İstanbul İ"));
    }

    #[test]
    fn normalize_is_idempotent_on_every_char() {
        for ch in (0..=char::MAX as u32).filter_map(char::from_u32) {
            // Between letters, so a char that vanishes or becomes a
            // separator shows either way.
            let once = normalize(&format!("a{ch}b"));
            assert_eq!(normalize(&once), once, "U+{:04X}", ch as u32);
        }
    }

    #[test]
    fn normalize_into_appends() {
        let mut out = String::from("kept");
        normalize_into("  The Doors! ", &mut out);
        assert_eq!(out, "keptthe doors");
        normalize_into("?!", &mut out);
        assert_eq!(out, "keptthe doors");
    }

    #[test]
    fn record_string_skips_fields_that_normalize_to_nothing() {
        assert_eq!(record_string(&["a", "--", "b"]), "a b");
        assert_eq!(record_string(&["!!", "x"]), "x");
        assert_eq!(record_string(&["x", "!!"]), "x");
    }

    proptest! {
        #[test]
        fn normalize_is_idempotent(
            // Arbitrary Unicode: any scalar value, with half the draws
            // folded into the first 0x600 code points, where the case
            // mappings that expand or carry combining marks live.
            points in prop::collection::vec((0u32..0x11_0000, any::<bool>()), 0..64),
        ) {
            let s: String = points
                .into_iter()
                .filter_map(|(p, low)| char::from_u32(if low { p % 0x600 } else { p }))
                .collect();
            let once = normalize(&s);
            prop_assert_eq!(normalize(&once), once);
        }

        #[test]
        fn normalized_has_no_double_spaces(s in ".{0,64}") {
            let n = normalize(&s);
            prop_assert!(!n.contains("  "));
            prop_assert!(!n.starts_with(' '));
            prop_assert!(!n.ends_with(' '));
        }

        #[test]
        fn tokens_are_nonempty_and_normalized(s in ".{0,64}") {
            for t in tokenize(&s) {
                prop_assert!(!t.text.is_empty());
                prop_assert_eq!(normalize(&t.text), t.text.clone());
            }
        }
    }
}
