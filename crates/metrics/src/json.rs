//! Minimal dependency-free JSON writer.
//!
//! The workspace has no registry access, so instead of a serde dependency
//! the metrics layer renders JSON by hand through these two builders.
//! Output is compact (`{"a": 1, "b": {"c": 2}}`) and always
//! syntactically valid: keys and strings are escaped, and non-finite
//! floats are emitted as `null` rather than the invalid bare tokens
//! `NaN`/`inf`. Nothing in the workspace reads JSON back.

/// Escape a string for embedding between JSON double quotes.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render an `f64` as a JSON number (`null` for NaN/infinities, which
/// have no JSON representation).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Incremental `{...}` builder.
#[derive(Debug, Default, Clone)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// Start an empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, key: &str) {
        if !self.buf.is_empty() {
            self.buf.push_str(", ");
        }
        self.buf.push('"');
        self.buf.push_str(&escape(key));
        self.buf.push_str("\": ");
    }

    /// Add an unsigned integer field.
    pub fn u64(&mut self, key: &str, v: u64) -> &mut Self {
        self.key(key);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Add a float field.
    pub fn f64(&mut self, key: &str, v: f64) -> &mut Self {
        self.key(key);
        self.buf.push_str(&number(v));
        self
    }

    /// Add a float field rendered with exactly `decimals` fractional
    /// digits. Bench artifacts use this so that refreshed baselines
    /// produce stable, reviewable git diffs (fixed precision, fixed
    /// field order) regardless of the float's binary representation.
    pub fn f64_fixed(&mut self, key: &str, v: f64, decimals: usize) -> &mut Self {
        self.key(key);
        if v.is_finite() {
            self.buf.push_str(&format!("{v:.decimals$}"));
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Add a string field.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.key(key);
        self.buf.push('"');
        self.buf.push_str(&escape(v));
        self.buf.push('"');
        self
    }

    /// Add a boolean field.
    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.key(key);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Add an already-rendered JSON value verbatim.
    pub fn raw(&mut self, key: &str, v: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str(v);
        self
    }

    /// Add a nested object built by `f`.
    pub fn object(&mut self, key: &str, f: impl FnOnce(&mut JsonObject)) -> &mut Self {
        let mut inner = JsonObject::new();
        f(&mut inner);
        let rendered = inner.finish();
        self.raw(key, &rendered)
    }

    /// Render the object.
    pub fn finish(&self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Incremental `[...]` builder.
#[derive(Debug, Default, Clone)]
pub struct JsonArray {
    buf: String,
}

impl JsonArray {
    /// Start an empty array.
    pub fn new() -> Self {
        Self::default()
    }

    fn sep(&mut self) {
        if !self.buf.is_empty() {
            self.buf.push_str(", ");
        }
    }

    /// Append an already-rendered JSON value verbatim.
    fn push_raw(&mut self, v: &str) -> &mut Self {
        self.sep();
        self.buf.push_str(v);
        self
    }

    /// Append an object built by `f`.
    pub fn push_object(&mut self, f: impl FnOnce(&mut JsonObject)) -> &mut Self {
        let mut inner = JsonObject::new();
        f(&mut inner);
        let rendered = inner.finish();
        self.push_raw(&rendered)
    }

    /// Render the array.
    pub fn finish(&self) -> String {
        format!("[{}]", self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn builds_nested_objects_and_arrays() {
        let mut arr = JsonArray::new();
        arr.push_object(|o| {
            o.str("name", "x").u64("n", 3);
        });
        arr.push_raw("7");
        let mut obj = JsonObject::new();
        obj.bool("ok", true)
            .f64("ratio", 0.5)
            .f64("bad", f64::NAN)
            .raw("rows", &arr.finish())
            .object("nested", |o| {
                o.u64("k", 1);
            });
        assert_eq!(
            obj.finish(),
            "{\"ok\": true, \"ratio\": 0.5, \"bad\": null, \
             \"rows\": [{\"name\": \"x\", \"n\": 3}, 7], \"nested\": {\"k\": 1}}"
        );
    }

    #[test]
    fn fixed_precision_floats_are_stable() {
        let mut obj = JsonObject::new();
        obj.f64_fixed("mean_ns", 1234.56789, 1).f64_fixed("ratio", 1.0 / 3.0, 4).f64_fixed(
            "bad",
            f64::NAN,
            2,
        );
        assert_eq!(obj.finish(), "{\"mean_ns\": 1234.6, \"ratio\": 0.3333, \"bad\": null}");
    }
}
