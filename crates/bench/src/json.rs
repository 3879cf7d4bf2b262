//! Minimal JSON emission for the harness binaries' `--json` mode.
//!
//! The workspace builds offline with no serde (`DESIGN.md` §4), so the
//! machine-readable bench reports are rendered by this tiny builder: flat
//! objects of strings/integers/floats plus one level of object arrays —
//! exactly what a CI artifact consumer needs, nothing more.

/// Builder for one JSON object.
#[derive(Clone, Debug, Default)]
pub struct JsonObject {
    fields: Vec<(String, String)>,
}

impl JsonObject {
    /// Empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a string field (escaped).
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.fields
            .push((key.to_string(), format!("\"{}\"", escape(value))));
        self
    }

    /// Add an integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Add a signed integer field.
    pub fn i64(mut self, key: &str, value: i64) -> Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Add a float field (non-finite values render as `null`).
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        let rendered = if value.is_finite() {
            format!("{value:.3}")
        } else {
            "null".to_string()
        };
        self.fields.push((key.to_string(), rendered));
        self
    }

    /// Add an array-of-objects field.
    pub fn array(mut self, key: &str, items: &[JsonObject]) -> Self {
        let inner: Vec<String> = items.iter().map(JsonObject::render).collect();
        self.fields
            .push((key.to_string(), format!("[{}]", inner.join(","))));
        self
    }

    /// Render to a JSON string.
    pub fn render(&self) -> String {
        let inner: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", escape(k), v))
            .collect();
        format!("{{{}}}", inner.join(","))
    }
}

/// Escape a string for inclusion in a JSON string literal.
pub fn escape(s: &str) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_report() {
        let rows = vec![
            JsonObject::new().u64("workers", 1).f64("rate", 1234.5678),
            JsonObject::new().u64("workers", 2).f64("rate", f64::NAN),
        ];
        let report = JsonObject::new()
            .str("bench", "pool_scaling")
            .str("note", "line\nbreak \"quoted\"")
            .array("rows", &rows)
            .render();
        assert_eq!(
            report,
            "{\"bench\":\"pool_scaling\",\
             \"note\":\"line\\nbreak \\\"quoted\\\"\",\
             \"rows\":[{\"workers\":1,\"rate\":1234.568},{\"workers\":2,\"rate\":null}]}"
        );
    }
}
