//! Shared BENCH_*.json rendering.
//!
//! Every experiment binary that commits a JSON artifact renders it
//! through [`BenchJson`], so the on-disk convention is defined once:
//! top-level fields at 2-space indent in insertion order, row arrays
//! with one compact row per line at 4-space indent, and a trailing
//! newline. CI byte-diffs these files across runs — the renderer
//! having a single implementation is what keeps the binaries' writers
//! from drifting apart.
//!
//! Numeric formatting stays with the caller: each experiment owns its
//! precision conventions (`{:.1}` cycles, `{:.4}` rates, `{:016x}`
//! digests), so values arrive here as pre-rendered JSON fragments.

use std::fmt::Display;
use std::fs;
use std::path::Path;

/// Builder for one BENCH_*.json document.
///
/// # Example
///
/// ```
/// use capsacc_bench::{json_row, BenchJson};
/// let mut j = BenchJson::new("exp_demo");
/// j.str_field("net", "mnist");
/// j.field("batch", 16);
/// j.rows(
///     "rows",
///     vec![json_row(&[("n", "1".into()), ("cycles", "2.5".into())])],
/// );
/// assert_eq!(
///     j.render(),
///     "{\n  \"bench\": \"exp_demo\",\n  \"net\": \"mnist\",\n  \"batch\": 16,\n  \
///      \"rows\": [\n    {\"n\": 1, \"cycles\": 2.5}\n  ]\n}\n"
/// );
/// ```
pub struct BenchJson {
    fields: Vec<(String, String)>,
}

impl BenchJson {
    /// A document whose first field is `"bench": "<name>"`.
    pub fn new(bench: &str) -> Self {
        let mut j = Self { fields: Vec::new() };
        j.str_field("bench", bench);
        j
    }

    /// Appends a field whose value renders via `Display` as a bare
    /// JSON token (numbers, booleans).
    pub fn field(&mut self, key: &str, value: impl Display) {
        self.raw(key, value.to_string());
    }

    /// Appends a string-valued field, quoted by [`json_str`].
    pub fn str_field(&mut self, key: &str, value: &str) {
        self.raw(key, json_str(value));
    }

    /// Appends a field from a pre-rendered JSON fragment (an inline
    /// array, a one-line object, a formatted float).
    pub fn raw(&mut self, key: &str, value: impl Into<String>) {
        self.fields.push((key.to_string(), value.into()));
    }

    /// Appends an array field with one compact row per line at 4-space
    /// indent — the BENCH sweep-table convention. Build object rows
    /// with [`json_row`].
    pub fn rows(&mut self, key: &str, rows: Vec<String>) {
        let mut v = String::from("[\n");
        for (i, row) in rows.iter().enumerate() {
            v.push_str("    ");
            v.push_str(row);
            v.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
        }
        v.push_str("  ]");
        self.raw(key, v);
    }

    /// Renders the document: fields in insertion order at 2-space
    /// indent, trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            out.push_str("  \"");
            out.push_str(k);
            out.push_str("\": ");
            out.push_str(v);
            out.push_str(if i + 1 < self.fields.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("}\n");
        out
    }

    /// Renders and writes to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write error.
    pub fn write(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        fs::write(path, self.render())
    }
}

/// Quotes a string as a JSON string. The value must not need escaping:
/// BENCH files only carry identifier-like strings and printed table
/// cells.
///
/// ```
/// assert_eq!(capsacc_bench::json_str("6.4x faster"), "\"6.4x faster\"");
/// ```
pub fn json_str(value: &str) -> String {
    debug_assert!(
        !value.contains(['"', '\\']) && value.bytes().all(|b| b >= 0x20),
        "BenchJson string values must not need escaping"
    );
    format!("\"{value}\"")
}

/// One compact row object: `{"k": v, ...}` with values used verbatim
/// (callers format numbers to their own precision).
///
/// ```
/// let row = capsacc_bench::json_row(&[("a", "1".into()), ("b", "2.50".into())]);
/// assert_eq!(row, "{\"a\": 1, \"b\": 2.50}");
/// ```
pub fn json_row(pairs: &[(&str, String)]) -> String {
    let cells: Vec<String> = pairs.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", cells.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_bench_convention() {
        let mut j = BenchJson::new("exp_x");
        j.str_field("config", "paper_16x16_250MHz");
        j.field("batch", 16);
        j.raw("inline", "[1, 2, 3]");
        j.rows(
            "rows",
            vec![
                json_row(&[("n", "1".into())]),
                json_row(&[("n", "2".into())]),
            ],
        );
        let got = j.render();
        assert_eq!(
            got,
            "{\n  \"bench\": \"exp_x\",\n  \"config\": \"paper_16x16_250MHz\",\n  \
             \"batch\": 16,\n  \"inline\": [1, 2, 3],\n  \"rows\": [\n    {\"n\": 1},\n    \
             {\"n\": 2}\n  ]\n}\n"
        );
        assert!(got.ends_with("}\n"));
        // The rendered document is valid JSON by the telemetry parser.
        capsacc_telemetry::validate_json(&got).expect("valid JSON");
    }

    #[test]
    fn empty_rows_render_as_a_two_line_array() {
        let mut j = BenchJson::new("exp_x");
        j.rows("rows", Vec::new());
        assert_eq!(
            j.render(),
            "{\n  \"bench\": \"exp_x\",\n  \"rows\": [\n  ]\n}\n"
        );
    }
}
