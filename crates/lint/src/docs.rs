//! `doc-drift`: README/ARCHITECTURE references must name real code.
//!
//! The audited docs promise that their "Invariants → Tests" pointers
//! and workspace map track the code. This pass checks, per Markdown
//! line, every `` `…` `` code span that looks like a reference:
//!
//! - `path/to/file.rs` (optionally `file.rs::item`) must resolve to a
//!   workspace source file (exact path or unique basename suffix),
//!   and the named item must appear in that file as a whole
//!   identifier;
//! - `crates/…`, `src/…`, `tests/…`, `vendor/…` paths must exist on
//!   disk (brace/glob shorthands like `lut/{a,b}.rs` are checked up
//!   to the expansion point);
//! - bare `snake_case` identifiers (all `[a-z0-9_]`, at least one
//!   underscore, length ≥ 4) must appear somewhere in the workspace
//!   sources or file paths as a whole identifier. The linter's own
//!   sources do not count: their docs and test fixtures name drifted
//!   identifiers on purpose;
//! - `Type`, `Type::item` and `Type::item()` spans (an uppercase
//!   start, identifiers joined by `::`) must have every segment
//!   appear in those sources as a whole identifier.
//!
//! Command lines are checked on every line, fenced blocks included:
//! `--bin <name>` must name `crates/*/src/bin/<name>.rs` and
//! `--example <name>` must name `examples/<name>.rs`.
//!
//! "As a whole identifier" means the characters either side of the
//! match are not identifier characters, so a deleted name that
//! survives only inside a longer one (`routing_steps` inside
//! `batch_routing_steps`) is still drift.
//!
//! Spans containing whitespace are prose and skipped. Waivers use the
//! same grammar inside HTML comments: `<!-- lint:allow(doc-drift,
//! reason) -->` on the line above the reference.

use std::path::Path;

use crate::report::Diagnostic;
use crate::rules::{apply_waivers, parse_waiver_text, Waiver};

/// A snapshot of the workspace used to resolve doc references.
pub struct Inventory {
    /// Repo-relative `/`-separated paths of every audited source file.
    pub paths: Vec<String>,
    /// Concatenated contents of those files (the linter's own
    /// excepted) plus all their paths — the haystack for
    /// bare-identifier references.
    pub haystack: String,
    /// `(path, contents)` pairs for `file.rs::item` resolution.
    pub files: Vec<(String, String)>,
}

/// Lints one Markdown file against the workspace inventory.
pub fn lint_markdown(path: &str, text: &str, root: &Path, inv: &Inventory) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut waivers = Vec::new();
    let mut nonblank_lines = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = u32::try_from(idx + 1).expect("line fits u32");
        if !raw.trim().is_empty() {
            nonblank_lines.push(line);
        }
        if let Some(pos) = raw.find("lint:allow(") {
            if let Some((rule, reason)) = parse_waiver_text(raw) {
                waivers.push(Waiver {
                    rule,
                    reason,
                    line,
                    col: u32::try_from(pos + 1).expect("col fits u32"),
                    used: false,
                });
            }
        }
        let spans = code_spans(raw)
            .into_iter()
            .filter_map(|(col, span)| Some((col, check_span(span, root, inv)?)));
        for (col, message) in spans.chain(check_targets(raw, inv)) {
            diags.push(Diagnostic {
                rule: "doc-drift",
                path: path.to_string(),
                line,
                col,
                message,
                waived: None,
            });
        }
    }
    // Coverage for Markdown: the waiver's own line plus the next
    // non-blank line.
    apply_waivers(path, &mut diags, &mut waivers, |l| {
        let mut covered = vec![l];
        if let Some(&next) = nonblank_lines.iter().find(|&&n| n > l) {
            covered.push(next);
        }
        covered
    });
    diags
}

/// Extracts `` `…` `` spans from one line as `(1-based col, content)`.
fn code_spans(line: &str) -> Vec<(u32, &str)> {
    let mut out = Vec::new();
    let mut rest = line;
    let mut base = 0usize;
    while let Some(open) = rest.find('`') {
        let after = &rest[open + 1..];
        let Some(close) = after.find('`') else { break };
        let col = u32::try_from(base + open + 2).expect("col fits u32");
        out.push((col, &after[..close]));
        base += open + 1 + close + 1;
        rest = &rest[open + 1 + close + 1..];
    }
    out
}

/// Checks every `--bin <name>` and `--example <name>` on one line,
/// returning `(1-based col of the name, message)` for each target with
/// no `crates/*/src/bin/<name>.rs` or `examples/<name>.rs` file.
fn check_targets(line: &str, inv: &Inventory) -> Vec<(u32, String)> {
    let is_name = |c: &char| *c == '_' || *c == '-' || c.is_ascii_alphanumeric();
    let mut out = Vec::new();
    for flag in ["--bin ", "--example "] {
        for (at, _) in line.match_indices(flag) {
            let start = at + flag.len();
            let name: String = line[start..].chars().take_while(is_name).collect();
            let found = inv.paths.iter().any(|p| match flag {
                "--bin " => p.starts_with("crates/") && p.ends_with(&format!("/src/bin/{name}.rs")),
                _ => *p == format!("examples/{name}.rs"),
            });
            if !name.is_empty() && !found {
                let message = format!("runs `{flag}{name}`, which has no source file");
                out.push((u32::try_from(start + 1).expect("col fits u32"), message));
            }
        }
    }
    out
}

/// Returns a drift message if the span is a checkable reference that
/// fails to resolve; `None` for prose spans and resolved references.
fn check_span(span: &str, root: &Path, inv: &Inventory) -> Option<String> {
    if span.is_empty() || span.chars().any(char::is_whitespace) {
        return None;
    }
    // `file.rs::item` — split the item off first.
    let (pathish, item) = match span.split_once("::") {
        Some((p, f)) if p.ends_with(".rs") && !f.is_empty() => (p, Some(f)),
        _ => (span, None),
    };
    // Brace/glob shorthand (`lut/{a,b}.rs`, `bin/exp_*.rs`): verify
    // the directory part before the expansion point only.
    if let Some(cut) = pathish.find(['{', '*']) {
        let dir_end = pathish[..cut].rfind('/')?;
        let prefix = &pathish[..dir_end];
        if prefix.contains('/') && resolve_dir_or_file(prefix, root, inv).is_none() {
            return Some(format!("references missing path `{prefix}`"));
        }
        return None;
    }
    if pathish.ends_with(".rs") {
        let Some(resolved) = resolve_source(pathish, inv) else {
            return Some(format!("references missing source file `{pathish}`"));
        };
        if let Some(item) = item {
            let found = inv
                .files
                .iter()
                .any(|(p, content)| p == resolved && contains_ident(content, item));
            if !found {
                return Some(format!("`{resolved}` does not define `{item}`"));
            }
        }
        return None;
    }
    if ["crates/", "src/", "tests/", "vendor/"]
        .iter()
        .any(|p| pathish.starts_with(p) || pathish.trim_end_matches('/') == p.trim_end_matches('/'))
    {
        if resolve_dir_or_file(pathish.trim_end_matches('/'), root, inv).is_none() {
            return Some(format!("references missing path `{pathish}`"));
        }
        return None;
    }
    // A bare snake_case identifier, or `Type`, `Type::item` or
    // `Type::item()`: every `::` segment must resolve.
    let segments: Vec<&str> = span
        .strip_suffix("()")
        .unwrap_or(span)
        .split("::")
        .collect();
    let is_ident = |s: &&str| {
        !s.is_empty()
            && !s.starts_with(|c: char| c.is_ascii_digit())
            && s.chars().all(|c| c == '_' || c.is_ascii_alphanumeric())
    };
    let snake = span.len() >= 4
        && span.contains('_')
        && span
            .chars()
            .all(|c| c == '_' || c.is_ascii_lowercase() || c.is_ascii_digit());
    let typed = span.starts_with(|c: char| c.is_ascii_uppercase()) && segments.iter().all(is_ident);
    if !snake && !typed {
        return None;
    }
    let missing = segments
        .into_iter()
        .find(|s| !contains_ident(&inv.haystack, s))?;
    Some(format!(
        "names `{missing}`, which appears nowhere in the workspace sources"
    ))
}

/// Whether `needle` occurs in `hay` with no identifier character
/// (alphanumeric or `_`) directly before or after it.
fn contains_ident(hay: &str, needle: &str) -> bool {
    let is_ident = |c: char| c == '_' || c.is_alphanumeric();
    hay.match_indices(needle).any(|(at, _)| {
        !hay[..at].chars().next_back().is_some_and(is_ident)
            && !hay[at + needle.len()..]
                .chars()
                .next()
                .is_some_and(is_ident)
    })
}

/// Resolves a `.rs` reference against the inventory: exact relative
/// path, or a `/`-suffix match (so `engine.rs` and
/// `core/src/engine.rs` both resolve).
fn resolve_source<'i>(pathish: &str, inv: &'i Inventory) -> Option<&'i str> {
    let suffix = format!("/{pathish}");
    inv.paths
        .iter()
        .find(|p| p.as_str() == pathish || p.ends_with(&suffix))
        .map(String::as_str)
}

/// Resolves a directory-or-file reference: on disk relative to the
/// repo root (also under `crates/`), or as an inventory suffix.
fn resolve_dir_or_file(pathish: &str, root: &Path, inv: &Inventory) -> Option<()> {
    if root.join(pathish).exists() || root.join("crates").join(pathish).exists() {
        return Some(());
    }
    resolve_source(pathish, inv).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inv() -> Inventory {
        let engine = "pub fn run_inference() {}\npub fn batch_routing_steps() {}\n\
                      pub struct BatchRun;\n"
            .to_string();
        let paths = vec![
            "crates/bench/src/bin/exp_paper.rs".to_string(),
            "crates/core/src/engine.rs".to_string(),
            "crates/fixed/src/lut/exp.rs".to_string(),
            "examples/quickstart.rs".to_string(),
        ];
        let mut haystack = String::new();
        for p in &paths {
            haystack.push_str(p);
            haystack.push('\n');
        }
        haystack.push_str(&engine);
        Inventory {
            files: vec![("crates/core/src/engine.rs".to_string(), engine)],
            paths,
            haystack,
        }
    }

    fn drift(text: &str) -> Vec<(u32, u32, String)> {
        lint_markdown("DOC.md", text, Path::new("/nonexistent"), &inv())
            .into_iter()
            .filter(|d| d.waived.is_none())
            .map(|d| (d.line, d.col, d.message))
            .collect()
    }

    #[test]
    fn missing_file_is_drift() {
        assert_eq!(drift("See `engine.rs` for the loop.\n"), []);
        let out = drift("See `missing_file.rs` for the loop.\n");
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].0, out[0].1), (1, 6));
        assert!(out[0].2.contains("missing_file.rs"));
    }

    #[test]
    fn item_references_must_resolve() {
        assert_eq!(drift("Call `engine.rs::run_inference` first.\n"), []);
        let out = drift("Call `engine.rs::gone_fn` first.\n");
        assert_eq!(out.len(), 1);
        assert!(out[0].2.contains("gone_fn"));
    }

    #[test]
    fn glob_and_brace_shorthands_check_the_directory() {
        assert_eq!(drift("Tables live in `lut/{exp,sqrt}.rs`.\n"), []);
        let out = drift("Tables live in `nowhere/sub/{a,b}.rs`.\n");
        assert_eq!(out.len(), 1);
        assert!(out[0].2.contains("nowhere/sub"));
    }

    #[test]
    fn bare_identifiers_must_appear_in_sources() {
        assert_eq!(drift("The `run_inference` entry point.\n"), []);
        let out = drift("The `vanished_helper` entry point.\n");
        assert_eq!(out.len(), 1);
        // Prose spans (whitespace) and short/non-snake spans are skipped.
        assert_eq!(drift("Run `cargo test -p capsacc-core` and `a_b`.\n"), []);
    }

    #[test]
    fn references_match_whole_identifiers_only() {
        // The sources define `batch_routing_steps` only, so its tail
        // names nothing, bare or as an item.
        assert_eq!(drift("See `batch_routing_steps`.\n"), []);
        let out = drift("See `routing_steps`.\n");
        assert_eq!(out.len(), 1);
        assert!(out[0].2.contains("routing_steps"));
        assert_eq!(drift("See `engine.rs::batch_routing_steps`.\n"), []);
        let out = drift("See `engine.rs::routing_steps`.\n");
        assert_eq!(out.len(), 1);
        assert!(out[0].2.contains("does not define `routing_steps`"));
    }

    #[test]
    fn type_references_must_resolve_every_segment() {
        let text = "See `BatchRun`, `BatchRun::run_inference` and `BatchRun::run_inference()`.\n";
        assert_eq!(drift(text), []);
        let out = drift("See `CycleKind` and `BatchRun::suppress()`.\n");
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out[0].2.contains("names `CycleKind`"), "{out:?}");
        assert!(out[1].2.contains("names `suppress`"), "{out:?}");
        // Whole segments only: the tail of a type names nothing.
        assert_eq!(drift("See `Run`.\n").len(), 1);
        // Brace lists, generics and lowercase paths stay unchecked.
        assert_eq!(
            drift("See `Gone::{a,b}`, `Vec<Gone>` and `gone::Item`.\n"),
            []
        );
    }

    #[test]
    fn command_lines_must_name_real_targets() {
        let text = "```sh\ncargo run -p capsacc-bench --bin exp_paper\n\
                    cargo run -p capsacc-bench --bin exp_fig16   # Fig. 16\n```\n";
        let out = drift(text);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!((out[0].0, out[0].1), (3, 34));
        assert!(out[0].2.contains("`--bin exp_fig16`"), "{out:?}");
        // Examples resolve under `examples/` only, and bins never do.
        assert_eq!(drift("Run `cargo run --example quickstart`.\n"), []);
        assert_eq!(drift("cargo run --example exp_paper\n").len(), 1);
        assert_eq!(drift("cargo run --bin quickstart\n").len(), 1);
    }

    #[test]
    fn html_comment_waivers_cover_the_next_nonblank_line() {
        let text = "<!-- lint:allow(doc-drift, removed on purpose) -->\n\nSee `missing_file.rs`.\n";
        assert_eq!(drift(text), []);
        // And hygiene still applies: an unused waiver is a finding.
        let text = "<!-- lint:allow(doc-drift, nothing here) -->\n\nAll fine.\n";
        let out = drift(text);
        assert_eq!(out.len(), 1);
        assert!(out[0].2.contains("unused"));
    }
}
