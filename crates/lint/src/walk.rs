//! Deterministic workspace walk and per-file rule scoping.
//!
//! Lint targets are every `.rs` file under `crates/*/src/` plus the
//! facade `src/lib.rs`. Integration tests (`tests/`), benches and
//! `vendor/` stand-ins are excluded from the rules but still feed the
//! doc-drift [`Inventory`], so ARCHITECTURE.md may point at test
//! files and functions. Directory entries are visited in sorted
//! order, so diagnostics and the JSON report are byte-stable.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::docs::{lint_markdown, Inventory};
use crate::report::Report;
use crate::rules::{lint_rust_source, FileScope};

/// Markdown files audited by the doc-drift rule.
const AUDITED_DOCS: [&str; 2] = ["README.md", "ARCHITECTURE.md"];

/// Decides which rules apply to a repo-relative source path.
pub fn scope_for(rel: &str) -> FileScope {
    let crate_name = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next());
    FileScope {
        // bench is the host-measurement harness: wall-clock timing is
        // its purpose, so the determinism rule stops at its boundary.
        determinism: crate_name != Some("bench"),
        cast_audit: true,
        safety: true,
        // Seed-hiding FaultPlan construction is forbidden everywhere:
        // an implicit default seed would break rerun reproducibility
        // exactly where it matters most.
        fault_seed: true,
        crate_root: rel == "src/lib.rs"
            || (rel.starts_with("crates/")
                && rel.ends_with("/src/lib.rs")
                && rel.matches('/').count() == 3),
    }
}

/// Lints the whole workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut targets = Vec::new();
    for dir in sorted_subdirs(&root.join("crates"))? {
        walk_rs(&dir.join("src"), &mut targets)?;
    }
    walk_rs(&root.join("src"), &mut targets)?;

    // The doc-drift inventory additionally covers integration tests
    // and benches, so docs may reference them.
    let mut inv_paths = targets.clone();
    for dir in sorted_subdirs(&root.join("crates"))? {
        walk_rs(&dir.join("tests"), &mut inv_paths)?;
        walk_rs(&dir.join("benches"), &mut inv_paths)?;
    }
    walk_rs(&root.join("tests"), &mut inv_paths)?;
    walk_rs(&root.join("examples"), &mut inv_paths)?;

    let mut inv = Inventory {
        paths: Vec::new(),
        haystack: String::new(),
        files: Vec::new(),
    };
    for abs in &inv_paths {
        let rel = rel_path(root, abs);
        let content = fs::read_to_string(abs)?;
        // The linter's own docs and test fixtures spell out drifted
        // names on purpose, so its sources resolve path and
        // `file.rs::item` references but vouch for no bare identifier.
        if !rel.starts_with("crates/lint/") {
            inv.haystack.push_str(&content);
            inv.haystack.push('\n');
        }
        inv.haystack.push_str(&rel);
        inv.haystack.push('\n');
        inv.files.push((rel.clone(), content));
        inv.paths.push(rel);
    }

    let mut report = Report::default();
    for abs in &targets {
        let rel = rel_path(root, abs);
        let src = fs::read_to_string(abs)?;
        report
            .diagnostics
            .extend(lint_rust_source(&rel, &src, scope_for(&rel)));
        report.files_scanned += 1;
    }
    for md in AUDITED_DOCS {
        let path = root.join(md);
        if path.is_file() {
            let text = fs::read_to_string(&path)?;
            report
                .diagnostics
                .extend(lint_markdown(md, &text, root, &inv));
            report.files_scanned += 1;
        }
    }
    report.sort();
    Ok(report)
}

/// Repo-relative `/`-separated path.
fn rel_path(root: &Path, abs: &Path) -> String {
    let rel = abs.strip_prefix(root).unwrap_or(abs);
    let parts: Vec<&str> = rel
        .components()
        .filter_map(|c| c.as_os_str().to_str())
        .collect();
    parts.join("/")
}

/// Immediate subdirectories of `dir`, sorted by name.
fn sorted_subdirs(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    if !dir.is_dir() {
        return Ok(out);
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

/// Recursively collects `.rs` files under `dir`, sorted by name.
fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries = Vec::new();
    for entry in fs::read_dir(dir)? {
        entries.push(entry?.path());
    }
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A name that only the linter's sources spell out is drift, while
    /// paths and `file.rs::item` references into the linter resolve.
    #[test]
    fn linter_sources_vouch_for_no_bare_identifier() {
        let root = std::env::temp_dir().join(format!("capsacc-lint-walk-{}", std::process::id()));
        let write = |rel: &str, text: &str| {
            let path = root.join(rel);
            fs::create_dir_all(path.parent().expect("file has a parent")).expect("mkdir");
            fs::write(path, text).expect("write fixture");
        };
        write(
            "crates/lint/src/docs.rs",
            "//! `fixture_only_name` is drift.\nfn lint_only_item() {}\n",
        );
        write("crates/core/src/lib.rs", "fn engine_item() {}\n");
        write(
            "README.md",
            "`engine_item` `docs.rs::lint_only_item` `crates/lint/src/docs.rs`\n\
             `fixture_only_name` `lint_only_item`\n",
        );
        let report = lint_workspace(&root).expect("walk the fixture workspace");
        fs::remove_dir_all(&root).expect("remove the fixture workspace");
        let drift: Vec<(u32, &str)> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == "doc-drift")
            .map(|d| (d.line, d.message.as_str()))
            .collect();
        assert_eq!(drift.len(), 2, "{drift:?}");
        assert!(drift.iter().all(|&(line, _)| line == 2), "{drift:?}");
        assert!(drift[0].1.contains("`fixture_only_name`"), "{drift:?}");
        assert!(drift[1].1.contains("`lint_only_item`"), "{drift:?}");
    }
}
