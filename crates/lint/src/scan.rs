//! Workspace walking and scan orchestration.
//!
//! Discovers every non-test Rust source in the workspace
//! (`crates/*/src/**/*.rs` plus the facade's `src/`), applies the
//! config's per-crate scope, and returns a deterministic, sorted
//! report. `tests/`, `benches/`, `examples/`, `target/` and `vendor/`
//! are never walked — rules apply to serving code only.
//!
//! Two passes share one file walk: the per-file token rules
//! ([`crate::rules`]), then the workspace call-graph taint pass
//! ([`crate::parse`] → [`crate::callgraph`] → [`crate::taint`]), which
//! needs *every* crate parsed — a serving-crate public fn can reach a
//! sink in a non-serving helper crate. The same graph yields the
//! report-only [`crate::callgraph::dead_pub`] list; for it, the examples
//! and the out-of-workspace `perfbench/` benchmark are parsed as callers
//! too (graph only: no rules, not counted as scanned).

use crate::callgraph::{self, DeadPub, FileFns};
use crate::config::{self, LintConfig};
use crate::lexer::{lex, Tok};
use crate::parse::parse_items;
use crate::rules::{analyze_file, Diagnostic};
use crate::taint;
use std::fs;
use std::path::{Path, PathBuf};

/// Everything one scan produced.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// All diagnostics, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Files lexed and analyzed.
    pub files_scanned: usize,
    /// Public library fns only test code calls; report-only, never gates.
    pub dead_pub: Vec<DeadPub>,
}

/// Scans the workspace rooted at `root` under `config`'s scoping.
///
/// # Errors
///
/// A rendered I/O error naming the path that failed; an unreadable
/// source file fails the scan rather than passing silently.
pub fn run_scan(root: &Path, config: &LintConfig) -> Result<ScanReport, String> {
    let mut files = discover_files(root)?;
    files.sort();
    let mut report = ScanReport::default();
    let mut parsed: Vec<FileFns> = Vec::new();
    let mut facts: Vec<taint::FileFacts> = Vec::new();
    let callers = discover_callers(root)?;
    let n_scanned = files.len();
    for (i, rel) in files.into_iter().chain(callers).enumerate() {
        let rel_str = rel
            .to_str()
            .ok_or_else(|| format!("non-UTF-8 path under {}", root.display()))?
            .replace('\\', "/");
        let src = fs::read_to_string(root.join(&rel))
            .map_err(|e| format!("read {}: {e}", rel.display()))?;
        if i < n_scanned {
            report.files_scanned += 1;
            report.diagnostics.extend(analyze_file(&rel_str, &src, config.scope_for(&rel_str)));
        }
        // Graph-pass inputs: parse items + call sites + facts while the
        // token stream is alive; everything kept is owned.
        let toks = lex(&src);
        let code: Vec<&Tok> = toks.iter().filter(|t| t.is_code()).collect();
        let fns = parse_items(&code, &config::module_prefix(&rel_str));
        let calls = callgraph::extract_calls(&code, &fns);
        facts.push(taint::extract_facts(&toks, &fns));
        let krate = config::crate_of(&rel_str).unwrap_or(".").to_string();
        parsed.push(FileFns { file: rel_str, krate, fns, calls });
    }
    let graph = callgraph::build(parsed);
    report.diagnostics.extend(taint::analyze(&graph, &facts, &config.serving_crates));
    report.dead_pub = callgraph::dead_pub(&graph);
    report.diagnostics.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Workspace-relative paths of every scannable source file.
fn discover_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in read_dir_sorted(&crates_dir)? {
            let src = entry.join("src");
            if src.is_dir() {
                collect_rs(&src, root, &mut out)?;
            }
        }
    }
    let facade_src = root.join("src");
    if facade_src.is_dir() {
        collect_rs(&facade_src, root, &mut out)?;
    }
    Ok(out)
}

/// Workspace-relative paths of caller-only sources (`examples/**`,
/// `crates/*/examples/**`, `perfbench/src/**`): they feed the call graph
/// as callers of library fns, and nothing else.
fn discover_callers(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut dirs = vec![root.join("examples"), root.join("perfbench/src")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        dirs.extend(read_dir_sorted(&crates_dir)?.into_iter().map(|c| c.join("examples")));
    }
    let mut out = Vec::new();
    for dir in dirs.iter().filter(|d| d.is_dir()) {
        collect_rs(dir, root, &mut out)?;
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    for entry in read_dir_sorted(dir)? {
        if entry.is_dir() {
            collect_rs(&entry, root, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            let rel =
                entry.strip_prefix(root).map_err(|e| format!("strip {}: {e}", entry.display()))?;
            out.push(rel.to_path_buf());
        }
    }
    Ok(())
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut entries = Vec::new();
    let iter = fs::read_dir(dir).map_err(|e| format!("read dir {}: {e}", dir.display()))?;
    for entry in iter {
        entries.push(entry.map_err(|e| format!("read dir {}: {e}", dir.display()))?.path());
    }
    entries.sort();
    Ok(entries)
}
