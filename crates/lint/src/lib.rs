#![forbid(unsafe_code)]
//! # ferex-lint — workspace determinism & panic-safety analyzer
//!
//! A self-contained static analyzer that enforces the
//! reproduction's serving-layer invariants at commit time:
//!
//! - **determinism** — no wall clocks (`Instant`/`SystemTime`), no
//!   ambient RNG (`thread_rng`), no unordered `HashMap`/`HashSet`
//!   iteration in the serving crates (`core`, `conformance`, `fefet`,
//!   `analog`). Every latency, sample and ordering must derive from
//!   seeds or the virtual tick clock so conformance reports stay
//!   byte-reproducible.
//! - **panic-safety** — no `unwrap`/`expect`/`panic!`-family macros or
//!   unchecked indexing on non-test serving code; degraded states must
//!   surface as typed `FerexError`s, never aborts.
//! - **error-hygiene** — public `Result` fns in `ferex-core` return
//!   `FerexError`, not `String`/`Box<dyn Error>`/ad-hoc tuples.
//!
//! Existing debt is grandfathered in a ratcheted `lint-baseline.toml`
//! ([`baseline`]): new violations fail, paid-off violations must
//! tighten the baseline (`--update-baseline`), so counts only go
//! down. Justified exceptions are annotated in-line:
//!
//! ```text
//! // lint:allow(panic-safety/expect, reason = "validated two lines up")
//! ```
//!
//! The architecture is a hand-rolled [`lexer`] (strings and comments
//! can never false-positive), token-stream [`rules`], and a tiny
//! hand-written TOML subset for the [`baseline`]. Its only dependency
//! is the in-workspace `ferex-json` report writer, so the analyzer
//! builds in the same offline environment as the rest of the workspace.

pub mod baseline;
pub mod callgraph;
pub mod config;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod scan;
pub mod taint;

pub use baseline::{compare, counts_of, fingerprints_of, Baseline, Comparison, Counts, Drift};
pub use config::LintConfig;
pub use rules::{Diagnostic, Scope};
pub use scan::{run_scan, ScanReport};

use ferex_json::{fields, Object, Value};
use std::path::Path;

/// Scans `root` and holds it against the baseline text (empty string →
/// empty baseline). Returns the report plus the comparison.
///
/// # Errors
///
/// Rendered scan I/O or baseline-parse errors.
pub fn check(
    root: &Path,
    config: &LintConfig,
    baseline_text: &str,
) -> Result<(ScanReport, Comparison), String> {
    let report = run_scan(root, config)?;
    let base = baseline::parse(baseline_text)?;
    let cmp =
        compare(&counts_of(&report.diagnostics), &fingerprints_of(&report.diagnostics), &base);
    Ok((report, cmp))
}

/// Renders the scan as versioned machine-readable JSON (the CI
/// artifact), through the same `ferex-json` writer as every other report.
/// Bump the schema id on any shape change. `dead_pub` lists public
/// library fns that only test code calls ([`callgraph::dead_pub`]); it is
/// report-only and never gates.
pub fn json_report(report: &ScanReport, cmp: &Comparison) -> String {
    let diagnostics = report.diagnostics.iter().map(|d| {
        let mut o = fields!(Object::inline(); d => file, line, rule, message);
        if let Some(q) = &d.qualified_fn {
            o = o.field("fn", q);
        }
        if !d.chain.is_empty() {
            o = o.field("chain", &d.chain);
        }
        if let Some(fp) = taint::fingerprint(d) {
            o = o.field("fingerprint", fp);
        }
        o
    });
    let dead_pub = report.dead_pub.iter().map(|d| {
        Object::inline().field("fn", &d.qualified).field("file", &d.file).field("line", d.line)
    });
    Object::pretty()
        .field("schema", "ferex-lint-v3")
        .field("files_scanned", report.files_scanned)
        .field("new_violations", cmp.new_violations.len())
        .field("stale_baseline_entries", cmp.stale.len())
        .field("new_taint_findings", cmp.new_taint.len())
        .field("stale_taint_fingerprints", cmp.stale_taint.len())
        .field("diagnostics", Value::lines(diagnostics))
        .field("dead_pub", Value::lines(dead_pub))
        .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_bytes_are_pinned() {
        let taint = Diagnostic {
            file: "crates/core/src/serve.rs".to_string(),
            line: 12,
            rule: "taint/panic",
            message: "reaches `unwrap` via \"helper\"".to_string(),
            qualified_fn: Some("core::serve::poll".to_string()),
            chain: vec!["core::serve::poll".to_string(), "core::serve::helper".to_string()],
        };
        let plain = Diagnostic {
            file: "crates/core/src/array.rs".to_string(),
            line: 7,
            rule: "panic-safety/index",
            message: "unchecked index".to_string(),
            qualified_fn: None,
            chain: Vec::new(),
        };
        let dead = callgraph::DeadPub {
            file: "crates/core/src/engine.rs".to_string(),
            line: 40,
            qualified: "core::engine::Ferex::sizing_report".to_string(),
        };
        let report =
            ScanReport { diagnostics: vec![taint, plain], files_scanned: 3, dead_pub: vec![dead] };
        let cmp = Comparison {
            new_violations: Vec::new(),
            stale: Vec::new(),
            new_taint: vec!["fp".to_string()],
            stale_taint: Vec::new(),
        };
        let want = r#"{
  "schema": "ferex-lint-v3",
  "files_scanned": 3,
  "new_violations": 0,
  "stale_baseline_entries": 0,
  "new_taint_findings": 1,
  "stale_taint_fingerprints": 0,
  "diagnostics": [
    {"file": "crates/core/src/serve.rs", "line": 12, "rule": "taint/panic", "message": "reaches `unwrap` via \"helper\"", "fn": "core::serve::poll", "chain": ["core::serve::poll", "core::serve::helper"], "fingerprint": "taint/panic|core::serve::poll|core::serve::poll->core::serve::helper"},
    {"file": "crates/core/src/array.rs", "line": 7, "rule": "panic-safety/index", "message": "unchecked index"}
  ],
  "dead_pub": [
    {"fn": "core::engine::Ferex::sizing_report", "file": "crates/core/src/engine.rs", "line": 40}
  ]
}
"#;
        assert_eq!(json_report(&report, &cmp), want);
    }
}
