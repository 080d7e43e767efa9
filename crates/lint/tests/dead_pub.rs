//! The report-only `dead_pub` list over the fixture workspace in
//! `tests/fixtures/dead_pub_ws`: exactly the public library fns whose
//! only callers are `#[cfg(test)]` code, `tests/` files, doc examples or
//! themselves are listed; callers in bins, other crates, `examples/` and
//! `perfbench/` keep a fn off the list.

use ferex_lint::{run_scan, LintConfig};
use std::path::PathBuf;

#[test]
fn dead_pub_lists_exactly_the_test_only_public_fns() {
    let ws = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/dead_pub_ws");
    let report = run_scan(&ws, &LintConfig::default()).expect("dead-pub fixture scan");
    let dead: Vec<(&str, u32)> =
        report.dead_pub.iter().map(|d| (d.qualified.as_str(), d.line)).collect();
    assert_eq!(
        dead,
        vec![
            ("core::only_unit_tests", 7),
            ("core::only_integration_tests", 8),
            ("core::only_doc_example", 15),
            ("core::only_itself", 17),
            ("core::Store::reset", 32),
        ]
    );
    assert!(report.dead_pub.iter().all(|d| d.file == "crates/core/src/lib.rs"));
    // Caller-only sources feed the graph but are not scanned.
    assert_eq!(report.files_scanned, 3, "core lib + core bin + app lib");
}
