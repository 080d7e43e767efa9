//! End-to-end ratchet behavior, driving the real `ferex-lint` binary:
//! new violations fail `--check`, `--update-baseline` grandfathers
//! them, paying debt off makes the baseline stale until the ratchet is
//! tightened, and the tightened baseline is strictly smaller.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BAD: &str = "pub fn serve(data: &[u32]) -> u32 {\n\
                   let first = data[0];\n\
                   let second = maybe().unwrap();\n\
                   first + second\n\
                   }\n";

const WORSE: &str = "pub fn serve(data: &[u32]) -> u32 {\n\
                     let first = data[0];\n\
                     let second = maybe().unwrap();\n\
                     let third = maybe().expect(\"new debt\");\n\
                     first + second + third\n\
                     }\n";

const CLEAN: &str = "pub fn serve(data: &[u32]) -> Option<u32> {\n\
                     data.first().copied()\n\
                     }\n";

fn temp_ws(name: &str) -> PathBuf {
    let ws = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    if ws.exists() {
        fs::remove_dir_all(&ws).expect("reset temp workspace");
    }
    fs::create_dir_all(ws.join("crates/core/src")).expect("mkdir fixture ws");
    ws
}

fn lint(ws: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ferex-lint"))
        .arg("--root")
        .arg(ws)
        .args(args)
        .output()
        .expect("spawn ferex-lint")
}

fn write_core(ws: &Path, src: &str) {
    fs::write(ws.join("crates/core/src/lib.rs"), src).expect("write fixture source");
}

#[test]
fn ratchet_add_fails_remove_shrinks() {
    let ws = temp_ws("ratchet");
    write_core(&ws, BAD);

    // 1. No baseline yet: the two violations are new -> fail.
    let out = lint(&ws, &["--check"]);
    assert_eq!(out.status.code(), Some(1), "violations without a baseline must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("panic-safety/index") && err.contains("panic-safety/unwrap"), "{err}");

    // 2. Grandfather the debt; check now passes at exactly these counts.
    let out = lint(&ws, &["--update-baseline"]);
    assert_eq!(out.status.code(), Some(0));
    let baseline_path = ws.join("lint-baseline.toml");
    let grandfathered = fs::read_to_string(&baseline_path).expect("baseline written");
    assert!(grandfathered.contains("\"panic-safety/unwrap\" = 1"), "{grandfathered}");
    assert!(grandfathered.contains("\"panic-safety/index\" = 1"), "{grandfathered}");
    let out = lint(&ws, &["--check"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));

    // 3. Add one violation: only the new rule fails, old debt stays
    //    grandfathered.
    write_core(&ws, WORSE);
    let out = lint(&ws, &["--check"]);
    assert_eq!(out.status.code(), Some(1), "new violation must fail against the baseline");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("panic-safety/expect"), "{err}");
    assert!(!err.contains("NEW crates/core/src/lib.rs: 1 violation(s) of panic-safety/unwrap"));

    // 4. Pay all debt off: the baseline is now stale -> still a failure,
    //    so paid-off debt cannot silently creep back.
    write_core(&ws, CLEAN);
    let out = lint(&ws, &["--check"]);
    assert_eq!(out.status.code(), Some(1), "stale baseline entries must fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("STALE"));

    // 5. Tighten the ratchet: baseline shrinks to nothing and check is
    //    green again.
    let out = lint(&ws, &["--update-baseline"]);
    assert_eq!(out.status.code(), Some(0));
    let tightened = fs::read_to_string(&baseline_path).expect("baseline rewritten");
    assert!(
        !tightened.contains("panic-safety"),
        "tightened baseline still grandfathers paid-off debt:\n{tightened}"
    );
    assert!(tightened.len() < grandfathered.len());
    let out = lint(&ws, &["--check"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn check_writes_versioned_json_report() {
    let ws = temp_ws("report");
    write_core(&ws, BAD);
    let report_path = ws.join("lint-report.json");
    let out = lint(&ws, &["--check", "--report", report_path.to_str().expect("utf-8 tmpdir")]);
    assert_eq!(out.status.code(), Some(1), "report is written even when the check fails");
    let json = fs::read_to_string(&report_path).expect("report written");
    assert!(json.contains("\"schema\": \"ferex-lint-v3\""), "{json}");
    assert!(json.contains("\"rule\": \"panic-safety/unwrap\""), "{json}");
    assert!(json.contains("\"new_violations\": 2"), "{json}");
    assert!(json.contains("\"new_taint_findings\""), "{json}");
    assert!(json.contains("\"stale_taint_fingerprints\""), "{json}");
}

#[test]
fn allow_annotation_keeps_check_green_without_baseline() {
    let ws = temp_ws("allowed");
    write_core(
        &ws,
        "pub fn serve(data: &[u32]) -> u32 {\n\
         // lint:allow(panic-safety/index, reason = \"caller guarantees non-empty\")\n\
         data[0]\n\
         }\n",
    );
    let out = lint(&ws, &["--check"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
}
