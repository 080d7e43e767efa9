//! Online-mutation conformance: the acceptance gates of the mutability
//! subsystem.
//!
//! * **Rebuild equivalence** — every checkpoint of every standard cell
//!   byte-matches a from-scratch rebuild of the same logical contents,
//!   on the Ideal backend and on both corner device models.
//! * **Serving through churn** — recall@1 against the exact digital
//!   mirror stays perfect while mutations land through the quorum path.
//! * **Endurance** — the wear-leveled churn keeps max-row-cycles within
//!   2x the mean while the unleveled leg exceeds 5x.
//! * **Bit-reproducibility** — regenerating the `ferex-mutation-v1`
//!   report from the same seed yields a byte-identical JSON document.
//!
//! CI runs this suite with `FEREX_CONFORMANCE_SEED` pinned; the matching
//! machine-readable report is produced by the `robustness` binary.

use ferex_conformance::{standard_mutation_report, MutationReport};

fn conformance_seed() -> u64 {
    ferex_conformance::seed_from_env("FEREX_CONFORMANCE_SEED").unwrap_or_else(|e| panic!("{e}"))
}

#[test]
fn standard_report_passes_all_three_gates() {
    let report = standard_mutation_report(conformance_seed());
    assert!(report.rebuild_equivalence_holds(), "a checkpoint diverged from its rebuild");
    assert!(report.meets_recall_floor(1000), "churn cost recall@1");
    assert!(
        report.wear_gates_hold(),
        "wear gates failed: leveled {} per-mille, unleveled {} per-mille",
        report.churn.leveled.imbalance_milli,
        report.churn.unleveled.imbalance_milli
    );
    assert!(report.passes());
}

#[test]
fn every_cell_mutated_and_served() {
    let report = standard_mutation_report(conformance_seed());
    assert_eq!(report.scenarios.len(), 5, "three metrics plus two device corners");
    for s in &report.scenarios {
        assert!(s.inserts > 0 && s.updates > 0 && s.deletes > 0, "{}: one-sided schedule", s.name);
        assert!(s.searches > 0, "{}: no searches served", s.name);
        assert!(s.wear.total_writes > 0, "{}: wear accounting missed the writes", s.name);
        assert!(s.live_rows <= s.capacity, "{}: live rows exceed capacity", s.name);
    }
}

#[test]
fn report_is_byte_reproducible_and_tagged() {
    let seed = conformance_seed();
    let a = standard_mutation_report(seed).to_json();
    let b = standard_mutation_report(seed).to_json();
    assert_eq!(a, b, "same seed must give a byte-identical report");
    assert!(a.contains(&format!("\"schema\": \"{}\"", MutationReport::SCHEMA)));
    assert!(a.contains("\"leveled\""));
    assert!(a.contains("\"unleveled\""));
}
