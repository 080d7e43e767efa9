//! End-to-end checks of the v2 (latency-heterogeneity) load report:
//! byte-reproducibility from a seed, counter balance, and the
//! tail-latency SLO gate — with one replica at 8x slowdown, hedging plus
//! brownout demotion must keep p999 within 2x the all-healthy p999 while
//! the unhedged leg of the same cell blows past 5x it.

use ferex_conformance::{standard_load_v2_report, standard_load_v2_specs, LoadV2Report};

const SEEDS: [u64; 2] = [42, 1337];

#[test]
fn v2_report_is_byte_reproducible() {
    for seed in SEEDS {
        let a = standard_load_v2_report(seed).to_json();
        let b = standard_load_v2_report(seed).to_json();
        assert_eq!(a, b, "seed {seed}: v2 report must be byte-identical across runs");
    }
    assert_ne!(
        standard_load_v2_report(42).to_json(),
        standard_load_v2_report(1337).to_json(),
        "different seeds must produce different reports"
    );
}

#[test]
fn v2_counters_balance_and_recall_is_exact() {
    for seed in SEEDS {
        let report = standard_load_v2_report(seed);
        assert_eq!(report.scenarios.len(), standard_load_v2_specs(seed).len());
        for s in &report.scenarios {
            let (h, name) = (&s.hedged, &s.hedged.name);
            assert!(h.counters_balance(), "seed {seed} {name}: counters unbalanced");
            assert!(h.served > 0, "seed {seed} {name}: nothing served");
            assert_eq!(
                h.recall_at_1, 1.0,
                "seed {seed} {name}: hedged answers must match the oracle"
            );
            // The unhedged leg resubmits the same stream.
            assert_eq!(h.submitted, 240, "seed {seed} {name}: stream length");
            assert_eq!(s.unhedged.submitted, h.submitted, "seed {seed} {name}: unhedged stream");
            assert!(s.unhedged.counters_balance(), "seed {seed} {name}: unhedged unbalanced");
            // Per-replica hedge attribution sums to the scenario counters.
            let against: u64 = s.per_replica.iter().map(|r| r.hedged_against).sum();
            let wins: u64 = s.per_replica.iter().map(|r| r.hedge_wins).sum();
            assert_eq!(against, s.hedges_issued, "seed {seed} {name}: hedge attribution");
            assert_eq!(wins, s.hedge_wins, "seed {seed} {name}: win attribution");
        }
    }
}

/// The headline SLO gate of this scenario family, evaluated per seed from
/// the byte-reproducible report: hedging + brownout demotion recover the
/// tail under one 8x-slow replica, and the unhedged leg demonstrates the
/// meltdown being recovered from.
#[test]
fn v2_slo_gate_one_slow_8x() {
    for seed in SEEDS {
        let report = standard_load_v2_report(seed);
        let healthy = &report.scenario("v2-all-healthy").expect("all-healthy cell").hedged;
        let slow = report.scenario("v2-one-slow-8x").expect("8x cell");
        assert!(
            slow.hedged.p999 <= 2 * healthy.p999,
            "seed {seed}: hedged p999 {} exceeds 2x all-healthy p999 {}",
            slow.hedged.p999,
            healthy.p999
        );
        assert!(
            slow.unhedged.p999 >= 5 * healthy.p999,
            "seed {seed}: unhedged p999 {} under 5x all-healthy p999 {} — slowdown too mild \
             for the gate to mean anything",
            slow.unhedged.p999,
            healthy.p999
        );
        // The recovery is attributable: the slow replica was demoted and
        // hedge duplicates won against it.
        assert!(slow.brownout_demotions >= 1, "seed {seed}: no brownout demotion");
        assert!(slow.hedge_wins >= 1, "seed {seed}: no hedge win");
        let r1 = &slow.per_replica[1];
        assert_eq!(r1.model, "slow@8000");
        assert!(r1.demerit_milli > 0, "seed {seed}: slow replica carries no demerit");
        assert!(
            r1.reads < slow.per_replica[0].reads,
            "seed {seed}: slow replica was not routed around"
        );
    }
}

#[test]
fn v2_unhedged_tail_grows_with_slowdown_severity() {
    for seed in SEEDS {
        let report = standard_load_v2_report(seed);
        let p999 = |name: &str| report.scenario(name).expect(name).unhedged.p999;
        assert!(
            p999("v2-one-slow-2x") < p999("v2-one-slow-4x")
                && p999("v2-one-slow-4x") < p999("v2-one-slow-8x"),
            "seed {seed}: unhedged p999 must grow with the slowdown factor"
        );
    }
}

#[test]
fn v2_all_healthy_legs_agree() {
    // With no slow replica the hedged and unhedged legs serve the same
    // schedule: hedges may fire on jitter but never win enough to move the
    // pinned seeds' distributions.
    for seed in SEEDS {
        let report = standard_load_v2_report(seed);
        let h = report.scenario("v2-all-healthy").expect("all-healthy cell");
        assert_eq!(h.brownout_demotions, 0, "seed {seed}: healthy replica demoted");
        let (a, b) = (&h.hedged, &h.unhedged);
        assert_eq!((a.p50, a.p99, a.p999), (b.p50, b.p99, b.p999));
        assert_eq!(a.served, b.served);
    }
}

#[test]
fn v2_json_has_schema_and_all_cells() {
    let json = standard_load_v2_report(42).to_json();
    assert!(json.contains(&format!("\"schema\": \"{}\"", LoadV2Report::SCHEMA)));
    for name in
        ["v2-all-healthy", "v2-one-slow-2x", "v2-one-slow-4x", "v2-one-slow-8x", "v2-degrading"]
    {
        assert!(json.contains(&format!("\"name\": \"{name}\"")), "missing cell {name}");
    }
    assert!(json.contains("\"slow\": \"r1@8000\""));
    assert!(json.contains("\"degrade\": \"r1@1500\""));
    assert!(json.contains("\"hedge\": \"q=950,b=500\""));
    assert!(json.contains("\"model\": \"degrading@1500\""));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
}
