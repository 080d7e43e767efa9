//! The golden-model differential conformance suite.
//!
//! Sweeps {metric × bits × backend × batch-vs-sequential × fault plan} and
//! asserts the three-part contract:
//!
//! * **(a)** the Ideal backend is bit-exact against the digital oracle;
//! * **(b)** the statistical and device-level backends agree within stated
//!   tolerances on identical fault maps;
//! * **(c)** recall degrades monotonically (within sampling slack) as fault
//!   rates rise, reproducibly from a fixed seed.
//!
//! CI runs this suite with `FEREX_CONFORMANCE_SEED` pinned; the matching
//! machine-readable report is produced by the `robustness` binary.

use ferex_analog::lta::LtaParams;
use ferex_conformance::harness::{encoding_for, gen_unambiguous_queries, gen_vectors};
use ferex_conformance::{run_sweep, standard_report, BackendKind, FaultKind, Oracle, SweepSpec};
use ferex_core::{Backend, CircuitConfig, DistanceMetric, FerexArray, FerexError, SearchOutcome};
use ferex_fefet::{FaultPlan, Technology, VariationModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn conformance_seed() -> u64 {
    ferex_conformance::seed_from_env("FEREX_CONFORMANCE_SEED").unwrap_or_else(|e| panic!("{e}"))
}

/// One search as a batch of one with query id `qid`.
fn search_at(array: &FerexArray, q: &[u32], qid: u64) -> Result<SearchOutcome, FerexError> {
    array.search_batch_at(&[q.to_vec()], &[qid]).map(|mut out| out.remove(0))
}

/// One k-nearest search as a batch of one with query id `qid`.
fn search_k_at(
    array: &FerexArray,
    q: &[u32],
    k: usize,
    qid: u64,
) -> Result<Vec<usize>, FerexError> {
    array.search_k_batch_at(&[q.to_vec()], k, &[qid]).map(|mut out| out.remove(0))
}

/// Query ids `0..n`.
fn qids(n: usize) -> Vec<u64> {
    (0..n as u64).collect()
}

fn array_with(metric: DistanceMetric, bits: u32, dim: usize, backend: Backend) -> FerexArray {
    let enc = encoding_for(metric, bits).expect("sizing succeeds for supported widths");
    FerexArray::new(Technology::default(), enc, dim, backend)
}

/// The fault-isolation corner: zero variation, ideal LTA, an explicit plan.
fn corner_cfg(faults: FaultPlan, seed: u64) -> CircuitConfig {
    CircuitConfig {
        variation: VariationModel::none(),
        lta: LtaParams::ideal(),
        faults,
        seed,
        ..Default::default()
    }
}

/// Every (metric, bits) pair the sizing pipeline supports: 3-bit matrices
/// exceed the CSP tractability budget by design (see `cosim.rs`).
fn metric_width_matrix() -> Vec<(DistanceMetric, u32)> {
    DistanceMetric::ALL.iter().flat_map(|&metric| [1u32, 2].map(|bits| (metric, bits))).collect()
}

#[test]
fn ideal_backend_is_bit_exact_against_oracle() {
    for (metric, bits) in metric_width_matrix() {
        let (rows, dim, n_queries) = (10, 7, 14);
        let mut rng = StdRng::seed_from_u64(conformance_seed() ^ bits as u64);
        let stored = gen_vectors(rows, dim, bits, &mut rng);
        let queries = gen_vectors(n_queries, dim, bits, &mut rng);
        let oracle = Oracle::new(metric, stored.clone());

        let mut array = array_with(metric, bits, dim, Backend::Ideal);
        array.store_all(stored).unwrap();
        array.program();

        for q in &queries {
            // Distances are exact integers: compare with == on the floats.
            let want: Vec<f64> = oracle.distances(q).iter().map(|&d| d as f64).collect();
            assert_eq!(array.distances(q).unwrap(), want, "{metric} @{bits}b distances");
            // Tie policy matches end to end: lowest index wins every rank.
            assert_eq!(
                search_at(&array, q, 0).unwrap().nearest,
                oracle.nearest(q),
                "{metric} @{bits}b top-1"
            );
            for k in 1..=3 {
                assert_eq!(
                    search_k_at(&array, q, k, 0).unwrap(),
                    oracle.nearest_k(q, k),
                    "{metric} @{bits}b top-{k}"
                );
            }
        }

        // Serving-path equivalence: one batch == batches of one, bit for
        // bit.
        let batched = array.search_batch_at(&queries, &qids(queries.len())).unwrap();
        let sequential: Vec<SearchOutcome> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| search_at(&array, q, i as u64).unwrap())
            .collect();
        assert_eq!(batched, sequential, "{metric} @{bits}b batch path");
    }
}

#[test]
fn stochastic_backends_match_oracle_at_the_fault_free_corner() {
    for metric in DistanceMetric::ALL {
        let (rows, dim, n_queries, bits) = (8, 6, 8, 2);
        let mut rng = StdRng::seed_from_u64(conformance_seed() ^ 0x5EED);
        let stored = gen_vectors(rows, dim, bits, &mut rng);
        let oracle = Oracle::new(metric, stored.clone());
        let queries = gen_unambiguous_queries(&oracle, n_queries, dim, bits, &mut rng);

        // Noisy at the corner is exact: integer distances, oracle argmin.
        let mut noisy = array_with(
            metric,
            bits,
            dim,
            Backend::Noisy(Box::new(corner_cfg(FaultPlan::none(), 3))),
        );
        noisy.store_all(stored.iter().cloned()).unwrap();
        noisy.program();

        // Circuit at the corner carries only solver/parasitic error, which
        // must stay far below the one-unit integer distance grid.
        let mut circuit = array_with(
            metric,
            bits,
            dim,
            Backend::Circuit(Box::new(corner_cfg(FaultPlan::none(), 3))),
        );
        circuit.store_all(stored.iter().cloned()).unwrap();
        circuit.program();

        for q in &queries {
            let want: Vec<f64> = oracle.distances(q).iter().map(|&d| d as f64).collect();
            assert_eq!(noisy.distances(q).unwrap(), want, "{metric} noisy corner");
            let nearest = search_at(&noisy, q, 0).unwrap().nearest;
            assert_eq!(nearest, oracle.nearest(q), "{metric} noisy top-1");
            for (dc, w) in circuit.distances(q).unwrap().iter().zip(&want) {
                assert!((dc - w).abs() < 0.2, "{metric} circuit corner: {dc} vs {w}");
            }
            assert_eq!(
                search_at(&circuit, q, 0).unwrap().nearest,
                oracle.nearest(q),
                "{metric} circuit top-1 (unambiguous query)"
            );
        }
    }
}

#[test]
fn noisy_and_circuit_agree_within_tolerance_on_identical_fault_maps() {
    // Dead-cell faults (SA1/open) remove the same contributions from both
    // backends when the config seed — hence the fault map — is shared.
    let plan = FaultPlan { sa1_rate: 0.1, open_rate: 0.1, ..Default::default() };
    for metric in DistanceMetric::ALL {
        let (rows, dim, bits) = (4, 8, 2);
        let mut rng = StdRng::seed_from_u64(conformance_seed() ^ 0xD1FF);
        let stored = gen_vectors(rows, dim, bits, &mut rng);
        let queries = gen_vectors(4, dim, bits, &mut rng);

        let mk = |backend: Backend| {
            let mut a = array_with(metric, bits, dim, backend);
            a.store_all(stored.iter().cloned()).unwrap();
            a.program();
            a
        };
        // Default (paper) variation on top of the faults: the tolerance is
        // the stated cross-backend model gap, not a bit-exact claim.
        let noisy = mk(Backend::Noisy(Box::new(CircuitConfig {
            faults: plan,
            seed: 99,
            ..Default::default()
        })));
        let circuit = mk(Backend::Circuit(Box::new(CircuitConfig {
            faults: plan,
            seed: 99,
            ..Default::default()
        })));
        assert_eq!(noisy.fault_map().unwrap(), circuit.fault_map().unwrap(), "{metric} maps");

        for q in &queries {
            let dn = noisy.distances(q).unwrap();
            let dc = circuit.distances(q).unwrap();
            for (n, c) in dn.iter().zip(&dc) {
                // Stated tolerance: 15 % relative, floored at 0.5 units for
                // near-zero rows (leakage + solver error).
                assert!(
                    (n - c).abs() <= 0.15 * n.max(*c) + 0.5,
                    "{metric}: noisy {n} vs circuit {c}"
                );
            }
        }
    }
}

#[test]
fn batched_and_sequential_serving_agree_under_fault_plans() {
    // The batch-vs-sequential axis of the sweep matrix, on both stochastic
    // backends, under a plan mixing all four fault classes plus aging.
    let plan = FaultPlan {
        sa0_rate: 0.05,
        sa1_rate: 0.05,
        open_rate: 0.05,
        short_rate: 0.05,
        retention_seconds: 3.0e7,
        endurance_cycles: 1.0e7,
        ..Default::default()
    };
    let (rows, dim, bits, k) = (6, 6, 2, 2);
    let mut rng = StdRng::seed_from_u64(conformance_seed() ^ 0xBA7C);
    let stored = gen_vectors(rows, dim, bits, &mut rng);
    let queries = gen_vectors(6, dim, bits, &mut rng);
    for kind in BackendKind::STOCHASTIC {
        let cfg = CircuitConfig { faults: plan, seed: 7, ..Default::default() };
        let mut a = array_with(DistanceMetric::Hamming, bits, dim, kind.backend(cfg));
        a.store_all(stored.iter().cloned()).unwrap();
        a.program();
        let ids = qids(queries.len());
        let batched = a.search_batch_at(&queries, &ids).unwrap();
        let k_batched = a.search_k_batch_at(&queries, k, &ids).unwrap();
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(batched[i], search_at(&a, q, i as u64).unwrap(), "{kind:?} query {i}");
            assert_eq!(k_batched[i], search_k_at(&a, q, k, i as u64).unwrap(), "{kind:?} top-{k}");
        }
    }
}

#[test]
fn recall_degrades_monotonically_across_the_standard_matrix() {
    let seed = conformance_seed();
    let report = standard_report(seed);
    // Full coverage: 3 metrics × 2 stochastic backends × 4 fault classes.
    assert_eq!(report.curves.len(), 24);
    for curve in &report.curves {
        let label = format!("{}/{}/{}", curve.metric, curve.backend, curve.fault);
        assert_eq!(
            curve.points[0].recall_at_1, 1.0,
            "{label}: fault-free anchor must be exact (oracle agreement)"
        );
        assert_eq!(curve.points[0].recall_at_k, 1.0, "{label}: anchor recall@k");
        assert!(
            curve.is_monotone_within(0.15),
            "{label}: recall@1 must not rise beyond sampling slack: {:?}",
            curve.points
        );
        assert!(
            curve.total_drop() >= 0.15,
            "{label}: the top rate must visibly degrade recall, dropped {}",
            curve.total_drop()
        );
        for p in &curve.points {
            assert!(
                p.recall_at_k >= p.recall_at_1 - 1e-12,
                "{label}: recall@k can never trail recall@1"
            );
        }
    }
}

#[test]
fn degradation_curves_are_deterministic_for_a_seed() {
    let spec = SweepSpec {
        metric: DistanceMetric::Hamming,
        backend: BackendKind::Noisy,
        fault: FaultKind::Open,
        bits: 2,
        dim: 10,
        rows: 12,
        n_queries: 16,
        trials: 2,
        k: 3,
        rates: vec![0.0, 0.1, 0.3],
        seed: conformance_seed(),
    };
    let a = run_sweep(&spec);
    let b = run_sweep(&spec);
    assert_eq!(a, b, "same seed must reproduce the curve byte-for-byte");
    let mut other = spec.clone();
    other.seed ^= 1;
    assert_ne!(run_sweep(&other).points, a.points, "seed must actually steer the sweep");
}
