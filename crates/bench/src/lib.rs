#![forbid(unsafe_code)]
//! # ferex-bench — experiment harness
//!
//! One binary per table/figure of the paper's evaluation (see DESIGN.md §5
//! for the experiment index), the seeded core-kernel grid ([`kernels`])
//! behind `BENCH_core_kernels.json`, and the random-array workload shared
//! by the Fig. 6 bin and the `array_scaling` example.

pub mod kernels;

use ferex_core::{Backend, DistanceMetric, Ferex, FerexError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a Hamming-configured engine pre-loaded with `rows` random 2-bit
/// vectors of `dim` symbols — the generic array workload of Fig. 6.
///
/// # Errors
///
/// Encoding-pipeline failures.
pub fn random_filled_engine(
    rows: usize,
    dim: usize,
    backend: Backend,
    seed: u64,
) -> Result<Ferex, FerexError> {
    let mut engine = Ferex::builder()
        .metric(DistanceMetric::Hamming)
        .bits(2)
        .dim(dim)
        .backend(backend)
        .build()?;
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..rows {
        engine.store((0..dim).map(|_| rng.gen_range(0..4u32)).collect())?;
    }
    Ok(engine)
}

/// A random 2-bit query of `dim` symbols.
pub fn random_query(dim: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..dim).map(|_| rng.gen_range(0..4u32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_engine_builds_and_searches() {
        let mut e = random_filled_engine(8, 16, Backend::Ideal, 1).expect("builds");
        let q = random_query(16, 2);
        assert!(e.search(&q).is_ok());
    }
}
