//! Evaluation harness: accuracy over quantized datasets.

use crate::am::AmKnn;
use crate::exact::ExactKnn;
use ferex_core::FerexError;
use ferex_datasets::dataset::Sample;
use ferex_datasets::quantize::Quantizer;

/// Quantizes a sample set with a fitted quantizer.
pub fn quantize_set(quantizer: &Quantizer, samples: &[Sample]) -> Vec<(Vec<u32>, usize)> {
    samples.iter().map(|s| (quantizer.transform(&s.features), s.label)).collect()
}

/// Accuracy of an exact KNN over pre-quantized data.
pub fn exact_accuracy(knn: &ExactKnn, test: &[(Vec<u32>, usize)]) -> f64 {
    if test.is_empty() {
        return 0.0;
    }
    let correct = test.iter().filter(|(q, l)| knn.classify(q) == *l).count();
    correct as f64 / test.len() as f64
}

/// Accuracy of an AM-backed KNN over pre-quantized data.
///
/// The whole test set is served through one
/// [`AmKnn::classify_batch`] call, so the array is programmed once and
/// the per-batch cell-current tables are shared across every query.
///
/// # Errors
///
/// Search errors from the array.
pub fn am_accuracy(knn: &mut AmKnn, test: &[(Vec<u32>, usize)]) -> Result<f64, FerexError> {
    if test.is_empty() {
        return Ok(0.0);
    }
    let queries: Vec<Vec<u32>> = test.iter().map(|(q, _)| q.clone()).collect();
    let predicted = knn.classify_batch(&queries)?;
    let correct = predicted.iter().zip(test).filter(|(p, (_, l))| **p == *l).count();
    Ok(correct as f64 / test.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferex_core::DistanceMetric;
    use ferex_datasets::spec::UCIHAR;
    use ferex_datasets::synth::{generate, SynthOptions};

    #[test]
    fn quantize_set_preserves_labels() {
        let data = generate(&UCIHAR.scaled(0.005), &SynthOptions::default());
        let q = Quantizer::fit_samples(2, &data.train);
        let set = quantize_set(&q, &data.test);
        assert_eq!(set.len(), data.test.len());
        for ((sym, l), s) in set.iter().zip(&data.test) {
            assert_eq!(*l, s.label);
            assert_eq!(sym.len(), s.features.len());
        }
    }

    #[test]
    fn exact_knn_beats_chance_on_synthetic_data() {
        let data = generate(&UCIHAR.scaled(0.02), &SynthOptions::default());
        let quant = Quantizer::fit_samples(2, &data.train);
        let mut knn = ExactKnn::new(DistanceMetric::Manhattan, 3);
        for (sym, l) in quantize_set(&quant, &data.train) {
            knn.insert(sym, l);
        }
        let acc = exact_accuracy(&knn, &quantize_set(&quant, &data.test));
        assert!(acc > 0.8, "KNN accuracy only {acc}");
    }
}
