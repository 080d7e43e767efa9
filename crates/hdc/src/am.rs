//! HDC inference through the FeReX associative memory.
//!
//! The paper's application flow (Sec. IV-B): class hypervectors are
//! quantized to multi-bit symbols and programmed into the FeReX array (one
//! row per class); at inference the encoded query is quantized with the
//! same ranges and a single associative search returns the class whose
//! vector has minimal distance under the *configured* metric. Swapping the
//! metric re-encodes the same array — the Fig. 8(a) experiment.

use crate::encoder::FeatureEncoder;
use crate::hypervector::Hypervector;
use crate::model::HdcModel;
use ferex_core::{Backend, DistanceMetric, Ferex, FerexError};
use ferex_datasets::dataset::Sample;
use ferex_fefet::Technology;

/// Configuration of the AM inference stage.
#[derive(Debug, Clone)]
pub struct AmConfig {
    /// Distance metric the array is configured for.
    pub metric: DistanceMetric,
    /// Symbol bit width the class vectors are quantized to.
    pub bits: u32,
    /// Array simulation backend.
    pub backend: Backend,
    /// Technology card.
    pub tech: Technology,
}

impl Default for AmConfig {
    fn default() -> Self {
        AmConfig {
            metric: DistanceMetric::Hamming,
            bits: 2,
            backend: Backend::Ideal,
            tech: Technology::default(),
        }
    }
}

/// An HDC classifier whose similarity search runs on a FeReX array.
#[derive(Debug, Clone)]
pub struct AmClassifier {
    ferex: Ferex,
    bits: u32,
}

impl AmClassifier {
    /// Quantizes the trained model's class vectors and programs them into a
    /// freshly configured FeReX array.
    ///
    /// Class accumulator sums are quantized per dimension, symmetrically
    /// around zero (so the bipolar query maps onto the symbol extremes
    /// consistently).
    ///
    /// # Errors
    ///
    /// Encoding-pipeline failures for the requested metric/bits.
    pub fn from_model<E: FeatureEncoder>(
        model: &HdcModel<E>,
        config: &AmConfig,
    ) -> Result<Self, FerexError> {
        let mut ferex = Ferex::builder()
            .metric(config.metric)
            .bits(config.bits)
            .dim(model.dim())
            .technology(config.tech.clone())
            .backend(config.backend.clone())
            .build()?;
        let sums = model.class_sums();
        // Symmetric per-dimension scale: the largest |sum| over classes.
        let dim = model.dim();
        let mut scale = vec![1.0f64; dim];
        for (d, s) in scale.iter_mut().enumerate() {
            let max_abs = sums.iter().map(|c| c[d].unsigned_abs()).max().unwrap_or(1).max(1);
            *s = max_abs as f64;
        }
        let top = ((1u32 << config.bits) - 1) as f64;
        for class in &sums {
            let symbols: Vec<u32> = class
                .iter()
                .zip(&scale)
                .map(|(&v, &s)| {
                    let t = ((v as f64 / s) + 1.0) / 2.0; // [-1,1] → [0,1]
                    (t.clamp(0.0, 1.0) * top).round() as u32
                })
                .collect();
            ferex.store(symbols)?;
        }
        Ok(AmClassifier { ferex, bits: config.bits })
    }

    /// The underlying engine (for cost reporting or inspection).
    pub fn ferex(&self) -> &Ferex {
        &self.ferex
    }

    /// Reconfigures the array to a different metric without retraining —
    /// the headline reconfigurability experiment.
    ///
    /// # Errors
    ///
    /// Encoding failures for the new metric.
    pub fn reconfigure(&mut self, metric: DistanceMetric) -> Result<(), FerexError> {
        self.ferex.reconfigure(metric)
    }

    /// Quantizes a query hypervector onto the symbol grid: −1 → 0,
    /// +1 → top symbol (the bipolar extremes of the symmetric range).
    pub fn quantize_query(&self, hv: &Hypervector) -> Vec<u32> {
        let top = (1u32 << self.bits) - 1;
        hv.components().iter().map(|&c| if c > 0 { top } else { 0 }).collect()
    }

    /// Classifies an encoded query through one associative search.
    ///
    /// # Errors
    ///
    /// Search errors from the array.
    pub fn classify_hv(&mut self, hv: &Hypervector) -> Result<usize, FerexError> {
        let symbols = self.quantize_query(hv);
        Ok(self.ferex.search(&symbols)?.nearest)
    }

    /// Classifies a batch of encoded queries through the batched serving
    /// path ([`ferex_core::Ferex::search_batch`]): the array is
    /// programmed once and the per-batch cell-current tables are shared
    /// across every query.
    ///
    /// # Errors
    ///
    /// Search errors from the array.
    pub fn classify_batch(&mut self, hvs: &[Hypervector]) -> Result<Vec<usize>, FerexError> {
        // The engine's batch path is a pure `&self` read; bring a stale
        // stochastic backend up to date before serving.
        self.ferex.ensure_programmed()?;
        let queries: Vec<Vec<u32>> = hvs.iter().map(|hv| self.quantize_query(hv)).collect();
        let outcomes = self.ferex.search_batch(&queries)?;
        Ok(outcomes.into_iter().map(|o| o.nearest).collect())
    }

    /// Encodes (with the model's encoder) and classifies a raw sample
    /// stream; returns accuracy.
    ///
    /// The whole stream is served through one [`AmClassifier::classify_batch`]
    /// call, so the array is programmed once for the entire evaluation.
    ///
    /// # Errors
    ///
    /// Search errors from the array.
    pub fn accuracy<E: FeatureEncoder>(
        &mut self,
        model: &HdcModel<E>,
        samples: &[Sample],
    ) -> Result<f64, FerexError> {
        if samples.is_empty() {
            return Ok(0.0);
        }
        let hvs: Vec<Hypervector> =
            samples.iter().map(|s| model.encoder().encode(&s.features)).collect();
        let predicted = self.classify_batch(&hvs)?;
        let correct = predicted.iter().zip(samples).filter(|(p, s)| **p == s.label).count();
        Ok(correct as f64 / samples.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::ProjectionEncoder;
    use ferex_datasets::spec::UCIHAR;
    use ferex_datasets::synth::{generate, SynthOptions};

    fn trained() -> (ferex_datasets::Dataset, HdcModel) {
        let spec = UCIHAR.scaled(0.02);
        let data = generate(&spec, &SynthOptions::default());
        let encoder = ProjectionEncoder::new(spec.n_features, 1024, 5);
        let mut model = HdcModel::train_single_pass(encoder, &data.train, spec.n_classes);
        model.retrain(&data.train, 3);
        (data, model)
    }

    #[test]
    fn am_inference_tracks_software_accuracy() {
        let (data, model) = trained();
        let software = model.accuracy(&data.test);
        let mut am = AmClassifier::from_model(&model, &AmConfig::default()).expect("builds");
        let hw = am.accuracy(&model, &data.test).expect("searches");
        assert!(
            hw > software - 0.10,
            "AM accuracy {hw} fell more than 10 points below software {software}"
        );
    }

    #[test]
    fn metric_reconfiguration_works_in_place() {
        let (data, model) = trained();
        let mut am = AmClassifier::from_model(&model, &AmConfig::default()).expect("builds");
        let mut accs = Vec::new();
        for metric in
            [DistanceMetric::Hamming, DistanceMetric::Manhattan, DistanceMetric::EuclideanSquared]
        {
            am.reconfigure(metric).expect("reconfigures");
            let n = data.test.len().min(100);
            let acc = am.accuracy(&model, &data.test[..n]).expect("searches");
            accs.push(acc);
        }
        // Every metric must be usable (well above chance = 1/12).
        for (m, acc) in DistanceMetric::ALL.iter().zip(&accs) {
            assert!(*acc > 0.5, "{m} accuracy {acc}");
        }
    }

    #[test]
    fn batch_classification_matches_scalar_on_ideal_backend() {
        let (data, model) = trained();
        let mut am = AmClassifier::from_model(&model, &AmConfig::default()).expect("builds");
        let hvs: Vec<_> =
            data.test.iter().take(16).map(|s| model.encoder().encode(&s.features)).collect();
        let expected: Vec<usize> =
            hvs.iter().map(|hv| am.classify_hv(hv).expect("searches")).collect();
        assert_eq!(am.classify_batch(&hvs).expect("searches"), expected);
    }

    #[test]
    fn query_quantization_maps_to_extremes() {
        let (_, model) = trained();
        let am = AmClassifier::from_model(&model, &AmConfig::default()).expect("builds");
        let hv = model.encoder().encode(&vec![0.3; model.encoder().n_features()]);
        let q = am.quantize_query(&hv);
        assert!(q.iter().all(|&s| s == 0 || s == 3));
    }
}
