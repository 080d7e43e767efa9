//! KNN classification on the FeReX associative memory.
//!
//! Reference vectors are stored one per array row; a query is one
//! associative search, and k > 1 uses the iterative LTA masking of
//! [`ferex_core::Ferex::search_k`]. This is the workload of the
//! paper's Fig. 7 Monte-Carlo study (MNIST KNN worst cases).

use crate::exact::ExactKnn;
use ferex_core::{Backend, DistanceMetric, Ferex, FerexError};
use ferex_fefet::Technology;

/// KNN classifier backed by a FeReX array.
#[derive(Debug, Clone)]
pub struct AmKnn {
    ferex: Ferex,
    labels: Vec<usize>,
    k: usize,
}

impl AmKnn {
    /// Builds the classifier: configures a FeReX engine for `metric` over
    /// `bits`-bit symbols of dimension `dim`.
    ///
    /// # Errors
    ///
    /// Encoding-pipeline failures.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(
        metric: DistanceMetric,
        bits: u32,
        dim: usize,
        k: usize,
        backend: Backend,
        tech: Technology,
    ) -> Result<Self, FerexError> {
        assert!(k > 0, "k must be positive");
        let ferex = Ferex::builder()
            .metric(metric)
            .bits(bits)
            .dim(dim)
            .backend(backend)
            .technology(tech)
            .build()?;
        Ok(AmKnn { ferex, labels: Vec::new(), k })
    }

    /// The underlying engine.
    pub fn ferex(&self) -> &Ferex {
        &self.ferex
    }

    /// Number of stored reference points.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` if no reference points are stored.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Adds a labeled reference vector.
    ///
    /// # Errors
    ///
    /// Vector validation errors.
    pub fn insert(&mut self, symbols: Vec<u32>, label: usize) -> Result<(), FerexError> {
        self.ferex.store(symbols)?;
        self.labels.push(label);
        Ok(())
    }

    /// Majority vote over a ranked neighbor list (ties break toward the
    /// label whose first vote arrived at the better rank).
    fn vote(&self, nearest: &[usize]) -> usize {
        let mut votes: Vec<(usize, usize, usize)> = Vec::new();
        for (rank, &row) in nearest.iter().enumerate() {
            let label = self.labels[row];
            match votes.iter_mut().find(|(l, _, _)| *l == label) {
                Some((_, count, _)) => *count += 1,
                None => votes.push((label, 1, rank)),
            }
        }
        votes
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.2.cmp(&a.2)))
            .map(|(l, _, _)| l)
            .expect("k >= 1")
    }

    /// Classifies a query by majority vote over the `k` LTA-nearest rows.
    ///
    /// # Errors
    ///
    /// Search errors (including fewer than `k` stored points).
    pub fn classify(&mut self, query: &[u32]) -> Result<usize, FerexError> {
        let nearest = self.ferex.search_k(query, self.k)?;
        Ok(self.vote(&nearest))
    }

    /// Classifies a whole query batch: the array is programmed once, the
    /// k-nearest lists come through the batched serving path
    /// ([`ferex_core::Ferex::search_k_batch`]), and each list is
    /// majority-voted exactly as in [`AmKnn::classify`].
    ///
    /// # Errors
    ///
    /// Search errors (including fewer than `k` stored points).
    pub fn classify_batch(&mut self, queries: &[Vec<u32>]) -> Result<Vec<usize>, FerexError> {
        // The engine's batch path is a pure `&self` read; bring a stale
        // stochastic backend up to date before serving.
        self.ferex.ensure_programmed()?;
        let ranked = self.ferex.search_k_batch(queries, self.k)?;
        Ok(ranked.iter().map(|nearest| self.vote(nearest)).collect())
    }

    /// Reconfigures the distance metric in place, keeping reference data.
    ///
    /// # Errors
    ///
    /// Encoding failures for the new metric.
    pub fn reconfigure(&mut self, metric: DistanceMetric) -> Result<(), FerexError> {
        self.ferex.reconfigure(metric)
    }

    /// Builds the equivalent software classifier over the same reference
    /// set (for agreement checks and accuracy baselines).
    pub fn to_exact(&self) -> ExactKnn {
        let mut exact = ExactKnn::new(self.ferex.metric(), self.k);
        let array = self.ferex.array();
        for (row, label) in (0..array.len()).filter_map(|r| array.row(r)).zip(&self.labels) {
            exact.insert(row, *label);
        }
        exact
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(backend: Backend) -> AmKnn {
        let mut knn =
            AmKnn::new(DistanceMetric::Manhattan, 2, 2, 3, backend, Technology::default())
                .expect("builds");
        knn.insert(vec![0, 0], 0).unwrap();
        knn.insert(vec![0, 1], 0).unwrap();
        knn.insert(vec![3, 3], 1).unwrap();
        knn.insert(vec![3, 2], 1).unwrap();
        knn.insert(vec![2, 3], 1).unwrap();
        knn
    }

    #[test]
    fn am_knn_matches_exact_knn_on_ideal_backend() {
        let mut am = toy(Backend::Ideal);
        let exact = am.to_exact();
        for q in [[0u32, 0], [3, 3], [1, 1], [2, 2], [0, 3]] {
            assert_eq!(am.classify(&q).unwrap(), exact.classify(&q), "disagreement on query {q:?}");
        }
    }

    #[test]
    fn reconfigure_preserves_reference_set() {
        let mut am = toy(Backend::Ideal);
        am.reconfigure(DistanceMetric::Hamming).unwrap();
        assert_eq!(am.len(), 5);
        let exact = am.to_exact();
        assert_eq!(exact.metric(), DistanceMetric::Hamming);
        assert_eq!(am.classify(&[0, 0]).unwrap(), exact.classify(&[0, 0]));
    }

    #[test]
    fn noisy_backend_classifies_easy_queries_correctly() {
        let mut am = toy(Backend::Noisy(Box::default()));
        assert_eq!(am.classify(&[0, 0]).unwrap(), 0);
        assert_eq!(am.classify(&[3, 3]).unwrap(), 1);
    }

    #[test]
    fn batch_classification_matches_per_query_votes() {
        let queries: Vec<Vec<u32>> =
            vec![vec![0, 0], vec![3, 3], vec![1, 1], vec![2, 2], vec![0, 3]];
        // Ideal backend: the batch agrees with the scalar path exactly.
        let mut scalar = toy(Backend::Ideal);
        let expected: Vec<usize> = queries.iter().map(|q| scalar.classify(q).unwrap()).collect();
        let mut batched = toy(Backend::Ideal);
        assert_eq!(batched.classify_batch(&queries).unwrap(), expected);
        // Noisy backend: easy queries still land on their obvious class
        // through the batched serving path.
        let mut noisy = toy(Backend::Noisy(Box::default()));
        let labels = noisy.classify_batch(&queries).unwrap();
        assert_eq!(labels.len(), queries.len());
        assert_eq!(labels[0], 0);
        assert_eq!(labels[1], 1);
    }
}
