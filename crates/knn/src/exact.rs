//! Exact (software) k-nearest-neighbor classification — the reference the
//! FeReX-backed KNN is validated against, and the baseline whose worst
//! cases drive the Fig. 7 Monte-Carlo study.

use ferex_core::DistanceMetric;

/// A labeled reference point in symbol space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Neighbor {
    /// Quantized feature vector.
    pub symbols: Vec<u32>,
    /// Class label.
    pub label: usize,
}

/// Brute-force KNN classifier over quantized vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactKnn {
    metric: DistanceMetric,
    k: usize,
    neighbors: Vec<Neighbor>,
}

impl ExactKnn {
    /// Creates a classifier with the given metric and `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(metric: DistanceMetric, k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        ExactKnn { metric, k, neighbors: Vec::new() }
    }

    /// The configured metric.
    pub fn metric(&self) -> DistanceMetric {
        self.metric
    }

    /// The configured `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of stored reference points.
    pub fn len(&self) -> usize {
        self.neighbors.len()
    }

    /// `true` if no reference points are stored.
    pub fn is_empty(&self) -> bool {
        self.neighbors.is_empty()
    }

    /// Adds a reference point.
    pub fn insert(&mut self, symbols: Vec<u32>, label: usize) {
        self.neighbors.push(Neighbor { symbols, label });
    }

    /// The indices of the `k` nearest reference points (distance ties break
    /// toward lower index, matching the hardware LTA's deterministic tree).
    ///
    /// # Panics
    ///
    /// Panics if fewer than `k` points are stored.
    pub fn nearest_indices(&self, query: &[u32]) -> Vec<usize> {
        assert!(self.neighbors.len() >= self.k, "need at least k reference points");
        let mut scored: Vec<(u64, usize)> = self
            .neighbors
            .iter()
            .enumerate()
            .map(|(i, n)| (self.metric.vector_distance(query, &n.symbols), i))
            .collect();
        scored.sort_by_key(|&(d, i)| (d, i));
        scored.into_iter().take(self.k).map(|(_, i)| i).collect()
    }

    /// Classifies by majority vote among the `k` nearest (ties toward the
    /// closest member of the tied classes).
    pub fn classify(&self, query: &[u32]) -> usize {
        let nearest = self.nearest_indices(query);
        let mut votes: Vec<(usize, usize, usize)> = Vec::new(); // (label, count, best_rank)
        for (rank, &i) in nearest.iter().enumerate() {
            let label = self.neighbors[i].label;
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> ExactKnn {
        let mut knn = ExactKnn::new(DistanceMetric::Manhattan, 3);
        knn.insert(vec![0, 0], 0);
        knn.insert(vec![0, 1], 0);
        knn.insert(vec![3, 3], 1);
        knn.insert(vec![3, 2], 1);
        knn.insert(vec![2, 3], 1);
        knn
    }

    #[test]
    fn classifies_by_majority() {
        let knn = toy();
        assert_eq!(knn.classify(&[0, 0]), 0); // 2×class0 + 1×class1 nearest
        assert_eq!(knn.classify(&[3, 3]), 1);
    }

    #[test]
    fn nearest_indices_sorted_by_distance() {
        let knn = toy();
        let idx = knn.nearest_indices(&[0, 0]);
        assert_eq!(idx[0], 0);
        assert_eq!(idx[1], 1);
    }

    #[test]
    fn metric_changes_the_answer() {
        // Point equidistant in L1 but not in L2².
        let mut l1 = ExactKnn::new(DistanceMetric::Manhattan, 1);
        let mut l2 = ExactKnn::new(DistanceMetric::EuclideanSquared, 1);
        for knn in [&mut l1, &mut l2] {
            knn.insert(vec![3, 0], 0); // L1 = 3, L2² = 9 from (0,0)
            knn.insert(vec![2, 2], 1); // L1 = 4, L2² = 8
        }
        assert_eq!(l1.classify(&[0, 0]), 0);
        assert_eq!(l2.classify(&[0, 0]), 1);
    }

    #[test]
    fn tie_breaks_to_lower_index() {
        let mut knn = ExactKnn::new(DistanceMetric::Hamming, 1);
        knn.insert(vec![1], 7);
        knn.insert(vec![1], 8);
        assert_eq!(knn.classify(&[1]), 7);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        let _ = ExactKnn::new(DistanceMetric::Hamming, 0);
    }
}
