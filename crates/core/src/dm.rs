//! The Distance Matrix (DM) — the target function table of the encoding
//! scheme (paper Sec. III-B, Fig. 4(a)).
//!
//! Rows index *search* values, columns index *stored* values; entry
//! `(i, j)` is the distance the cell current must represent when search
//! value `i` meets stored value `j`. FeReX implements one DM per b-bit
//! symbol; the array's row current then sums symbol distances into vector
//! distances.

use crate::distance::DistanceMetric;
use std::fmt;

/// An M×N matrix of target distances.
///
/// # Examples
///
/// ```
/// use ferex_core::{DistanceMatrix, DistanceMetric};
///
/// let dm = DistanceMatrix::from_metric(DistanceMetric::Hamming, 2);
/// assert_eq!(dm.get(0b00, 0b11), 2); // Fig. 4(a)
/// assert_eq!(dm.max_value(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceMatrix {
    n_search: usize,
    n_stored: usize,
    values: Vec<u32>,
}

impl DistanceMatrix {
    /// Builds the DM of a metric over all b-bit values (`2^bits × 2^bits`).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 6 (64 stored values is the
    /// limit of the encoder's bitmask representation).
    pub fn from_metric(metric: DistanceMetric, bits: u32) -> Self {
        assert!((1..=6).contains(&bits), "bits must be in 1..=6");
        let n = 1usize << bits;
        let mut values = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                // bits ≤ 6, so per-symbol distances top out at 63² and the
                // u64 → u32 narrowing is lossless.
                values.push(metric.distance(i as u32, j as u32) as u32); // lint:allow(cast-truncation/narrowing, reason = "bits <= 6 bounds symbols and distances far below u32::MAX")
            }
        }
        DistanceMatrix { n_search: n, n_stored: n, values }
    }

    /// Builds a custom DM from a row-major table. This is how
    /// application-specific distance functions beyond the three paper
    /// metrics enter the encoder.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty or ragged.
    pub fn from_table(table: Vec<Vec<u32>>) -> Self {
        assert!(!table.is_empty() && !table[0].is_empty(), "table must be non-empty");
        let n_stored = table[0].len();
        assert!(table.iter().all(|r| r.len() == n_stored), "table must be rectangular");
        assert!(n_stored <= 64, "at most 64 stored values supported");
        let n_search = table.len();
        let values = table.into_iter().flatten().collect();
        DistanceMatrix { n_search, n_stored, values }
    }

    /// Number of search rows.
    pub fn n_search(&self) -> usize {
        self.n_search
    }

    /// Number of stored columns.
    pub fn n_stored(&self) -> usize {
        self.n_stored
    }

    /// Entry for (search value, stored value).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, search: usize, stored: usize) -> u32 {
        assert!(search < self.n_search && stored < self.n_stored, "DM index out of range");
        self.values[search * self.n_stored + stored]
    }

    /// One search row as a slice.
    pub fn row(&self, search: usize) -> &[u32] {
        assert!(search < self.n_search, "DM row out of range");
        &self.values[search * self.n_stored..(search + 1) * self.n_stored]
    }

    /// The largest entry — determines the current range the cell must span.
    pub fn max_value(&self) -> u32 {
        self.values.iter().copied().max().unwrap_or(0)
    }

    /// `true` if the matrix is square and symmetric with zero diagonal —
    /// the shape of a genuine distance function. Custom tables may
    /// deliberately violate this (e.g. asymmetric similarity scores).
    pub fn is_metric_like(&self) -> bool {
        if self.n_search != self.n_stored {
            return false;
        }
        for i in 0..self.n_search {
            if self.get(i, i) != 0 {
                return false;
            }
            for j in 0..i {
                if self.get(i, j) != self.get(j, i) {
                    return false;
                }
            }
        }
        true
    }
}

impl fmt::Display for DistanceMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.n_search {
            for j in 0..self.n_stored {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:3}", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_bit_hamming_matches_figure_4a() {
        let dm = DistanceMatrix::from_metric(DistanceMetric::Hamming, 2);
        let expect = [[0, 1, 1, 2], [1, 0, 2, 1], [1, 2, 0, 1], [2, 1, 1, 0]];
        for (i, row) in expect.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(dm.get(i, j), v, "entry ({i},{j})");
            }
        }
        assert!(dm.is_metric_like());
    }

    #[test]
    fn metric_dms_are_metric_like() {
        for m in DistanceMetric::ALL {
            for bits in 1..=3 {
                assert!(DistanceMatrix::from_metric(m, bits).is_metric_like(), "{m} {bits}-bit");
            }
        }
    }

    #[test]
    fn max_values() {
        assert_eq!(DistanceMatrix::from_metric(DistanceMetric::Hamming, 2).max_value(), 2);
        assert_eq!(DistanceMatrix::from_metric(DistanceMetric::Manhattan, 2).max_value(), 3);
        assert_eq!(DistanceMatrix::from_metric(DistanceMetric::EuclideanSquared, 2).max_value(), 9);
    }

    #[test]
    fn custom_table_round_trip() {
        let dm = DistanceMatrix::from_table(vec![vec![0, 5], vec![3, 0]]);
        assert_eq!(dm.n_search(), 2);
        assert_eq!(dm.n_stored(), 2);
        assert_eq!(dm.get(0, 1), 5);
        assert_eq!(dm.row(1), &[3, 0]);
        assert!(!dm.is_metric_like()); // asymmetric
    }

    #[test]
    fn display_renders_rows() {
        let dm = DistanceMatrix::from_metric(DistanceMetric::Hamming, 1);
        let s = dm.to_string();
        assert!(s.contains('0') && s.contains('1'));
        assert_eq!(s.lines().count(), 2);
    }

    #[test]
    #[should_panic(expected = "rectangular")]
    fn ragged_table_rejected() {
        let _ = DistanceMatrix::from_table(vec![vec![0, 1], vec![1]]);
    }

    #[test]
    #[should_panic(expected = "bits must be")]
    fn oversized_bits_rejected() {
        let _ = DistanceMatrix::from_metric(DistanceMetric::Hamming, 7);
    }
}
