//! Distance metrics supported by the reconfigurable search engine.
//!
//! FeReX's claim is a *single* AM array that can be configured for Hamming,
//! Manhattan, or (squared) Euclidean distance (paper Table I). Distances are
//! defined per b-bit symbol; vector distance is the sum of per-symbol
//! distances, which the array computes physically by summing cell currents
//! along each row.
//!
//! Squared Euclidean is used in place of Euclidean: squaring is monotone, so
//! nearest-neighbor decisions are identical, and the per-symbol values stay
//! integral — which is what the quantized cell currents require.

use std::fmt;

/// A distance metric over b-bit symbol values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistanceMetric {
    /// Bitwise Hamming distance: `popcount(a XOR b)`.
    Hamming,
    /// Manhattan (L1) distance: `|a − b|`.
    Manhattan,
    /// Squared Euclidean (L2²) distance: `(a − b)²`.
    EuclideanSquared,
}

impl DistanceMetric {
    /// All metrics the paper evaluates, in its order.
    pub const ALL: [DistanceMetric; 3] =
        [DistanceMetric::Hamming, DistanceMetric::Manhattan, DistanceMetric::EuclideanSquared];

    /// Per-symbol distance between two values.
    ///
    /// Returned as `u64`: squared-Euclidean distances overflow `u32` once
    /// symbols exceed 16 bits (`d*d` with `d` up to `2^32 − 1` needs the
    /// full 64-bit range).
    pub fn distance(&self, a: u32, b: u32) -> u64 {
        match self {
            DistanceMetric::Hamming => u64::from((a ^ b).count_ones()),
            DistanceMetric::Manhattan => u64::from(a.abs_diff(b)),
            DistanceMetric::EuclideanSquared => {
                let d = u64::from(a.abs_diff(b));
                d * d
            }
        }
    }

    /// Distance between two equal-length symbol vectors (sum of per-symbol
    /// distances).
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn vector_distance(&self, a: &[u32], b: &[u32]) -> u64 {
        assert_eq!(a.len(), b.len(), "vector length mismatch");
        a.iter().zip(b).map(|(&x, &y)| self.distance(x, y)).sum()
    }

    /// Largest per-symbol distance over b-bit values — the maximal distance
    /// matrix entry, which bounds the cell current range.
    ///
    /// Computed in `u64` so the extremes are exact: at `bits = 32` the top
    /// symbol is `2^32 − 1` and its square only fits in 64 bits (the old
    /// `u32` arithmetic wrapped for squared Euclidean at `bits ≥ 17` and
    /// `1u32 << 32` panicked outright at `bits = 32`).
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ bits ≤ 32` (symbols are `u32` values).
    pub fn max_distance(&self, bits: u32) -> u64 {
        assert!((1..=32).contains(&bits), "symbol width must be between 1 and 32 bits, got {bits}");
        let top = (1u64 << bits) - 1;
        match self {
            DistanceMetric::Hamming => u64::from(bits),
            DistanceMetric::Manhattan => top,
            DistanceMetric::EuclideanSquared => top * top,
        }
    }
}

impl fmt::Display for DistanceMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            DistanceMetric::Hamming => "Hamming",
            DistanceMetric::Manhattan => "Manhattan",
            DistanceMetric::EuclideanSquared => "Euclidean²",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hamming_matches_paper_example() {
        // Fig. 4(a): distance between search '00' and stored '11' is 2.
        let m = DistanceMetric::Hamming;
        assert_eq!(m.distance(0b00, 0b11), 2);
        assert_eq!(m.distance(0b00, 0b01), 1);
        assert_eq!(m.distance(0b10, 0b10), 0);
        assert_eq!(m.distance(0b01, 0b10), 2);
    }

    #[test]
    fn manhattan_and_euclidean_values() {
        assert_eq!(DistanceMetric::Manhattan.distance(0, 3), 3);
        assert_eq!(DistanceMetric::Manhattan.distance(3, 1), 2);
        assert_eq!(DistanceMetric::EuclideanSquared.distance(0, 3), 9);
        assert_eq!(DistanceMetric::EuclideanSquared.distance(1, 3), 4);
    }

    #[test]
    fn metrics_are_symmetric_with_zero_diagonal() {
        for m in DistanceMetric::ALL {
            for a in 0..8 {
                assert_eq!(m.distance(a, a), 0, "{m} diagonal");
                for b in 0..8 {
                    assert_eq!(m.distance(a, b), m.distance(b, a), "{m} symmetry");
                }
            }
        }
    }

    #[test]
    fn vector_distance_sums_symbols() {
        let a = [0, 1, 3, 2];
        let b = [3, 1, 0, 2];
        assert_eq!(DistanceMetric::Hamming.vector_distance(&a, &b), (2 + 2));
        assert_eq!(DistanceMetric::Manhattan.vector_distance(&a, &b), (3 + 3));
        assert_eq!(DistanceMetric::EuclideanSquared.vector_distance(&a, &b), (9 + 9));
    }

    #[test]
    fn max_distance_per_bits() {
        assert_eq!(DistanceMetric::Hamming.max_distance(2), 2);
        assert_eq!(DistanceMetric::Manhattan.max_distance(2), 3);
        assert_eq!(DistanceMetric::EuclideanSquared.max_distance(2), 9);
        assert_eq!(DistanceMetric::Hamming.max_distance(3), 3);
        assert_eq!(DistanceMetric::EuclideanSquared.max_distance(3), 49);
    }

    #[test]
    fn wide_symbols_do_not_wrap() {
        // bits = 17 is the first width where `d*d` exceeded u32: the old
        // arithmetic wrapped (131071² mod 2³²), the widened path is exact.
        let top17 = (1u64 << 17) - 1;
        assert_eq!(DistanceMetric::EuclideanSquared.max_distance(17), top17 * top17);
        assert!(DistanceMetric::EuclideanSquared.max_distance(17) > u64::from(u32::MAX));
        assert_eq!(DistanceMetric::EuclideanSquared.distance(0, (1u32 << 17) - 1), top17 * top17);
        // bits = 31: largest width where the old shift still worked; squares
        // still need u64.
        let top31 = (1u64 << 31) - 1;
        assert_eq!(DistanceMetric::EuclideanSquared.max_distance(31), top31 * top31);
        // bits = 32: the old `1u32 << 32` panicked; now exact at the u32 top.
        let top32 = u64::from(u32::MAX);
        assert_eq!(DistanceMetric::Hamming.max_distance(32), 32);
        assert_eq!(DistanceMetric::Manhattan.max_distance(32), top32);
        assert_eq!(DistanceMetric::EuclideanSquared.max_distance(32), top32 * top32);
        assert_eq!(DistanceMetric::EuclideanSquared.distance(0, u32::MAX), top32 * top32);
        assert_eq!(DistanceMetric::Manhattan.distance(0, u32::MAX), top32);
        assert_eq!(DistanceMetric::Hamming.distance(0, u32::MAX), 32);
    }

    #[test]
    fn vector_distance_is_exact_for_wide_symbols() {
        // One maximal symbol plus matching symbols: the old u32 per-symbol
        // arithmetic wrapped this to 1, the widened path is exact. (The
        // *sum* itself saturates u64 only beyond one maximal square — a
        // single (2³² − 1)² term already uses 63.99 of the 64 bits.)
        let a = [0u32, 7, u32::MAX];
        let b = [u32::MAX, 7, u32::MAX];
        let per_symbol = u64::from(u32::MAX) * u64::from(u32::MAX);
        assert_eq!(DistanceMetric::EuclideanSquared.vector_distance(&a, &b), per_symbol);
    }

    #[test]
    #[should_panic(expected = "symbol width")]
    fn max_distance_rejects_zero_bits() {
        DistanceMetric::Hamming.max_distance(0);
    }

    #[test]
    #[should_panic(expected = "symbol width")]
    fn max_distance_rejects_over_32_bits() {
        DistanceMetric::Manhattan.max_distance(33);
    }

    #[test]
    fn display_names() {
        assert_eq!(DistanceMetric::Hamming.to_string(), "Hamming");
        assert_eq!(DistanceMetric::EuclideanSquared.to_string(), "Euclidean²");
    }
}
