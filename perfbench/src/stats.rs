//! The benchmark's own arithmetic: percentiles, request accounting and the
//! served-answer checksum.

use ferex_core::percentile;

/// Fewest samples a reported percentile must leave strictly above its rank.
pub const MIN_BEYOND: u64 = 10;

/// Nearest-rank percentile `q_num / q_den` of `sorted` (ascending), or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond its rank, so
/// that the tail value rests on more than a handful of samples.
pub fn supported_percentile(sorted: &[u64], q_num: u64, q_den: u64) -> Option<u64> {
    let n = sorted.len() as u64;
    let rank = (n * q_num).div_ceil(q_den).max(1);
    (n >= rank + MIN_BEYOND).then(|| percentile(sorted, q_num, q_den))
}

/// Arithmetic mean; 0 on an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Median of unsorted samples (mean of the middle pair); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median latency of each window of a run. The run is cut at batch
/// boundaries into at most `max_windows` windows of at least `min_batches`
/// batches (one window when the run is shorter), so a burst of host
/// interference moves one window's median, not the run's. Batch `i` brought
/// the count of answered searches to `answered_after[i]`; `latency_ns` holds
/// one latency per answered search, in answer order.
pub fn window_medians(
    answered_after: &[usize],
    latency_ns: &[u64],
    min_batches: usize,
    max_windows: usize,
) -> Vec<u64> {
    let n = answered_after.len();
    let k = (n / min_batches.max(1)).clamp(1, max_windows.max(1));
    let end = |b: usize| b.checked_sub(1).and_then(|i| answered_after.get(i)).copied().unwrap_or(0);
    (0..k)
        .filter_map(|w| {
            let mut lat = latency_ns.get(end(w * n / k)..end((w + 1) * n / k))?.to_vec();
            lat.sort_unstable();
            (!lat.is_empty()).then(|| percentile(&lat, 50, 100))
        })
        .collect()
}

/// Closed-loop request accounting. Searches and writes are counted apart.
/// Every attempted search ends served or shed by the serving loop; an error
/// from the library aborts the run instead of being counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Accounting {
    pub searches_attempted: u64,
    pub searches_served: u64,
    pub shed_capacity: u64,
    pub shed_deadline: u64,
    pub writes: u64,
}

impl Accounting {
    /// `true` when every attempted search is accounted for exactly once.
    pub fn balanced(&self) -> bool {
        self.searches_attempted == self.searches_served + self.shed_capacity + self.shed_deadline
    }

    /// Share of attempted searches that were answered; 0 when none ran.
    pub fn served_ratio(&self) -> f64 {
        if self.searches_attempted == 0 {
            0.0
        } else {
            self.searches_served as f64 / self.searches_attempted as f64
        }
    }
}

/// FNV-1a fold of the served `(qid, nearest, source)` stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checksum(u64);

impl Default for Checksum {
    fn default() -> Self {
        Checksum(0xcbf2_9ce4_8422_2325)
    }
}

impl Checksum {
    /// Folds one served answer; `source` is the serving replica, or
    /// `u64::MAX` for the digital oracle.
    pub fn fold(&mut self, qid: u64, nearest: u64, source: u64) {
        for word in [qid, nearest, source] {
            for byte in word.to_le_bytes() {
                self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smallest sample count at which [`supported_percentile`] reports
    /// `q_num / q_den`.
    pub fn min_samples_for(q_num: u64, q_den: u64) -> u64 {
        (1..).find(|&n: &u64| n >= (n * q_num).div_ceil(q_den).max(1) + MIN_BEYOND).unwrap_or(0)
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_its_rank() {
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(supported_percentile(&s, 99, 100), Some(990));
        assert_eq!(supported_percentile(&s, 50, 100), Some(500));
        let s: Vec<u64> = (1..=999).collect();
        assert_eq!(supported_percentile(&s, 99, 100), None);
        assert_eq!(supported_percentile(&s, 50, 100), Some(500));
        assert_eq!(supported_percentile(&[], 50, 100), None);
        assert_eq!(supported_percentile(&[5; 20], 50, 100), Some(5));
        assert_eq!(supported_percentile(&[5; 19], 50, 100), None);
        assert_eq!(supported_percentile(&[5; 10], 1, 100), None);
    }

    #[test]
    fn sample_floor_matches_the_rule() {
        assert_eq!(min_samples_for(99, 100), 1000);
        assert_eq!(min_samples_for(90, 100), 100);
        assert_eq!(min_samples_for(50, 100), 20);
        for (q, d) in [(99, 100), (90, 100), (50, 100), (999, 1000)] {
            let n = min_samples_for(q, d);
            let s: Vec<u64> = (0..n).collect();
            assert!(supported_percentile(&s, q, d).is_some());
            assert!(supported_percentile(&s[1..], q, d).is_none());
        }
    }

    #[test]
    fn windows_cut_at_batch_boundaries() {
        // Six batches of two searches; the fourth batch stalled.
        let after = [2, 4, 6, 8, 10, 12];
        let lat = [1, 1, 2, 2, 3, 3, 90, 90, 4, 4, 5, 5];
        assert_eq!(window_medians(&after, &lat, 2, 10), vec![1, 3, 4]);
        let meds: Vec<f64> =
            window_medians(&after, &lat, 2, 10).iter().map(|&m| m as f64).collect();
        assert_eq!(median(&meds), 3.0);
        // Too few batches for two windows: one window over everything.
        assert_eq!(window_medians(&after, &lat, 4, 10), vec![3]);
        // The cap wins over the batch floor.
        assert_eq!(window_medians(&after, &lat, 1, 2), vec![2, 5]);
        assert!(window_medians(&[], &[], 100, 10).is_empty());
    }

    #[test]
    fn medians_and_means() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn accounting_balances_searches_apart_from_writes() {
        let mut a = Accounting {
            searches_attempted: 10,
            searches_served: 6,
            shed_capacity: 3,
            shed_deadline: 1,
            writes: 4,
        };
        assert!(a.balanced());
        assert_eq!(a.served_ratio(), 0.6);
        // Writes never enter the search balance.
        a.writes += 100;
        assert!(a.balanced());
        a.searches_served += 1;
        assert!(!a.balanced());
        assert_eq!(Accounting::default().served_ratio(), 0.0);
    }

    #[test]
    fn checksum_is_order_sensitive() {
        let mut a = Checksum::default();
        let mut b = Checksum::default();
        a.fold(0, 5, 1);
        a.fold(1, 7, u64::MAX);
        b.fold(1, 7, u64::MAX);
        b.fold(0, 5, 1);
        assert_ne!(a, b);
        let mut c = Checksum::default();
        c.fold(0, 5, 1);
        c.fold(1, 7, u64::MAX);
        assert_eq!(a.hex(), c.hex());
        assert_eq!(Checksum::default().hex(), "cbf29ce484222325");
    }
}
