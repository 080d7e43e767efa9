//! Structure-of-arrays store of an array's logical rows.
//!
//! * [`SoaCodes`] — every stored symbol as one `u8` in a single contiguous
//!   `rows × dim` buffer. It is the array's only copy of its rows: the
//!   mutators write it, the kernels read it, and every other reader
//!   (programming, verify, scrub, the digital oracle) decodes from it.
//! * [`balanced_ranges`] — work partitioning (query chunks for the Ideal
//!   kernel, row ranges for the Noisy one) that hands every worker a
//!   chunk (sizes differ by at most one), instead of the `div_ceil`-sized
//!   chunks that left workers idle on non-divisible batches.
//! * The per-query current LUT ([`query_lut`]) behind the Ideal batch
//!   kernel: `lut[d · n_stored + s]` is the exact integer current of
//!   stored symbol `s` against query symbol `d`'s drive, laid out so one
//!   query's rows are contiguous.
//!
//! # Bit-identity
//!
//! The LUT kernel accumulates in `u64` and converts once at the end, while
//! the scalar reference path ([`crate::array::FerexArray::distances`])
//! sums the same integers in `f64`. These agree bit for bit because every
//! partial sum is a non-negative integer far below 2⁵³ (the worst case,
//! `max_vds_multiple × k × dim`, is ≤ 63 × 6 × dim): integer-valued `f64`
//! addition is exact in that range, so the scalar `f64` running sum *is*
//! the integer sum, and `sum as f64` reproduces it exactly.

use crate::encoding::CellEncoding;
use std::ops::Range;

/// Number of symbol levels a `u8` code can hold: the array's `validate`
/// rejects any symbol at or above this, so storing a symbol as a code is
/// the identity.
pub(crate) const CODE_LEVELS: usize = 256;

/// Contiguous `rows × dim` buffer of stored symbol codes, one byte per
/// symbol — the only store of an array's logical rows.
#[derive(Debug, Clone, Default)]
pub(crate) struct SoaCodes {
    codes: Vec<u8>,
    dim: usize,
}

impl SoaCodes {
    /// An empty buffer for `dim`-symbol rows.
    pub(crate) fn new(dim: usize) -> Self {
        SoaCodes { codes: Vec::new(), dim }
    }

    /// Appends one row.
    pub(crate) fn push_row(&mut self, row: &[u32]) {
        debug_assert_eq!(row.len(), self.dim);
        self.codes.extend(row.iter().map(|&s| (s & 0xff) as u8)); // lint:allow(cast-truncation/narrowing, reason = "validate rejects symbols >= CODE_LEVELS, so the mask is the identity")
    }

    /// Overwrites row `r` in place; out-of-range rows are ignored.
    pub(crate) fn set_row(&mut self, r: usize, row: &[u32]) {
        debug_assert_eq!(row.len(), self.dim);
        let base = r * self.dim;
        let Some(dst) = self.codes.get_mut(base..base + self.dim) else { return };
        for (dst, &s) in dst.iter_mut().zip(row) {
            *dst = (s & 0xff) as u8; // lint:allow(cast-truncation/narrowing, reason = "validate rejects symbols >= CODE_LEVELS, so the mask is the identity")
        }
    }

    /// Zeroes row `r` in place — the reclaim path of tombstone
    /// compaction and the rollback path of a failed delta write, with no
    /// scratch allocation. Out-of-range rows are ignored.
    pub(crate) fn zero_row(&mut self, r: usize) {
        let base = r * self.dim;
        if let Some(row) = self.codes.get_mut(base..base + self.dim) {
            row.fill(0);
        }
    }

    /// Drops every row.
    pub(crate) fn clear(&mut self) {
        self.codes.clear();
    }

    /// The whole buffer, row-major.
    #[cfg(test)]
    pub(crate) fn as_slice(&self) -> &[u8] {
        &self.codes
    }

    /// Row `r`'s codes, or `None` past the last row.
    pub(crate) fn row(&self, r: usize) -> Option<&[u8]> {
        self.codes.get(r * self.dim..(r + 1) * self.dim)
    }

    /// Every row's codes, in row order.
    pub(crate) fn iter(&self) -> std::slice::ChunksExact<'_, u8> {
        self.codes.chunks_exact(self.dim)
    }

    /// Number of complete rows held.
    pub(crate) fn rows(&self) -> usize {
        self.codes.len().checked_div(self.dim).unwrap_or(0)
    }
}

/// Splits `0..len` into at most `parts` contiguous ranges whose lengths
/// differ by at most one — every range non-empty, every worker busy.
///
/// The old batch chunking used `par_chunks(len.div_ceil(threads))`,
/// which over-fills early chunks and can leave a large fraction of the
/// pool idle (9 queries over 8 workers became 5 chunks of 2 with 3
/// workers doing nothing). Chunk boundaries never affect results — each
/// query's distances depend only on that query — so rebalancing is free.
pub(crate) fn balanced_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    let n = parts.max(1).min(len);
    let base = len.checked_div(n).unwrap_or(0);
    let rem = len.checked_rem(n).unwrap_or(0);
    let mut out = Vec::with_capacity(n);
    let mut start = 0;
    for i in 0..n {
        let size = base + usize::from(i < rem);
        out.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    out
}

/// Builds one query's current LUT: `lut[d · n_stored + s]` is the exact
/// integer current stored symbol `s` contributes under query symbol
/// `query[d]`'s column drive. One query's `dim` LUT rows are contiguous,
/// so the row-distance loop walks two dense buffers in step.
pub(crate) fn query_lut(encoding: &CellEncoding, query: &[u32]) -> Vec<u64> {
    let n_stored = encoding.n_stored();
    let mut lut = Vec::with_capacity(query.len() * n_stored);
    for &q in query {
        for s in 0..n_stored {
            lut.push(u64::from(encoding.cell_current(q as usize, s)));
        }
    }
    lut
}

/// Row distance through a per-query LUT: `Σ_d lut[d · n_stored + codes[d]]`.
#[inline]
pub(crate) fn lut_distance(lut: &[u64], n_stored: usize, codes: &[u8]) -> u64 {
    // lint:allow(panic-safety/index, reason = "hot kernel: lut is dim x n_stored for the same dim as codes, and every code is below n_stored (validated at store time)")
    codes.iter().enumerate().map(|(d, &c)| lut[d * n_stored + c as usize]).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soa_codes_apply_row_mutations() {
        let mut soa = SoaCodes::new(3);
        soa.push_row(&[0, 1, 2]);
        soa.push_row(&[3, 4, 5]);
        soa.push_row(&[6, 7, 8]);
        assert_eq!(soa.rows(), 3);
        assert_eq!(soa.row(1), Some(&[3, 4, 5][..]));
        assert_eq!(soa.row(3), None);
        soa.set_row(1, &[9, 9, 9]);
        assert_eq!(soa.row(1), Some(&[9, 9, 9][..]));
        soa.set_row(3, &[1, 1, 1]);
        assert_eq!(soa.as_slice(), &[0, 1, 2, 9, 9, 9, 6, 7, 8]);
        soa.clear();
        assert!(soa.as_slice().is_empty());
        assert_eq!(soa.rows(), 0);
    }

    #[test]
    fn zero_row_clears_in_place_and_ignores_out_of_range() {
        let mut soa = SoaCodes::new(3);
        soa.push_row(&[1, 2, 3]);
        soa.push_row(&[4, 5, 6]);
        soa.zero_row(0);
        assert_eq!(soa.as_slice(), &[0, 0, 0, 4, 5, 6]);
        soa.zero_row(7);
        assert_eq!(soa.as_slice(), &[0, 0, 0, 4, 5, 6]);
        assert_eq!(soa.rows(), 2);
    }

    #[test]
    fn balanced_ranges_cover_everything_with_near_equal_sizes() {
        for len in 0..40usize {
            for parts in 1..12usize {
                let ranges = balanced_ranges(len, parts);
                assert_eq!(ranges.len(), parts.min(len));
                let mut expect = 0;
                let mut sizes = Vec::new();
                for r in &ranges {
                    assert_eq!(r.start, expect, "gap at len={len} parts={parts}");
                    assert!(!r.is_empty(), "empty chunk at len={len} parts={parts}");
                    sizes.push(r.len());
                    expect = r.end;
                }
                assert_eq!(expect, len, "ranges must cover 0..{len}");
                if let (Some(&max), Some(&min)) = (sizes.iter().max(), sizes.iter().min()) {
                    assert!(max - min <= 1, "imbalance at len={len} parts={parts}: {sizes:?}");
                }
            }
        }
    }

    #[test]
    fn balanced_ranges_fix_the_nine_over_eight_case() {
        // The motivating bug: 9 queries over 8 workers previously produced
        // 5 chunks of div_ceil(9, 8) = 2, idling 3 workers.
        let ranges = balanced_ranges(9, 8);
        assert_eq!(ranges.len(), 8);
        let sizes: Vec<usize> = ranges.iter().map(Range::len).collect();
        assert_eq!(sizes, vec![2, 1, 1, 1, 1, 1, 1, 1]);
    }
}
