//! Search delay model (paper Fig. 6(b)).
//!
//! The paper decomposes the search delay into (1) ScL voltage stabilization
//! through the interface op-amp — about 60 % of the total, limited by the
//! op-amp's slew rate — and (2) the LTA comparison. Both pieces come from
//! the behavioral models in [`crate::opamp`] and [`crate::lta`]; this module
//! combines them for a given array geometry.

use crate::lta::LtaParams;
use crate::opamp::OpAmpParams;
use crate::parasitics::WireParams;
use ferex_fefet::units::{Second, Volt};

/// Delay model inputs for one array geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayModel {
    /// Op-amp behavioral parameters.
    pub opamp: OpAmpParams,
    /// LTA behavioral parameters.
    pub lta: LtaParams,
    /// Wire parasitics.
    pub wire: WireParams,
    /// Worst-case ScL step the op-amp must absorb when the search stimulus
    /// lands (drain-line swing coupling onto the line).
    pub scl_step: Volt,
    /// Settling accuracy target (fraction of final value).
    pub accuracy: f64,
}

impl Default for DelayModel {
    fn default() -> Self {
        DelayModel {
            opamp: OpAmpParams::default(),
            lta: LtaParams::default(),
            wire: WireParams::default(),
            scl_step: Volt(0.5),
            accuracy: 0.01,
        }
    }
}

/// Delay breakdown of one search operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayBreakdown {
    /// ScL settling through the op-amp (includes wire RC).
    pub scl_settle: Second,
    /// LTA comparison time.
    pub lta_compare: Second,
}

impl DelayBreakdown {
    /// Total search delay.
    pub fn total(&self) -> Second {
        self.scl_settle + self.lta_compare
    }

    /// Fraction of the total delay spent settling the ScL.
    pub fn scl_fraction(&self) -> f64 {
        self.scl_settle.value() / self.total().value()
    }
}

impl DelayModel {
    /// Search delay for an array of `rows` × `cols` physical cells.
    pub fn search_delay(&self, rows: usize, cols: usize) -> DelayBreakdown {
        DelayBreakdown {
            scl_settle: self.opamp.settle_time(self.scl_step, &self.wire, cols, self.accuracy),
            lta_compare: self.lta.delay(rows),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scl_settle_dominates_per_the_paper() {
        // "About 60 % of the total delay comes from ScL voltage
        // stabilization associated with the op-amp."
        let m = DelayModel::default();
        let d = m.search_delay(64, 64);
        let f = d.scl_fraction();
        assert!((0.45..0.8).contains(&f), "ScL fraction {f} far from the paper's ~60 %");
    }

    #[test]
    fn delay_grows_gradually_with_array_size() {
        let m = DelayModel::default();
        let small = m.search_delay(16, 16).total().value();
        let large = m.search_delay(256, 256).total().value();
        assert!(large > small);
        assert!(large < 2.0 * small, "delay scaling too steep: {small} → {large}");
    }

    #[test]
    fn total_in_nanosecond_regime() {
        let m = DelayModel::default();
        let t = m.search_delay(128, 128).total().value();
        assert!((2e-9..30e-9).contains(&t), "total delay {t}");
    }

    #[test]
    fn rows_only_affect_lta_cols_only_affect_scl() {
        let m = DelayModel::default();
        let base = m.search_delay(64, 64);
        let more_rows = m.search_delay(256, 64);
        let more_cols = m.search_delay(64, 256);
        assert_eq!(base.scl_settle, more_rows.scl_settle);
        assert!(more_rows.lta_compare > base.lta_compare);
        assert_eq!(base.lta_compare, more_cols.lta_compare);
        assert!(more_cols.scl_settle > base.scl_settle);
    }
}
