//! Configuration of the bounded path-based next trace predictor.

use crate::error::in_range;
use crate::{ConfigError, CounterSpec, Dolc, RhsConfig};

/// What the correlating/secondary tables store as the predicted target.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum StoredTarget {
    /// The full 36-bit trace identifier (the baseline design, 48-bit
    /// entries).
    Full,
    /// Only the 16-bit hashed identifier — the cost-reduced predictor of
    /// §5.5. The trace cache validates the full identifier, so accuracy is
    /// essentially unchanged while the entry shrinks.
    Hashed,
}

/// Full configuration of a [`crate::NextTracePredictor`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PredictorConfig {
    /// log2 of the correlating-table entry count (the paper studies 12, 15
    /// and 18).
    pub index_bits: u32,
    /// Index-generation configuration.
    pub dolc: Dolc,
    /// Tag width; the paper finds 10 bits eliminate practically all
    /// unintended cross-path hits.
    pub tag_bits: u32,
    /// Correlating-table counter policy (+1/−2 two-bit by default).
    pub primary_counter: CounterSpec,
    /// log2 of the secondary-table entry count (indexed by the hashed
    /// identifier of the most recent trace).
    pub secondary_index_bits: u32,
    /// Secondary-table counter policy (4-bit, heavy decrement).
    pub secondary_counter: CounterSpec,
    /// Return history stack, if enabled.
    pub rhs: Option<RhsConfig>,
    /// Maintain and report an alternate (second-choice) prediction (§6).
    pub alternate: bool,
    /// Entry format (§5.5 cost reduction).
    pub stored_target: StoredTarget,
}

impl PredictorConfig {
    /// The paper's configuration for a given table size and history depth:
    /// standard DOLC, 10-bit tags, a 2^14-entry secondary table, RHS on,
    /// alternate prediction off, full identifiers stored.
    ///
    /// # Panics
    ///
    /// Panics if there is no standard DOLC for `(depth, index_bits)` —
    /// see [`Dolc::standard`].
    pub fn paper(index_bits: u32, depth: usize) -> PredictorConfig {
        match PredictorConfig::try_paper(index_bits, depth) {
            Ok(cfg) => cfg,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`PredictorConfig::paper`] returning an error instead of panicking,
    /// for front ends handed the design point by a user.
    pub fn try_paper(index_bits: u32, depth: usize) -> Result<PredictorConfig, ConfigError> {
        let cfg = PredictorConfig {
            index_bits,
            dolc: Dolc::try_standard(depth, index_bits)?,
            tag_bits: 10,
            primary_counter: CounterSpec::PRIMARY,
            secondary_index_bits: 14,
            secondary_counter: CounterSpec::SECONDARY,
            rhs: Some(RhsConfig::default()),
            alternate: false,
            stored_target: StoredTarget::Full,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Same as [`PredictorConfig::paper`] with alternate prediction enabled
    /// (Figure 8).
    pub fn paper_with_alternate(index_bits: u32, depth: usize) -> PredictorConfig {
        PredictorConfig {
            alternate: true,
            ..PredictorConfig::paper(index_bits, depth)
        }
    }

    /// History register capacity needed by this configuration.
    pub fn history_capacity(&self) -> usize {
        self.dolc.depth + 1
    }

    /// Correlating-table entry count.
    pub fn corr_entries(&self) -> usize {
        1usize << self.index_bits
    }

    /// Secondary-table entry count.
    pub fn secondary_entries(&self) -> usize {
        1usize << self.secondary_index_bits
    }

    /// Bits per correlating-table entry (§5.5's cost accounting): target +
    /// counter + tag (+ alternate target if enabled).
    pub fn corr_entry_bits(&self) -> u64 {
        let target = match self.stored_target {
            StoredTarget::Full => 36,
            StoredTarget::Hashed => 16,
        };
        let alt = if self.alternate { target } else { 0 };
        target + alt + self.primary_counter.bits as u64 + self.tag_bits as u64
    }

    /// Total correlating-table size in bits.
    pub fn corr_table_bits(&self) -> u64 {
        self.corr_entry_bits() * self.corr_entries() as u64
    }

    /// Validates the configuration: table sizes, tag width, counter
    /// policies and DOLC consistency (see [`Dolc::validate`]).
    pub fn validate(&self) -> Result<(), ConfigError> {
        in_range("predictor.index_bits", self.index_bits as u64, 1, 30)?;
        in_range(
            "predictor.secondary_index_bits",
            self.secondary_index_bits as u64,
            1,
            20,
        )?;
        in_range("predictor.tag_bits", self.tag_bits as u64, 0, 16)?;
        self.primary_counter.validate()?;
        self.secondary_counter.validate()?;
        self.dolc.validate()?;
        if let Some(rhs) = &self.rhs {
            in_range("predictor.rhs.max_depth", rhs.max_depth as u64, 1, 1 << 20)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_shape() {
        let c = PredictorConfig::paper(15, 7);
        assert!(c.validate().is_ok());
        assert_eq!(c.corr_entries(), 1 << 15);
        assert_eq!(c.history_capacity(), 8);
        assert_eq!(c.corr_entry_bits(), 48); // 36 + 2 + 10, the paper's number
    }

    #[test]
    fn cost_reduced_entry_is_smaller() {
        let mut c = PredictorConfig::paper(15, 7);
        c.stored_target = StoredTarget::Hashed;
        assert_eq!(c.corr_entry_bits(), 28); // 16 + 2 + 10
        assert!(c.corr_table_bits() < PredictorConfig::paper(15, 7).corr_table_bits());
    }

    #[test]
    fn alternate_doubles_target_storage() {
        let c = PredictorConfig::paper_with_alternate(12, 3);
        assert_eq!(c.corr_entry_bits(), 36 + 36 + 2 + 10);
    }

    #[test]
    fn try_paper_rejects_unknown_design_points_cleanly() {
        use crate::ConfigError;
        assert!(matches!(
            PredictorConfig::try_paper(13, 3),
            Err(ConfigError::NoStandardDolc { .. })
        ));
        assert!(matches!(
            PredictorConfig::try_paper(15, 9),
            Err(ConfigError::NoStandardDolc { .. })
        ));
        assert_eq!(
            PredictorConfig::try_paper(15, 3).unwrap(),
            PredictorConfig::paper(15, 3)
        );
    }

    #[test]
    fn validate_names_hostile_fields() {
        use crate::ConfigError;
        let mut c = PredictorConfig::paper(15, 3);
        c.index_bits = 0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::OutOfRange {
                field: "predictor.index_bits",
                value: 0,
                ..
            })
        ));
        let mut c = PredictorConfig::paper(15, 3);
        c.tag_bits = 17;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::OutOfRange {
                field: "predictor.tag_bits",
                value: 17,
                ..
            })
        ));
        let mut c = PredictorConfig::paper(15, 3);
        c.dolc.older = 9; // depth-3 DOLC with a legal-but-different width is fine...
        assert!(c.validate().is_ok());
        c.dolc = Dolc {
            depth: 0,
            older: 4,
            last: 0,
            current: 12,
        }; // ...but phantom history bits are not.
        assert!(matches!(
            c.validate(),
            Err(ConfigError::UnusedHistoryBits { .. })
        ));
    }
}
