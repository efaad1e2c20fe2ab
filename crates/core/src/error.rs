//! Typed configuration-validation errors.
//!
//! Every configuration struct in the workspace used to enforce its
//! invariants with scattered `assert!`/`panic!` calls, which meant a
//! hostile or typo'd configuration could only be detected by catching an
//! unwinding panic — or worse, slipped through validation entirely and hung
//! or silently truncated a run (the `ntp-verify` fault-injection sweep
//! exists to catch exactly that class of fault). Each configuration type
//! now has one `validate` returning a [`ConfigError`], so front ends (CLI,
//! bench binaries, the server, the verification harness) reject bad
//! configs up front with a clean diagnostic: `cfg.validate()?` and then the
//! type's `new`. The constructors still panic on an invalid config, for
//! call sites whose configs are statically known-good.

use std::fmt;

/// A rejected configuration, with enough context to print a one-line
/// diagnostic naming the offending field and its legal range.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// A numeric field fell outside its legal closed range.
    OutOfRange {
        /// Dotted path of the field, e.g. `"engine.window"`.
        field: &'static str,
        /// The offending value.
        value: u64,
        /// Smallest legal value.
        min: u64,
        /// Largest legal value.
        max: u64,
    },
    /// A DOLC configuration claims history bits its indexing never reads:
    /// `depth == 0` with nonzero `older`/`last`, or `depth == 1` with
    /// nonzero `older`. Accepting these would let a swept ablation point
    /// lie about its effective history depth.
    UnusedHistoryBits {
        /// The declared depth.
        depth: usize,
        /// The (ignored) older-trace bit width.
        older: u32,
        /// The (ignored) last-trace bit width.
        last: u32,
    },
    /// The DOLC gather would collect more bits than the folding stage
    /// supports.
    TooManyGatheredBits {
        /// Bits the configuration gathers before folding.
        total: u32,
        /// The supported maximum.
        max: u32,
    },
    /// No standard DOLC tuple exists for the requested design point.
    NoStandardDolc {
        /// Requested history depth.
        depth: usize,
        /// Requested index width.
        index_bits: u32,
    },
    /// A saturating-counter policy whose increment or decrement is zero
    /// (the counter could never move).
    ZeroCounterStep {
        /// Which step is zero: `"inc"` or `"dec"`.
        field: &'static str,
    },
    /// The engine's instruction window is smaller than the longest legal
    /// trace, so a full-length trace could never be fetched: the stall loop
    /// would spin forever waiting for space that can never appear.
    WindowSmallerThanTrace {
        /// Configured window capacity.
        window: u32,
        /// Maximum instructions a single trace may hold.
        max_trace_len: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::OutOfRange {
                field,
                value,
                min,
                max,
            } => write!(
                f,
                "{field} = {value} is outside the legal range {min}..={max}"
            ),
            ConfigError::UnusedHistoryBits { depth, older, last } => write!(
                f,
                "DOLC depth {depth} never reads older={older}/last={last} bits; \
                 set the unused fields to 0 so the config cannot overstate its history depth"
            ),
            ConfigError::TooManyGatheredBits { total, max } => {
                write!(f, "DOLC gathers {total} bits before folding (max {max})")
            }
            ConfigError::NoStandardDolc { depth, index_bits } => write!(
                f,
                "no standard DOLC for depth {depth} with a {index_bits}-bit index \
                 (depths 0..=7, index widths 12/15/18)"
            ),
            ConfigError::ZeroCounterStep { field } => {
                write!(f, "counter {field} must be nonzero")
            }
            ConfigError::WindowSmallerThanTrace {
                window,
                max_trace_len,
            } => write!(
                f,
                "engine.window = {window} cannot hold a maximum-length trace \
                 ({max_trace_len} instructions); fetch would stall forever"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Shorthand used by the `validate` implementations.
pub(crate) fn in_range(
    field: &'static str,
    value: u64,
    min: u64,
    max: u64,
) -> Result<(), ConfigError> {
    if (min..=max).contains(&value) {
        Ok(())
    } else {
        Err(ConfigError::OutOfRange {
            field,
            value,
            min,
            max,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_field_and_range() {
        let e = in_range("predictor.index_bits", 31, 1, 30).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("predictor.index_bits"), "{msg}");
        assert!(msg.contains("31") && msg.contains("1..=30"), "{msg}");
    }

    #[test]
    fn in_range_accepts_bounds() {
        assert!(in_range("x", 1, 1, 30).is_ok());
        assert!(in_range("x", 30, 1, 30).is_ok());
        assert!(in_range("x", 0, 1, 30).is_err());
    }

    #[test]
    fn window_error_mentions_stall() {
        let e = ConfigError::WindowSmallerThanTrace {
            window: 8,
            max_trace_len: 16,
        };
        assert!(e.to_string().contains("stall"), "{e}");
    }
}
