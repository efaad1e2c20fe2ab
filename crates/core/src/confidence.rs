//! Confidence estimation for trace predictions.
//!
//! An extension following the authors' companion work (Jacobson, Rotenberg
//! & Smith, *Assigning Confidence to Conditional Branch Predictions*,
//! MICRO-29, 1996), applied at trace granularity: a table of **resetting
//! counters** indexed by the same path information as the predictor. A
//! counter increments (saturating) when the prediction at its index is
//! correct, and resets to zero on a misprediction; a prediction is flagged
//! high-confidence when the counter is at or above a threshold.
//!
//! High-confidence predictions are the ones a trace processor would let
//! run far ahead (or use to gate selective dual-path fetch); the metrics
//! reported here are the standard ones: coverage of each confidence class
//! and the misprediction rate within it.

use crate::{Dolc, NextTracePredictor, Observer, PathHistory, Prediction, PredictorStats};
use ntp_trace::{HashedId, TraceRecord};

/// Configuration of a [`ConfidenceEstimator`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ConfidenceConfig {
    /// log2 of the resetting-counter table size.
    pub index_bits: u32,
    /// Counter width in bits (the MICRO-29 paper uses small counters).
    pub counter_bits: u8,
    /// Values at or above this are high confidence.
    pub threshold: u8,
    /// Index generation: the same DOLC scheme as the predictor, so
    /// confidence is assigned per path, not per trace.
    pub dolc: Dolc,
}

impl ConfidenceConfig {
    /// A reasonable default: 2^14 four-bit resetting counters, threshold
    /// at saturation, depth-7 path indexing.
    pub fn paper_like() -> ConfidenceConfig {
        ConfidenceConfig {
            index_bits: 14,
            counter_bits: 4,
            threshold: 15,
            dolc: Dolc::standard(7, 15),
        }
    }

    fn max(&self) -> u8 {
        ((1u16 << self.counter_bits) - 1) as u8
    }

    /// Validates the configuration: table size, counter width, and a
    /// threshold the counter can reach.
    pub fn validate(&self) -> Result<(), crate::ConfigError> {
        crate::error::in_range("confidence.index_bits", self.index_bits as u64, 1, 24)?;
        crate::error::in_range("confidence.counter_bits", self.counter_bits as u64, 1, 8)?;
        crate::error::in_range(
            "confidence.threshold",
            self.threshold as u64,
            0,
            self.max() as u64,
        )?;
        self.dolc.validate()
    }
}

/// A table of resetting counters assigning confidence to trace predictions.
///
/// # Examples
///
/// ```
/// use ntp_core::{ConfidenceConfig, ConfidenceEstimator, PathHistory};
/// use ntp_trace::HashedId;
///
/// let mut est = ConfidenceEstimator::new(ConfidenceConfig::paper_like());
/// let mut hist: PathHistory<HashedId> = PathHistory::new(8);
/// hist.push(HashedId(0x1234));
/// assert!(!est.is_confident(&hist), "cold counters are low confidence");
/// for _ in 0..15 {
///     est.update(&hist, true);
/// }
/// assert!(est.is_confident(&hist));
/// est.update(&hist, false);
/// assert!(!est.is_confident(&hist), "one miss resets");
/// ```
#[derive(Clone, Debug)]
pub struct ConfidenceEstimator {
    counters: Vec<u8>,
    cfg: ConfidenceConfig,
}

impl ConfidenceEstimator {
    /// Builds an estimator with all counters at zero (low confidence).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: ConfidenceConfig) -> ConfidenceEstimator {
        if let Err(e) = cfg.validate() {
            panic!("invalid confidence config: {e}");
        }
        ConfidenceEstimator {
            counters: vec![0; 1 << cfg.index_bits],
            cfg,
        }
    }

    fn slot(&self, history: &PathHistory<HashedId>) -> usize {
        self.cfg.dolc.index(history, self.cfg.index_bits) as usize
    }

    /// The raw counter value for the current path.
    pub fn value(&self, history: &PathHistory<HashedId>) -> u8 {
        self.counters[self.slot(history)]
    }

    /// True if the prediction made from this path should be trusted.
    pub fn is_confident(&self, history: &PathHistory<HashedId>) -> bool {
        self.value(history) >= self.cfg.threshold
    }

    /// Trains the resetting counter for this path.
    pub fn update(&mut self, history: &PathHistory<HashedId>, correct: bool) {
        let slot = self.slot(history);
        let c = &mut self.counters[slot];
        if correct {
            *c = (*c + 1).min(self.cfg.max());
        } else {
            *c = 0;
        }
    }

    /// Forgets everything.
    pub fn reset(&mut self) {
        self.counters.fill(0);
    }
}

/// Outcome counts split by assigned confidence.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConfidenceStats {
    /// High-confidence predictions that were correct.
    pub high_correct: u64,
    /// High-confidence predictions that missed.
    pub high_wrong: u64,
    /// Low-confidence predictions that were correct.
    pub low_correct: u64,
    /// Low-confidence predictions that missed.
    pub low_wrong: u64,
    /// Underlying prediction accuracy (same as plain [`crate::evaluate`]).
    pub prediction: PredictorStats,
}

impl ConfidenceStats {
    /// Fraction of predictions flagged high confidence.
    pub fn coverage(&self) -> f64 {
        let high = self.high_correct + self.high_wrong;
        let total = high + self.low_correct + self.low_wrong;
        if total == 0 {
            0.0
        } else {
            high as f64 / total as f64
        }
    }

    /// Misprediction rate among high-confidence predictions, in percent —
    /// the number a speculation controller cares about.
    pub fn high_mispredict_pct(&self) -> f64 {
        let high = self.high_correct + self.high_wrong;
        if high == 0 {
            0.0
        } else {
            100.0 * self.high_wrong as f64 / high as f64
        }
    }

    /// Misprediction rate among low-confidence predictions, in percent.
    pub fn low_mispredict_pct(&self) -> f64 {
        let low = self.low_correct + self.low_wrong;
        if low == 0 {
            0.0
        } else {
            100.0 * self.low_wrong as f64 / low as f64
        }
    }

    /// Fraction of all mispredictions that were flagged low confidence
    /// (how many pipeline flushes a gating mechanism could avoid).
    pub fn mispredictions_caught(&self) -> f64 {
        let wrong = self.high_wrong + self.low_wrong;
        if wrong == 0 {
            0.0
        } else {
            self.low_wrong as f64 / wrong as f64
        }
    }
}

/// An [`Observer`] of a [`NextTracePredictor`] replay with a confidence
/// estimator riding along: each prediction is classed by the counter for
/// its path, then the counter learns whether it was right, before the
/// predictor's own immediate update.
pub struct ConfidenceObserver {
    estimator: ConfidenceEstimator,
    stats: ConfidenceStats,
}

impl ConfidenceObserver {
    /// Observes with a fresh [`ConfidenceEstimator`], from zeroed counts.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: ConfidenceConfig) -> ConfidenceObserver {
        ConfidenceObserver {
            estimator: ConfidenceEstimator::new(cfg),
            stats: ConfidenceStats::default(),
        }
    }

    /// The confidence counts, completed with the replay's own accuracy.
    pub fn finish(self, prediction: PredictorStats) -> ConfidenceStats {
        ConfidenceStats {
            prediction,
            ..self.stats
        }
    }
}

impl Observer<NextTracePredictor> for ConfidenceObserver {
    fn observe(
        &mut self,
        _: usize,
        pred: &Prediction,
        actual: &TraceRecord,
        predictor: &NextTracePredictor,
    ) {
        let confident = self.estimator.is_confident(predictor.history());
        let correct = pred.is_correct(actual.id());
        match (confident, correct) {
            (true, true) => self.stats.high_correct += 1,
            (true, false) => self.stats.high_wrong += 1,
            (false, true) => self.stats.low_correct += 1,
            (false, false) => self.stats.low_wrong += 1,
        }
        self.estimator.update(predictor.history(), correct);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{replay_one, PredictorConfig};
    use ntp_trace::TraceId;

    /// Replays [`mixed_stream`] through a paper(15,3) predictor with a
    /// depth-3 estimator of the given threshold riding along.
    fn run(threshold: u8) -> ConfidenceStats {
        let mut p = NextTracePredictor::new(PredictorConfig::paper(15, 3));
        let obs = ConfidenceObserver::new(ConfidenceConfig {
            threshold,
            dolc: Dolc::standard(3, 15),
            ..ConfidenceConfig::paper_like()
        });
        let (prediction, obs) = replay_one(&mut p, &mixed_stream(2_000), obs);
        obs.finish(prediction)
    }

    fn rec(pc: u32) -> TraceRecord {
        TraceRecord::new(TraceId::new(pc, 0, 0), 10, 0, false, false)
    }

    /// A stream mixing fully predictable contexts with one coin-flip
    /// context: three laps of a 5-trace cycle, then a dispatcher trace `U`
    /// whose successor is a random choice of `V`/`W`, then back to the
    /// cycle. Only the prediction made after `U` is inherently
    /// unpredictable.
    fn mixed_stream(iterations: usize) -> Vec<TraceRecord> {
        let a: Vec<TraceRecord> = (0..5).map(|k| rec(0x0040_0004 + k * 0x44)).collect();
        let u = rec(0x0040_1004);
        let v = rec(0x0040_2008);
        let w = rec(0x0040_300C);
        let mut x: u32 = 77;
        let mut out = Vec::new();
        for _ in 0..iterations {
            for _ in 0..3 {
                out.extend_from_slice(&a);
            }
            out.push(u);
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            out.push(if x & 0x100 != 0 { v } else { w });
        }
        out
    }

    #[test]
    fn high_confidence_is_much_more_accurate() {
        let stats = run(4);
        assert!(stats.coverage() > 0.5, "coverage {}", stats.coverage());
        assert!(
            stats.high_mispredict_pct() * 3.0 < stats.low_mispredict_pct(),
            "high {}% vs low {}%",
            stats.high_mispredict_pct(),
            stats.low_mispredict_pct()
        );
        assert!(
            stats.mispredictions_caught() > 0.7,
            "caught {}",
            stats.mispredictions_caught()
        );
    }

    #[test]
    fn threshold_trades_coverage_for_purity() {
        let lax = run(1);
        let strict = run(8);
        assert!(lax.coverage() > strict.coverage());
        assert!(lax.high_mispredict_pct() >= strict.high_mispredict_pct());
    }

    #[test]
    fn stats_edge_cases() {
        let empty = ConfidenceStats::default();
        assert_eq!(empty.coverage(), 0.0);
        assert_eq!(empty.high_mispredict_pct(), 0.0);
        assert_eq!(empty.low_mispredict_pct(), 0.0);
        assert_eq!(empty.mispredictions_caught(), 0.0);
    }

    #[test]
    fn threshold_above_saturation_rejected() {
        assert!(ConfidenceConfig {
            counter_bits: 2,
            threshold: 4,
            ..ConfidenceConfig::paper_like()
        }
        .validate()
        .is_err());
    }
}
