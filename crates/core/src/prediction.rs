//! Prediction results and the predictor trait shared by the bounded,
//! unbounded and baseline trace predictors.

use ntp_trace::{HashedId, TraceId, TraceRecord};

/// Which component produced a prediction.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Source {
    /// The path-correlating table (tag hit).
    Correlated,
    /// The secondary (last-trace-indexed) table.
    Secondary,
    /// No table had anything useful (cold start); counted as a
    /// misprediction.
    Cold,
}

/// A predicted next-trace target: either a full identifier or, for the
/// cost-reduced predictor, only its hashed form.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Target {
    /// Full 36-bit trace identifier.
    Full(TraceId),
    /// 16-bit hashed identifier (§5.5). The trace cache holds the full
    /// identifier and validates it during fetch.
    Hashed(HashedId),
}

impl Target {
    /// Whether this prediction names `actual`.
    ///
    /// A hashed target matches when the hashes agree — the cost-reduced
    /// predictor's intrinsic (and, per the paper, insignificant) ambiguity.
    pub fn matches(&self, actual: TraceId) -> bool {
        match self {
            Target::Full(id) => id.packed() == actual.packed(),
            Target::Hashed(h) => *h == actual.hashed(),
        }
    }
}

/// The output of one prediction: a primary target, an optional alternate
/// (§6), and the component that supplied the primary.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Prediction {
    /// The predicted next trace (`None` on a cold start).
    pub target: Option<Target>,
    /// The second-choice trace from the correlating entry, if alternate
    /// prediction is enabled and available.
    pub alternate: Option<Target>,
    /// Who produced `target`.
    pub source: Source,
}

impl Prediction {
    /// A cold (no-information) prediction.
    pub fn cold() -> Prediction {
        Prediction {
            target: None,
            alternate: None,
            source: Source::Cold,
        }
    }

    /// True if the primary prediction names `actual`.
    pub fn is_correct(&self, actual: TraceId) -> bool {
        self.target.map(|t| t.matches(actual)).unwrap_or(false)
    }

    /// True if the alternate names `actual`.
    pub fn alternate_correct(&self, actual: TraceId) -> bool {
        self.alternate.map(|t| t.matches(actual)).unwrap_or(false)
    }
}

/// Anything that predicts the next trace and learns from the actual one.
///
/// The contract is strictly alternating in immediate-update mode:
/// [`TracePredictor::predict`] (pure with respect to tables and history),
/// then [`TracePredictor::update`] with the trace that actually executed.
pub trait TracePredictor {
    /// Predicts the next trace given the current path history.
    fn predict(&self) -> Prediction;

    /// Consumes the actual next trace: trains the tables and advances the
    /// path history (including return-history-stack actions).
    fn update(&mut self, actual: &TraceRecord);

    /// Forgets all state (tables and history).
    fn reset(&mut self);

    /// Current path-history occupancy, for telemetry. Predictors without a
    /// path history (baselines) keep the default of 0.
    fn history_len(&self) -> usize {
        0
    }

    /// Hints the cache that the next [`TracePredictor::predict`] will
    /// probe the tables. [`crate::replay`] issues it for every lane before
    /// resolving any when it replays two or more lanes. A pure hint that
    /// never changes behaviour; the default does nothing.
    fn prefetch(&self) {}
}
