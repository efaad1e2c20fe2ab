//! # ntp-core — path-based next trace prediction
//!
//! This crate implements the contribution of *Path-Based Next Trace
//! Prediction* (Jacobson, Rotenberg & Smith, MICRO-30, 1997): a predictor
//! that treats traces as the unit of prediction and explicitly predicts
//! sequences of traces from a *path history* of hashed trace identifiers.
//!
//! Components, in paper order:
//!
//! * [`PathHistory`] — the shift register of hashed trace IDs (§3.2),
//!   updated speculatively with checkpoint/restore support;
//! * [`Dolc`] — the Depth/Older/Last/Current index-generation scheme with
//!   XOR folding (§3.2, Table 3);
//! * [`NextTracePredictor`] — the bounded hybrid predictor: tagged
//!   correlating table + secondary table (§3.3), optional
//!   [`ReturnHistoryStack`] (§3.4), alternate prediction (§6), and the
//!   cost-reduced hashed-target entry format (§5.5);
//! * [`UnboundedPredictor`] — the no-aliasing model of §5.2 (Figure 6);
//! * [`replay`]/[`PredictorStats`] — the immediate-update replay
//!   methodology of §4.1 as one kernel over [`Lane`]s: predict, score,
//!   show the step to the lane's [`Observer`], update. One lane is scalar
//!   replay ([`evaluate`]); two or more interleave one record per lane per
//!   round and overlap their table gathers (bit-identical per lane).
//!   Observers: `()` for none, [`SinkObserver`] for telemetry events and
//!   miss streaks, [`ConfidenceObserver`] for confidence assignment.
//!
//! # Example
//!
//! ```
//! use ntp_core::{evaluate, NextTracePredictor, PredictorConfig};
//! use ntp_trace::{TraceId, TraceRecord};
//!
//! // A repeating 3-trace cycle is learned almost immediately.
//! let cycle: Vec<TraceRecord> = (0..300)
//!     .map(|k| {
//!         let pc = 0x0040_0000 + (k % 3) * 0x80;
//!         TraceRecord::new(TraceId::new(pc, 0b01, 2), 12, 0, false, false)
//!     })
//!     .collect();
//! let mut predictor = NextTracePredictor::new(PredictorConfig::paper(15, 7));
//! let stats = evaluate(&mut predictor, &cycle);
//! assert!(stats.mispredict_pct() < 5.0);
//! ```

#![warn(missing_docs)]

mod confidence;
mod config;
mod counter;
mod dolc;
mod error;
mod history;
mod prediction;
mod predictor;
mod replay;
mod rhs;
mod stats;
mod telemetry;
mod unbounded;

pub use confidence::{ConfidenceConfig, ConfidenceEstimator, ConfidenceObserver, ConfidenceStats};
pub use config::{PredictorConfig, StoredTarget};
pub use counter::{Counter, CounterSpec};
pub use dolc::Dolc;
pub use error::ConfigError;
pub use history::PathHistory;
pub use prediction::{Prediction, Source, Target, TracePredictor};
pub use predictor::{
    AliasingCounters, Checkpoint, IndexSnapshot, NextTracePredictor, PredictorState, StateError,
    TableOccupancy,
};
pub use replay::{evaluate, evaluate_batch_fresh, replay, replay_one, Lane, Observer};
pub use rhs::{ReturnHistoryStack, RhsConfig, RHS_SNAPSHOT_CAP};
pub use stats::{PredictorStats, PREDICTOR_STATS_FIELDS};
pub use telemetry::{predictor_section, SinkObserver};
pub use unbounded::{UnboundedConfig, UnboundedPredictor};
