//! The delayed-update execution model of §5.4 (Table 4).
//!
//! In the immediate-update methodology, the prediction table is trained
//! before the next prediction is made. In a real processor the history
//! register is updated speculatively at fetch (and repaired on a
//! misprediction), while the table is trained only when the trace's last
//! instruction *retires* — several traces later. This module replays a
//! recorded trace stream through that protocol with a simple cycle model:
//!
//! * one trace fetched per cycle, subject to instruction-window occupancy;
//! * in-order retirement of `issue_width` instructions per cycle;
//! * a trace's table update (captured at prediction time as an index
//!   snapshot) is applied when it fully retires;
//! * a misprediction inserts a resolution bubble during which fetch stalls
//!   but retirement (and therefore training) continues, and the history
//!   register is repaired.

use ntp_core::{ConfigError, IndexSnapshot, NextTracePredictor, PredictorStats};
use ntp_trace::{TraceRecord, MAX_TRACE_LEN};
use std::collections::VecDeque;

/// Timing parameters of the engine (paper: 8-way, 64-entry window).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Instructions retired per cycle.
    pub issue_width: u32,
    /// Instruction-window capacity.
    pub window: u32,
    /// Cycles of fetch stall after a trace misprediction resolves.
    pub mispredict_penalty: u32,
}

impl EngineConfig {
    /// Checks the timing parameters, returning the first fault found.
    ///
    /// The critical check is `window >= MAX_TRACE_LEN`: the fetch stage
    /// stalls until the window can hold the *whole* incoming trace, so a
    /// window smaller than the longest legal trace (16 instructions) could
    /// reach a state where the in-flight queue is empty, nothing can ever
    /// retire, and the stall loop spins forever. Rejecting the config here
    /// turns that hang into an immediate, named diagnostic.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.issue_width == 0 {
            return Err(ConfigError::OutOfRange {
                field: "engine.issue_width",
                value: 0,
                min: 1,
                max: u32::MAX as u64,
            });
        }
        if self.window < MAX_TRACE_LEN as u32 {
            return Err(ConfigError::WindowSmallerThanTrace {
                window: self.window,
                max_trace_len: MAX_TRACE_LEN as u32,
            });
        }
        Ok(())
    }
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            issue_width: 8,
            window: 64,
            mispredict_penalty: 8,
        }
    }
}

/// Results of a delayed-update run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Prediction accuracy accounting (same shape as immediate-update
    /// evaluation, so Table 4 compares directly).
    pub prediction: PredictorStats,
    /// Total cycles simulated.
    pub cycles: u64,
    /// Instructions fetched and retired.
    pub instrs: u64,
    /// Cycles fetch stalled on a full instruction window (included in
    /// `cycles`).
    pub stall_cycles: u64,
    /// Cycles lost to misprediction-resolution bubbles (included in
    /// `cycles`).
    pub squash_cycles: u64,
}

impl EngineStats {
    /// Retired instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instrs as f64 / self.cycles as f64
        }
    }
}

struct InFlight {
    snapshot: IndexSnapshot,
    record: TraceRecord,
    remaining: u32,
}

/// Replays a trace stream through a predictor with retire-time training and
/// speculative, repair-on-mispredict history.
///
/// # Examples
///
/// ```
/// use ntp_core::{NextTracePredictor, PredictorConfig};
/// use ntp_engine::{DelayedUpdateEngine, EngineConfig};
/// use ntp_trace::{TraceId, TraceRecord};
///
/// let records: Vec<TraceRecord> = (0..50)
///     .map(|k| TraceRecord::new(TraceId::new(0x0040_0000 + (k % 5) * 64, 0, 0), 12, 0, false, false))
///     .collect();
/// let predictor = NextTracePredictor::new(PredictorConfig::paper(12, 3));
/// let mut engine = DelayedUpdateEngine::new(predictor, EngineConfig::default());
/// let stats = engine.run(&records);
/// assert_eq!(stats.prediction.predictions, 50);
/// assert!(stats.ipc() > 0.0);
/// ```
pub struct DelayedUpdateEngine {
    predictor: NextTracePredictor,
    cfg: EngineConfig,
    in_flight: VecDeque<InFlight>,
    occupancy: u32,
}

impl DelayedUpdateEngine {
    /// Wraps a (fresh or pre-trained) predictor.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`EngineConfig::validate`] — in particular
    /// if the instruction window is smaller than the maximum trace length,
    /// which previously hung `run` in an unbounded stall loop.
    pub fn new(predictor: NextTracePredictor, cfg: EngineConfig) -> DelayedUpdateEngine {
        if let Err(e) = cfg.validate() {
            panic!("invalid engine config: {e}");
        }
        DelayedUpdateEngine {
            predictor,
            cfg,
            in_flight: VecDeque::new(),
            occupancy: 0,
        }
    }

    /// The wrapped predictor (e.g. to inspect after a run).
    pub fn predictor(&self) -> &NextTracePredictor {
        &self.predictor
    }

    /// Retires up to `issue_width` instructions; trains traces that
    /// complete.
    fn retire_one_cycle(&mut self) {
        let mut budget = self.cfg.issue_width;
        while budget > 0 {
            let Some(front) = self.in_flight.front_mut() else {
                return;
            };
            let step = front.remaining.min(budget);
            front.remaining -= step;
            budget -= step;
            self.occupancy -= step;
            if front.remaining == 0 {
                let done = self.in_flight.pop_front().expect("front exists");
                self.predictor.train_at(done.snapshot, &done.record);
            }
        }
    }

    /// Runs the cycle model over a recorded trace stream.
    pub fn run(&mut self, records: &[TraceRecord]) -> EngineStats {
        let mut stats = EngineStats::default();
        for rec in records {
            // Stall fetch while the window cannot hold this trace.
            while self.occupancy + rec.len as u32 > self.cfg.window {
                if self.in_flight.is_empty() {
                    // Defensive guard: an *empty* window that still cannot
                    // hold the trace means the trace is longer than the
                    // window itself. Retiring cannot make progress, so the
                    // old code spun here forever. Config validation rejects
                    // such windows up front; this break keeps even a
                    // hand-rolled engine from hanging.
                    break;
                }
                self.retire_one_cycle();
                stats.cycles += 1;
                stats.stall_cycles += 1;
            }

            // Predict with the *current* (possibly stale) tables and the
            // speculative history.
            let snapshot = self.predictor.indices();
            let pred = self.predictor.predict_at(snapshot);
            stats.prediction.score(&pred, rec);
            let correct = pred.is_correct(rec.id());

            // The front end advances its history speculatively. On a
            // correct prediction the speculative state equals this; on a
            // misprediction the wrong-path state is repaired at resolution,
            // leaving exactly this state. Either way training is deferred.
            self.predictor
                .advance_history(rec.id(), rec.call_count(), rec.ends_in_return());

            self.in_flight.push_back(InFlight {
                snapshot,
                record: *rec,
                remaining: rec.len as u32,
            });
            self.occupancy += rec.len as u32;
            stats.instrs += rec.len as u64;

            // One fetch cycle, plus a resolution bubble on mispredictions
            // (retirement — and therefore training — continues during the
            // bubble).
            self.retire_one_cycle();
            stats.cycles += 1;
            if !correct {
                for _ in 0..self.cfg.mispredict_penalty {
                    self.retire_one_cycle();
                    stats.cycles += 1;
                    stats.squash_cycles += 1;
                }
            }
        }
        // Drain.
        while !self.in_flight.is_empty() {
            self.retire_one_cycle();
            stats.cycles += 1;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntp_core::{evaluate, PredictorConfig};
    use ntp_trace::TraceId;

    fn rec(pc: u32) -> TraceRecord {
        TraceRecord::new(TraceId::new(pc, 0, 0), 12, 0, false, false)
    }

    fn cycle_stream(period: u32, n: usize) -> Vec<TraceRecord> {
        (0..n)
            .map(|k| rec(0x0040_0004 + (k as u32 % period) * 0x44))
            .collect()
    }

    #[test]
    fn learns_despite_delay() {
        let records = cycle_stream(5, 2000);
        let mut e = DelayedUpdateEngine::new(
            NextTracePredictor::new(PredictorConfig::paper(12, 3)),
            EngineConfig::default(),
        );
        let stats = e.run(&records);
        assert!(
            stats.prediction.mispredict_pct() < 5.0,
            "{}",
            stats.prediction.mispredict_pct()
        );
    }

    #[test]
    fn delay_costs_little_on_stable_streams() {
        let records = cycle_stream(7, 5000);
        let mut ideal = NextTracePredictor::new(PredictorConfig::paper(12, 3));
        let ideal_stats = evaluate(&mut ideal, &records);
        let mut e = DelayedUpdateEngine::new(
            NextTracePredictor::new(PredictorConfig::paper(12, 3)),
            EngineConfig::default(),
        );
        let real = e.run(&records);
        let diff = real.prediction.mispredict_pct() - ideal_stats.mispredict_pct();
        assert!(diff.abs() < 2.0, "ideal vs delayed diverge: {diff}");
    }

    #[test]
    fn mispredictions_add_cycles() {
        // Random-ish stream: lots of mispredictions, so bubbles pile up.
        let noisy: Vec<TraceRecord> = (0..500u32)
            .map(|k| rec(0x0040_0004 + (k.wrapping_mul(2654435761) % 200) * 0x24))
            .collect();
        let stable = cycle_stream(3, 500);
        let run = |records: &[TraceRecord]| {
            let mut e = DelayedUpdateEngine::new(
                NextTracePredictor::new(PredictorConfig::paper(12, 3)),
                EngineConfig::default(),
            );
            e.run(records)
        };
        let a = run(&noisy);
        let b = run(&stable);
        assert!(a.cycles > b.cycles, "{} vs {}", a.cycles, b.cycles);
        assert!(a.ipc() < b.ipc());
    }

    #[test]
    fn cycle_breakdown_accounts_stalls_and_squashes() {
        let noisy: Vec<TraceRecord> = (0..500u32)
            .map(|k| rec(0x0040_0004 + (k.wrapping_mul(2654435761) % 200) * 0x24))
            .collect();
        let mut e = DelayedUpdateEngine::new(
            NextTracePredictor::new(PredictorConfig::paper(12, 3)),
            EngineConfig {
                issue_width: 4,
                window: 24,
                mispredict_penalty: 8,
            },
        );
        let stats = e.run(&noisy);
        assert!(stats.squash_cycles > 0, "noisy stream must squash");
        assert!(
            stats.stall_cycles > 0,
            "12-instr traces in a 24-slot window stall"
        );
        assert!(
            stats.stall_cycles + stats.squash_cycles <= stats.cycles,
            "breakdown is a subset of total cycles"
        );
        let missed = stats.prediction.predictions - stats.prediction.correct;
        assert_eq!(stats.squash_cycles, missed * 8, "penalty per miss");
    }

    #[test]
    fn tiny_window_is_rejected_not_hung() {
        // Regression: window 8 < MAX_TRACE_LEN used to pass construction and
        // then spin forever in run() the first time a longer trace arrived
        // with an empty in-flight queue. It must now fail validation with a
        // named diagnostic.
        let cfg = EngineConfig {
            issue_width: 4,
            window: 8,
            mispredict_penalty: 8,
        };
        let err = cfg.validate().expect_err("window 8 must be rejected");
        let msg = err.to_string();
        assert!(msg.contains("window"), "diagnostic names the field: {msg}");
    }

    #[test]
    #[should_panic(expected = "invalid engine config")]
    fn new_panics_on_tiny_window() {
        let _ = DelayedUpdateEngine::new(
            NextTracePredictor::new(PredictorConfig::paper(12, 3)),
            EngineConfig {
                issue_width: 4,
                window: 8,
                mispredict_penalty: 8,
            },
        );
    }

    #[test]
    fn zero_issue_width_is_rejected() {
        let cfg = EngineConfig {
            issue_width: 0,
            window: 64,
            mispredict_penalty: 8,
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn minimum_window_equals_max_trace_len_and_terminates() {
        // window == 16 is the smallest legal window; 16-instr traces fill it
        // exactly and the run must terminate with every instruction retired.
        let records: Vec<TraceRecord> = (0..200)
            .map(|k: u32| {
                TraceRecord::new(
                    TraceId::new(0x0040_0004 + (k % 4) * 0x44, 0, 0),
                    16,
                    0,
                    false,
                    false,
                )
            })
            .collect();
        let mut e = DelayedUpdateEngine::new(
            NextTracePredictor::new(PredictorConfig::paper(12, 3)),
            EngineConfig {
                issue_width: 4,
                window: 16,
                mispredict_penalty: 2,
            },
        );
        let stats = e.run(&records);
        assert_eq!(stats.instrs, 200 * 16);
        assert_eq!(stats.prediction.predictions, 200);
    }

    #[test]
    fn window_bounds_inflight_instructions() {
        let records = cycle_stream(4, 100);
        let mut e = DelayedUpdateEngine::new(
            NextTracePredictor::new(PredictorConfig::paper(12, 0)),
            EngineConfig {
                issue_width: 1,
                window: 16,
                mispredict_penalty: 2,
            },
        );
        let stats = e.run(&records);
        // 100 traces x 12 instrs at 1 instr/cycle ⇒ at least 1200 cycles.
        assert!(stats.cycles >= 1200);
        assert_eq!(stats.instrs, 1200);
    }
}
