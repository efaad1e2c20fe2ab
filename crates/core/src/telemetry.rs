//! Telemetry integration: JSON serialization for every stats struct in the
//! crate, plus the replay observer emitting [`PredictionEvent`]s and a
//! misprediction-streak histogram.
//!
//! Everything here is strictly off the prediction hot path except
//! [`SinkObserver`], which asks [`EventSink::enabled`] once per prediction
//! (a constant for each concrete sink, so the test folds away) and
//! constructs events only when a real sink is attached — keeping the ≤5 %
//! telemetry-overhead budget.

use crate::{
    AliasingCounters, ConfidenceStats, NextTracePredictor, Observer, Prediction, PredictorConfig,
    PredictorStats, Source, StoredTarget, TableOccupancy, TracePredictor,
};
use ntp_telemetry::{EventSink, EventSource, Histogram, Json, PredictionEvent, ToJson};
use ntp_trace::TraceRecord;

impl ToJson for PredictorStats {
    /// Raw counters plus the derived percentages the paper reports.
    fn to_json(&self) -> Json {
        Json::object()
            .with("predictions", Json::U64(self.predictions))
            .with("correct", Json::U64(self.correct))
            .with("alternate_correct", Json::U64(self.alternate_correct))
            .with("from_correlated", Json::U64(self.from_correlated))
            .with("from_secondary", Json::U64(self.from_secondary))
            .with("cold", Json::U64(self.cold))
            .with("correlated_correct", Json::U64(self.correlated_correct))
            .with("secondary_correct", Json::U64(self.secondary_correct))
            .with("mispredict_pct", Json::F64(self.mispredict_pct()))
            .with("both_mispredict_pct", Json::F64(self.both_mispredict_pct()))
            .with(
                "alternate_rescue_fraction",
                Json::F64(self.alternate_rescue_fraction()),
            )
    }
}

impl ToJson for PredictorConfig {
    /// The knobs that identify a configuration, plus derived costs
    /// (entry/table bits, §5.5 accounting).
    fn to_json(&self) -> Json {
        Json::object()
            .with("index_bits", Json::U64(self.index_bits as u64))
            .with("depth", Json::U64(self.dolc.depth as u64))
            .with(
                "dolc",
                Json::object()
                    .with("depth", Json::U64(self.dolc.depth as u64))
                    .with("older", Json::U64(self.dolc.older as u64))
                    .with("last", Json::U64(self.dolc.last as u64))
                    .with("current", Json::U64(self.dolc.current as u64)),
            )
            .with("tag_bits", Json::U64(self.tag_bits as u64))
            .with(
                "secondary_index_bits",
                Json::U64(self.secondary_index_bits as u64),
            )
            .with("rhs", Json::Bool(self.rhs.is_some()))
            .with("alternate", Json::Bool(self.alternate))
            .with(
                "stored_target",
                Json::Str(
                    match self.stored_target {
                        StoredTarget::Full => "full",
                        StoredTarget::Hashed => "hashed",
                    }
                    .to_string(),
                ),
            )
            .with("corr_entry_bits", Json::U64(self.corr_entry_bits()))
            .with("corr_table_bits", Json::U64(self.corr_table_bits()))
    }
}

impl ToJson for AliasingCounters {
    fn to_json(&self) -> Json {
        Json::object()
            .with("steals", Json::U64(self.steals))
            .with("cold_fills", Json::U64(self.cold_fills))
            .with("sec_fills", Json::U64(self.sec_fills))
    }
}

impl ToJson for TableOccupancy {
    /// Counts plus fill fractions for both tables.
    fn to_json(&self) -> Json {
        Json::object()
            .with("corr_valid", Json::U64(self.corr_valid))
            .with("corr_capacity", Json::U64(self.corr_capacity))
            .with("corr_fraction", Json::F64(self.corr_fraction()))
            .with("sec_valid", Json::U64(self.sec_valid))
            .with("sec_capacity", Json::U64(self.sec_capacity))
            .with("sec_fraction", Json::F64(self.sec_fraction()))
    }
}

impl ToJson for ConfidenceStats {
    fn to_json(&self) -> Json {
        Json::object()
            .with("high_correct", Json::U64(self.high_correct))
            .with("high_wrong", Json::U64(self.high_wrong))
            .with("low_correct", Json::U64(self.low_correct))
            .with("low_wrong", Json::U64(self.low_wrong))
            .with("coverage", Json::F64(self.coverage()))
            .with("high_mispredict_pct", Json::F64(self.high_mispredict_pct()))
            .with("low_mispredict_pct", Json::F64(self.low_mispredict_pct()))
            .with(
                "mispredictions_caught",
                Json::F64(self.mispredictions_caught()),
            )
            .with("prediction", self.prediction.to_json())
    }
}

/// Full predictor-side telemetry captured at end of run: accuracy, table
/// pressure and occupancy in one bundle.
pub fn predictor_section(p: &NextTracePredictor, stats: &PredictorStats) -> Json {
    Json::object()
        .with("config", p.config().to_json())
        .with("stats", stats.to_json())
        .with("aliasing", p.aliasing().to_json())
        .with("occupancy", p.occupancy().to_json())
}

fn event_source(s: Source) -> EventSource {
    match s {
        Source::Correlated => EventSource::Correlated,
        Source::Secondary => EventSource::Secondary,
        Source::Cold => EventSource::Cold,
    }
}

/// The instrumented replay's [`Observer`]: each prediction is offered to
/// `sink` as a [`PredictionEvent`] (skipped entirely when the sink reports
/// itself disabled), and runs of consecutive primary mispredictions are
/// recorded into a streak [`Histogram`].
///
/// # Examples
///
/// ```
/// use ntp_core::{replay_one, NextTracePredictor, PredictorConfig, SinkObserver};
/// use ntp_telemetry::{NullSink, TraceLog};
/// use ntp_trace::{TraceId, TraceRecord};
///
/// // 200 distinct traces: nothing ever repeats, so every prediction
/// // misses and the whole replay is one 200-long streak.
/// let fresh: Vec<TraceRecord> = (0..200)
///     .map(|k| TraceRecord::new(TraceId::new(0x0040_0000 + k * 64, 0, 0), 16, 0, false, false))
///     .collect();
/// let mut p = NextTracePredictor::new(PredictorConfig::paper(12, 3));
/// let mut sink = NullSink;
/// let (stats, obs) = replay_one(&mut p, &fresh, SinkObserver::new(&mut sink));
/// let streaks = obs.into_streaks();
/// assert_eq!(stats.correct, 0);
/// assert_eq!((streaks.count(), streaks.sum()), (1, 200));
///
/// // Forensics mode: a TraceLog keeps sampled events.
/// let mut log = TraceLog::new(64, 1);
/// let mut p = NextTracePredictor::new(PredictorConfig::paper(12, 3));
/// let _ = replay_one(&mut p, &fresh, SinkObserver::new(&mut log));
/// assert_eq!(log.offered(), 200);
/// ```
pub struct SinkObserver<'s, S: ?Sized> {
    sink: &'s mut S,
    streak: u64,
    streaks: Histogram,
}

impl<'s, S: EventSink + ?Sized> SinkObserver<'s, S> {
    /// Observes into `sink`, with an empty streak histogram.
    pub fn new(sink: &'s mut S) -> SinkObserver<'s, S> {
        SinkObserver {
            sink,
            streak: 0,
            streaks: Histogram::new(),
        }
    }

    /// The misprediction-streak histogram, counting a streak still open at
    /// the end of the replay.
    pub fn into_streaks(mut self) -> Histogram {
        if self.streak > 0 {
            self.streaks.record(self.streak);
        }
        self.streaks
    }
}

impl<P, S> Observer<P> for SinkObserver<'_, S>
where
    P: TracePredictor + ?Sized,
    S: EventSink + ?Sized,
{
    #[inline]
    fn observe(&mut self, index: usize, pred: &Prediction, actual: &TraceRecord, predictor: &P) {
        let hit = pred.is_correct(actual.id());
        if self.sink.enabled() {
            self.sink.record(&PredictionEvent {
                index: index as u64,
                source: event_source(pred.source),
                hit,
                alternate_hit: !hit && pred.alternate_correct(actual.id()),
                history_len: predictor.history_len().min(u8::MAX as usize) as u8,
            });
        }
        if !hit {
            self.streak += 1;
        } else if self.streak > 0 {
            self.streaks.record(self.streak);
            self.streak = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{evaluate, replay_one};
    use ntp_telemetry::{NullSink, TraceLog};
    use ntp_trace::TraceId;

    fn rec(pc: u32) -> TraceRecord {
        TraceRecord::new(TraceId::new(pc, 0, 0), 8, 0, false, false)
    }

    fn cycle(n: u32, len: usize) -> Vec<TraceRecord> {
        (0..len)
            .map(|k| rec(0x0040_0000 + (k as u32 % n) * 0x40))
            .collect()
    }

    fn small() -> NextTracePredictor {
        NextTracePredictor::new(PredictorConfig {
            secondary_index_bits: 8,
            ..PredictorConfig::paper(12, 3)
        })
    }

    #[test]
    fn streak_histogram_totals_mispredictions() {
        let records = cycle(4, 400);
        let mut sink = NullSink;
        let (stats, obs) = replay_one(&mut small(), &records, SinkObserver::new(&mut sink));
        let streaks = obs.into_streaks();
        let missed = stats.predictions - stats.correct;
        assert_eq!(streaks.sum(), missed, "streak lengths sum to total misses");
        assert!(
            streaks.count() >= 1,
            "cold start yields at least one streak"
        );
    }

    #[test]
    fn trace_log_captures_events_with_history_depth() {
        let records = cycle(3, 60);
        let mut log = TraceLog::new(128, 1);
        let _ = replay_one(&mut small(), &records, SinkObserver::new(&mut log));
        assert_eq!(log.offered(), 60);
        let deep = log.iter().filter(|e| e.history_len > 0).count();
        assert!(deep > 0, "history occupancy reaches the events");
        assert!(log.iter().any(|e| e.hit), "a 3-cycle is learned");
    }

    #[test]
    fn predictor_section_bundles_everything() {
        let records = cycle(4, 100);
        let mut p = small();
        let stats = evaluate(&mut p, &records);
        let j = predictor_section(&p, &stats);
        for key in ["config", "stats", "aliasing", "occupancy"] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        assert_eq!(
            j.get("stats").and_then(|s| s.get("predictions")),
            Some(&Json::U64(100))
        );
        assert!(
            j.get("occupancy")
                .and_then(|o| o.get("corr_valid"))
                .and_then(Json::as_u64)
                .unwrap()
                > 0
        );
        // The whole bundle survives a render/parse round trip.
        let parsed = ntp_telemetry::json::parse(&j.pretty()).unwrap();
        assert_eq!(parsed, j);
    }

    #[test]
    fn config_json_names_the_design_point() {
        let j = PredictorConfig::paper(15, 7).to_json();
        assert_eq!(j.get("index_bits"), Some(&Json::U64(15)));
        assert_eq!(j.get("depth"), Some(&Json::U64(7)));
        assert_eq!(j.get("rhs"), Some(&Json::Bool(true)));
        assert_eq!(j.get("corr_entry_bits"), Some(&Json::U64(48)));
    }
}
