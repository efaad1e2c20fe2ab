//! The replay kernel: the paper's §4.1 loop — predict the next trace,
//! score it, update immediately — over one or many independent lanes.
//!
//! Every replay in the workspace runs through [`replay`]: plain
//! [`evaluate`], the gathered multi-session sweeps of the benchmark suite
//! ([`evaluate_batch_fresh`]), `ntp-serve`'s `Update`/`Batch` requests, and
//! the instrumented replays, which differ only in their [`Observer`]
//! (`()` for none, [`crate::SinkObserver`] for events and miss streaks,
//! [`crate::ConfidenceObserver`] for confidence assignment, a
//! `Vec<Prediction>` to record every step).
//!
//! The loop is table-lookup dominated: each probe gathers a tag, a counter
//! and a target from tables far larger than L1/L2, so one lane serializes
//! on one cache miss per step. With two or more *independent* lanes in
//! flight, each round first issues [`TracePredictor::prefetch`] for every
//! active lane, then resolves the lanes in order, so the gathers overlap.
//! Each lane's own records are processed strictly in order and the hint
//! never changes state, so per lane the result is bit-identical to
//! replaying it alone — enforced field-for-field against `ntp-verify`'s
//! reference loop by its `batch-vs-scalar` oracle and by property tests.

use crate::{NextTracePredictor, Prediction, PredictorStats, TracePredictor};
use ntp_trace::TraceRecord;

/// Watches a replay step by step. The kernel calls
/// [`Observer::observe`] after each prediction is made and scored, before
/// the predictor learns the actual trace.
///
/// `()` is the no-op observer; a `Vec<Prediction>` records every
/// prediction.
pub trait Observer<P: ?Sized> {
    /// Sees step `index` of the lane: the prediction made, the trace that
    /// actually followed, and the predictor in its pre-update state.
    fn observe(
        &mut self,
        index: usize,
        prediction: &Prediction,
        actual: &TraceRecord,
        predictor: &P,
    );
}

impl<P: ?Sized> Observer<P> for () {
    #[inline(always)]
    fn observe(&mut self, _: usize, _: &Prediction, _: &TraceRecord, _: &P) {}
}

impl<P: ?Sized> Observer<P> for Vec<Prediction> {
    fn observe(&mut self, _: usize, prediction: &Prediction, _: &TraceRecord, _: &P) {
        self.push(*prediction);
    }
}

/// One independent replay lane: a predictor, the records it replays, its
/// observer, and the statistics the kernel accumulates for it. Lanes may
/// have different lengths and different configurations.
pub struct Lane<'a, P: ?Sized, O = ()> {
    /// The lane's predictor.
    pub predictor: &'a mut P,
    /// The records this lane replays, in order.
    pub records: &'a [TraceRecord],
    /// Sees every step of this lane.
    pub observer: O,
    /// Accuracy accumulated over the replayed records.
    pub stats: PredictorStats,
}

impl<'a, P: ?Sized, O> Lane<'a, P, O> {
    /// A lane with zeroed statistics.
    pub fn new(predictor: &'a mut P, records: &'a [TraceRecord], observer: O) -> Lane<'a, P, O> {
        Lane {
            predictor,
            records,
            observer,
            stats: PredictorStats::new(),
        }
    }
}

impl<P: TracePredictor + ?Sized, O: Observer<P>> Lane<'_, P, O> {
    /// The §4.1 step: predict, score, show the observer, update.
    #[inline(always)]
    fn step(&mut self, index: usize, rec: &TraceRecord) {
        let pred = self.predictor.predict();
        self.stats.score(&pred, rec);
        self.observer.observe(index, &pred, rec, self.predictor);
        self.predictor.update(rec);
    }
}

/// Replays every lane to completion, interleaved one record per lane per
/// round, scoring into each lane's [`Lane::stats`].
///
/// With two or more lanes, each round starts with a gathered prefetch pass
/// over the lanes still active; lanes shorter than the longest drop out of
/// later rounds. A single lane is plain scalar replay, walked without the
/// round bookkeeping.
pub fn replay<P, O>(lanes: &mut [Lane<'_, P, O>])
where
    P: TracePredictor + ?Sized,
    O: Observer<P>,
{
    if let [lane] = lanes {
        for (index, rec) in lane.records.iter().enumerate() {
            lane.step(index, rec);
        }
        return;
    }
    let rounds = lanes.iter().map(|l| l.records.len()).max().unwrap_or(0);
    for round in 0..rounds {
        for lane in lanes.iter().filter(|l| round < l.records.len()) {
            lane.predictor.prefetch();
        }
        for lane in lanes.iter_mut() {
            if let Some(rec) = lane.records.get(round) {
                lane.step(round, rec);
            }
        }
    }
}

/// Replays one record stream through `predictor` with `observer` watching,
/// returning the accuracy and the observer.
pub fn replay_one<P, O>(
    predictor: &mut P,
    records: &[TraceRecord],
    observer: O,
) -> (PredictorStats, O)
where
    P: TracePredictor + ?Sized,
    O: Observer<P>,
{
    let mut lanes = [Lane::new(predictor, records, observer)];
    replay(&mut lanes);
    let [lane] = lanes;
    (lane.stats, lane.observer)
}

/// Replays a recorded trace stream through a predictor with immediate
/// updates (the methodology of §4.1) and returns accuracy statistics.
///
/// # Examples
///
/// ```
/// use ntp_core::{evaluate, NextTracePredictor, PredictorConfig};
/// use ntp_trace::{TraceId, TraceRecord};
///
/// let records: Vec<TraceRecord> = (0..100)
///     .map(|k| TraceRecord::new(TraceId::new(0x0040_0000 + (k % 4) * 64, 0, 0), 16, 0, false, false))
///     .collect();
/// let mut p = NextTracePredictor::new(PredictorConfig::paper(12, 3));
/// let stats = evaluate(&mut p, &records);
/// assert!(stats.mispredict_pct() < 20.0, "a 4-cycle is easy: {stats}");
/// ```
pub fn evaluate<P: TracePredictor + ?Sized>(
    predictor: &mut P,
    records: &[TraceRecord],
) -> PredictorStats {
    replay_one(predictor, records, ()).0
}

/// Convenience for benchmark passes: replays `streams.len()` fresh lanes
/// built by `make_predictor` (one per stream) through [`replay`].
pub fn evaluate_batch_fresh<F>(
    streams: &[&[TraceRecord]],
    mut make_predictor: F,
) -> Vec<PredictorStats>
where
    F: FnMut(usize) -> NextTracePredictor,
{
    let mut predictors: Vec<NextTracePredictor> =
        (0..streams.len()).map(&mut make_predictor).collect();
    let mut lanes: Vec<Lane<'_, NextTracePredictor>> = predictors
        .iter_mut()
        .zip(streams)
        .map(|(p, s)| Lane::new(p, s, ()))
        .collect();
    replay(&mut lanes);
    lanes.into_iter().map(|l| l.stats).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PredictorConfig;

    #[test]
    fn empty_lanes_are_fine() {
        replay::<NextTracePredictor, ()>(&mut []);
        // A lane with no records contributes zeroed stats.
        let mut p = NextTracePredictor::new(PredictorConfig::paper(12, 3));
        assert_eq!(evaluate(&mut p, &[]), PredictorStats::new());
        assert!(evaluate_batch_fresh(&[], |_| unreachable!()).is_empty());
    }
}
