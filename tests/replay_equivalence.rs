//! Property-style equivalence tests for the replay pipeline (no proptest
//! dependency: LCG-driven randomized streams, fixed seeds).
//!
//! Two families of invariants:
//!
//! * the replay kernel, plain ([`ntp::core::evaluate`]) or instrumented
//!   (a [`ntp::core::SinkObserver`]), must produce exactly the
//!   [`ntp::core::PredictorStats`] of the scalar reference loop
//!   ([`ntp::verify::reference_replay`]) — telemetry must never perturb the
//!   experiment;
//! * the parallel runner's ordered merge must equal the serial map at any
//!   thread count — parallelism must never perturb the output.

use ntp::core::{
    evaluate, replay_one, NextTracePredictor, PredictorConfig, PredictorStats, SinkObserver,
    TracePredictor, UnboundedConfig, UnboundedPredictor,
};
use ntp::runner::map_ordered_with;
use ntp::telemetry::{Histogram, NullSink};
use ntp::trace::{TraceId, TraceRecord};
use ntp::verify::reference_replay;

/// Deterministic 64-bit LCG (Knuth MMIX constants).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }
}

/// A randomized trace stream shaped like real capture output: a few dozen
/// static traces revisited with skewed frequencies, occasional calls and
/// returns, trace lengths 1..=16.
fn arb_stream(seed: u64, n: usize) -> Vec<TraceRecord> {
    let mut rng = Lcg(seed);
    // A small static working set so the predictor sees repeats.
    let statics: Vec<TraceId> = (0..48)
        .map(|_| {
            let r = rng.next();
            TraceId::new(
                0x0040_0000 + ((r as u32) % 0x4000) * 4,
                (r >> 32) as u8 & 0x3f,
                ((r >> 40) % 7) as u8,
            )
        })
        .collect();
    (0..n)
        .map(|_| {
            let r = rng.next();
            // Zipf-ish skew: favour low indices.
            let k = ((r % 48) * (r >> 8) % 48 / 7) as usize % statics.len();
            let len = 1 + ((r >> 16) % 16) as u8;
            let calls = ((r >> 24) % 3) as u8;
            let ret = (r >> 28) & 0b11 == 0;
            let ind = (r >> 31) & 0b111 == 0;
            TraceRecord::new(statics[k], len, calls, ret, ind)
        })
        .collect()
}

/// Asserts that plain and instrumented (null-sink [`SinkObserver`])
/// kernel replays from `fresh()` predictors match the reference loop, and
/// returns the instrumented one.
fn agree<P: TracePredictor>(
    fresh: impl Fn() -> P,
    records: &[TraceRecord],
    what: &str,
) -> (PredictorStats, Histogram) {
    let (reference, _) = reference_replay(&mut fresh(), records);
    let plain = evaluate(&mut fresh(), records);
    assert_eq!(plain, reference, "kernel diverged ({what})");
    let mut sink = NullSink;
    let (instrumented, obs) = replay_one(&mut fresh(), records, SinkObserver::new(&mut sink));
    assert_eq!(
        instrumented, reference,
        "telemetry perturbed replay ({what})"
    );
    (instrumented, obs.into_streaks())
}

#[test]
fn evaluate_and_sink_observer_agree_with_reference() {
    // Sweep seeds × configurations; the reference loop, plain and
    // instrumented kernel replay must produce identical statistics in
    // every case.
    for seed in [1u64, 0xdead_beef, 42, 7_777_777] {
        let records = arb_stream(seed, 4_000);
        let configs = [
            PredictorConfig::paper(12, 0),
            PredictorConfig::paper(15, 3),
            PredictorConfig::paper(15, 7),
            PredictorConfig::paper_with_alternate(15, 7),
        ];
        for cfg in configs {
            let what = format!("seed {seed}, cfg {cfg:?}");
            let (stats, streaks) = agree(|| NextTracePredictor::new(cfg), &records, &what);
            // The streak histogram tallies one entry per terminated
            // misprediction streak — it can never exceed the number of
            // mispredictions.
            let mispredicts = stats.predictions - stats.correct;
            assert!(streaks.count() <= mispredicts.max(1));
        }
        // The unbounded model goes through the same generic path.
        let fresh = || UnboundedPredictor::new(UnboundedConfig::paper(7));
        agree(fresh, &records, &format!("unbounded, seed {seed}"));
    }
}

#[test]
fn instrumented_replay_leaves_predictor_in_identical_state() {
    // Beyond equal stats: the instrumented kernel must leave the
    // *predictor* able to make the reference's next prediction (same
    // tables, same history).
    let records = arb_stream(99, 3_000);
    let cfg = PredictorConfig::paper(15, 7);
    let mut a = NextTracePredictor::new(cfg);
    let mut b = NextTracePredictor::new(cfg);
    let _ = reference_replay(&mut a, &records);
    let _ = replay_one(&mut b, &records, SinkObserver::new(&mut NullSink));
    assert_eq!(a.indices(), b.indices(), "index state diverged");
    assert_eq!(
        a.predict().target,
        b.predict().target,
        "next prediction diverged"
    );
}

#[test]
fn parallel_replay_grid_equals_serial_at_1_2_and_8_threads() {
    // The bench fan-out in miniature: a (stream × depth) replay grid,
    // mapped serially and through the pool at several widths. The ordered
    // merge must reproduce the serial result vector exactly.
    let streams: Vec<Vec<TraceRecord>> = (0..4).map(|s| arb_stream(1000 + s, 2_000)).collect();
    let jobs: Vec<(usize, usize)> = (0..streams.len())
        .flat_map(|s| (0..=3).map(move |depth| (s, depth * 2)))
        .collect();
    let run = |&(s, depth): &(usize, usize)| {
        let mut p = NextTracePredictor::new(PredictorConfig::paper(12, depth));
        let stats = evaluate(&mut p, &streams[s]);
        (stats.predictions, stats.correct, stats.from_correlated)
    };
    let serial: Vec<_> = jobs.iter().map(run).collect();
    for threads in [1usize, 2, 8] {
        let got = map_ordered_with(threads, &jobs, |_, job| run(job));
        assert_eq!(got, serial, "threads={threads}");
    }
}
