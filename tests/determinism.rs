//! Reproducibility guarantees: every layer of the stack is deterministic,
//! so tables and figures regenerate bit-identically.

use ntp::core::{evaluate, NextTracePredictor, PredictorConfig};
use ntp::trace::{run_traces, TraceConfig, TraceRecord};
use ntp::workloads::{suite, ScalePreset};

fn capture(w: &ntp::workloads::Workload) -> (Vec<TraceRecord>, Vec<u32>) {
    let mut m = w.machine();
    let mut records = Vec::new();
    run_traces(&mut m, 50_000_000, TraceConfig::default(), |t| {
        records.push(TraceRecord::from(t));
    })
    .unwrap();
    (records, m.output().to_vec())
}

#[test]
fn workload_builds_are_reproducible() {
    for (a, b) in suite(ScalePreset::Tiny)
        .into_iter()
        .zip(suite(ScalePreset::Tiny))
    {
        assert_eq!(a.program, b.program, "{}", a.name);
        assert_eq!(a.expected_output(), b.expected_output(), "{}", a.name);
    }
}

#[test]
fn simulation_and_selection_are_reproducible() {
    for w in suite(ScalePreset::Tiny) {
        let (r1, o1) = capture(&w);
        let (r2, o2) = capture(&w);
        assert_eq!(r1, r2, "{}", w.name);
        assert_eq!(o1, o2, "{}", w.name);
        assert_eq!(o1, w.expected_output(), "{}: self-check", w.name);
    }
}

#[test]
fn prediction_replay_is_reproducible() {
    let w = ntp::workloads::by_name("m88ksim", ScalePreset::Tiny);
    let (records, _) = capture(&w);
    let run = || {
        let mut p = NextTracePredictor::new(PredictorConfig::paper(15, 7));
        evaluate(&mut p, &records)
    };
    assert_eq!(run(), run());
}
