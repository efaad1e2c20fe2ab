//! End-to-end pipeline tests: workload → simulation → trace selection →
//! predictors, checking the cross-crate contracts hold on real streams.

use ntp::baselines::SequentialTracePredictor;
use ntp::core::{
    evaluate, NextTracePredictor, PredictorConfig, UnboundedConfig, UnboundedPredictor,
};
use ntp::engine::{DelayedUpdateEngine, EngineConfig, FetchConfig, FetchEngine};
use ntp::trace::{
    run_traces, TraceConfig, TraceRecord, TraceStats, MAX_TRACE_BRANCHES, MAX_TRACE_LEN,
};
use ntp::workloads::{suite, ScalePreset};

fn capture(name: &str) -> (Vec<TraceRecord>, TraceStats) {
    let w = ntp::workloads::by_name(name, ScalePreset::Tiny);
    let mut m = w.machine();
    let mut records = Vec::new();
    let mut stats = TraceStats::new();
    run_traces(&mut m, 50_000_000, TraceConfig::default(), |t| {
        records.push(TraceRecord::from(t));
        stats.record(t);
    })
    .unwrap();
    assert!(m.halted(), "tiny workloads run to completion");
    (records, stats)
}

#[test]
fn every_workload_yields_wellformed_traces() {
    for w in suite(ScalePreset::Tiny) {
        let mut m = w.machine();
        let mut instrs = 0u64;
        let mut traces = 0u64;
        run_traces(&mut m, 50_000_000, TraceConfig::default(), |t| {
            traces += 1;
            instrs += t.len() as u64;
            assert!(!t.is_empty() && t.len() <= MAX_TRACE_LEN, "{}", w.name);
            assert!(t.branch_count() <= MAX_TRACE_BRANCHES);
            assert!(t.id().start_pc >= 0x0040_0000);
            // Indirect-target instructions may only appear at the end.
            let controls = t.controls();
            for c in &controls[..controls.len().saturating_sub(1)] {
                assert!(!c.kind.is_indirect(), "{}: indirect inside trace", w.name);
            }
        })
        .unwrap();
        assert_eq!(instrs, m.icount(), "{}: traces cover the stream", w.name);
        assert!(traces > 100, "{}", w.name);
    }
}

#[test]
fn deterministic_trace_selection_implies_unique_contents() {
    // The same trace id must always denote the same instruction sequence.
    use std::collections::HashMap;
    for w in suite(ScalePreset::Tiny) {
        let mut m = w.machine();
        let mut seen: HashMap<u64, (usize, u32)> = HashMap::new();
        let mut collisions = 0usize;
        run_traces(&mut m, 50_000_000, TraceConfig::default(), |t| {
            let key = t.id().packed();
            let val = (t.len(), t.last_pc());
            if let Some(prev) = seen.insert(key, val) {
                if prev != val {
                    collisions += 1;
                }
            }
        })
        .unwrap();
        // Only the final flushed partial trace may reuse an id with
        // different contents.
        assert!(collisions <= 1, "{}: {collisions} id collisions", w.name);
    }
}

#[test]
fn predictors_learn_every_tiny_workload_better_than_cold() {
    for w in suite(ScalePreset::Tiny) {
        let mut m = w.machine();
        let mut records = Vec::new();
        run_traces(&mut m, 50_000_000, TraceConfig::default(), |t| {
            records.push(TraceRecord::from(t));
        })
        .unwrap();
        let mut p = NextTracePredictor::new(PredictorConfig::paper(15, 7));
        let stats = evaluate(&mut p, &records);
        assert_eq!(stats.predictions, records.len() as u64);
        assert!(
            stats.mispredict_pct() < 60.0,
            "{}: {}",
            w.name,
            stats.mispredict_pct()
        );
        assert!(stats.correct > 0);
    }
}

#[test]
fn unbounded_beats_small_bounded_table_on_cc() {
    let (records, _) = capture("cc");
    let mut small = NextTracePredictor::new(PredictorConfig::paper(12, 7));
    let small_stats = evaluate(&mut small, &records);
    let mut unbounded = UnboundedPredictor::new(UnboundedConfig::paper(7));
    let unbounded_stats = evaluate(&mut unbounded, &records);
    assert!(
        unbounded_stats.mispredict_pct() <= small_stats.mispredict_pct() + 0.5,
        "unbounded {} vs 2^12 {}",
        unbounded_stats.mispredict_pct(),
        small_stats.mispredict_pct()
    );
}

#[test]
fn m88ksim_traces_end_at_dispatch_jumps() {
    let (_, stats) = capture("m88ksim");
    // The interpreter dispatches through an indirect jump per guest
    // instruction, so most traces must end in an indirect transfer.
    let frac = stats.indirect_endings() as f64 / stats.traces() as f64;
    assert!(frac > 0.5, "indirect-ending fraction {frac}");
}

#[test]
fn xlisp_exercises_calls_and_returns() {
    let (_, stats) = capture("xlisp");
    assert!(stats.calls() > 1000);
    assert!(stats.returns() > 1000);
}

#[test]
fn delayed_updates_cost_little_on_real_workload() {
    let (records, _) = capture("compress");
    let cfg = PredictorConfig::paper(15, 7);
    let mut ideal = NextTracePredictor::new(cfg);
    let ideal_stats = evaluate(&mut ideal, &records);
    let mut engine =
        DelayedUpdateEngine::new(NextTracePredictor::new(cfg), EngineConfig::default());
    let real = engine.run(&records);
    let delta = real.prediction.mispredict_pct() - ideal_stats.mispredict_pct();
    assert!(
        delta.abs() < 3.0,
        "delayed updates should be a small effect: {delta}"
    );
    assert!(real.ipc() > 1.0);
}

#[test]
fn fetch_engine_delivers_on_real_workload() {
    let (records, _) = capture("jpeg");
    let mut fe = FetchEngine::new(
        NextTracePredictor::new(PredictorConfig::paper(15, 7)),
        FetchConfig::default(),
    );
    let stats = fe.run(&records);
    assert!(
        stats.fetch_bandwidth() > 4.0,
        "bandwidth {}",
        stats.fetch_bandwidth()
    );
}

#[test]
fn sequential_baseline_consistent_with_trace_stats() {
    for w in suite(ScalePreset::Tiny) {
        let mut m = w.machine();
        let mut seq = SequentialTracePredictor::paper();
        let mut stats = TraceStats::new();
        run_traces(&mut m, 50_000_000, TraceConfig::default(), |t| {
            seq.observe(t);
            stats.record(t);
        })
        .unwrap();
        assert_eq!(seq.stats().traces, stats.traces(), "{}", w.name);
        assert_eq!(seq.stats().branches, stats.cond_branches(), "{}", w.name);
        assert!(seq.stats().trace_mispredicts <= seq.stats().traces);
    }
}

#[test]
fn prediction_source_counts_are_conserved() {
    let (records, _) = capture("go");
    let mut p = NextTracePredictor::new(PredictorConfig::paper(15, 5));
    let stats = evaluate(&mut p, &records);
    assert_eq!(
        stats.predictions,
        stats.from_correlated + stats.from_secondary + stats.cold,
        "every prediction has exactly one source"
    );
    assert!(stats.correlated_correct <= stats.from_correlated);
    assert!(stats.secondary_correct <= stats.from_secondary);
    assert_eq!(
        stats.correct,
        stats.correlated_correct + stats.secondary_correct,
        "cold predictions are never correct"
    );
}

#[test]
fn unbounded_alternate_rescues_like_bounded() {
    use ntp::core::UnboundedConfig;
    let (records, _) = capture("compress");
    let mut p = UnboundedPredictor::new(UnboundedConfig {
        alternate: true,
        ..UnboundedConfig::paper(2)
    });
    let stats = evaluate(&mut p, &records);
    assert!(stats.alternate_correct > 0, "alternate catches some misses");
    assert!(stats.both_mispredict_pct() < stats.mispredict_pct());
}

#[test]
fn confidence_estimation_on_real_workload() {
    use ntp::core::{replay_one, ConfidenceConfig, ConfidenceObserver};
    let (records, _) = capture("m88ksim");
    let mut p = NextTracePredictor::new(PredictorConfig::paper(15, 7));
    let obs = ConfidenceObserver::new(ConfidenceConfig {
        threshold: 8,
        ..ConfidenceConfig::paper_like()
    });
    let (prediction, obs) = replay_one(&mut p, &records, obs);
    let stats = obs.finish(prediction);
    assert!(
        stats.high_mispredict_pct() < stats.low_mispredict_pct(),
        "high {} vs low {}",
        stats.high_mispredict_pct(),
        stats.low_mispredict_pct()
    );
    assert_eq!(
        stats.high_correct + stats.high_wrong + stats.low_correct + stats.low_wrong,
        records.len() as u64
    );
}

#[test]
fn trace_processor_scales_on_real_workload() {
    use ntp::engine::{TraceProcessor, TraceProcessorConfig};
    let (records, _) = capture("jpeg");
    let run = |pes: usize| {
        let mut tp = TraceProcessor::new(
            NextTracePredictor::new(PredictorConfig::paper(15, 7)),
            TraceProcessorConfig {
                pe_count: pes,
                ..TraceProcessorConfig::default()
            },
        );
        tp.run(&records).ipc()
    };
    let one = run(1);
    let four = run(4);
    assert!(four > one, "more PEs help: {four} vs {one}");
}
