//! Per-layer probes of the traced run. Each probe times the benchmark's
//! own calls into one crate's public functions, over the workload's own
//! inputs, and checks what it computes where an oracle exists.

use crate::offline;
use crate::serving::{Plane, BITS, DEPTH};
use crate::util::{median, percentile, Spans, TempDir, Ticks};
use crate::{Args, Report};
use ntp_bench::{capture_fingerprint, BenchData};
use ntp_core::{
    evaluate, evaluate_batch_fresh, NextTracePredictor, PredictorConfig, PredictorStats,
    UnboundedConfig, UnboundedPredictor,
};
use ntp_engine::{DelayedUpdateEngine, EngineConfig};
use ntp_serve::client::Client;
use ntp_serve::wire::{self, FrameAssembler, FrameEvent, Request};
use ntp_telemetry::ReplayThroughput;
use ntp_trace::{TraceConfig, TraceRecord};
use ntp_tracefile::{format as ntc, CaptureArtifact, SessionSnapshot};
use ntp_workloads::{suite, ScalePreset};
use std::hint::black_box;
use std::time::Instant;

/// Records per stream the replay probes use.
const PROBE_RECORDS: usize = 300_000;

fn paper() -> PredictorConfig {
    PredictorConfig::paper(BITS, DEPTH as usize)
}

/// `runner.speedup` (busy over wall) and `runner.imbalance` (the idle
/// share of the pool's thread time) over the timed phase's pool runs.
pub fn runner_metrics(samples: &[ReplayThroughput], report: &mut Report) {
    let wall: f64 = samples.iter().map(|s| s.wall.as_secs_f64()).sum();
    let busy: f64 = samples.iter().map(|s| s.busy.as_secs_f64()).sum();
    let capacity: f64 = samples
        .iter()
        .map(|s| s.wall.as_secs_f64() * s.threads as f64)
        .sum();
    report.layer("runner.speedup", busy / wall.max(1e-12), "ratio");
    report.layer(
        "runner.imbalance",
        1.0 - busy / capacity.max(1e-12),
        "ratio",
    );
}

/// Simulator, `TraceBuilder` and baseline costs over the `default`-preset
/// programs (for a workload whose timed phase simulates nothing).
pub fn sim_probe(work: &std::path::Path, report: &mut Report) -> Result<(), String> {
    let mut spans = Spans::new();
    let (_, tot, _) =
        offline::replica_capture(work, ScalePreset::Default, 2_000_000, &mut spans, None)?;
    report.layer("sim.instrs", 0.0, "count");
    report.layer("sim.busy_s", 0.0, "s");
    report.layer(
        "sim.minstr_per_s",
        tot.instrs as f64 / 1e6 / tot.sim_s,
        "Minstr/s",
    );
    report.layer("trace.records", 0.0, "count");
    report.layer("trace.busy_s", 0.0, "s");
    report.layer(
        "trace.ns_per_record",
        tot.trace_s * 1e9 / tot.records as f64,
        "ns",
    );
    report.layer("baselines.busy_s", 0.0, "s");
    report.layer(
        "baselines.ns_per_trace",
        tot.baselines_s * 1e9 / tot.records as f64,
        "ns",
    );
    Ok(())
}

/// The probes every workload runs: `.ntc`/`.nts` codecs, the checksum
/// hash, the predictor core, the engine, the wire codec and the ring.
pub fn common(
    args: &Args,
    data: &[BenchData],
    streams: &[&[TraceRecord]],
    ladder: &crate::serving::LadderOut,
    report: &mut Report,
) -> Result<(), String> {
    ntc_probe(args, data, report)?;
    nts_probe(streams, report);
    core_probe(streams, report);
    engine_probe(streams, report);
    wire_probe(streams, &ladder.mid, report);
    ring_probe(report);
    Ok(())
}

/// Writes the workload's capture artifacts to `.ntc` files and reads
/// them back (checking equality), then hashes the file bytes.
fn ntc_probe(args: &Args, data: &[BenchData], report: &mut Report) -> Result<(), String> {
    let preset = match std::env::var("NTP_SCALE").as_deref() {
        Ok("full") => ScalePreset::Full,
        _ => ScalePreset::Default,
    };
    let ws = suite(preset);
    let budget = ntp_bench::budget_from_env();
    let dir = TempDir::new(&args.work, "ntc-probe").map_err(|e| e.to_string())?;
    let (mut wbytes, mut ws_s, mut rbytes, mut rs_s) = (0u64, 0.0, 0u64, 0.0);
    let mut ok = true;
    let mut first_file = None;
    for (w, d) in ws.iter().zip(data) {
        let fp = capture_fingerprint(w, budget, &TraceConfig::default());
        let path = dir.0.join(fp.file_name());
        let artifact = CaptureArtifact {
            name: d.name.to_string(),
            analog_of: d.analog_of.to_string(),
            icount: d.icount,
            records: d.records.clone(),
            trace_stats: d.trace_stats.to_raw(),
            redundancy: d.redundancy.to_raw(),
            seq_stats: d.seq_stats.clone(),
            mb_stats: d.mb_stats.clone(),
            gag_stats: d.gag_stats.clone(),
            mix: d.mix.clone(),
        };
        let t = Instant::now();
        wbytes += ntc::write_file(&path, &fp, &artifact).map_err(|e| e.to_string())?;
        ws_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let (back, n) = ntc::read_file(&path, &fp).map_err(|e| e.to_string())?;
        rs_s += t.elapsed().as_secs_f64();
        rbytes += n;
        ok &= back == artifact;
        first_file.get_or_insert(path);
    }
    report.check(ok, ".ntc probe: files do not read back equal");
    report.layer("tracefile.ntc_write_mb", wbytes as f64 / 1e6, "MB");
    report.layer("tracefile.ntc_write_s", ws_s, "s");
    report.layer("tracefile.ntc_read_mb", rbytes as f64 / 1e6, "MB");
    report.layer("tracefile.ntc_read_s", rs_s, "s");

    let bytes = std::fs::read(first_file.expect("six files")).map_err(|e| e.to_string())?;
    let mut rates = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        black_box(ntp_hash::fnv64(black_box(&bytes)));
        rates.push(bytes.len() as f64 / 1e6 / t.elapsed().as_secs_f64());
    }
    report.layer("hash.fnv64_mb_per_s", median(&rates), "MB/s");
    Ok(())
}

/// Trains one session per stream, then times `encode_session_wire` and
/// `decode_session_wire` over the snapshots (checking the round trip).
fn nts_probe(streams: &[&[TraceRecord]], report: &mut Report) {
    let mut snaps = Vec::new();
    for (i, s) in streams.iter().enumerate() {
        let mut p = NextTracePredictor::new(paper());
        let stats = evaluate(&mut p, &s[..s.len().min(PROBE_RECORDS)]);
        snaps.push(SessionSnapshot::capture(i as u64, &p, &stats));
    }
    let encoded: Vec<Vec<u8>> = snaps
        .iter()
        .map(ntp_tracefile::encode_session_wire)
        .collect();
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    let reps = 5;
    let t = Instant::now();
    for _ in 0..reps {
        for s in &snaps {
            black_box(ntp_tracefile::encode_session_wire(black_box(s)));
        }
    }
    let enc_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut ok = true;
    for _ in 0..reps {
        for (e, s) in encoded.iter().zip(&snaps) {
            ok &= ntp_tracefile::decode_session_wire(e).is_ok_and(|d| d == *s);
        }
    }
    let dec_s = t.elapsed().as_secs_f64();
    report.check(ok, ".nts probe: session snapshots do not round-trip");
    let mb = (bytes * reps) as f64 / 1e6;
    report.layer(
        "tracefile.nts_session_bytes",
        bytes as f64 / snaps.len() as f64,
        "bytes",
    );
    report.layer("tracefile.nts_encode_mb_per_s", mb / enc_s, "MB/s");
    report.layer("tracefile.nts_decode_mb_per_s", mb / dec_s, "MB/s");
}

/// Replay costs of the predictor core, plus the per-pass split measured
/// by driving `indices`/`prefetch_tables`/`predict_at`/`train_at`/
/// `advance_history` in evaluate order (whose stats must equal
/// `evaluate`'s).
fn core_probe(streams: &[&[TraceRecord]], report: &mut Report) {
    let recs: Vec<&[TraceRecord]> = streams
        .iter()
        .map(|s| &s[..s.len().min(PROBE_RECORDS)])
        .collect();
    let n: usize = recs.iter().map(|r| r.len()).sum();

    let t = Instant::now();
    let mut reference = Vec::new();
    let (mut steals, mut preds, mut occ) = (0u64, 0u64, 0.0);
    for r in &recs {
        let mut p = NextTracePredictor::new(paper());
        let st = evaluate(&mut p, r);
        steals += p.aliasing().steals;
        preds += st.predictions;
        occ += p.occupancy().corr_fraction();
        reference.push(st);
    }
    let eval_ns = t.elapsed().as_nanos() as f64 / n as f64;

    let t = Instant::now();
    let mut batched = Vec::new();
    for lanes in recs.chunks(3) {
        batched.extend(evaluate_batch_fresh(lanes, |_| {
            NextTracePredictor::new(paper())
        }));
    }
    let batch_ns = t.elapsed().as_nanos() as f64 / n as f64;
    report.check(
        batched == reference,
        "core probe: evaluate_batch differs from evaluate",
    );

    let t = Instant::now();
    for r in &recs {
        let mut p = UnboundedPredictor::new(UnboundedConfig::paper(DEPTH as usize));
        black_box(evaluate(&mut p, r));
    }
    let unbounded_ns = t.elapsed().as_nanos() as f64 / n as f64;

    let ticks = Ticks::calibrate();
    let mut empty = Vec::with_capacity(10_000);
    for _ in 0..10_000 {
        let a = ticks.now();
        let b = ticks.now();
        empty.push((b - a) as f64);
    }
    let overhead = median(&empty);
    let mut pass = [0u64; 5];
    let mut same = true;
    for (r, want) in recs.iter().zip(&reference) {
        let mut p = NextTracePredictor::new(paper());
        let mut st = PredictorStats::new();
        for rec in r.iter() {
            let t0 = ticks.now();
            let idx = p.indices();
            let t1 = ticks.now();
            p.prefetch_tables();
            let t2 = ticks.now();
            let pred = p.predict_at(idx);
            let t3 = ticks.now();
            st.score(&pred, rec);
            let t4 = ticks.now();
            p.train_at(idx, rec);
            let t5 = ticks.now();
            p.advance_history(rec.id(), rec.call_count(), rec.ends_in_return());
            let t6 = ticks.now();
            pass[0] += t1 - t0;
            pass[1] += t2 - t1;
            pass[2] += t3 - t2;
            pass[3] += t5 - t4;
            pass[4] += t6 - t5;
        }
        same &= st == *want;
    }
    report.check(same, "core probe: per-pass replay differs from evaluate");
    let per =
        |ticks_sum: u64| (ticks.ns(ticks_sum) / n as f64 - ticks.ns(overhead as u64)).max(0.0);

    report.layer("core.records", n as f64, "count");
    report.layer("core.evaluate_ns_per_record", eval_ns, "ns");
    report.layer("core.batch_ns_per_record", batch_ns, "ns");
    report.layer("core.unbounded_ns_per_record", unbounded_ns, "ns");
    for (i, name) in ["index", "prefetch", "predict", "train", "advance"]
        .iter()
        .enumerate()
    {
        report.layer(&format!("core.{name}_ns_per_record"), per(pass[i]), "ns");
    }
    report.layer(
        "core.alias_steals_per_kpred",
        steals as f64 * 1000.0 / preds.max(1) as f64,
        "1/kpred",
    );
    report.layer("core.corr_occupancy", occ / recs.len() as f64, "ratio");
}

/// The delayed-update engine over the same records.
fn engine_probe(streams: &[&[TraceRecord]], report: &mut Report) {
    let mut n = 0usize;
    let t = Instant::now();
    for s in streams {
        let r = &s[..s.len().min(PROBE_RECORDS)];
        let mut e =
            DelayedUpdateEngine::new(NextTracePredictor::new(paper()), EngineConfig::default());
        black_box(e.run(r));
        n += r.len();
    }
    report.layer("engine.traces", n as f64, "count");
    report.layer(
        "engine.ns_per_trace",
        t.elapsed().as_nanos() as f64 / n as f64,
        "ns",
    );
}

/// Wire encode, decode and frame reassembly per frame over the `mid`
/// rung's own request sequence.
fn wire_probe(streams: &[&[TraceRecord]], mid: &[crate::serving::Arrival], report: &mut Report) {
    let mut sent = [0usize; crate::serving::SESSIONS];
    let reqs: Vec<Request> = mid
        .iter()
        .map(|a| {
            let s = a.session as usize;
            let stream = streams[s % streams.len()];
            let record = stream[sent[s] % stream.len()];
            sent[s] += 1;
            Request::Update {
                session: s as u64,
                record,
            }
        })
        .collect();
    let n = reqs.len().max(1) as f64;
    let mut frame = Vec::with_capacity(64);
    let mut all = Vec::with_capacity(reqs.len() * 40);
    let t = Instant::now();
    for r in &reqs {
        wire::frame_request(&mut frame, r);
        all.extend_from_slice(&frame);
    }
    let encode_ns = t.elapsed().as_nanos() as f64 / n;

    // Split into bodies (len | body | checksum) for the decode pass.
    let mut bodies = Vec::with_capacity(reqs.len());
    let mut pos = 0;
    while pos + 4 <= all.len() {
        let len = u32::from_le_bytes(all[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        bodies.push(&all[pos + 4..pos + 4 + len]);
        pos += 4 + len + 8;
    }
    let t = Instant::now();
    let mut ok = bodies.len() == reqs.len();
    for (b, r) in bodies.iter().zip(&reqs) {
        ok &= wire::decode_request(b).is_ok_and(|d| d == *r);
    }
    let decode_ns = t.elapsed().as_nanos() as f64 / n;

    let t = Instant::now();
    let mut asm = FrameAssembler::new();
    let mut frames = 0usize;
    for chunk in all.chunks(4096) {
        asm.push(chunk);
        while let Some(ev) = asm.next(ntp_serve::client::CLIENT_MAX_FRAME) {
            frames += usize::from(matches!(ev, FrameEvent::Frame(_)));
        }
    }
    let assemble_ns = t.elapsed().as_nanos() as f64 / n;
    report.check(
        ok && frames == reqs.len(),
        "wire probe: frames do not round-trip",
    );
    report.layer("serve.wire.encode_ns", encode_ns, "ns");
    report.layer("serve.wire.decode_ns", decode_ns, "ns");
    report.layer("serve.wire.assemble_ns", assemble_ns, "ns");
}

/// Consistent-hash placement cost per lookup.
fn ring_probe(report: &mut Report) {
    let labels: Vec<String> = vec!["127.0.0.1:40001".into(), "127.0.0.1:40002".into()];
    let ring = ntp_cluster::HashRing::new(&labels, ntp_cluster::DEFAULT_VNODES);
    let n = 1_000_000u64;
    let t = Instant::now();
    let mut acc = 0u32;
    for s in 0..n {
        acc = acc.wrapping_add(ring.route(black_box(s)));
    }
    black_box(acc);
    report.layer(
        "cluster.ring_route_ns",
        t.elapsed().as_nanos() as f64 / n as f64,
        "ns",
    );
}

/// The router hop (an idle closed-loop probe, routed minus direct) and
/// the time of `RouterHandle::migrate` on a trained session.
pub fn cluster_probes(
    plane: &Plane,
    streams: &[&[TraceRecord]],
    report: &mut Report,
) -> Result<(), String> {
    let stream = streams[0];
    let probe = |addr: &str, session: u64| -> Result<Vec<u64>, String> {
        let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
        c.hello(session, BITS, DEPTH).map_err(|e| e.to_string())?;
        let mut v = Vec::with_capacity(3000);
        for rec in &stream[..3000.min(stream.len())] {
            let t = Instant::now();
            c.update(session, rec).map_err(|e| e.to_string())?;
            v.push(t.elapsed().as_nanos() as u64);
        }
        v.sort_unstable();
        Ok(v)
    };
    let routed = probe(&plane.entry, 1_000_000)?;
    let direct = probe(&plane.backends[0], 1_000_001)?;
    let hop = |p: f64| (percentile(&routed, p) as f64 - percentile(&direct, p) as f64) / 1000.0;
    report.layer("cluster.hop_us.p50", hop(50.0), "us");
    report.layer("cluster.hop_us.p99", hop(99.0), "us");

    // In-process cluster: two one-worker backends and a router.
    let mut backends = Vec::new();
    for _ in 0..2 {
        backends.push(
            ntp_serve::serve(ntp_serve::ServeConfig {
                addr: "127.0.0.1:0".into(),
                workers: 1,
                ..ntp_serve::ServeConfig::default()
            })
            .map_err(|e| e.to_string())?,
        );
    }
    let specs = backends
        .iter()
        .map(|b| ntp_cluster::BackendSpec {
            addr: b.local_addr().to_string(),
            snapshot_dir: None,
        })
        .collect();
    let router = ntp_cluster::start(ntp_cluster::RouterConfig::new(specs))?;
    let mut c = Client::connect(router.local_addr()).map_err(|e| e.to_string())?;
    let session = 7;
    c.hello(session, BITS, DEPTH).map_err(|e| e.to_string())?;
    let train = &stream[..stream.len().min(PROBE_RECORDS)];
    for chunk in train.chunks(4096) {
        c.batch(session, chunk).map_err(|e| e.to_string())?;
    }
    let mut times = Vec::new();
    for i in 0..11u32 {
        let t = Instant::now();
        router.migrate(session, 1 - i % 2)?;
        if i > 0 {
            times.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    let served = c.stats(session).map_err(|e| e.to_string())?;
    let mut p = NextTracePredictor::new(paper());
    report.check(
        served == evaluate(&mut p, train),
        "migrate probe: stats changed across migrations",
    );
    report.layer("cluster.migrate_ms", median(&times), "ms");
    let _ = c.shutdown_server();
    router.join();
    for b in backends {
        b.join();
    }
    Ok(())
}
