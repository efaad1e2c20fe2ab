//! The offline phases: the cold `full`-preset capture and the warm
//! `default`-preset experiment replay, their correctness checks, the
//! once-per-checkout preparation (cache fill and uncached reference), and
//! the span-instrumented capture replica of the traced run.

use crate::util::{median, records_digest, Span, Spans, TempDir, SETUP_REPS};
use crate::Report;
use ntp_baselines::{MultiGAg, SequentialTracePredictor, TraceGshare};
use ntp_bench::{capture_fingerprint, exp, BenchData};
use ntp_trace::{
    ControlMix, RedundancyStats, Trace, TraceBuilder, TraceConfig, TraceRecord, TraceStats,
};
use ntp_tracefile::{format as ntc, CaptureArtifact};
use ntp_workloads::{suite, ScalePreset, Workload};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The experiment sections, in the order the `experiments` binary prints
/// them.
pub const SECTIONS: [&str; 13] = [
    "table1",
    "table2",
    "table3",
    "fig6",
    "fig7",
    "table4",
    "fig8",
    "cost_reduced",
    "ablations",
    "confidence",
    "selection_study",
    "trace_processor",
    "headline",
];

fn section(i: usize, data: &[BenchData]) -> String {
    match i {
        0 => exp::table1(data),
        1 => exp::table2(data),
        2 => exp::table3(),
        3 => exp::fig6(data),
        4 => exp::fig7(data),
        5 => exp::table4(data),
        6 => exp::fig8(data),
        7 => exp::cost_reduced(data),
        8 => exp::ablations(data),
        9 => exp::confidence(data),
        10 => exp::selection_study(),
        11 => exp::trace_processor(data),
        _ => exp::headline(data),
    }
}

/// Runs every section in order, returning the concatenated stdout text
/// and each section's wall time in seconds. With `spans`, each section is
/// also recorded as a span (id = section index) under `parent`.
pub fn run_sections(
    data: &[BenchData],
    mut spans: Option<(&mut Spans, usize)>,
) -> (String, Vec<f64>) {
    let mut out = String::new();
    let mut secs = Vec::with_capacity(SECTIONS.len());
    for (i, name) in SECTIONS.iter().enumerate() {
        let open = spans
            .as_mut()
            .map(|(s, p)| s.open(name, i as u64, Some(*p)));
        let t = Instant::now();
        out.push_str(&section(i, data));
        secs.push(t.elapsed().as_secs_f64());
        if let (Some((s, _)), Some(idx)) = (spans.as_mut(), open) {
            s.close(idx);
        }
    }
    (out, secs)
}

/// FNV-1a-64 of the running benchmark binary: the key of every
/// per-checkout artifact, so a rebuilt program never reuses stale state.
pub fn exe_key() -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    Ok(ntp_hash::fnv64(&bytes))
}

/// The once-per-checkout preparation: a `default`-preset `.ntc` cache
/// (the suite plus every selection-study policy) and the digest of an
/// uncached experiment run's stdout.
pub struct Prep {
    pub cache: PathBuf,
    pub reference: u64,
}

/// Returns the preparation for this build, running it in a child process
/// first if it does not exist yet (a child, so its memory never shows in
/// this process's peak resident set).
pub fn ensure_prep(work: &Path) -> Result<Prep, String> {
    let dir = work.join(format!("prep-{:016x}", exe_key()?));
    let ref_path = dir.join("reference");
    if !ref_path.exists() {
        eprintln!("[perfbench] preparing {} (once per build) …", dir.display());
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let status = std::process::Command::new(exe)
            .arg("--prepare")
            .arg(&dir)
            .stdout(std::process::Stdio::null())
            .status()
            .map_err(|e| format!("spawn prepare: {e}"))?;
        if !status.success() {
            return Err(format!("prepare exited with {status}"));
        }
    }
    let text =
        std::fs::read_to_string(&ref_path).map_err(|e| format!("{}: {e}", ref_path.display()))?;
    let reference =
        u64::from_str_radix(text.trim(), 16).map_err(|e| format!("bad reference: {e}"))?;
    Ok(Prep {
        cache: dir.join("cache"),
        reference,
    })
}

/// Body of `perfbench --prepare <dir>`: computes the uncached reference
/// digest, fills the cache, then publishes both by renaming into place.
pub fn prepare(dir: &Path) -> Result<(), String> {
    std::env::set_var("NTP_SCALE", "default");
    std::env::remove_var("NTP_TRACE_CACHE");
    let tmp = dir.with_extension(format!("tmp{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let cache = tmp.join("cache");
    std::fs::create_dir_all(&cache).map_err(|e| e.to_string())?;

    // Reference: an uncached run (no cache directory anywhere).
    let data = ntp_bench::capture_suite_in(None);
    let (out, _) = run_sections(&data, None);
    drop(data);
    let reference = ntp_hash::fnv64(out.as_bytes());

    // Fill: the suite and every selection-study policy.
    let data = ntp_bench::capture_suite_in(Some(&cache));
    drop(data);
    std::env::set_var("NTP_TRACE_CACHE", &cache);
    let _ = exp::selection_study();

    std::fs::write(tmp.join("reference"), format!("{reference:016x}\n"))
        .map_err(|e| e.to_string())?;
    match std::fs::rename(&tmp, dir) {
        Ok(()) => Ok(()),
        // Another run published the same build's preparation first.
        Err(_) if dir.join("reference").exists() => {
            let _ = std::fs::remove_dir_all(&tmp);
            Ok(())
        }
        Err(e) => Err(format!("publish {}: {e}", dir.display())),
    }
}

/// Loads the `default`-preset suite streams from the prepared cache.
pub fn load_default_streams(prep: &Prep) -> Result<Vec<(String, Vec<TraceRecord>)>, String> {
    let budget = ntp_bench::budget_from_env();
    suite(ScalePreset::Default)
        .iter()
        .map(|w| {
            let fp = capture_fingerprint(w, budget, &TraceConfig::default());
            let path = prep.cache.join(fp.file_name());
            ntc::read_file(&path, &fp)
                .map(|(a, _)| (w.name.to_string(), a.records))
                .map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect()
}

/// Result of the cold-capture phase.
pub struct Cold {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Median wall time of one full capture, seconds.
    pub wall_s: f64,
    /// The last repetition's data (kept for the probes of a traced run).
    pub data: Vec<BenchData>,
}

/// Per-benchmark identity of a capture: name, instruction count, record
/// count and record-stream digest.
fn identity(data: &[BenchData]) -> String {
    data.iter()
        .map(|d| {
            format!(
                "{} {} {} {:016x}\n",
                d.name,
                d.icount,
                d.records.len(),
                records_digest(&d.records)
            )
        })
        .collect()
}

/// Captures the `full`-preset suite into a fresh empty cache directory,
/// repeatedly until `budget_s` has passed (at least `min_reps` times),
/// checking every repetition: the per-benchmark identity must match the
/// first repetition and every earlier run of this build, and every
/// written `.ntc` file must read back equal to the captured data.
pub fn capture_cold(
    work: &Path,
    budget_s: f64,
    min_reps: usize,
    report: &mut Report,
) -> Result<Cold, String> {
    std::env::set_var("NTP_SCALE", "full");
    let budget = ntp_bench::budget_from_env();
    let cfg = TraceConfig::default();

    // Set-up: building the programs and their cache keys, plus an empty
    // cache directory — repeated, median reported.
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let ws = suite(ScalePreset::Full);
        let fps: Vec<_> = ws
            .iter()
            .map(|w| capture_fingerprint(w, budget, &cfg))
            .collect();
        let dir = TempDir::new(work, "cold-setup").map_err(|e| e.to_string())?;
        setups.push(t.elapsed().as_secs_f64());
        drop((fps, dir));
    }

    let expect_path = work.join(format!("capture-identity-{:016x}", exe_key()?));
    let mut expected = std::fs::read_to_string(&expect_path).ok();
    let mut walls = Vec::new();
    let start = Instant::now();
    let mut last = Vec::new();
    while walls.len() < min_reps || start.elapsed().as_secs_f64() < budget_s {
        // Free the previous repetition first: the peak RSS is one capture's.
        last.clear();
        let dir = TempDir::new(work, "cold-cache").map_err(|e| e.to_string())?;
        let t = Instant::now();
        let data = ntp_bench::capture_suite_in(Some(&dir.0));
        walls.push(t.elapsed().as_secs_f64());
        eprintln!(
            "[perfbench] cold capture repetition {}: {:.3} s",
            walls.len(),
            walls[walls.len() - 1]
        );

        // Checks, outside the timed region.
        let c = ntp_tracefile::counters();
        report.check(
            c.hits == 0 && c.misses == data.len() as u64 && c.stores == data.len() as u64,
            &format!(
                "cold capture must miss and store every benchmark ({})",
                c.summary_line()
            ),
        );
        let id = identity(&data);
        match &expected {
            Some(e) => {
                report.check(
                    *e == id,
                    &format!("capture identity differs across runs:\n{e}vs\n{id}"),
                );
            }
            None => {
                let _ = std::fs::write(&expect_path, &id);
                expected = Some(id);
            }
        }
        for (w, d) in suite(ScalePreset::Full).iter().zip(&data) {
            let fp = capture_fingerprint(w, budget, &cfg);
            let ok = match ntc::read_file(&dir.0.join(fp.file_name()), &fp) {
                Ok((a, _)) => a.records == d.records && a.icount == d.icount,
                Err(_) => false,
            };
            report.check(
                ok,
                &format!("{}: written .ntc does not read back equal", d.name),
            );
        }
        last = data;
    }
    Ok(Cold {
        setup_s: median(&setups),
        wall_s: median(&walls),
        data: last,
    })
}

/// Result of the warm-replay phase.
pub struct Warm {
    pub setup_s: f64,
    pub wall_s: f64,
    /// The warm-loaded suite data (also the serving streams).
    pub data: Vec<BenchData>,
    /// Per-section seconds of the last repetition.
    pub section_s: Vec<f64>,
}

/// Loads the suite from the prepared cache (set-up, repeated, median) and
/// runs every experiment section repeatedly for `budget_s` (at least
/// once), checking each repetition's stdout digest against the uncached
/// reference. With `spans`, the last repetition's sections are recorded.
pub fn replay_warm(
    prep: &Prep,
    budget_s: f64,
    report: &mut Report,
    mut spans: Option<&mut Spans>,
) -> Result<Warm, String> {
    std::env::set_var("NTP_SCALE", "default");
    std::env::set_var("NTP_TRACE_CACHE", &prep.cache);
    let mut setups = Vec::new();
    let mut data = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(std::mem::take(&mut data));
        let t = Instant::now();
        data = ntp_bench::capture_suite_in(Some(&prep.cache));
        setups.push(t.elapsed().as_secs_f64());
        let c = ntp_tracefile::counters();
        report.check(
            c.hits == data.len() as u64 && c.misses == 0 && c.invalid == 0,
            &format!("warm load must hit every benchmark ({})", c.summary_line()),
        );
    }
    let mut walls = Vec::new();
    let mut section_s = Vec::new();
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < budget_s {
        let parent = spans
            .as_mut()
            .map(|s| s.open("replay", walls.len() as u64, None));
        let t = Instant::now();
        let (out, secs) = run_sections(&data, spans.as_deref_mut().zip(parent));
        walls.push(t.elapsed().as_secs_f64());
        eprintln!(
            "[perfbench] warm replay repetition {}: {:.3} s",
            walls.len(),
            walls[walls.len() - 1]
        );
        if let (Some(s), Some(p)) = (spans.as_deref_mut(), parent) {
            s.close(p);
        }
        section_s = secs;
        report.check(
            ntp_hash::fnv64(out.as_bytes()) == prep.reference,
            "experiment stdout differs from the uncached reference run",
        );
    }
    Ok(Warm {
        setup_s: median(&setups),
        wall_s: median(&walls),
        data,
        section_s,
    })
}

/// What the span-instrumented capture replica measured.
#[derive(Default)]
pub struct ReplicaTotals {
    pub instrs: u64,
    pub records: u64,
    pub sim_s: f64,
    pub trace_s: f64,
    pub baselines_s: f64,
    pub write_s: f64,
    pub write_bytes: u64,
}

/// Steps simulated per chunk of the replica.
const CHUNK: usize = 1 << 18;

/// The capture pass rebuilt from the crates' public pieces, with a span
/// around every chunk of each layer: `sim` (`Machine::run_with` recording
/// steps), `trace` (`TraceBuilder::push` over the recorded steps),
/// `baselines` (trace statistics and the three streaming baselines) and
/// `ntc_write`. Returns the spans (one root per benchmark, id = suite
/// index), the records digest and the totals.
fn replica_one(
    idx: usize,
    w: &Workload,
    budget: u64,
    dir: &Path,
    origin: Instant,
) -> Result<(Vec<Span>, u64, ReplicaTotals), String> {
    let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
    let mut spans = vec![Span {
        name: "capture".into(),
        id: idx as u64,
        parent: None,
        start_ns: ns(Instant::now()),
        end_ns: 0,
    }];
    let mut tot = ReplicaTotals::default();
    let mut machine = w.machine();
    let mut builder = TraceBuilder::new(TraceConfig::default());
    let mut records = Vec::new();
    let mut trace_stats = TraceStats::new();
    let mut redundancy = RedundancyStats::new();
    let mut seq = SequentialTracePredictor::paper();
    let mut mb = TraceGshare::new(14);
    let mut gag = MultiGAg::new(14);
    let mut mix = ControlMix::new();
    let mut steps = Vec::with_capacity(CHUNK);
    let mut traces: Vec<Trace> = Vec::new();
    let mut remaining = budget;
    let mut done = false;
    while !done {
        steps.clear();
        let t0 = Instant::now();
        machine
            .run_with(remaining.min(CHUNK as u64), |s| steps.push(*s))
            .map_err(|e| format!("{}: simulation fault {e:?}", w.name))?;
        let t1 = Instant::now();
        remaining -= steps.len() as u64;
        done = steps.len() < CHUNK || remaining == 0 || machine.halted();
        for s in &steps {
            mix.record(s);
            if let Some(t) = builder.push(s) {
                traces.push(t);
            }
        }
        if done {
            traces.extend(builder.flush());
        }
        let t2 = Instant::now();
        for t in &traces {
            records.push(TraceRecord::from(t));
            trace_stats.record(t);
            redundancy.record(t);
            seq.observe(t);
            mb.observe(t);
            gag.observe(t);
        }
        traces.clear();
        let t3 = Instant::now();
        for (name, a, b) in [("sim", t0, t1), ("trace", t1, t2), ("baselines", t2, t3)] {
            spans.push(Span {
                name: name.into(),
                id: idx as u64,
                parent: Some(0),
                start_ns: ns(a),
                end_ns: ns(b),
            });
        }
        tot.sim_s += (t1 - t0).as_secs_f64();
        tot.trace_s += (t2 - t1).as_secs_f64();
        tot.baselines_s += (t3 - t2).as_secs_f64();
    }
    let digest = records_digest(&records);
    tot.instrs = machine.icount();
    tot.records = records.len() as u64;
    let fp = capture_fingerprint(w, budget, &TraceConfig::default());
    let artifact = CaptureArtifact {
        name: w.name.to_string(),
        analog_of: w.analog_of.to_string(),
        icount: machine.icount(),
        records,
        trace_stats: trace_stats.to_raw(),
        redundancy: redundancy.to_raw(),
        seq_stats: seq.stats().clone(),
        mb_stats: mb.stats().clone(),
        gag_stats: gag.stats().clone(),
        mix,
    };
    let t = Instant::now();
    tot.write_bytes =
        ntc::write_file(&dir.join(fp.file_name()), &fp, &artifact).map_err(|e| e.to_string())?;
    let t_end = Instant::now();
    tot.write_s = (t_end - t).as_secs_f64();
    spans.push(Span {
        name: "ntc_write".into(),
        id: idx as u64,
        parent: Some(0),
        start_ns: ns(t),
        end_ns: ns(t_end),
    });
    spans[0].end_ns = ns(t_end);
    Ok((spans, digest, tot))
}

/// Runs the replica over every benchmark of `preset` on two workers,
/// writing `.ntc` files into a fresh directory. Returns the per-benchmark
/// record digests (suite order), the summed totals and the wall time.
pub fn replica_capture(
    work: &Path,
    preset: ScalePreset,
    budget: u64,
    spans: &mut Spans,
    parent: Option<usize>,
) -> Result<(Vec<u64>, ReplicaTotals, f64), String> {
    let dir = TempDir::new(work, "replica").map_err(|e| e.to_string())?;
    let ws = suite(preset);
    let origin = spans.origin;
    let t = Instant::now();
    let results =
        ntp_runner::map_ordered_with(2, &ws, |i, w| replica_one(i, w, budget, &dir.0, origin));
    let wall = t.elapsed().as_secs_f64();
    let mut digests = Vec::new();
    let mut tot = ReplicaTotals::default();
    for r in results {
        let (s, digest, t) = r?;
        spans.adopt(s, parent);
        digests.push(digest);
        tot.instrs += t.instrs;
        tot.records += t.records;
        tot.sim_s += t.sim_s;
        tot.trace_s += t.trace_s;
        tot.baselines_s += t.baselines_s;
        tot.write_s += t.write_s;
        tot.write_bytes += t.write_bytes;
    }
    Ok((digests, tot, wall))
}
