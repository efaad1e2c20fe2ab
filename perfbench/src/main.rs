//! perfbench — the repository benchmark.
//!
//! One command runs one workload and prints, as the last line of stdout,
//! a JSON object `{"correct", "attempted", "failed", "metrics"}`:
//!
//! ```text
//! bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (each pairs one offline phase with one serving ladder, so
//! every workload reports every end-to-end metric):
//!
//! * `capture-cold.serve-zipf` — the six-benchmark suite captured at the
//!   `full` preset into an empty `.ntc` cache (simulator, `TraceBuilder`,
//!   baselines, `.ntc` write path), then an open-loop Zipf-1.0 ladder
//!   against one `ntp serve --workers 1 --event-threads 1`;
//! * `replay-warm.route-uniform` — the whole experiment suite at the
//!   `default` preset from a pre-filled cache (predictor core, engine,
//!   runner, `.ntc` read path), then a uniform ladder through `ntp route`
//!   in front of two one-worker backends with one scripted live
//!   migration.
//!
//! `--trace 0` reports end-to-end metrics from untraced runs; `--trace 1`
//! repeats the timed phases with spans, runs the per-layer probes over the
//! workload's own inputs and reports the per-layer metrics. Any failed
//! correctness check makes the run exit 1 (after printing its result).

mod offline;
mod probes;
mod serving;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 2] = ["capture-cold.serve-zipf", "replay-warm.route-uniform"];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `ntp` binary under test.
    pub ntp: PathBuf,
    /// Work directory for caches, span files and per-checkout state.
    pub work: PathBuf,
}

/// Accumulates checks, operation counts and metrics of one run.
pub struct Report {
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Set by any failed correctness check: the run's `correct` is false
    /// and it exits 1.
    pub incorrect: bool,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// One correctness check: counts as an attempt, and as a failure
    /// (loudly) when `ok` is false.
    pub fn check(&mut self, ok: bool, what: &str) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.incorrect = true;
            eprintln!("[perfbench] CHECK FAILED: {what}");
        }
        ok
    }

    /// An end-to-end metric (reported by untraced runs).
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        if !self.trace {
            self.metrics.push((name.to_string(), value, unit));
        }
    }

    /// A per-layer metric (reported by traced runs).
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        if self.trace {
            self.metrics.push((name.to_string(), value, unit));
        }
    }

    fn render(&self, correct: bool) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> --ntp <bin> --work <dir>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let workload = get("--workload").ok_or_else(usage)?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`\n{}", usage()));
    }
    let seed_text = get("--seed").unwrap_or_else(|| "1".into());
    let seed = match seed_text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => seed_text.parse(),
    }
    .map_err(|_| format!("bad --seed `{seed_text}`"))?;
    let seconds: f64 = get("--seconds")
        .unwrap_or_else(|| "20".into())
        .parse()
        .map_err(|_| "bad --seconds".to_string())?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    let trace = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(o) => return Err(format!("bad --trace `{o}`")),
    };
    let ntp = PathBuf::from(get("--ntp").ok_or_else(usage)?);
    let work = PathBuf::from(get("--work").ok_or_else(usage)?);
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        ntp,
        work,
    })
}

fn main() -> ExitCode {
    // Both offline phases run on two workers, like the load side.
    std::env::set_var("NTP_THREADS", "2");
    let argv: Vec<String> = std::env::args().collect();
    if argv.len() == 3 && argv[1] == "--prepare" {
        return match offline::prepare(&PathBuf::from(&argv[2])) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("[perfbench] prepare failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: cannot create {}: {e}", args.work.display());
        return ExitCode::from(2);
    }
    let mut report = Report {
        trace: args.trace,
        attempted: 0,
        failed: 0,
        incorrect: false,
        metrics: Vec::new(),
    };
    // Every `ntp` child lives in a guard that kills it on drop, so error
    // returns and panics both leave no process behind.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if args.workload == WORKLOADS[0] {
            serving::capture_serve(&args, &mut report)
        } else {
            serving::replay_route(&args, &mut report)
        }
    }));
    let error = match outcome {
        Ok(Ok(())) => None,
        Ok(Err(e)) => Some(e),
        Err(_) => Some("panicked".to_string()),
    };
    if let Some(e) = &error {
        eprintln!("[perfbench] RUN FAILED: {e}");
        report.ops(1, 1);
    }
    // Busy, error and timeout replies count in `failed`; only a failed
    // correctness check (or a run that could not finish) makes the run
    // incorrect.
    let correct = error.is_none() && !report.incorrect;
    println!("{}", report.render(correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
