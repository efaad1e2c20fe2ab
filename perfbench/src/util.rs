//! Small shared pieces: order statistics, resident-set readings, record
//! digests, a cycle-counter clock and the span recorder of the traced run.

use ntp_trace::TraceRecord;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Repetitions of every timed set-up step; each step reports its median.
pub const SETUP_REPS: usize = 7;

/// Median of `v` (mean of the two middle values for even lengths); 0 for
/// an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of an already sorted slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile with at least 10 samples beyond it: the value
/// at the largest `p` in p99, p99.9, p99.99, ... that the sample count
/// still resolves.
pub fn resolvable_tail(sorted: &[u64]) -> u64 {
    let mut p = 99.0;
    let mut tail = 1.0;
    while (sorted.len() as f64) * (tail / 10.0) / 100.0 >= 10.0 {
        tail /= 10.0;
        p = 100.0 - tail;
    }
    percentile(sorted, p)
}

/// `VmHWM` (peak resident set) of a process in MiB, from `/proc`.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The canonical 8-byte form of a record (the wire/`.ntc` packing).
pub fn record_bytes(r: &TraceRecord) -> [u8; 8] {
    let pc = r.start_pc.to_le_bytes();
    let flags = r.call_count()
        | (u8::from(r.ends_in_return()) << 3)
        | (u8::from(r.ends_in_indirect()) << 4);
    [
        pc[0],
        pc[1],
        pc[2],
        pc[3],
        r.branch_bits,
        r.branch_count,
        r.len,
        flags,
    ]
}

/// FNV-1a-64 digest of a record stream.
pub fn records_digest(records: &[TraceRecord]) -> u64 {
    let mut h = ntp_hash::Fnv64::new();
    for r in records {
        h.update(&record_bytes(r));
    }
    h.finish()
}

/// A cheap monotonic tick source for per-call timing: the time-stamp
/// counter on x86_64 (calibrated against `Instant`), `Instant` elsewhere.
pub struct Ticks {
    origin: Instant,
    ns_per_tick: f64,
}

impl Ticks {
    /// Calibrates the counter over ~20 ms.
    pub fn calibrate() -> Ticks {
        let origin = Instant::now();
        let t0 = raw_ticks(origin);
        let start = Instant::now();
        while start.elapsed().as_millis() < 20 {
            std::hint::spin_loop();
        }
        let ns = start.elapsed().as_nanos() as f64;
        let t1 = raw_ticks(origin);
        let ns_per_tick = if t1 > t0 { ns / (t1 - t0) as f64 } else { 1.0 };
        Ticks {
            origin,
            ns_per_tick,
        }
    }

    /// The current tick count.
    #[inline(always)]
    pub fn now(&self) -> u64 {
        raw_ticks(self.origin)
    }

    /// Converts a tick delta to nanoseconds.
    pub fn ns(&self, ticks: u64) -> f64 {
        ticks as f64 * self.ns_per_tick
    }
}

#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn raw_ticks(_origin: Instant) -> u64 {
    // SAFETY: `rdtsc` has no preconditions on x86_64.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn raw_ticks(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// One recorded span of the traced run.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span name (a layer or phase).
    pub name: String,
    /// Shared id of the request or section the span belongs to.
    pub id: u64,
    /// Index of the parent span in the recorder, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
}

/// In-memory span store; written out once at the end of the traced run.
pub struct Spans {
    /// Time zero of every span.
    pub origin: Instant,
    /// The spans, in recording order.
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Spans::close`].
    pub fn open(&mut self, name: &str, id: u64, parent: Option<usize>) -> usize {
        let now = self.ns(Instant::now());
        self.push(name, id, parent, now, now)
    }

    /// Closes span `idx` now.
    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.ns(Instant::now());
    }

    /// Records a finished span.
    pub fn push(
        &mut self,
        name: &str,
        id: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            id,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Appends spans recorded by another store (same origin assumed),
    /// re-parenting their roots under `parent`.
    pub fn adopt(&mut self, other: Vec<Span>, parent: Option<usize>) {
        let base = self.spans.len();
        for mut s in other {
            s.parent = match s.parent {
                Some(p) => Some(p + base),
                None => parent,
            };
            self.spans.push(s);
        }
    }

    /// Self time of every span: its duration minus its children's
    /// durations (clamped at zero where children overlap, as concurrent
    /// requests do).
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.end_ns.saturating_sub(s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Writes one JSON object per line (name, id, parent, start, end, self
    /// time) and prints a self-time summary by span name to stderr.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        let selfs = self.self_times();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut by_name: Vec<(String, u64, u64)> = Vec::new();
        for (s, own) in self.spans.iter().zip(&selfs) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name, s.id, parent, s.start_ns, s.end_ns, own
            )?;
            match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(e) => {
                    e.1 += 1;
                    e.2 += own;
                }
                None => by_name.push((s.name.clone(), 1, *own)),
            }
        }
        out.flush()?;
        eprintln!(
            "[perfbench] spans: {} written to {}",
            self.spans.len(),
            path.display()
        );
        for (name, n, own) in by_name {
            eprintln!(
                "[perfbench]   {name:<24} {n:>8} spans  self {:>10.3} ms",
                own as f64 / 1e6
            );
        }
        Ok(())
    }
}

/// A directory removed (recursively) when dropped.
pub struct TempDir(pub PathBuf);

impl TempDir {
    /// Creates `parent/<prefix>-<pid>-<n>` fresh (removing leftovers).
    pub fn new(parent: &Path, prefix: &str) -> std::io::Result<TempDir> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = parent.join(format!(
            "{prefix}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
