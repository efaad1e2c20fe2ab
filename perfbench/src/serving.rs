//! The serving ladders, the benchmark's own exact-latency open-loop
//! generator, the `ntp` process plane, and the two workloads.

use crate::offline;
use crate::probes;
use crate::util::{median, peak_rss_mb, percentile, resolvable_tail, Spans, SETUP_REPS};
use crate::{Args, Report};
use ntp_core::{NextTracePredictor, PredictorConfig, PredictorStats, TracePredictor};
use ntp_serve::client::Client;
use ntp_serve::wire::{self, FrameAssembler, FrameEvent, Request, Response};
use ntp_telemetry::Json;
use ntp_trace::TraceRecord;
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Sessions opened by the generator (the suite streams, cycled).
pub const SESSIONS: usize = 16;
/// Predictor configuration of every session: `paper(15, 7)`.
pub const BITS: u32 = 15;
pub const DEPTH: u32 = 7;
/// Generator threads and connections (sessions pinned `session % CONNS`).
const CONNS: usize = 2;
/// A send later than this behind its scheduled time counts as late.
const LATE_NS: u64 = 1_000_000;
/// SLO: p99 sojourn at most 5 ms, failed ratio at most 0.1 %, late sends
/// at most 1 %.
const SLO_P99_US: f64 = 5000.0;
const SLO_FAILED: f64 = 0.001;
const SLO_LATE: f64 = 0.01;
/// A below-overload rung whose generator sent more than this share late
/// did not offer its schedule (the generator, not the system under test,
/// was starved of CPU); it is measured again, at most `MAX_RERUNS` times.
/// Every attempt's requests count in `attempted`/`failed`.
const VALID_LATE: f64 = 0.005;
const MAX_RERUNS: usize = 2;
/// Slice length of the windowed percentiles (50 ms).
const WINDOW_NS: u64 = 50_000_000;

/// One rate rung of a ladder.
#[derive(Clone, Copy)]
pub struct Rung {
    pub name: &'static str,
    pub rate: f64,
    /// Share of the ladder's time budget.
    pub share: f64,
}

/// The rungs reported by name; `overload` is shed by design.
pub const RUNG_NAMES: [&str; 4] = ["low", "mid", "high", "overload"];

fn ladder(rates: [f64; 4]) -> [Rung; 4] {
    let shares = [0.3, 0.3, 0.3, 0.1];
    std::array::from_fn(|i| Rung {
        name: RUNG_NAMES[i],
        rate: rates[i],
        share: shares[i],
    })
}

// ---------------------------------------------------------------------------
// Processes
// ---------------------------------------------------------------------------

extern "C" {
    fn prctl(option: i32, ...) -> i32;
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// True when the host has a CPU for the load and one for the plane.
fn can_pin() -> bool {
    std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2
}

/// Pins the calling thread (or, before `exec`, the child) to one CPU.
/// The generator runs on CPU 0 and every `ntp` process on CPU 1, so the
/// load never competes with the system under test for a core and thread
/// placement is the same in every run. Allocation-free, so it is safe
/// between `fork` and `exec`.
fn pin_to(cpu: usize) {
    let mut mask = [0u64; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a valid 1024-bit CPU set for the call's duration.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

/// CPU of the load generator.
const GEN_CPU: usize = 0;
/// CPU of the processes under test.
const PLANE_CPU: usize = 1;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const PR_SET_PDEATHSIG: i32 = 1;
const PR_SET_TIMERSLACK: i32 = 29;
const SIGKILL: i32 = 9;
const POLLIN: i16 = 1;
const POLLOUT: i16 = 4;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time of the calling thread, nanoseconds.
fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid out-pointer for the duration of the call.
    unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// One `ntp` child process, killed and reaped on drop.
pub struct Proc {
    child: Child,
    /// Kept open so the child's stdout writes never fail.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Proc {
    /// Spawns `ntp <args>` (dying with this process) and waits for the
    /// `listening on <addr>` line.
    fn spawn(ntp: &Path, args: &[String]) -> Result<Proc, String> {
        use std::os::unix::process::CommandExt;
        let mut cmd = Command::new(ntp);
        cmd.args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        // SAFETY: prctl and sched_setaffinity are async-signal-safe and
        // only set this child's parent-death signal and CPU mask.
        let pin = can_pin();
        unsafe {
            cmd.pre_exec(move || {
                prctl(PR_SET_PDEATHSIG, SIGKILL as u64);
                if pin {
                    pin_to(PLANE_CPU);
                }
                Ok(())
            });
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", ntp.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("ntp {} exited before listening", args.join(" ")));
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                break rest.split_whitespace().next().unwrap_or("").to_string();
            }
        };
        Ok(Proc {
            child,
            _stdout: stdout,
            addr,
        })
    }

    fn rss_mb(&self) -> f64 {
        peak_rss_mb(Some(self.child.id()))
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The processes under test: one server, or two backends behind a router.
pub struct Plane {
    pub procs: Vec<Proc>,
    /// Where the generator connects.
    pub entry: String,
    /// The serving backends (scraped for shard metrics).
    pub backends: Vec<String>,
    pub router: bool,
}

fn serve_args() -> Vec<String> {
    // A deeper shard queue than the default 128, so a generator burst
    // after a host scheduling stall is absorbed below the overload rung
    // instead of being shed.
    [
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "1",
        "--event-threads",
        "1",
        "--queue-depth",
        "1024",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn spawn_plane(ntp: &Path, migrate: Option<(u64, u64)>) -> Result<Plane, String> {
    match migrate {
        None => {
            let p = Proc::spawn(ntp, &serve_args())?;
            Ok(Plane {
                entry: p.addr.clone(),
                backends: vec![p.addr.clone()],
                procs: vec![p],
                router: false,
            })
        }
        Some((session, after)) => {
            let b0 = Proc::spawn(ntp, &serve_args())?;
            let b1 = Proc::spawn(ntp, &serve_args())?;
            let backends = vec![b0.addr.clone(), b1.addr.clone()];
            let args: Vec<String> = vec![
                "route".into(),
                "--addr".into(),
                "127.0.0.1:0".into(),
                "--backends".into(),
                backends.join(","),
                "--migrate".into(),
                format!("{session}:next:{after}"),
            ];
            let r = Proc::spawn(ntp, &args)?;
            Ok(Plane {
                entry: r.addr.clone(),
                backends,
                procs: vec![b0, b1, r],
                router: true,
            })
        }
    }
}

impl Plane {
    fn rss_mb(&self) -> f64 {
        self.procs.iter().map(Proc::rss_mb).sum()
    }

    /// Drains the plane with a `Shutdown` frame (the router forwards it to
    /// its backends); the guards kill whatever is still running.
    fn shutdown(self) {
        if let Ok(mut c) = Client::connect(&self.entry) {
            let _ = c.shutdown_server();
        }
        let deadline = Instant::now() + Duration::from_secs(3);
        let mut procs = self.procs;
        while Instant::now() < deadline && !procs.is_empty() {
            procs.retain_mut(|p| !matches!(p.child.try_wait(), Ok(Some(_))));
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics frames
// ---------------------------------------------------------------------------

/// Flattened `section/name` counters (histograms as `.count`/`.sum`).
type Flat = BTreeMap<String, f64>;

fn scrape(addr: &str) -> Result<Flat, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("metrics connect {addr}: {e}"))?;
    let json = match c.request(&Request::Metrics).map_err(|e| e.to_string())? {
        Response::Metrics { json } => json,
        other => return Err(format!("expected Metrics, got {other:?}")),
    };
    let doc = ntp_telemetry::json::parse(&json).map_err(|e| format!("metrics json: {e:?}"))?;
    let mut flat = Flat::new();
    if let Json::Object(sections) = doc {
        for (sec, body) in sections {
            if let Some(Json::Object(cs)) = body.get("counters") {
                for (k, v) in cs {
                    flat.insert(format!("{sec}/{k}"), v.as_f64().unwrap_or(0.0));
                }
            }
            if let Some(Json::Object(hs)) = body.get("histograms") {
                for (k, h) in hs {
                    for f in ["count", "sum"] {
                        let v = h.get(f).and_then(Json::as_f64).unwrap_or(0.0);
                        flat.insert(format!("{sec}/{k}.{f}"), v);
                    }
                }
            }
        }
    }
    Ok(flat)
}

/// Sum over every backend's snapshot.
fn scrape_backends(plane: &Plane) -> Result<Flat, String> {
    let mut total = Flat::new();
    for b in &plane.backends {
        for (k, v) in scrape(b)? {
            *total.entry(k).or_default() += v;
        }
    }
    Ok(total)
}

fn delta(after: &Flat, before: &Flat, key: &str) -> f64 {
    after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0)
}

// ---------------------------------------------------------------------------
// The open-loop generator
// ---------------------------------------------------------------------------

/// One scheduled arrival.
#[derive(Clone, Copy)]
pub struct Arrival {
    /// Scheduled send time, nanoseconds after the rung's start.
    pub off_ns: u64,
    pub session: u32,
}

/// The deterministic arrival schedule of one rung: arrival `k` at
/// `k / rate`, its session drawn from a Zipf(`zipf`) CDF over the
/// sessions (0 = uniform) with a xorshift stream seeded from
/// `(seed, rung)`. A pure function of its arguments.
pub fn schedule(seed: u64, rung: u64, rate: f64, secs: f64, zipf: f64) -> Vec<Arrival> {
    let total = (rate * secs).round() as usize;
    let weights: Vec<f64> = (0..SESSIONS)
        .map(|i| 1.0 / ((i + 1) as f64).powf(zipf))
        .collect();
    let sum: f64 = weights.iter().sum();
    let mut acc = 0.0;
    let cdf: Vec<f64> = weights
        .iter()
        .map(|w| {
            acc += w / sum;
            acc
        })
        .collect();
    // splitmix64 of (seed, rung) seeds the xorshift state.
    let mut z = seed ^ (rung + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let mut x = (z ^ (z >> 31)) | 1;
    (0..total)
        .map(|k| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            Arrival {
                off_ns: (k as f64 * 1e9 / rate) as u64,
                session: cdf.partition_point(|&c| c < u).min(SESSIONS - 1) as u32,
            }
        })
        .collect()
}

/// What happened to one request.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Applied,
    Busy,
    Error,
    Timeout,
}

/// One finished request.
#[derive(Clone, Copy)]
pub struct Done {
    pub off_ns: u64,
    /// Reply time, nanoseconds after the rung's start.
    pub reply_ns: u64,
    outcome: Outcome,
}

/// One generator connection with the per-session state of its pinned
/// sessions (which persists across rungs).
struct Conn {
    stream: TcpStream,
    asm: FrameAssembler,
    /// Updates sent so far, per session (global session index).
    sent: Vec<u64>,
    /// Applied `(send index, served correct bit)` per session, in order.
    applied: Vec<Vec<(u64, bool)>>,
}

/// Per-connection outcome of one rung.
#[derive(Default)]
struct ConnRung {
    done: Vec<Done>,
    late: u64,
    cpu_ns: u64,
    error: Option<String>,
}

struct InFlight {
    off_ns: u64,
    session: u32,
    k: u64,
}

fn drive(
    conn: &mut Conn,
    arrivals: &[Arrival],
    streams: &[&[TraceRecord]],
    t0: Instant,
    grace: Duration,
) -> ConnRung {
    let cpu0 = thread_cpu_ns();
    // SAFETY: sets this thread's timer slack to 1 ns (precise wakeups).
    unsafe { prctl(PR_SET_TIMERSLACK, 1u64) };
    if can_pin() {
        pin_to(GEN_CPU);
    }
    let mut r = ConnRung::default();
    let last_off = arrivals.last().map_or(0, |a| a.off_ns);
    let deadline = t0 + Duration::from_nanos(last_off) + grace;
    let mut out: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut out_pos = 0usize;
    let mut frame = Vec::with_capacity(64);
    let mut inflight: VecDeque<InFlight> = VecDeque::new();
    let mut buf = vec![0u8; 1 << 16];
    let mut next = 0usize;
    let fd = conn.stream.as_raw_fd();
    let fail = |r: &mut ConnRung, e: String| {
        r.error.get_or_insert(e);
    };
    loop {
        let now_ns = Instant::now().saturating_duration_since(t0).as_nanos() as u64;
        while next < arrivals.len() && arrivals[next].off_ns <= now_ns {
            let a = arrivals[next];
            if now_ns - a.off_ns > LATE_NS {
                r.late += 1;
            }
            let s = a.session as usize;
            let k = conn.sent[s];
            conn.sent[s] += 1;
            let stream = streams[s % streams.len()];
            let record = stream[(k % stream.len() as u64) as usize];
            wire::frame_request(
                &mut frame,
                &Request::Update {
                    session: s as u64,
                    record,
                },
            );
            out.extend_from_slice(&frame);
            inflight.push_back(InFlight {
                off_ns: a.off_ns,
                session: a.session,
                k,
            });
            next += 1;
        }
        if out_pos < out.len() {
            match conn.stream.write(&out[out_pos..]) {
                Ok(n) => out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => {
                    fail(&mut r, format!("write: {e}"));
                    break;
                }
            }
            if out_pos == out.len() {
                out.clear();
                out_pos = 0;
            }
        }
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    fail(&mut r, "connection closed by server".into());
                    break;
                }
                Ok(n) => conn.asm.push(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => {
                    fail(&mut r, format!("read: {e}"));
                    break;
                }
            }
        }
        if r.error.is_some() {
            break;
        }
        let reply_ns = Instant::now().saturating_duration_since(t0).as_nanos() as u64;
        while let Some(ev) = conn.asm.next(ntp_serve::client::CLIENT_MAX_FRAME) {
            let Some(f) = inflight.pop_front() else {
                fail(&mut r, "reply without a request".into());
                break;
            };
            let outcome = match ev {
                FrameEvent::Frame(body) => match wire::decode_response(&body) {
                    Ok(Response::Updated { correct }) => {
                        conn.applied[f.session as usize].push((f.k, correct));
                        Outcome::Applied
                    }
                    Ok(Response::Busy) => Outcome::Busy,
                    _ => Outcome::Error,
                },
                FrameEvent::Refused(_) => Outcome::Error,
            };
            r.done.push(Done {
                off_ns: f.off_ns,
                reply_ns,
                outcome,
            });
        }
        if next == arrivals.len() && inflight.is_empty() {
            break;
        }
        let now = Instant::now();
        if now > deadline {
            for f in inflight.drain(..) {
                r.done.push(Done {
                    off_ns: f.off_ns,
                    reply_ns: u64::MAX,
                    outcome: Outcome::Timeout,
                });
            }
            break;
        }
        let now_ns = now.saturating_duration_since(t0).as_nanos() as u64;
        let wait_ns = if next < arrivals.len() {
            arrivals[next].off_ns.saturating_sub(now_ns)
        } else {
            2_000_000
        };
        if wait_ns > 0 {
            let mut pfd = PollFd {
                fd,
                events: POLLIN | if out.is_empty() { 0 } else { POLLOUT },
                revents: 0,
            };
            let ts = Timespec {
                tv_sec: (wait_ns / 1_000_000_000) as i64,
                tv_nsec: (wait_ns % 1_000_000_000) as i64,
            };
            // SAFETY: one valid pollfd and timespec for the call's duration.
            unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
        }
    }
    r.cpu_ns = thread_cpu_ns() - cpu0;
    r
}

/// One rung's merged outcome.
pub struct RungResult {
    pub done: Vec<Done>,
    pub late: u64,
    pub cpu_ns: u64,
    /// Start of the rung, for spans.
    pub t0: Instant,
}

impl RungResult {
    fn count(&self, o: Outcome) -> u64 {
        self.done.iter().filter(|d| d.outcome == o).count() as u64
    }

    /// p50 and p99 sojourn in microseconds, each the median over the
    /// rung's `WINDOW_NS` slices (by scheduled time) of the exact
    /// percentile of that slice's raw samples: a host scheduling stall
    /// moves the slices it falls in, not the reported figure.
    fn windowed(&self) -> (f64, f64) {
        let windows =
            (self.done.iter().map(|d| d.off_ns).max().unwrap_or(0) / WINDOW_NS + 1) as usize;
        let mut slices: Vec<Vec<u64>> = vec![Vec::new(); windows];
        for d in self.done.iter().filter(|d| d.outcome == Outcome::Applied) {
            slices[(d.off_ns / WINDOW_NS) as usize].push(d.reply_ns - d.off_ns);
        }
        let mut p50 = Vec::new();
        let mut p99 = Vec::new();
        for mut s in slices.into_iter().filter(|s| !s.is_empty()) {
            s.sort_unstable();
            p50.push(percentile(&s, 50.0) as f64 / 1e3);
            p99.push(percentile(&s, 99.0) as f64 / 1e3);
        }
        (median(&p50), median(&p99))
    }

    /// Applied replies per second while the plane is saturated: the
    /// median over the 50 ms slices (by reply time) between the first and
    /// the last applied reply of each slice's reply count, so a host stall
    /// costs the slices it falls in, not the figure.
    fn capacity(&self) -> f64 {
        let replies: Vec<u64> = self
            .done
            .iter()
            .filter(|d| d.outcome == Outcome::Applied)
            .map(|d| d.reply_ns)
            .collect();
        let (Some(&first), Some(&last)) = (replies.iter().min(), replies.iter().max()) else {
            return 0.0;
        };
        let full = ((last - first) / WINDOW_NS) as usize;
        if full == 0 {
            return replies.len() as f64 / ((last - first).max(1) as f64 / 1e9);
        }
        let mut counts = vec![0u64; full];
        for r in replies {
            if let Some(c) = counts.get_mut(((r - first) / WINDOW_NS) as usize) {
                *c += 1;
            }
        }
        let rates: Vec<f64> = counts
            .iter()
            .map(|&c| c as f64 / (WINDOW_NS as f64 / 1e9))
            .collect();
        median(&rates)
    }

    /// Sorted sojourn times of applied requests, nanoseconds.
    fn sojourn_ns(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .done
            .iter()
            .filter(|d| d.outcome == Outcome::Applied)
            .map(|d| d.reply_ns - d.off_ns)
            .collect();
        v.sort_unstable();
        v
    }
}

/// The generator: two connections, one thread each.
pub struct Generator {
    conns: Vec<Conn>,
}

impl Generator {
    /// Connects and opens every session (lockstep `Hello`s).
    fn connect(addr: &str) -> Result<Generator, String> {
        let mut conns = Vec::new();
        for _ in 0..CONNS {
            let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            conns.push(Conn {
                stream: s,
                asm: FrameAssembler::new(),
                sent: vec![0; SESSIONS],
                applied: vec![Vec::new(); SESSIONS],
            });
        }
        let mut frame = Vec::new();
        for s in 0..SESSIONS {
            let c = &mut conns[s % CONNS];
            wire::frame_request(
                &mut frame,
                &Request::Hello {
                    session: s as u64,
                    bits: BITS,
                    depth: DEPTH,
                },
            );
            c.stream.write_all(&frame).map_err(|e| e.to_string())?;
            let body = wire::read_frame(&mut c.stream, ntp_serve::client::CLIENT_MAX_FRAME)
                .map_err(|e| e.to_string())?;
            match wire::decode_response(&body) {
                Ok(Response::HelloOk { .. }) => {}
                other => return Err(format!("session {s}: Hello refused: {other:?}")),
            }
        }
        for c in &conns {
            c.stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        }
        Ok(Generator { conns })
    }

    /// Runs one rung's schedule open-loop and waits for every reply (or
    /// the grace period).
    fn run(&mut self, arrivals: &[Arrival], streams: &[&[TraceRecord]]) -> RungResult {
        let per_conn: Vec<Vec<Arrival>> = (0..CONNS)
            .map(|c| {
                arrivals
                    .iter()
                    .copied()
                    .filter(|a| a.session as usize % CONNS == c)
                    .collect()
            })
            .collect();
        let t0 = Instant::now() + Duration::from_millis(5);
        let grace = Duration::from_secs(10);
        let results: Vec<ConnRung> = std::thread::scope(|sc| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .zip(&per_conn)
                .map(|(conn, arr)| sc.spawn(move || drive(conn, arr, streams, t0, grace)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread"))
                .collect()
        });
        let mut out = RungResult {
            done: Vec::with_capacity(arrivals.len()),
            late: 0,
            cpu_ns: 0,
            t0,
        };
        for r in results {
            if let Some(e) = r.error {
                eprintln!("[perfbench] generator: {e}");
            }
            out.done.extend(r.done);
            out.late += r.late;
            out.cpu_ns += r.cpu_ns;
        }
        // A connection that died leaves requests without replies: they
        // count as timeouts.
        let missing = arrivals.len().saturating_sub(out.done.len());
        for _ in 0..missing {
            out.done.push(Done {
                off_ns: 0,
                reply_ns: u64::MAX,
                outcome: Outcome::Timeout,
            });
        }
        out
    }

    /// Checks every session's served statistics against `evaluate`-order
    /// replay of its applied subsequence (and every served correct bit
    /// against the replay's). Returns the number of mismatching sessions.
    fn check_sessions(
        &self,
        addr: &str,
        streams: &[&[TraceRecord]],
        report: &mut Report,
    ) -> Result<(), String> {
        let mut client = Client::connect(addr).map_err(|e| format!("stats connect: {e}"))?;
        let cfg = PredictorConfig::paper(BITS, DEPTH as usize);
        for s in 0..SESSIONS {
            let served = client
                .stats(s as u64)
                .map_err(|e| format!("stats {s}: {e}"))?;
            let stream = streams[s % streams.len()];
            let mut p = NextTracePredictor::new(cfg);
            let mut oracle = PredictorStats::new();
            let mut bits_ok = true;
            for &(k, correct) in &self.conns[s % CONNS].applied[s] {
                let rec = stream[(k % stream.len() as u64) as usize];
                let pred = p.predict();
                bits_ok &= pred.is_correct(rec.id()) == correct;
                oracle.score(&pred, &rec);
                p.update(&rec);
            }
            report.check(
                bits_ok && served == oracle,
                &format!(
                    "session {s}: served stats differ from evaluate over the applied subsequence"
                ),
            );
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The ladder
// ---------------------------------------------------------------------------

/// Ladder outcome handed to the probes of a traced run.
pub struct LadderOut {
    /// Arrivals of the `mid` rung (the wire probe re-encodes them).
    pub mid: Vec<Arrival>,
}

/// Sets the plane up `SETUP_REPS` times (spawn and every `Hello`; the
/// median is the plane's set-up time) and keeps the last one, runs the
/// warm-up and the four rungs on it, scrapes `Metrics` around each rung,
/// checks every session and reports all serving metrics. Returns the
/// ladder outcome, the set-up time, the plane's summed peak RSS and the
/// plane itself.
#[allow(clippy::too_many_arguments)]
fn run_ladder(
    args: &Args,
    streams: &[&[TraceRecord]],
    rates: [f64; 4],
    zipf: f64,
    secs: f64,
    route: bool,
    report: &mut Report,
    spans: Option<&mut Spans>,
) -> Result<(LadderOut, f64, f64, Plane), String> {
    let rungs = ladder(rates);
    let warm_secs = 0.5;
    let warm = schedule(args.seed, 0, rates[0], warm_secs, zipf);
    let scheds: Vec<Vec<Arrival>> = rungs
        .iter()
        .enumerate()
        .map(|(i, r)| schedule(args.seed, i as u64 + 1, r.rate, secs * r.share, zipf))
        .collect();
    let mut digest = ntp_hash::Fnv64::new();
    for a in warm.iter().chain(scheds.iter().flatten()) {
        digest.update(&a.off_ns.to_le_bytes());
        digest.update(&a.session.to_le_bytes());
    }
    eprintln!(
        "[perfbench] schedule digest {:016x} (seed {}, zipf {zipf}, {} arrivals)",
        digest.finish(),
        args.seed,
        warm.len() + scheds.iter().map(Vec::len).sum::<usize>()
    );

    // The scripted migration fires halfway through `mid`: count session
    // 0's frames (its Hello plus updates) scheduled before that point.
    let migrate = route.then(|| {
        let half = (secs * rungs[1].share * 0.5 * 1e9) as u64;
        let before = warm
            .iter()
            .chain(&scheds[0])
            .filter(|a| a.session == 0)
            .count()
            + scheds[1]
                .iter()
                .filter(|a| a.session == 0 && a.off_ns < half)
                .count();
        (0u64, before as u64 + 1)
    });

    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_REPS {
        drop(live.take());
        let t = Instant::now();
        let plane = spawn_plane(&args.ntp, migrate)?;
        let gen = Generator::connect(&plane.entry)?;
        setups.push(t.elapsed().as_secs_f64());
        live = Some((plane, gen));
    }
    let (plane, mut gen) = live.expect("at least one set-up");
    let setup_s = median(&setups);

    let w = gen.run(&warm, streams);
    let mut attempted = w.done.len() as u64;
    let mut failed = w.count(Outcome::Busy) + w.count(Outcome::Error) + w.count(Outcome::Timeout);

    let mut results = Vec::new();
    let mut slo_qps = 0.0f64;
    let mut reruns = 0usize;
    for (rung, sched) in rungs.iter().zip(&scheds) {
        let n = rung.name;
        let mut attempt = 0;
        let (res, before, after, rb, ra) = loop {
            let before = scrape_backends(&plane)?;
            let rb = if plane.router {
                scrape(&plane.entry)?
            } else {
                Flat::new()
            };
            let res = gen.run(sched, streams);
            let after = scrape_backends(&plane)?;
            let ra = if plane.router {
                scrape(&plane.entry)?
            } else {
                Flat::new()
            };
            let sent = res.done.len() as u64;
            let busy = res.count(Outcome::Busy);
            let errors = res.count(Outcome::Error) + res.count(Outcome::Timeout);
            if n == "overload" {
                attempted += errors;
                failed += errors;
                break (res, before, after, rb, ra);
            }
            attempted += sent;
            failed += busy + errors;
            let late_ratio = res.late as f64 / sent.max(1) as f64;
            if late_ratio <= VALID_LATE || attempt == MAX_RERUNS {
                break (res, before, after, rb, ra);
            }
            attempt += 1;
            reruns += 1;
            eprintln!(
                "[perfbench] rung {n}: generator late on {:.2}% of sends, measuring again",
                late_ratio * 100.0
            );
        };

        let sent = res.done.len() as u64;
        let busy = res.count(Outcome::Busy);
        let errors = res.count(Outcome::Error) + res.count(Outcome::Timeout);
        let applied = res.count(Outcome::Applied);
        let soj = res.sojourn_ns();
        let (p50, p99) = res.windowed();
        let late_ratio = res.late as f64 / sent.max(1) as f64;
        // Latencies, capacity and `slo_qps` do not repeat within the
        // largest allowed bound on a shared two-CPU host (their run-to-run
        // spread is set by the host's wake-up latency), so the traced run
        // reports them ungated.
        if n == "overload" {
            report.layer("capacity_qps", res.capacity(), "1/s");
        } else {
            report.layer(&format!("p50_us.{n}"), p50, "us");
            report.layer(&format!("p99_us.{n}"), p99, "us");
            let rung_failed = (busy + errors) as f64 / sent.max(1) as f64;
            if p99 <= SLO_P99_US && rung_failed <= SLO_FAILED && late_ratio <= SLO_LATE {
                slo_qps = slo_qps.max(rung.rate);
            }
        }
        eprintln!(
            "[perfbench] rung {n:<8} {:>7.0}/s sent {sent} applied {applied} busy {busy} errors {errors} late {} p50 {p50:.1} us p99 {p99:.1} us",
            rung.rate, res.late
        );

        // Per-layer view of the rung.
        let frames = delta(&after, &before, "total/frames.update");
        let busy_us = delta(&after, &before, "total/time.busy_us");
        let idle_us = delta(&after, &before, "total/time.idle_us");
        let wakeups = delta(&after, &before, "server/loop.frames_per_wakeup.count");
        let woken = delta(&after, &before, "server/loop.frames_per_wakeup.sum");
        report.layer(&format!("serve.frames.{n}"), frames, "count");
        report.layer(
            &format!("serve.shard_busy_ratio.{n}"),
            busy_us / (busy_us + idle_us).max(1.0),
            "ratio",
        );
        report.layer(
            &format!("serve.busy_rejections.{n}"),
            delta(&after, &before, "total/busy.rejections"),
            "count",
        );
        report.layer(
            &format!("serve.coalesced_ratio.{n}"),
            delta(&after, &before, "total/drain.coalesced") / frames.max(1.0),
            "ratio",
        );
        report.layer(
            &format!("serve.batched_ratio.{n}"),
            delta(&after, &before, "total/drain.batched") / frames.max(1.0),
            "ratio",
        );
        report.layer(
            &format!("serve.frames_per_wakeup.{n}"),
            woken / wakeups.max(1.0),
            "ratio",
        );
        report.layer(
            &format!("cluster.forwarded.{n}"),
            delta(&ra, &rb, "router/route.forwarded"),
            "count",
        );
        report.layer(&format!("gen.sent.{n}"), sent as f64, "count");
        report.layer(&format!("gen.samples.{n}"), soj.len() as f64, "count");
        report.layer(&format!("gen.late_ratio.{n}"), late_ratio, "ratio");
        let tail = resolvable_tail(&soj) as f64 / 1000.0;
        report.layer(&format!("gen.p999_us.{n}"), tail, "us");
        results.push(res);
    }
    report.layer("slo_qps", slo_qps, "1/s");
    let requests: u64 = results.iter().map(|r| r.done.len() as u64).sum();
    let cpu: u64 = results.iter().map(|r| r.cpu_ns).sum();
    report.layer("gen.client_ns", cpu as f64 / requests.max(1) as f64, "ns");
    report.layer("gen.reruns", reruns as f64, "count");
    report.ops(attempted, failed);

    gen.check_sessions(&plane.entry, streams, report)?;
    if plane.router {
        let r = scrape(&plane.entry)?;
        let migrations = r.get("router/route.migrations").copied().unwrap_or(0.0);
        let errors = r.get("router/route.errors").copied().unwrap_or(0.0);
        report.check(
            migrations >= 1.0,
            "route-uniform: the scripted migration did not happen",
        );
        report.check(
            errors == 0.0,
            &format!("route-uniform: router counted {errors} errors"),
        );
        report.layer("cluster.migrations", migrations, "count");
        report.layer("cluster.errors", errors, "count");
    } else {
        report.layer("cluster.migrations", 0.0, "count");
        report.layer("cluster.errors", 0.0, "count");
    }
    let rss = plane.rss_mb();

    if let Some(sp) = spans {
        // Spans of the ladder: one per rung, one per request (id = the
        // request's index in the rung, start = scheduled send time).
        let root = sp.open("ladder", args.seed, None);
        for (i, r) in results.iter().enumerate() {
            let base = sp.ns(r.t0);
            let end = r
                .done
                .iter()
                .filter(|d| d.reply_ns != u64::MAX)
                .map(|d| d.reply_ns)
                .max()
                .unwrap_or(0);
            let rung = sp.push(RUNG_NAMES[i], i as u64, Some(root), base, base + end);
            for (k, d) in r.done.iter().enumerate() {
                if d.reply_ns != u64::MAX {
                    sp.push(
                        "request",
                        k as u64,
                        Some(rung),
                        base + d.off_ns,
                        base + d.reply_ns,
                    );
                }
            }
        }
        sp.close(root);
    }
    Ok((
        LadderOut {
            mid: scheds[1].clone(),
        },
        setup_s,
        rss,
        plane,
    ))
}

// ---------------------------------------------------------------------------
// The workloads
// ---------------------------------------------------------------------------

/// Splits the measured time: three quarters to the offline phase, whose
/// repetitions average over the host's slow speed drift, and a quarter to
/// the ladder.
fn split(args: &Args) -> (f64, f64) {
    (args.seconds * 0.75, args.seconds * 0.25)
}

/// `capture-cold.serve-zipf`.
pub fn capture_serve(args: &Args, report: &mut Report) -> Result<(), String> {
    let (off_s, ladder_s) = split(args);
    let prep = offline::ensure_prep(&args.work)?;
    let mut spans = Spans::new();

    let cold = offline::capture_cold(&args.work, off_s, 3, report)?;
    let rss_offline = peak_rss_mb(None);
    let capture_threads = ntp_bench::section_throughput();

    // Traced repeat of the timed phase: the span-instrumented replica.
    let mut replica = None;
    if args.trace {
        let root = spans.open("capture-cold", 0, None);
        let budget = ntp_bench::budget_from_env();
        let (digests, tot, wall) = offline::replica_capture(
            &args.work,
            ntp_workloads::ScalePreset::Full,
            budget,
            &mut spans,
            Some(root),
        )?;
        spans.close(root);
        let same = digests
            .iter()
            .zip(&cold.data)
            .all(|(d, b)| *d == crate::util::records_digest(&b.records));
        report.check(
            same && digests.len() == cold.data.len(),
            "traced capture replica differs from capture_suite_in",
        );
        replica = Some((tot, wall));
    }

    // The serving streams' load is set-up too: repeated, median reported.
    let mut loads = Vec::new();
    let mut streams_owned = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(std::mem::take(&mut streams_owned));
        let t = Instant::now();
        streams_owned = offline::load_default_streams(&prep)?;
        loads.push(t.elapsed().as_secs_f64());
    }
    let load_s = median(&loads);
    let streams: Vec<&[TraceRecord]> = streams_owned.iter().map(|(_, r)| r.as_slice()).collect();
    let (ladder, plane_setup_s, rss_plane, plane) = run_ladder(
        args,
        &streams,
        [10_000.0, 20_000.0, 30_000.0, 600_000.0],
        1.0,
        ladder_s,
        false,
        report,
        args.trace.then_some(&mut spans),
    )?;
    plane.shutdown();

    eprintln!(
        "[perfbench] set-up medians: programs {:.4} s, stream load {load_s:.4} s, plane {plane_setup_s:.4} s",
        cold.setup_s
    );
    report.e2e("setup_s", cold.setup_s + load_s + plane_setup_s, "s");
    report.layer("wall_s", cold.wall_s, "s");
    report.e2e("peak_rss_mb", rss_offline + rss_plane, "MiB");

    if args.trace {
        let (tot, wall) = replica.expect("traced replica");
        report.layer("tracing.overhead_ratio", wall / cold.wall_s, "ratio");
        report.layer("sim.instrs", tot.instrs as f64, "count");
        report.layer("sim.busy_s", tot.sim_s, "s");
        report.layer(
            "sim.minstr_per_s",
            tot.instrs as f64 / 1e6 / tot.sim_s,
            "Minstr/s",
        );
        report.layer("trace.records", tot.records as f64, "count");
        report.layer("trace.busy_s", tot.trace_s, "s");
        report.layer(
            "trace.ns_per_record",
            tot.trace_s * 1e9 / tot.records as f64,
            "ns",
        );
        report.layer("baselines.busy_s", tot.baselines_s, "s");
        report.layer(
            "baselines.ns_per_trace",
            tot.baselines_s * 1e9 / tot.records as f64,
            "ns",
        );
        for s in offline::SECTIONS {
            report.layer(&format!("bench.section_s.{s}"), 0.0, "s");
        }
        probes::runner_metrics(&capture_threads, report);
        let data: Vec<&[TraceRecord]> = cold.data.iter().map(|d| d.records.as_slice()).collect();
        probes::common(args, &cold.data, &data, &ladder, report)?;
        report.layer("cluster.hop_us.p50", 0.0, "us");
        report.layer("cluster.hop_us.p99", 0.0, "us");
        report.layer("cluster.migrate_ms", 0.0, "ms");
        finish_trace(args, report, &spans)?;
    }
    Ok(())
}

/// `replay-warm.route-uniform`.
pub fn replay_route(args: &Args, report: &mut Report) -> Result<(), String> {
    let (off_s, ladder_s) = split(args);
    let prep = offline::ensure_prep(&args.work)?;
    let mut spans = Spans::new();

    let warm = offline::replay_warm(&prep, off_s, report, None)?;
    let rss_offline = peak_rss_mb(None);
    let threads = ntp_bench::section_throughput();

    // Traced repeat of the timed phase: the same sections, with spans.
    let traced = if args.trace {
        Some(offline::replay_warm(&prep, 0.0, report, Some(&mut spans))?)
    } else {
        None
    };

    let streams: Vec<&[TraceRecord]> = warm.data.iter().map(|d| d.records.as_slice()).collect();
    let (ladder, plane_setup_s, rss_plane, plane) = run_ladder(
        args,
        &streams,
        [4_000.0, 8_000.0, 12_000.0, 150_000.0],
        0.0,
        ladder_s,
        true,
        report,
        args.trace.then_some(&mut spans),
    )?;

    eprintln!(
        "[perfbench] set-up medians: warm load {:.4} s, plane {plane_setup_s:.4} s",
        warm.setup_s
    );
    report.e2e("setup_s", warm.setup_s + plane_setup_s, "s");
    report.layer("wall_s", warm.wall_s, "s");
    report.e2e("peak_rss_mb", rss_offline + rss_plane, "MiB");

    if args.trace {
        let again = traced.expect("traced replay");
        report.layer(
            "tracing.overhead_ratio",
            again.wall_s / warm.wall_s,
            "ratio",
        );
        for (name, s) in offline::SECTIONS.iter().zip(&again.section_s) {
            report.layer(&format!("bench.section_s.{name}"), *s, "s");
        }
        probes::runner_metrics(&threads, report);
        // No simulation in this workload's timed phase; the simulator
        // probe runs over its own (default-preset) programs.
        probes::sim_probe(&args.work, report)?;
        probes::common(args, &warm.data, &streams, &ladder, report)?;
        probes::cluster_probes(&plane, &streams, report)?;
        plane.shutdown();
        finish_trace(args, report, &spans)?;
    } else {
        plane.shutdown();
    }
    Ok(())
}

fn finish_trace(args: &Args, report: &mut Report, spans: &Spans) -> Result<(), String> {
    let failed_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    report.layer("failed_ratio", failed_ratio, "ratio");
    let dir = args.work.join("spans");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    spans
        .write(&dir.join(format!("{}.jsonl", args.workload)))
        .map_err(|e| format!("span file: {e}"))
}
