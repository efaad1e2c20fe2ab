//! The replay load generator: drives an `ntp-serve` server with
//! concurrent client sessions replaying captured trace streams, measures
//! QPS and request-latency quantiles, and asserts the served statistics
//! match the offline [`ntp_core::evaluate`] oracle **exactly**.
//!
//! Each session replays one record stream over the wire in
//! [`LoadgenConfig::chunk`]-sized `Batch` frames, then pulls the
//! session's final `Stats` and compares them field-for-field against a
//! local replay of the identical configuration. Any divergence means the
//! service's predictor state machine differs from the library's — the
//! same lockstep discipline as `ntp verify`, but across a socket.
//!
//! Client sessions fan out over [`ntp_runner::map_ordered_with`], so
//! results come back in session order and the text report is
//! deterministic for a fixed input (latency/QPS numbers aside).
//!
//! Two driving modes:
//!
//! * **Closed-loop** ([`run`]): each client waits for a reply before
//!   sending the next request. Measures capacity, but under overload the
//!   arrival rate collapses to the service rate — latency looks fine
//!   right up to saturation (coordinated omission).
//! * **Open-loop** ([`run_open_loop`]): arrivals follow a fixed-rate
//!   schedule with Zipf-distributed session popularity, sent whether or
//!   not earlier replies have come back (pipelined on each connection).
//!   Latency is measured from the *scheduled* send time, so queueing
//!   delay under overload is visible in p99/p99.9 instead of hidden.
//!   The schedule is a pure function of `(seed, zipf, rate, duration)` —
//!   two runs offer byte-identical request sequences.

use crate::client::{Client, ClientError};
use crate::wire::{self, Request, Response};
use ntp_core::{evaluate, NextTracePredictor, PredictorConfig, PredictorStats, TracePredictor};
use ntp_telemetry::{Histogram, Json, ToJson};
use ntp_trace::TraceRecord;
use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Load-generator parameters.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Concurrent client workers (each owns one connection at a time).
    pub clients: usize,
    /// Records per `Batch` frame.
    pub chunk: usize,
    /// Correlating-table index bits of every session's predictor.
    pub bits: u32,
    /// DOLC history depth of every session's predictor.
    pub depth: u32,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            addr: crate::config::DEFAULT_ADDR.to_string(),
            clients: 2,
            chunk: 256,
            bits: 15,
            depth: 7,
        }
    }
}

/// One replay stream: a name and its captured records.
#[derive(Clone, Debug)]
pub struct SessionSpec {
    /// Display name (benchmark or stream label).
    pub name: String,
    /// The captured record stream to replay.
    pub records: Vec<TraceRecord>,
}

/// Outcome of one served session.
#[derive(Clone, Debug)]
pub struct SessionResult {
    /// Stream name.
    pub name: String,
    /// Session id used on the wire.
    pub session: u64,
    /// Shard that owned the session.
    pub shard: u32,
    /// Statistics the server accumulated.
    pub served: PredictorStats,
    /// Statistics the offline oracle computed for the same stream.
    pub oracle: PredictorStats,
    /// Requests this session issued (hello + batches + stats),
    /// including `Busy` retries.
    pub requests: u64,
    /// `Batch` frames the shard applied (retries excluded) — a pure
    /// function of the stream length and chunk size, so metrics gates
    /// can compare it against the server's `frames.batch` counter.
    pub batches: u64,
}

impl SessionResult {
    /// True when served and oracle statistics agree **exactly**.
    pub fn matches(&self) -> bool {
        self.served == self.oracle
    }
}

/// Aggregate loadgen outcome.
#[derive(Clone, Debug)]
pub struct LoadgenReport {
    /// Per-session outcomes, in session order.
    pub sessions: Vec<SessionResult>,
    /// Total requests issued.
    pub requests: u64,
    /// Total records replayed over the wire.
    pub records: u64,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
    /// Per-request round-trip latency in microseconds.
    pub latency_us: Histogram,
    /// `Busy` replies absorbed (retried) across all sessions.
    pub busy_retries: u64,
    /// Per-shard `drain.batched` counters scraped from the server after
    /// the replay: how many requests each shard resolved through a
    /// batched drain (one prefetch sweep over several queued sessions).
    /// Load-dependent, so reports treat this as volatile — it measures
    /// how often the sweep engaged, not a deterministic replay property.
    pub drain_batched: Vec<u64>,
}

impl LoadgenReport {
    /// True when every session matched its oracle exactly.
    pub fn all_match(&self) -> bool {
        self.sessions.iter().all(SessionResult::matches)
    }

    /// Requests per wall-clock second.
    pub fn qps(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.requests as f64 / s
        }
    }

    /// Records replayed per wall-clock second.
    pub fn records_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.records as f64 / s
        }
    }
}

impl ToJson for LoadgenReport {
    /// `{sessions: [...], requests, records, wall_ms, qps,
    /// records_per_sec, busy_retries, latency_us, all_match}` — latency
    /// and throughput numbers are wall-clock derived, so reports keep
    /// this under a volatile key (see OBSERVABILITY.md).
    fn to_json(&self) -> Json {
        Json::object()
            .with(
                "sessions",
                Json::Array(
                    self.sessions
                        .iter()
                        .map(|s| {
                            Json::object()
                                .with("name", Json::Str(s.name.clone()))
                                .with("session", Json::U64(s.session))
                                .with("shard", Json::U64(s.shard as u64))
                                .with("batches", Json::U64(s.batches))
                                .with("predictions", Json::U64(s.served.predictions))
                                .with("served_correct", Json::U64(s.served.correct))
                                .with("oracle_correct", Json::U64(s.oracle.correct))
                                .with(
                                    "served_mispredict_pct",
                                    Json::F64(s.served.mispredict_pct()),
                                )
                                .with("matches_oracle", Json::Bool(s.matches()))
                        })
                        .collect(),
                ),
            )
            .with("requests", Json::U64(self.requests))
            .with("records", Json::U64(self.records))
            .with("wall_ms", Json::F64(self.wall.as_secs_f64() * 1e3))
            .with("qps", Json::F64(self.qps()))
            .with("records_per_sec", Json::F64(self.records_per_sec()))
            .with("busy_retries", Json::U64(self.busy_retries))
            .with("latency_us", self.latency_us.to_json())
            .with(
                "drain_batched",
                Json::Array(self.drain_batched.iter().map(|&n| Json::U64(n)).collect()),
            )
            .with("all_match", Json::Bool(self.all_match()))
    }
}

struct SessionRun {
    result: SessionResult,
    latency_us: Histogram,
    busy_retries: u64,
}

/// Replays every `sessions` stream against the server at
/// `cfg.addr` and scores the result. Fails fast on transport or
/// protocol errors; oracle mismatches are *reported*, not errors (the
/// caller decides — `ntp loadgen` exits nonzero on any mismatch).
pub fn run(cfg: &LoadgenConfig, sessions: &[SessionSpec]) -> Result<LoadgenReport, ClientError> {
    // Validate the predictor configuration before opening any socket, so
    // a bad design point is one clean client-side diagnostic.
    let pcfg = PredictorConfig::try_paper(cfg.bits, cfg.depth as usize)
        .map_err(|e| ClientError::Protocol(format!("paper({},{}): {e}", cfg.bits, cfg.depth)))?;
    let start = Instant::now();
    let runs: Vec<Result<SessionRun, ClientError>> =
        ntp_runner::map_ordered_with(cfg.clients.max(1), sessions, |i, spec| {
            run_session(cfg, pcfg, i as u64, spec)
        });
    let wall = start.elapsed();

    let mut report = LoadgenReport {
        sessions: Vec::with_capacity(runs.len()),
        requests: 0,
        records: 0,
        wall,
        latency_us: Histogram::new(),
        busy_retries: 0,
        drain_batched: Vec::new(),
    };
    for run in runs {
        let run = run?;
        report.requests += run.result.requests;
        report.records += run.result.served.predictions;
        report.latency_us.merge(&run.latency_us);
        report.busy_retries += run.busy_retries;
        report.sessions.push(run.result);
    }
    report.drain_batched = scrape_drain_batched(&cfg.addr).unwrap_or_default();
    Ok(report)
}

/// Scrapes the server's per-shard `drain.batched` counters after a
/// replay. Best-effort: a scrape failure (server already draining, say)
/// leaves the report without the numbers rather than failing the run.
fn scrape_drain_batched(addr: &str) -> Option<Vec<u64>> {
    let mut client = Client::connect(addr).ok()?;
    let text = client.metrics_json().ok()?;
    let snap = ntp_telemetry::json::parse(&text).ok()?;
    let mut per_shard = Vec::new();
    while let Some(section) = snap.get(&format!("shard{}", per_shard.len())) {
        per_shard.push(
            section
                .get("counters")
                .and_then(|c| c.get("drain.batched"))
                .and_then(Json::as_u64)
                .unwrap_or(0),
        );
    }
    Some(per_shard)
}

/// Replays one stream as one wire session and scores it.
fn run_session(
    cfg: &LoadgenConfig,
    pcfg: PredictorConfig,
    session: u64,
    spec: &SessionSpec,
) -> Result<SessionRun, ClientError> {
    let mut client = Client::connect(&cfg.addr)?;
    let mut latency = Histogram::new();
    let mut requests = 0u64;
    let mut busy_retries = 0u64;
    let chunk = cfg.chunk.max(1);

    let mut timed = |client: &mut Client,
                     req: &crate::wire::Request|
     -> Result<crate::wire::Response, ClientError> {
        loop {
            let t0 = Instant::now();
            let resp = client.request(req)?;
            latency.record(t0.elapsed().as_micros() as u64);
            requests += 1;
            if matches!(resp, crate::wire::Response::Busy) {
                busy_retries += 1;
                std::thread::sleep(Duration::from_millis(2));
                continue;
            }
            return Ok(resp);
        }
    };

    let shard = match timed(
        &mut client,
        &crate::wire::Request::Hello {
            session,
            bits: cfg.bits,
            depth: cfg.depth,
        },
    )? {
        crate::wire::Response::HelloOk { shard, .. } => shard,
        crate::wire::Response::Error { code, message } => {
            return Err(ClientError::Server { code, message })
        }
        other => {
            return Err(ClientError::Protocol(format!(
                "expected HelloOk, got {other:?}"
            )))
        }
    };

    let mut served_batches = PredictorStats::new();
    let mut batches = 0u64;
    for records in spec.records.chunks(chunk) {
        batches += 1;
        match timed(
            &mut client,
            &crate::wire::Request::Batch {
                session,
                records: records.to_vec(),
            },
        )? {
            crate::wire::Response::BatchDone {
                predictions,
                correct,
            } => {
                served_batches.predictions += predictions;
                served_batches.correct += correct;
            }
            crate::wire::Response::Error { code, message } => {
                return Err(ClientError::Server { code, message })
            }
            other => {
                return Err(ClientError::Protocol(format!(
                    "expected BatchDone, got {other:?}"
                )))
            }
        }
    }

    let served = match timed(&mut client, &crate::wire::Request::Stats { session })? {
        crate::wire::Response::StatsOk { stats } => stats,
        crate::wire::Response::Error { code, message } => {
            return Err(ClientError::Server { code, message })
        }
        other => {
            return Err(ClientError::Protocol(format!(
                "expected StatsOk, got {other:?}"
            )))
        }
    };

    // Cross-check the per-batch tallies against the final stats frame:
    // they are two independent paths through the server.
    if served.predictions != served_batches.predictions || served.correct != served_batches.correct
    {
        return Err(ClientError::Protocol(format!(
            "batch tallies ({}/{}) disagree with the stats frame ({}/{})",
            served_batches.correct, served_batches.predictions, served.correct, served.predictions
        )));
    }

    // The offline oracle: an identical predictor replaying the identical
    // stream in-process.
    let mut oracle_pred = NextTracePredictor::new(pcfg);
    let oracle = evaluate(&mut oracle_pred, &spec.records);

    Ok(SessionRun {
        result: SessionResult {
            name: spec.name.clone(),
            session,
            shard,
            served,
            oracle,
            requests,
            batches,
        },
        latency_us: latency,
        busy_retries,
    })
}

// ---------------------------------------------------------------------------
// Open-loop mode
// ---------------------------------------------------------------------------

/// Open-loop generator parameters.
#[derive(Clone, Debug)]
pub struct OpenLoopConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Connections; sessions are pinned `session % conns` so each
    /// session's updates stay ordered on one socket.
    pub conns: usize,
    /// Offered arrival rate, requests per second.
    pub rate: f64,
    /// How long the schedule runs (`rate * duration` arrivals total).
    pub duration: Duration,
    /// Zipf popularity exponent across sessions (0 = uniform; session 0
    /// is the most popular).
    pub zipf: f64,
    /// Seed of the deterministic arrival schedule.
    pub seed: u64,
    /// Correlating-table index bits of every session's predictor.
    pub bits: u32,
    /// DOLC history depth of every session's predictor.
    pub depth: u32,
}

impl Default for OpenLoopConfig {
    fn default() -> OpenLoopConfig {
        OpenLoopConfig {
            addr: crate::config::DEFAULT_ADDR.to_string(),
            conns: 2,
            rate: 5000.0,
            duration: Duration::from_secs(2),
            zipf: 1.0,
            seed: 0x5EED,
            bits: 15,
            depth: 7,
        }
    }
}

/// One session's open-loop outcome.
#[derive(Clone, Debug)]
pub struct OpenSessionResult {
    /// Stream name.
    pub name: String,
    /// Session id on the wire.
    pub session: u64,
    /// Shard that owned the session.
    pub shard: u32,
    /// Updates the schedule sent for this session.
    pub sent: u64,
    /// Updates the server applied (non-`Busy` replies).
    pub applied: u64,
    /// Updates shed as `Busy`.
    pub busy: u64,
    /// Statistics the server accumulated.
    pub served: PredictorStats,
    /// Statistics a lockstep oracle accumulated over the **applied**
    /// subsequence — under overload the oracle replays exactly what the
    /// server accepted, so equality stays exact.
    pub oracle: PredictorStats,
}

impl OpenSessionResult {
    /// True when served and oracle statistics agree exactly.
    pub fn matches(&self) -> bool {
        self.served == self.oracle
    }
}

/// Aggregate open-loop outcome.
#[derive(Clone, Debug)]
pub struct OpenLoopReport {
    /// Per-session outcomes, in session order.
    pub sessions: Vec<OpenSessionResult>,
    /// Arrivals the schedule offered.
    pub offered: u64,
    /// Updates the server applied.
    pub applied: u64,
    /// Updates shed as `Busy`.
    pub busy: u64,
    /// Sends that left more than 1 ms behind schedule (generator-side
    /// slip: the pacer could not keep the offered rate).
    pub late: u64,
    /// Nominal schedule length (`duration` of the config).
    pub duration: Duration,
    /// Wall-clock time from the first scheduled send to the last reply.
    pub wall: Duration,
    /// FNV-1a-64 over the schedule's session-id sequence: two runs with
    /// the same seed/rate/zipf/duration must report the same digest.
    pub schedule_digest: u64,
    /// Sojourn time per request in microseconds, measured from the
    /// *scheduled* send time to the reply — queueing delay included.
    pub latency_us: Histogram,
}

impl OpenLoopReport {
    /// True when every session matched its oracle exactly.
    pub fn all_match(&self) -> bool {
        self.sessions.iter().all(OpenSessionResult::matches)
    }

    /// The rate the schedule offered, requests per second.
    pub fn offered_qps(&self) -> f64 {
        let s = self.duration.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.offered as f64 / s
        }
    }

    /// The rate the server actually applied, requests per second.
    pub fn achieved_qps(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.applied as f64 / s
        }
    }
}

impl ToJson for OpenLoopReport {
    /// `{sessions: [...], offered, applied, busy, late, offered_qps,
    /// achieved_qps, wall_ms, schedule_digest, latency_us, all_match}` —
    /// `schedule_digest`, `offered`, `busy == offered - applied` and the
    /// per-session sent counts are deterministic for a fixed seed;
    /// latency and rates are wall-clock volatile.
    fn to_json(&self) -> Json {
        Json::object()
            .with(
                "sessions",
                Json::Array(
                    self.sessions
                        .iter()
                        .map(|s| {
                            Json::object()
                                .with("name", Json::Str(s.name.clone()))
                                .with("session", Json::U64(s.session))
                                .with("shard", Json::U64(s.shard as u64))
                                .with("sent", Json::U64(s.sent))
                                .with("applied", Json::U64(s.applied))
                                .with("busy", Json::U64(s.busy))
                                .with("predictions", Json::U64(s.served.predictions))
                                .with("served_correct", Json::U64(s.served.correct))
                                .with("oracle_correct", Json::U64(s.oracle.correct))
                                .with("matches_oracle", Json::Bool(s.matches()))
                        })
                        .collect(),
                ),
            )
            .with("offered", Json::U64(self.offered))
            .with("applied", Json::U64(self.applied))
            .with("busy", Json::U64(self.busy))
            .with("late", Json::U64(self.late))
            .with("offered_qps", Json::F64(self.offered_qps()))
            .with("achieved_qps", Json::F64(self.achieved_qps()))
            .with("wall_ms", Json::F64(self.wall.as_secs_f64() * 1e3))
            .with(
                "schedule_digest",
                Json::Str(format!("{:016x}", self.schedule_digest)),
            )
            .with("latency_us", self.latency_us.to_json())
            .with("all_match", Json::Bool(self.all_match()))
    }
}

/// One scheduled arrival.
struct Arrival {
    offset: Duration,
    session: usize,
}

/// Builds the deterministic arrival schedule: arrival `k` fires at
/// `k / rate` seconds with a session drawn from a Zipf CDF (session 0
/// most popular) via xorshift64. Returns the schedule and its FNV digest.
fn build_schedule(cfg: &OpenLoopConfig, n_sessions: usize) -> (Vec<Arrival>, u64) {
    let total = (cfg.rate * cfg.duration.as_secs_f64()).round().max(0.0) as usize;
    // Zipf CDF over session ranks.
    let weights: Vec<f64> = (0..n_sessions)
        .map(|i| 1.0 / ((i + 1) as f64).powf(cfg.zipf))
        .collect();
    let sum: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(n_sessions);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / sum;
        cdf.push(acc);
    }
    let mut x = if cfg.seed == 0 { 0x9E37_79B9 } else { cfg.seed };
    let mut digest = ntp_hash::Fnv64::new();
    let mut schedule = Vec::with_capacity(total);
    for k in 0..total {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        let session = cdf.partition_point(|&c| c < u).min(n_sessions - 1);
        digest.update(&(session as u64).to_le_bytes());
        schedule.push(Arrival {
            offset: Duration::from_secs_f64(k as f64 / cfg.rate),
            session,
        });
    }
    (schedule, digest.finish())
}

/// What one reader thread expects next on its connection: replies come
/// back in send order per connection, so a queue of
/// `(session, record, scheduled offset)` is a complete decoder.
struct Expected {
    session: usize,
    record: TraceRecord,
    offset: Duration,
}

/// Per-session lockstep state a reader thread maintains.
struct OpenOracle {
    predictor: NextTracePredictor,
    stats: PredictorStats,
    applied: u64,
    busy: u64,
}

/// What one reader thread hands back.
struct ReaderOutcome {
    oracles: Vec<(usize, OpenOracle)>,
    latency_us: Histogram,
    last_reply: Option<Instant>,
}

/// Drives the server open-loop: a fixed-rate, Zipf-popularity schedule
/// of single-record `Update` frames over `cfg.conns` pipelined
/// connections, no retries. Every reply is scored in lockstep — an
/// `Updated` must match the oracle's prediction for the *applied*
/// subsequence, a `Busy` is shed load — and each session's final served
/// statistics must equal the oracle's exactly.
///
/// Sessions beyond a stream's length wrap around (`sent % len`), so any
/// offered count is serviceable from finite capture data.
pub fn run_open_loop(
    cfg: &OpenLoopConfig,
    sessions: &[SessionSpec],
) -> Result<OpenLoopReport, ClientError> {
    let pcfg = PredictorConfig::try_paper(cfg.bits, cfg.depth as usize)
        .map_err(|e| ClientError::Protocol(format!("paper({},{}): {e}", cfg.bits, cfg.depth)))?;
    if sessions.is_empty() {
        return Err(ClientError::Protocol("open-loop needs sessions".into()));
    }
    if let Some(empty) = sessions.iter().find(|s| s.records.is_empty()) {
        return Err(ClientError::Protocol(format!(
            "open-loop stream {:?} has no records",
            empty.name
        )));
    }
    if cfg.rate <= 0.0 || !cfg.rate.is_finite() {
        return Err(ClientError::Protocol("open-loop rate must be > 0".into()));
    }
    let conns = cfg.conns.clamp(1, sessions.len());
    let (schedule, schedule_digest) = build_schedule(cfg, sessions.len());

    // Connect and open every session up front (below the storm: one
    // lockstep Hello at a time, short busy retry).
    let mut streams: Vec<TcpStream> = Vec::with_capacity(conns);
    for _ in 0..conns {
        let s = TcpStream::connect(&cfg.addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(30)))?;
        s.set_write_timeout(Some(Duration::from_secs(30)))?;
        streams.push(s);
    }
    let mut shards = vec![0u32; sessions.len()];
    let mut scratch = Vec::with_capacity(256);
    for (i, _) in sessions.iter().enumerate() {
        let stream = &mut streams[i % conns];
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            wire::frame_request(
                &mut scratch,
                &Request::Hello {
                    session: i as u64,
                    bits: cfg.bits,
                    depth: cfg.depth,
                },
            );
            stream.write_all(&scratch)?;
            match read_response(stream)? {
                Response::HelloOk { shard, .. } => {
                    shards[i] = shard;
                    break;
                }
                Response::Busy if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Response::Busy => {
                    return Err(ClientError::Busy {
                        elapsed: Duration::from_secs(5),
                    })
                }
                Response::Error { code, message } => {
                    return Err(ClientError::Server { code, message })
                }
                other => {
                    return Err(ClientError::Protocol(format!(
                        "expected HelloOk, got {other:?}"
                    )))
                }
            }
        }
    }

    // One reader thread per connection, fed the expected-reply queue in
    // send order. Readers own the lockstep oracles of their pinned
    // sessions (a session lives on exactly one connection, so per-
    // session reply order is total).
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut expect_txs = Vec::with_capacity(conns);
    let mut readers = Vec::with_capacity(conns);
    for (c, stream) in streams.iter().enumerate() {
        let (tx, rx) = mpsc::channel::<Expected>();
        expect_txs.push(tx);
        let read_half = stream.try_clone()?;
        let mut oracles: Vec<(usize, OpenOracle)> = Vec::new();
        for (i, _) in sessions.iter().enumerate() {
            if i % conns == c {
                oracles.push((
                    i,
                    OpenOracle {
                        predictor: NextTracePredictor::new(pcfg),
                        stats: PredictorStats::new(),
                        applied: 0,
                        busy: 0,
                    },
                ));
            }
        }
        readers.push(std::thread::spawn(move || {
            read_replies(read_half, rx, oracles, t0)
        }));
    }

    // The pacer: walk the schedule on the calling thread, sleeping up to
    // each arrival's offset, and write the frame whether or not earlier
    // replies are back (that is the open loop). A send that slips more
    // than 1 ms behind schedule counts as `late`.
    let mut sent_per_session = vec![0u64; sessions.len()];
    let mut late = 0u64;
    for a in &schedule {
        let target = t0 + a.offset;
        let now = Instant::now();
        if let Some(wait) = target.checked_duration_since(now) {
            std::thread::sleep(wait);
        } else if now.duration_since(target) > Duration::from_millis(1) {
            late += 1;
        }
        let k = sent_per_session[a.session];
        sent_per_session[a.session] += 1;
        let records = &sessions[a.session].records;
        let record = records[(k % records.len() as u64) as usize];
        // Expected entry first: the reader must know what this reply is
        // before it can possibly arrive.
        let _ = expect_txs[a.session % conns].send(Expected {
            session: a.session,
            record,
            offset: a.offset,
        });
        wire::frame_request(
            &mut scratch,
            &Request::Update {
                session: a.session as u64,
                record,
            },
        );
        streams[a.session % conns].write_all(&scratch)?;
    }
    drop(expect_txs); // Readers exit after the last expected reply.

    let mut outcome: Vec<Option<(usize, OpenOracle)>> = Vec::new();
    let mut latency_us = Histogram::new();
    let mut last_reply: Option<Instant> = None;
    for reader in readers {
        let out = reader
            .join()
            .map_err(|_| ClientError::Protocol("reader thread panicked".into()))??;
        latency_us.merge(&out.latency_us);
        last_reply = match (last_reply, out.last_reply) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        outcome.extend(out.oracles.into_iter().map(Some));
    }
    let wall = last_reply.map_or_else(|| t0.elapsed(), |t| t.duration_since(t0));

    // Final cross-check: the server's per-session statistics must equal
    // the lockstep oracle's (patient client — the storm is over).
    let mut client = Client::connect(&cfg.addr)?;
    let mut results: Vec<OpenSessionResult> = Vec::with_capacity(sessions.len());
    let mut by_session: Vec<Option<OpenOracle>> = (0..sessions.len()).map(|_| None).collect();
    for slot in outcome.into_iter().flatten() {
        by_session[slot.0] = Some(slot.1);
    }
    for (i, spec) in sessions.iter().enumerate() {
        let oracle = by_session[i].take().expect("every session has an oracle");
        let served = client.stats(i as u64)?;
        results.push(OpenSessionResult {
            name: spec.name.clone(),
            session: i as u64,
            shard: shards[i],
            sent: sent_per_session[i],
            applied: oracle.applied,
            busy: oracle.busy,
            served,
            oracle: oracle.stats,
        });
    }

    Ok(OpenLoopReport {
        offered: schedule.len() as u64,
        applied: results.iter().map(|s| s.applied).sum(),
        busy: results.iter().map(|s| s.busy).sum(),
        late,
        duration: cfg.duration,
        wall,
        schedule_digest,
        latency_us,
        sessions: results,
    })
}

/// Reads one frame and decodes it as a [`Response`].
fn read_response(stream: &mut TcpStream) -> Result<Response, ClientError> {
    match wire::read_frame(stream, crate::client::CLIENT_MAX_FRAME) {
        Ok(body) => wire::decode_response(&body).map_err(ClientError::Protocol),
        Err(wire::WireError::Io(e)) => Err(ClientError::Io(e)),
        Err(e) => Err(ClientError::Protocol(e.to_string())),
    }
}

/// Reader-thread body: one reply per expected entry, in order. An
/// `Updated` is scored against (then applied to) the session's oracle;
/// a `Busy` is shed load the oracle skips — which is exactly why the
/// oracle stays byte-exact under overload: it replays the applied
/// subsequence, nothing else.
fn read_replies(
    mut stream: TcpStream,
    rx: mpsc::Receiver<Expected>,
    mut oracles: Vec<(usize, OpenOracle)>,
    t0: Instant,
) -> Result<ReaderOutcome, ClientError> {
    let mut latency_us = Histogram::new();
    let mut last_reply = None;
    while let Ok(expected) = rx.recv() {
        let resp = read_response(&mut stream)?;
        let now = Instant::now();
        last_reply = Some(now);
        let slot = oracles
            .iter_mut()
            .find(|(s, _)| *s == expected.session)
            .expect("session pinned to this connection");
        match resp {
            Response::Updated { correct } => {
                let sojourn = now.duration_since(t0).saturating_sub(expected.offset);
                latency_us.record(sojourn.as_micros() as u64);
                let oracle = &mut slot.1;
                let pred = oracle.predictor.predict();
                let want = pred.is_correct(expected.record.id());
                if correct != want {
                    return Err(ClientError::Protocol(format!(
                        "session {}: served correct={correct}, oracle={want}",
                        expected.session
                    )));
                }
                oracle.stats.score(&pred, &expected.record);
                oracle.predictor.update(&expected.record);
                oracle.applied += 1;
            }
            Response::Busy => slot.1.busy += 1,
            Response::Error { code, message } => return Err(ClientError::Server { code, message }),
            other => {
                return Err(ClientError::Protocol(format!(
                    "expected Updated or Busy, got {other:?}"
                )))
            }
        }
    }
    Ok(ReaderOutcome {
        oracles,
        latency_us,
        last_reply,
    })
}
