//! Random-input robustness of every decoder in the crate: the `.ntc`
//! decoder ([`format::decode`]), the `.nts` decoder ([`decode_snapshot`])
//! and the session-wire decoder ([`decode_session_wire`]).
//!
//! For about two seconds each decoder is fed three kinds of hostile
//! input built from valid images:
//!
//! * random bytes, half of them behind the image's own magic and version,
//!   so they reach the section decoders;
//! * a valid image with 2–8 random bytes overwritten;
//! * a valid image cut at a random point and extended with random bytes.
//!
//! Each verdict must be a typed `Err`, or `Ok` equal to the original: a
//! mutation can only be accepted if it changed nothing. A panic is a
//! failure. Every case derives from one `XorShift64` seed, which the
//! failure message prints; `case(seed)` replays it.

use ntp_core::{evaluate, NextTracePredictor, PredictorConfig, StoredTarget};
use ntp_trace::{TraceConfig, TraceId, TraceRecord, TraceStatsRaw};
use ntp_tracefile::format;
use ntp_tracefile::{
    decode_session_wire, decode_snapshot, encode_session_wire, encode_snapshot, CaptureArtifact,
    Fingerprint, SessionSnapshot, SnapshotArtifact,
};
use ntp_verify::XorShift64;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// How long the sweep runs.
const BUDGET: Duration = Duration::from_secs(2);

/// Base seed; case `k` runs under seed `BASE_SEED + k`.
const BASE_SEED: u64 = 0xF022_0000;

/// One structurally valid record.
fn gen_record(rng: &mut XorShift64) -> TraceRecord {
    let branch_count = rng.below(7) as u8;
    let ret = rng.chance(1, 4);
    TraceRecord::new(
        TraceId::new(rng.next_u32(), rng.next_u32() as u8, branch_count),
        rng.range(1, 16) as u8,
        rng.below(8) as u8,
        ret,
        !ret && rng.chance(1, 4),
    )
}

/// A valid `.ntc` image, its fingerprint and the artifact it holds.
fn ntc_image(rng: &mut XorShift64) -> (Vec<u8>, Fingerprint, CaptureArtifact) {
    let fp = Fingerprint::new(
        "wl",
        "analog",
        rng.next_u64(),
        &TraceConfig::default(),
        b"img",
    );
    let mut static_ids: Vec<u64> = (0..rng.below(16)).map(|_| rng.next_u64() >> 8).collect();
    static_ids.sort_unstable();
    static_ids.dedup();
    let artifact = CaptureArtifact {
        name: "wl".into(),
        analog_of: "analog".into(),
        icount: rng.next_u64(),
        records: (0..rng.below(600)).map(|_| gen_record(rng)).collect(),
        trace_stats: TraceStatsRaw {
            traces: rng.next_u64(),
            static_ids,
            ..TraceStatsRaw::default()
        },
        ..CaptureArtifact::default()
    };
    (format::encode(&fp, &artifact), fp, artifact)
}

/// A valid `.nts` image of one or two tiny trained sessions.
fn nts_artifact(rng: &mut XorShift64) -> SnapshotArtifact {
    let sessions = (0..rng.range(1, 2))
        .map(|k| {
            let cfg = PredictorConfig {
                index_bits: 6,
                secondary_index_bits: 6,
                alternate: rng.chance(1, 2),
                stored_target: if rng.chance(1, 2) {
                    StoredTarget::Hashed
                } else {
                    StoredTarget::Full
                },
                ..PredictorConfig::paper(12, 2)
            };
            let mut p = NextTracePredictor::new(cfg);
            let stream: Vec<TraceRecord> = (0..rng.range(50, 200))
                .map(|_| {
                    let mut r = gen_record(rng);
                    r.start_pc = 0x0040_0000 + (r.start_pc % 97) * 0x40;
                    r
                })
                .collect();
            let stats = evaluate(&mut p, &stream);
            SessionSnapshot::capture(k, &p, &stats)
        })
        .collect();
    SnapshotArtifact { sessions }
}

/// Builds one hostile input from a valid image.
type Mutation = fn(&mut XorShift64, &[u8]) -> Vec<u8>;

/// Random bytes; half the time the first eight are `base`'s own magic
/// and version.
fn random_bytes(rng: &mut XorShift64, base: &[u8]) -> Vec<u8> {
    let len = rng.below(2 * base.len() as u64 + 16) as usize;
    let mut out: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
    if rng.chance(1, 2) {
        let keep = out.len().min(8);
        out[..keep].copy_from_slice(&base[..keep]);
    }
    out
}

/// `base` with 2–8 random bytes overwritten.
fn mutated(rng: &mut XorShift64, base: &[u8]) -> Vec<u8> {
    let mut out = base.to_vec();
    for _ in 0..rng.range(2, 8) {
        let at = rng.below(out.len() as u64) as usize;
        out[at] = rng.next_u32() as u8;
    }
    out
}

/// `base` cut at a random point and extended with 0–64 random bytes.
fn cut_and_extended(rng: &mut XorShift64, base: &[u8]) -> Vec<u8> {
    let mut out = base[..rng.below(base.len() as u64 + 1) as usize].to_vec();
    out.extend((0..rng.below(65)).map(|_| rng.next_u32() as u8));
    out
}

/// Runs `decode` on `input`: a panic or an `Ok` that differs from
/// `original` fails the test, naming the seed.
fn check<T: PartialEq + std::fmt::Debug, E>(
    seed: u64,
    what: &str,
    input: &[u8],
    original: &T,
    decode: impl FnOnce(&[u8]) -> Result<T, E>,
) {
    match catch_unwind(AssertUnwindSafe(|| decode(input))) {
        Err(_) => panic!(
            "seed {seed:#x}: {what} panicked on a {}-byte input",
            input.len()
        ),
        Ok(Ok(back)) => assert_eq!(&back, original, "seed {seed:#x}: {what} accepted a change"),
        Ok(Err(_)) => {}
    }
}

/// One case: a fresh base image of each kind, then each mutation against
/// each decoder.
fn case(seed: u64) {
    let mut rng = XorShift64::new(seed);
    let (ntc, fp, artifact) = ntc_image(&mut rng);
    let snapshot = nts_artifact(&mut rng);
    let nts = encode_snapshot(&snapshot);
    let session = &snapshot.sessions[0];
    let wire = encode_session_wire(session);
    let mutations: [(&str, Mutation); 3] = [
        ("random bytes", random_bytes),
        ("mutated", mutated),
        ("cut and extended", cut_and_extended),
    ];
    for (kind, mutate) in mutations {
        let input = mutate(&mut rng, &ntc);
        check(seed, &format!(".ntc, {kind}"), &input, &artifact, |b| {
            format::decode(b, &fp)
        });
        let input = mutate(&mut rng, &nts);
        check(
            seed,
            &format!(".nts, {kind}"),
            &input,
            &snapshot,
            decode_snapshot,
        );
        let input = mutate(&mut rng, &wire);
        check(
            seed,
            &format!("session wire, {kind}"),
            &input,
            session,
            decode_session_wire,
        );
    }
}

#[test]
fn decoders_survive_random_inputs() {
    let start = Instant::now();
    let mut cases = 0;
    while cases < 8 || start.elapsed() < BUDGET {
        case(BASE_SEED + cases);
        cases += 1;
    }
    eprintln!("{cases} cases (9 decodes each) in {:.2?}", start.elapsed());
}
