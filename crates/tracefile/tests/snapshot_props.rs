//! Property-style `.nts` snapshot codec tests, mirroring the `.ntc`
//! sweeps in `codec_props.rs`: randomized round-trips plus exhaustive
//! corruption sweeps, driven by the deterministic xorshift generator of
//! the differential-verification harness so every failure reproduces from
//! its printed seed.
//!
//! The invariant under test: a `.nts` file either decodes to *exactly*
//! the predictor sessions that were stored — and instantiating them
//! continues in per-prediction lockstep with the original predictors — or
//! it is refused with a hard [`SnapshotError`], never a partial or
//! silently-wrong load.

use ntp_core::{
    evaluate, CounterSpec, NextTracePredictor, PredictorConfig, PredictorStats, RhsConfig,
    StoredTarget, TracePredictor,
};
use ntp_trace::{TraceId, TraceRecord};
use ntp_tracefile::snapshot::{
    decode_session_wire, decode_snapshot, encode_session_wire, encode_snapshot, SessionSnapshot,
    SnapshotArtifact, SnapshotError, SNAPSHOT_VERSION,
};
use ntp_tracefile::{fnv64, TraceFileError};
use ntp_verify::XorShift64;

/// One random, structurally valid trace record.
fn gen_record(rng: &mut XorShift64) -> TraceRecord {
    let pc = 0x0040_0000 + (rng.below(211) as u32) * 0x40;
    let branch_count = rng.below(3) as u8;
    let mask = ((1u16 << branch_count) - 1) as u8;
    let calls = rng.below(3) as u8;
    let ret = rng.chance(1, 4);
    TraceRecord::new(
        TraceId::new(pc, (rng.next_u32() as u8) & mask, branch_count),
        8,
        calls,
        ret,
        ret,
    )
}

fn gen_stream(rng: &mut XorShift64, len: usize) -> Vec<TraceRecord> {
    (0..len).map(|_| gen_record(rng)).collect()
}

/// A random valid predictor configuration exercising every config field
/// the snapshot must round-trip: table sizes, counters, RHS on/off,
/// alternate prediction and the cost-reduced hashed-target format.
fn gen_config(rng: &mut XorShift64) -> PredictorConfig {
    let index_bits = [12u32, 12, 15][rng.below(3) as usize];
    let depth = rng.below(8) as usize;
    let mut cfg = PredictorConfig::try_paper(index_bits, depth).expect("paper point");
    cfg.secondary_index_bits = rng.range(6, 11) as u32;
    if rng.chance(1, 3) {
        cfg.rhs = None;
    } else if rng.chance(1, 3) {
        cfg.rhs = Some(RhsConfig {
            max_depth: rng.range(1, 9) as usize,
        });
    }
    if rng.chance(1, 3) {
        cfg.alternate = true;
    }
    if rng.chance(1, 3) {
        cfg.stored_target = StoredTarget::Hashed;
    }
    if rng.chance(1, 4) {
        cfg.primary_counter = CounterSpec::TWO_BIT;
    }
    cfg.validate().expect("generated config is valid");
    cfg
}

/// A structurally complete but *tiny* configuration (64-entry tables) for
/// the exhaustive corruption sweeps: a byte-by-byte bit-flip pass over a
/// paper-sized snapshot would hash gigabytes, and the codec paths it
/// exercises are identical.
fn tiny_config(rng: &mut XorShift64) -> PredictorConfig {
    let mut cfg = PredictorConfig {
        index_bits: 6,
        dolc: ntp_core::Dolc {
            depth: 2,
            older: 3,
            last: 4,
            current: 5,
        },
        secondary_index_bits: 6,
        ..PredictorConfig::paper(12, 2)
    };
    if rng.chance(1, 3) {
        cfg.stored_target = StoredTarget::Hashed;
    }
    if rng.chance(1, 3) {
        cfg.alternate = true;
    }
    cfg.validate().expect("tiny config is valid");
    cfg
}

/// Trains `n` tiny sessions (corruption-sweep sized).
fn gen_tiny_artifact(rng: &mut XorShift64, n: usize) -> SnapshotArtifact {
    let mut sessions = Vec::with_capacity(n);
    for k in 0..n {
        let cfg = tiny_config(rng);
        let mut p = NextTracePredictor::new(cfg);
        let len = rng.range(100, 300) as usize;
        let stats = evaluate(&mut p, &gen_stream(rng, len));
        sessions.push(SessionSnapshot::capture(k as u64, &p, &stats));
    }
    SnapshotArtifact { sessions }
}

/// Trains `n` random sessions and snapshots them.
fn gen_artifact(rng: &mut XorShift64, n: usize) -> (SnapshotArtifact, Vec<NextTracePredictor>) {
    let mut sessions = Vec::with_capacity(n);
    let mut predictors = Vec::with_capacity(n);
    for k in 0..n {
        let cfg = gen_config(rng);
        let mut p = NextTracePredictor::new(cfg);
        let len = rng.range(100, 600) as usize;
        let stats = evaluate(&mut p, &gen_stream(rng, len));
        sessions.push(SessionSnapshot::capture(k as u64 * 3 + 1, &p, &stats));
        predictors.push(p);
    }
    (SnapshotArtifact { sessions }, predictors)
}

/// Positive control + determinism: random session sets encode the same
/// bytes every time, decode back exactly, and the instantiated predictors
/// continue in per-prediction lockstep with the originals.
#[test]
fn random_snapshots_round_trip_and_continue_in_lockstep() {
    for seed in 1..=16u64 {
        let mut rng = XorShift64::new(seed);
        let n = 1 + rng.below(3) as usize;
        let (artifact, mut originals) = gen_artifact(&mut rng, n);
        let bytes = encode_snapshot(&artifact);
        assert_eq!(
            bytes,
            encode_snapshot(&artifact),
            "seed {seed}: encoding is not deterministic"
        );
        let back = decode_snapshot(&bytes).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(back.sessions.len(), artifact.sessions.len());
        for s in &back.sessions {
            let k = ((s.session_id - 1) / 3) as usize;
            assert_eq!(s, &artifact.sessions[k], "seed {seed}: session {k}");
            let mut restored = s
                .instantiate()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let original = &mut originals[k];
            for step in 0..200 {
                let r = gen_record(&mut rng);
                assert_eq!(
                    restored.predict(),
                    original.predict(),
                    "seed {seed} session {k} step {step}"
                );
                restored.update(&r);
                original.update(&r);
            }
            assert_eq!(restored.aliasing(), original.aliasing());
            assert_eq!(restored.occupancy(), original.occupancy());
        }
    }
}

/// An untrained predictor and an empty session list are valid snapshots.
#[test]
fn cold_and_empty_snapshots_round_trip() {
    let empty = SnapshotArtifact::default();
    assert_eq!(
        decode_snapshot(&encode_snapshot(&empty)).expect("empty decodes"),
        empty
    );
    let p = NextTracePredictor::new(PredictorConfig::paper(12, 2));
    let cold = SnapshotArtifact {
        sessions: vec![SessionSnapshot::capture(0, &p, &PredictorStats::new())],
    };
    let back = decode_snapshot(&encode_snapshot(&cold)).expect("cold decodes");
    assert_eq!(back, cold);
    back.sessions[0].instantiate().expect("cold state applies");
}

/// Every single-bit flip anywhere in the file must be refused.
#[test]
fn every_single_bit_flip_is_refused() {
    for seed in [5u64, 23] {
        let mut rng = XorShift64::new(seed);
        let artifact = gen_tiny_artifact(&mut rng, 1);
        let bytes = encode_snapshot(&artifact);
        decode_snapshot(&bytes).expect("pristine bytes decode");
        let mut mutated = bytes.clone();
        for i in 0..mutated.len() {
            for bit in 0..8 {
                mutated[i] ^= 1 << bit;
                assert!(
                    decode_snapshot(&mutated).is_err(),
                    "seed {seed}: flip of byte {i} bit {bit} was not detected"
                );
                mutated[i] ^= 1 << bit; // restore
            }
        }
        assert_eq!(mutated, bytes, "sweep must leave the buffer pristine");
    }
}

/// Every proper prefix of a valid file must be refused (no partial load).
#[test]
fn every_truncation_is_refused() {
    let mut rng = XorShift64::new(0xDEAD);
    let artifact = gen_tiny_artifact(&mut rng, 2);
    let bytes = encode_snapshot(&artifact);
    for cut in 0..bytes.len() {
        assert!(
            decode_snapshot(&bytes[..cut]).is_err(),
            "truncation to {cut}/{} bytes was not detected",
            bytes.len()
        );
    }
}

/// Appending anything after a valid file must be refused.
#[test]
fn trailing_garbage_is_refused() {
    let mut rng = XorShift64::new(0xBEEF);
    let artifact = gen_tiny_artifact(&mut rng, 1);
    let mut bytes = encode_snapshot(&artifact);
    bytes.push(0);
    match decode_snapshot(&bytes) {
        Err(SnapshotError::File(TraceFileError::TrailingBytes { extra })) => assert_eq!(extra, 1),
        other => panic!("expected TrailingBytes, got {other:?}"),
    }
}

/// A file written under any other snapshot version must be refused even
/// if everything else is internally consistent.
#[test]
fn version_skew_is_refused() {
    let mut rng = XorShift64::new(0x5EED);
    let artifact = gen_tiny_artifact(&mut rng, 1);
    let bytes = encode_snapshot(&artifact);
    for skew in [SNAPSHOT_VERSION + 1, SNAPSHOT_VERSION + 7, 0] {
        let mut mutated = bytes.clone();
        mutated[4..8].copy_from_slice(&skew.to_le_bytes());
        match decode_snapshot(&mutated) {
            Err(SnapshotError::File(TraceFileError::BadVersion { found })) => {
                assert_eq!(found, skew)
            }
            other => panic!("version {skew}: expected BadVersion, got {other:?}"),
        }
    }
}

/// Pins snapshot version 2: the `.nts` image and the session-wire payload
/// of a fixed pair of tiny trained sessions must never change. A
/// deliberate layout change bumps `SNAPSHOT_VERSION` and these values
/// together.
#[test]
fn snapshot_v2_encoding_is_pinned() {
    let mut rng = XorShift64::new(0x0A75_0002);
    let artifact = gen_tiny_artifact(&mut rng, 2);
    assert_eq!(SNAPSHOT_VERSION, 2);
    let bytes = encode_snapshot(&artifact);
    assert_eq!((bytes.len(), fnv64(&bytes)), (4_394, 0x5aa3_c3c8_4625_7ccf));
    let wire = encode_session_wire(&artifact.sessions[1]);
    assert_eq!((wire.len(), fnv64(&wire)), (2_107, 0x7b73_4c13_79b1_237e));
}

/// Version-1 images (FNV-1a section checksums) are refused by their
/// version field, in a file and on the wire.
#[test]
fn version_1_images_are_refused() {
    let mut rng = XorShift64::new(0x0A75_0001);
    let artifact = gen_tiny_artifact(&mut rng, 1);
    let mut bytes = encode_snapshot(&artifact);
    bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
    match decode_snapshot(&bytes) {
        Err(SnapshotError::File(TraceFileError::BadVersion { found: 1 })) => {}
        other => panic!("expected BadVersion {{ found: 1 }}, got {other:?}"),
    }
    let mut wire = encode_session_wire(&artifact.sessions[0]);
    wire[4..8].copy_from_slice(&1u32.to_le_bytes());
    match decode_session_wire(&wire) {
        Err(SnapshotError::File(TraceFileError::BadVersion { found: 1 })) => {}
        other => panic!("expected BadVersion {{ found: 1 }}, got {other:?}"),
    }
}

/// Restoring a session into a predictor with any perturbed configuration
/// must be refused with `ConfigMismatch`, leaving the target untouched.
#[test]
fn config_mismatch_is_refused_on_restore() {
    let mut rng = XorShift64::new(0xFACE);
    let base = PredictorConfig::paper(12, 3);
    let mut p = NextTracePredictor::new(base);
    let stats = evaluate(&mut p, &gen_stream(&mut rng, 400));
    let snap = SessionSnapshot::capture(0, &p, &stats);

    let perturbed = [
        PredictorConfig::paper(15, 3),
        PredictorConfig::paper(12, 2),
        PredictorConfig {
            tag_bits: 9,
            ..base
        },
        PredictorConfig { rhs: None, ..base },
        PredictorConfig {
            alternate: true,
            ..base
        },
        PredictorConfig {
            stored_target: StoredTarget::Hashed,
            ..base
        },
        PredictorConfig {
            secondary_index_bits: 13,
            ..base
        },
    ];
    for (k, cfg) in perturbed.iter().enumerate() {
        let mut target = NextTracePredictor::new(*cfg);
        let before = target.save_state();
        match snap.restore_into(&mut target) {
            Err(SnapshotError::ConfigMismatch { .. }) => {}
            other => panic!("perturbation {k}: expected ConfigMismatch, got {other:?}"),
        }
        assert_eq!(
            target.save_state(),
            before,
            "perturbation {k}: refusal must not mutate the target"
        );
    }
    // Positive control: the matching configuration restores.
    let mut target = NextTracePredictor::new(base);
    snap.restore_into(&mut target).expect("control restore");
    assert_eq!(target.save_state(), p.save_state());
}
