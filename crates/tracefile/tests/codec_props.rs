//! Property-style codec tests: randomized round-trips plus exhaustive
//! corruption sweeps, driven by the same deterministic xorshift generator
//! the differential-verification harness uses (`ntp_verify::XorShift64`),
//! so every failure reproduces from its printed seed.
//!
//! The invariant under test is the crate's central promise: a `.ntc` file
//! either decodes to *exactly* what was stored, or it is refused with a
//! hard [`TraceFileError`] — never a partial or silently-wrong load. The
//! corruption sweeps run every image through both entry points, the
//! in-memory [`decode`] and the streaming [`read_file`], and require the
//! same verdict from each.

use ntp_baselines::{MultiBranchStats, SequentialStats};
use ntp_trace::{ControlMix, RedundancyRaw, TraceConfig, TraceStatsRaw};
use ntp_tracefile::format::{decode, encode, read_file, write_file, CHUNK_BYTES};
use ntp_tracefile::{fnv64, CaptureArtifact, Fingerprint, TraceFileError, FORMAT_VERSION};
use ntp_verify::XorShift64;
use std::path::PathBuf;

use ntp_trace::{TraceId, TraceRecord};

/// One random, structurally valid trace record.
fn gen_record(rng: &mut XorShift64) -> TraceRecord {
    let branch_count = rng.below(7) as u8;
    let mask = ((1u16 << branch_count) - 1) as u8;
    let branch_bits = (rng.next_u32() as u8) & mask;
    let len = rng.range(1, 16) as u8;
    let call_count = rng.below(8) as u8;
    let ends_in_return = rng.chance(1, 4);
    let ends_in_indirect = !ends_in_return && rng.chance(1, 4);
    TraceRecord::new(
        TraceId::new(rng.next_u32(), branch_bits, branch_count),
        len,
        call_count,
        ends_in_return,
        ends_in_indirect,
    )
}

/// Strictly-increasing random u64s (the codec rejects unsorted id sets).
fn gen_sorted_u64s(rng: &mut XorShift64, n: usize) -> Vec<u64> {
    let mut v = Vec::with_capacity(n);
    let mut cur = 0u64;
    for _ in 0..n {
        cur += 1 + rng.below(1 << 20);
        v.push(cur);
    }
    v
}

/// Strictly-increasing-by-pc random copy counts.
fn gen_copies(rng: &mut XorShift64, n: usize) -> Vec<(u32, u32)> {
    let mut v = Vec::with_capacity(n);
    let mut pc = 0u32;
    for _ in 0..n {
        pc = pc.saturating_add(4 + (rng.below(1 << 12) as u32) * 4);
        v.push((pc, 1 + rng.below(64) as u32));
    }
    v
}

/// A random, structurally valid capture artifact of modest size.
fn gen_artifact(rng: &mut XorShift64) -> CaptureArtifact {
    let n_records = rng.below(64) as usize;
    let n_static = rng.below(32) as usize;
    let n_seen = rng.below(32) as usize;
    let n_copies = rng.below(16) as usize;
    CaptureArtifact {
        name: format!("wl{}", rng.below(1000)),
        analog_of: format!("analog{}", rng.below(1000)),
        icount: rng.next_u64(),
        records: (0..n_records).map(|_| gen_record(rng)).collect(),
        trace_stats: TraceStatsRaw {
            traces: rng.next_u64(),
            instrs: rng.next_u64(),
            cond_branches: rng.next_u64(),
            calls: rng.next_u64(),
            returns: rng.next_u64(),
            indirect: rng.next_u64(),
            static_ids: gen_sorted_u64s(rng, n_static),
        },
        redundancy: RedundancyRaw {
            seen_traces: gen_sorted_u64s(rng, n_seen),
            copies: gen_copies(rng, n_copies),
            stored_instrs: rng.next_u64(),
        },
        seq_stats: SequentialStats {
            traces: rng.next_u64(),
            trace_mispredicts: rng.next_u64(),
            branches: rng.next_u64(),
            branch_mispredicts: rng.next_u64(),
            indirects: rng.next_u64(),
            indirect_mispredicts: rng.next_u64(),
            returns: rng.next_u64(),
            return_mispredicts: rng.next_u64(),
        },
        mb_stats: MultiBranchStats {
            traces: rng.next_u64(),
            trace_mispredicts: rng.next_u64(),
            branches: rng.next_u64(),
            branch_mispredicts: rng.next_u64(),
        },
        gag_stats: MultiBranchStats {
            traces: rng.next_u64(),
            trace_mispredicts: rng.next_u64(),
            branches: rng.next_u64(),
            branch_mispredicts: rng.next_u64(),
        },
        mix: ControlMix {
            cond_branches: rng.next_u64(),
            taken_branches: rng.next_u64(),
            jumps: rng.next_u64(),
            calls: rng.next_u64(),
            indirect_jumps: rng.next_u64(),
            indirect_calls: rng.next_u64(),
            returns: rng.next_u64(),
            instrs: rng.next_u64(),
        },
    }
}

fn gen_fingerprint(rng: &mut XorShift64) -> Fingerprint {
    let image: Vec<u8> = (0..rng.range(4, 64))
        .map(|_| rng.next_u32() as u8)
        .collect();
    Fingerprint::new(
        &format!("wl{}", rng.below(1000)),
        "analog",
        rng.next_u64(),
        &TraceConfig::default(),
        &image,
    )
}

/// A scratch `.ntc` path, removed on drop. Tests run in parallel, so each
/// names its own.
struct TempFile(PathBuf);

impl TempFile {
    fn new(test: &str) -> TempFile {
        TempFile(std::env::temp_dir().join(format!("ntc-props-{test}-{}.ntc", std::process::id())))
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Decodes `bytes` through [`decode`] and, written to `file`, through
/// [`read_file`]; both must reach the same verdict, which is returned.
fn decode_both(
    file: &TempFile,
    bytes: &[u8],
    fp: &Fingerprint,
) -> Result<CaptureArtifact, TraceFileError> {
    let from_slice = decode(bytes, fp);
    std::fs::write(&file.0, bytes).expect("write scratch file");
    let from_file = read_file(&file.0, fp).map(|(a, n)| {
        assert_eq!(n, bytes.len() as u64, "read_file reports the file size");
        a
    });
    match (&from_slice, &from_file) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "slice and file decode differently"),
        (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "different errors"),
        (a, b) => panic!("slice decode {a:?} but file decode {b:?}"),
    }
    from_slice
}

/// Positive control + determinism: random artifacts encode the same bytes
/// every time and decode back to exactly the stored value.
#[test]
fn random_artifacts_round_trip_bit_exactly() {
    for seed in 1..=32u64 {
        let mut rng = XorShift64::new(seed);
        let fp = gen_fingerprint(&mut rng);
        let artifact = gen_artifact(&mut rng);
        let bytes = encode(&fp, &artifact);
        assert_eq!(
            bytes,
            encode(&fp, &artifact),
            "seed {seed}: encoding is not deterministic"
        );
        let back = decode(&bytes, &fp).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(back, artifact, "seed {seed}: round-trip mismatch");
    }
}

/// The empty artifact is a valid file too.
#[test]
fn empty_artifact_round_trips() {
    let fp = Fingerprint::new("e", "e", 0, &TraceConfig::default(), b"");
    let artifact = CaptureArtifact::default();
    let back = decode(&encode(&fp, &artifact), &fp).expect("empty round-trip");
    assert_eq!(back, artifact);
}

/// Every single-bit flip anywhere in the file must be refused. (FNV-1a is
/// not a provable 1-bit-detecting code, but the header is validated
/// semantically and every section is checksummed; this sweep pins the
/// property for real encodings.)
#[test]
fn every_single_bit_flip_is_refused() {
    for seed in [3u64, 17, 91] {
        let mut rng = XorShift64::new(seed);
        let fp = gen_fingerprint(&mut rng);
        let artifact = gen_artifact(&mut rng);
        let bytes = encode(&fp, &artifact);
        let file = TempFile::new(&format!("flip{seed}"));
        // Positive control first: the pristine bytes decode.
        decode_both(&file, &bytes, &fp).expect("pristine bytes decode");
        let mut mutated = bytes.clone();
        for i in 0..mutated.len() {
            for bit in 0..8 {
                mutated[i] ^= 1 << bit;
                assert!(
                    decode_both(&file, &mutated, &fp).is_err(),
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
    let fp = gen_fingerprint(&mut rng);
    let artifact = gen_artifact(&mut rng);
    let bytes = encode(&fp, &artifact);
    let file = TempFile::new("truncation");
    for cut in 0..bytes.len() {
        assert!(
            decode_both(&file, &bytes[..cut], &fp).is_err(),
            "truncation to {cut}/{} bytes was not detected",
            bytes.len()
        );
    }
}

/// Appending anything after a valid file must be refused.
#[test]
fn trailing_garbage_is_refused() {
    let mut rng = XorShift64::new(0xBEEF);
    let fp = gen_fingerprint(&mut rng);
    let artifact = gen_artifact(&mut rng);
    let mut bytes = encode(&fp, &artifact);
    let file = TempFile::new("trailing");
    for extra in 1..=9 {
        bytes.push(0);
        match decode_both(&file, &bytes, &fp) {
            Err(TraceFileError::TrailingBytes { extra: found }) => assert_eq!(found, extra),
            other => panic!("expected TrailingBytes, got {other:?}"),
        }
    }
}

/// A fixed artifact whose record stream spans four codec chunks: three
/// full ones and a partial one (24 676 records, 197 408 bytes).
fn multi_chunk_artifact() -> (Fingerprint, CaptureArtifact) {
    let mut rng = XorShift64::new(0xC4A2_7E55);
    let fp = gen_fingerprint(&mut rng);
    let mut artifact = gen_artifact(&mut rng);
    artifact.records = (0..24_676).map(|_| gen_record(&mut rng)).collect();
    (fp, artifact)
}

/// Offset of the first record byte in an encoded image of `artifact`:
/// just past the `RECS` tag, its length field and the record count.
fn records_offset(bytes: &[u8], artifact: &CaptureArtifact) -> usize {
    let mut head = b"RECS".to_vec();
    head.extend_from_slice(&(8 + 8 * artifact.records.len() as u64).to_le_bytes());
    let tag = bytes
        .windows(head.len())
        .position(|w| w == head)
        .expect("RECS section present");
    tag + head.len() + 8
}

/// A record stream larger than the codec's chunk round-trips bit-exactly
/// through memory and through a file, and a flip at every chunk boundary
/// (and at a seeded sample of other offsets) is refused by both decoders.
#[test]
fn multi_chunk_artifact_round_trips_and_refuses_flips() {
    let (fp, artifact) = multi_chunk_artifact();
    let bytes = encode(&fp, &artifact);
    let first = records_offset(&bytes, &artifact);
    let end = first + 8 * artifact.records.len();
    assert!(
        end - first > 3 * CHUNK_BYTES,
        "must span at least four chunks"
    );

    let file = TempFile::new("multichunk");
    assert_eq!(
        decode_both(&file, &bytes, &fp).expect("round-trip"),
        artifact
    );
    assert_eq!(
        write_file(&file.0, &fp, &artifact).expect("write_file"),
        bytes.len() as u64
    );
    assert_eq!(
        std::fs::read(&file.0).expect("read back"),
        bytes,
        "the file writer streams exactly the in-memory encoding"
    );

    let mut offsets: Vec<usize> = (first..end)
        .step_by(CHUNK_BYTES)
        .chain([end])
        .flat_map(|b| [b - 1, b])
        .collect();
    let mut rng = XorShift64::new(0x5EED_0FF5);
    offsets.extend((0..48).map(|_| rng.below(bytes.len() as u64) as usize));
    let mut mutated = bytes.clone();
    for &i in &offsets {
        for bit in 0..8 {
            mutated[i] ^= 1 << bit;
            assert!(
                decode_both(&file, &mutated, &fp).is_err(),
                "flip of byte {i} bit {bit} was not detected"
            );
            mutated[i] ^= 1 << bit;
        }
    }
}

/// Pins format version 1: the encoding of a fixed multi-chunk artifact
/// must never change. A deliberate layout change bumps `FORMAT_VERSION`
/// and this value together.
#[test]
fn format_v1_encoding_is_pinned() {
    let (fp, artifact) = multi_chunk_artifact();
    let bytes = encode(&fp, &artifact);
    assert_eq!(FORMAT_VERSION, 1);
    assert_eq!(bytes.len(), 198_296);
    assert_eq!(fnv64(&bytes), 0x469c_23b8_777d_96df);
}

/// A file written under any other format version must be refused even if
/// everything else (including its checksums) is internally consistent.
#[test]
fn version_skew_is_refused() {
    let mut rng = XorShift64::new(0x5EED);
    let fp = gen_fingerprint(&mut rng);
    let artifact = gen_artifact(&mut rng);
    let bytes = encode(&fp, &artifact);
    for skew in [FORMAT_VERSION + 1, FORMAT_VERSION + 9, 0] {
        let mut mutated = bytes.clone();
        mutated[4..8].copy_from_slice(&skew.to_le_bytes());
        match decode(&mutated, &fp) {
            Err(TraceFileError::BadVersion { found }) => assert_eq!(found, skew),
            other => panic!("version {skew}: expected BadVersion, got {other:?}"),
        }
    }
}

/// A file stored under one configuration must be refused when loaded
/// expecting any perturbed configuration: name, budget, trace policy and
/// program image all participate in the fingerprint.
#[test]
fn fingerprint_skew_is_refused() {
    let base_cfg = TraceConfig::default();
    let fp = Fingerprint::new("wl", "analog", 1_000_000, &base_cfg, b"program-image");
    let mut rng = XorShift64::new(0xFACE);
    let artifact = gen_artifact(&mut rng);
    let bytes = encode(&fp, &artifact);

    let mut other_cfg = base_cfg;
    other_cfg.max_len = base_cfg.max_len - 1;
    let perturbed = [
        Fingerprint::new("wl2", "analog", 1_000_000, &base_cfg, b"program-image"),
        Fingerprint::new("wl", "analog2", 1_000_000, &base_cfg, b"program-image"),
        Fingerprint::new("wl", "analog", 1_000_001, &base_cfg, b"program-image"),
        Fingerprint::new("wl", "analog", 1_000_000, &other_cfg, b"program-image"),
        Fingerprint::new("wl", "analog", 1_000_000, &base_cfg, b"program-image2"),
    ];
    for (k, wrong) in perturbed.iter().enumerate() {
        assert!(
            matches!(
                decode(&bytes, wrong),
                Err(TraceFileError::FingerprintMismatch { .. })
            ),
            "perturbation {k} was not refused"
        );
    }
    // Positive control: the matching fingerprint still loads.
    assert_eq!(decode(&bytes, &fp).expect("control decode"), artifact);
}
