//! # ntp-tracefile — persistent on-disk trace-capture cache
//!
//! Every experiment run used to re-execute the full functional-simulation
//! capture pass (hundreds of Minstr) even though the predictor sweeps only
//! ever consume the derived 8-byte [`TraceRecord`] stream and a handful of
//! capture-time summaries. This crate persists that artifact: **capture
//! once, replay everywhere**.
//!
//! * [`CaptureArtifact`] — the persisted unit: the packed record stream
//!   plus every capture-derived summary (trace/redundancy statistics,
//!   sequential/gshare/GAg baseline results, control mix, icount), none of
//!   which can be reconstructed from the records alone;
//! * [`Fingerprint`] — the cache key: workload identity (name, analog,
//!   assembled program image), instruction budget, trace-selection policy
//!   and format version, canonicalized and FNV-hashed;
//! * [`format`] — the validating `.ntc` codec: magic + version header,
//!   fingerprint echo (its FNV-1a 64 hash checks the header), per-section
//!   length fields and word-at-a-time [`ntp_hash::Fold64`] section
//!   checksums.
//!   Stale or corrupt files are **hard errors** ([`TraceFileError`]) — the
//!   caller re-captures; a cache can never mis-load;
//! * [`counters`] — process-wide hit/miss/bytes/time telemetry, surfaced
//!   by the bench reports under the volatile `"throughput"` section;
//! * [`snapshot`] — the `.nts` predictor *state* snapshot codec: the same
//!   validating section/checksum/fingerprint discipline (FNV-1a 64
//!   fingerprint, `Fold64` section and session-wire checksums) applied to trained
//!   predictor sessions, so `ntp serve` can warm-start instead of
//!   relearning (see [`SnapshotArtifact`]).
//!
//! The cache is off by default. `NTP_TRACE_CACHE=1` enables it at the
//! default location `.ntp-cache/`; any other non-empty value is used as
//! the cache directory (see [`cache_dir_from_env`]). Each configuration
//! maps to its own file (`<name>-<fingerprint>.ntc`), so the parallel
//! capture workers of `ntp-runner` never contend on a file, and writes go
//! through a same-directory temp file + rename so readers never observe a
//! torn file.
//!
//! # Memory model
//!
//! The record stream is the only large part of an artifact, and the codec
//! never holds a second copy of it. [`format::write_file`] encodes and
//! checksums the `RECS` section one [`format::CHUNK_BYTES`] chunk at a
//! time; [`format::read_file`] streams the file through the same decoder
//! as [`format::decode`], hashing and decoding each chunk straight into an
//! exact-capacity record vector. So a capture or a load keeps one resident
//! record stream per benchmark, plus codec buffers bounded by the chunk
//! size. Every length read from a file is checked against the bytes the
//! input can still supply before anything is allocated for it.
//!
//! # Example
//!
//! ```
//! use ntp_tracefile::{format, CaptureArtifact, Fingerprint};
//! use ntp_trace::TraceConfig;
//!
//! let fp = Fingerprint::new("demo", "demo", 1_000, &TraceConfig::default(), b"image");
//! let artifact = CaptureArtifact {
//!     name: "demo".into(),
//!     analog_of: "demo".into(),
//!     ..CaptureArtifact::default()
//! };
//! let bytes = format::encode(&fp, &artifact);
//! let back = format::decode(&bytes, &fp)?;
//! assert_eq!(back, artifact);
//! # Ok::<(), ntp_tracefile::TraceFileError>(())
//! ```
//!
//! [`TraceRecord`]: ntp_trace::TraceRecord

#![warn(missing_docs)]

pub mod counters;
mod fingerprint;
pub mod format;
pub mod snapshot;

pub use counters::{counters, reset_counters, CacheCounters};
pub use fingerprint::Fingerprint;
pub use snapshot::{
    config_canon, decode_session_wire, decode_snapshot, encode_session_wire, encode_snapshot,
    read_snapshot_file, write_snapshot_file, SessionSnapshot, SnapshotArtifact, SnapshotError,
    SESSION_WIRE_MAGIC, SNAPSHOT_EXT, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
// Both hashes live in the shared `ntp-hash` crate (the `ntp-serve` wire
// protocol checksums frames with the same FNV-1a 64); FNV is re-exported
// here so existing `ntp_tracefile::{fnv64, Fnv64}` users keep working
// unchanged.
pub use format::{CaptureArtifact, TraceFileError, FORMAT_VERSION, MAGIC};
pub use ntp_hash::{fnv64, Fnv64};

use std::path::PathBuf;

/// Environment variable controlling the cache: unset, empty or `0`
/// disables it; `1` enables it at [`DEFAULT_CACHE_DIR`]; anything else is
/// the cache directory path.
pub const CACHE_ENV: &str = "NTP_TRACE_CACHE";

/// Where `NTP_TRACE_CACHE=1` puts the cache.
pub const DEFAULT_CACHE_DIR: &str = ".ntp-cache";

/// Resolves the `NTP_TRACE_CACHE` knob (see [`CACHE_ENV`]).
///
/// # Examples
///
/// ```no_run
/// // NTP_TRACE_CACHE=1        -> Some(".ntp-cache")
/// // NTP_TRACE_CACHE=/tmp/tc  -> Some("/tmp/tc")
/// // NTP_TRACE_CACHE=0 / ""   -> None
/// let dir = ntp_tracefile::cache_dir_from_env();
/// ```
pub fn cache_dir_from_env() -> Option<PathBuf> {
    match std::env::var(CACHE_ENV) {
        Ok(v) if v.is_empty() || v == "0" => None,
        Ok(v) if v == "1" => Some(PathBuf::from(DEFAULT_CACHE_DIR)),
        Ok(v) => Some(PathBuf::from(v)),
        Err(_) => None,
    }
}
