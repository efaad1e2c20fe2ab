//! The `.ntc` binary format: a validating codec for one captured
//! benchmark.
//!
//! ```text
//! header   magic "NTPC" | format version u32 | fingerprint hash u64
//!          | fingerprint length u32 | fingerprint string (UTF-8)
//! sections 8 fixed-order sections, each:
//!          tag [u8;4] | payload length u64 | payload
//!          | Fold64 checksum over (tag ‖ length ‖ payload)
//! trailer  end of file, exactly (trailing bytes are an error)
//! ```
//!
//! All integers are little-endian. Two hashes guard a file, each with one
//! job. The fingerprint hash is FNV-1a 64 ([`ntp_hash::fnv64`]) of the
//! canonical fingerprint string; it names the cache file and checks the
//! header. Each section's checksum is [`ntp_hash::Fold64`], a
//! word-at-a-time checksum that keeps pace with the disk on the multi-MB
//! `RECS` section and detects every change confined to one 8-byte word.
//!
//! The reader is *validating*: magic, version, fingerprint (hash **and**
//! canonical string), every section checksum, every length field, and
//! every decoded value range are checked, and any mismatch is a hard
//! [`TraceFileError`] — a stale or corrupt cache must fall back to
//! re-capture, never mis-load. Single-bit flips anywhere in the file are
//! caught (see `tests/codec_props.rs`). Version 1 checksummed sections
//! with FNV-1a 64; its files are refused as [`TraceFileError::BadVersion`]
//! (and, since the fingerprint folds the version in, never even looked up).

use crate::Fingerprint;
use ntp_baselines::{MultiBranchStats, SequentialStats};
use ntp_hash::{fnv64, Fold64};
use ntp_trace::{
    ControlMix, RedundancyRaw, TraceId, TraceRecord, TraceStatsRaw, MAX_TRACE_BRANCHES,
    MAX_TRACE_LEN,
};
use std::io::{BufReader, Read, Write};
use std::path::Path;

/// File magic: the first four bytes of every `.ntc` file.
pub const MAGIC: [u8; 4] = *b"NTPC";

/// On-disk format version. Bump on any layout change; readers reject
/// every other version (the fingerprint also folds this in, so a bump
/// changes file names too and old files are simply ignored).
pub const FORMAT_VERSION: u32 = 2;

/// Fixed section order of the format (tag, human name).
const SECTIONS: [(&[u8; 4], &str); 8] = [
    (b"META", "meta"),
    (b"RECS", "records"),
    (b"TSTA", "trace_stats"),
    (b"REDN", "redundancy"),
    (b"SEQS", "sequential"),
    (b"MBST", "multibranch"),
    (b"GAGS", "gag"),
    (b"CMIX", "mix"),
];

/// Everything one functional-simulation capture pass learns about a
/// benchmark — the persisted form. These summaries are computed
/// per-step/per-trace *during* simulation and cannot be reconstructed
/// from the record stream alone, so the cache stores them alongside it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CaptureArtifact {
    /// Benchmark name (the paper's naming).
    pub name: String,
    /// Which SpecInt95 benchmark it stands in for.
    pub analog_of: String,
    /// Instructions simulated.
    pub icount: u64,
    /// The packed 8-byte trace record stream.
    pub records: Vec<TraceRecord>,
    /// Trace-selection statistics (Table 1), plain-data form.
    pub trace_stats: TraceStatsRaw,
    /// Trace-cache duplication accounting, plain-data form.
    pub redundancy: RedundancyRaw,
    /// Idealized sequential baseline results (Table 2).
    pub seq_stats: SequentialStats,
    /// Single-access multiple-branch baseline results.
    pub mb_stats: MultiBranchStats,
    /// Multiported-GAg baseline results.
    pub gag_stats: MultiBranchStats,
    /// Dynamic instruction mix.
    pub mix: ControlMix,
}

/// Why a `.ntc` file was refused. Every variant is a *hard* error: the
/// caller must fall back to re-capturing, never partially load.
#[derive(Debug)]
pub enum TraceFileError {
    /// Filesystem-level failure.
    Io(std::io::Error),
    /// The first four bytes are not [`MAGIC`].
    BadMagic,
    /// The file was written by a different format version.
    BadVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The file was captured under a different configuration.
    FingerprintMismatch {
        /// Fingerprint the current configuration expects.
        expected: String,
        /// Fingerprint stored in the file.
        found: String,
    },
    /// The stored fingerprint hash does not match the stored string
    /// (header corruption).
    CorruptHeader,
    /// The file ended before `what` could be read.
    Truncated {
        /// What the reader was decoding when bytes ran out.
        what: &'static str,
    },
    /// A section's stored checksum does not match its content.
    ChecksumMismatch {
        /// Section name.
        section: &'static str,
    },
    /// A section decoded into out-of-range values.
    Malformed {
        /// Section name.
        section: &'static str,
        /// What was wrong.
        what: String,
    },
    /// Bytes remain after the last section.
    TrailingBytes {
        /// How many.
        extra: usize,
    },
}

impl std::fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "i/o error: {e}"),
            TraceFileError::BadMagic => write!(f, "not a trace-cache file (bad magic)"),
            TraceFileError::BadVersion { found } => write!(
                f,
                "format version {found} (this build reads version {FORMAT_VERSION})"
            ),
            TraceFileError::FingerprintMismatch { expected, found } => write!(
                f,
                "configuration fingerprint mismatch: expected `{expected}`, file has `{found}`"
            ),
            TraceFileError::CorruptHeader => write!(f, "corrupt header (fingerprint hash)"),
            TraceFileError::Truncated { what } => write!(f, "truncated while reading {what}"),
            TraceFileError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section `{section}`")
            }
            TraceFileError::Malformed { section, what } => {
                write!(f, "malformed section `{section}`: {what}")
            }
            TraceFileError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after the last section")
            }
        }
    }
}

impl std::error::Error for TraceFileError {}

impl From<std::io::Error> for TraceFileError {
    fn from(e: std::io::Error) -> TraceFileError {
        TraceFileError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// A streaming section writer: emits `tag | len | payload | checksum`
/// into the underlying sink, folding each payload piece into the section
/// checksum as it is written. A section's payload may arrive in any number
/// of [`SectionWriter::body`] calls, so the writer itself buffers nothing:
/// peak codec memory is whatever the caller hands it at once — one
/// [`CHUNK_BYTES`] chunk for the record stream.
pub(crate) struct SectionWriter<W: Write> {
    sink: W,
    pub(crate) bytes_written: u64,
    hash: Fold64,
    /// Payload bytes the open section still owes its declared length.
    owed: u64,
}

impl<W: Write> SectionWriter<W> {
    pub(crate) fn new(sink: W) -> SectionWriter<W> {
        SectionWriter {
            sink,
            bytes_written: 0,
            hash: Fold64::new(),
            owed: 0,
        }
    }

    pub(crate) fn raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.sink.write_all(bytes)?;
        self.bytes_written += bytes.len() as u64;
        Ok(())
    }

    /// Opens a section whose payload will be exactly `len` bytes.
    pub(crate) fn begin(&mut self, tag: &[u8; 4], len: u64) -> std::io::Result<()> {
        let len_bytes = len.to_le_bytes();
        self.hash = Fold64::new();
        self.hash.update(tag);
        self.hash.update(&len_bytes);
        self.owed = len;
        self.raw(tag)?;
        self.raw(&len_bytes)
    }

    /// Appends the next piece of the open section's payload.
    pub(crate) fn body(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.owed = self
            .owed
            .checked_sub(bytes.len() as u64)
            .expect("section payload exceeds its declared length");
        self.hash.update(bytes);
        self.raw(bytes)
    }

    /// Closes the open section with its checksum.
    pub(crate) fn end(&mut self) -> std::io::Result<()> {
        assert_eq!(self.owed, 0, "section payload short of its declared length");
        self.raw(&self.hash.finish().to_le_bytes())
    }

    /// Writes one whole section from an in-memory payload.
    pub(crate) fn section(&mut self, tag: &[u8; 4], payload: &[u8]) -> std::io::Result<()> {
        self.begin(tag, payload.len() as u64)?;
        self.body(payload)?;
        self.end()
    }
}

/// Bytes of record stream the codec encodes or decodes per step (8 KiB
/// records). Bounds the codec's own buffers independently of stream
/// length; a multiple of the 8-byte record size.
pub const CHUNK_BYTES: usize = 64 * 1024;

/// Streams the `RECS` section — record count, then the records — through
/// one reusable [`CHUNK_BYTES`] buffer.
fn write_records<W: Write>(
    w: &mut SectionWriter<W>,
    records: &[TraceRecord],
) -> std::io::Result<()> {
    let count = records.len() as u64;
    w.begin(b"RECS", 8 + count * 8)?;
    w.body(&count.to_le_bytes())?;
    let mut chunk = Vec::with_capacity(CHUNK_BYTES.min(records.len() * 8));
    for part in records.chunks(CHUNK_BYTES / 8) {
        chunk.clear();
        for r in part {
            chunk.extend_from_slice(&r.to_bytes());
        }
        w.body(&chunk)?;
    }
    w.end()
}

fn encode_meta(a: &CaptureArtifact) -> Vec<u8> {
    let mut p = Vec::with_capacity(32 + a.name.len() + a.analog_of.len());
    put_str(&mut p, &a.name);
    put_str(&mut p, &a.analog_of);
    put_u64(&mut p, a.icount);
    p
}

fn encode_trace_stats(s: &TraceStatsRaw) -> Vec<u8> {
    let mut p = Vec::with_capacity(56 + s.static_ids.len() * 8);
    put_u64(&mut p, s.traces);
    put_u64(&mut p, s.instrs);
    put_u64(&mut p, s.cond_branches);
    put_u64(&mut p, s.calls);
    put_u64(&mut p, s.returns);
    put_u64(&mut p, s.indirect);
    put_u64(&mut p, s.static_ids.len() as u64);
    for &id in &s.static_ids {
        put_u64(&mut p, id);
    }
    p
}

fn encode_redundancy(r: &RedundancyRaw) -> Vec<u8> {
    let mut p = Vec::with_capacity(24 + r.seen_traces.len() * 8 + r.copies.len() * 8);
    put_u64(&mut p, r.stored_instrs);
    put_u64(&mut p, r.seen_traces.len() as u64);
    for &id in &r.seen_traces {
        put_u64(&mut p, id);
    }
    put_u64(&mut p, r.copies.len() as u64);
    for &(pc, n) in &r.copies {
        put_u32(&mut p, pc);
        put_u32(&mut p, n);
    }
    p
}

fn encode_sequential(s: &SequentialStats) -> Vec<u8> {
    let mut p = Vec::with_capacity(64);
    for v in [
        s.traces,
        s.trace_mispredicts,
        s.branches,
        s.branch_mispredicts,
        s.indirects,
        s.indirect_mispredicts,
        s.returns,
        s.return_mispredicts,
    ] {
        put_u64(&mut p, v);
    }
    p
}

fn encode_multibranch(s: &MultiBranchStats) -> Vec<u8> {
    let mut p = Vec::with_capacity(32);
    for v in [
        s.traces,
        s.trace_mispredicts,
        s.branches,
        s.branch_mispredicts,
    ] {
        put_u64(&mut p, v);
    }
    p
}

fn encode_mix(m: &ControlMix) -> Vec<u8> {
    let mut p = Vec::with_capacity(64);
    for v in [
        m.instrs,
        m.cond_branches,
        m.taken_branches,
        m.jumps,
        m.calls,
        m.indirect_jumps,
        m.indirect_calls,
        m.returns,
    ] {
        put_u64(&mut p, v);
    }
    p
}

/// Streams one artifact into `sink` under the given fingerprint,
/// returning the bytes written.
///
/// # Errors
///
/// Propagates sink I/O errors.
pub fn write_to<W: Write>(
    sink: W,
    fp: &Fingerprint,
    artifact: &CaptureArtifact,
) -> std::io::Result<u64> {
    let mut w = SectionWriter::new(sink);
    // Header.
    let mut header = Vec::with_capacity(20 + fp.canon().len());
    header.extend_from_slice(&MAGIC);
    put_u32(&mut header, FORMAT_VERSION);
    put_u64(&mut header, fp.hash());
    put_str(&mut header, fp.canon());
    w.raw(&header)?;
    // Sections, in the fixed order SECTIONS declares.
    w.section(b"META", &encode_meta(artifact))?;
    write_records(&mut w, &artifact.records)?;
    w.section(b"TSTA", &encode_trace_stats(&artifact.trace_stats))?;
    w.section(b"REDN", &encode_redundancy(&artifact.redundancy))?;
    w.section(b"SEQS", &encode_sequential(&artifact.seq_stats))?;
    w.section(b"MBST", &encode_multibranch(&artifact.mb_stats))?;
    w.section(b"GAGS", &encode_multibranch(&artifact.gag_stats))?;
    w.section(b"CMIX", &encode_mix(&artifact.mix))?;
    Ok(w.bytes_written)
}

/// Encodes one artifact to an in-memory buffer (tests and the atomic
/// file writer).
pub fn encode(fp: &Fingerprint, artifact: &CaptureArtifact) -> Vec<u8> {
    let mut buf = Vec::with_capacity(1024 + artifact.records.len() * 8);
    write_to(&mut buf, fp, artifact).expect("Vec sink cannot fail");
    buf
}

/// Atomically writes one artifact to `path`: the bytes land in a
/// same-directory temporary file first and are renamed into place, so a
/// concurrent reader sees either the old file or the complete new one,
/// never a torn write. Returns the bytes written.
///
/// # Errors
///
/// Propagates filesystem errors (the temporary file is cleaned up).
pub fn write_file(
    path: &Path,
    fp: &Fingerprint,
    artifact: &CaptureArtifact,
) -> std::io::Result<u64> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let result = (|| {
        let file = std::fs::File::create(&tmp)?;
        let mut writer = std::io::BufWriter::new(file);
        let n = write_to(&mut writer, fp, artifact)?;
        writer.flush()?;
        std::fs::rename(&tmp, path)?;
        Ok(n)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// The one decoder input of both formats: a byte source plus the number of
/// bytes it may still yield (the slice length, or the file length). Every
/// length read from the input is checked against that bound before
/// anything is allocated for it, so a crafted count can only produce a
/// [`TraceFileError`], never a huge allocation.
pub(crate) struct Reader<R: Read> {
    inner: R,
    remaining: u64,
}

impl<'a> Reader<&'a [u8]> {
    pub(crate) fn slice(bytes: &'a [u8]) -> Reader<&'a [u8]> {
        Reader::new(bytes, bytes.len() as u64)
    }
}

impl<R: Read> Reader<R> {
    /// A reader over `inner`, which holds exactly `len` more bytes.
    pub(crate) fn new(inner: R, len: u64) -> Reader<R> {
        Reader {
            inner,
            remaining: len,
        }
    }

    pub(crate) fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Fills `buf` from the input, or reports `what` as truncated.
    pub(crate) fn fill(
        &mut self,
        buf: &mut [u8],
        what: &'static str,
    ) -> Result<(), TraceFileError> {
        let n = buf.len() as u64;
        if n > self.remaining {
            return Err(TraceFileError::Truncated { what });
        }
        self.inner.read_exact(buf).map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => TraceFileError::Truncated { what },
            _ => TraceFileError::Io(e),
        })?;
        self.remaining -= n;
        Ok(())
    }

    pub(crate) fn array<const N: usize>(
        &mut self,
        what: &'static str,
    ) -> Result<[u8; N], TraceFileError> {
        let mut b = [0u8; N];
        self.fill(&mut b, what)?;
        Ok(b)
    }

    /// The next `n` bytes as an owned buffer, allocated only once the
    /// input is known to hold them.
    pub(crate) fn bytes(
        &mut self,
        n: usize,
        what: &'static str,
    ) -> Result<Vec<u8>, TraceFileError> {
        if n as u64 > self.remaining {
            return Err(TraceFileError::Truncated { what });
        }
        let mut b = vec![0u8; n];
        self.fill(&mut b, what)?;
        Ok(b)
    }

    pub(crate) fn u8(&mut self, what: &'static str) -> Result<u8, TraceFileError> {
        Ok(self.array::<1>(what)?[0])
    }

    pub(crate) fn u32(&mut self, what: &'static str) -> Result<u32, TraceFileError> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    pub(crate) fn u64(&mut self, what: &'static str) -> Result<u64, TraceFileError> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    /// `TrailingBytes` unless the input is exhausted.
    pub(crate) fn finish(&self) -> Result<(), TraceFileError> {
        match self.remaining {
            0 => Ok(()),
            n => Err(TraceFileError::TrailingBytes {
                extra: usize::try_from(n).unwrap_or(usize::MAX),
            }),
        }
    }
}

pub(crate) fn malformed(section: &'static str, what: impl Into<String>) -> TraceFileError {
    TraceFileError::Malformed {
        section,
        what: what.into(),
    }
}

/// Bytes taken by `count` elements of `width` bytes each, or `Malformed`
/// when a crafted count makes that overflow.
pub(crate) fn array_len(
    count: usize,
    width: usize,
    section: &'static str,
    what: &'static str,
) -> Result<usize, TraceFileError> {
    count
        .checked_mul(width)
        .ok_or_else(|| malformed(section, format!("{what} count {count} overflows")))
}

pub(crate) fn decode_str<R: Read>(
    r: &mut Reader<R>,
    section: &'static str,
    what: &'static str,
) -> Result<String, TraceFileError> {
    let len = r.u32(what)? as usize;
    let bytes = r.bytes(len, what)?;
    String::from_utf8(bytes).map_err(|_| malformed(section, format!("{what}: not UTF-8")))
}

/// Reads a section header, checking the tag and that the input can hold
/// the declared payload. Returns the payload length and the section
/// checksum primed with tag and length.
fn section_header<R: Read>(
    r: &mut Reader<R>,
    tag: &'static [u8; 4],
    name: &'static str,
) -> Result<(usize, Fold64), TraceFileError> {
    let found_tag = r.array::<4>("section tag")?;
    if &found_tag != tag {
        return Err(malformed(
            name,
            format!(
                "expected tag {:?}, found {:?}",
                String::from_utf8_lossy(tag),
                String::from_utf8_lossy(&found_tag)
            ),
        ));
    }
    let len = r.u64("section length")?;
    let len_usize =
        usize::try_from(len).map_err(|_| malformed(name, format!("section length {len}")))?;
    if len > r.remaining() {
        return Err(TraceFileError::Truncated { what: name });
    }
    let mut h = Fold64::new();
    h.update(tag);
    h.update(&len.to_le_bytes());
    Ok((len_usize, h))
}

/// Reads a section's stored checksum and compares it with `h`.
fn section_end<R: Read>(
    r: &mut Reader<R>,
    h: Fold64,
    name: &'static str,
) -> Result<(), TraceFileError> {
    if r.u64("section checksum")? != h.finish() {
        return Err(TraceFileError::ChecksumMismatch { section: name });
    }
    Ok(())
}

/// Reads one whole section's payload, verifying tag and checksum.
pub(crate) fn section<R: Read>(
    r: &mut Reader<R>,
    tag: &'static [u8; 4],
    name: &'static str,
) -> Result<Vec<u8>, TraceFileError> {
    let (len, mut h) = section_header(r, tag, name)?;
    let payload = r.bytes(len, name)?;
    h.update(&payload);
    section_end(r, h, name)?;
    Ok(payload)
}

fn decode_meta(payload: &[u8]) -> Result<(String, String, u64), TraceFileError> {
    let mut c = Reader::slice(payload);
    let name = decode_str(&mut c, "meta", "benchmark name")?;
    let analog = decode_str(&mut c, "meta", "analog name")?;
    let icount = c.u64("icount")?;
    if c.remaining() != 0 {
        return Err(malformed("meta", format!("{} excess bytes", c.remaining())));
    }
    Ok((name, analog, icount))
}

/// Range-checks one 8-byte record, naming the first field out of range.
/// [`TraceRecord::from_bytes`] makes the same checks without saying which
/// failed; this slow path runs only on a chunk that holds a bad record.
fn check_record(b: &[u8]) -> Result<(), TraceFileError> {
    let [branch_bits, branch_count, len, flags] = [b[4], b[5], b[6], b[7]];
    if branch_count as usize > MAX_TRACE_BRANCHES {
        return Err(malformed("records", format!("branch_count {branch_count}")));
    }
    if branch_bits & !(((1u16 << branch_count) - 1) as u8) != 0 {
        return Err(malformed(
            "records",
            format!("branch bits {branch_bits:#b} exceed count {branch_count}"),
        ));
    }
    if !(1..=MAX_TRACE_LEN as u8).contains(&len) {
        return Err(malformed("records", format!("trace length {len}")));
    }
    if flags & 0b1110_0000 != 0 {
        return Err(malformed("records", format!("flag bits {flags:#010b}")));
    }
    Ok(())
}

/// The `RECS` payload length `count` records need, or why it cannot be.
fn records_len(count: u64) -> Result<usize, TraceFileError> {
    usize::try_from(count)
        .ok()
        .and_then(|n| n.checked_mul(8))
        .and_then(|b| b.checked_add(8))
        .ok_or(malformed("records", "count overflow"))
}

/// Streams the `RECS` section straight into an exact-capacity record
/// vector, one [`CHUNK_BYTES`] chunk at a time, hashing each chunk just
/// before decoding it. Each chunk is decoded and range-checked in one
/// branch-free pass ([`TraceRecord::from_bytes`]); only a chunk holding a
/// bad record goes through [`check_record`] again, for the message. A
/// value-range error found on the way is held back until the checksum has
/// been verified, so a corrupt section reports a checksum mismatch, never
/// a range error.
fn read_records<R: Read>(r: &mut Reader<R>) -> Result<Vec<TraceRecord>, TraceFileError> {
    let (len, mut h) = section_header(r, b"RECS", "records")?;
    let mut rest = len;
    let mut held = None;
    let mut records = Vec::new();
    // Stands in for a bad record until the chunk's error is held.
    let filler = TraceRecord::new(TraceId::new(0, 0, 0), 1, 0, false, false);
    if len < 8 {
        held = Some(TraceFileError::Truncated {
            what: "record count",
        });
    } else {
        let count_bytes = r.array::<8>("records")?;
        h.update(&count_bytes);
        rest -= 8;
        let count = u64::from_le_bytes(count_bytes);
        match records_len(count) {
            Ok(expect) if expect == len => records = Vec::with_capacity(rest / 8),
            Ok(expect) => {
                held = Some(malformed(
                    "records",
                    format!("payload is {len}B, count {count} needs {expect}B"),
                ))
            }
            Err(e) => held = Some(e),
        }
    }
    let mut chunk = vec![0u8; CHUNK_BYTES.min(rest)];
    while rest > 0 {
        let part = &mut chunk[..CHUNK_BYTES.min(rest)];
        r.fill(part, "records")?;
        h.update(part);
        if held.is_none() {
            let mut valid = true;
            records.extend(part.chunks_exact(8).map(|b| {
                let rec = TraceRecord::from_bytes(b.try_into().expect("8-byte record"));
                valid &= rec.is_some();
                rec.unwrap_or(filler)
            }));
            if !valid {
                held = part.chunks_exact(8).find_map(|b| check_record(b).err());
            }
        }
        rest -= part.len();
    }
    section_end(r, h, "records")?;
    held.map_or(Ok(records), Err)
}

fn decode_trace_stats(payload: &[u8]) -> Result<TraceStatsRaw, TraceFileError> {
    let mut c = Reader::slice(payload);
    let traces = c.u64("trace_stats.traces")?;
    let instrs = c.u64("trace_stats.instrs")?;
    let cond_branches = c.u64("trace_stats.cond_branches")?;
    let calls = c.u64("trace_stats.calls")?;
    let returns = c.u64("trace_stats.returns")?;
    let indirect = c.u64("trace_stats.indirect")?;
    let n = c.u64("trace_stats.static count")?;
    let n = usize::try_from(n).map_err(|_| malformed("trace_stats", "static count overflow"))?;
    let need = array_len(n, 8, "trace_stats", "static id")?;
    if c.remaining() != need as u64 {
        return Err(malformed(
            "trace_stats",
            format!("static set needs {need}B, {}B remain", c.remaining()),
        ));
    }
    let mut static_ids = Vec::with_capacity(n);
    for _ in 0..n {
        static_ids.push(c.u64("trace_stats.static id")?);
    }
    if !static_ids.windows(2).all(|w| w[0] < w[1]) {
        return Err(malformed("trace_stats", "static ids not strictly sorted"));
    }
    Ok(TraceStatsRaw {
        traces,
        instrs,
        cond_branches,
        calls,
        returns,
        indirect,
        static_ids,
    })
}

fn decode_redundancy(payload: &[u8]) -> Result<RedundancyRaw, TraceFileError> {
    let mut c = Reader::slice(payload);
    let stored_instrs = c.u64("redundancy.stored_instrs")?;
    let n_seen = c.u64("redundancy.seen count")?;
    let n_seen =
        usize::try_from(n_seen).map_err(|_| malformed("redundancy", "seen count overflow"))?;
    let mut seen_traces = Vec::with_capacity(n_seen.min(c.remaining() as usize / 8));
    for _ in 0..n_seen {
        seen_traces.push(c.u64("redundancy.seen id")?);
    }
    if !seen_traces.windows(2).all(|w| w[0] < w[1]) {
        return Err(malformed("redundancy", "seen ids not strictly sorted"));
    }
    let n_copies = c.u64("redundancy.copy count")?;
    let n_copies =
        usize::try_from(n_copies).map_err(|_| malformed("redundancy", "copy count overflow"))?;
    let need = array_len(n_copies, 8, "redundancy", "copy")?;
    if c.remaining() != need as u64 {
        return Err(malformed(
            "redundancy",
            format!("copy map needs {need}B, {}B remain", c.remaining()),
        ));
    }
    let mut copies = Vec::with_capacity(n_copies);
    for _ in 0..n_copies {
        let pc = c.u32("redundancy.copy pc")?;
        let n = c.u32("redundancy.copy n")?;
        copies.push((pc, n));
    }
    if !copies.windows(2).all(|w| w[0].0 < w[1].0) {
        return Err(malformed("redundancy", "copy map not strictly sorted"));
    }
    Ok(RedundancyRaw {
        seen_traces,
        copies,
        stored_instrs,
    })
}

fn decode_u64s<const N: usize>(
    payload: &[u8],
    section_name: &'static str,
) -> Result<[u64; N], TraceFileError> {
    if payload.len() != N * 8 {
        return Err(malformed(
            section_name,
            format!("expected {}B, found {}B", N * 8, payload.len()),
        ));
    }
    let mut c = Reader::slice(payload);
    let mut out = [0u64; N];
    for v in &mut out {
        *v = c.u64(section_name)?;
    }
    Ok(out)
}

/// Decodes one `.ntc` image from `r`, validating it against the expected
/// fingerprint. Only the record stream is held in full; every other
/// section is small.
fn decode_from<R: Read>(
    mut r: Reader<R>,
    expected: &Fingerprint,
) -> Result<CaptureArtifact, TraceFileError> {
    let c = &mut r;
    // Header.
    if c.array::<4>("magic")? != MAGIC {
        return Err(TraceFileError::BadMagic);
    }
    let version = c.u32("format version")?;
    if version != FORMAT_VERSION {
        return Err(TraceFileError::BadVersion { found: version });
    }
    let stored_hash = c.u64("fingerprint hash")?;
    let canon = decode_str(c, "header", "fingerprint string")?;
    if fnv64(canon.as_bytes()) != stored_hash {
        return Err(TraceFileError::CorruptHeader);
    }
    if canon != expected.canon() {
        return Err(TraceFileError::FingerprintMismatch {
            expected: expected.canon().to_string(),
            found: canon,
        });
    }
    // Sections, fixed order.
    let meta = section(c, SECTIONS[0].0, SECTIONS[0].1)?;
    let (name, analog_of, icount) = decode_meta(&meta)?;
    let records = read_records(c)?;
    let trace_stats = decode_trace_stats(&section(c, SECTIONS[2].0, SECTIONS[2].1)?)?;
    let redundancy = decode_redundancy(&section(c, SECTIONS[3].0, SECTIONS[3].1)?)?;
    let [traces, trace_mispredicts, branches, branch_mispredicts, indirects, indirect_mispredicts, returns, return_mispredicts] =
        decode_u64s::<8>(&section(c, SECTIONS[4].0, SECTIONS[4].1)?, "sequential")?;
    let seq_stats = SequentialStats {
        traces,
        trace_mispredicts,
        branches,
        branch_mispredicts,
        indirects,
        indirect_mispredicts,
        returns,
        return_mispredicts,
    };
    let mb = decode_u64s::<4>(&section(c, SECTIONS[5].0, SECTIONS[5].1)?, "multibranch")?;
    let mb_stats = MultiBranchStats {
        traces: mb[0],
        trace_mispredicts: mb[1],
        branches: mb[2],
        branch_mispredicts: mb[3],
    };
    let gag = decode_u64s::<4>(&section(c, SECTIONS[6].0, SECTIONS[6].1)?, "gag")?;
    let gag_stats = MultiBranchStats {
        traces: gag[0],
        trace_mispredicts: gag[1],
        branches: gag[2],
        branch_mispredicts: gag[3],
    };
    let [instrs, cond_branches, taken_branches, jumps, calls, indirect_jumps, indirect_calls, mix_returns] =
        decode_u64s::<8>(&section(c, SECTIONS[7].0, SECTIONS[7].1)?, "mix")?;
    let mix = ControlMix {
        instrs,
        cond_branches,
        taken_branches,
        jumps,
        calls,
        indirect_jumps,
        indirect_calls,
        returns: mix_returns,
    };
    c.finish()?;
    Ok(CaptureArtifact {
        name,
        analog_of,
        icount,
        records,
        trace_stats,
        redundancy,
        seq_stats,
        mb_stats,
        gag_stats,
        mix,
    })
}

/// Decodes a complete in-memory `.ntc` image, validating it against the
/// expected fingerprint.
///
/// # Errors
///
/// Any header, fingerprint, checksum, length, or value-range mismatch
/// (see [`TraceFileError`]). On error nothing is returned — partial
/// loads are impossible by construction.
pub fn decode(bytes: &[u8], expected: &Fingerprint) -> Result<CaptureArtifact, TraceFileError> {
    decode_from(Reader::slice(bytes), expected)
}

/// Reads and validates one `.ntc` file, returning the artifact and the
/// file size in bytes. The file is streamed through the same decoder as
/// [`decode`]; the only full-size allocation is the record vector.
///
/// # Errors
///
/// I/o failures plus every validation error of [`decode`].
pub fn read_file(
    path: &Path,
    expected: &Fingerprint,
) -> Result<(CaptureArtifact, u64), TraceFileError> {
    let file = std::fs::File::open(path)?;
    let len = file.metadata()?.len();
    let artifact = decode_from(Reader::new(BufReader::new(file), len), expected)?;
    Ok((artifact, len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntp_trace::TraceConfig;

    fn fp() -> Fingerprint {
        Fingerprint::new("demo", "demo", 1000, &TraceConfig::default(), b"image")
    }

    fn sample() -> CaptureArtifact {
        CaptureArtifact {
            name: "demo".into(),
            analog_of: "demo".into(),
            icount: 1234,
            records: vec![
                TraceRecord::new(TraceId::new(0x40_0000, 0b101, 3), 16, 2, false, false),
                TraceRecord::new(TraceId::new(0x40_0040, 0, 0), 3, 0, true, true),
            ],
            trace_stats: TraceStatsRaw {
                traces: 2,
                instrs: 19,
                cond_branches: 3,
                calls: 2,
                returns: 1,
                indirect: 1,
                static_ids: vec![7, 9],
            },
            redundancy: RedundancyRaw {
                seen_traces: vec![7, 9],
                copies: vec![(0x40_0000, 1), (0x40_0004, 2)],
                stored_instrs: 19,
            },
            seq_stats: SequentialStats {
                traces: 2,
                trace_mispredicts: 1,
                branches: 3,
                branch_mispredicts: 1,
                indirects: 1,
                indirect_mispredicts: 0,
                returns: 1,
                return_mispredicts: 0,
            },
            mb_stats: MultiBranchStats {
                traces: 2,
                trace_mispredicts: 2,
                branches: 3,
                branch_mispredicts: 2,
            },
            gag_stats: MultiBranchStats {
                traces: 2,
                trace_mispredicts: 1,
                branches: 3,
                branch_mispredicts: 1,
            },
            mix: ControlMix {
                instrs: 1234,
                cond_branches: 3,
                taken_branches: 2,
                jumps: 1,
                calls: 2,
                indirect_jumps: 1,
                indirect_calls: 0,
                returns: 1,
            },
        }
    }

    /// `bytes` with section `tag`'s payload replaced and its checksum
    /// recomputed, so only the decoder's value checks can refuse it.
    fn with_section(bytes: &[u8], tag: &[u8; 4], payload: &[u8]) -> Vec<u8> {
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let header_len = 20 + u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
        let mut w = SectionWriter::new(Vec::new());
        w.raw(&bytes[..header_len]).unwrap();
        let mut pos = header_len;
        while pos < bytes.len() {
            let found: [u8; 4] = bytes[pos..pos + 4].try_into().unwrap();
            let len = u64_at(pos + 4) as usize;
            let body = &bytes[pos + 12..pos + 12 + len];
            w.section(&found, if &found == tag { payload } else { body })
                .unwrap();
            pos += 12 + len + 8;
        }
        w.sink
    }

    #[test]
    fn crafted_static_count_is_malformed_not_a_panic() {
        let mut payload = vec![0u8; 6 * 8];
        put_u64(&mut payload, 1 << 61);
        let bytes = with_section(&encode(&fp(), &sample()), b"TSTA", &payload);
        let err = decode(&bytes, &fp()).unwrap_err();
        assert!(
            matches!(
                err,
                TraceFileError::Malformed {
                    section: "trace_stats",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn crafted_copy_count_is_malformed_not_a_panic() {
        let mut payload = Vec::new();
        put_u64(&mut payload, 0); // stored_instrs
        put_u64(&mut payload, 0); // seen count
        put_u64(&mut payload, 1 << 61); // copy count
        let bytes = with_section(&encode(&fp(), &sample()), b"REDN", &payload);
        let err = decode(&bytes, &fp()).unwrap_err();
        assert!(
            matches!(
                err,
                TraceFileError::Malformed {
                    section: "redundancy",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn record_range_errors_surface_only_behind_a_valid_checksum() {
        let a = sample();
        let bytes = encode(&fp(), &a);
        // A record with trace length 0, checksummed: a value-range error.
        let mut payload = Vec::new();
        put_u64(&mut payload, 1);
        payload.extend_from_slice(&[0, 0, 0x40, 0, 0, 0, 0, 0]);
        let crafted = with_section(&bytes, b"RECS", &payload);
        assert!(matches!(
            decode(&crafted, &fp()),
            Err(TraceFileError::Malformed {
                section: "records",
                ..
            })
        ));
        // The same bytes with a stale checksum: the checksum error wins.
        let mut stale = crafted.clone();
        let recs = crafted.windows(4).position(|w| w == b"RECS").unwrap();
        stale[recs + 12 + payload.len()] ^= 1;
        assert!(matches!(
            decode(&stale, &fp()),
            Err(TraceFileError::ChecksumMismatch { section: "records" })
        ));
    }

    #[test]
    fn fast_and_slow_record_checks_agree() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..200_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let mut b = x.to_le_bytes();
            // Pull half the samples near the valid ranges so both verdicts occur.
            if i % 2 == 0 {
                b[4] &= 0x7F;
                b[5] %= 8;
                b[6] %= 18;
                b[7] &= 0x3F;
            }
            let fast = TraceRecord::from_bytes(b);
            assert_eq!(fast.is_some(), check_record(&b).is_ok(), "{b:?}");
            if let Some(r) = fast {
                assert_eq!(r.to_bytes(), b, "valid records round-trip");
            }
        }
    }

    #[test]
    fn round_trips_exactly() {
        let a = sample();
        let bytes = encode(&fp(), &a);
        let back = decode(&bytes, &fp()).expect("valid image decodes");
        assert_eq!(back, a);
    }

    #[test]
    fn rejects_version_skew() {
        let mut bytes = encode(&fp(), &sample());
        bytes[4] ^= 1; // format version lives at offset 4.
        assert!(matches!(
            decode(&bytes, &fp()),
            Err(TraceFileError::BadVersion { .. })
        ));
    }

    #[test]
    fn rejects_fingerprint_skew() {
        let bytes = encode(&fp(), &sample());
        let other = Fingerprint::new("demo", "demo", 2000, &TraceConfig::default(), b"image");
        assert!(matches!(
            decode(&bytes, &other),
            Err(TraceFileError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn rejects_bad_magic_and_trailing_bytes() {
        let mut bytes = encode(&fp(), &sample());
        let mut flipped = bytes.clone();
        flipped[0] ^= 0xFF;
        assert!(matches!(
            decode(&flipped, &fp()),
            Err(TraceFileError::BadMagic)
        ));
        bytes.push(0);
        assert!(matches!(
            decode(&bytes, &fp()),
            Err(TraceFileError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn file_round_trip_is_atomic_and_validating() {
        let dir = std::env::temp_dir().join(format!("ntc-fmt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(fp().file_name());
        let written = write_file(&path, &fp(), &sample()).expect("write succeeds");
        let (back, read) = read_file(&path, &fp()).expect("read succeeds");
        assert_eq!(written, read);
        assert_eq!(back, sample());
        // No temporary litter.
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path() != path)
            .collect();
        assert!(stray.is_empty(), "{stray:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
