//! # ntp-hash — shared hashing primitives
//!
//! Three hashes, each with one job:
//!
//! * [`Fnv64`] / [`fnv64`] — FNV-1a 64, byte-serial and stable across
//!   platforms. It names things: the `.ntc` cache-key fingerprint and file
//!   name, the `.nts` fingerprint, the cluster ring, schedule digests, and
//!   the `ntp-serve` wire-frame checksum (a protocol constant — frames are
//!   small, so its speed does not matter there).
//! * [`Fold64`] / [`fold64`] — a word-at-a-time streaming checksum, stable
//!   across platforms, for the section checksums of both on-disk formats
//!   (`.ntc` sections, `.nts` `SESS` sections and the session-wire
//!   payload). It reads eight bytes per step in four independent lanes, so
//!   it runs several times faster than byte-serial FNV on the multi-MB
//!   record stream, and every change confined to one 8-byte word is
//!   detected with certainty.
//! * [`FxHasher64`] / [`FxBuild`] — an in-memory `HashMap` hasher; never
//!   persisted.
//!
//! Persistent formats and wire protocols depend on the first two staying
//! bit-stable, so the implementations live in exactly one crate and
//! everything else re-exports them.

#![warn(missing_docs)]

/// FNV-1a offset basis.
const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a prime.
const PRIME: u64 = 0x0000_0100_0000_01B3;

/// A streaming FNV-1a 64-bit hasher.
///
/// # Examples
///
/// ```
/// use ntp_hash::Fnv64;
/// let mut h = Fnv64::new();
/// h.update(b"hello");
/// let split = {
///     let mut h = Fnv64::new();
///     h.update(b"he");
///     h.update(b"llo");
///     h.finish()
/// };
/// assert_eq!(h.finish(), split, "streaming splits do not change the hash");
/// ```
#[derive(Copy, Clone, Debug)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Fnv64 {
        Fnv64 { state: OFFSET }
    }

    /// Folds `bytes` into the running hash.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut s = self.state;
        for &b in bytes {
            s ^= b as u64;
            s = s.wrapping_mul(PRIME);
        }
        self.state = s;
    }

    /// The hash of everything folded in so far (the hasher keeps running).
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// One-shot FNV-1a 64 of a byte slice.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

/// Starting states of the four [`Fold64`] lanes (the first hex digits of
/// π). They differ, so the lanes are not interchangeable.
const FOLD_INIT: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];
/// Odd multiplier of the [`Fold64`] word step (2^64 / φ).
const FOLD_K: u64 = 0x9E37_79B9_7F4A_7C15;

/// One word step: rotate, xor the word in, multiply by an odd constant.
/// For a fixed state it is a bijection of the word, and for a fixed word a
/// bijection of the state.
#[inline(always)]
fn fold_step(state: u64, word: u64) -> u64 {
    (state.rotate_left(27) ^ word).wrapping_mul(FOLD_K)
}

#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8-byte word"))
}

/// A streaming word-at-a-time checksum: the section checksum of the
/// `.ntc` and `.nts` formats.
///
/// The input is read as little-endian u64 words; word `i` is folded into
/// lane `i % 4` by [`fold_step`], so four independent multiply chains run
/// side by side. A final partial word is zero-padded, and [`Fold64::finish`]
/// folds the total byte length and then the four lanes into one value.
/// Every step is a bijection of the running state, so two inputs of equal
/// length that differ only inside one aligned 8-byte word — in particular
/// any single-bit flip — always get different checksums, just as FNV-1a
/// always separates inputs that differ in one byte. The hasher carries a
/// partial word between [`Fold64::update`] calls, so any split of the input
/// gives the same value.
///
/// It is a checksum against accidental corruption, not a MAC, and not a
/// map hasher.
///
/// # Examples
///
/// ```
/// use ntp_hash::{fold64, Fold64};
/// let mut h = Fold64::new();
/// h.update(b"RECS");
/// h.update(b" and a payload");
/// assert_eq!(h.finish(), fold64(b"RECS and a payload"), "splits do not matter");
/// assert_ne!(fold64(b"a"), fold64(b"a\0"), "the length is folded in");
/// ```
#[derive(Copy, Clone, Debug)]
pub struct Fold64 {
    lanes: [u64; 4],
    /// Full words folded so far; the next word goes to lane `words % 4`.
    words: u64,
    /// Bytes of the next, still partial word.
    tail: [u8; 8],
    tail_len: usize,
}

impl Default for Fold64 {
    fn default() -> Fold64 {
        Fold64::new()
    }
}

impl Fold64 {
    /// A fresh checksum over no bytes.
    pub fn new() -> Fold64 {
        Fold64 {
            lanes: FOLD_INIT,
            words: 0,
            tail: [0; 8],
            tail_len: 0,
        }
    }

    #[inline(always)]
    fn word(&mut self, w: u64) {
        let lane = &mut self.lanes[(self.words % 4) as usize];
        *lane = fold_step(*lane, w);
        self.words += 1;
    }

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, mut bytes: &[u8]) {
        if self.tail_len > 0 {
            let take = (8 - self.tail_len).min(bytes.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < 8 {
                return;
            }
            self.tail_len = 0;
            self.word(u64::from_le_bytes(self.tail));
        }
        // Bring lane 0 round, so the bulk loop can take four words a step.
        while !self.words.is_multiple_of(4) && bytes.len() >= 8 {
            self.word(le_word(bytes));
            bytes = &bytes[8..];
        }
        let mut blocks = bytes.chunks_exact(32);
        let [mut a, mut b, mut c, mut d] = self.lanes;
        for block in &mut blocks {
            a = fold_step(a, le_word(&block[0..]));
            b = fold_step(b, le_word(&block[8..]));
            c = fold_step(c, le_word(&block[16..]));
            d = fold_step(d, le_word(&block[24..]));
        }
        self.lanes = [a, b, c, d];
        self.words += (bytes.len() / 32 * 4) as u64;
        bytes = blocks.remainder();
        while bytes.len() >= 8 {
            self.word(le_word(bytes));
            bytes = &bytes[8..];
        }
        self.tail[..bytes.len()].copy_from_slice(bytes);
        self.tail_len = bytes.len();
    }

    /// The checksum of everything folded in so far (the hasher keeps
    /// running).
    pub fn finish(&self) -> u64 {
        let mut lanes = self.lanes;
        if self.tail_len > 0 {
            let mut last = [0u8; 8];
            last[..self.tail_len].copy_from_slice(&self.tail[..self.tail_len]);
            let lane = &mut lanes[(self.words % 4) as usize];
            *lane = fold_step(*lane, u64::from_le_bytes(last));
        }
        let len = self
            .words
            .wrapping_mul(8)
            .wrapping_add(self.tail_len as u64);
        let mut h = fold_step(FOLD_INIT[0], len);
        for lane in lanes {
            h = fold_step(h, lane);
        }
        // Final avalanche (murmur3's fmix64, itself a bijection).
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }
}

/// One-shot [`Fold64`] of a byte slice.
pub fn fold64(bytes: &[u8]) -> u64 {
    let mut h = Fold64::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod fold_tests {
    use super::*;

    /// The checksum written out plainly: pad, split into words, deal them
    /// round the lanes, fold the length and the lanes.
    fn reference(bytes: &[u8]) -> u64 {
        let mut lanes = FOLD_INIT;
        for (i, w) in bytes.chunks(8).enumerate() {
            let mut word = [0u8; 8];
            word[..w.len()].copy_from_slice(w);
            lanes[i % 4] = fold_step(lanes[i % 4], u64::from_le_bytes(word));
        }
        let mut h = fold_step(FOLD_INIT[0], bytes.len() as u64);
        for lane in lanes {
            h = fold_step(h, lane);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }

    /// A deterministic xorshift64 byte source.
    fn random_bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    fn streamed(bytes: &[u8], cuts: &[usize]) -> u64 {
        let mut h = Fold64::new();
        let mut at = 0;
        for &cut in cuts {
            h.update(&bytes[at..cut]);
            at = cut;
        }
        h.update(&bytes[at..]);
        h.finish()
    }

    #[test]
    fn known_vectors() {
        let counting: Vec<u8> = (0..=255).collect();
        let inputs: [&[u8]; 6] = [b"", b"a", b"foobar", b"12345678", &counting, &[0; 1000]];
        for (input, want) in inputs.into_iter().zip(KAT) {
            assert_eq!(fold64(input), want, "{} bytes", input.len());
            assert_eq!(reference(input), want, "the reference agrees");
        }
    }

    const KAT: [u64; 6] = [
        0x4664_dda9_fe22_0374,
        0x2da1_e813_0312_a93c,
        0xa5c0_bacc_a8d6_a852,
        0xf71b_3b90_c2cc_a420,
        0xaa47_fbfe_011c_9c29,
        0xf5d8_17e3_5b58_53fb,
    ];

    #[test]
    fn matches_the_reference_at_every_length() {
        for len in 0..=300 {
            let bytes = random_bytes(0xF01D + len as u64, len);
            assert_eq!(fold64(&bytes), reference(&bytes), "length {len}");
        }
    }

    #[test]
    fn every_split_gives_the_same_value() {
        for seed in 1..=4u64 {
            let bytes = random_bytes(seed, 100);
            let whole = fold64(&bytes);
            for i in 0..=bytes.len() {
                assert_eq!(streamed(&bytes, &[i]), whole, "seed {seed} split {i}");
                for j in i..=bytes.len() {
                    assert_eq!(streamed(&bytes, &[i, j]), whole, "seed {seed} {i}/{j}");
                }
            }
        }
    }

    #[test]
    fn section_prefix_and_chunk_pattern_gives_the_same_value() {
        // `RECS`: a 12-byte tag‖len prefix, the 8-byte count, then 64 KiB
        // chunks and a partial last chunk.
        const CHUNK: usize = 64 * 1024;
        let bytes = random_bytes(0x5EC5, 12 + 8 + 3 * CHUNK + 4_100);
        let mut cuts = vec![12, 20];
        cuts.extend((1..=3).map(|k| 20 + k * CHUNK));
        assert_eq!(streamed(&bytes, &cuts), fold64(&bytes));
        assert_eq!(fold64(&bytes), reference(&bytes));
        // Byte by byte, too.
        let mut h = Fold64::new();
        for b in &bytes[..1_000] {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finish(), fold64(&bytes[..1_000]));
    }

    #[test]
    fn every_single_bit_flip_changes_the_value() {
        for len in 0..=100 {
            let mut bytes = random_bytes(0xB17 + len as u64, len);
            let clean = fold64(&bytes);
            for i in 0..len {
                for bit in 0..8 {
                    bytes[i] ^= 1 << bit;
                    assert_ne!(fold64(&bytes), clean, "len {len} byte {i} bit {bit}");
                    bytes[i] ^= 1 << bit;
                }
            }
        }
    }

    #[test]
    fn length_and_word_order_matter() {
        assert_ne!(fold64(b"a"), fold64(b"a\0"));
        assert_ne!(fold64(b""), fold64(&[0; 8]));
        assert_ne!(fold64(b"AAAAAAAABBBBBBBB"), fold64(b"BBBBBBBBAAAAAAAA"));
        let mut eight = [0u8; 40];
        eight[32] = 1;
        let mut first = [0u8; 40];
        first[0] = 1;
        assert_ne!(fold64(&eight), fold64(&first), "words 0 and 4 share a lane");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv64(b"foobar"), 0x85944171F73967E8);
    }

    #[test]
    fn one_bit_changes_hash() {
        let a = fnv64(b"NTPC cache payload");
        let b = fnv64(b"NTPC cache paylaod");
        assert_ne!(a, b);
    }

    #[test]
    fn streaming_is_byte_order_sensitive() {
        assert_ne!(fnv64(b"ab"), fnv64(b"ba"));
    }
}

/// A fast word-wise hasher for **in-memory** hash maps.
///
/// This is a Fibonacci-style multiplicative hasher over 8-byte words
/// (the design popularised by rustc's FxHash): one rotate, one XOR and one
/// multiply per word, an order of magnitude cheaper than the standard
/// library's SipHash for short fixed-shape keys. It makes no DoS-resistance
/// or cross-version-stability promises — never persist its output or put it
/// on a wire; [`Fnv64`] is the stable hash for formats and checksums.
///
/// # Examples
///
/// ```
/// use std::collections::HashMap;
/// use ntp_hash::FxBuild;
/// let mut m: HashMap<u64, &str, FxBuild> = HashMap::default();
/// m.insert(7, "seven");
/// assert_eq!(m.get(&7), Some(&"seven"));
/// ```
#[derive(Copy, Clone, Debug, Default)]
pub struct FxHasher64 {
    state: u64,
}

/// `BuildHasher` for [`FxHasher64`], usable as a `HashMap`'s third type
/// parameter.
pub type FxBuild = std::hash::BuildHasherDefault<FxHasher64>;

impl FxHasher64 {
    /// 2^64 / φ, the usual Fibonacci-hashing multiplier.
    const K: u64 = 0x9E37_79B9_7F4A_7C15;

    #[inline]
    fn word(&mut self, w: u64) {
        self.state = (self.state.rotate_left(5) ^ w).wrapping_mul(Self::K);
    }
}

impl std::hash::Hasher for FxHasher64 {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.word(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.word(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.word(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.word(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.word(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.word(v as u64);
    }
}

#[cfg(test)]
mod fx_tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuild::default().hash_one(v)
    }

    #[test]
    fn equal_keys_hash_equal_and_spread() {
        #[derive(Hash)]
        struct Key {
            ids: [u64; 8],
            len: u8,
        }
        let a = Key {
            ids: [1, 2, 3, 0, 0, 0, 0, 0],
            len: 3,
        };
        let b = Key {
            ids: [1, 2, 3, 0, 0, 0, 0, 0],
            len: 3,
        };
        let c = Key {
            ids: [1, 2, 4, 0, 0, 0, 0, 0],
            len: 3,
        };
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_ne!(hash_of(&a), hash_of(&c));

        // Nearby u64 keys should not collide en masse.
        let mut seen = std::collections::HashSet::new();
        for k in 0u64..4096 {
            seen.insert(hash_of(&k) >> 52); // top 12 bits drive bucket choice
        }
        assert!(seen.len() > 1024, "only {} distinct top-12s", seen.len());
    }

    #[test]
    fn write_handles_unaligned_tails() {
        use std::hash::Hasher;
        let mut a = FxHasher64::default();
        a.write(b"abcdefghi"); // 8-byte chunk + 1-byte tail
        let mut b = FxHasher64::default();
        b.write(b"abcdefghj");
        assert_ne!(a.finish(), b.finish());
    }
}
