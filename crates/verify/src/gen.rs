//! Deterministic generators for adversarial trace streams and randomized
//! predictor configurations.
//!
//! Two families of generated points:
//!
//! * **generic points** — arbitrary (but legal) streams and paper design
//!   points, used by the evaluate-equivalence and runner-determinism
//!   oracles;
//! * **alias-free points** — carefully constructed `(PredictorConfig,
//!   UnboundedConfig, alphabet)` triples for which the bounded predictor
//!   provably cannot alias, so it must agree with the unbounded model on
//!   *every single prediction* (see [`AliasFreePoint`] for the argument).

use crate::rng::XorShift64;
use ntp_core::{CounterSpec, Dolc, PredictorConfig, StoredTarget, UnboundedConfig};
use ntp_trace::{TraceId, TraceRecord, MAX_TRACE_LEN};

/// Paper design points with a standard DOLC tuple (`Dolc::try_standard`
/// succeeds for every pair here).
pub const PAPER_INDEX_BITS: [u32; 3] = [12, 15, 18];

/// History depths the paper studies (and [`UnboundedConfig`] accepts).
pub const PAPER_DEPTHS: [usize; 8] = [0, 1, 2, 3, 4, 5, 6, 7];

/// A random word-aligned PC in a plausible text segment.
fn random_pc(rng: &mut XorShift64) -> u32 {
    0x0040_0000u32 | ((rng.next_u32() & 0x000F_FFFF) & !3)
}

/// A random trace identifier: word-aligned PC, 0–6 branches, random
/// outcomes.
pub fn random_id(rng: &mut XorShift64) -> TraceId {
    let count = rng.below(7) as u8;
    TraceId::new(random_pc(rng), rng.next_u32() as u8, count)
}

/// A generic adversarial stream: a random walk over a small alphabet of
/// random traces (so the predictors have *something* to learn), with random
/// lengths, occasional high-entropy excursions, calls and returns.
pub fn random_stream(rng: &mut XorShift64, len: usize) -> Vec<TraceRecord> {
    let alphabet: Vec<TraceRecord> = (0..rng.range(3, 24))
        .map(|_| {
            let id = random_id(rng);
            let calls = rng.below(3) as u8;
            let ret = rng.chance(1, 5);
            TraceRecord::new(
                id,
                rng.range(1, MAX_TRACE_LEN as u64) as u8,
                calls,
                ret,
                ret,
            )
        })
        .collect();
    (0..len)
        .map(|_| {
            if rng.chance(1, 10) {
                // Excursion: a fresh trace the tables have never seen.
                let id = random_id(rng);
                TraceRecord::new(
                    id,
                    rng.range(1, MAX_TRACE_LEN as u64) as u8,
                    0,
                    false,
                    false,
                )
            } else {
                alphabet[rng.below(alphabet.len() as u64) as usize]
            }
        })
        .collect()
}

/// A random valid paper design point `(index_bits, depth)`.
pub fn paper_point(rng: &mut XorShift64) -> (u32, usize) {
    (
        PAPER_INDEX_BITS[rng.below(PAPER_INDEX_BITS.len() as u64) as usize],
        PAPER_DEPTHS[rng.below(PAPER_DEPTHS.len() as u64) as usize],
    )
}

/// A random well-formed counter policy, shared by both predictors of a
/// differential pair so their training stays in lockstep.
fn random_counter(rng: &mut XorShift64) -> CounterSpec {
    CounterSpec {
        bits: rng.range(2, 4) as u8,
        inc: rng.range(1, 2) as u8,
        dec: rng.range(1, 8) as u8,
    }
}

/// A bounded/unbounded configuration pair plus a trace alphabet on which
/// the bounded predictor provably cannot alias.
///
/// Construction (the "no aliasing by construction" argument):
///
/// * every alphabet identifier has a **distinct, nonzero** value in the low
///   `code_bits` bits of its hashed form;
/// * the DOLC takes exactly `code_bits` from every history slot and gathers
///   at most `index_bits = 16` total, so **no XOR folding** occurs: the
///   correlating index is the plain concatenation of the per-slot codes.
///   Distinct codes ⇒ distinct paths get distinct indexes; nonzero codes ⇒
///   a missing (cold-start) slot's zero contribution cannot collide with a
///   real identifier;
/// * `secondary_index_bits = 16` indexes the secondary table by the *whole*
///   hashed identifier, which is injective over the alphabet;
/// * the tag is the full 16-bit hashed identifier, so a tag can never
///   falsely match across paths (and since indexes are already injective it
///   never needs to).
///
/// Under these conditions every bounded table entry corresponds 1:1 to an
/// unbounded map entry, and with identical counter policies, identical
/// fresh-install semantics and the RHS disabled on both sides, the two
/// predictors must emit byte-identical [`ntp_core::Prediction`]s forever.
pub struct AliasFreePoint {
    /// Bounded predictor configuration (16-bit index, no folding).
    pub cfg: PredictorConfig,
    /// The matching unbounded configuration.
    pub ucfg: UnboundedConfig,
    /// The closed trace alphabet streams must draw from.
    pub alphabet: Vec<TraceRecord>,
    /// Low-hash bits used as the per-slot code.
    pub code_bits: u32,
}

/// Depth/code-width pairs with `code_bits * (depth + 1) <= 16` (no folding
/// at a 16-bit index).
const ALIAS_FREE_SHAPES: [(usize, u32); 6] = [(0, 8), (1, 8), (2, 5), (3, 4), (5, 2), (7, 2)];

/// Generates an [`AliasFreePoint`] (see the type docs for why the pair must
/// agree on it).
pub fn alias_free_point(rng: &mut XorShift64) -> AliasFreePoint {
    let (depth, code_bits) = ALIAS_FREE_SHAPES[rng.below(ALIAS_FREE_SHAPES.len() as u64) as usize];
    let dolc = Dolc {
        depth,
        older: if depth >= 2 { code_bits } else { 0 },
        last: if depth >= 1 { code_bits } else { 0 },
        current: code_bits,
    };

    // Alphabet: ids with distinct nonzero low-`code_bits` hash codes.
    let want = (((1u32 << code_bits) - 1) as u64).min(10) as usize;
    let mut alphabet: Vec<TraceRecord> = Vec::with_capacity(want);
    let mut used = vec![false; 1 << code_bits];
    let mut attempts = 0;
    while alphabet.len() < want && attempts < 10_000 {
        attempts += 1;
        let id = random_id(rng);
        let code = id.hashed().low_bits(code_bits) as usize;
        if code == 0 || used[code] {
            continue;
        }
        used[code] = true;
        alphabet.push(TraceRecord::new(
            id,
            rng.range(1, MAX_TRACE_LEN as u64) as u8,
            0,
            false,
            false,
        ));
    }
    assert!(
        alphabet.len() >= 2,
        "code space 2^{code_bits} must admit at least two symbols"
    );

    let primary = random_counter(rng);
    let secondary = random_counter(rng);
    let alternate = rng.chance(1, 2);
    let cfg = PredictorConfig {
        index_bits: 16,
        dolc,
        tag_bits: 16,
        primary_counter: primary,
        secondary_index_bits: 16,
        secondary_counter: secondary,
        rhs: None,
        alternate,
        stored_target: StoredTarget::Full,
    };
    let ucfg = UnboundedConfig {
        depth,
        hybrid: true,
        rhs: None,
        primary_counter: primary,
        secondary_counter: secondary,
        alternate,
    };
    AliasFreePoint {
        cfg,
        ucfg,
        alphabet,
        code_bits,
    }
}

impl AliasFreePoint {
    /// A random walk of `len` steps over the point's alphabet.
    pub fn stream(&self, rng: &mut XorShift64, len: usize) -> Vec<TraceRecord> {
        (0..len)
            .map(|_| self.alphabet[rng.below(self.alphabet.len() as u64) as usize])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alias_free_points_are_valid_and_unfolded() {
        let rng = XorShift64::new(0xA11A);
        for k in 0..64 {
            let p = alias_free_point(&mut rng.fork(k));
            p.cfg.validate().expect("bounded config valid");
            p.ucfg.validate().expect("unbounded config valid");
            assert!(
                p.cfg.dolc.total_bits() <= p.cfg.index_bits,
                "no folding: {:?}",
                p.cfg.dolc
            );
            assert_eq!(p.cfg.dolc.parts(p.cfg.index_bits), 1);
            // Distinct nonzero codes.
            let codes: Vec<u32> = p
                .alphabet
                .iter()
                .map(|r| r.id().hashed().low_bits(p.code_bits))
                .collect();
            for (i, &a) in codes.iter().enumerate() {
                assert_ne!(a, 0, "codes are nonzero");
                for &b in &codes[i + 1..] {
                    assert_ne!(a, b, "codes are distinct");
                }
            }
        }
    }

    #[test]
    fn random_streams_are_reproducible() {
        let a = random_stream(&mut XorShift64::new(9), 200);
        let b = random_stream(&mut XorShift64::new(9), 200);
        assert_eq!(a, b);
        assert!(a.iter().all(|r| (1..=16).contains(&r.len)));
    }

    #[test]
    fn paper_points_always_construct() {
        let mut rng = XorShift64::new(3);
        for _ in 0..64 {
            let (bits, depth) = paper_point(&mut rng);
            PredictorConfig::try_paper(bits, depth).expect("paper point valid");
        }
    }
}
