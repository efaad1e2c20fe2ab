//! Shared helpers: deterministic input generation and data-section
//! formatting.

/// The 32-bit linear congruential generator used both by workload host code
/// (in Rust, to generate embedded inputs) and inside several TRISC programs
/// (mirrored instruction-for-instruction).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Lcg {
    state: u32,
}

/// LCG multiplier (Numerical Recipes).
pub const LCG_MUL: u32 = 1664525;
/// LCG increment (Numerical Recipes).
pub const LCG_ADD: u32 = 1013904223;

impl Lcg {
    /// Seeds the generator.
    pub fn new(seed: u32) -> Lcg {
        Lcg { state: seed }
    }

    /// Advances and returns the full 32-bit state.
    pub fn next_u32(&mut self) -> u32 {
        self.state = self.state.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD);
        self.state
    }

    /// A value in `0..bound` (bound must be nonzero). Uses the high bits,
    /// which have the longest period.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u32) -> u32 {
        assert!(bound > 0);
        (self.next_u32() >> 8) % bound
    }
}

/// Formats a slice of words as `.word` directives, 8 per line.
pub fn words_directive(words: &[u32]) -> String {
    let mut out = String::with_capacity(words.len() * 12);
    for chunk in words.chunks(8) {
        out.push_str("        .word ");
        for (k, w) in chunk.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            push_hex(&mut out, *w);
        }
        out.push('\n');
    }
    out
}

/// Appends `w` as `0x` and its lowercase hex digits (the `{:#x}` form),
/// without the formatting machinery: xlisp's tables hold ~58 K words.
fn push_hex(out: &mut String, w: u32) {
    out.push_str("0x");
    let digits = (32 - w.leading_zeros()).div_ceil(4).max(1);
    for k in (0..digits).rev() {
        out.push(char::from_digit((w >> (4 * k)) & 0xF, 16).expect("a hex digit"));
    }
}

/// Appends the decimal digits of `b` (the `{}` form).
fn push_decimal(out: &mut String, b: u8) {
    if b >= 100 {
        out.push(char::from(b'0' + b / 100));
    }
    if b >= 10 {
        out.push(char::from(b'0' + b / 10 % 10));
    }
    out.push(char::from(b'0' + b % 10));
}

/// Formats a slice of bytes as `.byte` directives, 16 per line.
pub fn bytes_directive(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 6);
    for chunk in bytes.chunks(16) {
        out.push_str("        .byte ");
        for (k, b) in chunk.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            push_decimal(&mut out, *b);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcg_is_deterministic() {
        let mut a = Lcg::new(42);
        let mut b = Lcg::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut l = Lcg::new(7);
        for _ in 0..1000 {
            assert!(l.below(13) < 13);
        }
    }

    #[test]
    fn digit_writers_match_the_formatter() {
        let mut l = Lcg::new(11);
        let edges = [0, 1, 0xF, 0x10, 0xFFFF, 0x1_0000, 0xFFFF_FFFF];
        for w in edges
            .into_iter()
            .chain((0..1000).map(|_| l.next_u32() >> (l.next_u32() % 32)))
        {
            let mut s = String::new();
            push_hex(&mut s, w);
            assert_eq!(s, format!("{w:#x}"));
        }
        for b in 0..=255u8 {
            let mut s = String::new();
            push_decimal(&mut s, b);
            assert_eq!(s, b.to_string());
        }
    }

    #[test]
    fn directives_assemble() {
        let src = format!(
            "main: halt\n.data\nw:\n{}b:\n{}",
            words_directive(&[1, 2, 3, 0xFFFF_FFFF]),
            bytes_directive(&[0, 255, 7])
        );
        let p = ntp_isa::asm::assemble(&src).unwrap();
        assert_eq!(&p.data[0..4], &1u32.to_le_bytes());
        assert_eq!(p.data[16], 0);
        assert_eq!(p.data[17], 255);
    }
}
