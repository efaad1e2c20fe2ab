//! Compact trace records for cheap replay.
//!
//! A full [`Trace`] carries per-control-instruction detail (~200 bytes) that
//! only streaming consumers need. Predictor accuracy sweeps replay the same
//! trace sequence dozens of times, so they cache the 8-byte [`TraceRecord`]
//! form — everything a next-trace predictor (including its return history
//! stack) observes.

use crate::{Trace, TraceId, MAX_TRACE_BRANCHES, MAX_TRACE_LEN};

/// The compact (8-byte) form of a trace, sufficient to drive any next-trace
/// predictor.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct TraceRecord {
    /// Start PC of the trace.
    pub start_pc: u32,
    /// Embedded conditional branch outcomes (bit `i` = branch `i` taken).
    pub branch_bits: u8,
    /// Number of embedded conditional branches.
    pub branch_count: u8,
    /// Instructions in the trace.
    pub len: u8,
    /// Packed flags: bits `[2:0]` call count (saturating at 7), bit 3
    /// ends-in-return, bit 4 ends-in-indirect.
    flags: u8,
}

impl TraceRecord {
    /// Builds a record directly (for synthetic streams and tests; real
    /// streams convert from [`Trace`]).
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or exceeds 16, or `call_count > 7`.
    pub fn new(
        id: TraceId,
        len: u8,
        call_count: u8,
        ends_in_return: bool,
        ends_in_indirect: bool,
    ) -> TraceRecord {
        assert!((1..=16).contains(&len), "trace length must be 1..=16");
        assert!(call_count <= 7, "call count saturates at 7");
        TraceRecord {
            start_pc: id.start_pc,
            branch_bits: id.branch_bits,
            branch_count: id.branch_count,
            len,
            flags: call_count | (u8::from(ends_in_return) << 3) | (u8::from(ends_in_indirect) << 4),
        }
    }

    /// The 8-byte on-disk form (the `.ntc` record layout): the start PC as
    /// a little-endian u32, then branch bits, branch count, length and the
    /// packed flags.
    #[inline]
    pub fn to_bytes(&self) -> [u8; 8] {
        let id = self.id();
        let pc = id.start_pc.to_le_bytes();
        [
            pc[0],
            pc[1],
            pc[2],
            pc[3],
            id.branch_bits,
            id.branch_count,
            self.len,
            self.flags,
        ]
    }

    /// Decodes the [`TraceRecord::to_bytes`] form, or `None` when a field
    /// is out of range: more than [`MAX_TRACE_BRANCHES`] branches, outcome
    /// bits beyond the branch count, a length outside
    /// `1..=`[`MAX_TRACE_LEN`], or flag bits above bit 4. The checks are
    /// plain bit arithmetic with no early exit, so a loop over a buffer of
    /// records compiles without a branch per record.
    #[inline]
    pub fn from_bytes(bytes: [u8; 8]) -> Option<TraceRecord> {
        let [p0, p1, p2, p3, branch_bits, branch_count, len, flags] = bytes;
        let outcome_mask = !(u8::MAX << branch_count.min(7));
        let valid = (usize::from(branch_count) <= MAX_TRACE_BRANCHES)
            & (branch_bits & !outcome_mask == 0)
            & (usize::from(len.wrapping_sub(1)) < MAX_TRACE_LEN)
            & (flags & 0b1110_0000 == 0);
        valid.then_some(TraceRecord {
            start_pc: u32::from_le_bytes([p0, p1, p2, p3]),
            branch_bits,
            branch_count,
            len,
            flags,
        })
    }

    /// The trace's identifier.
    #[inline]
    pub fn id(&self) -> TraceId {
        TraceId::new(self.start_pc, self.branch_bits, self.branch_count)
    }

    /// Number of calls in the trace (saturated at 7).
    #[inline]
    pub fn call_count(&self) -> u8 {
        self.flags & 0b111
    }

    /// True if the trace ends in a return.
    #[inline]
    pub fn ends_in_return(&self) -> bool {
        self.flags & 0b1000 != 0
    }

    /// True if the trace ends in any indirect-target instruction.
    #[inline]
    pub fn ends_in_indirect(&self) -> bool {
        self.flags & 0b1_0000 != 0
    }
}

impl From<&Trace> for TraceRecord {
    fn from(t: &Trace) -> TraceRecord {
        let id = t.id();
        let calls = t.call_count().min(7);
        let flags =
            calls | (u8::from(t.ends_in_return()) << 3) | (u8::from(t.ends_in_indirect()) << 4);
        TraceRecord {
            start_pc: id.start_pc,
            branch_bits: id.branch_bits,
            branch_count: id.branch_count,
            len: t.len() as u8,
            flags,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_traces, TraceConfig};
    use ntp_isa::asm::assemble;
    use ntp_sim::Machine;

    #[test]
    fn record_preserves_predictor_visible_state() {
        let p = assemble("main: jal f\n halt\nf: jal g\n ret\ng: ret\n").unwrap();
        let mut m = Machine::new(p);
        let mut pairs = Vec::new();
        run_traces(&mut m, 100, TraceConfig::default(), |t| {
            pairs.push((*t, TraceRecord::from(t)));
        })
        .unwrap();
        assert!(!pairs.is_empty());
        for (t, r) in pairs {
            assert_eq!(r.id(), t.id());
            assert_eq!(r.len as usize, t.len());
            assert_eq!(r.call_count(), t.call_count().min(7));
            assert_eq!(r.ends_in_return(), t.ends_in_return());
            assert_eq!(r.ends_in_indirect(), t.ends_in_indirect());
        }
    }

    #[test]
    fn byte_form_round_trips_and_refuses_out_of_range_fields() {
        let r = TraceRecord::new(TraceId::new(0x0040_1234, 0b101, 3), 16, 7, true, true);
        assert_eq!(
            r.to_bytes(),
            [0x34, 0x12, 0x40, 0x00, 0b101, 3, 16, 0b1_1111]
        );
        assert_eq!(TraceRecord::from_bytes(r.to_bytes()), Some(r));
        let with = |at: usize, v: u8| {
            let mut b = r.to_bytes();
            b[at] = v;
            TraceRecord::from_bytes(b)
        };
        for count in 0..=255u8 {
            let bits = if count > 6 {
                0
            } else {
                (1u16 << count) as u8 - 1
            };
            let mut b = r.to_bytes();
            b[4] = bits;
            b[5] = count;
            assert_eq!(
                TraceRecord::from_bytes(b).is_some(),
                count <= 6,
                "count {count}"
            );
            if (1..=6).contains(&count) {
                b[4] = 1 << count;
                assert_eq!(
                    TraceRecord::from_bytes(b),
                    None,
                    "stray bit at count {count}"
                );
            }
        }
        for len in 0..=255u8 {
            assert_eq!(with(6, len).is_some(), (1..=16).contains(&len), "len {len}");
        }
        for flags in 0..=255u8 {
            assert_eq!(with(7, flags).is_some(), flags < 32, "flags {flags:#b}");
        }
    }

    #[test]
    fn record_is_small() {
        assert_eq!(std::mem::size_of::<TraceRecord>(), 8);
    }
}
