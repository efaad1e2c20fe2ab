//! Trace-cache redundancy accounting.
//!
//! The paper's introduction notes that "the same instructions may appear in
//! more than one trace" and that selection heuristics should limit that
//! redundancy. This module quantifies it: across the *static* set of traces
//! observed, how many times is each instruction address stored?

use crate::Trace;
use ntp_hash::FxBuild;
use std::collections::{HashMap, HashSet};

/// Measures how much a trace cache would duplicate instructions under a
/// given selection policy.
///
/// # Examples
///
/// ```
/// use ntp_trace::RedundancyStats;
/// let stats = RedundancyStats::new();
/// assert_eq!(stats.static_traces(), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct RedundancyStats {
    /// Both sets use [`FxBuild`]: they are touched once per captured trace,
    /// and [`RedundancyStats::to_raw`] sorts, so the hasher never shows.
    seen_traces: HashSet<u64, FxBuild>,
    /// instruction pc → number of distinct static traces containing it.
    copies: HashMap<u32, u32, FxBuild>,
    stored_instrs: u64,
}

impl RedundancyStats {
    /// Creates an empty accumulator.
    pub fn new() -> RedundancyStats {
        RedundancyStats::default()
    }

    /// Folds one dynamic trace in; only the first occurrence of each static
    /// trace contributes (a trace cache stores each trace once).
    pub fn record(&mut self, trace: &Trace) {
        if !self.seen_traces.insert(trace.id().packed()) {
            return;
        }
        self.stored_instrs += trace.len() as u64;
        // Walk the trace's instruction addresses: between control transfers
        // the addresses are sequential; a taken control jumps to its target.
        let mut pc = trace.id().start_pc;
        let mut controls = trace.controls().iter().peekable();
        for _ in 0..trace.len() {
            *self.copies.entry(pc).or_insert(0) += 1;
            let mut next = pc.wrapping_add(4);
            if let Some(c) = controls.peek() {
                if c.pc == pc {
                    if c.taken {
                        next = c.target;
                    }
                    controls.next();
                }
            }
            pc = next;
        }
    }

    /// Distinct static traces recorded.
    pub fn static_traces(&self) -> usize {
        self.seen_traces.len()
    }

    /// Distinct instruction addresses covered.
    pub fn unique_instrs(&self) -> usize {
        self.copies.len()
    }

    /// Instruction slots a trace cache would dedicate to these traces.
    pub fn stored_instrs(&self) -> u64 {
        self.stored_instrs
    }

    /// Mean number of stored copies per instruction — 1.0 means no
    /// duplication; the paper's heuristics aim to keep this low.
    pub fn duplication_factor(&self) -> f64 {
        if self.copies.is_empty() {
            0.0
        } else {
            self.stored_instrs as f64 / self.copies.len() as f64
        }
    }

    /// Fraction of instructions stored in more than one trace.
    pub fn duplicated_fraction(&self) -> f64 {
        if self.copies.is_empty() {
            return 0.0;
        }
        let dup = self.copies.values().filter(|&&n| n > 1).count();
        dup as f64 / self.copies.len() as f64
    }

    /// Plain-data snapshot for persistence (the on-disk trace cache). Both
    /// the static-trace set and the per-instruction copy counts come back
    /// **sorted** so the serialized form is deterministic.
    pub fn to_raw(&self) -> RedundancyRaw {
        let mut seen_traces: Vec<u64> = self.seen_traces.iter().copied().collect();
        seen_traces.sort_unstable();
        let mut copies: Vec<(u32, u32)> = self.copies.iter().map(|(&pc, &n)| (pc, n)).collect();
        copies.sort_unstable();
        RedundancyRaw {
            seen_traces,
            copies,
            stored_instrs: self.stored_instrs,
        }
    }

    /// Rebuilds an accumulator from a [`RedundancyRaw`] snapshot; the
    /// result is observationally identical to the snapshotted accumulator
    /// (including further [`RedundancyStats::record`] calls, which keep
    /// deduplicating against the restored static-trace set).
    pub fn from_raw(raw: RedundancyRaw) -> RedundancyStats {
        RedundancyStats {
            seen_traces: raw.seen_traces.into_iter().collect(),
            copies: raw.copies.into_iter().collect(),
            stored_instrs: raw.stored_instrs,
        }
    }
}

/// The plain-data form of [`RedundancyStats`] used by persistence layers
/// (see [`RedundancyStats::to_raw`] / [`RedundancyStats::from_raw`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RedundancyRaw {
    /// Distinct packed trace identifiers, sorted ascending.
    pub seen_traces: Vec<u64>,
    /// `(instruction pc, distinct static traces containing it)`, sorted by
    /// pc.
    pub copies: Vec<(u32, u32)>,
    /// Instruction slots a trace cache would dedicate to these traces.
    pub stored_instrs: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_traces, TraceConfig};
    use ntp_isa::asm::assemble;
    use ntp_sim::Machine;

    fn stats_of(src: &str) -> RedundancyStats {
        let p = assemble(src).unwrap();
        let mut m = Machine::new(p);
        let mut stats = RedundancyStats::new();
        run_traces(&mut m, 100_000, TraceConfig::default(), |t| stats.record(t)).unwrap();
        stats
    }

    #[test]
    fn straightline_code_has_no_duplication() {
        let body = "        addi t0, t0, 1\n".repeat(30);
        let stats = stats_of(&format!("main:\n{body}        halt\n"));
        assert!((stats.duplication_factor() - 1.0).abs() < 1e-9);
        assert_eq!(stats.duplicated_fraction(), 0.0);
    }

    #[test]
    fn shared_blocks_are_counted_once_per_trace() {
        // A diamond revisited with both outcomes: block D lands in two
        // static traces.
        let src = "
main:   li   s0, 10
loop:   andi t0, s0, 1
        beqz t0, right
        addi s1, s1, 1
        j    join
right:  addi s1, s1, 2
join:   addi s2, s2, 1
        addi s0, s0, -1
        bnez s0, loop
        halt
";
        let stats = stats_of(src);
        assert!(
            stats.duplication_factor() > 1.05,
            "{}",
            stats.duplication_factor()
        );
        assert!(stats.duplicated_fraction() > 0.2);
        assert!(stats.unique_instrs() <= 12);
    }

    #[test]
    fn dynamic_repeats_do_not_inflate() {
        // The same loop trace executed many times is stored once.
        let src = "
main:   li   t0, 100
loop:   addi t0, t0, -1
        bnez t0, loop
        halt
";
        let a = stats_of(src);
        let b = stats_of(&src.replace("100", "1000"));
        // 10x the dynamic traces, but the static set only wobbles by the
        // differing final partial trace.
        assert!(
            (a.static_traces() as i64 - b.static_traces() as i64).abs() <= 2,
            "{} vs {}",
            a.static_traces(),
            b.static_traces()
        );
    }

    #[test]
    fn raw_round_trip_preserves_every_accessor() {
        let src = "
main:   li   s0, 10
loop:   andi t0, s0, 1
        beqz t0, right
        addi s1, s1, 1
        j    join
right:  addi s1, s1, 2
join:   addi s0, s0, -1
        bnez s0, loop
        halt
";
        let stats = stats_of(src);
        let raw = stats.to_raw();
        assert!(raw.seen_traces.windows(2).all(|w| w[0] < w[1]), "sorted");
        assert!(raw.copies.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
        let back = RedundancyStats::from_raw(raw.clone());
        assert_eq!(back.static_traces(), stats.static_traces());
        assert_eq!(back.unique_instrs(), stats.unique_instrs());
        assert_eq!(back.stored_instrs(), stats.stored_instrs());
        assert_eq!(back.duplication_factor(), stats.duplication_factor());
        assert_eq!(back.duplicated_fraction(), stats.duplicated_fraction());
        assert_eq!(back.to_raw(), raw);
    }
}
