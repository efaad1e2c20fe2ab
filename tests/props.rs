//! Seeded property tests over the core data structures and invariants
//! of the stack: the ISA codec and assembler, the simulator's fault
//! model, trace selection, and the predictor's history, index, counter
//! and return-stack structures, and the replay kernel against the
//! reference loop.
//!
//! Every property draws its inputs from [`XorShift64`] with a fixed
//! seed, so a run is reproducible from this file alone. Each case gets
//! its own fork of the seed; a failing case prints its index, and
//! `XorShift64::new(seed).fork(case)` rebuilds exactly its inputs.

use ntp::core::{
    evaluate_batch_fresh, replay, ConfidenceConfig, ConfidenceObserver, Counter, CounterSpec, Dolc,
    Lane, NextTracePredictor, Observer, PathHistory, PredictorConfig, PredictorStats,
    ReturnHistoryStack, RhsConfig, SinkObserver, StoredTarget,
};
use ntp::isa::{decode, encode, ControlKind, Instr, Program, Reg};
use ntp::sim::{ControlEvent, Machine, MemoryConfig, SimError, Step};
use ntp::telemetry::TraceLog;
use ntp::trace::{HashedId, TraceBuilder, TraceConfig, TraceId, TraceRecord};
use ntp::verify::{random_stream, reference_replay, XorShift64};

/// Names the failing case when a property panics mid-case.
struct CaseGuard {
    seed: u64,
    case: u64,
}

impl Drop for CaseGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "property failed at seed {:#x}, case {}: rebuild with XorShift64::new(seed).fork(case)",
                self.seed, self.case
            );
        }
    }
}

/// Runs `check` on `cases` independent inputs, each drawn from its own
/// fork of `seed`.
fn for_cases(seed: u64, cases: u64, mut check: impl FnMut(&mut XorShift64)) {
    let root = XorShift64::new(seed);
    for case in 0..cases {
        let _guard = CaseGuard { seed, case };
        check(&mut root.fork(case));
    }
}

/// A length uniform in `lo..=hi`.
fn len(rng: &mut XorShift64, lo: usize, hi: usize) -> usize {
    rng.range(lo as u64, hi as u64) as usize
}

fn any_u16(rng: &mut XorShift64) -> u16 {
    rng.next_u32() as u16
}

fn any_i16(rng: &mut XorShift64) -> i16 {
    any_u16(rng) as i16
}

fn any_bool(rng: &mut XorShift64) -> bool {
    rng.chance(1, 2)
}

fn arb_reg(rng: &mut XorShift64) -> Reg {
    Reg::new(rng.below(32) as u8).unwrap()
}

/// One instruction from a representative mix of every encoding format.
fn arb_instr(rng: &mut XorShift64) -> Instr {
    let r = arb_reg;
    match rng.below(18) {
        0 => Instr::Add(r(rng), r(rng), r(rng)),
        1 => Instr::Sub(r(rng), r(rng), r(rng)),
        2 => Instr::Sltu(r(rng), r(rng), r(rng)),
        3 => Instr::Mul(r(rng), r(rng), r(rng)),
        4 => Instr::Sll(r(rng), r(rng), rng.below(32) as u8),
        5 => Instr::Addi(r(rng), r(rng), any_i16(rng)),
        6 => Instr::Ori(r(rng), r(rng), any_u16(rng)),
        7 => Instr::Lui(r(rng), any_u16(rng)),
        8 => Instr::Lw(r(rng), r(rng), any_i16(rng)),
        9 => Instr::Sb(r(rng), r(rng), any_i16(rng)),
        10 => Instr::Beq(r(rng), r(rng), any_i16(rng)),
        11 => Instr::Bgeu(r(rng), r(rng), any_i16(rng)),
        12 => Instr::J(rng.below(1 << 26) as u32),
        13 => Instr::Jal(rng.below(1 << 26) as u32),
        14 => Instr::Jr(r(rng)),
        15 => Instr::Jalr(r(rng), r(rng)),
        16 => Instr::Halt,
        _ => Instr::Out(r(rng)),
    }
}

fn arb_instrs(rng: &mut XorShift64, lo: usize, hi: usize) -> Vec<Instr> {
    let n = len(rng, lo, hi);
    (0..n).map(|_| arb_instr(rng)).collect()
}

#[test]
fn encode_decode_roundtrip() {
    for_cases(0x1001, 1024, |rng| {
        let instr = arb_instr(rng);
        assert_eq!(decode(encode(&instr)), Ok(instr));
    });
}

/// The decoder never panics, whatever the word.
#[test]
fn decode_total() {
    for_cases(0x1002, 4096, |rng| {
        let _ = decode(rng.next_u32());
    });
}

/// If a word decodes, re-encoding reproduces it or a canonical
/// equivalent that decodes to the same instruction.
#[test]
fn decode_encode_stable() {
    for_cases(0x1003, 4096, |rng| {
        if let Ok(i) = decode(rng.next_u32()) {
            assert_eq!(decode(encode(&i)), Ok(i));
        }
    });
}

/// Full tooling roundtrip: instruction list → disassembly text →
/// assembler → identical instruction list. Exercises the assembler's
/// numeric-target paths and the disassembler together.
#[test]
fn disassemble_reassemble_roundtrip() {
    use ntp::isa::{asm::assemble, disasm, TEXT_BASE};
    for_cases(0x1004, 512, |rng| {
        let instrs = arb_instrs(rng, 1, 39);
        // Rewrite control-flow targets so they land inside this block
        // (the assembler validates branch range and jump region).
        let n = instrs.len() as u32;
        let fixed: Vec<Instr> = instrs
            .iter()
            .enumerate()
            .map(|(k, i)| match *i {
                Instr::Beq(a, b, _) => Instr::Beq(a, b, -(k as i16)),
                Instr::Bgeu(a, b, _) => Instr::Bgeu(a, b, (n - k as u32 - 1) as i16),
                Instr::J(_) => Instr::J(TEXT_BASE >> 2),
                Instr::Jal(_) => Instr::Jal((TEXT_BASE >> 2) + n - 1),
                other => other,
            })
            .collect();
        let mut text = String::new();
        for (k, i) in fixed.iter().enumerate() {
            let pc = TEXT_BASE + (k as u32) * 4;
            text.push_str("        ");
            text.push_str(&disasm::render(i, pc));
            text.push('\n');
        }
        let program = assemble(&text).expect("disassembly is valid assembly");
        assert_eq!(program.instrs, fixed);
    });
}

/// Encoded programs decode back through `Program::encode_text`.
#[test]
fn program_binary_roundtrip() {
    for_cases(0x1005, 512, |rng| {
        let instrs = arb_instrs(rng, 1, 63);
        let mut p = Program::new();
        p.instrs = instrs.clone();
        let back: Vec<Instr> = p
            .encode_text()
            .iter()
            .map(|&w| decode(w).expect("encoded instructions decode"))
            .collect();
        assert_eq!(back, instrs);
    });
}

/// Random (decodable) instruction soup either runs, halts, or faults
/// cleanly — never panics, never violates the budget.
#[test]
fn random_programs_never_panic() {
    for_cases(0x2001, 1024, |rng| {
        let words = len(rng, 1, 199);
        let instrs: Vec<Instr> = (0..words)
            .filter_map(|_| decode(rng.next_u32()).ok())
            .collect();
        if instrs.is_empty() {
            return;
        }
        let mut p = Program::new();
        p.instrs = instrs;
        let mut m = Machine::with_config(
            p,
            MemoryConfig {
                data_capacity: 1 << 16,
                stack_capacity: 1 << 16,
            },
        );
        let budget = 5_000u64;
        match m.run(budget) {
            Ok(_) => assert!(m.icount() <= budget),
            Err(SimError::MemFault { .. } | SimError::PcOutOfRange { .. }) => {}
            Err(SimError::Halted) => panic!("run() never reports Halted"),
        }
    });
}

/// Loads reproduce stores at arbitrary aligned data addresses.
#[test]
fn store_load_roundtrip() {
    let p = ntp::isa::asm::assemble("main: halt\n.data\nbase: .space 64000\n").unwrap();
    let base = p.symbol("base").unwrap();
    let mut m = Machine::new(p);
    for_cases(0x2002, 1024, |rng| {
        let off = rng.below(16000) as u32 * 4;
        let val = rng.next_u32();
        m.mem_mut().store32(base + off, val).unwrap();
        assert_eq!(m.mem().load32(base + off).unwrap(), val);
        // Byte views agree with little-endian layout.
        assert_eq!(m.mem().load8(base + off).unwrap(), (val & 0xFF) as u8);
    });
}

#[test]
fn trace_id_packing_roundtrip() {
    for_cases(0x3001, 1024, |rng| {
        let pc = rng.range(0x0040_0000, 0x007F_FFFF) as u32 & !3;
        let bits = rng.below(64) as u8;
        let count = rng.range(0, 6) as u8;
        let id = TraceId::new(pc, bits, count);
        let back = TraceId::from_packed(id.packed());
        assert_eq!(back.start_pc, id.start_pc);
        assert_eq!(back.branch_bits, id.branch_bits);
        // Hash low two bits are the first two outcomes.
        assert_eq!(id.hashed().0 & 0b11, (id.branch_bits & 0b11) as u16);
    });
}

/// Builds a synthetic retired-instruction step.
fn step(pc: u32, kind: ControlKind, taken: bool) -> Step {
    let instr = match kind {
        ControlKind::None => Instr::Add(Reg::ZERO, Reg::ZERO, Reg::ZERO),
        ControlKind::CondBranch => Instr::Beq(Reg::ZERO, Reg::ZERO, 1),
        ControlKind::Jump => Instr::J(pc >> 2),
        ControlKind::Call => Instr::Jal(pc >> 2),
        ControlKind::IndirectJump => Instr::Jr(Reg::V0),
        ControlKind::IndirectCall => Instr::Jalr(Reg::RA, Reg::V0),
        ControlKind::Return => Instr::Jr(Reg::RA),
    };
    let control = (kind != ControlKind::None).then_some(ControlEvent {
        kind,
        taken: taken || kind != ControlKind::CondBranch,
        target: pc.wrapping_add(64),
    });
    Step { pc, instr, control }
}

/// A control kind weighted like straight-line code: mostly none, then
/// conditional branches, then the rest.
fn arb_kind(rng: &mut XorShift64) -> ControlKind {
    match rng.below(11) {
        0..=4 => ControlKind::None,
        5 | 6 => ControlKind::CondBranch,
        7 => ControlKind::Jump,
        8 => ControlKind::Call,
        9 => ControlKind::Return,
        _ => ControlKind::IndirectJump,
    }
}

#[test]
fn trace_builder_invariants_on_arbitrary_streams() {
    for_cases(0x3002, 1024, |rng| {
        let steps = len(rng, 1, 399);
        let mut builder = TraceBuilder::new(TraceConfig::default());
        let mut total_out = 0usize;
        let mut pc = 0x0040_0000u32;
        let mut traces = Vec::new();
        for _ in 0..steps {
            let kind = arb_kind(rng);
            if let Some(t) = builder.push(&step(pc, kind, any_bool(rng))) {
                traces.push(t);
            }
            pc = pc.wrapping_add(4);
        }
        if let Some(t) = builder.flush() {
            traces.push(t);
        }
        for t in &traces {
            total_out += t.len();
            assert!(t.len() <= 16);
            assert!(t.branch_count() <= 6);
            let controls = t.controls();
            for c in &controls[..controls.len().saturating_sub(1)] {
                assert!(!c.kind.is_indirect());
            }
        }
        assert_eq!(
            steps, total_out,
            "every instruction lands in exactly one trace"
        );
    });
}

#[test]
fn dolc_index_always_fits() {
    for_cases(0x4001, 1024, |rng| {
        let ids = len(rng, 0, 7);
        let depth = len(rng, 0, 7);
        let bits = [12u32, 15, 18][rng.below(3) as usize];
        let dolc = Dolc::standard(depth, bits);
        let mut h: PathHistory<HashedId> = PathHistory::new(8);
        for _ in 0..ids {
            h.push(HashedId(any_u16(rng)));
        }
        assert!(dolc.index(&h, bits) < (1u32 << bits));
    });
}

#[test]
fn dolc_ignores_history_beyond_depth() {
    for_cases(0x4002, 1024, |rng| {
        let ids: Vec<u16> = (0..8).map(|_| any_u16(rng)).collect();
        let depth = len(rng, 0, 6);
        let tweak = any_u16(rng);
        let dolc = Dolc::standard(depth, 15);
        let mut a: PathHistory<HashedId> = PathHistory::new(8);
        let mut b: PathHistory<HashedId> = PathHistory::new(8);
        for (k, v) in ids.iter().enumerate() {
            a.push(HashedId(*v));
            // Change only entries older than the depth window.
            let altered = if k < 8 - (depth + 1) { v ^ tweak } else { *v };
            b.push(HashedId(altered));
        }
        assert_eq!(dolc.index(&a, 15), dolc.index(&b, 15));
    });
}

#[test]
fn counter_never_leaves_range() {
    for_cases(0x4003, 512, |rng| {
        let events = len(rng, 0, 199);
        let spec = CounterSpec {
            bits: rng.range(1, 4) as u8,
            inc: rng.range(1, 3) as u8,
            dec: rng.range(1, 15) as u8,
        };
        let mut c = Counter::new();
        for _ in 0..events {
            if any_bool(rng) {
                c.on_correct(spec);
            } else {
                let _ = c.on_incorrect(spec);
            }
            assert!(c.value() <= spec.max());
        }
    });
}

#[test]
fn path_history_matches_model() {
    for_cases(0x4004, 512, |rng| {
        let ops = len(rng, 0, 63);
        let cap = len(rng, 1, 8);
        let mut h: PathHistory<u16> = PathHistory::new(cap);
        let mut model: Vec<u16> = Vec::new();
        for _ in 0..ops {
            let v = any_u16(rng);
            h.push(v);
            model.insert(0, v);
            model.truncate(cap);
            assert_eq!(h.snapshot(), model);
            assert_eq!(h.newest().unwrap(), model[0]);
        }
    });
}

#[test]
fn rhs_depth_bounded() {
    for_cases(0x4005, 512, |rng| {
        let events = len(rng, 0, 99);
        let max_depth = len(rng, 1, 8);
        let mut h: PathHistory<u16> = PathHistory::new(4);
        h.push(1);
        let mut rhs: ReturnHistoryStack<u16> = ReturnHistoryStack::new(RhsConfig { max_depth });
        for _ in 0..events {
            let calls = rng.below(3) as u8;
            rhs.on_trace(&mut h, calls, any_bool(rng));
            assert!(rhs.depth() <= max_depth);
            assert!(h.len() <= h.capacity());
        }
    });
}

fn arb_predictor_config(rng: &mut XorShift64) -> PredictorConfig {
    let cfg = PredictorConfig {
        index_bits: rng.range(8, 12) as u32,
        secondary_index_bits: rng.range(6, 14) as u32,
        alternate: any_bool(rng),
        stored_target: [StoredTarget::Full, StoredTarget::Hashed][rng.below(2) as usize],
        rhs: any_bool(rng).then(|| RhsConfig {
            max_depth: len(rng, 1, 16),
        }),
        ..PredictorConfig::paper(12, len(rng, 0, 7))
    };
    cfg.validate().expect("generated config is valid");
    cfg
}

/// Replays `streams` through the kernel as gathered lanes of fresh
/// predictors, one observer per lane.
fn kernel<O: Observer<NextTracePredictor>>(
    cfgs: &[PredictorConfig],
    streams: &[Vec<TraceRecord>],
    observers: impl IntoIterator<Item = O>,
) -> (Vec<NextTracePredictor>, Vec<(PredictorStats, O)>) {
    let mut predictors: Vec<_> = cfgs.iter().map(|c| NextTracePredictor::new(*c)).collect();
    let mut lanes: Vec<_> = predictors
        .iter_mut()
        .zip(streams)
        .zip(observers)
        .map(|((p, s), o)| Lane::new(p, s, o))
        .collect();
    replay(&mut lanes);
    let out = lanes.into_iter().map(|l| (l.stats, l.observer)).collect();
    (predictors, out)
}

#[test]
fn replay_kernel_matches_reference_on_ragged_mixed_lanes() {
    for_cases(0x5001, 48, |rng| {
        let n = len(rng, 1, 6);
        let cfgs: Vec<_> = (0..n).map(|_| arb_predictor_config(rng)).collect();
        let streams: Vec<_> = (0..n)
            .map(|_| {
                let l = len(rng, 0, 400);
                random_stream(rng, l)
            })
            .collect();
        let reference: Vec<_> = cfgs
            .iter()
            .zip(&streams)
            .map(|(c, s)| {
                let mut p = NextTracePredictor::new(*c);
                let (stats, preds) = reference_replay(&mut p, s);
                (p, stats, preds)
            })
            .collect();
        let want: Vec<_> = reference.iter().map(|r| r.1.clone()).collect();

        // Recording observer: every step, the stats and the final tables.
        let (predictors, recorded) = kernel(&cfgs, &streams, (0..n).map(|_| Vec::new()));
        for (k, ((p, (stats, preds)), (ref_p, ref_stats, ref_preds))) in
            predictors.iter().zip(&recorded).zip(&reference).enumerate()
        {
            assert_eq!(preds, ref_preds, "lane {k}: per-step predictions");
            assert_eq!(stats, ref_stats, "lane {k}: stats");
            assert_eq!(p.aliasing(), ref_p.aliasing(), "lane {k}: aliasing");
            assert_eq!(p.occupancy(), ref_p.occupancy(), "lane {k}: occupancy");
            assert_eq!(p.indices(), ref_p.indices(), "lane {k}: indices");
        }

        // The no-op observer.
        let (_, plain) = kernel(&cfgs, &streams, (0..n).map(|_| ()));
        let plain: Vec<_> = plain.into_iter().map(|(s, ())| s).collect();
        assert_eq!(plain, want, "no-op observer");
        let views: Vec<&[TraceRecord]> = streams.iter().map(Vec::as_slice).collect();
        let fresh = evaluate_batch_fresh(&views, |k| NextTracePredictor::new(cfgs[k]));
        assert_eq!(fresh, want, "evaluate_batch_fresh");

        // The sink observer, with a live sink so events are built.
        let mut logs: Vec<_> = (0..n).map(|_| TraceLog::new(16, 1)).collect();
        let (_, sunk) = kernel(&cfgs, &streams, logs.iter_mut().map(SinkObserver::new));
        for (k, (stats, obs)) in sunk.into_iter().enumerate() {
            assert_eq!(stats, want[k], "lane {k}: sink observer");
            assert_eq!(obs.into_streaks().sum(), stats.predictions - stats.correct);
        }
        for (log, s) in logs.iter().zip(&streams) {
            assert_eq!(log.offered(), s.len() as u64, "one event per step");
        }

        // The confidence observer classes every prediction once.
        let confidence = (0..n).map(|_| ConfidenceObserver::new(ConfidenceConfig::paper_like()));
        let (_, conf) = kernel(&cfgs, &streams, confidence);
        for (k, (stats, obs)) in conf.into_iter().enumerate() {
            let c = obs.finish(stats);
            assert_eq!(c.prediction, want[k], "lane {k}: confidence observer");
            let classed = c.high_correct + c.high_wrong + c.low_correct + c.low_wrong;
            assert_eq!(classed, c.prediction.predictions);
            assert_eq!(c.high_correct + c.low_correct, c.prediction.correct);
        }
    });
}
