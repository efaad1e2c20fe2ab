//! Simulator robustness: faults surface as `SimError` values, loads
//! extend and order as specified. The seeded random-program and
//! store/load properties live in the root `tests/props.rs`.

use ntp_sim::{Machine, MemoryConfig, SimError};

#[test]
fn sign_extension_loads() {
    let src = "
main:   la   t0, data
        lh   t1, 0(t0)
        out  t1
        lhu  t2, 0(t0)
        out  t2
        lb   t3, 2(t0)
        out  t3
        halt
        .data
data:   .half 0x8001
        .byte 0x80
";
    let p = ntp_isa::asm::assemble(src).unwrap();
    let mut m = Machine::new(p);
    m.run(100).unwrap();
    assert_eq!(
        m.output(),
        &[0xFFFF_8001, 0x0000_8001, 0xFFFF_FF80],
        "lh sign-extends, lhu zero-extends, lb sign-extends"
    );
}

#[test]
fn stack_depth_limits_are_faults_not_ub() {
    // Infinite recursion eventually leaves the stack segment and faults.
    let src = "
main:   jal  f
        halt
f:      addi sp, sp, -64
        sw   ra, 0(sp)
        jal  f
        ret
";
    let p = ntp_isa::asm::assemble(src).unwrap();
    let mut m = Machine::with_config(
        p,
        MemoryConfig {
            data_capacity: 4096,
            stack_capacity: 64 * 128,
        },
    );
    let err = m.run(1_000_000).unwrap_err();
    assert!(matches!(err, SimError::MemFault { .. }), "{err}");
}

#[test]
fn visitor_sees_every_retired_instruction() {
    let src = "
main:   li   t0, 9
loop:   addi t0, t0, -1
        bnez t0, loop
        halt
";
    let p = ntp_isa::asm::assemble(src).unwrap();
    let mut m = Machine::new(p);
    let mut pcs = Vec::new();
    m.run_with(1000, |s| pcs.push(s.pc)).unwrap();
    assert_eq!(pcs.len() as u64, m.icount());
    // Consecutive steps chain: each next_pc equals the following pc.
    let p2 = ntp_isa::asm::assemble(src).unwrap();
    let mut m2 = Machine::new(p2);
    let mut prev_next: Option<u32> = None;
    m2.run_with(1000, |s| {
        if let Some(expect) = prev_next {
            assert_eq!(s.pc, expect);
        }
        prev_next = Some(s.next_pc());
    })
    .unwrap();
}

#[test]
fn out_is_ordered_and_unbounded() {
    let src = "
main:   li   t0, 200
loop:   out  t0
        addi t0, t0, -1
        bnez t0, loop
        halt
";
    let p = ntp_isa::asm::assemble(src).unwrap();
    let mut m = Machine::new(p);
    m.run(10_000).unwrap();
    assert_eq!(m.output().len(), 200);
    assert_eq!(m.output()[0], 200);
    assert_eq!(*m.output().last().unwrap(), 1);
}
