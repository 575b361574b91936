//! Property-based tests for the ASIP platform.
//!
//! The crown jewel here is *retargeting equivalence*: for randomly
//! generated straight-line programs, rewriting onto custom instructions
//! must preserve the final registers and memory exactly while never
//! increasing the cycle count.

use dms_asip::extend::{CustomOp, ExtensionCatalog, Identifier};
use dms_asip::isa::{Cond, Instr, Reg};
use dms_asip::iss::{Iss, IssConfig};
use dms_asip::profile::Profile;
use dms_asip::program::{Program, ProgramBuilder};
use dms_asip::retarget::retarget;
use proptest::prelude::*;

/// Strategy: one random fusible (straight-line, register-safe) ALU
/// instruction over registers r1..r8.
fn alu_instr() -> impl Strategy<Value = Instr> {
    let reg = || (1u8..8).prop_map(Reg);
    prop_oneof![
        (reg(), reg(), reg()).prop_map(|(d, a, b)| Instr::Add(d, a, b)),
        (reg(), reg(), reg()).prop_map(|(d, a, b)| Instr::Sub(d, a, b)),
        (reg(), reg(), reg()).prop_map(|(d, a, b)| Instr::Mul(d, a, b)),
        (reg(), reg(), -100i64..100).prop_map(|(d, a, i)| Instr::Addi(d, a, i)),
        (reg(), reg(), 0u8..8).prop_map(|(d, a, s)| Instr::Shri(d, a, s)),
        (reg(), reg(), reg()).prop_map(|(d, a, b)| Instr::Xor(d, a, b)),
    ]
}

/// Builds a program that initialises r1..r8 and then loops `trips`
/// times over `body`, accumulating into memory.
fn looped_program(body: &[Instr], trips: i64) -> Program {
    let mut b = ProgramBuilder::new();
    for r in 1..8u8 {
        b.li(Reg(r), i64::from(r) * 3 + 1);
    }
    let (i, n) = (Reg(9), Reg(10));
    b.li(n, trips);
    let top = b.place_label();
    let mut instrs: Vec<Instr> = body.to_vec();
    // Store a body result so the loop is observable in memory.
    instrs.push(Instr::St(Reg(1), i, 100));
    for instr in instrs {
        match instr {
            Instr::Add(d, a, c) => b.add(d, a, c),
            Instr::Sub(d, a, c) => b.sub(d, a, c),
            Instr::Mul(d, a, c) => b.mul(d, a, c),
            Instr::Addi(d, a, imm) => b.addi(d, a, imm),
            Instr::Shri(d, a, s) => b.shri(d, a, s),
            Instr::Xor(d, a, c) => b.xor(d, a, c),
            Instr::St(src, base, off) => b.st(src, base, off),
            other => unreachable!("strategy produced {other:?}"),
        };
    }
    b.addi(i, i, 1);
    b.branch(Cond::Lt, i, n, top);
    b.halt();
    b.build().expect("generated program is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Retargeting any identified candidate set preserves semantics and
    /// never slows the program down.
    #[test]
    fn retargeting_preserves_semantics(
        body in proptest::collection::vec(alu_instr(), 2..10),
        trips in 2i64..40,
    ) {
        let program = looped_program(&body, trips);
        let base_iss = Iss::new(IssConfig::default(), ExtensionCatalog::new());
        let base = base_iss.run_with_memory(&program, Vec::new()).expect("generated program halts");
        let profile = Profile::from_report(&base);
        let candidates = Identifier::default().candidates(&program, &profile);
        let (rewritten, catalog) = retarget(&program, &candidates).expect("rewrites");
        let fast = Iss::new(IssConfig::default(), catalog)
            .run_with_memory(&rewritten, Vec::new())
            .expect("rewritten program halts");
        prop_assert_eq!(&base.regs, &fast.regs, "register state diverged");
        prop_assert_eq!(&base.memory, &fast.memory, "memory state diverged");
        prop_assert!(fast.cycles <= base.cycles, "{} > {}", fast.cycles, base.cycles);
        if !candidates.is_empty() {
            prop_assert!(rewritten.len() < program.len());
        }
    }

    /// Fused cycle counts never exceed the base sequence and gate costs
    /// grow monotonically with window length.
    #[test]
    fn custom_op_cost_model_sane(body in proptest::collection::vec(alu_instr(), 1..16)) {
        let op = CustomOp::from_window("w", &body).expect("fusible ALU window");
        prop_assert!(op.cycles >= 1);
        prop_assert!(op.cycles <= op.base_cycles());
        if body.len() >= 2 {
            let shorter = CustomOp::from_window("s", &body[..body.len() - 1])
                .expect("prefix is fusible");
            prop_assert!(op.gates >= shorter.gates);
        }
    }

    /// The ISS is deterministic: identical runs agree cycle-for-cycle.
    #[test]
    fn iss_is_deterministic(
        body in proptest::collection::vec(alu_instr(), 1..8),
        trips in 1i64..20,
    ) {
        let program = looped_program(&body, trips);
        let iss = Iss::new(IssConfig::default(), ExtensionCatalog::new());
        let a = iss.run_with_memory(&program, Vec::new()).expect("halts");
        let b = iss.run_with_memory(&program, Vec::new()).expect("halts");
        prop_assert_eq!(a, b);
    }

    /// Predefined blocks never hurt: enabling MAC and ZOL can only
    /// reduce the cycle count, and never changes results.
    #[test]
    fn predefined_blocks_are_pure_wins(
        body in proptest::collection::vec(alu_instr(), 1..8),
        trips in 1i64..20,
    ) {
        let program = looped_program(&body, trips);
        let plain = Iss::new(IssConfig::default(), ExtensionCatalog::new())
            .run_with_memory(&program, Vec::new())
            .expect("halts");
        let mut cfg = IssConfig::default();
        cfg.mac_block = true;
        cfg.zero_overhead_loops = true;
        let blocks = Iss::new(cfg, ExtensionCatalog::new()).run_with_memory(&program, Vec::new()).expect("halts");
        prop_assert_eq!(&plain.regs, &blocks.regs);
        prop_assert_eq!(&plain.memory, &blocks.memory);
        prop_assert!(blocks.cycles <= plain.cycles);
    }
}
