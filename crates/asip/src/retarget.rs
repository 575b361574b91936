//! The retargetable compiler: rewriting programs onto custom
//! instructions.
//!
//! §3.1: "retargetable techniques allow then to automatically generate a
//! compiler that is aware of the new instructions i.e. it can generate
//! code and optimize using the recently defined extensible
//! instructions". [`retarget`] rewrites a program, replacing every
//! occurrence of each selected window with its `Custom` opcode, and
//! remaps all branch targets across the shrinking program — the
//! mechanical core of what a retargeted compiler does.

use crate::error::AsipError;
use crate::extend::{Candidate, ExtensionCatalog};
use crate::isa::Instr;
use crate::program::Program;

/// Rewrites `program`, replacing each selected candidate window (and any
/// other exact occurrence of the same instruction sequence) with its
/// custom opcode. Returns the rewritten program and the catalog the
/// retargeted ISS must carry.
///
/// Windows never contain interior branch targets (the identifier
/// guarantees it), so the replacement preserves semantics; a test below
/// verifies register/memory equivalence on real programs.
///
/// # Errors
///
/// Propagates program-validation failures (which would indicate a bug in
/// the rewriter rather than in user input).
pub fn retarget(
    program: &Program,
    selected: &[Candidate],
) -> Result<(Program, ExtensionCatalog), AsipError> {
    let mut catalog = ExtensionCatalog::new();
    let instrs = program.instructions();
    // Occurrence map: old index -> (window length, opcode) for window starts.
    let mut replace_at: Vec<Option<(usize, usize)>> = vec![None; instrs.len()];
    let targets = program.branch_targets();
    for cand in selected {
        let opcode = catalog.add(cand.op.clone());
        // Replace every exact occurrence of the sequence, not just the
        // profiled one — the "compiler" generalises the pattern.
        let seq = &cand.op.sequence;
        let mut i = 0;
        while i + seq.len() <= instrs.len() {
            let window = &instrs[i..i + seq.len()];
            let interior_target = targets.iter().any(|&t| t > i && t < i + seq.len());
            let already_claimed = (i..i + seq.len()).any(|k| replace_at[k].is_some());
            if window == seq.as_slice() && !interior_target && !already_claimed {
                replace_at[i] = Some((seq.len(), opcode));
                // Mark the tail so overlapping candidates skip it.
                for k in i + 1..i + seq.len() {
                    replace_at[k] = Some((0, usize::MAX));
                }
                i += seq.len();
            } else {
                i += 1;
            }
        }
    }
    // Emit the new instruction stream, building old→new index mapping.
    let mut new_instrs: Vec<Instr> = Vec::with_capacity(instrs.len());
    let mut index_map = vec![usize::MAX; instrs.len() + 1];
    let mut i = 0;
    while i < instrs.len() {
        index_map[i] = new_instrs.len();
        match replace_at[i] {
            Some((len, opcode)) if len > 0 => {
                // Interior instructions map to the custom op itself.
                for k in i..i + len {
                    index_map[k] = new_instrs.len();
                }
                new_instrs.push(Instr::Custom(opcode));
                i += len;
            }
            _ => {
                new_instrs.push(instrs[i]);
                i += 1;
            }
        }
    }
    index_map[instrs.len()] = new_instrs.len();
    // Remap branch targets.
    for instr in &mut new_instrs {
        if let Instr::Branch(_, _, _, t) = instr {
            *t = index_map[*t];
        }
    }
    Ok((Program::new(new_instrs)?, catalog))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extend::Identifier;
    use crate::isa::{Cond, Reg};
    use crate::iss::{Iss, IssConfig};
    use crate::profile::Profile;
    use crate::program::ProgramBuilder;

    /// Builds a FIR-like kernel and returns it.
    fn kernel() -> Program {
        let mut b = ProgramBuilder::new();
        let (i, n, acc, x, c, t) = (Reg(1), Reg(2), Reg(3), Reg(4), Reg(5), Reg(6));
        b.li(n, 64);
        let top = b.place_label();
        b.ld(x, i, 0);
        b.ld(c, i, 1000);
        b.mul(t, x, c);
        b.add(acc, acc, t);
        b.addi(i, i, 1);
        b.branch(Cond::Lt, i, n, top);
        b.st(acc, Reg(0), 2000);
        b.halt();
        b.build().expect("valid")
    }

    fn identify(program: &Program) -> Vec<Candidate> {
        let iss = Iss::new(IssConfig::default(), ExtensionCatalog::new());
        let profile =
            Profile::from_report(&iss.run_with_memory(program, Vec::new()).expect("runs"));
        Identifier::default().candidates(program, &profile)
    }

    #[test]
    fn retargeted_program_is_shorter_and_equivalent() {
        let program = kernel();
        let selected = identify(&program);
        assert!(!selected.is_empty());
        let top = vec![selected[0].clone()];
        let (rewritten, catalog) = retarget(&program, &top).expect("rewrites");
        assert!(rewritten.len() < program.len());
        assert!(!catalog.is_empty());

        // Semantics must be identical: same registers, same memory.
        let mut mem = vec![0i64; 1 << 16];
        for k in 0..64 {
            mem[k] = k as i64;
            mem[1000 + k] = 2;
        }
        let base_iss = Iss::new(IssConfig::default(), ExtensionCatalog::new());
        let fast_iss = Iss::new(IssConfig::default(), catalog);
        let base = base_iss
            .run_with_memory(&program, mem.clone())
            .expect("runs");
        let fast = fast_iss.run_with_memory(&rewritten, mem).expect("runs");
        assert_eq!(base.regs, fast.regs);
        assert_eq!(base.memory, fast.memory);
        assert!(
            fast.cycles < base.cycles,
            "{} !< {}",
            fast.cycles,
            base.cycles
        );
    }

    #[test]
    fn branch_targets_survive_rewriting() {
        let program = kernel();
        let selected = identify(&program);
        let (rewritten, catalog) = retarget(&program, &selected).expect("rewrites");
        // The loop must still iterate 64 times: acc == Σ k·2 = 4032.
        let mut mem = vec![0i64; 1 << 16];
        for k in 0..64 {
            mem[k] = k as i64;
            mem[1000 + k] = 2;
        }
        let r = Iss::new(IssConfig::default(), catalog)
            .run_with_memory(&rewritten, mem)
            .expect("runs");
        assert_eq!(r.memory[2000], 4032);
    }

    #[test]
    fn empty_selection_is_identity() {
        let program = kernel();
        let (rewritten, catalog) = retarget(&program, &[]).expect("rewrites");
        assert_eq!(rewritten, program);
        assert!(catalog.is_empty());
    }

    #[test]
    fn all_occurrences_are_replaced() {
        // The same 3-op pattern appears twice in straight-line code.
        let mut b = ProgramBuilder::new();
        for _ in 0..2 {
            b.add(Reg(1), Reg(1), Reg(2));
            b.mul(Reg(3), Reg(1), Reg(1));
            b.sub(Reg(1), Reg(3), Reg(2));
        }
        b.halt();
        let program = b.build().expect("valid");
        let op = crate::extend::CustomOp::from_window("p", &program.instructions()[0..3])
            .expect("fusible");
        let cand = Candidate {
            at: 0,
            len: 3,
            executions: 1,
            total_saving: op.saved_cycles(),
            op,
        };
        let (rewritten, _) = retarget(&program, &[cand]).expect("rewrites");
        // Both occurrences collapse: 7 instructions → 3.
        assert_eq!(rewritten.len(), 3);
        let customs = rewritten
            .instructions()
            .iter()
            .filter(|i| matches!(i, Instr::Custom(_)))
            .count();
        assert_eq!(customs, 2);
    }
}
