//! Custom-instruction identification and selection.
//!
//! §3.1(a): "The designer has the choice to freely define highly
//! customized multimedia instructions ... the complexity of an
//! instruction (in terms of number of cycles for execution) may be
//! limited in order to integrate the resulting data path into the
//! existing pipeline architecture of the base core. ... Other
//! restrictions may constrain the total number of extensible
//! instructions."
//!
//! A [`CustomOp`] fuses a straight-line window of base instructions into
//! one instruction. The fused datapath executes up to [`ALU_SLOTS`]
//! chained ALU operations per cycle (multiplies occupy two slots) and
//! [`MEM_PORTS`] memory accesses per cycle, so the fused cycle count is
//!
//! ```text
//! cycles = max(1, ceil(alu_slots / ALU_SLOTS), ceil(mem_ops / MEM_PORTS))
//! ```
//!
//! [`Identifier`] mines a profiled program for profitable windows and
//! greedily selects a set under the instruction-count and gate budgets.

use crate::error::AsipError;
use crate::gates;
use crate::isa::Instr;
use crate::profile::Profile;
use crate::program::Program;

/// Chained ALU operations the fused datapath completes per cycle.
pub const ALU_SLOTS: u64 = 6;
/// Memory accesses the fused datapath issues per cycle.
pub const MEM_PORTS: u64 = 2;
/// Longest instruction window a single extension may fuse.
pub const MAX_WINDOW: usize = 16;

/// One custom (fused) instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct CustomOp {
    /// Descriptive name (e.g. `fuse@14x5`).
    pub name: String,
    /// The exact base-instruction sequence this op replaces and whose
    /// semantics it implements.
    pub sequence: Vec<Instr>,
    /// Execution cycles of the fused datapath.
    pub cycles: u64,
    /// Datapath area in gate equivalents.
    pub gates: u64,
}

impl CustomOp {
    /// Builds a custom op from an instruction window.
    ///
    /// # Errors
    ///
    /// Returns [`AsipError::InvalidParameter`] if the window is empty,
    /// longer than [`MAX_WINDOW`], or contains non-fusible instructions.
    pub fn from_window(name: impl Into<String>, window: &[Instr]) -> Result<Self, AsipError> {
        if window.is_empty() || window.len() > MAX_WINDOW {
            return Err(AsipError::InvalidParameter("window length"));
        }
        if window.iter().any(|i| !i.is_fusible()) {
            return Err(AsipError::InvalidParameter("window contains control flow"));
        }
        let mut alu_slots = 0u64;
        let mut mem_ops = 0u64;
        for i in window {
            if i.is_memory() {
                mem_ops += 1;
            } else if i.is_multiply() {
                alu_slots += 2;
            } else {
                alu_slots += 1;
            }
        }
        let cycles = 1
            .max(alu_slots.div_ceil(ALU_SLOTS))
            .max(mem_ops.div_ceil(MEM_PORTS));
        Ok(CustomOp {
            name: name.into(),
            sequence: window.to_vec(),
            cycles,
            gates: gates::custom_op_gates(window),
        })
    }

    /// Cycles the equivalent base-instruction sequence takes (cache hits
    /// assumed).
    #[must_use]
    pub fn base_cycles(&self) -> u64 {
        self.sequence.iter().map(Instr::base_cycles).sum()
    }

    /// Cycles saved per execution.
    #[must_use]
    pub fn saved_cycles(&self) -> u64 {
        self.base_cycles().saturating_sub(self.cycles)
    }
}

/// The set of custom instructions a processor configuration carries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExtensionCatalog {
    ops: Vec<CustomOp>,
}

impl ExtensionCatalog {
    /// Creates an empty catalog.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an op, returning its opcode index.
    pub fn add(&mut self, op: CustomOp) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    /// Looks up an op by opcode.
    ///
    /// # Errors
    ///
    /// Returns [`AsipError::UnknownCustomOp`] for an unknown opcode.
    pub fn op(&self, opcode: usize) -> Result<&CustomOp, AsipError> {
        self.ops
            .get(opcode)
            .ok_or(AsipError::UnknownCustomOp(opcode))
    }

    /// Number of custom instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the catalog is empty.
    ///
    /// Kept beside the used `len`: clippy's `len_without_is_empty`
    /// requires it.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Iterates over the ops in opcode order.
    pub fn iter(&self) -> impl Iterator<Item = &CustomOp> {
        self.ops.iter()
    }

    /// Total datapath area of all extensions, in gate equivalents.
    #[must_use]
    pub fn total_gates(&self) -> u64 {
        self.ops.iter().map(|o| o.gates).sum()
    }
}

/// A profitable candidate window found by the identifier.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Start index of the window in the program.
    pub at: usize,
    /// Window length in instructions.
    pub len: usize,
    /// Executions observed in the profile.
    pub executions: u64,
    /// Total cycles this candidate would save.
    pub total_saving: u64,
    /// The op that would implement it.
    pub op: CustomOp,
}

/// Mines profiles for custom-instruction candidates (the "Identify" box
/// of Fig. 2).
#[derive(Debug, Clone, Copy)]
pub struct Identifier {
    /// Longest window considered.
    pub max_window: usize,
    /// Minimum executions for a window to be considered hot.
    pub min_executions: u64,
}

impl Default for Identifier {
    fn default() -> Self {
        Identifier {
            max_window: MAX_WINDOW,
            min_executions: 2,
        }
    }
}

impl Identifier {
    /// Finds the best non-overlapping candidate windows in `program`
    /// given its `profile`, most profitable first.
    ///
    /// A window must be straight-line (fusible instructions only) and
    /// must not contain a branch target after its first instruction —
    /// otherwise jumping into the middle of the fused op would change
    /// semantics.
    #[must_use]
    pub fn candidates(&self, program: &Program, profile: &Profile) -> Vec<Candidate> {
        let instrs = program.instructions();
        let targets = program.branch_targets();
        let is_target = |i: usize| targets.binary_search(&i).is_ok();
        let mut found: Vec<Candidate> = Vec::new();
        let n = instrs.len();
        for start in 0..n {
            if profile.executions(start) < self.min_executions {
                continue;
            }
            let max_len = self.max_window.min(MAX_WINDOW);
            let mut len = 0;
            while start + len < n && len < max_len {
                let idx = start + len;
                if !instrs[idx].is_fusible() {
                    break;
                }
                if len > 0 && is_target(idx) {
                    break;
                }
                // All instructions in a window must execute together.
                if profile.executions(idx) != profile.executions(start) {
                    break;
                }
                len += 1;
                if len >= 2 {
                    let window = &instrs[start..start + len];
                    if let Ok(op) = CustomOp::from_window(format!("fuse@{start}x{len}"), window) {
                        let saving = op.saved_cycles() * profile.executions(start);
                        if saving > 0 {
                            found.push(Candidate {
                                at: start,
                                len,
                                executions: profile.executions(start),
                                total_saving: saving,
                                op,
                            });
                        }
                    }
                }
            }
        }
        // Most profitable first; deterministic tie-break by position.
        found.sort_by(|a, b| {
            b.total_saving
                .cmp(&a.total_saving)
                .then(a.at.cmp(&b.at))
                .then(a.len.cmp(&b.len))
        });
        // Keep only non-overlapping windows, preferring the profitable ones.
        let mut taken: Vec<(usize, usize)> = Vec::new();
        found.retain(|c| {
            let overlaps = taken.iter().any(|&(s, l)| c.at < s + l && s < c.at + c.len);
            if overlaps {
                false
            } else {
                taken.push((c.at, c.len));
                true
            }
        });
        found
    }

    /// Greedily selects candidates under the §3.1 restrictions: at most
    /// `max_instructions` extensions and at most `gate_budget` gates of
    /// extension datapath.
    #[must_use]
    pub fn select(
        &self,
        candidates: &[Candidate],
        max_instructions: usize,
        gate_budget: u64,
    ) -> Vec<Candidate> {
        let mut chosen = Vec::new();
        let mut gates_used = 0u64;
        for c in candidates {
            if chosen.len() >= max_instructions {
                break;
            }
            if gates_used + c.op.gates > gate_budget {
                continue;
            }
            gates_used += c.op.gates;
            chosen.push(c.clone());
        }
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Cond, Reg};
    use crate::iss::{Iss, IssConfig};
    use crate::program::ProgramBuilder;

    fn mac_loop(n: i64) -> Program {
        // acc += a[i] * b[i] over n elements at mem[0..n] and mem[n..2n].
        let mut b = ProgramBuilder::new();
        let (i, acc, nr, ai, bi, t0, t1) = (Reg(1), Reg(2), Reg(3), Reg(4), Reg(5), Reg(6), Reg(7));
        b.li(nr, n);
        let top = b.place_label();
        b.ld(ai, i, 0);
        b.addi(t0, i, 0); // address of b[i] via i + n
        b.addi(t1, t0, 0); // filler ALU op
        b.ld(bi, i, 100);
        b.mul(t0, ai, bi);
        b.add(acc, acc, t0);
        b.addi(i, i, 1);
        b.branch(Cond::Lt, i, nr, top);
        b.halt();
        b.build().expect("valid")
    }

    #[test]
    fn custom_op_cycle_model() {
        // 4 ALU + 2 loads: max(ceil(4/6), ceil(2/2)) = 1 cycle.
        let w = [
            Instr::Ld(Reg(1), Reg(2), 0),
            Instr::Ld(Reg(3), Reg(4), 0),
            Instr::Add(Reg(5), Reg(1), Reg(3)),
            Instr::Add(Reg(6), Reg(5), Reg(5)),
            Instr::Sub(Reg(7), Reg(6), Reg(1)),
            Instr::Xor(Reg(8), Reg(7), Reg(3)),
        ];
        let op = CustomOp::from_window("w", &w).expect("fusible");
        assert_eq!(op.cycles, 1);
        assert_eq!(op.base_cycles(), 6);
        assert_eq!(op.saved_cycles(), 5);
    }

    #[test]
    fn multiplies_occupy_two_slots() {
        let w = [
            Instr::Mul(Reg(1), Reg(2), Reg(3)),
            Instr::Mul(Reg(4), Reg(5), Reg(6)),
            Instr::Mul(Reg(7), Reg(8), Reg(9)),
            Instr::Add(Reg(10), Reg(1), Reg(4)),
        ];
        // 3 muls × 2 + 1 add = 7 slots → 2 cycles.
        let op = CustomOp::from_window("w", &w).expect("fusible");
        assert_eq!(op.cycles, 2);
    }

    #[test]
    fn control_flow_is_not_fusible() {
        let w = [Instr::Add(Reg(1), Reg(2), Reg(3)), Instr::Halt];
        assert!(CustomOp::from_window("w", &w).is_err());
        assert!(CustomOp::from_window("w", &[]).is_err());
    }

    #[test]
    fn identifier_finds_the_loop_body() {
        let program = mac_loop(50);
        let iss = Iss::new(IssConfig::default(), ExtensionCatalog::new());
        let report = iss.run_with_memory(&program, Vec::new()).expect("runs");
        let profile = Profile::from_report(&report);
        let cands = Identifier::default().candidates(&program, &profile);
        assert!(!cands.is_empty(), "hot loop body should yield candidates");
        // The top candidate covers the loop body (instructions 1..=7).
        let top = &cands[0];
        assert!(
            top.at >= 1 && top.at + top.len <= 8,
            "window {}..{}",
            top.at,
            top.at + top.len
        );
        assert!(top.executions >= 50);
        assert!(top.total_saving > 0);
    }

    #[test]
    fn selection_respects_budgets() {
        let program = mac_loop(50);
        let iss = Iss::new(IssConfig::default(), ExtensionCatalog::new());
        let profile =
            Profile::from_report(&iss.run_with_memory(&program, Vec::new()).expect("runs"));
        let ident = Identifier::default();
        let cands = ident.candidates(&program, &profile);
        assert!(ident.select(&cands, 0, u64::MAX).is_empty());
        let one = ident.select(&cands, 1, u64::MAX);
        assert_eq!(one.len(), 1);
        let none = ident.select(&cands, 10, 0);
        assert!(none.is_empty(), "zero gate budget admits nothing");
    }

    #[test]
    fn catalog_round_trip() {
        let mut cat = ExtensionCatalog::new();
        let op = CustomOp::from_window(
            "x",
            &[
                Instr::Add(Reg(1), Reg(2), Reg(3)),
                Instr::Add(Reg(4), Reg(1), Reg(3)),
            ],
        )
        .expect("fusible");
        let id = cat.add(op.clone());
        assert_eq!(cat.op(id).expect("exists"), &op);
        assert!(cat.op(99).is_err());
        assert_eq!(cat.total_gates(), op.gates);
        assert_eq!(cat.len(), 1);
    }
}
