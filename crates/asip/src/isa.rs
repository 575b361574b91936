//! The base instruction set.
//!
//! A small load/store RISC: 32 general-purpose 64-bit registers with
//! `r0` hard-wired to zero, word-addressed data memory, absolute branch
//! targets (resolved from labels by the
//! [`ProgramBuilder`](crate::program::ProgramBuilder)), and a `Custom`
//! opcode slot for the §3.1 instruction extensions.

/// Number of general-purpose registers.
pub const REG_COUNT: u8 = 32;

/// A register name. `Reg(0)` reads as zero and ignores writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(pub u8);

impl Reg {
    /// Whether the register index is within the register file.
    #[must_use]
    pub fn is_valid(self) -> bool {
        self.0 < REG_COUNT
    }
}

/// Branch comparison conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cond {
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
}

/// One machine instruction.
///
/// Branch targets are absolute instruction indices (the builder resolves
/// labels before a [`Program`](crate::program::Program) is produced).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// `dst = a + b`
    Add(Reg, Reg, Reg),
    /// `dst = a - b`
    Sub(Reg, Reg, Reg),
    /// `dst = a * b`
    Mul(Reg, Reg, Reg),
    /// `dst = a + imm`
    Addi(Reg, Reg, i64),
    /// `dst = a >> imm` arithmetic (imm masked to 0..64)
    Shri(Reg, Reg, u8),
    /// `dst = a ^ b`
    Xor(Reg, Reg, Reg),
    /// `dst = imm`
    Li(Reg, i64),
    /// `dst = mem[base + offset]`
    Ld(Reg, Reg, i64),
    /// `mem[base + offset] = src`
    St(Reg, Reg, i64),
    /// Branch to `target` if `cond(a, b)`.
    Branch(Cond, Reg, Reg, usize),
    /// A custom (fused) instruction, by catalog index.
    Custom(usize),
    /// Stop execution.
    Halt,
}

impl Instr {
    /// Base-core cycle cost (before predefined blocks are considered;
    /// see [`IssConfig`](crate::iss::IssConfig) for the block effects).
    ///
    /// Loads/stores report their *hit* cost; cache misses add a penalty
    /// at execution time. `Custom` reports 1 here — the ISS charges the
    /// catalog-defined cost instead.
    #[must_use]
    pub fn base_cycles(&self) -> u64 {
        match self {
            Instr::Mul(..) => 3,
            Instr::Ld(..) | Instr::St(..) => 1,
            _ => 1,
        }
    }

    /// Whether the instruction can be absorbed into a fused custom
    /// instruction: straight-line data processing and memory access, but
    /// no control flow and no further nesting of custom ops.
    #[must_use]
    pub fn is_fusible(&self) -> bool {
        !matches!(self, Instr::Branch(..) | Instr::Custom(_) | Instr::Halt)
    }

    /// Registers written by the instruction (`r0` writes are discarded
    /// at execution time but still reported here).
    #[must_use]
    pub fn defs(&self) -> Vec<Reg> {
        match *self {
            Instr::Add(d, ..)
            | Instr::Sub(d, ..)
            | Instr::Mul(d, ..)
            | Instr::Addi(d, ..)
            | Instr::Shri(d, ..)
            | Instr::Xor(d, ..)
            | Instr::Li(d, _)
            | Instr::Ld(d, ..) => vec![d],
            _ => vec![],
        }
    }

    /// Registers read by the instruction.
    #[must_use]
    pub fn uses(&self) -> Vec<Reg> {
        match *self {
            Instr::Add(_, a, b)
            | Instr::Sub(_, a, b)
            | Instr::Mul(_, a, b)
            | Instr::Xor(_, a, b) => vec![a, b],
            Instr::Addi(_, a, _) | Instr::Shri(_, a, _) => vec![a],
            Instr::Ld(_, base, _) => vec![base],
            Instr::St(src, base, _) => vec![src, base],
            Instr::Branch(_, a, b, _) => vec![a, b],
            _ => vec![],
        }
    }

    /// Whether this is a memory access.
    #[must_use]
    pub fn is_memory(&self) -> bool {
        matches!(self, Instr::Ld(..) | Instr::St(..))
    }

    /// Whether this is a multiply (relevant to the MAC block and to
    /// datapath slot accounting).
    #[must_use]
    pub fn is_multiply(&self) -> bool {
        matches!(self, Instr::Mul(..))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_validity() {
        assert!(Reg(0).is_valid());
        assert!(Reg(31).is_valid());
        assert!(!Reg(32).is_valid());
    }

    #[test]
    fn cycle_costs() {
        assert_eq!(Instr::Add(Reg(1), Reg(2), Reg(3)).base_cycles(), 1);
        assert_eq!(Instr::Mul(Reg(1), Reg(2), Reg(3)).base_cycles(), 3);
        assert_eq!(Instr::Ld(Reg(1), Reg(2), 0).base_cycles(), 1);
    }

    #[test]
    fn fusibility() {
        assert!(Instr::Add(Reg(1), Reg(2), Reg(3)).is_fusible());
        assert!(Instr::Ld(Reg(1), Reg(2), 0).is_fusible());
        assert!(!Instr::Branch(Cond::Lt, Reg(1), Reg(2), 0).is_fusible());
        assert!(!Instr::Custom(0).is_fusible());
        assert!(!Instr::Halt.is_fusible());
    }

    #[test]
    fn def_use_sets() {
        let add = Instr::Add(Reg(1), Reg(2), Reg(3));
        assert_eq!(add.defs(), vec![Reg(1)]);
        assert_eq!(add.uses(), vec![Reg(2), Reg(3)]);
        let st = Instr::St(Reg(4), Reg(5), 8);
        assert!(st.defs().is_empty());
        assert_eq!(st.uses(), vec![Reg(4), Reg(5)]);
        let br = Instr::Branch(Cond::Lt, Reg(6), Reg(7), 3);
        assert!(br.defs().is_empty());
        assert_eq!(br.uses(), vec![Reg(6), Reg(7)]);
    }

    #[test]
    fn classifications() {
        assert!(Instr::Ld(Reg(1), Reg(0), 0).is_memory());
        assert!(!Instr::Add(Reg(1), Reg(0), Reg(0)).is_memory());
        assert!(Instr::Mul(Reg(1), Reg(0), Reg(0)).is_multiply());
    }
}
