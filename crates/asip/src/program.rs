//! Programs and the label-resolving builder.

use crate::error::AsipError;
use crate::isa::{Cond, Instr, Reg};

/// A forward-referenceable code label handed out by
/// [`ProgramBuilder::label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

/// A finished program: instructions with resolved absolute branch
/// targets.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    instrs: Vec<Instr>,
}

impl Program {
    /// Creates a program directly from resolved instructions.
    ///
    /// # Errors
    ///
    /// Returns [`AsipError::BadRegister`] or
    /// [`AsipError::UnresolvedLabel`] (for a branch target outside the
    /// program) if validation fails.
    pub fn new(instrs: Vec<Instr>) -> Result<Self, AsipError> {
        let len = instrs.len();
        for instr in &instrs {
            for r in instr.defs().into_iter().chain(instr.uses()) {
                if !r.is_valid() {
                    return Err(AsipError::BadRegister(r.0));
                }
            }
            match instr {
                Instr::Branch(_, _, _, t) if *t >= len => {
                    return Err(AsipError::UnresolvedLabel(*t));
                }
                _ => {}
            }
        }
        Ok(Program { instrs })
    }

    /// The instruction sequence.
    #[must_use]
    pub fn instructions(&self) -> &[Instr] {
        &self.instrs
    }

    /// Program length in instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program is empty.
    ///
    /// Kept beside the used `len`: clippy's `len_without_is_empty`
    /// requires it.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// All instruction indices that are branch/jump targets.
    #[must_use]
    pub fn branch_targets(&self) -> Vec<usize> {
        let mut targets: Vec<usize> = self
            .instrs
            .iter()
            .filter_map(|i| match i {
                Instr::Branch(_, _, _, t) => Some(*t),
                _ => None,
            })
            .collect();
        targets.sort_unstable();
        targets.dedup();
        targets
    }
}

/// Builds a [`Program`] with symbolic labels.
///
/// # Examples
///
/// A loop summing `0..10`:
///
/// ```
/// use dms_asip::isa::{Cond, Reg};
/// use dms_asip::program::ProgramBuilder;
///
/// # fn main() -> Result<(), dms_asip::AsipError> {
/// let mut b = ProgramBuilder::new();
/// let (i, acc, n) = (Reg(1), Reg(2), Reg(3));
/// b.li(n, 10);
/// let top = b.place_label();
/// b.add(acc, acc, i);
/// b.addi(i, i, 1);
/// b.branch(Cond::Lt, i, n, top);
/// b.halt();
/// let program = b.build()?;
/// assert_eq!(program.len(), 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    instrs: Vec<Instr>,
    /// `labels[l]` = resolved instruction index, once placed.
    labels: Vec<Option<usize>>,
    /// `(instruction index, label)` pairs to patch at build time.
    patches: Vec<(usize, usize)>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a label to be placed later with
    /// [`ProgramBuilder::place`].
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Places `label` at the current position.
    pub fn place(&mut self, label: Label) {
        self.labels[label.0] = Some(self.instrs.len());
    }

    /// Allocates and immediately places a label (for loop tops).
    pub fn place_label(&mut self) -> Label {
        let l = self.label();
        self.place(l);
        l
    }

    /// `dst = a + b`
    pub fn add(&mut self, dst: Reg, a: Reg, b: Reg) -> &mut Self {
        self.instrs.push(Instr::Add(dst, a, b));
        self
    }

    /// `dst = a - b`
    pub fn sub(&mut self, dst: Reg, a: Reg, b: Reg) -> &mut Self {
        self.instrs.push(Instr::Sub(dst, a, b));
        self
    }

    /// `dst = a * b`
    pub fn mul(&mut self, dst: Reg, a: Reg, b: Reg) -> &mut Self {
        self.instrs.push(Instr::Mul(dst, a, b));
        self
    }

    /// `dst = a + imm`
    pub fn addi(&mut self, dst: Reg, a: Reg, imm: i64) -> &mut Self {
        self.instrs.push(Instr::Addi(dst, a, imm));
        self
    }

    /// `dst = a >> imm` (arithmetic)
    pub fn shri(&mut self, dst: Reg, a: Reg, imm: u8) -> &mut Self {
        self.instrs.push(Instr::Shri(dst, a, imm));
        self
    }

    /// `dst = a ^ b`
    pub fn xor(&mut self, dst: Reg, a: Reg, b: Reg) -> &mut Self {
        self.instrs.push(Instr::Xor(dst, a, b));
        self
    }

    /// `dst = imm`
    pub fn li(&mut self, dst: Reg, imm: i64) -> &mut Self {
        self.instrs.push(Instr::Li(dst, imm));
        self
    }

    /// `dst = mem[base + offset]`
    pub fn ld(&mut self, dst: Reg, base: Reg, offset: i64) -> &mut Self {
        self.instrs.push(Instr::Ld(dst, base, offset));
        self
    }

    /// `mem[base + offset] = src`
    pub fn st(&mut self, src: Reg, base: Reg, offset: i64) -> &mut Self {
        self.instrs.push(Instr::St(src, base, offset));
        self
    }

    /// Conditional branch to `label`.
    pub fn branch(&mut self, cond: Cond, a: Reg, b: Reg, label: Label) -> &mut Self {
        self.patches.push((self.instrs.len(), label.0));
        self.instrs.push(Instr::Branch(cond, a, b, usize::MAX));
        self
    }

    /// Stop.
    pub fn halt(&mut self) -> &mut Self {
        self.instrs.push(Instr::Halt);
        self
    }

    /// Resolves labels and validates the program.
    ///
    /// # Errors
    ///
    /// * [`AsipError::UnresolvedLabel`] if a referenced label was never
    ///   placed.
    /// * [`AsipError::BadRegister`] if any instruction names a register
    ///   outside the file.
    pub fn build(mut self) -> Result<Program, AsipError> {
        for (at, label) in &self.patches {
            let target = self.labels[*label].ok_or(AsipError::UnresolvedLabel(*label))?;
            match &mut self.instrs[*at] {
                Instr::Branch(_, _, _, t) => *t = target,
                other => unreachable!("patch points at non-branch {other:?}"),
            }
        }
        Program::new(self.instrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_resolves_forward_and_backward_labels() {
        let mut b = ProgramBuilder::new();
        let end = b.label();
        let top = b.place_label();
        b.addi(Reg(1), Reg(1), 1);
        b.branch(Cond::Ge, Reg(1), Reg(2), end);
        b.branch(Cond::Ge, Reg(0), Reg(0), top);
        b.place(end);
        b.halt();
        let p = b.build().expect("labels placed");
        match p.instructions()[1] {
            Instr::Branch(_, _, _, t) => assert_eq!(t, 3),
            ref other => panic!("expected branch, got {other:?}"),
        }
        match p.instructions()[2] {
            Instr::Branch(_, _, _, t) => assert_eq!(t, 0),
            ref other => panic!("expected branch, got {other:?}"),
        }
    }

    #[test]
    fn unplaced_label_fails() {
        let mut b = ProgramBuilder::new();
        let ghost = b.label();
        b.branch(Cond::Ge, Reg(0), Reg(0), ghost);
        assert!(matches!(b.build(), Err(AsipError::UnresolvedLabel(_))));
    }

    #[test]
    fn bad_register_fails() {
        let p = Program::new(vec![Instr::Add(Reg(40), Reg(0), Reg(0)), Instr::Halt]);
        assert_eq!(p.expect_err("r40 invalid"), AsipError::BadRegister(40));
    }

    #[test]
    fn out_of_range_target_fails() {
        let p = Program::new(vec![
            Instr::Branch(Cond::Ge, Reg(0), Reg(0), 5),
            Instr::Halt,
        ]);
        assert!(matches!(p, Err(AsipError::UnresolvedLabel(5))));
    }

    #[test]
    fn branch_targets_collected() {
        let mut b = ProgramBuilder::new();
        let top = b.place_label();
        b.addi(Reg(1), Reg(1), 1);
        b.branch(Cond::Lt, Reg(1), Reg(2), top);
        b.halt();
        let p = b.build().expect("valid");
        assert_eq!(p.branch_targets(), vec![0]);
    }

    #[test]
    fn empty_program_is_fine() {
        let p = Program::new(vec![]).expect("empty is valid");
        assert!(p.is_empty());
        assert!(p.branch_targets().is_empty());
    }
}
