//! Profiling: cycle attribution and hotspot discovery.
//!
//! "Profiling by means of an ISS resembling the target processor unveils
//! the bottlenecks through cycle-accurate simulation i.e. it shows which
//! parts of the application represent the most time consuming ones"
//! (§3.1 / Fig. 2).

use crate::iss::ExecReport;

/// A profiled program: per-PC cycles and execution counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    pc_cycles: Vec<u64>,
    pc_execs: Vec<u64>,
    total_cycles: u64,
}

/// A contiguous hot region of the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotBlock {
    /// First instruction index of the block.
    pub start: usize,
    /// One past the last instruction index.
    pub end: usize,
    /// Total cycles spent in the block.
    pub cycles: u64,
}

impl Profile {
    /// Extracts the profile from an execution report.
    #[must_use]
    pub fn from_report(report: &ExecReport) -> Self {
        Profile {
            pc_cycles: report.pc_cycles.clone(),
            pc_execs: report.pc_execs.clone(),
            total_cycles: report.cycles,
        }
    }

    /// Cycles attributed to instruction `pc` (0 beyond the program).
    #[must_use]
    pub fn cycles(&self, pc: usize) -> u64 {
        self.pc_cycles.get(pc).copied().unwrap_or(0)
    }

    /// Executions of instruction `pc` (0 beyond the program).
    #[must_use]
    pub fn executions(&self, pc: usize) -> u64 {
        self.pc_execs.get(pc).copied().unwrap_or(0)
    }

    /// Total cycles of the run.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Fraction of all cycles spent at instruction `pc`.
    #[must_use]
    pub fn fraction(&self, pc: usize) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.cycles(pc) as f64 / self.total_cycles as f64
        }
    }

    /// Maximal contiguous regions whose instructions each consume at
    /// least `threshold` of total cycles, sorted by descending cycle
    /// count — the Fig. 2 "bottlenecks".
    #[must_use]
    pub fn hot_blocks(&self, threshold: f64) -> Vec<HotBlock> {
        let mut blocks = Vec::new();
        let mut start: Option<usize> = None;
        for pc in 0..self.pc_cycles.len() {
            if self.fraction(pc) >= threshold {
                start.get_or_insert(pc);
            } else if let Some(s) = start.take() {
                blocks.push(self.block(s, pc));
            }
        }
        if let Some(s) = start {
            blocks.push(self.block(s, self.pc_cycles.len()));
        }
        blocks.sort_by(|a, b| b.cycles.cmp(&a.cycles).then(a.start.cmp(&b.start)));
        blocks
    }

    fn block(&self, start: usize, end: usize) -> HotBlock {
        HotBlock {
            start,
            end,
            cycles: self.pc_cycles[start..end].iter().sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extend::ExtensionCatalog;
    use crate::isa::{Cond, Reg};
    use crate::iss::{Iss, IssConfig};
    use crate::program::ProgramBuilder;

    fn profiled_loop() -> Profile {
        let mut b = ProgramBuilder::new();
        b.li(Reg(2), 100);
        let top = b.place_label();
        b.addi(Reg(1), Reg(1), 1);
        b.mul(Reg(3), Reg(1), Reg(1));
        b.branch(Cond::Lt, Reg(1), Reg(2), top);
        b.halt();
        let p = b.build().expect("valid");
        let r = Iss::new(IssConfig::default(), ExtensionCatalog::new())
            .run(&p)
            .expect("runs");
        Profile::from_report(&r)
    }

    #[test]
    fn loop_body_dominates() {
        let p = profiled_loop();
        assert_eq!(p.executions(1), 100);
        assert_eq!(p.executions(0), 1);
        assert!(p.fraction(2) > p.fraction(0)); // mul in loop vs li outside
        assert!(p.total_cycles() > 0);
    }

    #[test]
    fn hot_blocks_cover_the_loop() {
        let p = profiled_loop();
        let blocks = p.hot_blocks(0.05);
        assert!(!blocks.is_empty());
        let top = blocks[0];
        assert!(
            top.start <= 1 && top.end >= 4,
            "block {}..{}",
            top.start,
            top.end
        );
        assert!(top.cycles as f64 / p.total_cycles() as f64 > 0.9);
    }

    #[test]
    fn out_of_range_queries_are_zero() {
        let p = profiled_loop();
        assert_eq!(p.cycles(999), 0);
        assert_eq!(p.executions(999), 0);
        assert_eq!(p.fraction(999), 0.0);
    }

    #[test]
    fn no_hot_blocks_above_everything() {
        let p = profiled_loop();
        assert!(p.hot_blocks(2.0).is_empty());
    }
}
