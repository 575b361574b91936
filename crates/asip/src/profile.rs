//! Profiling: per-instruction execution counts.
//!
//! "Profiling by means of an ISS resembling the target processor unveils
//! the bottlenecks through cycle-accurate simulation i.e. it shows which
//! parts of the application represent the most time consuming ones"
//! (§3.1 / Fig. 2).

use crate::iss::ExecReport;

/// A profiled program: per-PC execution counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    pc_execs: Vec<u64>,
}

impl Profile {
    /// Extracts the profile from an execution report.
    #[must_use]
    pub fn from_report(report: &ExecReport) -> Self {
        Profile {
            pc_execs: report.pc_execs.clone(),
        }
    }

    /// Executions of instruction `pc` (0 beyond the program).
    #[must_use]
    pub fn executions(&self, pc: usize) -> u64 {
        self.pc_execs.get(pc).copied().unwrap_or(0)
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
            .run_with_memory(&p, Vec::new())
            .expect("runs");
        Profile::from_report(&r)
    }

    #[test]
    fn loop_body_dominates() {
        let p = profiled_loop();
        assert_eq!(p.executions(1), 100);
        assert_eq!(p.executions(0), 1);
    }

    #[test]
    fn out_of_range_queries_are_zero() {
        let p = profiled_loop();
        assert_eq!(p.executions(999), 0);
    }
}
