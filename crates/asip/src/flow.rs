//! The Fig. 2 extensible-processor design flow, end to end.
//!
//! Profile → identify (extensions, blocks, parameters) → define →
//! retarget tools → verify constraints → iterate until they hold. The
//! flow's outputs mirror the §3.1 case study: speed-up over the plain
//! base core, number of custom instructions, and total gate count.

use crate::error::AsipError;
use crate::extend::{ExtensionCatalog, Identifier};
use crate::gates::AreaModel;
use crate::iss::{Iss, IssConfig};
use crate::profile::Profile;
use crate::program::Program;
use crate::retarget::retarget;

/// Constraints the customised processor must meet (Fig. 2's "verify"
/// box).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowConstraints {
    /// Maximum number of custom instructions (§3.1: "less than 10").
    pub max_custom_instructions: usize,
    /// Total gate budget including the base core (§3.1: "less than 200k").
    pub gate_budget: u64,
    /// Include the MAC predefined block in the enhanced configuration.
    pub mac_block: bool,
    /// Include the zero-overhead-loop block.
    pub zol_block: bool,
    /// Data-cache size in bytes for the enhanced configuration.
    pub cache_bytes: u64,
}

impl Default for FlowConstraints {
    fn default() -> Self {
        FlowConstraints {
            max_custom_instructions: 10,
            gate_budget: 200_000,
            mac_block: true,
            zol_block: true,
            cache_bytes: 8192,
        }
    }
}

/// The outcome of one complete design-flow run.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowReport {
    /// Cycles of the unmodified base core.
    pub base_cycles: u64,
    /// Cycles of the customised processor on the retargeted program.
    pub enhanced_cycles: u64,
    /// `base_cycles / enhanced_cycles`.
    pub speedup: f64,
    /// Number of custom instructions adopted.
    pub custom_instructions: usize,
    /// Total gate count of the final configuration.
    pub total_gates: u64,
    /// Iterations of the verify loop (candidate set shrinkages).
    pub iterations: usize,
    /// Whether the retargeted program was verified bit-equivalent to the
    /// original (registers and memory at halt).
    pub verified: bool,
    /// Names of the adopted custom instructions.
    pub adopted: Vec<String>,
}

/// Drives the Fig. 2 flow.
#[derive(Debug, Clone, Copy)]
pub struct DesignFlow {
    constraints: FlowConstraints,
    identifier: Identifier,
}

impl DesignFlow {
    /// Creates a flow with the given constraints and a default
    /// identifier.
    #[must_use]
    pub fn new(constraints: FlowConstraints) -> Self {
        DesignFlow {
            constraints,
            identifier: Identifier::default(),
        }
    }

    /// Runs the flow on `program` with the given initial memory image.
    ///
    /// Steps: profile on the plain base core; identify candidate
    /// extensions; select under the instruction and gate budgets;
    /// retarget; verify semantics and constraints; shrink the candidate
    /// set and repeat if the area constraint fails.
    ///
    /// # Errors
    ///
    /// Propagates ISS and rewriting failures.
    pub fn run_with_memory(
        &self,
        program: &Program,
        memory: Vec<i64>,
    ) -> Result<FlowReport, AsipError> {
        let c = self.constraints;
        // 1. Profile on the plain base core (no blocks, no extensions).
        let base_cfg = IssConfig::default();
        let base_iss = Iss::new(base_cfg, ExtensionCatalog::new());
        let base_report = base_iss.run_with_memory(program, memory.clone())?;
        let profile = Profile::from_report(&base_report);

        // 2. Identify.
        let candidates = self.identifier.candidates(program, &profile);

        // Block + cache area is fixed by the constraints; extensions get
        // what remains of the budget.
        let fixed = AreaModel {
            mac_block: c.mac_block,
            zol_block: c.zol_block,
            cache_bytes: c.cache_bytes,
            extension_gates: 0,
        }
        .total_gates();
        let ext_budget = c.gate_budget.saturating_sub(fixed);

        // 3–5. Select → define → retarget → verify; iterate, shrinking
        // the allowed instruction count if the area check fails.
        let mut iterations = 0;
        let mut allowed = c.max_custom_instructions;
        loop {
            iterations += 1;
            let selected = self.identifier.select(&candidates, allowed, ext_budget);
            let (rewritten, catalog) = retarget(program, &selected)?;
            let area = AreaModel {
                mac_block: c.mac_block,
                zol_block: c.zol_block,
                cache_bytes: c.cache_bytes,
                extension_gates: catalog.total_gates(),
            };
            if area.total_gates() > c.gate_budget && allowed > 0 {
                allowed -= 1;
                continue;
            }
            // Retargeted ("generated") tools: an ISS aware of the
            // extensions and blocks.
            let enhanced_cfg = IssConfig {
                mac_block: c.mac_block,
                zero_overhead_loops: c.zol_block,
                cache_words: (c.cache_bytes / 8) as usize,
                ..IssConfig::default()
            };
            let adopted: Vec<String> = catalog.iter().map(|o| o.name.clone()).collect();
            let custom_instructions = catalog.len();
            let enhanced_iss = Iss::new(enhanced_cfg, catalog);
            let enhanced_report = enhanced_iss.run_with_memory(&rewritten, memory.clone())?;
            let verified = enhanced_report.regs == base_report.regs
                && enhanced_report.memory == base_report.memory;
            return Ok(FlowReport {
                base_cycles: base_report.cycles,
                enhanced_cycles: enhanced_report.cycles,
                speedup: base_report.cycles as f64 / enhanced_report.cycles.max(1) as f64,
                custom_instructions,
                total_gates: area.total_gates(),
                iterations,
                verified,
                adopted,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn flow_on_dot_product_speeds_up_and_verifies() {
        let p = workloads::dot_product(128).expect("valid");
        let mut mem = vec![0i64; 1 << 16];
        for k in 0..128 {
            mem[k] = k as i64;
            mem[1000 + k] = 3;
        }
        let report = DesignFlow::new(FlowConstraints::default())
            .run_with_memory(&p, mem)
            .expect("runs");
        assert!(report.verified, "retargeted program must be bit-equivalent");
        assert!(report.speedup > 1.8, "speedup {}", report.speedup); // memory-bound kernel
        assert!(report.custom_instructions >= 1);
        assert!(report.total_gates <= 200_000);
    }

    #[test]
    fn voice_recognition_reproduces_the_headline_claim() {
        // E1: 5–10× speed-up, <10 custom instructions, <200k gates.
        let (n, tones, templates) = (512, 8, 8);
        let p = workloads::voice_recognition(n, tones, templates).expect("valid");
        let mem = workloads::voice_test_memory(n, tones, templates, 1 << 16);
        let report = DesignFlow::new(FlowConstraints::default())
            .run_with_memory(&p, mem)
            .expect("runs");
        assert!(report.verified);
        assert!(
            report.speedup >= 5.0 && report.speedup <= 12.0,
            "speedup {} outside the 5–10× band (12 allows model headroom)",
            report.speedup
        );
        assert!(
            report.custom_instructions < 10,
            "{} instructions",
            report.custom_instructions
        );
        assert!(report.total_gates < 200_000, "{} gates", report.total_gates);
    }

    #[test]
    fn tighter_gate_budget_means_fewer_extensions() {
        let p = workloads::dot_product(128).expect("valid");
        let loose = DesignFlow::new(FlowConstraints::default())
            .run_with_memory(&p, Vec::new())
            .expect("runs");
        let mut tight_c = FlowConstraints::default();
        tight_c.gate_budget = 150_000;
        let tight = DesignFlow::new(tight_c)
            .run_with_memory(&p, Vec::new())
            .expect("runs");
        assert!(tight.total_gates <= 150_000);
        assert!(tight.custom_instructions <= loose.custom_instructions);
        assert!(tight.speedup <= loose.speedup + 1e-9);
    }

    #[test]
    fn zero_budget_flow_still_reports() {
        let p = workloads::dot_product(32).expect("valid");
        let mut c = FlowConstraints::default();
        c.max_custom_instructions = 0;
        c.mac_block = false;
        c.zol_block = false;
        let r = DesignFlow::new(c)
            .run_with_memory(&p, Vec::new())
            .expect("runs");
        assert_eq!(r.custom_instructions, 0);
        // Cache configuration differs from the profiling run, so cycles
        // may differ slightly, but without blocks/extensions there is no
        // speedup mechanism beyond the cache.
        assert!(r.speedup < 2.0);
        assert!(r.verified);
    }
}
