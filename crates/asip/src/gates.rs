//! Gate-equivalent area model.
//!
//! §3.1's example system: "a base processor core enhanced with less than
//! 10 low-complexity custom instructions ... at a total gate count less
//! than 200k". The constants here put the base core at 110k gates and
//! typical extensions at a few thousand gates each, so a full
//! configuration lands in the same ballpark. Absolute numbers are
//! order-of-magnitude estimates (documented substitution for synthesis
//! results); every experiment uses them only *relatively*.

use crate::isa::Instr;

/// Gate cost of the base processor core.
pub const BASE_CORE_GATES: u64 = 80_000;
/// Gate cost of the multiply-accumulate predefined block.
pub const MAC_BLOCK_GATES: u64 = 10_000;
/// Gate cost of the zero-overhead-loop predefined block.
pub const ZOL_BLOCK_GATES: u64 = 3_000;
/// Gate cost per kilobyte of cache (tags + SRAM periphery).
pub const CACHE_GATES_PER_KB: u64 = 4_000;
/// Decode/dispatch overhead per custom instruction.
pub const CUSTOM_DECODE_GATES: u64 = 600;

/// Datapath gates of one fused operation.
#[must_use]
pub fn op_gates(instr: &Instr) -> u64 {
    match instr {
        Instr::Mul(..) => 8_000, // fixed-point audio-width multiplier
        Instr::Add(..) | Instr::Sub(..) | Instr::Addi(..) => 2_200,
        Instr::Shri(..) => 1_400,
        Instr::Xor(..) | Instr::Li(..) => 900,
        Instr::Ld(..) | Instr::St(..) => 3_000,
        // Control flow and custom ops never appear inside a window.
        _ => 0,
    }
}

/// Total datapath gates of a custom-instruction window, including its
/// decode overhead.
#[must_use]
pub fn custom_op_gates(window: &[Instr]) -> u64 {
    CUSTOM_DECODE_GATES + window.iter().map(op_gates).sum::<u64>()
}

/// The area model of one processor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AreaModel {
    /// Whether the MAC predefined block is included.
    pub mac_block: bool,
    /// Whether the zero-overhead-loop block is included.
    pub zol_block: bool,
    /// Data-cache size in bytes.
    pub cache_bytes: u64,
    /// Extension-datapath gates (from the catalog).
    pub extension_gates: u64,
}

impl AreaModel {
    /// Total gate count of the configuration.
    #[must_use]
    pub fn total_gates(&self) -> u64 {
        BASE_CORE_GATES
            + if self.mac_block { MAC_BLOCK_GATES } else { 0 }
            + if self.zol_block { ZOL_BLOCK_GATES } else { 0 }
            + self.cache_bytes.div_ceil(1024) * CACHE_GATES_PER_KB
            + self.extension_gates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Reg;

    #[test]
    fn multiplier_dominates_window_cost() {
        let mul = op_gates(&Instr::Mul(Reg(1), Reg(2), Reg(3)));
        let add = op_gates(&Instr::Add(Reg(1), Reg(2), Reg(3)));
        assert!(mul > 3 * add);
    }

    #[test]
    fn window_cost_includes_decode() {
        let w = [Instr::Add(Reg(1), Reg(2), Reg(3))];
        assert_eq!(custom_op_gates(&w), CUSTOM_DECODE_GATES + 2_200);
        assert_eq!(custom_op_gates(&[]), CUSTOM_DECODE_GATES);
    }

    #[test]
    fn control_flow_costs_nothing() {
        assert_eq!(op_gates(&Instr::Halt), 0);
        assert_eq!(op_gates(&Instr::Halt), 0);
    }

    #[test]
    fn typical_configuration_stays_under_200k() {
        // Base + MAC + ZOL + 8 KB cache + ~8 modest extensions.
        let model = AreaModel {
            mac_block: true,
            zol_block: true,
            cache_bytes: 8192,
            extension_gates: 8 * 6_000,
        };
        assert!(
            model.total_gates() < 200_000,
            "total {}",
            model.total_gates()
        );
        assert!(model.total_gates() > BASE_CORE_GATES);
    }

    #[test]
    fn cache_rounds_up_to_kb() {
        let a = AreaModel {
            mac_block: false,
            zol_block: false,
            cache_bytes: 1,
            extension_gates: 0,
        };
        let b = AreaModel {
            mac_block: false,
            zol_block: false,
            cache_bytes: 1024,
            extension_gates: 0,
        };
        assert_eq!(a.total_gates(), b.total_gates());
    }
}
