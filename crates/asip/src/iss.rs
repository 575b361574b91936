//! The cycle-accurate instruction-set simulator.
//!
//! The "Profiling by means of an ISS" box of Fig. 2: the ISS executes a
//! program, attributing cycles to each program counter so the designer
//! can see "which parts of the application represent the most time
//! consuming ones". It models the three §3.1 customisation levels:
//!
//! * custom instructions (executed from an [`ExtensionCatalog`], charged
//!   their fused cycle cost);
//! * predefined blocks — a MAC unit (single-cycle multiply) and
//!   zero-overhead loops (free backward taken branches);
//! * parameters — data-cache size (direct-mapped, 4-word lines) and
//!   memory size.

use crate::error::AsipError;
use crate::extend::ExtensionCatalog;
use crate::isa::{Cond, Instr, Reg, REG_COUNT};
use crate::program::Program;

/// ISS configuration: predefined blocks and parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IssConfig {
    /// Data-memory size in 64-bit words.
    pub mem_words: usize,
    /// Data-cache size in 64-bit words (0 disables the cache: every
    /// access pays the miss penalty).
    pub cache_words: usize,
    /// Extra cycles for a cache miss.
    pub cache_miss_penalty: u64,
    /// MAC predefined block: multiplies take 1 cycle instead of 3.
    pub mac_block: bool,
    /// Zero-overhead-loop block: taken backward branches cost 0 extra.
    pub zero_overhead_loops: bool,
    /// Maximum instructions to execute before aborting.
    pub fuel: u64,
}

impl Default for IssConfig {
    fn default() -> Self {
        IssConfig {
            mem_words: 1 << 16,
            cache_words: 256,
            cache_miss_penalty: 10,
            mac_block: false,
            zero_overhead_loops: false,
            fuel: 100_000_000,
        }
    }
}

/// The result of executing a program.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecReport {
    /// Total cycles consumed.
    pub cycles: u64,
    /// Instructions executed (custom ops count once).
    pub instructions: u64,
    /// Cycles attributed to each program counter.
    pub pc_cycles: Vec<u64>,
    /// Execution count of each program counter.
    pub pc_execs: Vec<u64>,
    /// Final register file.
    pub regs: Vec<i64>,
    /// Final data memory.
    pub memory: Vec<i64>,
    /// Cache hits observed.
    pub cache_hits: u64,
    /// Cache misses observed.
    pub cache_misses: u64,
}

/// Words per cache line.
const LINE_WORDS: usize = 4;

/// Direct-mapped data cache (tags only; data lives in `memory`).
#[derive(Debug, Clone)]
struct Cache {
    tags: Vec<Option<usize>>,
}

impl Cache {
    fn new(cache_words: usize) -> Option<Self> {
        if cache_words < LINE_WORDS {
            return None;
        }
        Some(Cache {
            tags: vec![None; cache_words / LINE_WORDS],
        })
    }

    /// Returns `true` on hit and updates the tag on miss.
    fn access(&mut self, addr: usize) -> bool {
        let line = addr / LINE_WORDS;
        let idx = line % self.tags.len();
        if self.tags[idx] == Some(line) {
            true
        } else {
            self.tags[idx] = Some(line);
            false
        }
    }
}

/// The instruction-set simulator.
#[derive(Debug, Clone)]
pub struct Iss {
    config: IssConfig,
    catalog: ExtensionCatalog,
}

impl Iss {
    /// Creates a simulator for a processor configuration.
    #[must_use]
    pub fn new(config: IssConfig, catalog: ExtensionCatalog) -> Self {
        Iss { config, catalog }
    }

    /// Runs `program` on the given initial memory (resized to the
    /// configured word count).
    ///
    /// # Errors
    ///
    /// * [`AsipError::MemoryFault`] for out-of-range accesses.
    /// * [`AsipError::OutOfFuel`] if the fuel budget is exhausted.
    /// * [`AsipError::MissingHalt`] if execution falls off the end.
    /// * [`AsipError::UnknownCustomOp`] for an opcode missing from the
    ///   catalog.
    pub fn run_with_memory(
        &self,
        program: &Program,
        mut memory: Vec<i64>,
    ) -> Result<ExecReport, AsipError> {
        memory.resize(self.config.mem_words, 0);
        let mut regs = vec![0i64; REG_COUNT as usize];
        let mut cache = Cache::new(self.config.cache_words);
        let mut pc = 0usize;
        let mut cycles = 0u64;
        let mut instructions = 0u64;
        let n = program.len();
        let mut pc_cycles = vec![0u64; n];
        let mut pc_execs = vec![0u64; n];
        let mut cache_hits = 0u64;
        let mut cache_misses = 0u64;
        let instrs = program.instructions();

        while pc < n {
            if instructions >= self.config.fuel {
                return Err(AsipError::OutOfFuel {
                    executed: instructions,
                });
            }
            let instr = instrs[pc];
            instructions += 1;
            pc_execs[pc] += 1;
            let mut cost;
            let mut next_pc = pc + 1;
            match instr {
                Instr::Halt => {
                    pc_cycles[pc] += 1;
                    cycles += 1;
                    return Ok(ExecReport {
                        cycles,
                        instructions,
                        pc_cycles,
                        pc_execs,
                        regs,
                        memory,
                        cache_hits,
                        cache_misses,
                    });
                }
                Instr::Custom(opcode) => {
                    let op = self.catalog.op(opcode)?.clone();
                    cost = op.cycles;
                    for sub in &op.sequence {
                        let mem_extra = Self::exec_data(
                            *sub,
                            &mut regs,
                            &mut memory,
                            &mut cache,
                            self.config.cache_miss_penalty,
                            &mut cache_hits,
                            &mut cache_misses,
                        )?;
                        cost += mem_extra;
                    }
                }
                Instr::Branch(cond, a, b, target) => {
                    cost = 1;
                    let av = regs[a.0 as usize];
                    let bv = regs[b.0 as usize];
                    let taken = match cond {
                        Cond::Lt => av < bv,
                        Cond::Ge => av >= bv,
                    };
                    if taken {
                        // Pipeline bubble on taken branches, except for
                        // hardware (zero-overhead) loops branching back.
                        if !(self.config.zero_overhead_loops && target <= pc) {
                            cost += 1;
                        }
                        next_pc = target;
                    }
                }
                other => {
                    cost = if other.is_multiply() && self.config.mac_block {
                        1
                    } else {
                        other.base_cycles()
                    };
                    let mem_extra = Self::exec_data(
                        other,
                        &mut regs,
                        &mut memory,
                        &mut cache,
                        self.config.cache_miss_penalty,
                        &mut cache_hits,
                        &mut cache_misses,
                    )?;
                    cost += mem_extra;
                }
            }
            pc_cycles[pc] += cost;
            cycles += cost;
            pc = next_pc;
        }
        Err(AsipError::MissingHalt)
    }

    /// Executes one data (non-control) instruction; returns the extra
    /// memory cycles incurred (cache miss penalties).
    fn exec_data(
        instr: Instr,
        regs: &mut [i64],
        memory: &mut [i64],
        cache: &mut Option<Cache>,
        miss_penalty: u64,
        hits: &mut u64,
        misses: &mut u64,
    ) -> Result<u64, AsipError> {
        fn get(r: Reg, regs: &[i64]) -> i64 {
            regs[r.0 as usize]
        }
        fn set(r: Reg, v: i64, regs: &mut [i64]) {
            if r.0 != 0 {
                regs[r.0 as usize] = v;
            }
        }
        #[allow(clippy::too_many_arguments)]
        fn resolve(
            base: Reg,
            offset: i64,
            regs: &[i64],
            mem_len: usize,
            cache: &mut Option<Cache>,
            miss_penalty: u64,
            hits: &mut u64,
            misses: &mut u64,
            mem_extra: &mut u64,
        ) -> Result<usize, AsipError> {
            let addr = get(base, regs) + offset;
            if addr < 0 || addr as usize >= mem_len {
                return Err(AsipError::MemoryFault { address: addr });
            }
            let hit = cache.as_mut().is_some_and(|c| c.access(addr as usize));
            if hit {
                *hits += 1;
            } else {
                *misses += 1;
                *mem_extra += miss_penalty;
            }
            Ok(addr as usize)
        }
        let mut mem_extra = 0u64;
        match instr {
            Instr::Add(d, a, b) => set(d, get(a, regs).wrapping_add(get(b, regs)), regs),
            Instr::Sub(d, a, b) => set(d, get(a, regs).wrapping_sub(get(b, regs)), regs),
            Instr::Mul(d, a, b) => set(d, get(a, regs).wrapping_mul(get(b, regs)), regs),
            Instr::Addi(d, a, imm) => set(d, get(a, regs).wrapping_add(imm), regs),
            Instr::Shri(d, a, imm) => set(d, get(a, regs) >> (imm & 63), regs),
            Instr::Xor(d, a, b) => set(d, get(a, regs) ^ get(b, regs), regs),
            Instr::Li(d, imm) => set(d, imm, regs),
            Instr::Ld(d, base, offset) => {
                let addr = resolve(
                    base,
                    offset,
                    regs,
                    memory.len(),
                    cache,
                    miss_penalty,
                    hits,
                    misses,
                    &mut mem_extra,
                )?;
                let v = memory[addr];
                set(d, v, regs);
            }
            Instr::St(src, base, offset) => {
                let addr = resolve(
                    base,
                    offset,
                    regs,
                    memory.len(),
                    cache,
                    miss_penalty,
                    hits,
                    misses,
                    &mut mem_extra,
                )?;
                memory[addr] = get(src, regs);
            }
            // Control flow is handled by the main loop; Custom never nests.
            Instr::Branch(..) | Instr::Custom(_) | Instr::Halt => {}
        }
        Ok(mem_extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    fn iss() -> Iss {
        Iss::new(IssConfig::default(), ExtensionCatalog::new())
    }

    #[test]
    fn arithmetic_semantics() {
        let mut b = ProgramBuilder::new();
        b.li(Reg(1), 6);
        b.li(Reg(2), 7);
        b.mul(Reg(3), Reg(1), Reg(2));
        b.addi(Reg(3), Reg(3), -2);
        b.add(Reg(4), Reg(3), Reg(3));
        b.shri(Reg(5), Reg(4), 2);
        b.xor(Reg(6), Reg(4), Reg(5));
        b.halt();
        let r = iss()
            .run_with_memory(&b.build().expect("valid"), Vec::new())
            .expect("runs");
        assert_eq!(r.regs[3], 40);
        assert_eq!(r.regs[4], 80);
        assert_eq!(r.regs[5], 20);
        assert_eq!(r.regs[6], 80 ^ 20);
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let mut b = ProgramBuilder::new();
        b.li(Reg(0), 42);
        b.add(Reg(1), Reg(0), Reg(0));
        b.halt();
        let r = iss()
            .run_with_memory(&b.build().expect("valid"), Vec::new())
            .expect("runs");
        assert_eq!(r.regs[0], 0);
        assert_eq!(r.regs[1], 0);
    }

    #[test]
    fn memory_round_trip_and_fault() {
        let mut b = ProgramBuilder::new();
        b.li(Reg(1), 123);
        b.st(Reg(1), Reg(0), 10);
        b.ld(Reg(2), Reg(0), 10);
        b.halt();
        let r = iss()
            .run_with_memory(&b.build().expect("valid"), Vec::new())
            .expect("runs");
        assert_eq!(r.regs[2], 123);
        assert_eq!(r.memory[10], 123);

        let mut b = ProgramBuilder::new();
        b.ld(Reg(1), Reg(0), -5);
        b.halt();
        let err = iss()
            .run_with_memory(&b.build().expect("valid"), Vec::new())
            .expect_err("fault");
        assert_eq!(err, AsipError::MemoryFault { address: -5 });
    }

    #[test]
    fn loop_executes_correct_count() {
        let mut b = ProgramBuilder::new();
        b.li(Reg(2), 10);
        let top = b.place_label();
        b.addi(Reg(1), Reg(1), 1);
        b.branch(Cond::Lt, Reg(1), Reg(2), top);
        b.halt();
        let r = iss()
            .run_with_memory(&b.build().expect("valid"), Vec::new())
            .expect("runs");
        assert_eq!(r.regs[1], 10);
        assert_eq!(r.pc_execs[1], 10);
        assert_eq!(r.pc_execs[2], 10);
    }

    #[test]
    fn fuel_guards_infinite_loops() {
        let mut b = ProgramBuilder::new();
        let top = b.place_label();
        b.branch(Cond::Ge, Reg(0), Reg(0), top);
        b.halt();
        let mut cfg = IssConfig::default();
        cfg.fuel = 1000;
        let iss = Iss::new(cfg, ExtensionCatalog::new());
        assert!(matches!(
            iss.run_with_memory(&b.build().expect("valid"), Vec::new()),
            Err(AsipError::OutOfFuel { .. })
        ));
    }

    #[test]
    fn missing_halt_detected() {
        let mut b = ProgramBuilder::new();
        b.addi(Reg(1), Reg(1), 1);
        let err = iss()
            .run_with_memory(&b.build().expect("valid"), Vec::new())
            .expect_err("no halt");
        assert_eq!(err, AsipError::MissingHalt);
    }

    #[test]
    fn mac_block_accelerates_multiplies() {
        let mut b = ProgramBuilder::new();
        for _ in 0..100 {
            b.mul(Reg(1), Reg(2), Reg(3));
        }
        b.halt();
        let p = b.build().expect("valid");
        let plain = iss().run_with_memory(&p, Vec::new()).expect("runs");
        let mut cfg = IssConfig::default();
        cfg.mac_block = true;
        let fast = Iss::new(cfg, ExtensionCatalog::new())
            .run_with_memory(&p, Vec::new())
            .expect("runs");
        assert_eq!(plain.cycles - fast.cycles, 200); // 100 muls × (3−1)
    }

    #[test]
    fn zero_overhead_loops_remove_branch_bubbles() {
        let mut b = ProgramBuilder::new();
        b.li(Reg(2), 1000);
        let top = b.place_label();
        b.addi(Reg(1), Reg(1), 1);
        b.branch(Cond::Lt, Reg(1), Reg(2), top);
        b.halt();
        let p = b.build().expect("valid");
        let plain = iss().run_with_memory(&p, Vec::new()).expect("runs");
        let mut cfg = IssConfig::default();
        cfg.zero_overhead_loops = true;
        let zol = Iss::new(cfg, ExtensionCatalog::new())
            .run_with_memory(&p, Vec::new())
            .expect("runs");
        // 999 taken backward branches × 1 bubble each.
        assert_eq!(plain.cycles - zol.cycles, 999);
    }

    #[test]
    fn cache_misses_cost_cycles() {
        // Stream over 1024 words with a 256-word cache: every 4-word line
        // misses once.
        let mut b = ProgramBuilder::new();
        b.li(Reg(2), 1024);
        let top = b.place_label();
        b.ld(Reg(3), Reg(1), 0);
        b.addi(Reg(1), Reg(1), 1);
        b.branch(Cond::Lt, Reg(1), Reg(2), top);
        b.halt();
        let p = b.build().expect("valid");
        let r = iss().run_with_memory(&p, Vec::new()).expect("runs");
        assert_eq!(r.cache_misses, 256); // 1024 / 4 words per line
        assert_eq!(r.cache_hits, 768);
        // A larger cache does not help a pure streaming pattern…
        let mut big = IssConfig::default();
        big.cache_words = 4096;
        let rb = Iss::new(big, ExtensionCatalog::new())
            .run_with_memory(&p, Vec::new())
            .expect("runs");
        assert_eq!(rb.cache_misses, 256);
        // …but disabling the cache makes every access miss.
        let mut none = IssConfig::default();
        none.cache_words = 0;
        let rn = Iss::new(none, ExtensionCatalog::new())
            .run_with_memory(&p, Vec::new())
            .expect("runs");
        assert_eq!(rn.cache_misses, 1024);
        assert!(rn.cycles > r.cycles);
    }

    #[test]
    fn custom_op_preserves_semantics_and_saves_cycles() {
        use crate::extend::CustomOp;
        // Base sequence: r3 = (r1 + r2) * r1
        let seq = [
            Instr::Add(Reg(3), Reg(1), Reg(2)),
            Instr::Mul(Reg(3), Reg(3), Reg(1)),
        ];
        let mut cat = ExtensionCatalog::new();
        let opcode = cat.add(CustomOp::from_window("madd", &seq).expect("fusible"));

        let mut base = ProgramBuilder::new();
        base.li(Reg(1), 5);
        base.li(Reg(2), 9);
        base.add(Reg(3), Reg(1), Reg(2));
        base.mul(Reg(3), Reg(3), Reg(1));
        base.halt();
        let base_r = iss()
            .run_with_memory(&base.build().expect("valid"), Vec::new())
            .expect("runs");

        let custom = Program::new(vec![
            Instr::Li(Reg(1), 5),
            Instr::Li(Reg(2), 9),
            Instr::Custom(opcode),
            Instr::Halt,
        ])
        .expect("valid");
        let custom_r = Iss::new(IssConfig::default(), cat)
            .run_with_memory(&custom, Vec::new())
            .expect("runs");
        assert_eq!(base_r.regs[3], custom_r.regs[3]);
        assert_eq!(custom_r.regs[3], (5 + 9) * 5);
        assert!(custom_r.cycles < base_r.cycles);
    }

    #[test]
    fn unknown_custom_op_is_reported() {
        let p = Program::new(vec![Instr::Custom(7), Instr::Halt]).expect("valid");
        assert_eq!(
            iss()
                .run_with_memory(&p, Vec::new())
                .expect_err("no catalog"),
            AsipError::UnknownCustomOp(7)
        );
    }

    use crate::program::Program;
}
