//! # dms-asip — extensible-processor platform
//!
//! §3.1 of the paper: Application-Specific Instruction-set Processors
//! "represent a very efficient option with respect to performance-per-
//! power ratio, design costs/time, manufacturing costs, flexibility".
//! Customisation happens at three levels — **instruction extension**,
//! **inclusion/exclusion of predefined blocks** (MAC, caches,
//! zero-overhead loops) and **parameterisation** (cache size, register
//! count) — driven by the Fig. 2 design flow: profile on an ISS,
//! identify extensions, define them, retarget the tools, verify, iterate.
//!
//! This crate is that platform, built from scratch:
//!
//! * [`isa`]/[`program`] — a small load/store RISC ISA and a program
//!   builder with label resolution;
//! * [`iss`] — a cycle-accurate instruction-set simulator with a
//!   direct-mapped cache model and optional predefined blocks;
//! * [`profile`] — per-PC execution counts from an ISS run (the
//!   "Profiling" box of Fig. 2);
//! * [`extend`] — dataflow-window custom-instruction identification and
//!   selection under instruction-count and gate budgets ("Identify");
//! * [`retarget`] — the retargetable compiler: rewrites programs to use
//!   the selected custom instructions, preserving semantics ("Define" +
//!   "Retargetable tool generation");
//! * [`gates`] — the gate-equivalent area model (base core, blocks,
//!   per-extension datapath cost);
//! * [`flow`] — the end-to-end Fig. 2 loop, producing a report with
//!   speed-up, gate count and the chosen extensions;
//! * [`workloads`] — the §3.1 voice-recognition system (Goertzel filter
//!   bank, log-energy feature extraction, DTW template matching),
//!   written in the ISA.
//!
//! ## Example
//!
//! Run the complete Fig. 2 flow on the voice-recognition workload:
//!
//! ```
//! use dms_asip::flow::{DesignFlow, FlowConstraints};
//! use dms_asip::workloads;
//!
//! # fn main() -> Result<(), dms_asip::AsipError> {
//! let program = workloads::voice_recognition(64, 4, 8)?;
//! let flow = DesignFlow::new(FlowConstraints::default());
//! let report = flow.run_with_memory(&program, Vec::new())?;
//! assert!(report.speedup > 1.0);
//! assert!(report.custom_instructions <= 10);
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod extend;
pub mod flow;
pub mod gates;
pub mod isa;
pub mod iss;
pub mod profile;
pub mod program;
pub mod retarget;
pub mod workloads;

pub use error::AsipError;
pub use extend::{CustomOp, ExtensionCatalog, Identifier};
pub use flow::{DesignFlow, FlowConstraints, FlowReport};
pub use gates::AreaModel;
pub use isa::{Instr, Reg};
pub use iss::{ExecReport, Iss, IssConfig};
pub use profile::Profile;
pub use program::{Program, ProgramBuilder};
