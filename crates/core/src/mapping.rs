//! Mapping: binding application processes to platform resources.
//!
//! "Simply speaking, designing a multimedia system consists of mapping
//! the target application onto a given implementation architecture,
//! while satisfying a prescribed set of design constraints" (§2).

use std::collections::HashMap;

use crate::error::CoreError;
use crate::graph::{ProcessGraph, ProcessId};
use crate::platform::{PeId, Platform};

/// An assignment of processes to processing elements.
///
/// Several processes may share one PE (they will then need a scheduler —
/// §2.1); a process is mapped to exactly one PE.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), dms_core::CoreError> {
/// use dms_core::graph::ProcessGraph;
/// use dms_core::mapping::Mapping;
/// use dms_core::platform::{PeKind, Platform};
///
/// let mut g = ProcessGraph::new("app");
/// let p = g.add_process("p", 10);
/// let mut plat = Platform::new("plat");
/// let cpu = plat.add_pe("cpu", PeKind::Gpp, 1e9);
///
/// let mut m = Mapping::new();
/// m.assign(p, cpu);
/// m.validate(&g, &plat)?;
/// assert_eq!(m.pe_of(p), Some(cpu));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Mapping {
    assignment: HashMap<ProcessId, PeId>,
}

impl Mapping {
    /// Creates an empty mapping.
    #[must_use]
    pub fn new() -> Self {
        Mapping {
            assignment: HashMap::new(),
        }
    }

    /// Assigns (or re-assigns) `process` to `pe`.
    ///
    /// Returns the previous PE if the process was already mapped.
    pub fn assign(&mut self, process: ProcessId, pe: PeId) -> Option<PeId> {
        self.assignment.insert(process, pe)
    }

    /// The PE a process is mapped to, if any.
    #[must_use]
    pub fn pe_of(&self, process: ProcessId) -> Option<PeId> {
        self.assignment.get(&process).copied()
    }

    /// All processes mapped to `pe`, in process-id order.
    #[must_use]
    pub fn processes_on(&self, pe: PeId) -> Vec<ProcessId> {
        let mut out: Vec<ProcessId> = self
            .assignment
            .iter()
            .filter(|&(_, &p)| p == pe)
            .map(|(&proc, _)| proc)
            .collect();
        out.sort_unstable();
        out
    }

    /// Checks that every process of `graph` is mapped to a PE that exists
    /// in `platform`.
    ///
    /// # Errors
    ///
    /// * [`CoreError::UnmappedProcess`] for the first unmapped process.
    /// * [`CoreError::UnknownPe`] if an assignment targets a missing PE.
    pub fn validate(&self, graph: &ProcessGraph, platform: &Platform) -> Result<(), CoreError> {
        for (pid, _) in graph.processes() {
            match self.pe_of(pid) {
                None => return Err(CoreError::UnmappedProcess(pid.index())),
                Some(pe) if !platform.contains(pe) => return Err(CoreError::UnknownPe(pe.index())),
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// Whether two communicating processes share a PE (communication is
    /// then local and effectively free) or cross PEs (communication costs
    /// energy and latency on the interconnect).
    #[must_use]
    pub fn is_local(&self, a: ProcessId, b: ProcessId) -> bool {
        match (self.pe_of(a), self.pe_of(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }
}

impl FromIterator<(ProcessId, PeId)> for Mapping {
    fn from_iter<I: IntoIterator<Item = (ProcessId, PeId)>>(iter: I) -> Self {
        Mapping {
            assignment: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PeKind;

    fn setup() -> (ProcessGraph, Platform, Vec<ProcessId>, Vec<PeId>) {
        let mut g = ProcessGraph::new("app");
        let ps = vec![
            g.add_process("a", 1),
            g.add_process("b", 1),
            g.add_process("c", 1),
        ];
        let mut plat = Platform::new("plat");
        let pes = vec![
            plat.add_pe("p0", PeKind::Gpp, 1e9),
            plat.add_pe("p1", PeKind::Dsp, 1e9),
        ];
        (g, plat, ps, pes)
    }

    #[test]
    fn validate_complete_mapping() {
        let (g, plat, ps, pes) = setup();
        let m: Mapping = vec![(ps[0], pes[0]), (ps[1], pes[0]), (ps[2], pes[1])]
            .into_iter()
            .collect();
        assert!(m.validate(&g, &plat).is_ok());
    }

    #[test]
    fn validate_flags_unmapped() {
        let (g, plat, ps, pes) = setup();
        let mut m = Mapping::new();
        m.assign(ps[0], pes[0]);
        assert!(matches!(
            m.validate(&g, &plat),
            Err(CoreError::UnmappedProcess(_))
        ));
    }

    #[test]
    fn validate_flags_unknown_pe() {
        let (g, plat, ps, _) = setup();
        let mut m = Mapping::new();
        for &p in &ps {
            m.assign(p, PeId(42));
        }
        assert_eq!(m.validate(&g, &plat), Err(CoreError::UnknownPe(42)));
    }

    #[test]
    fn reassign_returns_previous() {
        let (_, _, ps, pes) = setup();
        let mut m = Mapping::new();
        assert_eq!(m.assign(ps[0], pes[0]), None);
        assert_eq!(m.assign(ps[0], pes[1]), Some(pes[0]));
        assert_eq!(m.pe_of(ps[0]), Some(pes[1]));
    }

    #[test]
    fn locality() {
        let (_, _, ps, pes) = setup();
        let mut m = Mapping::new();
        m.assign(ps[0], pes[0]);
        m.assign(ps[1], pes[0]);
        m.assign(ps[2], pes[1]);
        assert!(m.is_local(ps[0], ps[1]));
        assert!(!m.is_local(ps[0], ps[2]));
        assert!(!m.is_local(ps[0], ProcessId(99)));
    }

    #[test]
    fn processes_on_pe_sorted() {
        let (_, _, ps, pes) = setup();
        let mut m = Mapping::new();
        m.assign(ps[2], pes[0]);
        m.assign(ps[0], pes[0]);
        assert_eq!(m.processes_on(pes[0]), vec![ps[0], ps[2]]);
        assert!(m.processes_on(pes[1]).is_empty());
    }
}
