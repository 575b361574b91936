//! Heterogeneous platform (architecture) model.
//!
//! §1 of the paper: "generic design platforms consist of fixed processing
//! resources (e.g. ASICs) and programmable resources (e.g. general-purpose
//! or DSP processors) that can co-operate and run the target application".
//! A [`Platform`] is a bag of [`ProcessingElement`]s, each with a kind,
//! a set of voltage/frequency operating points (for DVFS, §4) and a
//! simple power model.

use crate::error::CoreError;

/// Identifier of a processing element within a [`Platform`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeId(pub(crate) usize);

impl PeId {
    /// The PE's index within its platform.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// The class of a processing element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum PeKind {
    /// General-purpose processor (possibly with multimedia ISA extensions).
    Gpp,
    /// Digital signal processor.
    Dsp,
    /// Fixed-function hardware block.
    Asic,
    /// Application-specific instruction-set processor (extensible core).
    Asip,
}

/// A voltage/frequency operating point for DVFS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Clock frequency in Hz.
    pub frequency_hz: f64,
    /// Supply voltage in volts.
    pub voltage: f64,
}

/// One processing element of the platform.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessingElement {
    /// Human-readable name.
    pub name: String,
    /// Element class.
    pub kind: PeKind,
    /// Nominal clock frequency in Hz (the fastest operating point).
    pub frequency_hz: f64,
    /// Active power draw at the nominal point, in watts.
    pub active_power_w: f64,
    /// Idle power draw, in watts.
    pub idle_power_w: f64,
    /// Available DVFS operating points, fastest first. Always contains
    /// at least the nominal point.
    pub operating_points: Vec<OperatingPoint>,
}

impl ProcessingElement {
    /// Time to execute `cycles` at the nominal frequency, in seconds.
    #[must_use]
    pub fn exec_time_s(&self, cycles: u64) -> f64 {
        cycles as f64 / self.frequency_hz
    }

    /// Energy to execute `cycles` at the nominal point, in joules.
    #[must_use]
    pub fn exec_energy_j(&self, cycles: u64) -> f64 {
        self.exec_time_s(cycles) * self.active_power_w
    }
}

/// A heterogeneous multimedia platform.
///
/// # Examples
///
/// ```
/// use dms_core::platform::{PeKind, Platform};
///
/// let mut p = Platform::new("pda");
/// let cpu = p.add_pe("xscale", PeKind::Gpp, 400e6);
/// let dsp = p.add_pe("dsp", PeKind::Dsp, 200e6);
/// assert_eq!(p.pe_count(), 2);
/// assert!(p.pe(cpu).is_ok());
/// assert_ne!(cpu, dsp);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    name: String,
    pes: Vec<ProcessingElement>,
}

impl Platform {
    /// Creates an empty platform.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Platform {
            name: name.into(),
            pes: Vec::new(),
        }
    }

    /// Adds a PE with a default power model derived from its kind and
    /// frequency, returning its id.
    ///
    /// Power defaults (active, at nominal frequency): GPP 0.9 W/GHz,
    /// DSP 0.45 W/GHz, ASIP 0.30 W/GHz, ASIC 0.12 W/GHz — reflecting the
    /// performance-per-power ordering discussed in §3.
    pub fn add_pe(&mut self, name: impl Into<String>, kind: PeKind, frequency_hz: f64) -> PeId {
        let per_ghz = match kind {
            PeKind::Gpp => 0.9,
            PeKind::Dsp => 0.45,
            PeKind::Asip => 0.30,
            PeKind::Asic => 0.12,
        };
        let active = per_ghz * frequency_hz / 1e9;
        self.add_pe_with_power(name, kind, frequency_hz, active, active * 0.1)
    }

    /// Adds a PE with an explicit power model, returning its id.
    pub fn add_pe_with_power(
        &mut self,
        name: impl Into<String>,
        kind: PeKind,
        frequency_hz: f64,
        active_power_w: f64,
        idle_power_w: f64,
    ) -> PeId {
        let id = PeId(self.pes.len());
        self.pes.push(ProcessingElement {
            name: name.into(),
            kind,
            frequency_hz,
            active_power_w,
            idle_power_w,
            operating_points: vec![OperatingPoint {
                frequency_hz,
                voltage: 1.3,
            }],
        });
        id
    }

    /// Number of PEs.
    #[must_use]
    pub fn pe_count(&self) -> usize {
        self.pes.len()
    }

    /// Looks up a PE.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownPe`] for a stale or foreign id.
    pub fn pe(&self, id: PeId) -> Result<&ProcessingElement, CoreError> {
        self.pes.get(id.0).ok_or(CoreError::UnknownPe(id.0))
    }

    /// Whether `id` refers to a PE in this platform.
    #[must_use]
    pub fn contains(&self, id: PeId) -> bool {
        id.0 < self.pes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_defaults_order_by_kind() {
        let mut p = Platform::new("t");
        let gpp = p.add_pe("g", PeKind::Gpp, 1e9);
        let dsp = p.add_pe("d", PeKind::Dsp, 1e9);
        let asip = p.add_pe("x", PeKind::Asip, 1e9);
        let asic = p.add_pe("a", PeKind::Asic, 1e9);
        let pw = |id| p.pe(id).expect("exists").active_power_w;
        assert!(pw(gpp) > pw(dsp));
        assert!(pw(dsp) > pw(asip));
        assert!(pw(asip) > pw(asic));
    }

    #[test]
    fn exec_time_and_energy() {
        let mut p = Platform::new("t");
        let id = p.add_pe_with_power("cpu", PeKind::Gpp, 100e6, 2.0, 0.2);
        let pe = p.pe(id).expect("exists");
        assert!((pe.exec_time_s(100_000_000) - 1.0).abs() < 1e-12);
        assert!((pe.exec_energy_j(100_000_000) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn contains_and_lookup() {
        let mut p = Platform::new("t");
        let id = p.add_pe("cpu", PeKind::Gpp, 1e6);
        assert!(p.contains(id));
        assert!(!p.contains(PeId(5)));
        assert!(p.pe(PeId(5)).is_err());
    }
}
