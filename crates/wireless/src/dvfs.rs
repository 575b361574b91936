//! Dynamic voltage and frequency scaling (DVFS) processor model.
//!
//! "The computation energy is usually a strong function of the CPU clock
//! frequency of the multimedia system, which may be varied by using
//! methods such as dynamic voltage and frequency scaling" (§4, \[24\]).
//! The operating points below follow the XScale-class processor used in
//! the \[28\] testbed; energy per cycle scales as `V²`.

use crate::error::WirelessError;

/// One frequency/voltage operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsPoint {
    /// Clock frequency in Hz.
    pub frequency_hz: f64,
    /// Supply voltage in volts.
    pub voltage: f64,
}

/// A DVFS-capable CPU with discrete operating points.
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsCpu {
    points: Vec<DvfsPoint>,
    /// Effective switched capacitance in farads (energy/cycle = C·V²).
    capacitance_f: f64,
}

impl DvfsCpu {
    /// An XScale-class preset: 150/400/600/800 MHz at 0.75/1.0/1.3/1.6 V
    /// with 1 nF effective switched capacitance.
    ///
    /// # Errors
    ///
    /// Never fails in practice; keeps the constructor signature uniform.
    pub fn xscale() -> Result<Self, WirelessError> {
        DvfsCpu::new(
            vec![
                DvfsPoint {
                    frequency_hz: 150e6,
                    voltage: 0.75,
                },
                DvfsPoint {
                    frequency_hz: 400e6,
                    voltage: 1.0,
                },
                DvfsPoint {
                    frequency_hz: 600e6,
                    voltage: 1.3,
                },
                DvfsPoint {
                    frequency_hz: 800e6,
                    voltage: 1.6,
                },
            ],
            1e-9,
        )
    }

    /// Creates a CPU from operating points (any order; they are sorted
    /// by frequency).
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::InvalidParameter`] for an empty point
    /// list, non-positive frequencies/voltages, or a non-positive
    /// capacitance.
    pub fn new(mut points: Vec<DvfsPoint>, capacitance_f: f64) -> Result<Self, WirelessError> {
        if points.is_empty() {
            return Err(WirelessError::InvalidParameter("points"));
        }
        for p in &points {
            if !(p.frequency_hz.is_finite() && p.frequency_hz > 0.0) {
                return Err(WirelessError::InvalidParameter("frequency_hz"));
            }
            if !(p.voltage.is_finite() && p.voltage > 0.0) {
                return Err(WirelessError::InvalidParameter("voltage"));
            }
        }
        if !(capacitance_f.is_finite() && capacitance_f > 0.0) {
            return Err(WirelessError::InvalidParameter("capacitance_f"));
        }
        points.sort_by(|a, b| {
            a.frequency_hz
                .partial_cmp(&b.frequency_hz)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        Ok(DvfsCpu {
            points,
            capacitance_f,
        })
    }

    /// The operating points, slowest first.
    ///
    /// Test access: `slowest_feasible_is_tight` enumerates the preset's
    /// points through it.
    #[must_use]
    pub fn points(&self) -> &[DvfsPoint] {
        &self.points
    }

    /// The fastest operating point.
    #[must_use]
    pub fn max_point(&self) -> DvfsPoint {
        *self.points.last().expect("non-empty by construction")
    }

    /// Energy of one cycle at `point`, in joules (`C·V²`).
    #[must_use]
    pub fn energy_per_cycle_j(&self, point: DvfsPoint) -> f64 {
        self.capacitance_f * point.voltage * point.voltage
    }

    /// The slowest point that still delivers `cycles` within
    /// `deadline_s` seconds, or `None` if even the fastest cannot.
    #[must_use]
    pub fn slowest_feasible(&self, cycles: u64, deadline_s: f64) -> Option<DvfsPoint> {
        if deadline_s <= 0.0 {
            return None;
        }
        let required_hz = cycles as f64 / deadline_s;
        self.points
            .iter()
            .copied()
            .find(|p| p.frequency_hz >= required_hz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> DvfsCpu {
        DvfsCpu::xscale().expect("preset valid")
    }

    #[test]
    fn validation() {
        assert!(DvfsCpu::new(vec![], 1e-9).is_err());
        assert!(DvfsCpu::new(
            vec![DvfsPoint {
                frequency_hz: 0.0,
                voltage: 1.0
            }],
            1e-9
        )
        .is_err());
        assert!(DvfsCpu::new(
            vec![DvfsPoint {
                frequency_hz: 1e6,
                voltage: -1.0
            }],
            1e-9
        )
        .is_err());
        assert!(DvfsCpu::new(
            vec![DvfsPoint {
                frequency_hz: 1e6,
                voltage: 1.0
            }],
            0.0
        )
        .is_err());
    }

    #[test]
    fn points_sorted_and_max() {
        let c = cpu();
        let freqs: Vec<f64> = c.points().iter().map(|p| p.frequency_hz).collect();
        assert!(freqs.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(c.max_point().frequency_hz, 800e6);
    }

    #[test]
    fn energy_scales_with_v_squared() {
        let c = cpu();
        let slow = c.points()[0];
        let fast = c.max_point();
        let ratio = c.energy_per_cycle_j(fast) / c.energy_per_cycle_j(slow);
        let expected = (1.6f64 / 0.75).powi(2);
        assert!((ratio - expected).abs() < 1e-9);
    }

    #[test]
    fn slowest_feasible_picks_minimum() {
        let c = cpu();
        // 300e6 cycles in 1 s → 400 MHz point.
        let p = c.slowest_feasible(300_000_000, 1.0).expect("feasible");
        assert_eq!(p.frequency_hz, 400e6);
        // 100e6 cycles in 1 s → 150 MHz point.
        let p = c.slowest_feasible(100_000_000, 1.0).expect("feasible");
        assert_eq!(p.frequency_hz, 150e6);
        // Impossible deadline.
        assert!(c.slowest_feasible(1_000_000_000, 0.5).is_none());
        assert!(c.slowest_feasible(1, 0.0).is_none());
    }
}
