//! Quality-of-Service metrics and *soft* requirements.
//!
//! "QoS embraces all the non-functional properties of a system (e.g.
//! power consumption, latency, jitter, cost, etc.)" and multimedia
//! applications "are characterized by 'soft' rather than hard real-time
//! constraints and then they may tolerate a small percentage of missed
//! deadlines" (§2, §2.1). A [`QosRequirement`] therefore bounds each
//! metric *and* the tolerated deadline-miss ratio, and a [`QosReport`]
//! carries the measured values out of any evaluator in the workspace.

/// Measured quality-of-service of one evaluated design point.
///
/// Produced by every simulator/evaluator in the workspace; consumed by
/// [`QosRequirement::check`] and the design-space explorer.
#[derive(Debug, Clone, PartialEq)]
pub struct QosReport {
    /// Mean end-to-end latency in seconds.
    pub mean_latency_s: f64,
    /// Latency jitter (standard deviation) in seconds.
    pub jitter_s: f64,
    /// Fraction of tokens/packets lost in `[0, 1]`.
    pub loss_rate: f64,
    /// Delivered throughput in tokens (or packets) per second.
    pub throughput_per_s: f64,
    /// Total energy consumed in joules.
    pub energy_j: f64,
    /// Fraction of deadlines missed in `[0, 1]`.
    pub deadline_miss_ratio: f64,
}

/// A soft QoS requirement: bounds on the metrics plus a tolerated
/// deadline-miss probability.
///
/// # Examples
///
/// ```
/// use dms_core::qos::{QosReport, QosRequirement};
///
/// let req = QosRequirement {
///     max_miss_ratio: Some(0.05), // soft: 5% missed deadlines tolerated
///     ..QosRequirement::new().max_latency_s(0.040).max_loss_rate(0.01)
/// };
///
/// let measured = QosReport {
///     mean_latency_s: 0.025,
///     jitter_s: 0.004,
///     loss_rate: 0.002,
///     throughput_per_s: 30.0,
///     energy_j: 1.2,
///     deadline_miss_ratio: 0.03,
/// };
/// assert!(req.check(&measured).is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QosRequirement {
    /// Upper bound on mean latency (seconds), if any.
    pub max_latency_s: Option<f64>,
    /// Upper bound on jitter (seconds), if any.
    pub max_jitter_s: Option<f64>,
    /// Upper bound on loss rate, if any.
    pub max_loss_rate: Option<f64>,
    /// Lower bound on throughput (per second), if any.
    pub min_throughput_per_s: Option<f64>,
    /// Upper bound on energy (joules), if any.
    pub max_energy_j: Option<f64>,
    /// Tolerated deadline-miss ratio (the "soft" in soft real-time), if any.
    pub max_miss_ratio: Option<f64>,
}

/// A QoS metric that failed its requirement.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum QosViolation {
    /// Mean latency exceeded the bound (measured, bound).
    Latency(f64, f64),
    /// Jitter exceeded the bound (measured, bound).
    Jitter(f64, f64),
    /// Loss rate exceeded the bound (measured, bound).
    Loss(f64, f64),
    /// Throughput fell below the bound (measured, bound).
    Throughput(f64, f64),
    /// Energy exceeded the bound (measured, bound).
    Energy(f64, f64),
    /// Deadline-miss ratio exceeded the tolerance (measured, bound).
    MissRatio(f64, f64),
}

impl std::fmt::Display for QosViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QosViolation::Latency(m, b) => write!(f, "latency {m:.6}s exceeds bound {b:.6}s"),
            QosViolation::Jitter(m, b) => write!(f, "jitter {m:.6}s exceeds bound {b:.6}s"),
            QosViolation::Loss(m, b) => write!(f, "loss rate {m:.4} exceeds bound {b:.4}"),
            QosViolation::Throughput(m, b) => {
                write!(f, "throughput {m:.2}/s below bound {b:.2}/s")
            }
            QosViolation::Energy(m, b) => write!(f, "energy {m:.4}J exceeds bound {b:.4}J"),
            QosViolation::MissRatio(m, b) => {
                write!(f, "deadline-miss ratio {m:.4} exceeds tolerance {b:.4}")
            }
        }
    }
}

impl QosRequirement {
    /// A requirement with no bounds (everything passes).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bounds mean latency.
    #[must_use]
    pub fn max_latency_s(mut self, s: f64) -> Self {
        self.max_latency_s = Some(s);
        self
    }

    /// Bounds jitter.
    #[must_use]
    pub fn max_jitter_s(mut self, s: f64) -> Self {
        self.max_jitter_s = Some(s);
        self
    }

    /// Bounds loss rate.
    #[must_use]
    pub fn max_loss_rate(mut self, r: f64) -> Self {
        self.max_loss_rate = Some(r);
        self
    }

    /// Requires a minimum throughput.
    #[must_use]
    pub fn min_throughput_per_s(mut self, t: f64) -> Self {
        self.min_throughput_per_s = Some(t);
        self
    }

    /// Checks a measured report against the requirement.
    ///
    /// # Errors
    ///
    /// Returns the full list of violated metrics (never an empty list).
    pub fn check(&self, report: &QosReport) -> Result<(), Vec<QosViolation>> {
        let mut violations = Vec::new();
        if let Some(b) = self.max_latency_s {
            if report.mean_latency_s > b {
                violations.push(QosViolation::Latency(report.mean_latency_s, b));
            }
        }
        if let Some(b) = self.max_jitter_s {
            if report.jitter_s > b {
                violations.push(QosViolation::Jitter(report.jitter_s, b));
            }
        }
        if let Some(b) = self.max_loss_rate {
            if report.loss_rate > b {
                violations.push(QosViolation::Loss(report.loss_rate, b));
            }
        }
        if let Some(b) = self.min_throughput_per_s {
            if report.throughput_per_s < b {
                violations.push(QosViolation::Throughput(report.throughput_per_s, b));
            }
        }
        if let Some(b) = self.max_energy_j {
            if report.energy_j > b {
                violations.push(QosViolation::Energy(report.energy_j, b));
            }
        }
        if let Some(b) = self.max_miss_ratio {
            if report.deadline_miss_ratio > b {
                violations.push(QosViolation::MissRatio(report.deadline_miss_ratio, b));
            }
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> QosReport {
        QosReport {
            mean_latency_s: 0.02,
            jitter_s: 0.002,
            loss_rate: 0.0005,
            throughput_per_s: 50.0,
            energy_j: 2.0,
            deadline_miss_ratio: 0.005,
        }
    }

    #[test]
    fn empty_requirement_passes_everything() {
        assert!(QosRequirement::new().check(&report()).is_ok());
    }

    #[test]
    fn each_bound_is_enforced() {
        let r = report();
        assert!(QosRequirement::new().max_latency_s(0.01).check(&r).is_err());
        assert!(QosRequirement::new().max_jitter_s(0.001).check(&r).is_err());
        assert!(QosRequirement::new()
            .max_loss_rate(0.0001)
            .check(&r)
            .is_err());
        assert!(QosRequirement::new()
            .min_throughput_per_s(100.0)
            .check(&r)
            .is_err());
        let energy = QosRequirement {
            max_energy_j: Some(1.0),
            ..QosRequirement::new()
        };
        assert!(energy.check(&r).is_err());
        let misses = QosRequirement {
            max_miss_ratio: Some(0.001),
            ..QosRequirement::new()
        };
        assert!(misses.check(&r).is_err());
    }

    #[test]
    fn violations_accumulate() {
        let req = QosRequirement {
            max_energy_j: Some(0.1),
            ..QosRequirement::new().max_latency_s(0.001)
        };
        let violations = req.check(&report()).expect_err("two violations");
        assert_eq!(violations.len(), 2);
        assert!(violations[0].to_string().contains("latency"));
    }

    #[test]
    fn boundary_values_pass() {
        let req = QosRequirement::new()
            .max_latency_s(0.02)
            .min_throughput_per_s(50.0);
        assert!(req.check(&report()).is_ok());
    }
}
