//! The Y-chart design loop and design-space exploration.
//!
//! "The overall goal of successful design is then to find the best
//! mapping of the target multimedia application onto the architectural
//! resources, while satisfying an imposed set of design constraints
//! (e.g. minimum power dissipation, maximum performance) and specified
//! QoS metrics" (abstract). [`DesignConstraints`] bundles the hard
//! limits; [`ParetoFront`] keeps the non-dominated energy/latency
//! trade-off points discovered during exploration.

use crate::qos::{QosReport, QosRequirement, QosViolation};

/// Design constraints beyond QoS: cost, area and design time appear in
/// §1 as first-class concerns for consumer multimedia.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DesignConstraints {
    /// QoS requirements the mapped system must meet.
    pub qos: QosRequirement,
    /// Maximum silicon area in gate equivalents (e.g. the 200k-gate
    /// budget of the §3.1 voice-recognition ASIP), if bounded.
    pub max_gates: Option<u64>,
    /// Maximum unit cost in arbitrary currency units, if bounded.
    pub max_unit_cost: Option<f64>,
}

impl DesignConstraints {
    /// Constraints with nothing bounded.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks a design point against all constraints.
    ///
    /// # Errors
    ///
    /// Returns the QoS violations plus synthetic violations for area/cost
    /// overruns (reported through [`QosViolation::Energy`]-style pairs is
    /// not possible, so overruns are returned as formatted strings).
    pub fn check(&self, point: &DesignPoint) -> Result<(), Vec<String>> {
        let mut problems: Vec<String> = match self.qos.check(&point.qos) {
            Ok(()) => Vec::new(),
            Err(vs) => vs.iter().map(QosViolation::to_string).collect(),
        };
        if let Some(max) = self.max_gates {
            if point.gates > max {
                problems.push(format!("area {} gates exceeds budget {max}", point.gates));
            }
        }
        if let Some(max) = self.max_unit_cost {
            if point.unit_cost > max {
                problems.push(format!(
                    "unit cost {:.2} exceeds budget {max:.2}",
                    point.unit_cost
                ));
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }
}

/// One evaluated point in the design space: a candidate mapping together
/// with its measured QoS and implementation cost.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// A label identifying the candidate (e.g. a mapping digest).
    pub label: String,
    /// Measured QoS.
    pub qos: QosReport,
    /// Estimated area in gate equivalents.
    pub gates: u64,
    /// Estimated unit cost.
    pub unit_cost: f64,
}

impl DesignPoint {
    /// Whether this point dominates `other` in the (energy, latency)
    /// plane: no worse in both, strictly better in at least one.
    #[must_use]
    pub fn dominates(&self, other: &DesignPoint) -> bool {
        let no_worse = self.qos.energy_j <= other.qos.energy_j
            && self.qos.mean_latency_s <= other.qos.mean_latency_s;
        let better = self.qos.energy_j < other.qos.energy_j
            || self.qos.mean_latency_s < other.qos.mean_latency_s;
        no_worse && better
    }
}

/// The set of non-dominated design points found so far.
///
/// # Examples
///
/// ```
/// use dms_core::qos::QosReport;
/// use dms_core::ychart::{DesignPoint, ParetoFront};
///
/// fn point(label: &str, energy: f64, latency: f64) -> DesignPoint {
///     let qos = QosReport {
///         mean_latency_s: latency,
///         jitter_s: 0.0,
///         loss_rate: 0.0,
///         throughput_per_s: f64::INFINITY,
///         energy_j: energy,
///         deadline_miss_ratio: 0.0,
///     };
///     DesignPoint { label: label.into(), qos, gates: 0, unit_cost: 0.0 }
/// }
///
/// let mut front = ParetoFront::new();
/// assert!(front.offer(point("balanced", 1.0, 1.0)));
/// assert!(front.offer(point("fast", 2.0, 0.5)));   // trade-off: kept
/// assert!(!front.offer(point("bad", 3.0, 3.0)));   // dominated: rejected
/// assert_eq!(front.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParetoFront {
    points: Vec<DesignPoint>,
}

impl ParetoFront {
    /// Creates an empty front.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Offers a candidate to the front.
    ///
    /// Returns `true` if the candidate was admitted (it is not dominated
    /// by any existing point); admitting it evicts any points it
    /// dominates.
    pub fn offer(&mut self, candidate: DesignPoint) -> bool {
        if self.points.iter().any(|p| p.dominates(&candidate)) {
            return false;
        }
        self.points.retain(|p| !candidate.dominates(p));
        self.points.push(candidate);
        true
    }

    /// Number of points on the front.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the front is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The non-dominated points, sorted by increasing energy.
    #[must_use]
    pub fn points(&self) -> Vec<&DesignPoint> {
        let mut pts: Vec<&DesignPoint> = self.points.iter().collect();
        pts.sort_by(|a, b| {
            a.qos
                .energy_j
                .partial_cmp(&b.qos.energy_j)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        pts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(label: &str, energy: f64, latency: f64) -> DesignPoint {
        let qos = QosReport {
            mean_latency_s: latency,
            jitter_s: 0.0,
            loss_rate: 0.0,
            throughput_per_s: f64::INFINITY,
            energy_j: energy,
            deadline_miss_ratio: 0.0,
        };
        DesignPoint {
            label: label.into(),
            qos,
            gates: 100,
            unit_cost: 1.0,
        }
    }

    #[test]
    fn domination_rules() {
        let a = point("a", 1.0, 1.0);
        let b = point("b", 2.0, 2.0);
        let c = point("c", 1.0, 2.0);
        let tie = point("tie", 1.0, 1.0);
        assert!(a.dominates(&b));
        assert!(a.dominates(&c));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&tie)); // equal points do not dominate
    }

    #[test]
    fn front_evicts_dominated_points() {
        let mut front = ParetoFront::new();
        assert!(front.offer(point("mediocre", 5.0, 5.0)));
        assert!(front.offer(point("better", 1.0, 1.0)));
        assert_eq!(front.len(), 1);
        assert_eq!(front.points()[0].label, "better");
    }

    #[test]
    fn front_keeps_tradeoffs() {
        let mut front = ParetoFront::new();
        front.offer(point("low-energy", 1.0, 10.0));
        front.offer(point("low-latency", 10.0, 1.0));
        front.offer(point("middle", 5.0, 5.0));
        assert_eq!(front.len(), 3);
        // points() sorted by energy
        let labels: Vec<&str> = front.points().iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, vec!["low-energy", "middle", "low-latency"]);
    }

    #[test]
    fn constraints_check_area_and_cost() {
        let mut c = DesignConstraints::new();
        c.max_gates = Some(50);
        c.max_unit_cost = Some(0.5);
        let p = point("p", 1.0, 1.0);
        let problems = c.check(&p).expect_err("two overruns");
        assert_eq!(problems.len(), 2);
        assert!(problems[0].contains("area"));
        assert!(problems[1].contains("cost"));
    }

    #[test]
    fn constraints_combine_qos_and_cost() {
        let mut c = DesignConstraints::new();
        c.qos.max_energy_j = Some(0.5);
        c.max_gates = Some(50);
        let p = point("p", 1.0, 1.0);
        let problems = c.check(&p).expect_err("qos + area");
        assert_eq!(problems.len(), 2);
    }

    #[test]
    fn empty_constraints_pass() {
        assert!(DesignConstraints::new()
            .check(&point("p", 9.0, 9.0))
            .is_ok());
    }
}
