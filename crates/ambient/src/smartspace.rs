//! Smart-space stochastic QoS evaluation — experiment E11.
//!
//! Combines the §5 ingredients: a stochastic user, services with
//! k-of-n sensor redundancy, and graceful degradation. The expected
//! delivered utility is
//!
//! ```text
//! U(t) = Σ_states π(state) · availability(service(state), t) · utility(state)
//! ```
//!
//! — the "overall performance model" that §5 says must incorporate user
//! behaviour.

use crate::error::AmbientError;
use crate::faults::SensorPopulation;
use crate::user::UserBehaviorModel;

/// One ambient service (e.g. presence tracking, gesture input).
#[derive(Debug, Clone, PartialEq)]
pub struct Service {
    /// Name.
    pub name: String,
    /// The sensor population backing the service.
    pub sensors: SensorPopulation,
    /// Minimum alive sensors for the service to work.
    pub required: usize,
}

/// A smart space: a user model plus the services each activity needs.
#[derive(Debug, Clone, PartialEq)]
pub struct SmartSpace {
    user: UserBehaviorModel,
    services: Vec<Service>,
    /// `needs[state]` = indices of the services that state depends on.
    needs: Vec<Vec<usize>>,
    /// Utility delivered by each state when fully served.
    utility: Vec<f64>,
}

/// Evaluated smart-space quality at one point in time.
#[derive(Debug, Clone, PartialEq)]
pub struct SmartSpaceReport {
    /// Evaluation time.
    pub time: f64,
    /// Expected delivered utility.
    pub expected_utility: f64,
    /// Expected utility with every service up (the ceiling).
    pub max_utility: f64,
    /// Per-service availability at `time`.
    pub service_availability: Vec<f64>,
}

impl SmartSpaceReport {
    /// Delivered fraction of the utility ceiling.
    #[must_use]
    pub fn degradation(&self) -> f64 {
        if self.max_utility <= 0.0 {
            0.0
        } else {
            1.0 - self.expected_utility / self.max_utility
        }
    }
}

impl SmartSpace {
    /// Creates a smart space.
    ///
    /// # Errors
    ///
    /// * [`AmbientError::InvalidParameter`] if the per-state tables do
    ///   not match the user model's state count.
    /// * [`AmbientError::UnknownIndex`] if a state needs a missing
    ///   service.
    pub fn new(
        user: UserBehaviorModel,
        services: Vec<Service>,
        needs: Vec<Vec<usize>>,
        utility: Vec<f64>,
    ) -> Result<Self, AmbientError> {
        if needs.len() != user.state_count() || utility.len() != user.state_count() {
            return Err(AmbientError::InvalidParameter("per-state tables"));
        }
        for state_needs in &needs {
            for &svc in state_needs {
                if svc >= services.len() {
                    return Err(AmbientError::UnknownIndex("service", svc));
                }
            }
        }
        Ok(SmartSpace {
            user,
            services,
            needs,
            utility,
        })
    }

    /// A home preset: the five-state user of
    /// [`UserBehaviorModel::home_preset`], presence/display/audio
    /// services on small sensor populations, with media states depending
    /// on more services.
    ///
    /// # Errors
    ///
    /// Never fails in practice; keeps the constructor signature uniform.
    pub fn home_preset(sensor_failure_rate: f64) -> Result<Self, AmbientError> {
        let user = UserBehaviorModel::home_preset()?;
        let services = vec![
            Service {
                name: "presence".into(),
                sensors: SensorPopulation::new(6, sensor_failure_rate)?,
                required: 2,
            },
            Service {
                name: "display".into(),
                sensors: SensorPopulation::new(3, sensor_failure_rate)?,
                required: 1,
            },
            Service {
                name: "audio".into(),
                sensors: SensorPopulation::new(4, sensor_failure_rate)?,
                required: 2,
            },
        ];
        // idle needs presence; music needs presence+audio; browsing needs
        // presence+display; video and video-call need all three.
        let needs = vec![
            vec![0],
            vec![0, 2],
            vec![0, 1],
            vec![0, 1, 2],
            vec![0, 1, 2],
        ];
        let utility = vec![0.1, 0.5, 0.6, 1.0, 1.0];
        SmartSpace::new(user, services, needs, utility)
    }

    /// The user model.
    #[must_use]
    pub fn user(&self) -> &UserBehaviorModel {
        &self.user
    }

    /// Evaluates expected utility at time `t` since deployment.
    ///
    /// # Errors
    ///
    /// Propagates Markov-analysis failures.
    pub fn evaluate(&self, t: f64) -> Result<SmartSpaceReport, AmbientError> {
        let pi = self.user.stationary()?;
        let availability: Vec<f64> = self
            .services
            .iter()
            .map(|s| s.sensors.availability(s.required, t))
            .collect();
        let mut expected = 0.0;
        let mut ceiling = 0.0;
        for (state, &p) in pi.iter().enumerate() {
            let avail: f64 = self.needs[state]
                .iter()
                .map(|&svc| availability[svc])
                .product();
            expected += p * avail * self.utility[state];
            ceiling += p * self.utility[state];
        }
        Ok(SmartSpaceReport {
            time: t,
            expected_utility: expected,
            max_utility: ceiling,
            service_availability: availability,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validation() {
        let user = UserBehaviorModel::home_preset().expect("preset valid");
        // Wrong table lengths.
        assert!(SmartSpace::new(user.clone(), vec![], vec![], vec![]).is_err());
        // Missing service index.
        let needs = vec![vec![7], vec![], vec![], vec![], vec![]];
        let utility = vec![1.0; 5];
        assert!(matches!(
            SmartSpace::new(user, vec![], needs, utility),
            Err(AmbientError::UnknownIndex("service", 7))
        ));
    }

    #[test]
    fn fresh_deployment_delivers_ceiling() {
        let space = SmartSpace::home_preset(0.05).expect("preset valid");
        let report = space.evaluate(0.0).expect("converges");
        assert!((report.expected_utility - report.max_utility).abs() < 1e-9);
        assert!(report.degradation().abs() < 1e-9);
        assert!(report
            .service_availability
            .iter()
            .all(|&a| (a - 1.0).abs() < 1e-9));
    }

    #[test]
    fn utility_degrades_over_time() {
        let space = SmartSpace::home_preset(0.05).expect("preset valid");
        let early = space.evaluate(1.0).expect("converges");
        let late = space.evaluate(20.0).expect("converges");
        assert!(late.expected_utility < early.expected_utility);
        assert!(late.degradation() > early.degradation());
        assert!(late.degradation() <= 1.0);
    }

    #[test]
    fn higher_failure_rate_degrades_faster() {
        let reliable = SmartSpace::home_preset(0.01).expect("preset valid");
        let flaky = SmartSpace::home_preset(0.2).expect("preset valid");
        let t = 5.0;
        assert!(
            flaky.evaluate(t).expect("converges").degradation()
                > reliable.evaluate(t).expect("converges").degradation()
        );
    }

    #[test]
    fn graceful_degradation_is_graceful() {
        // Utility decreases smoothly: no cliff between adjacent times.
        let space = SmartSpace::home_preset(0.1).expect("preset valid");
        let mut last = space.evaluate(0.0).expect("converges").expected_utility;
        for step in 1..=20 {
            let u = space
                .evaluate(f64::from(step))
                .expect("converges")
                .expected_utility;
            assert!(u <= last + 1e-12);
            assert!(last - u < 0.2, "utility cliff at step {step}");
            last = u;
        }
    }
}
