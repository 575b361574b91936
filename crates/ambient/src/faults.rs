//! Sensor populations under failure.
//!
//! §5: ambient systems must be "able to operate with limited resources
//! and failing parts", echoing the fault-tolerance study of \[33\]. A
//! [`SensorPopulation`] holds `n` sensors with exponential lifetimes; a
//! service backed by the population is up while at least `k` sensors
//! are alive (k-of-n redundancy). Both the closed-form availability and
//! a Monte-Carlo estimate are provided, so experiments can verify one
//! against the other (§2.2's simulation-vs-analysis duality).
//!
//! The Monte-Carlo estimator samples sensor-failure schedules from the
//! workspace-wide fault engine, [`dms_sim::FaultPlan`]
//! ([`dms_sim::FaultSpec::ComponentFailures`] +
//! [`dms_sim::FaultPlan::alive_components`]) — the same vocabulary that
//! injects link/session faults into `dms-serve`, so there is exactly
//! one fault-event model across the workspace.

use dms_sim::{FaultPlan, FaultSpec, SimRng};

use crate::error::AmbientError;

/// Fault-plan slots per unit of population model time. The plan's
/// schedule is integer-slotted; at 1024 slots per unit time the
/// discretisation shifts the evaluation time by at most `1/2048` of a
/// unit — far below Monte-Carlo noise at any feasible trial count.
const SLOTS_PER_UNIT_TIME: u64 = 1024;

/// A population of identical sensors with exponential failures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorPopulation {
    /// Number of deployed sensors.
    pub sensors: usize,
    /// Failure rate λ per sensor per unit time (no repair).
    pub failure_rate: f64,
}

impl SensorPopulation {
    /// Creates a population.
    ///
    /// # Errors
    ///
    /// Returns [`AmbientError::InvalidParameter`] for zero sensors or a
    /// non-positive/non-finite rate.
    pub fn new(sensors: usize, failure_rate: f64) -> Result<Self, AmbientError> {
        if sensors == 0 || sensors > u32::MAX as usize {
            return Err(AmbientError::InvalidParameter("sensors"));
        }
        if !(failure_rate.is_finite() && failure_rate > 0.0) {
            return Err(AmbientError::InvalidParameter("failure_rate"));
        }
        Ok(SensorPopulation {
            sensors,
            failure_rate,
        })
    }

    /// Probability one sensor is still alive at time `t`.
    #[must_use]
    pub fn sensor_survival(&self, t: f64) -> f64 {
        (-self.failure_rate * t.max(0.0)).exp()
    }

    /// Closed-form availability of a k-of-n service at time `t`:
    /// `Σ_{i=k}^{n} C(n,i) p^i (1−p)^(n−i)` with `p` the sensor
    /// survival probability.
    ///
    /// Returns 0 for `k > n` and 1 for `k == 0`.
    #[must_use]
    pub fn availability(&self, k: usize, t: f64) -> f64 {
        let n = self.sensors;
        if k == 0 {
            return 1.0;
        }
        if k > n {
            return 0.0;
        }
        let p = self.sensor_survival(t);
        (k..=n).map(|i| binomial_pmf(n, i, p)).sum()
    }

    /// Monte-Carlo estimate of the k-of-n availability at time `t` over
    /// `trials` populations.
    ///
    /// Each trial compiles one [`FaultPlan`] sensor-failure schedule
    /// ([`FaultSpec::ComponentFailures`], exponential lifetimes drawn
    /// at compile time from `rng`) and takes the census at the slot
    /// nearest `t`. The plan clips events past its horizon, so the
    /// census slot sits *inside* the horizon by construction.
    #[must_use]
    pub fn availability_mc(&self, k: usize, t: f64, trials: usize, rng: &mut SimRng) -> f64 {
        if trials == 0 {
            return 0.0;
        }
        let eval_slot = (t.max(0.0) * SLOTS_PER_UNIT_TIME as f64).round() as u64;
        let spec = FaultSpec::ComponentFailures {
            components: self.sensors as u32,
            failure_rate: self.failure_rate / SLOTS_PER_UNIT_TIME as f64,
        };
        let mut up = 0usize;
        for _ in 0..trials {
            let plan = FaultPlan::compile_with(&[spec], eval_slot + 1, rng)
                .expect("a validated population always compiles");
            if plan.alive_components(self.sensors as u32, eval_slot) as usize >= k {
                up += 1;
            }
        }
        up as f64 / trials as f64
    }

    /// The time at which the k-of-n availability first drops below
    /// `target` (bisection; availability is non-increasing in time).
    ///
    /// Returns 0 if it is already below at `t = 0`.
    #[must_use]
    pub fn lifetime_to_availability(&self, k: usize, target: f64) -> f64 {
        if self.availability(k, 0.0) < target {
            return 0.0;
        }
        let mut lo = 0.0f64;
        let mut hi = 1.0f64;
        while self.availability(k, hi) >= target && hi < 1e12 {
            hi *= 2.0;
        }
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if self.availability(k, mid) >= target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// A sensor population with a repair crew: failures at rate `λ` per
/// alive sensor, repairs at rate `μ` (one crew, one sensor at a time) —
/// a birth–death CTMC over the alive-sensor count whose steady state
/// gives the *long-run* availability of k-of-n services. This is the
/// §5 "operate with limited resources and failing parts" story once
/// maintenance exists.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairableSensorPopulation {
    sensors: usize,
    failure_rate: f64,
    repair_rate: f64,
}

impl RepairableSensorPopulation {
    /// Creates a repairable population.
    ///
    /// # Errors
    ///
    /// Returns [`AmbientError::InvalidParameter`] for zero sensors or
    /// non-positive rates.
    pub fn new(sensors: usize, failure_rate: f64, repair_rate: f64) -> Result<Self, AmbientError> {
        if sensors == 0 {
            return Err(AmbientError::InvalidParameter("sensors"));
        }
        if !(failure_rate.is_finite() && failure_rate > 0.0) {
            return Err(AmbientError::InvalidParameter("failure_rate"));
        }
        if !(repair_rate.is_finite() && repair_rate > 0.0) {
            return Err(AmbientError::InvalidParameter("repair_rate"));
        }
        Ok(RepairableSensorPopulation {
            sensors,
            failure_rate,
            repair_rate,
        })
    }

    /// The birth–death generator over the alive count `0..=n`:
    /// `i → i−1` at `i·λ` (any alive sensor can fail), `i → i+1` at `μ`
    /// (a single repair crew).
    fn chain(&self) -> Result<dms_analysis::ContinuousMarkovChain, AmbientError> {
        let n = self.sensors;
        let mut q = vec![vec![0.0; n + 1]; n + 1];
        for alive in 0..=n {
            if alive > 0 {
                q[alive][alive - 1] = alive as f64 * self.failure_rate;
            }
            if alive < n {
                q[alive][alive + 1] = self.repair_rate;
            }
            q[alive][alive] = -(q[alive].iter().sum::<f64>());
        }
        Ok(dms_analysis::ContinuousMarkovChain::new(q)?)
    }

    /// Long-run distribution over the number of alive sensors.
    ///
    /// # Errors
    ///
    /// Propagates Markov-analysis failures.
    pub fn steady_state_alive(&self) -> Result<Vec<f64>, AmbientError> {
        Ok(self.chain()?.stationary()?)
    }

    /// Long-run availability of a k-of-n service: `Σ_{i≥k} π_i`.
    ///
    /// # Errors
    ///
    /// Propagates Markov-analysis failures.
    pub fn steady_state_availability(&self, k: usize) -> Result<f64, AmbientError> {
        if k == 0 {
            return Ok(1.0);
        }
        if k > self.sensors {
            return Ok(0.0);
        }
        let pi = self.steady_state_alive()?;
        Ok(pi[k..].iter().sum())
    }

    /// Availability at time `t` starting from a fully healthy
    /// population (transient analysis by uniformisation).
    ///
    /// # Errors
    ///
    /// Propagates Markov-analysis failures.
    pub fn availability_at(&self, k: usize, t: f64) -> Result<f64, AmbientError> {
        if k == 0 {
            return Ok(1.0);
        }
        if k > self.sensors {
            return Ok(0.0);
        }
        let mut initial = vec![0.0; self.sensors + 1];
        initial[self.sensors] = 1.0;
        let dist = self.chain()?.transient(&initial, t)?;
        Ok(dist[k..].iter().sum())
    }
}

/// Binomial probability mass `C(n, i) p^i (1−p)^(n−i)`, computed in log
/// space to stay stable for large `n`.
fn binomial_pmf(n: usize, i: usize, p: f64) -> f64 {
    if p <= 0.0 {
        return if i == 0 { 1.0 } else { 0.0 };
    }
    if p >= 1.0 {
        return if i == n { 1.0 } else { 0.0 };
    }
    let ln_choose = ln_factorial(n) - ln_factorial(i) - ln_factorial(n - i);
    (ln_choose + i as f64 * p.ln() + (n - i) as f64 * (1.0 - p).ln()).exp()
}

fn ln_factorial(n: usize) -> f64 {
    (2..=n).map(|k| (k as f64).ln()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(SensorPopulation::new(0, 0.1).is_err());
        assert!(SensorPopulation::new(5, 0.0).is_err());
        assert!(SensorPopulation::new(5, f64::NAN).is_err());
    }

    #[test]
    fn survival_decays() {
        let pop = SensorPopulation::new(10, 0.1).expect("valid");
        assert_eq!(pop.sensor_survival(0.0), 1.0);
        assert!(pop.sensor_survival(10.0) < pop.sensor_survival(1.0));
        assert!((pop.sensor_survival(10.0) - (-1.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn availability_edge_cases() {
        let pop = SensorPopulation::new(4, 0.1).expect("valid");
        assert_eq!(pop.availability(0, 100.0), 1.0);
        assert_eq!(pop.availability(5, 0.0), 0.0);
        assert!((pop.availability(4, 0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn redundancy_buys_availability() {
        // 2-of-6 beats 2-of-3 at any positive time.
        let small = SensorPopulation::new(3, 0.2).expect("valid");
        let big = SensorPopulation::new(6, 0.2).expect("valid");
        for t in [0.5, 1.0, 2.0, 5.0] {
            assert!(big.availability(2, t) > small.availability(2, t), "t = {t}");
        }
    }

    #[test]
    fn analysis_matches_monte_carlo() {
        let pop = SensorPopulation::new(8, 0.15).expect("valid");
        let mut rng = SimRng::new(17);
        for &(k, t) in &[(2usize, 1.0f64), (5, 2.0), (8, 0.5)] {
            let exact = pop.availability(k, t);
            let mc = pop.availability_mc(k, t, 40_000, &mut rng);
            assert!(
                (exact - mc).abs() < 0.01,
                "k={k} t={t}: exact {exact}, MC {mc}"
            );
        }
    }

    #[test]
    fn lifetime_to_availability_is_monotone_in_redundancy() {
        let sparse = SensorPopulation::new(4, 0.1).expect("valid");
        let dense = SensorPopulation::new(12, 0.1).expect("valid");
        let t_sparse = sparse.lifetime_to_availability(3, 0.9);
        let t_dense = dense.lifetime_to_availability(3, 0.9);
        assert!(t_dense > t_sparse);
        // Already below target at t = 0.
        assert_eq!(sparse.lifetime_to_availability(5, 0.9), 0.0);
    }

    #[test]
    fn repairable_validation() {
        assert!(RepairableSensorPopulation::new(0, 0.1, 1.0).is_err());
        assert!(RepairableSensorPopulation::new(4, 0.0, 1.0).is_err());
        assert!(RepairableSensorPopulation::new(4, 0.1, 0.0).is_err());
    }

    #[test]
    fn repair_restores_long_run_availability() {
        // Without repair, availability at large t tends to 0; with a fast
        // crew it stays high forever.
        let no_repair = SensorPopulation::new(6, 0.1).expect("valid");
        let repaired = RepairableSensorPopulation::new(6, 0.1, 2.0).expect("valid");
        let k = 4;
        assert!(no_repair.availability(k, 50.0) < 0.01);
        let steady = repaired.steady_state_availability(k).expect("converges");
        assert!(steady > 0.5, "steady availability {steady}");
    }

    #[test]
    fn faster_crews_buy_availability() {
        let slow = RepairableSensorPopulation::new(5, 0.2, 0.2).expect("valid");
        let fast = RepairableSensorPopulation::new(5, 0.2, 5.0).expect("valid");
        let a_slow = slow.steady_state_availability(4).expect("converges");
        let a_fast = fast.steady_state_availability(4).expect("converges");
        assert!(a_fast > a_slow);
    }

    #[test]
    fn repairable_boundaries_and_distribution() {
        let pop = RepairableSensorPopulation::new(4, 0.3, 1.0).expect("valid");
        assert_eq!(pop.steady_state_availability(0).expect("trivial"), 1.0);
        assert_eq!(pop.steady_state_availability(5).expect("trivial"), 0.0);
        let pi = pop.steady_state_alive().expect("converges");
        assert_eq!(pi.len(), 5);
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-8);
    }

    #[test]
    fn transient_relaxes_from_perfect_to_steady() {
        let pop = RepairableSensorPopulation::new(6, 0.2, 1.0).expect("valid");
        let k = 4;
        let fresh = pop.availability_at(k, 0.0).expect("valid");
        assert!((fresh - 1.0).abs() < 1e-9);
        let late = pop.availability_at(k, 200.0).expect("valid");
        let steady = pop.steady_state_availability(k).expect("converges");
        assert!(
            (late - steady).abs() < 1e-4,
            "late {late} vs steady {steady}"
        );
        // Availability decreases monotonically from fresh towards steady.
        let mid = pop.availability_at(k, 2.0).expect("valid");
        assert!(mid < fresh && mid > steady - 1e-9);
    }

    #[test]
    fn binomial_pmf_normalises() {
        let total: f64 = (0..=10).map(|i| binomial_pmf(10, i, 0.37)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(binomial_pmf(5, 0, 0.0), 1.0);
        assert_eq!(binomial_pmf(5, 5, 1.0), 1.0);
    }
}
