//! Sensor populations under failure.
//!
//! §5: ambient systems must be "able to operate with limited resources
//! and failing parts", echoing the fault-tolerance study of \[33\]. A
//! [`SensorPopulation`] holds `n` sensors with exponential lifetimes; a
//! service backed by the population is up while at least `k` sensors
//! are alive (k-of-n redundancy). E11 reads the closed-form
//! availability; the tests check it against a Monte-Carlo census of
//! sampled lifetimes (§2.2's simulation-vs-analysis duality).

use crate::error::AmbientError;

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
    use dms_sim::SimRng;

    /// Census slots per unit of population model time. At 1024 slots
    /// per unit the discretisation shifts the evaluation time by at
    /// most `1/2048` of a unit — far below Monte-Carlo noise at any
    /// feasible trial count.
    const SLOTS_PER_UNIT_TIME: u64 = 1024;

    /// Monte-Carlo estimate of the k-of-n availability at time `t` over
    /// `trials` populations: each sensor draws one exponential lifetime
    /// in slots from `rng`, in sensor order, and is down at the end of
    /// the census slot nearest `t` once the lifetime's ceiling reaches
    /// that slot (`ceil` keeps the integer-slot survival exact:
    /// `P(ceil(L) > s) = P(L > s)` at integer `s`).
    fn availability_mc(
        pop: &SensorPopulation,
        k: usize,
        t: f64,
        trials: usize,
        rng: &mut SimRng,
    ) -> f64 {
        let eval_slot = (t.max(0.0) * SLOTS_PER_UNIT_TIME as f64).round() as u64;
        let mean_lifetime = SLOTS_PER_UNIT_TIME as f64 / pop.failure_rate;
        let up = (0..trials)
            .filter(|_| {
                let alive = (0..pop.sensors)
                    .filter(|_| rng.exponential(mean_lifetime).ceil() > eval_slot as f64)
                    .count();
                alive >= k
            })
            .count();
        up as f64 / trials as f64
    }

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
            let mc = availability_mc(&pop, k, t, 40_000, &mut rng);
            assert!(
                (exact - mc).abs() < 0.01,
                "k={k} t={t}: exact {exact}, MC {mc}"
            );
        }
    }

    #[test]
    fn binomial_pmf_normalises() {
        let total: f64 = (0..=10).map(|i| binomial_pmf(10, i, 0.37)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(binomial_pmf(5, 0, 0.0), 1.0);
        assert_eq!(binomial_pmf(5, 5, 1.0), 1.0);
    }
}
