//! Closed-form queueing results (M/M/1 and M/M/1/K).
//!
//! §2.2: analytical approaches "rely on theoretical assumptions (for
//! instance, exponentially distributed arrival times) that are needed in
//! order to make the analysis tractable". These classical formulas are
//! exactly that tractable baseline — and the thing self-similar traffic
//! breaks (§3.2), which experiment E2 demonstrates by comparing them
//! against simulation under long-range-dependent input.

use crate::error::AnalysisError;

/// An M/M/1 queue: Poisson arrivals at rate λ, exponential service at
/// rate μ, infinite buffer.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), dms_analysis::AnalysisError> {
/// use dms_analysis::MM1Queue;
///
/// let q = MM1Queue::new(0.5, 1.0)?;
/// assert!((q.utilization() - 0.5).abs() < 1e-12);
/// assert!((q.mean_queue_length() - 1.0).abs() < 1e-12); // ρ/(1-ρ)
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MM1Queue {
    lambda: f64,
    mu: f64,
}

impl MM1Queue {
    /// Creates a queue with arrival rate `lambda` and service rate `mu`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidParameter`] unless
    /// `0 < lambda < mu` (the stability condition) and both are finite.
    pub fn new(lambda: f64, mu: f64) -> Result<Self, AnalysisError> {
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(AnalysisError::InvalidParameter("lambda"));
        }
        if !(mu.is_finite() && mu > lambda) {
            return Err(AnalysisError::InvalidParameter("mu"));
        }
        Ok(MM1Queue { lambda, mu })
    }

    /// Server utilisation ρ = λ/μ.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.lambda / self.mu
    }

    /// Mean number in system, L = ρ/(1−ρ).
    #[must_use]
    pub fn mean_queue_length(&self) -> f64 {
        let rho = self.utilization();
        rho / (1.0 - rho)
    }

    /// Mean time in system (Little's law), W = L/λ.
    #[must_use]
    pub fn mean_response_time(&self) -> f64 {
        self.mean_queue_length() / self.lambda
    }

    /// Stationary probability of exactly `n` customers,
    /// `π_n = (1−ρ)·ρⁿ`.
    #[must_use]
    pub fn prob_n(&self, n: u32) -> f64 {
        let rho = self.utilization();
        (1.0 - rho) * rho.powi(n as i32)
    }

    /// Probability of more than `n` customers, `ρ^(n+1)` — the
    /// exponential tail that self-similar input destroys.
    #[must_use]
    pub fn prob_exceeds(&self, n: u32) -> f64 {
        self.utilization().powi(n as i32 + 1)
    }
}

/// An M/M/1/K queue: like M/M/1 but with at most `K` customers; arrivals
/// that find the system full are lost. This is the analytical twin of
/// [`dms_core::FiniteQueue`]-backed channel buffers.
///
/// [`dms_core::FiniteQueue`]: https://docs.rs/dms-core
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MM1KQueue {
    lambda: f64,
    mu: f64,
    k: u32,
}

impl MM1KQueue {
    /// Creates a finite queue with capacity `k` (system size, ≥ 1).
    ///
    /// Unlike M/M/1, no stability condition is needed (the buffer bounds
    /// the state space), so any `lambda, mu > 0` are accepted.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidParameter`] for non-positive
    /// rates or `k == 0`.
    pub fn new(lambda: f64, mu: f64, k: u32) -> Result<Self, AnalysisError> {
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(AnalysisError::InvalidParameter("lambda"));
        }
        if !(mu.is_finite() && mu > 0.0) {
            return Err(AnalysisError::InvalidParameter("mu"));
        }
        if k == 0 {
            return Err(AnalysisError::InvalidParameter("k"));
        }
        Ok(MM1KQueue { lambda, mu, k })
    }

    /// Offered load ρ = λ/μ (may exceed one).
    #[must_use]
    pub fn rho(&self) -> f64 {
        self.lambda / self.mu
    }

    /// Stationary probability of `n` customers (0 for `n > K`).
    #[must_use]
    pub fn prob_n(&self, n: u32) -> f64 {
        if n > self.k {
            return 0.0;
        }
        let rho = self.rho();
        if (rho - 1.0).abs() < 1e-12 {
            return 1.0 / (f64::from(self.k) + 1.0);
        }
        (1.0 - rho) * rho.powi(n as i32) / (1.0 - rho.powi(self.k as i32 + 1))
    }

    /// Blocking probability: the chance an arrival is lost, `π_K`.
    #[must_use]
    pub fn blocking_probability(&self) -> f64 {
        self.prob_n(self.k)
    }

    /// Mean number in system, `Σ n·π_n`.
    #[must_use]
    pub fn mean_queue_length(&self) -> f64 {
        (0..=self.k).map(|n| f64::from(n) * self.prob_n(n)).sum()
    }

    /// Effective throughput: `λ(1 − π_K)` — arrivals actually admitted.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        self.lambda * (1.0 - self.blocking_probability())
    }

    /// Mean response time for admitted customers (Little's law with the
    /// effective arrival rate).
    #[must_use]
    pub fn mean_response_time(&self) -> f64 {
        self.mean_queue_length() / self.throughput()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mm1_rejects_unstable() {
        assert!(MM1Queue::new(1.0, 1.0).is_err());
        assert!(MM1Queue::new(2.0, 1.0).is_err());
        assert!(MM1Queue::new(0.0, 1.0).is_err());
        assert!(MM1Queue::new(0.5, f64::INFINITY).is_err());
    }

    #[test]
    fn mm1_known_values() {
        let q = MM1Queue::new(2.0, 4.0).expect("stable");
        assert!((q.utilization() - 0.5).abs() < 1e-12);
        assert!((q.mean_queue_length() - 1.0).abs() < 1e-12);
        assert!((q.mean_response_time() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mm1_probabilities_sum_to_one() {
        let q = MM1Queue::new(0.7, 1.0).expect("stable");
        let total: f64 = (0..200).map(|n| q.prob_n(n)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mm1_tail_is_geometric() {
        let q = MM1Queue::new(0.8, 1.0).expect("stable");
        assert!((q.prob_exceeds(0) - 0.8).abs() < 1e-12);
        assert!((q.prob_exceeds(3) - 0.8f64.powi(4)).abs() < 1e-12);
    }

    #[test]
    fn mm1k_probabilities_sum_to_one() {
        let q = MM1KQueue::new(0.9, 1.0, 10).expect("valid");
        let total: f64 = (0..=10).map(|n| q.prob_n(n)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(q.prob_n(11), 0.0);
    }

    #[test]
    fn mm1k_handles_rho_equal_one() {
        let q = MM1KQueue::new(1.0, 1.0, 4).expect("valid");
        for n in 0..=4 {
            assert!((q.prob_n(n) - 0.2).abs() < 1e-12);
        }
        assert!((q.blocking_probability() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn mm1k_overload_blocks_heavily() {
        let q = MM1KQueue::new(5.0, 1.0, 4).expect("valid");
        assert!(q.blocking_probability() > 0.5);
        assert!(q.throughput() < 5.0);
        // Server can't serve faster than mu.
        assert!(q.throughput() <= 1.0 + 1e-9);
    }

    #[test]
    fn mm1k_converges_to_mm1_for_large_k() {
        let inf = MM1Queue::new(0.5, 1.0).expect("stable");
        let fin = MM1KQueue::new(0.5, 1.0, 60).expect("valid");
        assert!((inf.mean_queue_length() - fin.mean_queue_length()).abs() < 1e-9);
        assert!(fin.blocking_probability() < 1e-15);
    }

    #[test]
    fn mm1k_rejects_bad_parameters() {
        assert!(MM1KQueue::new(0.0, 1.0, 4).is_err());
        assert!(MM1KQueue::new(1.0, 0.0, 4).is_err());
        assert!(MM1KQueue::new(1.0, 1.0, 0).is_err());
    }

    #[test]
    fn blocking_decreases_with_capacity() {
        let small = MM1KQueue::new(0.8, 1.0, 2).expect("valid");
        let large = MM1KQueue::new(0.8, 1.0, 16).expect("valid");
        assert!(large.blocking_probability() < small.blocking_probability());
    }
}
