//! Closed-form queueing results (M/M/1/K).
//!
//! §2.2: analytical approaches "rely on theoretical assumptions (for
//! instance, exponentially distributed arrival times) that are needed in
//! order to make the analysis tractable". These classical formulas are
//! exactly that tractable baseline — and the thing self-similar traffic
//! breaks (§3.2), which experiment E2 demonstrates by comparing them
//! against simulation under long-range-dependent input.

use crate::error::AnalysisError;

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
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }

    #[test]
    fn mm1k_converges_to_mm1_for_large_k() {
        // M/M/1 at ρ = 0.5 holds ρ/(1−ρ) = 1 customer on average.
        let fin = MM1KQueue::new(0.5, 1.0, 60).expect("valid");
        assert!((fin.mean_queue_length() - 1.0).abs() < 1e-9);
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
