//! Continuous-time Markov chains.
//!
//! §2.2 notes that "timed extensions for most modern formalisms have
//! been proposed" but "suffer from excessive complexity". A CTMC is the
//! tractable core of those formalisms: exponential holding times and a
//! generator matrix `Q` (`q_ij ≥ 0` off-diagonal rates, rows summing to
//! zero). Stationary and transient solutions are computed by
//! *uniformisation*, reducing to the [`DiscreteMarkovChain`] machinery.

use crate::error::AnalysisError;
use crate::markov::DiscreteMarkovChain;

/// A finite continuous-time Markov chain.
///
/// # Examples
///
/// An M/M/1/2 queue as a CTMC (λ = 1, μ = 2):
///
/// ```
/// # fn main() -> Result<(), dms_analysis::AnalysisError> {
/// use dms_analysis::ctmc::ContinuousMarkovChain;
///
/// let chain = ContinuousMarkovChain::birth_death(2, 1.0, 2.0)?;
/// let pi = chain.stationary()?;
/// assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
/// assert!(pi[0] > pi[2]); // fast service keeps the queue short
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ContinuousMarkovChain {
    q: Vec<Vec<f64>>,
    /// Uniformisation rate Λ ≥ max_i |q_ii| (strictly greater, to keep
    /// the embedded DTMC aperiodic).
    uniform_rate: f64,
}

impl ContinuousMarkovChain {
    /// Creates a chain from a generator matrix.
    ///
    /// # Errors
    ///
    /// * [`AnalysisError::BadDimensions`] for an empty or non-square
    ///   matrix.
    /// * [`AnalysisError::NotStochastic`] if an off-diagonal rate is
    ///   negative or a row does not sum to zero (within `1e-9`).
    pub fn new(q: Vec<Vec<f64>>) -> Result<Self, AnalysisError> {
        let n = q.len();
        if n == 0 || q.iter().any(|row| row.len() != n) {
            return Err(AnalysisError::BadDimensions);
        }
        let mut max_exit = 0.0f64;
        for (i, row) in q.iter().enumerate() {
            for (j, &rate) in row.iter().enumerate() {
                if i != j && (rate.is_nan() || rate < 0.0) {
                    return Err(AnalysisError::NotStochastic(i, rate));
                }
            }
            let sum: f64 = row.iter().sum();
            if sum.abs() > 1e-9 {
                return Err(AnalysisError::NotStochastic(i, sum));
            }
            max_exit = max_exit.max(-row[i]);
        }
        // Strictly above the fastest exit rate so the uniformised DTMC
        // has positive self-loops (aperiodicity).
        let uniform_rate = if max_exit > 0.0 { max_exit * 1.05 } else { 1.0 };
        Ok(ContinuousMarkovChain { q, uniform_rate })
    }

    /// A birth–death CTMC on `0..=k` with arrival rate `lambda` and
    /// service rate `mu` — exactly the M/M/1/K queue.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidParameter`] for non-positive
    /// rates.
    pub fn birth_death(k: usize, lambda: f64, mu: f64) -> Result<Self, AnalysisError> {
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(AnalysisError::InvalidParameter("lambda"));
        }
        if !(mu.is_finite() && mu > 0.0) {
            return Err(AnalysisError::InvalidParameter("mu"));
        }
        let n = k + 1;
        let mut q = vec![vec![0.0; n]; n];
        for s in 0..n {
            if s < k {
                q[s][s + 1] = lambda;
            }
            if s > 0 {
                q[s][s - 1] = mu;
            }
            q[s][s] = -(q[s].iter().sum::<f64>());
        }
        ContinuousMarkovChain::new(q)
    }

    /// The uniformised DTMC `P = I + Q/Λ`.
    ///
    /// # Errors
    ///
    /// Propagates DTMC validation failures (internal invariant; should
    /// not fire for a validated generator).
    pub fn uniformized(&self) -> Result<DiscreteMarkovChain, AnalysisError> {
        let n = self.q.len();
        let p: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        let base = if i == j { 1.0 } else { 0.0 };
                        base + self.q[i][j] / self.uniform_rate
                    })
                    .collect()
            })
            .collect();
        DiscreteMarkovChain::new(p)
    }

    /// Stationary distribution: `πQ = 0, Σπ = 1` (via the uniformised
    /// DTMC, which shares the stationary vector).
    ///
    /// # Errors
    ///
    /// Propagates solver non-convergence.
    pub fn stationary(&self) -> Result<Vec<f64>, AnalysisError> {
        self.uniformized()?.stationary_gauss_seidel()
    }

    /// Transient distribution `π(t)` from `initial`, by uniformisation:
    /// `π(t) = Σ_k Poisson(Λt; k) · initial · Pᵏ`, truncated once the
    /// Poisson tail falls below `1e-12`.
    ///
    /// # Errors
    ///
    /// * [`AnalysisError::BadDimensions`] if `initial` has the wrong
    ///   length.
    /// * [`AnalysisError::InvalidParameter`] for negative or non-finite
    ///   `t`.
    pub fn transient(&self, initial: &[f64], t: f64) -> Result<Vec<f64>, AnalysisError> {
        if initial.len() != self.q.len() {
            return Err(AnalysisError::BadDimensions);
        }
        if !(t.is_finite() && t >= 0.0) {
            return Err(AnalysisError::InvalidParameter("t"));
        }
        let p = self.uniformized()?;
        let lt = self.uniform_rate * t;
        let mut dist = initial.to_vec();
        let mut result = vec![0.0; dist.len()];
        // Poisson weights computed iteratively: w_0 = e^{-Λt},
        // w_k = w_{k-1}·Λt/k.
        let mut weight = (-lt).exp();
        let mut cumulative = 0.0;
        let mut k = 0u64;
        // Cap iterations well past the Poisson mean + 10σ.
        let max_k = (lt + 10.0 * lt.sqrt() + 50.0) as u64;
        loop {
            for (r, d) in result.iter_mut().zip(&dist) {
                *r += weight * d;
            }
            cumulative += weight;
            if 1.0 - cumulative < 1e-12 || k > max_k {
                break;
            }
            dist = p.step_distribution(&dist);
            k += 1;
            weight *= lt / k as f64;
        }
        // Renormalise the truncation residue.
        let total: f64 = result.iter().sum();
        if total > 0.0 {
            for r in &mut result {
                *r /= total;
            }
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::MM1KQueue;

    #[test]
    fn validation() {
        assert!(ContinuousMarkovChain::new(vec![]).is_err());
        assert!(ContinuousMarkovChain::new(vec![vec![0.0, 1.0]]).is_err());
        // Row does not sum to zero.
        assert!(ContinuousMarkovChain::new(vec![vec![-1.0, 0.5], vec![1.0, -1.0]]).is_err());
        // Negative off-diagonal rate.
        assert!(ContinuousMarkovChain::new(vec![vec![1.0, -1.0], vec![1.0, -1.0]]).is_err());
        // Valid two-state chain.
        assert!(ContinuousMarkovChain::new(vec![vec![-1.0, 1.0], vec![2.0, -2.0]]).is_ok());
    }

    #[test]
    fn two_state_stationary_closed_form() {
        // π = (μ, λ)/(λ+μ) for rates λ (0→1), μ (1→0).
        let chain =
            ContinuousMarkovChain::new(vec![vec![-3.0, 3.0], vec![1.0, -1.0]]).expect("valid");
        let pi = chain.stationary().expect("converges");
        assert!((pi[0] - 0.25).abs() < 1e-8);
        assert!((pi[1] - 0.75).abs() < 1e-8);
    }

    #[test]
    fn birth_death_matches_mm1k() {
        let (lambda, mu, k) = (0.8, 1.0, 6);
        let ctmc = ContinuousMarkovChain::birth_death(k, lambda, mu).expect("valid");
        let pi = ctmc.stationary().expect("converges");
        let queue = MM1KQueue::new(lambda, mu, k as u32).expect("valid");
        for n in 0..=k {
            assert!(
                (pi[n] - queue.prob_n(n as u32)).abs() < 1e-7,
                "state {n}: CTMC {} vs closed form {}",
                pi[n],
                queue.prob_n(n as u32)
            );
        }
    }

    #[test]
    fn transient_starts_at_initial_and_converges_to_stationary() {
        let chain = ContinuousMarkovChain::birth_death(4, 1.0, 1.5).expect("valid");
        let initial = vec![1.0, 0.0, 0.0, 0.0, 0.0];
        let at_zero = chain.transient(&initial, 0.0).expect("valid");
        for (a, b) in at_zero.iter().zip(&initial) {
            assert!((a - b).abs() < 1e-9);
        }
        let late = chain.transient(&initial, 200.0).expect("valid");
        let pi = chain.stationary().expect("converges");
        for (a, b) in late.iter().zip(&pi) {
            assert!((a - b).abs() < 1e-6, "transient {a} vs stationary {b}");
        }
    }

    #[test]
    fn transient_conserves_probability() {
        let chain = ContinuousMarkovChain::birth_death(5, 2.0, 1.0).expect("valid");
        let initial = vec![0.0, 0.0, 1.0, 0.0, 0.0, 0.0];
        for t in [0.1, 1.0, 5.0, 25.0] {
            let dist = chain.transient(&initial, t).expect("valid");
            assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9, "t = {t}");
            assert!(dist.iter().all(|&x| x >= -1e-12));
        }
    }

    #[test]
    fn transient_rejects_bad_input() {
        let chain = ContinuousMarkovChain::birth_death(2, 1.0, 1.0).expect("valid");
        assert!(chain.transient(&[1.0], 1.0).is_err());
        assert!(chain.transient(&[1.0, 0.0, 0.0], -1.0).is_err());
        assert!(chain.transient(&[1.0, 0.0, 0.0], f64::NAN).is_err());
    }

    #[test]
    fn transient_is_monotone_towards_equilibrium_in_l1() {
        let chain = ContinuousMarkovChain::birth_death(4, 1.0, 2.0).expect("valid");
        let initial = vec![0.0, 0.0, 0.0, 0.0, 1.0];
        let pi = chain.stationary().expect("converges");
        let l1 = |d: &[f64]| -> f64 { d.iter().zip(&pi).map(|(a, b)| (a - b).abs()).sum() };
        let mut last = f64::INFINITY;
        for t in [0.0, 0.5, 1.0, 2.0, 4.0, 8.0] {
            let d = chain.transient(&initial, t).expect("valid");
            let dist = l1(&d);
            assert!(dist <= last + 1e-9, "L1 distance rose at t = {t}");
            last = dist;
        }
    }
}
