//! Discrete-time Markov chains and stationary-distribution solvers.
//!
//! "The objective of any analysis technique is the computation of the
//! stationary probability distribution for a distributed system
//! consisting of several processes that operate and interact
//! concurrently" (§2.2, citing Plateau & Fourneau). Two solvers are
//! provided: power iteration (robust, slow) and Gauss–Seidel on the
//! global balance equations (fast for the sparse chains produced by
//! producer–consumer models).

use crate::error::AnalysisError;

/// Convergence tolerance shared by the iterative solvers.
const TOLERANCE: f64 = 1e-12;
/// Iteration budget shared by the iterative solvers.
const MAX_ITERATIONS: usize = 200_000;

/// A finite discrete-time Markov chain with a row-stochastic transition
/// matrix `P[i][j] = Pr(next = j | current = i)`.
///
/// # Examples
///
/// A two-state ON/OFF chain:
///
/// ```
/// # fn main() -> Result<(), dms_analysis::AnalysisError> {
/// use dms_analysis::DiscreteMarkovChain;
///
/// let chain = DiscreteMarkovChain::new(vec![
///     vec![0.9, 0.1],
///     vec![0.5, 0.5],
/// ])?;
/// let pi = chain.stationary_power_iteration()?;
/// assert!((pi[0] - 5.0 / 6.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteMarkovChain {
    p: Vec<Vec<f64>>,
}

impl DiscreteMarkovChain {
    /// Creates a chain from a row-stochastic matrix.
    ///
    /// # Errors
    ///
    /// * [`AnalysisError::BadDimensions`] if the matrix is empty or not square.
    /// * [`AnalysisError::NotStochastic`] if any row has a negative entry
    ///   or does not sum to one (within `1e-9`).
    pub fn new(p: Vec<Vec<f64>>) -> Result<Self, AnalysisError> {
        let n = p.len();
        if n == 0 || p.iter().any(|row| row.len() != n) {
            return Err(AnalysisError::BadDimensions);
        }
        for (i, row) in p.iter().enumerate() {
            if row.iter().any(|&x| !(0.0..=1.0 + 1e-12).contains(&x)) {
                return Err(AnalysisError::NotStochastic(i, f64::NAN));
            }
            let sum: f64 = row.iter().sum();
            if (sum - 1.0).abs() > 1e-9 {
                return Err(AnalysisError::NotStochastic(i, sum));
            }
        }
        Ok(DiscreteMarkovChain { p })
    }

    /// The transition matrix.
    #[must_use]
    pub fn transition_matrix(&self) -> &[Vec<f64>] {
        &self.p
    }

    /// Single-step evolution of a distribution: returns `x · P`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the state count.
    #[must_use]
    pub fn step_distribution(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.p.len(), "distribution dimension mismatch");
        let n = self.p.len();
        let mut out = vec![0.0; n];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            for (j, out_j) in out.iter_mut().enumerate() {
                *out_j += xi * self.p[i][j];
            }
        }
        out
    }

    /// Stationary distribution via power iteration: iterate `π ← π·P`
    /// from the uniform distribution until the L1 change drops below
    /// tolerance.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::NoConvergence`] for periodic or otherwise
    /// non-convergent chains (e.g. a deterministic 2-cycle).
    pub fn stationary_power_iteration(&self) -> Result<Vec<f64>, AnalysisError> {
        let n = self.p.len();
        let mut pi = vec![1.0 / n as f64; n];
        for _ in 0..MAX_ITERATIONS {
            let next = self.step_distribution(&pi);
            let delta: f64 = next.iter().zip(&pi).map(|(a, b)| (a - b).abs()).sum();
            pi = next;
            if delta < TOLERANCE {
                return Ok(pi);
            }
        }
        let residual: f64 = {
            let next = self.step_distribution(&pi);
            next.iter().zip(&pi).map(|(a, b)| (a - b).abs()).sum()
        };
        Err(AnalysisError::NoConvergence {
            iterations: MAX_ITERATIONS,
            residual,
        })
    }

    /// Stationary distribution via Gauss–Seidel sweeps over the global
    /// balance equations `π_j = Σ_i π_i P_ij`, renormalising each sweep.
    ///
    /// Converges much faster than power iteration on the birth–death
    /// chains used throughout this workspace, and also handles periodic
    /// chains (it solves the balance equations rather than simulating
    /// the chain).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::NoConvergence`] if the sweeps do not
    /// settle within the iteration budget.
    pub fn stationary_gauss_seidel(&self) -> Result<Vec<f64>, AnalysisError> {
        let n = self.p.len();
        let mut pi = vec![1.0 / n as f64; n];
        for _ in 0..MAX_ITERATIONS {
            let mut delta = 0.0;
            for j in 0..n {
                // π_j (1 - P_jj) = Σ_{i≠j} π_i P_ij
                let denom = 1.0 - self.p[j][j];
                let numer: f64 = (0..n)
                    .filter(|&i| i != j)
                    .map(|i| pi[i] * self.p[i][j])
                    .sum();
                let new = if denom.abs() < 1e-15 {
                    pi[j] // absorbing state: leave mass as is, renormalisation handles it
                } else {
                    numer / denom
                };
                delta += (new - pi[j]).abs();
                pi[j] = new;
            }
            let total: f64 = pi.iter().sum();
            if total > 0.0 {
                for v in &mut pi {
                    *v /= total;
                }
            }
            if delta < TOLERANCE {
                return Ok(pi);
            }
        }
        Err(AnalysisError::NoConvergence {
            iterations: MAX_ITERATIONS,
            residual: f64::NAN,
        })
    }

    /// Expected value of a per-state reward under distribution `pi` —
    /// the "performance measures derived from the steady state" of §2.1
    /// (throughput, power, response time are all state rewards).
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ from the state count.
    #[must_use]
    pub fn expected_reward(&self, pi: &[f64], reward: &[f64]) -> f64 {
        assert_eq!(pi.len(), self.p.len(), "distribution dimension mismatch");
        assert_eq!(reward.len(), self.p.len(), "reward dimension mismatch");
        pi.iter().zip(reward).map(|(p, r)| p * r).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state() -> DiscreteMarkovChain {
        DiscreteMarkovChain::new(vec![vec![0.7, 0.3], vec![0.2, 0.8]]).expect("stochastic")
    }

    #[test]
    fn rejects_non_square() {
        assert_eq!(
            DiscreteMarkovChain::new(vec![vec![1.0, 0.0]]),
            Err(AnalysisError::BadDimensions)
        );
        assert_eq!(
            DiscreteMarkovChain::new(vec![]),
            Err(AnalysisError::BadDimensions)
        );
    }

    #[test]
    fn rejects_non_stochastic() {
        let bad = DiscreteMarkovChain::new(vec![vec![0.5, 0.4], vec![0.5, 0.5]]);
        assert!(matches!(bad, Err(AnalysisError::NotStochastic(0, _))));
        let negative = DiscreteMarkovChain::new(vec![vec![-0.5, 1.5], vec![0.5, 0.5]]);
        assert!(matches!(negative, Err(AnalysisError::NotStochastic(0, _))));
    }

    #[test]
    fn power_iteration_two_state_closed_form() {
        // π = (q, p) / (p + q) for P = [[1-p, p], [q, 1-q]]
        let pi = two_state().stationary_power_iteration().expect("converges");
        assert!((pi[0] - 0.4).abs() < 1e-9);
        assert!((pi[1] - 0.6).abs() < 1e-9);
    }

    #[test]
    fn gauss_seidel_matches_power_iteration() {
        let chain = two_state();
        let a = chain.stationary_power_iteration().expect("converges");
        let b = chain.stationary_gauss_seidel().expect("converges");
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-8, "{x} vs {y}");
        }
    }

    #[test]
    fn gauss_seidel_handles_periodic_chain() {
        // Deterministic 2-cycle: power iteration oscillates, Gauss–Seidel
        // solves the balance equations to the uniform distribution.
        let chain =
            DiscreteMarkovChain::new(vec![vec![0.0, 1.0], vec![1.0, 0.0]]).expect("stochastic");
        let pi = chain
            .stationary_gauss_seidel()
            .expect("balance equations solvable");
        assert!((pi[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn stationary_is_fixed_point() {
        let chain = two_state();
        let pi = chain.stationary_power_iteration().expect("converges");
        let stepped = chain.step_distribution(&pi);
        for (a, b) in pi.iter().zip(&stepped) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn expected_reward_weights_by_pi() {
        let chain = two_state();
        let pi = chain.stationary_power_iteration().expect("converges");
        let throughput = chain.expected_reward(&pi, &[0.0, 10.0]);
        assert!((throughput - 6.0).abs() < 1e-8);
    }

    #[test]
    fn identity_chain_keeps_initial_distribution() {
        let chain =
            DiscreteMarkovChain::new(vec![vec![1.0, 0.0], vec![0.0, 1.0]]).expect("stochastic");
        let x = chain.step_distribution(&[0.25, 0.75]);
        assert_eq!(x, vec![0.25, 0.75]);
    }
}
