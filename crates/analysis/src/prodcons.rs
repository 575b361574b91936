//! The Producer–Consumer buffer as a Markov chain.
//!
//! §2.1 applies the Producer–Consumer paradigm "locally" (VLD feeding
//! IDCT/MV through buffers B3/B4) and "from a network perspective".
//! [`ProducerConsumerChain`] captures the local form analytically: in
//! each time slot the producer emits a token with probability `p` and
//! the consumer drains one with probability `q`; the buffer holds at
//! most `k` tokens and excess production is lost. The stationary
//! distribution yields exactly the measures §2.1 promises: throughput,
//! average buffer length (utilisation over time), loss and response
//! time.

use crate::error::AnalysisError;
use crate::markov::DiscreteMarkovChain;

/// Steady-state performance measures of a producer–consumer buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProducerConsumerPerformance {
    /// Delivered tokens per slot.
    pub throughput: f64,
    /// Fraction of produced tokens lost to a full buffer.
    pub loss_rate: f64,
    /// Mean buffer occupancy in tokens — "the average length of these
    /// buffers is very important as it reflects their utilization".
    pub mean_occupancy: f64,
    /// Probability the buffer is full.
    pub full_probability: f64,
    /// Probability the buffer is empty (consumer starves).
    pub empty_probability: f64,
}

/// A slotted producer–consumer buffer chain on states `0..=k`.
///
/// Within a slot the consumer drains first and the producer then fills
/// (possibly into the just-freed slot), so the per-slot state change is
/// +1 with probability `p(1−q)`, −1 with probability `q(1−p)` and 0
/// otherwise; at a full buffer a token is lost only when production
/// meets *no* simultaneous consumption.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), dms_analysis::AnalysisError> {
/// use dms_analysis::ProducerConsumerChain;
///
/// // A fast consumer keeps the buffer nearly empty.
/// let chain = ProducerConsumerChain::new(0.2, 0.8, 4)?;
/// let perf = chain.performance()?;
/// assert!(perf.mean_occupancy < 1.0);
/// assert!(perf.loss_rate < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProducerConsumerChain {
    p: f64,
    q: f64,
    k: usize,
    chain: DiscreteMarkovChain,
}

impl ProducerConsumerChain {
    /// Creates the chain for production probability `p`, consumption
    /// probability `q` and buffer capacity `k` tokens.
    ///
    /// # Errors
    ///
    /// * [`AnalysisError::InvalidProbability`] if `p` or `q` leaves `[0, 1]`.
    /// * [`AnalysisError::InvalidParameter`] if `k == 0`.
    pub fn new(p: f64, q: f64, k: usize) -> Result<Self, AnalysisError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(AnalysisError::InvalidProbability("p", p));
        }
        if !(0.0..=1.0).contains(&q) {
            return Err(AnalysisError::InvalidProbability("q", q));
        }
        if k == 0 {
            return Err(AnalysisError::InvalidParameter("k"));
        }
        // Effective slot transition probabilities.
        let up = p * (1.0 - q);
        let down = q * (1.0 - p);
        let n = k + 1;
        let mut m = vec![vec![0.0; n]; n];
        for s in 0..n {
            // At state 0 a produced token can still be consumed in the same
            // slot (probability p·q keeps the state at 0 but delivers one
            // token); at state k production is lost unless the consumer
            // frees a slot in the same instant.
            let eff_up = if s < k { up } else { 0.0 };
            let eff_down = if s > 0 { down } else { 0.0 };
            if s < k {
                m[s][s + 1] = eff_up;
            }
            if s > 0 {
                m[s][s - 1] = eff_down;
            }
            m[s][s] = 1.0 - eff_up - eff_down;
        }
        Ok(ProducerConsumerChain {
            p,
            q,
            k,
            chain: DiscreteMarkovChain::new(m)?,
        })
    }

    /// Stationary occupancy distribution `π_0..π_k`.
    ///
    /// # Errors
    ///
    /// Propagates solver non-convergence (practically impossible for
    /// these aperiodic birth–death chains unless `p` and `q` are both 0
    /// or both 1).
    pub fn stationary(&self) -> Result<Vec<f64>, AnalysisError> {
        self.chain.stationary_gauss_seidel()
    }

    /// Derives throughput, loss, occupancy and boundary probabilities
    /// from the stationary distribution (§2.1's "different performance
    /// measures ... can be easily derived").
    ///
    /// # Errors
    ///
    /// Propagates solver non-convergence.
    pub fn performance(&self) -> Result<ProducerConsumerPerformance, AnalysisError> {
        let pi = self.stationary()?;
        let full = pi[self.k];
        let empty = pi[0];
        let mean_occupancy: f64 = pi.iter().enumerate().map(|(s, &x)| s as f64 * x).sum();
        // A produced token is lost only when the buffer is full and the
        // consumer does not free a slot in the same instant (consumer-first
        // semantics, matching the transition matrix above).
        let offered = self.p;
        let lost = self.p * (1.0 - self.q) * full;
        let throughput = offered - lost;
        Ok(ProducerConsumerPerformance {
            throughput,
            loss_rate: if offered > 0.0 { lost / offered } else { 0.0 },
            mean_occupancy,
            full_probability: full,
            empty_probability: empty,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_invalid_parameters() {
        assert!(ProducerConsumerChain::new(1.5, 0.5, 4).is_err());
        assert!(ProducerConsumerChain::new(0.5, -0.1, 4).is_err());
        assert!(ProducerConsumerChain::new(0.5, 0.5, 0).is_err());
    }

    #[test]
    fn fast_consumer_keeps_buffer_empty() {
        let c = ProducerConsumerChain::new(0.1, 0.9, 8).expect("valid");
        let perf = c.performance().expect("converges");
        assert!(
            perf.empty_probability > 0.85,
            "empty prob {}",
            perf.empty_probability
        );
        assert!(perf.loss_rate < 1e-6);
        assert!((perf.throughput - 0.1).abs() < 1e-6);
    }

    #[test]
    fn fast_producer_fills_buffer_and_loses_tokens() {
        let c = ProducerConsumerChain::new(0.9, 0.1, 8).expect("valid");
        let perf = c.performance().expect("converges");
        assert!(perf.full_probability > 0.85);
        assert!(perf.loss_rate > 0.5);
        // Delivered throughput is capped by what the consumer can drain.
        assert!(perf.throughput <= 0.1 + 1e-6);
    }

    #[test]
    fn balanced_rates_spread_occupancy() {
        let c = ProducerConsumerChain::new(0.5, 0.5, 8).expect("valid");
        let pi = c.stationary().expect("converges");
        // p(1-q) == q(1-p) => uniform over states
        for &x in &pi {
            assert!((x - 1.0 / 9.0).abs() < 1e-6);
        }
        let perf = c.performance().expect("converges");
        assert!((perf.mean_occupancy - 4.0).abs() < 1e-6);
    }

    #[test]
    fn stationary_sums_to_one() {
        for &(p, q, k) in &[(0.3, 0.6, 4), (0.7, 0.2, 16), (0.5, 0.5, 32)] {
            let c = ProducerConsumerChain::new(p, q, k).expect("valid");
            let pi = c.stationary().expect("converges");
            let total: f64 = pi.iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
            assert_eq!(pi.len(), k + 1);
        }
    }

    #[test]
    fn throughput_conservation() {
        // Delivered = offered × (1 − loss_rate).
        let c = ProducerConsumerChain::new(0.6, 0.4, 6).expect("valid");
        let perf = c.performance().expect("converges");
        assert!((perf.throughput - 0.6 * (1.0 - perf.loss_rate)).abs() < 1e-9);
    }

    #[test]
    fn bigger_buffer_reduces_loss() {
        let small = ProducerConsumerChain::new(0.45, 0.5, 2).expect("valid");
        let large = ProducerConsumerChain::new(0.45, 0.5, 16).expect("valid");
        let ls = small.performance().expect("converges").loss_rate;
        let ll = large.performance().expect("converges").loss_rate;
        assert!(
            ll < ls,
            "large-buffer loss {ll} should be below small-buffer loss {ls}"
        );
    }

    #[test]
    fn idle_system_has_zero_throughput() {
        let c = ProducerConsumerChain::new(0.0, 0.5, 4).expect("valid");
        let perf = c.performance().expect("converges");
        assert_eq!(perf.throughput, 0.0);
        assert_eq!(perf.loss_rate, 0.0);
        assert!((perf.empty_probability - 1.0).abs() < 1e-9);
    }
}
