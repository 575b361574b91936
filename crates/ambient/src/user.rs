//! Stochastic user-behaviour models.
//!
//! "Since users tend to behave non-deterministically, there is room for
//! stochastic modeling based on capturing the uncertainty in users
//! behavior" (§5, \[34\]). A [`UserBehaviorModel`] is a DTMC over named
//! activity states, each carrying a bandwidth/compute demand; its
//! stationary distribution yields the *expected* load an ambient space
//! must provision for — the average-case design principle of §2.

use dms_analysis::DiscreteMarkovChain;
use dms_sim::SimRng;

use crate::error::AmbientError;

/// One user-activity state and its service demand.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityState {
    /// Name ("idle", "video-call", …).
    pub name: String,
    /// Bandwidth demand in bits/s.
    pub bandwidth_bps: f64,
    /// Compute demand in cycles/s.
    pub compute_cps: f64,
}

/// A DTMC over user activities.
#[derive(Debug, Clone, PartialEq)]
pub struct UserBehaviorModel {
    states: Vec<ActivityState>,
    chain: DiscreteMarkovChain,
}

impl UserBehaviorModel {
    /// Creates a model from states and a row-stochastic transition
    /// matrix (per time slot, e.g. one minute).
    ///
    /// # Errors
    ///
    /// * [`AmbientError::InvalidParameter`] if the state list is empty
    ///   or its length disagrees with the matrix.
    /// * [`AmbientError::Analysis`] if the matrix is not stochastic.
    pub fn new(
        states: Vec<ActivityState>,
        transitions: Vec<Vec<f64>>,
    ) -> Result<Self, AmbientError> {
        if states.is_empty() || states.len() != transitions.len() {
            return Err(AmbientError::InvalidParameter("states"));
        }
        let chain = DiscreteMarkovChain::new(transitions)?;
        Ok(UserBehaviorModel { states, chain })
    }

    /// A five-state home-media preset: idle, music, browsing, video and
    /// video-call, with sticky diagonal behaviour.
    ///
    /// # Errors
    ///
    /// Never fails in practice; keeps the constructor signature uniform.
    pub fn home_preset() -> Result<Self, AmbientError> {
        let states = vec![
            ActivityState {
                name: "idle".into(),
                bandwidth_bps: 1e3,
                compute_cps: 1e6,
            },
            ActivityState {
                name: "music".into(),
                bandwidth_bps: 128e3,
                compute_cps: 20e6,
            },
            ActivityState {
                name: "browsing".into(),
                bandwidth_bps: 500e3,
                compute_cps: 80e6,
            },
            ActivityState {
                name: "video".into(),
                bandwidth_bps: 3e6,
                compute_cps: 300e6,
            },
            ActivityState {
                name: "video-call".into(),
                bandwidth_bps: 1.5e6,
                compute_cps: 400e6,
            },
        ];
        let transitions = vec![
            vec![0.80, 0.08, 0.07, 0.04, 0.01],
            vec![0.10, 0.80, 0.05, 0.04, 0.01],
            vec![0.10, 0.05, 0.75, 0.08, 0.02],
            vec![0.05, 0.02, 0.05, 0.85, 0.03],
            vec![0.10, 0.02, 0.03, 0.05, 0.80],
        ];
        UserBehaviorModel::new(states, transitions)
    }

    /// Number of activity states.
    #[must_use]
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// The states in index order.
    #[must_use]
    pub fn states(&self) -> &[ActivityState] {
        &self.states
    }

    /// The stationary distribution over activities.
    ///
    /// # Errors
    ///
    /// Propagates solver non-convergence as [`AmbientError::Analysis`].
    pub fn stationary(&self) -> Result<Vec<f64>, AmbientError> {
        Ok(self.chain.stationary_gauss_seidel()?)
    }

    /// Expected bandwidth demand (bits/s) under the stationary
    /// behaviour.
    ///
    /// # Errors
    ///
    /// Propagates solver non-convergence.
    pub fn expected_bandwidth_bps(&self) -> Result<f64, AmbientError> {
        let pi = self.stationary()?;
        let demands: Vec<f64> = self.states.iter().map(|s| s.bandwidth_bps).collect();
        Ok(self.chain.expected_reward(&pi, &demands))
    }

    /// Expected compute demand (cycles/s) under the stationary
    /// behaviour.
    ///
    /// # Errors
    ///
    /// Propagates solver non-convergence.
    pub fn expected_compute_cps(&self) -> Result<f64, AmbientError> {
        let pi = self.stationary()?;
        let demands: Vec<f64> = self.states.iter().map(|s| s.compute_cps).collect();
        Ok(self.chain.expected_reward(&pi, &demands))
    }

    /// Simulates `slots` activity slots, returning the visited state
    /// indices (for cross-checking the analysis by simulation, §2.2).
    #[must_use]
    pub fn simulate(&self, slots: usize, rng: &mut SimRng) -> Vec<usize> {
        let matrix = self.chain.transition_matrix();
        let mut state = 0usize;
        (0..slots)
            .map(|_| {
                let current = state;
                state = rng.weighted_choice(&matrix[state]).unwrap_or(state);
                current
            })
            .collect()
    }

    /// Per-slot *session arrival* counts for a population of `users`
    /// independent walkers of this DTMC — the closed-loop trace export
    /// that lets user behaviour (not an open-loop rate) drive a
    /// streaming server. A session arrives at slot `t` when a user
    /// transitions *into* an activity demanding at least
    /// `min_bandwidth_bps` from one below that threshold (idle →
    /// video starts a stream; video → video-call hands one over
    /// without a new arrival).
    ///
    /// Every user walks its own `("ambient-user", u)` substream of
    /// `seed`, so the trace is byte-deterministic, independent of
    /// population iteration order, and each user's path is stable as
    /// the population grows.
    #[must_use]
    pub fn session_arrivals(
        &self,
        slots: usize,
        users: usize,
        min_bandwidth_bps: f64,
        seed: u64,
    ) -> Vec<u32> {
        let matrix = self.chain.transition_matrix();
        let streaming: Vec<bool> = self
            .states
            .iter()
            .map(|s| s.bandwidth_bps >= min_bandwidth_bps)
            .collect();
        let master = SimRng::new(seed);
        let mut counts = vec![0u32; slots];
        for u in 0..users {
            let mut rng = master.substream("ambient-user", u as u64);
            let mut state = 0usize;
            for c in counts.iter_mut() {
                let next = rng.weighted_choice(&matrix[state]).unwrap_or(state);
                if streaming[next] && !streaming[state] {
                    *c += 1;
                }
                state = next;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validation() {
        assert!(UserBehaviorModel::new(vec![], vec![]).is_err());
        let states = vec![ActivityState {
            name: "a".into(),
            bandwidth_bps: 1.0,
            compute_cps: 1.0,
        }];
        // Non-stochastic matrix.
        assert!(UserBehaviorModel::new(states, vec![vec![0.7]]).is_err());
    }

    #[test]
    fn preset_stationary_sums_to_one() {
        let m = UserBehaviorModel::home_preset().expect("preset valid");
        let pi = m.stationary().expect("converges");
        assert_eq!(pi.len(), 5);
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // The sticky idle state dominates.
        let idle = pi[0];
        assert!(
            pi.iter().skip(1).all(|&p| p <= idle),
            "idle should be modal: {pi:?}"
        );
    }

    #[test]
    fn expected_demands_are_between_extremes() {
        let m = UserBehaviorModel::home_preset().expect("preset valid");
        let bw = m.expected_bandwidth_bps().expect("converges");
        assert!(bw > 1e3 && bw < 3e6, "expected bandwidth {bw}");
        let cc = m.expected_compute_cps().expect("converges");
        assert!(cc > 1e6 && cc < 400e6);
    }

    #[test]
    fn simulation_matches_stationary() {
        let m = UserBehaviorModel::home_preset().expect("preset valid");
        let pi = m.stationary().expect("converges");
        let visits = m.simulate(200_000, &mut SimRng::new(5));
        let mut counts = [0usize; 5];
        for v in visits {
            counts[v] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            let empirical = c as f64 / 200_000.0;
            assert!(
                (empirical - pi[s]).abs() < 0.02,
                "state {s}: empirical {empirical}, analytical {}",
                pi[s]
            );
        }
    }

    #[test]
    fn session_arrivals_are_deterministic_and_population_stable() {
        let m = UserBehaviorModel::home_preset().expect("preset valid");
        let a = m.session_arrivals(200, 30, 1e6, 9);
        assert_eq!(
            a,
            m.session_arrivals(200, 30, 1e6, 9),
            "same seed, same trace"
        );
        assert_eq!(a.len(), 200);
        // Each user starts at most one session per slot.
        assert!(a.iter().all(|&c| c <= 30));
        // The preset visits video/video-call often enough for a
        // 30-user population to produce arrivals over 200 slots.
        assert!(a.iter().map(|&c| u64::from(c)).sum::<u64>() > 0);
        // Per-user substreams: growing the population keeps the
        // existing users' contributions (the prefix population's
        // trace is a lower bound slot by slot).
        let bigger = m.session_arrivals(200, 60, 1e6, 9);
        assert!(a.iter().zip(&bigger).all(|(s, b)| s <= b));
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let m = UserBehaviorModel::home_preset().expect("preset valid");
        assert_eq!(
            m.simulate(100, &mut SimRng::new(1)),
            m.simulate(100, &mut SimRng::new(1))
        );
    }
}
