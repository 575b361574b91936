//! Property-based tests for the analytical machinery.

use dms_analysis::{DiscreteMarkovChain, MM1KQueue, ProducerConsumerChain};
use proptest::prelude::*;

/// Strategy: a random row-stochastic matrix with strictly positive
/// entries (ergodic, so both solvers apply).
fn stochastic_matrix(n: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(0.05f64..1.0, n), n).prop_map(|rows| {
        rows.into_iter()
            .map(|row| {
                let total: f64 = row.iter().sum();
                row.into_iter().map(|x| x / total).collect()
            })
            .collect()
    })
}

proptest! {
    /// π is a fixed point: π·P = π, Σπ = 1, π ≥ 0.
    #[test]
    fn stationary_is_a_distribution_and_fixed_point(rows in stochastic_matrix(5)) {
        let chain = DiscreteMarkovChain::new(rows).expect("normalised rows");
        let pi = chain.stationary_gauss_seidel().expect("ergodic");
        prop_assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-8);
        prop_assert!(pi.iter().all(|&x| x >= -1e-12));
        let stepped = chain.step_distribution(&pi);
        for (a, b) in pi.iter().zip(&stepped) {
            prop_assert!((a - b).abs() < 1e-7);
        }
    }

    /// Both solvers agree on ergodic chains.
    #[test]
    fn solvers_agree(rows in stochastic_matrix(4)) {
        let chain = DiscreteMarkovChain::new(rows).expect("normalised rows");
        let a = chain.stationary_power_iteration().expect("ergodic");
        let b = chain.stationary_gauss_seidel().expect("ergodic");
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-7, "{x} vs {y}");
        }
    }

    /// M/M/1/K: probabilities form a distribution, and blocking
    /// decreases with capacity.
    #[test]
    fn mm1k_sanity(lambda in 0.05f64..5.0, mu in 0.05f64..5.0, k in 1u32..30) {
        let q = MM1KQueue::new(lambda, mu, k).expect("valid");
        let total: f64 = (0..=k).map(|n| q.prob_n(n)).sum();
        prop_assert!((total - 1.0).abs() < 1e-8);
        if k > 1 {
            let bigger = MM1KQueue::new(lambda, mu, k + 1).expect("valid");
            prop_assert!(bigger.blocking_probability() <= q.blocking_probability() + 1e-12);
        }
    }

    /// Producer–consumer: throughput = offered × (1 − loss); measures in
    /// range; monotone in buffer size.
    #[test]
    fn prodcons_invariants(p in 0.01f64..0.99, q in 0.01f64..0.99, k in 1usize..24) {
        let chain = ProducerConsumerChain::new(p, q, k).expect("valid");
        let perf = chain.performance().expect("converges");
        prop_assert!((perf.throughput - p * (1.0 - perf.loss_rate)).abs() < 1e-9);
        prop_assert!((0.0..=1.0).contains(&perf.loss_rate));
        prop_assert!(perf.mean_occupancy >= 0.0 && perf.mean_occupancy <= k as f64);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&perf.full_probability));
        prop_assert!((0.0..=1.0 + 1e-12).contains(&perf.empty_probability));
        // Bigger buffer, never more loss.
        let bigger = ProducerConsumerChain::new(p, q, k + 4).expect("valid");
        let perf_big = bigger.performance().expect("converges");
        prop_assert!(perf_big.loss_rate <= perf.loss_rate + 1e-9);
    }

}
