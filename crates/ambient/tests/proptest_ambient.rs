//! Property-based tests for the ambient-multimedia models.

use dms_ambient::faults::SensorPopulation;
use dms_ambient::smartspace::SmartSpace;
use proptest::prelude::*;

proptest! {
    /// k-of-n availability is a probability, non-increasing in time and
    /// in k, non-decreasing in n.
    #[test]
    fn availability_monotonicity(
        n in 1usize..20,
        k in 0usize..20,
        rate in 0.01f64..1.0,
        t in 0.0f64..20.0,
    ) {
        let pop = SensorPopulation::new(n, rate).expect("valid");
        let a = pop.availability(k, t);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&a));
        // Later is never better (no repair).
        prop_assert!(pop.availability(k, t + 1.0) <= a + 1e-12);
        // Needing more sensors is never easier.
        prop_assert!(pop.availability(k + 1, t) <= a + 1e-12);
        // A larger population is never worse.
        let bigger = SensorPopulation::new(n + 1, rate).expect("valid");
        prop_assert!(bigger.availability(k, t) >= a - 1e-12);
    }

    /// The closed-form availability equals 1 at t=0 whenever k ≤ n, and
    /// 0 whenever k > n at any time.
    #[test]
    fn availability_boundaries(n in 1usize..15, k in 0usize..30, rate in 0.01f64..1.0) {
        let pop = SensorPopulation::new(n, rate).expect("valid");
        if k <= n {
            prop_assert!((pop.availability(k, 0.0) - 1.0).abs() < 1e-12);
        } else {
            prop_assert!(pop.availability(k, 5.0) == 0.0);
        }
    }

    /// Smart-space utility is bounded by its ceiling and degrades
    /// monotonically over time for any failure rate.
    #[test]
    fn smartspace_utility_bounded_and_monotone(rate in 0.005f64..0.5, t in 0.0f64..30.0) {
        let space = SmartSpace::home_preset(rate).expect("preset valid");
        let now = space.evaluate(t).expect("converges");
        let later = space.evaluate(t + 1.0).expect("converges");
        prop_assert!(now.expected_utility <= now.max_utility + 1e-12);
        prop_assert!(now.expected_utility >= -1e-12);
        prop_assert!(later.expected_utility <= now.expected_utility + 1e-12);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&now.degradation()));
    }
}
