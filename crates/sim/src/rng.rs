//! Deterministic random-number utilities.
//!
//! All stochastic behaviour in the `dms` framework flows through
//! [`SimRng`], a seeded generator that supports *sub-stream derivation*:
//! each component of a simulation (one router, one traffic source, one
//! MANET node) derives its own independent stream from the master seed
//! and a stable label. This keeps results reproducible even when the
//! set of components or their order of construction changes.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rand_distr::{Distribution, Exp, LogNormal, Normal, Pareto};

/// A deterministic random-number generator with labelled sub-streams.
///
/// # Examples
///
/// ```
/// use dms_sim::SimRng;
/// let mut a = SimRng::new(7).substream("router", 3);
/// let mut b = SimRng::new(7).substream("router", 3);
/// assert_eq!(a.uniform(), b.uniform()); // same seed + label => same stream
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    seed: u64,
    inner: StdRng,
}

impl SimRng {
    /// Creates a generator from a master seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SimRng {
            seed,
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent sub-stream identified by `(label, index)`.
    ///
    /// The derivation mixes the master seed with a hash of the label and
    /// index, so the stream depends only on the identity of the component,
    /// not on how many other streams were derived before it.
    #[must_use]
    pub fn substream(&self, label: &str, index: u64) -> SimRng {
        let mut h = self.seed ^ 0x9e37_79b9_7f4a_7c15;
        for &b in label.as_bytes() {
            h = splitmix64(h ^ u64::from(b));
        }
        h = splitmix64(h ^ index);
        SimRng {
            seed: h,
            inner: StdRng::seed_from_u64(h),
        }
    }

    /// Samples a uniform `f64` in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Samples a uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is meaningless");
        self.inner.gen_range(0..n)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Samples an exponential variate with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not finite and positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be positive"
        );
        Exp::new(1.0 / mean)
            .expect("valid rate")
            .sample(&mut self.inner)
    }

    /// Samples a normal variate.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or either parameter is non-finite.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        Normal::new(mean, std_dev)
            .expect("valid normal parameters")
            .sample(&mut self.inner)
    }

    /// Samples a log-normal variate parameterised by the mean and standard
    /// deviation of the *underlying* normal.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is non-finite.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        LogNormal::new(mu, sigma)
            .expect("valid lognormal parameters")
            .sample(&mut self.inner)
    }

    /// Samples a Pareto variate with scale `x_m` and shape `alpha`.
    ///
    /// Heavy-tailed for `alpha <= 2`; the workhorse behind self-similar
    /// ON/OFF traffic sources.
    ///
    /// # Panics
    ///
    /// Panics if parameters are not positive and finite.
    pub fn pareto(&mut self, x_m: f64, alpha: f64) -> f64 {
        Pareto::new(x_m, alpha)
            .expect("valid pareto parameters")
            .sample(&mut self.inner)
    }

    /// Chooses an index according to a slice of non-negative weights.
    ///
    /// Returns `None` if the slice is empty or the weights sum to zero.
    pub fn weighted_choice(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
        if total <= 0.0 {
            return None;
        }
        let mut target = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            if w.is_finite() && w > 0.0 {
                if target < w {
                    return Some(i);
                }
                target -= w;
            }
        }
        // Floating-point slack: fall back to the last positive weight.
        weights.iter().rposition(|w| w.is_finite() && *w > 0.0)
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            items.swap(i, j);
        }
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

/// SplitMix64 finaliser, used to mix label bytes into sub-stream seeds
/// (and, in [`crate::sketch::Reservoir`], to turn keys into hash
/// priorities without a running RNG).
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(1234);
        let mut b = SimRng::new(1234);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_give_different_substreams() {
        let root = SimRng::new(5);
        let mut a = root.substream("alpha", 0);
        let mut b = root.substream("beta", 0);
        let mut c = root.substream("alpha", 1);
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_ne!(x, y);
        assert_ne!(x, z);
        assert_ne!(y, z);
    }

    #[test]
    fn substream_is_order_independent() {
        let root = SimRng::new(99);
        let mut first = root.substream("node", 7);
        let _ = root.substream("other", 0); // deriving extra streams must not matter
        let mut second = root.substream("node", 7);
        assert_eq!(first.next_u64(), second.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = SimRng::new(42);
        for _ in 0..1000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::new(7);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| rng.exponential(3.0)).sum();
        let mean = sum / f64::from(n);
        assert!((mean - 3.0).abs() < 0.1, "mean {mean} too far from 3.0");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(1);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(rng.chance(2.0)); // clamped
        assert!(!rng.chance(-1.0));
    }

    #[test]
    fn weighted_choice_respects_zero_weights() {
        let mut rng = SimRng::new(3);
        for _ in 0..200 {
            let idx = rng
                .weighted_choice(&[0.0, 1.0, 0.0])
                .expect("positive total");
            assert_eq!(idx, 1);
        }
        assert_eq!(rng.weighted_choice(&[]), None);
        assert_eq!(rng.weighted_choice(&[0.0, 0.0]), None);
    }

    #[test]
    fn weighted_choice_roughly_proportional() {
        let mut rng = SimRng::new(11);
        let mut counts = [0u32; 2];
        for _ in 0..10_000 {
            counts[rng.weighted_choice(&[1.0, 3.0]).expect("total > 0")] += 1;
        }
        let frac = f64::from(counts[1]) / 10_000.0;
        assert!((frac - 0.75).abs() < 0.03, "got {frac}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::new(8);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn pareto_exceeds_scale() {
        let mut rng = SimRng::new(4);
        for _ in 0..1000 {
            assert!(rng.pareto(2.0, 1.5) >= 2.0);
        }
    }
}
