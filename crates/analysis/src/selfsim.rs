//! Self-similar (long-range dependent) traffic generation.
//!
//! "The bursty nature of the multimedia traffic makes self-similarity a
//! critical design factor ... self-similar processes typically obey some
//! power-law decay of the autocorrelation function. This produces
//! scenarios which are drastically different from those experienced with
//! traditional short-range dependent models such as Markovian processes"
//! (§3.2). Two generators are provided:
//!
//! * [`FractionalGaussianNoise`] — exact fGn, the canonical LRD process
//!   with Hurst parameter `H`: `O(n log n)` circulant embedding
//!   (Davies–Harte) by default, with the `O(n²)` Hosking
//!   (Durbin–Levinson) recursion kept as a cross-validation oracle;
//! * [`OnOffAggregate`] — superposition of Pareto ON/OFF sources, the
//!   physically-motivated model of aggregated multimedia flows (many
//!   bursty cores sharing a NoC); heavy-tailed sojourns with tail index
//!   `α` yield `H = (3 − α)/2`.
//!
//! [`PoissonArrivals`] supplies the Markovian (short-range dependent)
//! baseline the paper contrasts against.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use dms_sim::SimRng;

use crate::error::AnalysisError;
use crate::fft::{fft_in_place, Complex};

/// Exact fractional Gaussian noise generator.
///
/// Produces a stationary Gaussian series with autocovariance
/// `γ(k) = ½(|k+1|²ᴴ − 2|k|²ᴴ + |k−1|²ᴴ)`. `H = 0.5` degenerates to
/// white noise; `H > 0.5` gives long-range dependence.
///
/// [`FractionalGaussianNoise::generate`] uses circulant embedding
/// (Davies–Harte): the covariance is embedded in an `m = 2·2^⌈log₂ n⌉`
/// circulant whose eigenvalues come from one FFT, and the series is the
/// real part of an FFT of spectrally-weighted Gaussians — exact fGn in
/// `O(n log n)`, which is what makes 2¹⁶-sample traces cheap enough for
/// replicated experiments. The `O(n²)` Hosking (Durbin–Levinson)
/// recursion survives as [`FractionalGaussianNoise::generate_hosking`],
/// the independent oracle the tests cross-validate against.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), dms_analysis::AnalysisError> {
/// use dms_analysis::FractionalGaussianNoise;
/// use dms_sim::SimRng;
///
/// let fgn = FractionalGaussianNoise::new(0.8)?;
/// let series = fgn.generate(1024, &mut SimRng::new(42));
/// assert_eq!(series.len(), 1024);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FractionalGaussianNoise {
    hurst: f64,
}

impl FractionalGaussianNoise {
    /// Creates a generator with Hurst parameter `hurst ∈ (0, 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidParameter`] for `hurst` outside
    /// the open unit interval.
    pub fn new(hurst: f64) -> Result<Self, AnalysisError> {
        if !(hurst > 0.0 && hurst < 1.0) {
            return Err(AnalysisError::InvalidParameter("hurst"));
        }
        Ok(FractionalGaussianNoise { hurst })
    }

    /// Theoretical autocovariance at lag `k` (variance 1 at lag 0).
    #[must_use]
    pub fn autocovariance(&self, k: usize) -> f64 {
        let h2 = 2.0 * self.hurst;
        let k = k as f64;
        0.5 * ((k + 1.0).powf(h2) - 2.0 * k.powf(h2) + (k - 1.0).abs().powf(h2))
    }

    /// Generates `n` zero-mean, unit-variance fGn samples in
    /// `O(n log n)` via circulant embedding (Davies–Harte).
    ///
    /// For fGn the circulant eigenvalues are provably non-negative for
    /// every `H ∈ (0, 1)`; values within FFT round-off of zero are
    /// clamped. Deterministic for a given seed.
    #[must_use]
    pub fn generate(&self, n: usize, rng: &mut SimRng) -> Vec<f64> {
        if n == 0 {
            return Vec::new();
        }
        let g = n.next_power_of_two();
        let m = 2 * g;
        let mf = m as f64;
        // First row of the circulant embedding: γ(0..=g) mirrored.
        let mut spectrum = vec![Complex::ZERO; m];
        for j in 0..=g {
            let gamma = self.autocovariance(j);
            spectrum[j].re = gamma;
            if j > 0 && j < g {
                spectrum[m - j].re = gamma;
            }
        }
        // One FFT turns the row into the (real) eigenvalues λ_k.
        fft_in_place(&mut spectrum);
        // Spectrally-weighted Gaussians with Hermitian symmetry, so the
        // synthesis FFT below comes out real. Draw order is k = 0..=g,
        // fixed, so the stream is reproducible.
        let mut weighted = vec![Complex::ZERO; m];
        weighted[0].re = (spectrum[0].re.max(0.0) / mf).sqrt() * rng.normal(0.0, 1.0);
        for k in 1..g {
            let scale = (spectrum[k].re.max(0.0) / (2.0 * mf)).sqrt();
            let u = rng.normal(0.0, 1.0);
            let v = rng.normal(0.0, 1.0);
            weighted[k] = Complex::new(scale * u, scale * v);
            weighted[m - k] = Complex::new(scale * u, -scale * v);
        }
        weighted[g].re = (spectrum[g].re.max(0.0) / mf).sqrt() * rng.normal(0.0, 1.0);
        fft_in_place(&mut weighted);
        weighted.into_iter().take(n).map(|z| z.re).collect()
    }

    /// Generates `n` samples with the `O(n²)` Hosking (Durbin–Levinson)
    /// recursion — the independent oracle [`Self::generate`] is
    /// validated against.
    ///
    /// The reflection coefficients κ and conditional standard deviations
    /// σ depend only on `(H, n)`, so they are computed once per pair and
    /// cached process-wide; repeated replications (each with its own
    /// `rng`) skip straight to the `O(n²)` sampling recursion.
    #[must_use]
    pub fn generate_hosking(&self, n: usize, rng: &mut SimRng) -> Vec<f64> {
        if n == 0 {
            return Vec::new();
        }
        let coeffs = self.hosking_coeffs(n);
        let mut x = Vec::with_capacity(n);
        let mut phi: Vec<f64> = Vec::with_capacity(n);
        x.push(rng.normal(0.0, coeffs.sigma[0]));
        for t in 1..n {
            let kappa = coeffs.kappa[t - 1];
            update_ar_coefficients(&mut phi, kappa);
            let mean: f64 = phi.iter().enumerate().map(|(j, &p)| p * x[t - 1 - j]).sum();
            x.push(mean + rng.normal(0.0, coeffs.sigma[t]));
        }
        x
    }

    /// κ/σ Durbin–Levinson coefficients for `(self.hurst, n)`, shared
    /// across threads and replications.
    fn hosking_coeffs(&self, n: usize) -> Arc<HoskingCoeffs> {
        type CoeffCache = Mutex<HashMap<(u64, usize), Arc<HoskingCoeffs>>>;
        static CACHE: OnceLock<CoeffCache> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let key = (self.hurst.to_bits(), n);
        if let Some(coeffs) = cache.lock().expect("coeff cache poisoned").get(&key) {
            return Arc::clone(coeffs);
        }
        // Computed outside the lock: the recursion is O(n²) and two
        // racing threads at worst duplicate work, not corrupt it.
        let gamma: Vec<f64> = (0..n).map(|k| self.autocovariance(k)).collect();
        let mut kappa = Vec::with_capacity(n.saturating_sub(1));
        let mut sigma = Vec::with_capacity(n);
        let mut phi: Vec<f64> = Vec::with_capacity(n);
        let mut v = gamma[0];
        sigma.push(v.sqrt());
        for t in 1..n {
            // Reflection coefficient.
            let mut acc = gamma[t];
            for (j, &p) in phi.iter().enumerate() {
                acc -= p * gamma[t - 1 - j];
            }
            let k = acc / v;
            update_ar_coefficients(&mut phi, k);
            v *= 1.0 - k * k;
            kappa.push(k);
            sigma.push(v.max(0.0).sqrt());
        }
        let coeffs = Arc::new(HoskingCoeffs { kappa, sigma });
        cache
            .lock()
            .expect("coeff cache poisoned")
            .insert(key, Arc::clone(&coeffs));
        coeffs
    }

    /// Generates `n` non-negative *arrival counts* per slot with the
    /// given mean and burstiness (standard deviation), by shifting and
    /// truncating the Gaussian series at zero.
    ///
    /// Truncation slightly weakens but does not destroy the long-range
    /// dependence (verified by the Hurst tests).
    #[must_use]
    pub fn generate_counts(&self, n: usize, mean: f64, std_dev: f64, rng: &mut SimRng) -> Vec<f64> {
        self.generate(n, rng)
            .into_iter()
            .map(|z| (mean + std_dev * z).max(0.0))
            .collect()
    }
}

/// Seed-independent Durbin–Levinson state for one `(H, n)` pair.
#[derive(Debug)]
struct HoskingCoeffs {
    /// Reflection coefficients κ_t for `t = 1..n`.
    kappa: Vec<f64>,
    /// Conditional standard deviations σ_t for `t = 0..n`.
    sigma: Vec<f64>,
}

/// One Durbin–Levinson step, in place:
/// `φ_t,j = φ_{t−1,j} − κ φ_{t−1,t−1−j}`, then `φ_t,t−1 = κ`.
///
/// The update is its own mirror, so walking the two ends inward needs no
/// scratch copy of the previous coefficients.
fn update_ar_coefficients(phi: &mut Vec<f64>, kappa: f64) {
    let len = phi.len();
    for j in 0..len / 2 {
        let (a, b) = (phi[j], phi[len - 1 - j]);
        phi[j] = a - kappa * b;
        phi[len - 1 - j] = b - kappa * a;
    }
    if len % 2 == 1 {
        phi[len / 2] *= 1.0 - kappa;
    }
    phi.push(kappa);
}

/// Superposition of Pareto ON/OFF sources.
///
/// Each of `sources` independent sources alternates between ON periods
/// (emitting one unit per slot) and OFF periods (silent), with Pareto
/// sojourn times of tail index `alpha_on` / `alpha_off`. With
/// `1 < α < 2` the aggregate count process is asymptotically
/// self-similar with `H = (3 − α_min)/2` (Taqqu's theorem) — the reason
/// aggregated multimedia flows defeat Markovian buffer sizing (§3.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnOffAggregate {
    sources: usize,
    alpha_on: f64,
    alpha_off: f64,
    min_period: f64,
}

impl OnOffAggregate {
    /// Creates an aggregate of `sources` ON/OFF sources.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidParameter`] if `sources == 0` or
    /// either tail index is outside `(1, 2]` (we require finite means so
    /// the process has a well-defined rate, and `α ≤ 2` for LRD).
    pub fn new(sources: usize, alpha_on: f64, alpha_off: f64) -> Result<Self, AnalysisError> {
        if sources == 0 {
            return Err(AnalysisError::InvalidParameter("sources"));
        }
        for (name, a) in [("alpha_on", alpha_on), ("alpha_off", alpha_off)] {
            if !(a > 1.0 && a <= 2.0) {
                return Err(AnalysisError::InvalidParameter(match name {
                    "alpha_on" => "alpha_on",
                    _ => "alpha_off",
                }));
            }
        }
        Ok(OnOffAggregate {
            sources,
            alpha_on,
            alpha_off,
            min_period: 1.0,
        })
    }

    /// Expected long-run fraction of time each source is ON.
    #[must_use]
    pub fn duty_cycle(&self) -> f64 {
        let mean_on = self.alpha_on * self.min_period / (self.alpha_on - 1.0);
        let mean_off = self.alpha_off * self.min_period / (self.alpha_off - 1.0);
        mean_on / (mean_on + mean_off)
    }

    /// Generates `n` slots of aggregate counts (units emitted per slot,
    /// `0..=sources`).
    #[must_use]
    pub fn generate(&self, n: usize, rng: &mut SimRng) -> Vec<f64> {
        let mut counts = vec![0.0; n];
        for s in 0..self.sources {
            let mut src_rng = rng.substream("onoff-source", s as u64);
            // Random initial phase: start ON or OFF with duty-cycle probability.
            let mut on = src_rng.chance(self.duty_cycle());
            let mut t = 0usize;
            while t < n {
                let alpha = if on { self.alpha_on } else { self.alpha_off };
                let len = src_rng.pareto(self.min_period, alpha).round().max(1.0) as usize;
                let end = (t + len).min(n);
                if on {
                    for c in &mut counts[t..end] {
                        *c += 1.0;
                    }
                }
                t = end;
                on = !on;
            }
        }
        counts
    }
}

/// Slotted Poisson arrivals — the short-range-dependent (Markovian)
/// baseline of §3.2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonArrivals {
    rate: f64,
}

impl PoissonArrivals {
    /// Creates a generator with mean `rate` arrivals per slot.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidParameter`] for a non-positive or
    /// non-finite rate.
    pub fn new(rate: f64) -> Result<Self, AnalysisError> {
        if !(rate.is_finite() && rate > 0.0) {
            return Err(AnalysisError::InvalidParameter("rate"));
        }
        Ok(PoissonArrivals { rate })
    }

    /// Generates `n` slots of Poisson counts (Knuth's algorithm).
    ///
    /// Knuth's product-of-uniforms needs `exp(-rate) > 0`, which fails
    /// for `rate` ≳ 708 (the product then only stops on f64 underflow,
    /// silently capping every count near 745 — at mega-scale rates
    /// that truncated a third of the offered load). Large rates are
    /// split into independent ≤ 256 chunks via Poisson additivity,
    /// `Poisson(a+b) = Poisson(a) + Poisson(b)`; rates at or below the
    /// chunk size take the single-draw path with the exact same RNG
    /// consumption as before, so existing seeded streams are unchanged.
    #[must_use]
    pub fn generate(&self, n: usize, rng: &mut SimRng) -> Vec<f64> {
        const CHUNK: f64 = 256.0;
        fn knuth_draw(limit: f64, rng: &mut SimRng) -> f64 {
            let mut k = 0u32;
            let mut p = 1.0;
            loop {
                p *= rng.uniform();
                if p <= limit {
                    break;
                }
                k += 1;
            }
            f64::from(k)
        }
        let chunks = (self.rate / CHUNK).floor() as u32;
        let tail = self.rate - f64::from(chunks) * CHUNK;
        let chunk_limit = (-CHUNK).exp();
        let tail_limit = (-tail).exp();
        (0..n)
            .map(|_| {
                let mut total = 0.0;
                for _ in 0..chunks {
                    total += knuth_draw(chunk_limit, rng);
                }
                if tail > 0.0 {
                    total += knuth_draw(tail_limit, rng);
                }
                total
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sample autocorrelation of `series` at `lag` (1-based, biased
    /// estimator; 0 for a constant series).
    fn acf(series: &[f64], lag: usize) -> f64 {
        let n = series.len();
        let mean = series.iter().sum::<f64>() / n as f64;
        let var = series.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        if var <= f64::EPSILON || lag >= n {
            return 0.0;
        }
        let cov = (0..n - lag)
            .map(|i| (series[i] - mean) * (series[i + lag] - mean))
            .sum::<f64>()
            / n as f64;
        cov / var
    }

    #[test]
    fn fgn_rejects_bad_hurst() {
        assert!(FractionalGaussianNoise::new(0.0).is_err());
        assert!(FractionalGaussianNoise::new(1.0).is_err());
        assert!(FractionalGaussianNoise::new(-0.3).is_err());
    }

    #[test]
    fn fgn_autocovariance_white_noise() {
        let fgn = FractionalGaussianNoise::new(0.5).expect("valid");
        assert!((fgn.autocovariance(0) - 1.0).abs() < 1e-12);
        for k in 1..10 {
            assert!(fgn.autocovariance(k).abs() < 1e-12, "lag {k}");
        }
    }

    #[test]
    fn fgn_autocovariance_positive_for_lrd() {
        let fgn = FractionalGaussianNoise::new(0.8).expect("valid");
        for k in 1..50 {
            assert!(fgn.autocovariance(k) > 0.0, "lag {k}");
        }
        // Power-law decay: slower than any exponential; check monotone decay.
        assert!(fgn.autocovariance(1) > fgn.autocovariance(10));
        assert!(fgn.autocovariance(10) > fgn.autocovariance(40));
    }

    #[test]
    fn fgn_sample_moments() {
        let fgn = FractionalGaussianNoise::new(0.7).expect("valid");
        let series = fgn.generate(8192, &mut SimRng::new(9));
        let mean = series.iter().sum::<f64>() / series.len() as f64;
        let var = series.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / series.len() as f64;
        assert!(mean.abs() < 0.15, "mean {mean}");
        assert!((var - 1.0).abs() < 0.3, "variance {var}");
    }

    #[test]
    fn fgn_lrd_has_heavier_acf_than_white_noise() {
        let mut rng = SimRng::new(11);
        let lrd = FractionalGaussianNoise::new(0.85)
            .expect("valid")
            .generate(4096, &mut rng);
        let wn = FractionalGaussianNoise::new(0.5)
            .expect("valid")
            .generate(4096, &mut rng);
        let tail_lrd: f64 = (10..=20).map(|k| acf(&lrd, k)).sum();
        let tail_wn: f64 = (10..=20).map(|k| acf(&wn, k)).sum();
        assert!(
            tail_lrd > tail_wn + 0.1,
            "LRD tail {tail_lrd} should exceed white-noise tail {tail_wn}"
        );
    }

    #[test]
    fn fgn_counts_are_nonnegative_with_target_mean() {
        let fgn = FractionalGaussianNoise::new(0.75).expect("valid");
        let counts = fgn.generate_counts(4096, 10.0, 2.0, &mut SimRng::new(3));
        assert!(counts.iter().all(|&c| c >= 0.0));
        let mean = counts.iter().sum::<f64>() / counts.len() as f64;
        assert!((mean - 10.0).abs() < 0.5, "mean {mean}");
    }

    #[test]
    fn fgn_deterministic_for_same_seed() {
        let fgn = FractionalGaussianNoise::new(0.8).expect("valid");
        let a = fgn.generate(128, &mut SimRng::new(5));
        let b = fgn.generate(128, &mut SimRng::new(5));
        assert_eq!(a, b);
        let c = fgn.generate_hosking(128, &mut SimRng::new(5));
        let d = fgn.generate_hosking(128, &mut SimRng::new(5));
        assert_eq!(c, d);
    }

    #[test]
    fn fgn_empty_request() {
        let fgn = FractionalGaussianNoise::new(0.6).expect("valid");
        assert!(fgn.generate(0, &mut SimRng::new(1)).is_empty());
        assert!(fgn.generate_hosking(0, &mut SimRng::new(1)).is_empty());
    }

    /// Sample autocovariance of `series` at lag `k` (biased estimator).
    fn sample_autocov(series: &[f64], k: usize) -> f64 {
        let n = series.len();
        let mean = series.iter().sum::<f64>() / n as f64;
        (0..n - k)
            .map(|t| (series[t] - mean) * (series[t + k] - mean))
            .sum::<f64>()
            / n as f64
    }

    /// The tentpole cross-validation: the circulant sampler and the
    /// Hosking oracle must agree — not sample-by-sample (different
    /// draws), but in mean, variance and lag-k autocovariance, and both
    /// must track the theoretical γ(k).
    #[test]
    fn circulant_matches_hosking_oracle() {
        let fgn = FractionalGaussianNoise::new(0.8).expect("valid");
        let n = 8192;
        let circ = fgn.generate(n, &mut SimRng::new(101));
        let hosk = fgn.generate_hosking(n, &mut SimRng::new(202));
        for (label, series) in [("circulant", &circ), ("hosking", &hosk)] {
            let mean = series.iter().sum::<f64>() / n as f64;
            let var = sample_autocov(series, 0);
            assert!(mean.abs() < 0.2, "{label} mean {mean}");
            assert!((var - 1.0).abs() < 0.3, "{label} variance {var}");
            for k in [1usize, 4, 16] {
                let theory = fgn.autocovariance(k);
                let measured = sample_autocov(series, k) / var;
                assert!(
                    (measured - theory).abs() < 0.12,
                    "{label} lag-{k} autocov {measured} vs theory {theory}"
                );
            }
        }
        // And against each other, same tolerances.
        let var_c = sample_autocov(&circ, 0);
        let var_h = sample_autocov(&hosk, 0);
        assert!(
            (var_c - var_h).abs() < 0.3,
            "variances diverge: {var_c} vs {var_h}"
        );
        for k in [1usize, 4, 16] {
            let ac = sample_autocov(&circ, k) / var_c;
            let ah = sample_autocov(&hosk, k) / var_h;
            assert!((ac - ah).abs() < 0.15, "lag-{k}: {ac} vs {ah}");
        }
    }

    /// Both samplers must agree on the degenerate H = 0.5 case: white
    /// noise, vanishing autocorrelation.
    #[test]
    fn circulant_and_hosking_give_white_noise_at_half() {
        let fgn = FractionalGaussianNoise::new(0.5).expect("valid");
        for (label, series) in [
            ("circulant", fgn.generate(4096, &mut SimRng::new(7))),
            ("hosking", fgn.generate_hosking(4096, &mut SimRng::new(8))),
        ] {
            let var = sample_autocov(&series, 0);
            for k in [1usize, 5, 20] {
                let ac = sample_autocov(&series, k) / var;
                assert!(ac.abs() < 0.06, "{label} lag-{k} {ac} should vanish");
            }
        }
    }

    #[test]
    fn circulant_handles_non_power_of_two_lengths() {
        let fgn = FractionalGaussianNoise::new(0.75).expect("valid");
        for n in [1usize, 2, 3, 100, 1000, 1025] {
            let series = fgn.generate(n, &mut SimRng::new(n as u64));
            assert_eq!(series.len(), n);
            assert!(series.iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn hosking_coefficient_cache_is_transparent() {
        // Two replications with different seeds must differ; the same
        // seed must reproduce exactly even when the coefficients come
        // from the warm cache.
        let fgn = FractionalGaussianNoise::new(0.9).expect("valid");
        let a = fgn.generate_hosking(512, &mut SimRng::new(1));
        let b = fgn.generate_hosking(512, &mut SimRng::new(2));
        let a2 = fgn.generate_hosking(512, &mut SimRng::new(1));
        assert_ne!(a, b);
        assert_eq!(a, a2);
    }

    #[test]
    fn onoff_rejects_bad_parameters() {
        assert!(OnOffAggregate::new(0, 1.5, 1.5).is_err());
        assert!(OnOffAggregate::new(4, 0.9, 1.5).is_err());
        assert!(OnOffAggregate::new(4, 1.5, 2.5).is_err());
    }

    #[test]
    fn onoff_counts_bounded_by_sources() {
        let agg = OnOffAggregate::new(8, 1.4, 1.4).expect("valid");
        let counts = agg.generate(2048, &mut SimRng::new(21));
        assert!(counts.iter().all(|&c| (0.0..=8.0).contains(&c)));
        // Something actually arrives.
        assert!(counts.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn onoff_duty_cycle_symmetric_is_half() {
        let agg = OnOffAggregate::new(4, 1.5, 1.5).expect("valid");
        assert!((agg.duty_cycle() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn poisson_mean_matches_rate() {
        let gen = PoissonArrivals::new(4.0).expect("valid");
        let counts = gen.generate(20_000, &mut SimRng::new(31));
        let mean = counts.iter().sum::<f64>() / counts.len() as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn poisson_variance_equals_mean() {
        let gen = PoissonArrivals::new(3.0).expect("valid");
        let counts = gen.generate(20_000, &mut SimRng::new(37));
        let mean = counts.iter().sum::<f64>() / counts.len() as f64;
        let var = counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / counts.len() as f64;
        assert!(
            (var / mean - 1.0).abs() < 0.1,
            "index of dispersion {}",
            var / mean
        );
    }

    #[test]
    fn poisson_rejects_bad_rate() {
        assert!(PoissonArrivals::new(0.0).is_err());
        assert!(PoissonArrivals::new(f64::NAN).is_err());
    }

    /// Mega-scale rates (> the ~708 underflow point of the naive Knuth
    /// draw) must still hit the requested mean — the chunked sampler
    /// regression. Before chunking, λ = 2000 capped every slot near
    /// 745 and the mean came out below 0.4 λ.
    #[test]
    fn poisson_large_rate_is_not_truncated() {
        let gen = PoissonArrivals::new(2_000.0).expect("valid");
        let counts = gen.generate(500, &mut SimRng::new(43));
        let mean = counts.iter().sum::<f64>() / counts.len() as f64;
        assert!(
            (mean / 2_000.0 - 1.0).abs() < 0.01,
            "mean {mean} should be ~2000"
        );
        let max = counts.iter().cloned().fold(0.0_f64, f64::max);
        assert!(max > 1_000.0, "max {max} still looks truncated");
    }

    #[test]
    fn poisson_acf_is_flat() {
        let gen = PoissonArrivals::new(5.0).expect("valid");
        let counts = gen.generate(8192, &mut SimRng::new(41));
        for k in 1..=10 {
            assert!(acf(&counts, k).abs() < 0.05, "lag {k}");
        }
    }
}
