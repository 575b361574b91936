//! Modulation schemes and their BER-vs-SNR characteristics.
//!
//! §4: "The first category of techniques, which focus on the pass-band
//! transceiver, exploits the fact that different modulation schemes
//! result in different BER vs. received signal-to-noise ratio (SNR)
//! characteristics. The key trade-off is thus between the modulation
//! and/or power levels and the BER."
//!
//! Standard AWGN closed forms: BPSK/QPSK `BER = Q(√(2γ_b))`; square
//! M-QAM `BER ≈ (4/log₂M)(1−1/√M) · Q(√(3·log₂M·γ_b/(M−1)))` with
//! `γ_b` the per-bit SNR.

/// The Gaussian tail function `Q(x) = ½·erfc(x/√2)`.
///
/// Uses the Abramowitz–Stegun 7.1.26 rational approximation of `erf`
/// (|error| < 1.5·10⁻⁷), which is ample for BER work.
#[must_use]
pub fn q_function(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Complementary error function via Abramowitz–Stegun 7.1.26.
#[must_use]
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    poly * (-x * x).exp()
}

/// A digital modulation scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Modulation {
    /// Binary phase-shift keying (1 bit/symbol).
    Bpsk,
    /// Quadrature phase-shift keying (2 bits/symbol).
    Qpsk,
    /// 16-point quadrature amplitude modulation (4 bits/symbol).
    Qam16,
    /// 64-point quadrature amplitude modulation (6 bits/symbol).
    Qam64,
}

impl Modulation {
    /// All schemes from most robust to fastest.
    pub const ALL: [Modulation; 4] = [
        Modulation::Bpsk,
        Modulation::Qpsk,
        Modulation::Qam16,
        Modulation::Qam64,
    ];

    /// Bits carried per symbol.
    #[must_use]
    pub fn bits_per_symbol(self) -> u32 {
        match self {
            Modulation::Bpsk => 1,
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
        }
    }

    /// Constellation size `M`.
    #[must_use]
    pub fn constellation(self) -> u32 {
        1 << self.bits_per_symbol()
    }

    /// Bit-error rate on an AWGN channel at per-bit SNR `gamma_b`
    /// (linear, not dB). Clamped to `[0, 0.5]`.
    #[must_use]
    pub fn ber(self, gamma_b: f64) -> f64 {
        if gamma_b <= 0.0 {
            return 0.5;
        }
        let ber = match self {
            Modulation::Bpsk | Modulation::Qpsk => q_function((2.0 * gamma_b).sqrt()),
            m => {
                let k = f64::from(m.bits_per_symbol());
                let big_m = f64::from(m.constellation());
                let coef = 4.0 / k * (1.0 - 1.0 / big_m.sqrt());
                coef * q_function((3.0 * k * gamma_b / (big_m - 1.0)).sqrt())
            }
        };
        ber.clamp(0.0, 0.5)
    }

    /// The smallest per-bit SNR (linear) achieving `target_ber`, found
    /// by bisection. Returns `None` for unattainable targets (≤ 0) or a
    /// trivial target (≥ 0.5 needs no signal).
    ///
    /// The bisection result depends only on `(self, target_ber)`, and
    /// adaptive-modulation traces ask the same question once per slot
    /// per scheme, so results are memoised per thread. The cache is
    /// thread-local rather than shared to keep parallel replications
    /// lock-free; each worker pays the bisection at most once per key.
    #[must_use]
    pub fn required_gamma_b(self, target_ber: f64) -> Option<f64> {
        use std::cell::RefCell;
        use std::collections::HashMap;

        thread_local! {
            static GAMMA_B_CACHE: RefCell<HashMap<(Modulation, u64), Option<f64>>> =
                RefCell::new(HashMap::new());
        }
        GAMMA_B_CACHE.with(|cache| {
            *cache
                .borrow_mut()
                .entry((self, target_ber.to_bits()))
                .or_insert_with(|| self.bisect_gamma_b(target_ber))
        })
    }

    /// Uncached bisection behind [`Modulation::required_gamma_b`].
    fn bisect_gamma_b(self, target_ber: f64) -> Option<f64> {
        if target_ber <= 0.0 {
            return None;
        }
        if target_ber >= 0.5 {
            return Some(0.0);
        }
        let mut lo = 1e-6;
        let mut hi = 1e8;
        if self.ber(hi) > target_ber {
            return None;
        }
        for _ in 0..200 {
            let mid = (lo * hi).sqrt();
            if self.ber(mid) > target_ber {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(hi)
    }
}

/// Converts decibels to a linear ratio.
#[must_use]
pub fn db_to_linear(db: f64) -> f64 {
    10.0f64.powf(db / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_function_known_values() {
        assert!((q_function(0.0) - 0.5).abs() < 1e-7);
        assert!((q_function(1.0) - 0.158_655).abs() < 1e-4);
        assert!((q_function(3.0) - 0.001_35).abs() < 1e-4);
        assert!(q_function(-1.0) > 0.8);
    }

    #[test]
    fn bpsk_reference_ber() {
        // At γ_b = 10 dB BPSK gives BER ≈ 3.9e-6 (textbook value).
        let ber = Modulation::Bpsk.ber(db_to_linear(10.0));
        assert!((ber / 3.9e-6 - 1.0).abs() < 0.2, "ber {ber}");
    }

    #[test]
    fn ber_decreases_with_snr() {
        for m in Modulation::ALL {
            let mut last = 0.5;
            for db in [0.0, 5.0, 10.0, 15.0, 20.0, 25.0] {
                let ber = m.ber(db_to_linear(db));
                assert!(ber <= last + 1e-15, "{m:?} at {db} dB");
                last = ber;
            }
        }
    }

    #[test]
    fn denser_constellations_need_more_snr() {
        let snr = db_to_linear(12.0);
        assert!(Modulation::Qpsk.ber(snr) < Modulation::Qam16.ber(snr));
        assert!(Modulation::Qam16.ber(snr) < Modulation::Qam64.ber(snr));
    }

    #[test]
    fn zero_snr_is_coin_flip() {
        for m in Modulation::ALL {
            assert_eq!(m.ber(0.0), 0.5);
            assert_eq!(m.ber(-1.0), 0.5);
        }
    }

    #[test]
    fn required_gamma_achieves_target() {
        for m in Modulation::ALL {
            for target in [1e-3, 1e-5, 1e-7] {
                let g = m.required_gamma_b(target).expect("achievable");
                assert!(m.ber(g) <= target * 1.01, "{m:?} target {target}");
                // Not grossly over-provisioned either.
                assert!(m.ber(g * 0.8) > target, "{m:?} bisection too loose");
            }
        }
    }

    #[test]
    fn required_gamma_ordering() {
        // Denser constellations need more per-bit SNR at the same BER.
        let target = 1e-5;
        let g: Vec<f64> = Modulation::ALL
            .iter()
            .map(|m| m.required_gamma_b(target).expect("achievable"))
            .collect();
        assert!(g[1] <= g[2] && g[2] < g[3]);
    }

    #[test]
    fn required_gamma_edge_cases() {
        assert_eq!(Modulation::Bpsk.required_gamma_b(0.0), None);
        assert_eq!(Modulation::Bpsk.required_gamma_b(0.5), Some(0.0));
    }

    #[test]
    fn required_gamma_cache_is_transparent() {
        // The memoised entry must be bit-identical to a fresh bisection,
        // including a repeat call served from the cache.
        for m in Modulation::ALL {
            for target in [1e-2, 1e-4, 1e-6, 0.0, 0.5, -1.0] {
                let fresh = m.bisect_gamma_b(target);
                assert_eq!(m.required_gamma_b(target), fresh, "{m:?} target {target}");
                assert_eq!(m.required_gamma_b(target), fresh, "{m:?} cached repeat");
            }
        }
    }

    #[test]
    fn db_to_linear_known_values() {
        for (db, linear) in [(-10.0, 0.1), (0.0, 1.0), (20.0, 100.0)] {
            assert!((db_to_linear(db) - linear).abs() < 1e-12);
        }
    }
}
