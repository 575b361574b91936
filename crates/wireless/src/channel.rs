//! Wireless channel model: slow fading.
//!
//! Substitutes for the measured indoor channels of \[27\] and the
//! time-varying links of \[26\]: an AR(1) shadow-fading process in dB
//! around a mean SNR, which produces the slowly varying SNR traces the
//! adaptive transceiver policies react to.

use dms_sim::SimRng;

use crate::error::WirelessError;

/// A slow-fading channel producing per-slot SNR values (dB):
/// `snr[t] = mean + shadow[t]` with `shadow` an AR(1) process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FadingChannel {
    /// Mean SNR in dB.
    pub mean_snr_db: f64,
    /// Standard deviation of the shadow fading, in dB.
    pub sigma_db: f64,
    /// AR(1) persistence in `[0, 1)`; near 1 = slow fading.
    pub persistence: f64,
}

impl FadingChannel {
    /// Creates a channel.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::InvalidParameter`] for a negative sigma
    /// or persistence outside `[0, 1)`.
    pub fn new(mean_snr_db: f64, sigma_db: f64, persistence: f64) -> Result<Self, WirelessError> {
        if !(sigma_db.is_finite() && sigma_db >= 0.0) {
            return Err(WirelessError::InvalidParameter("sigma_db"));
        }
        if !(0.0..1.0).contains(&persistence) {
            return Err(WirelessError::InvalidParameter("persistence"));
        }
        if !mean_snr_db.is_finite() {
            return Err(WirelessError::InvalidParameter("mean_snr_db"));
        }
        Ok(FadingChannel {
            mean_snr_db,
            sigma_db,
            persistence,
        })
    }

    /// A typical indoor link: 28 dB mean gain-to-noise, 5 dB shadowing,
    /// slow fading.
    ///
    /// # Errors
    ///
    /// Never fails in practice; keeps the constructor signature uniform.
    pub fn indoor() -> Result<Self, WirelessError> {
        FadingChannel::new(28.0, 5.0, 0.95)
    }

    /// Generates `slots` per-slot SNR values in dB.
    #[must_use]
    pub fn snr_trace_db(&self, slots: usize, rng: &mut SimRng) -> Vec<f64> {
        // Stationary AR(1): innovations scaled so the marginal std is
        // sigma_db.
        let innov = self.sigma_db * (1.0 - self.persistence * self.persistence).sqrt();
        let mut shadow = rng.normal(0.0, self.sigma_db.max(1e-12));
        if self.sigma_db == 0.0 {
            shadow = 0.0;
        }
        (0..slots)
            .map(|_| {
                let snr = self.mean_snr_db + shadow;
                shadow = self.persistence * shadow
                    + if self.sigma_db > 0.0 {
                        rng.normal(0.0, innov)
                    } else {
                        0.0
                    };
                snr
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_validation() {
        assert!(FadingChannel::new(10.0, -1.0, 0.9).is_err());
        assert!(FadingChannel::new(10.0, 3.0, 1.0).is_err());
        assert!(FadingChannel::new(f64::NAN, 3.0, 0.9).is_err());
    }

    #[test]
    fn trace_statistics_match_parameters() {
        let ch = FadingChannel::indoor().expect("preset valid");
        let trace = ch.snr_trace_db(50_000, &mut SimRng::new(3));
        let mean = trace.iter().sum::<f64>() / trace.len() as f64;
        let var = trace.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / trace.len() as f64;
        assert!((mean - 28.0).abs() < 0.5, "mean {mean}");
        assert!((var.sqrt() - 5.0).abs() < 0.5, "std {}", var.sqrt());
    }

    #[test]
    fn zero_sigma_is_constant() {
        let ch = FadingChannel::new(12.0, 0.0, 0.9).expect("valid");
        let trace = ch.snr_trace_db(100, &mut SimRng::new(4));
        assert!(trace.iter().all(|&s| (s - 12.0).abs() < 1e-9));
    }

    #[test]
    fn fading_is_persistent() {
        let ch = FadingChannel::indoor().expect("preset valid");
        let trace = ch.snr_trace_db(20_000, &mut SimRng::new(5));
        // Lag-1 autocorrelation should be near the persistence.
        let mean = trace.iter().sum::<f64>() / trace.len() as f64;
        let var = trace.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / trace.len() as f64;
        let cov = trace
            .windows(2)
            .map(|w| (w[0] - mean) * (w[1] - mean))
            .sum::<f64>()
            / (trace.len() - 1) as f64;
        let rho = cov / var;
        assert!((rho - 0.95).abs() < 0.03, "lag-1 correlation {rho}");
    }

    #[test]
    fn deterministic_per_seed() {
        let ch = FadingChannel::indoor().expect("preset valid");
        let a = ch.snr_trace_db(64, &mut SimRng::new(9));
        let b = ch.snr_trace_db(64, &mut SimRng::new(9));
        assert_eq!(a, b);
    }
}
