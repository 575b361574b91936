//! Joint source-channel coding for image transmission — experiment E7.
//!
//! After \[27\]: "an energy-optimized image transmission system for indoor
//! wireless applications that exploits the variations in the image data
//! and the wireless multi-path channel ... a global optimization problem
//! is solved ... This results in an average of 60% energy saving for
//! different channel conditions."
//!
//! The global optimisation couples three knobs per transmitted image:
//! the **quantiser rate** (bits/pixel — more bits, better source PSNR,
//! more energy), the **FEC scheme** (coding gain vs. decoder work and
//! bandwidth expansion) and the **transmit power** (residual BER vs. PA
//! energy). [`JsccOptimizer`] finds the minimum-energy triple that
//! delivers a target PSNR at the current channel state; the baseline is
//! the same optimiser run once for the *worst-case* channel and then
//! frozen.

use dms_media::image::{ImageModel, QuantizerChoice};

use crate::error::WirelessError;
use crate::fec::FecScheme;
use crate::modulation::{db_to_linear, Modulation};
use crate::transceiver::Transceiver;

/// Energy constants of the encoding/decoding hardware.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodecEnergy {
    /// Energy of one source-encoder operation, joules.
    pub enc_op_j: f64,
    /// Source-encoder operations per pixel.
    pub enc_ops_per_pixel: f64,
    /// Energy of one Viterbi add-compare-select, joules.
    pub acs_op_j: f64,
}

impl Default for CodecEnergy {
    fn default() -> Self {
        CodecEnergy {
            enc_op_j: 0.25e-9,
            enc_ops_per_pixel: 20.0,
            acs_op_j: 0.4e-9,
        }
    }
}

/// One evaluated JSCC configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JsccChoice {
    /// Source rate in bits/pixel.
    pub bits_per_pixel: f64,
    /// FEC scheme.
    pub fec: FecScheme,
    /// Radiated power, W.
    pub tx_power_w: f64,
    /// Delivered PSNR, dB.
    pub psnr_db: f64,
    /// Total system energy (encode + FEC + transmit + decode), joules.
    pub energy_j: f64,
}

/// Per-trace comparison of adaptive JSCC against the worst-case design.
#[derive(Debug, Clone, PartialEq)]
pub struct JsccReport {
    /// Energy of the per-state optimum, summed over the trace.
    pub adaptive_energy_j: f64,
    /// Energy of the frozen worst-case design over the same trace.
    pub fixed_energy_j: f64,
    /// Channel states where no configuration met the PSNR target.
    pub infeasible_states: usize,
    /// States evaluated.
    pub states: usize,
}

impl JsccReport {
    /// Fractional energy saving of adaptive over fixed.
    #[must_use]
    pub fn saving(&self) -> f64 {
        if self.fixed_energy_j <= 0.0 {
            0.0
        } else {
            1.0 - self.adaptive_energy_j / self.fixed_energy_j
        }
    }
}

/// The joint source-channel optimiser.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JsccOptimizer {
    image: ImageModel,
    radio: Transceiver,
    codec: CodecEnergy,
    /// Fixed modulation (QPSK — the robust workhorse; the adaptive
    /// *modulation* study is experiment E6).
    modulation: Modulation,
    target_psnr_db: f64,
}

/// Candidate source rates swept by the optimiser.
const BPP_GRID: [f64; 7] = [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0];

impl JsccOptimizer {
    /// Creates an optimiser for `image` with a delivered-PSNR target.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::InvalidParameter`] for a non-positive
    /// PSNR target.
    pub fn new(
        image: ImageModel,
        radio: Transceiver,
        target_psnr_db: f64,
    ) -> Result<Self, WirelessError> {
        if !(target_psnr_db.is_finite() && target_psnr_db > 0.0) {
            return Err(WirelessError::InvalidParameter("target_psnr_db"));
        }
        Ok(JsccOptimizer {
            image,
            radio,
            codec: CodecEnergy::default(),
            modulation: Modulation::Qpsk,
            target_psnr_db,
        })
    }

    /// Evaluates one `(bpp, fec, power)` triple at channel gain
    /// `gain_db`; returns `None` if the PSNR target is missed.
    #[must_use]
    pub fn evaluate(
        &self,
        bpp: f64,
        fec: FecScheme,
        tx_power_w: f64,
        gain_db: f64,
    ) -> Option<JsccChoice> {
        let q = QuantizerChoice::new(bpp).ok()?;
        let g = db_to_linear(gain_db);
        let b = f64::from(self.modulation.bits_per_symbol());
        // Per-bit SNR with FEC: energy per *coded* bit is spread, but
        // coding gain more than recovers it at the decoder.
        let gamma_b = tx_power_w * g / b * fec.rate() * db_to_linear(fec.coding_gain_db());
        let residual_ber = self.modulation.ber(gamma_b);
        let psnr = self.image.psnr_with_errors_db(q, residual_ber);
        if psnr < self.target_psnr_db {
            return None;
        }
        let info_bits = self.image.encoded_bits(q) as f64;
        let tx_bits = info_bits * fec.expansion();
        let e_encode =
            self.image.pixels() as f64 * self.codec.enc_ops_per_pixel * self.codec.enc_op_j;
        let e_fec = info_bits * fec.decoder_energy_per_bit_j(self.codec.acs_op_j);
        let e_tx = tx_bits * self.radio.energy_per_bit_j(self.modulation, tx_power_w);
        Some(JsccChoice {
            bits_per_pixel: bpp,
            fec,
            tx_power_w,
            psnr_db: psnr,
            energy_j: e_encode + e_fec + e_tx,
        })
    }

    /// Finds the minimum-energy feasible configuration at the given
    /// channel state (grid over bpp × FEC, bisection over power).
    #[must_use]
    pub fn optimize(&self, gain_db: f64) -> Option<JsccChoice> {
        let mut best: Option<JsccChoice> = None;
        for &bpp in &BPP_GRID {
            for fec in FecScheme::ALL {
                // Minimal feasible power by bisection (PSNR is monotone
                // in power through the residual BER).
                let p_max = self.radio.max_tx_power_w;
                if self.evaluate(bpp, fec, p_max, gain_db).is_none() {
                    continue;
                }
                let mut lo = 1e-9;
                let mut hi = p_max;
                for _ in 0..60 {
                    let mid = (lo * hi).sqrt();
                    if self.evaluate(bpp, fec, mid, gain_db).is_some() {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                let choice = self
                    .evaluate(bpp, fec, hi, gain_db)
                    .expect("hi stays feasible");
                if best.as_ref().is_none_or(|b| choice.energy_j < b.energy_j) {
                    best = Some(choice);
                }
            }
        }
        best
    }

    /// Runs the E7 comparison over a channel trace: per-state optimum
    /// versus the worst-case design frozen across all states.
    #[must_use]
    pub fn compare_over_trace(&self, gains_db: &[f64]) -> JsccReport {
        let worst = gains_db.iter().copied().fold(f64::INFINITY, f64::min);
        let fixed = self.optimize(worst);
        let mut adaptive = 0.0;
        let mut fixed_total = 0.0;
        let mut infeasible = 0;
        for &g in gains_db {
            match self.optimize(g) {
                Some(c) => adaptive += c.energy_j,
                None => infeasible += 1,
            }
            // The frozen design spends the same energy regardless of the
            // actual state (it was provisioned for the worst one).
            if let Some(f) = &fixed {
                fixed_total += f.energy_j;
            }
        }
        JsccReport {
            adaptive_energy_j: adaptive,
            fixed_energy_j: fixed_total,
            infeasible_states: infeasible,
            states: gains_db.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::FadingChannel;
    use dms_sim::SimRng;

    fn optimizer() -> JsccOptimizer {
        let image = ImageModel::new(256, 256, 2500.0).expect("valid");
        let radio = Transceiver::default_radio().expect("preset valid");
        JsccOptimizer::new(image, radio, 32.0).expect("valid target")
    }

    #[test]
    fn validation() {
        let image = ImageModel::new(16, 16, 100.0).expect("valid");
        let radio = Transceiver::default_radio().expect("preset valid");
        assert!(JsccOptimizer::new(image, radio, 0.0).is_err());
        assert!(JsccOptimizer::new(image, radio, f64::NAN).is_err());
    }

    #[test]
    fn evaluate_rejects_low_quality() {
        let o = optimizer();
        // Tiny power in a bad channel: residual BER wrecks the image.
        assert!(o.evaluate(4.0, FecScheme::None, 1e-6, 0.0).is_none());
        // Too coarse a quantiser can never reach 32 dB PSNR.
        assert!(o.evaluate(2.0, FecScheme::None, 0.2, 40.0).is_none());
        // Enough source bits + ample power in a good channel: feasible.
        assert!(o.evaluate(4.0, FecScheme::None, 0.2, 40.0).is_some());
    }

    #[test]
    fn optimum_exists_in_reasonable_channels() {
        let o = optimizer();
        let c = o.optimize(20.0).expect("feasible at 20 dB");
        assert!(c.psnr_db >= 32.0);
        assert!(c.energy_j > 0.0);
        assert!(c.tx_power_w <= 0.4);
    }

    #[test]
    fn bad_channels_need_more_energy() {
        let o = optimizer();
        let good = o.optimize(30.0).expect("feasible");
        let bad = o.optimize(14.0).expect("feasible");
        assert!(bad.energy_j > good.energy_j);
    }

    #[test]
    fn fec_pays_off_in_bad_channels() {
        let o = optimizer();
        let bad = o.optimize(12.0).expect("feasible with coding");
        assert!(
            bad.fec != FecScheme::None,
            "at 12 dB the optimiser should reach for FEC, got {:?}",
            bad.fec
        );
    }

    #[test]
    fn headline_sixty_percent_saving() {
        // E7: ≈60% average energy saving across channel conditions vs a
        // worst-case design. We assert the saving is large (>35%) and
        // the comparison well-formed.
        let o = optimizer();
        let ch = FadingChannel::new(22.0, 3.0, 0.9).expect("valid");
        let trace = ch.snr_trace_db(300, &mut SimRng::new(13));
        let report = o.compare_over_trace(&trace);
        assert_eq!(report.infeasible_states, 0);
        let s = report.saving();
        assert!(s > 0.35, "saving {:.1}% too small", s * 100.0);
        assert!(s < 0.95, "saving {:.1}% implausibly large", s * 100.0);
    }

    #[test]
    fn adaptive_never_loses() {
        let o = optimizer();
        let trace = vec![14.0, 18.0, 22.0, 26.0, 30.0];
        let report = o.compare_over_trace(&trace);
        assert!(report.adaptive_energy_j <= report.fixed_energy_j * 1.0001);
    }
}
