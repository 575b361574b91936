//! Transceiver energy model and dynamic modulation/power scaling.
//!
//! Experiment E6, after \[26\]: "the modulation level and transmit power
//! of the transmitter ... are dynamically changed to match the
//! characteristics of the communication channel thereby minimizing the
//! energy consumption of the transceivers. Experimental results show an
//! average of 12% reduction in the overall energy consumption of the
//! transceivers without any appreciable performance penalty."
//!
//! The model: transmitting `B` bits with modulation `m` (b bits/symbol)
//! at symbol rate `R_s` takes `B/(b·R_s)` seconds and burns
//! `(P_elec + P_tx/η)` watts over that airtime. The received per-bit
//! SNR is `γ_b = P_tx · g / b` where `g` is the channel gain-to-noise
//! (linear). The policy picks `(m, P_tx)` per slot to meet a BER target
//! at minimum energy; the baseline provisions one fixed pair for the
//! worst slot.

use crate::error::WirelessError;
use crate::modulation::{db_to_linear, Modulation};

/// Transceiver hardware parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transceiver {
    /// Symbol rate in symbols per second.
    pub symbol_rate_hz: f64,
    /// Electronics power while transmitting (mixers, filters, PLL), W.
    pub electronics_w: f64,
    /// Power-amplifier drain efficiency in `(0, 1]`.
    pub pa_efficiency: f64,
    /// Maximum radiated power, W.
    pub max_tx_power_w: f64,
}

impl Transceiver {
    /// A short-range-radio preset (1 Msym/s, 300 mW transmit-chain
    /// electronics, 35% PA efficiency, 400 mW maximum radiated power).
    ///
    /// # Errors
    ///
    /// Never fails in practice; keeps the constructor signature uniform.
    pub fn default_radio() -> Result<Self, WirelessError> {
        Transceiver::new(1e6, 0.3, 0.35, 0.4)
    }

    /// Creates a transceiver.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::InvalidParameter`] for non-positive
    /// rates/powers or an efficiency outside `(0, 1]`.
    pub fn new(
        symbol_rate_hz: f64,
        electronics_w: f64,
        pa_efficiency: f64,
        max_tx_power_w: f64,
    ) -> Result<Self, WirelessError> {
        if !(symbol_rate_hz.is_finite() && symbol_rate_hz > 0.0) {
            return Err(WirelessError::InvalidParameter("symbol_rate_hz"));
        }
        if !(electronics_w.is_finite() && electronics_w >= 0.0) {
            return Err(WirelessError::InvalidParameter("electronics_w"));
        }
        if !(pa_efficiency > 0.0 && pa_efficiency <= 1.0) {
            return Err(WirelessError::InvalidParameter("pa_efficiency"));
        }
        if !(max_tx_power_w.is_finite() && max_tx_power_w > 0.0) {
            return Err(WirelessError::InvalidParameter("max_tx_power_w"));
        }
        Ok(Transceiver {
            symbol_rate_hz,
            electronics_w,
            pa_efficiency,
            max_tx_power_w,
        })
    }

    /// Energy to send one bit with modulation `m` at radiated power
    /// `tx_power_w`, in joules.
    #[must_use]
    pub fn energy_per_bit_j(&self, m: Modulation, tx_power_w: f64) -> f64 {
        let airtime = 1.0 / (f64::from(m.bits_per_symbol()) * self.symbol_rate_hz);
        (self.electronics_w + tx_power_w / self.pa_efficiency) * airtime
    }
}

/// A per-slot transmission decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TxChoice {
    /// Chosen modulation.
    pub modulation: Modulation,
    /// Radiated power in W.
    pub tx_power_w: f64,
    /// Energy per information bit, joules.
    pub energy_j: f64,
}

/// The dynamic modulation/power scaling policy of \[26\].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptivePolicy {
    target_ber: f64,
}

impl AdaptivePolicy {
    /// Creates a policy with a BER target in `(0, 0.5)`.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::InvalidProbability`] otherwise.
    pub fn new(target_ber: f64) -> Result<Self, WirelessError> {
        if !(target_ber > 0.0 && target_ber < 0.5) {
            return Err(WirelessError::InvalidProbability("target_ber", target_ber));
        }
        Ok(AdaptivePolicy { target_ber })
    }

    /// The BER target.
    #[must_use]
    pub fn target_ber(&self) -> f64 {
        self.target_ber
    }

    /// Minimum radiated power for modulation `m` to meet the BER target
    /// at channel gain-to-noise `gain_db`, or `None` if it exceeds the
    /// radio's maximum.
    #[must_use]
    pub fn required_power_w(
        &self,
        radio: &Transceiver,
        m: Modulation,
        gain_db: f64,
    ) -> Option<f64> {
        let g = db_to_linear(gain_db);
        let gamma_b = m.required_gamma_b(self.target_ber)?;
        let p = gamma_b * f64::from(m.bits_per_symbol()) / g;
        (p <= radio.max_tx_power_w).then_some(p)
    }

    /// The cheapest feasible `(modulation, power)` pair at the given
    /// channel state, or `None` when even BPSK at maximum power misses
    /// the BER target.
    #[must_use]
    pub fn choose(&self, radio: &Transceiver, gain_db: f64) -> Option<TxChoice> {
        Modulation::ALL
            .iter()
            .filter_map(|&m| {
                let p = self.required_power_w(radio, m, gain_db)?;
                Some(TxChoice {
                    modulation: m,
                    tx_power_w: p,
                    energy_j: radio.energy_per_bit_j(m, p),
                })
            })
            .min_by(|a, b| {
                a.energy_j
                    .partial_cmp(&b.energy_j)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    }

    /// The fixed baseline: the single best modulation for the whole
    /// trace, with standard per-slot power control. (Power control is
    /// assumed in both schemes; *modulation scaling* is the \[26\]
    /// contribution being measured.)
    ///
    /// Only modulations that meet the BER target in at least 95% of the
    /// slots are admissible — a fixed scheme that routinely misses its
    /// QoS would never be deployed. Falls back to BPSK if nothing
    /// qualifies. Infeasible slots transmit at maximum power.
    #[must_use]
    pub fn best_fixed_modulation(&self, radio: &Transceiver, gains_db: &[f64]) -> Modulation {
        let n = gains_db.len().max(1) as f64;
        Modulation::ALL
            .iter()
            .copied()
            .filter(|&m| {
                let feasible = gains_db
                    .iter()
                    .filter(|&&g| self.required_power_w(radio, m, g).is_some())
                    .count() as f64;
                feasible / n >= 0.95
            })
            .min_by(|&a, &b| {
                let ea = self.fixed_trace_energy(radio, a, gains_db);
                let eb = self.fixed_trace_energy(radio, b, gains_db);
                ea.partial_cmp(&eb).unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap_or(Modulation::Bpsk)
    }

    /// Per-bit trace energy of one fixed modulation with per-slot power
    /// control (maximum power in infeasible slots).
    fn fixed_trace_energy(&self, radio: &Transceiver, m: Modulation, gains_db: &[f64]) -> f64 {
        gains_db
            .iter()
            .map(|&g| {
                let p = self
                    .required_power_w(radio, m, g)
                    .unwrap_or(radio.max_tx_power_w);
                radio.energy_per_bit_j(m, p)
            })
            .sum()
    }
}

/// Outcome of simulating both schemes over a channel trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptationReport {
    /// Total adaptive-scheme energy, joules.
    pub adaptive_energy_j: f64,
    /// Total fixed-scheme energy, joules.
    pub fixed_energy_j: f64,
    /// Slots where even the adaptive scheme could not meet the target.
    pub adaptive_outages: usize,
    /// Slots simulated.
    pub slots: usize,
}

impl AdaptationReport {
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

/// Simulates both schemes sending `bits_per_slot` bits in every slot of
/// `gains_db` (experiment E6's apparatus).
///
/// The fixed scheme uses the single best modulation for the trace with
/// per-slot power control; the adaptive scheme additionally scales the
/// modulation. In outage slots both transmit BPSK at maximum power
/// (best effort).
#[must_use]
pub fn compare_over_trace(
    radio: &Transceiver,
    policy: &AdaptivePolicy,
    gains_db: &[f64],
    bits_per_slot: u64,
) -> AdaptationReport {
    let fixed_mod = policy.best_fixed_modulation(radio, gains_db);
    let mut adaptive_energy = 0.0;
    let mut fixed_energy = 0.0;
    let mut outages = 0;
    let best_effort = TxChoice {
        modulation: Modulation::Bpsk,
        tx_power_w: radio.max_tx_power_w,
        energy_j: radio.energy_per_bit_j(Modulation::Bpsk, radio.max_tx_power_w),
    };
    for &g in gains_db {
        let choice = policy.choose(radio, g).unwrap_or_else(|| {
            outages += 1;
            best_effort
        });
        adaptive_energy += choice.energy_j * bits_per_slot as f64;
        let p_fixed = policy
            .required_power_w(radio, fixed_mod, g)
            .unwrap_or(radio.max_tx_power_w);
        fixed_energy += radio.energy_per_bit_j(fixed_mod, p_fixed) * bits_per_slot as f64;
    }
    AdaptationReport {
        adaptive_energy_j: adaptive_energy,
        fixed_energy_j: fixed_energy,
        adaptive_outages: outages,
        slots: gains_db.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::FadingChannel;
    use dms_sim::SimRng;

    fn radio() -> Transceiver {
        Transceiver::default_radio().expect("preset valid")
    }

    #[test]
    fn transceiver_validation() {
        assert!(Transceiver::new(0.0, 0.1, 0.3, 0.1).is_err());
        assert!(Transceiver::new(1e6, -0.1, 0.3, 0.1).is_err());
        assert!(Transceiver::new(1e6, 0.1, 0.0, 0.1).is_err());
        assert!(Transceiver::new(1e6, 0.1, 1.5, 0.1).is_err());
        assert!(Transceiver::new(1e6, 0.1, 0.3, 0.0).is_err());
    }

    #[test]
    fn policy_validation() {
        assert!(AdaptivePolicy::new(0.0).is_err());
        assert!(AdaptivePolicy::new(0.5).is_err());
        assert!(AdaptivePolicy::new(1e-5).is_ok());
    }

    #[test]
    fn faster_modulation_cuts_airtime_energy() {
        let r = radio();
        let e_bpsk = r.energy_per_bit_j(Modulation::Bpsk, 0.1);
        let e_qam64 = r.energy_per_bit_j(Modulation::Qam64, 0.1);
        assert!((e_bpsk / e_qam64 - 6.0).abs() < 1e-9);
    }

    #[test]
    fn required_power_grows_in_bad_channels() {
        let r = radio();
        let p = AdaptivePolicy::new(1e-5).expect("valid");
        let good = p
            .required_power_w(&r, Modulation::Qpsk, 30.0)
            .expect("feasible");
        let bad = p
            .required_power_w(&r, Modulation::Qpsk, 20.0)
            .expect("feasible");
        assert!(bad > good);
        // Terrible channel: infeasible.
        assert_eq!(p.required_power_w(&r, Modulation::Qam64, -20.0), None);
    }

    #[test]
    fn choose_prefers_denser_modulation_in_good_channels() {
        let r = radio();
        let p = AdaptivePolicy::new(1e-5).expect("valid");
        let good = p.choose(&r, 35.0).expect("feasible");
        let bad = p.choose(&r, 18.0).expect("feasible");
        assert!(
            good.modulation.bits_per_symbol() >= bad.modulation.bits_per_symbol(),
            "good {:?}, bad {:?}",
            good.modulation,
            bad.modulation
        );
        assert!(good.energy_j < bad.energy_j);
    }

    #[test]
    fn adaptive_never_loses_to_fixed() {
        let r = radio();
        let p = AdaptivePolicy::new(1e-5).expect("valid");
        let ch = FadingChannel::indoor().expect("preset valid");
        let trace = ch.snr_trace_db(5_000, &mut SimRng::new(7));
        let report = compare_over_trace(&r, &p, &trace, 10_000);
        assert!(report.adaptive_energy_j <= report.fixed_energy_j * 1.0001);
        assert!(report.saving() >= -1e-9);
    }

    #[test]
    fn headline_twelve_percent_saving() {
        // E6: ≈12% average transceiver-energy reduction. Exact numbers
        // depend on radio constants; we assert the saving lands in a
        // credible 5–35% band and is substantial.
        let r = radio();
        let p = AdaptivePolicy::new(1e-5).expect("valid");
        let ch = FadingChannel::indoor().expect("preset valid");
        let trace = ch.snr_trace_db(20_000, &mut SimRng::new(11));
        let report = compare_over_trace(&r, &p, &trace, 10_000);
        let s = report.saving();
        assert!(
            (0.05..=0.35).contains(&s),
            "saving {:.1}% outside band",
            s * 100.0
        );
        // Deep fades may cause a handful of best-effort slots.
        assert!(report.adaptive_outages < report.slots / 100);
    }

    #[test]
    fn static_channel_gives_no_saving() {
        let r = radio();
        let p = AdaptivePolicy::new(1e-5).expect("valid");
        let trace = vec![18.0; 1000];
        let report = compare_over_trace(&r, &p, &trace, 1000);
        assert!(report.saving().abs() < 1e-9);
    }

    #[test]
    fn outage_slots_are_counted() {
        let r = radio();
        let p = AdaptivePolicy::new(1e-7).expect("valid");
        let trace = vec![-30.0; 10];
        let report = compare_over_trace(&r, &p, &trace, 100);
        assert_eq!(report.adaptive_outages, 10);
    }
}
