//! Retransmission (ARQ) energetics and optimal packet sizing.
//!
//! §2.1: at the highest level of abstraction "one can decide ... the
//! best rate for the source, how much retransmission can be afforded".
//! This module prices those decisions: given a bit-error rate, a packet
//! either survives (probability `(1−BER)^L`) or is retransmitted up to
//! a cap. Longer packets amortise the header but die more often — so
//! the energy per *delivered payload bit* has an interior optimum in
//! the packet length, the wireless twin of the NoC packet-size
//! exploration (E4).

use crate::error::WirelessError;
use crate::modulation::Modulation;
use crate::transceiver::Transceiver;

/// A stop-and-wait ARQ configuration over a given link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArqLink {
    /// Per-bit error probability after demodulation/decoding.
    pub ber: f64,
    /// Header + trailer overhead per packet, bits.
    pub header_bits: u64,
    /// Maximum transmissions per packet (1 = no retransmission).
    pub max_transmissions: u32,
}

impl ArqLink {
    /// Creates a link.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::InvalidProbability`] for a BER outside
    /// `[0, 1)`, or [`WirelessError::InvalidParameter`] for a zero
    /// transmission cap.
    pub fn new(ber: f64, header_bits: u64, max_transmissions: u32) -> Result<Self, WirelessError> {
        if !(0.0..1.0).contains(&ber) {
            return Err(WirelessError::InvalidProbability("ber", ber));
        }
        if max_transmissions == 0 {
            return Err(WirelessError::InvalidParameter("max_transmissions"));
        }
        Ok(ArqLink {
            ber,
            header_bits,
            max_transmissions,
        })
    }

    /// Probability one transmission of a packet with `payload_bits`
    /// payload arrives intact: `(1−BER)^(payload+header)`.
    #[must_use]
    pub fn packet_success(&self, payload_bits: u64) -> f64 {
        (1.0 - self.ber).powi((payload_bits + self.header_bits).min(i32::MAX as u64) as i32)
    }

    /// Probability the packet is delivered within the transmission cap:
    /// `1 − (1−s)^k`.
    #[must_use]
    pub fn delivery_probability(&self, payload_bits: u64) -> f64 {
        let s = self.packet_success(payload_bits);
        1.0 - (1.0 - s).powi(self.max_transmissions as i32)
    }

    /// Expected transmissions per packet attempt (capped geometric):
    /// `Σ_{i=1..k} i·(1−s)^{i−1}·s + k·(1−s)^k`.
    #[must_use]
    pub fn expected_transmissions(&self, payload_bits: u64) -> f64 {
        let s = self.packet_success(payload_bits);
        if s <= 0.0 {
            return f64::from(self.max_transmissions);
        }
        let k = self.max_transmissions as i32;
        let q = 1.0 - s;
        // Closed form: (1 − q^k)/s, the mean of a geometric truncated at k.
        (1.0 - q.powi(k)) / s
    }

    /// Expected radio energy per *delivered payload bit*, joules:
    ///
    /// ```text
    /// E[tx] · (payload+header) · e_bit / (payload · P[delivered])
    /// ```
    ///
    /// Returns `f64::INFINITY` when delivery is (numerically) impossible.
    #[must_use]
    pub fn energy_per_delivered_bit_j(
        &self,
        payload_bits: u64,
        radio: &Transceiver,
        modulation: Modulation,
        tx_power_w: f64,
    ) -> f64 {
        if payload_bits == 0 {
            return f64::INFINITY;
        }
        let delivered = self.delivery_probability(payload_bits);
        if delivered <= 0.0 {
            return f64::INFINITY;
        }
        let e_bit = radio.energy_per_bit_j(modulation, tx_power_w);
        let bits_per_attempt = (payload_bits + self.header_bits) as f64;
        self.expected_transmissions(payload_bits) * bits_per_attempt * e_bit
            / (payload_bits as f64 * delivered)
    }

    /// Sweeps packet sizes and returns the payload length minimising the
    /// energy per delivered bit, together with that energy.
    ///
    /// The sweep is geometric between `min_bits` and `max_bits`
    /// (inclusive), matching how MAC layers actually quantise sizes.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::InvalidParameter`] if the range is empty.
    pub fn optimal_payload_bits(
        &self,
        radio: &Transceiver,
        modulation: Modulation,
        tx_power_w: f64,
        min_bits: u64,
        max_bits: u64,
    ) -> Result<(u64, f64), WirelessError> {
        if min_bits == 0 || min_bits > max_bits {
            return Err(WirelessError::InvalidParameter("payload range"));
        }
        let mut best: Option<(u64, f64)> = None;
        let mut size = min_bits;
        while size <= max_bits {
            let e = self.energy_per_delivered_bit_j(size, radio, modulation, tx_power_w);
            if best.is_none_or(|(_, be)| e < be) {
                best = Some((size, e));
            }
            // ~12% geometric steps hit the interesting structure without
            // an exhaustive scan.
            size = (size + size / 8).max(size + 1);
        }
        best.ok_or(WirelessError::InvalidParameter("payload range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn radio() -> Transceiver {
        Transceiver::default_radio().expect("preset valid")
    }

    #[test]
    fn validation() {
        assert!(ArqLink::new(1.0, 64, 3).is_err());
        assert!(ArqLink::new(-0.1, 64, 3).is_err());
        assert!(ArqLink::new(1e-4, 64, 0).is_err());
        assert!(ArqLink::new(0.0, 64, 1).is_ok());
    }

    #[test]
    fn perfect_link_costs_exactly_one_transmission() {
        let link = ArqLink::new(0.0, 64, 5).expect("valid");
        assert_eq!(link.packet_success(1000), 1.0);
        assert_eq!(link.delivery_probability(1000), 1.0);
        assert_eq!(link.expected_transmissions(1000), 1.0);
        let e = link.energy_per_delivered_bit_j(1000, &radio(), Modulation::Qpsk, 0.1);
        let raw = radio().energy_per_bit_j(Modulation::Qpsk, 0.1);
        // Only the header overhead inflates the per-payload-bit cost.
        assert!((e / raw - 1064.0 / 1000.0).abs() < 1e-9);
    }

    #[test]
    fn longer_packets_fail_more() {
        let link = ArqLink::new(1e-4, 64, 4).expect("valid");
        assert!(link.packet_success(10_000) < link.packet_success(1_000));
        assert!(link.expected_transmissions(10_000) > link.expected_transmissions(1_000));
    }

    #[test]
    fn retransmission_cap_bounds_delivery() {
        let link1 = ArqLink::new(5e-4, 64, 1).expect("valid");
        let link4 = ArqLink::new(5e-4, 64, 4).expect("valid");
        let payload = 4_000;
        assert!(link4.delivery_probability(payload) > link1.delivery_probability(payload));
        assert!(link4.delivery_probability(payload) <= 1.0);
        // Expected transmissions stay within the cap.
        assert!(link4.expected_transmissions(payload) <= 4.0);
        assert!(link4.expected_transmissions(payload) >= 1.0);
    }

    #[test]
    fn packet_size_has_an_interior_optimum() {
        // With a 64-bit header and BER 1e-4, tiny packets waste header
        // energy and huge packets waste retransmissions: the optimum is
        // strictly inside the sweep.
        let link = ArqLink::new(1e-4, 64, 8).expect("valid");
        let (best, e_best) = link
            .optimal_payload_bits(&radio(), Modulation::Qpsk, 0.1, 16, 1 << 20)
            .expect("non-empty range");
        assert!(best > 16, "optimum {best} stuck at the minimum");
        assert!(best < 1 << 20, "optimum {best} stuck at the maximum");
        let e_small = link.energy_per_delivered_bit_j(16, &radio(), Modulation::Qpsk, 0.1);
        let e_large = link.energy_per_delivered_bit_j(1 << 20, &radio(), Modulation::Qpsk, 0.1);
        assert!(e_best < e_small && e_best < e_large);
    }

    #[test]
    fn optimum_shrinks_on_noisier_links() {
        let clean = ArqLink::new(1e-5, 64, 8).expect("valid");
        let noisy = ArqLink::new(1e-3, 64, 8).expect("valid");
        let r = radio();
        let (best_clean, _) = clean
            .optimal_payload_bits(&r, Modulation::Qpsk, 0.1, 16, 1 << 20)
            .expect("valid range");
        let (best_noisy, _) = noisy
            .optimal_payload_bits(&r, Modulation::Qpsk, 0.1, 16, 1 << 20)
            .expect("valid range");
        assert!(
            best_noisy < best_clean,
            "noisy link optimum {best_noisy} should be below clean {best_clean}"
        );
    }

    #[test]
    fn range_validation() {
        let link = ArqLink::new(1e-4, 64, 4).expect("valid");
        let r = radio();
        assert!(link
            .optimal_payload_bits(&r, Modulation::Qpsk, 0.1, 0, 100)
            .is_err());
        assert!(link
            .optimal_payload_bits(&r, Modulation::Qpsk, 0.1, 200, 100)
            .is_err());
    }

    #[test]
    fn zero_payload_is_infinite_cost() {
        let link = ArqLink::new(1e-4, 64, 4).expect("valid");
        assert!(link
            .energy_per_delivered_bit_j(0, &radio(), Modulation::Qpsk, 0.1)
            .is_infinite());
    }
}
