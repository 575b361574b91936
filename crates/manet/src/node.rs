//! Hosts: position, battery, and the first-order radio energy model.

use crate::error::ManetError;

/// Radio energy parameters: `E_tx(k, d) = e_elec·k + e_amp·k·d^α`,
/// `E_rx(k) = e_elec·k` — the classic first-order model used throughout
/// the energy-aware-routing literature \[30–32\].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadioParams {
    /// Electronics energy per bit, joules (Tx and Rx alike).
    pub e_elec_j: f64,
    /// Amplifier energy coefficient, joules per bit per metre^α.
    pub e_amp_j: f64,
    /// Path-loss exponent α.
    pub alpha: f64,
    /// Maximum radio range in metres (unit-disk connectivity).
    pub range_m: f64,
}

impl Default for RadioParams {
    /// Textbook sensor/ad-hoc values: 50 nJ/bit electronics,
    /// 100 pJ/bit/m², α = 2, 250 m range.
    fn default() -> Self {
        RadioParams {
            e_elec_j: 50e-9,
            e_amp_j: 100e-12,
            alpha: 2.0,
            range_m: 250.0,
        }
    }
}

impl RadioParams {
    /// Validates all parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ManetError::InvalidParameter`] naming the offending
    /// field.
    pub fn validate(&self) -> Result<(), ManetError> {
        if !(self.e_elec_j.is_finite() && self.e_elec_j > 0.0) {
            return Err(ManetError::InvalidParameter("e_elec_j"));
        }
        if !(self.e_amp_j.is_finite() && self.e_amp_j > 0.0) {
            return Err(ManetError::InvalidParameter("e_amp_j"));
        }
        if !(self.alpha >= 1.0 && self.alpha <= 6.0) {
            return Err(ManetError::InvalidParameter("alpha"));
        }
        if !(self.range_m.is_finite() && self.range_m > 0.0) {
            return Err(ManetError::InvalidParameter("range_m"));
        }
        Ok(())
    }

    /// Energy to transmit `bits` over distance `d_m`, joules.
    #[must_use]
    pub fn tx_energy_j(&self, bits: u64, d_m: f64) -> f64 {
        bits as f64 * (self.e_elec_j + self.e_amp_j * d_m.max(0.0).powf(self.alpha))
    }

    /// Energy to receive `bits`, joules.
    #[must_use]
    pub fn rx_energy_j(&self, bits: u64) -> f64 {
        bits as f64 * self.e_elec_j
    }
}

/// One multimedia host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Node {
    /// X coordinate in metres.
    pub x: f64,
    /// Y coordinate in metres.
    pub y: f64,
    /// Remaining battery, joules.
    pub battery_j: f64,
    /// Battery at deployment, joules.
    pub initial_battery_j: f64,
    /// Exponential moving average of recent per-round energy drain,
    /// joules/round (drives lifetime-prediction routing \[32\]).
    pub drain_ema_j: f64,
}

impl Node {
    /// Creates a node at `(x, y)` with the given battery.
    #[must_use]
    pub fn new(x: f64, y: f64, battery_j: f64) -> Self {
        Node {
            x,
            y,
            battery_j,
            initial_battery_j: battery_j,
            drain_ema_j: 0.0,
        }
    }

    /// Whether the node still has energy.
    #[must_use]
    pub fn is_alive(&self) -> bool {
        self.battery_j > 0.0
    }

    /// Euclidean distance to another node, metres.
    #[must_use]
    pub fn distance_to(&self, other: &Node) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Spends `energy_j` joules (battery floors at zero) and feeds the
    /// drain estimator.
    pub fn consume(&mut self, energy_j: f64) {
        self.battery_j = (self.battery_j - energy_j.max(0.0)).max(0.0);
    }

    /// Predicted rounds until exhaustion at the current drain rate
    /// (∞ with no observed drain — the node looks immortal until it
    /// starts working).
    #[must_use]
    pub fn predicted_lifetime_rounds(&self) -> f64 {
        if self.drain_ema_j <= 0.0 {
            f64::INFINITY
        } else {
            self.battery_j / self.drain_ema_j
        }
    }

    /// Updates the drain EMA with this round's consumption.
    pub fn record_drain(&mut self, round_drain_j: f64) {
        const SMOOTHING: f64 = 0.3;
        self.drain_ema_j =
            SMOOTHING * round_drain_j.max(0.0) + (1.0 - SMOOTHING) * self.drain_ema_j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radio_validation() {
        let mut r = RadioParams::default();
        assert!(r.validate().is_ok());
        r.e_elec_j = 0.0;
        assert!(r.validate().is_err());
        let mut r = RadioParams::default();
        r.alpha = 0.5;
        assert!(r.validate().is_err());
        let mut r = RadioParams::default();
        r.range_m = -1.0;
        assert!(r.validate().is_err());
    }

    #[test]
    fn tx_energy_grows_with_distance_and_bits() {
        let r = RadioParams::default();
        assert!(r.tx_energy_j(1000, 200.0) > r.tx_energy_j(1000, 50.0));
        assert!(r.tx_energy_j(2000, 50.0) > r.tx_energy_j(1000, 50.0));
        // At distance 0 only electronics energy remains.
        assert!((r.tx_energy_j(1000, 0.0) - r.rx_energy_j(1000)).abs() < 1e-18);
    }

    #[test]
    fn short_hops_spend_less_amplifier_energy() {
        // e_amp·d² convexity: two d/2 hops beat one d hop on amplifier
        // energy but pay electronics twice — the §4.2 trade-off.
        let r = RadioParams::default();
        let one_hop = r.tx_energy_j(1000, 200.0);
        let two_hops = 2.0 * r.tx_energy_j(1000, 100.0) + r.rx_energy_j(1000);
        assert!(two_hops < one_hop, "{two_hops} !< {one_hop}");
    }

    #[test]
    fn battery_floors_at_zero() {
        let mut n = Node::new(0.0, 0.0, 1.0);
        n.consume(0.6);
        assert!(n.is_alive());
        assert!((n.battery_j - 0.4).abs() < 1e-12);
        n.consume(5.0);
        assert!(!n.is_alive());
        assert_eq!(n.battery_j, 0.0);
    }

    #[test]
    fn distance_is_euclidean() {
        let a = Node::new(0.0, 0.0, 1.0);
        let b = Node::new(3.0, 4.0, 1.0);
        assert!((a.distance_to(&b) - 5.0).abs() < 1e-12);
        assert_eq!(a.distance_to(&a), 0.0);
    }

    #[test]
    fn lifetime_prediction_tracks_drain() {
        let mut n = Node::new(0.0, 0.0, 10.0);
        assert!(n.predicted_lifetime_rounds().is_infinite());
        n.record_drain(1.0);
        let t1 = n.predicted_lifetime_rounds();
        assert!(t1.is_finite() && t1 > 0.0);
        // Heavier drain shortens the prediction.
        n.record_drain(5.0);
        assert!(n.predicted_lifetime_rounds() < t1);
    }
}
