//! Forward error correction: coding gain versus decoder complexity.
//!
//! §4's second category "studies the interaction between code
//! performance and encoder/decoder design complexity. The key trade-off
//! is between the complexity of the encoding/decoding algorithms and
//! the BER." We model a family of convolutional codes indexed by
//! constraint length: longer constraint lengths buy coding gain (dB)
//! at exponentially growing Viterbi decoder work (states = 2^(K−1)).

/// A convolutional-code configuration (rate-1/2 family).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FecScheme {
    /// No coding.
    None,
    /// Constraint length 3 (4-state Viterbi).
    K3,
    /// Constraint length 5 (16-state Viterbi).
    K5,
    /// Constraint length 7 (64-state Viterbi, the 802.11 classic).
    K7,
    /// Constraint length 9 (256-state Viterbi).
    K9,
}

impl FecScheme {
    /// All schemes from cheapest to strongest.
    pub const ALL: [FecScheme; 5] = [
        FecScheme::None,
        FecScheme::K3,
        FecScheme::K5,
        FecScheme::K7,
        FecScheme::K9,
    ];

    /// Constraint length `K` (0 for no coding).
    #[must_use]
    pub fn constraint_length(self) -> u32 {
        match self {
            FecScheme::None => 0,
            FecScheme::K3 => 3,
            FecScheme::K5 => 5,
            FecScheme::K7 => 7,
            FecScheme::K9 => 9,
        }
    }

    /// Asymptotic coding gain in dB at BER ≈ 10⁻⁵ (textbook values for
    /// rate-1/2 soft-decision Viterbi).
    #[must_use]
    pub fn coding_gain_db(self) -> f64 {
        match self {
            FecScheme::None => 0.0,
            FecScheme::K3 => 3.3,
            FecScheme::K5 => 4.6,
            FecScheme::K7 => 5.8,
            FecScheme::K9 => 6.7,
        }
    }

    /// Code rate: information bits per transmitted bit.
    #[must_use]
    pub fn rate(self) -> f64 {
        match self {
            FecScheme::None => 1.0,
            _ => 0.5,
        }
    }

    /// Bandwidth expansion: transmitted bits per information bit.
    #[must_use]
    pub fn expansion(self) -> f64 {
        1.0 / self.rate()
    }

    /// Viterbi decoder work in add-compare-select operations per
    /// information bit (`2^(K−1)` states, one ACS each).
    #[must_use]
    pub fn decoder_ops_per_bit(self) -> u64 {
        match self.constraint_length() {
            0 => 0,
            k => 1 << (k - 1),
        }
    }

    /// Decoder energy per information bit, in joules, given the energy
    /// of one ACS operation.
    #[must_use]
    pub fn decoder_energy_per_bit_j(self, acs_energy_j: f64) -> f64 {
        self.decoder_ops_per_bit() as f64 * acs_energy_j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gain_grows_with_constraint_length() {
        let mut last = -1.0;
        for s in FecScheme::ALL {
            assert!(s.coding_gain_db() > last);
            last = s.coding_gain_db();
        }
    }

    #[test]
    fn decoder_work_is_exponential() {
        assert_eq!(FecScheme::None.decoder_ops_per_bit(), 0);
        assert_eq!(FecScheme::K3.decoder_ops_per_bit(), 4);
        assert_eq!(FecScheme::K7.decoder_ops_per_bit(), 64);
        assert_eq!(FecScheme::K9.decoder_ops_per_bit(), 256);
    }

    #[test]
    fn rate_and_expansion() {
        assert_eq!(FecScheme::None.expansion(), 1.0);
        assert_eq!(FecScheme::K7.expansion(), 2.0);
        assert!((FecScheme::K5.rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn decoder_energy_scales_with_ops() {
        let e = 1e-12;
        assert_eq!(FecScheme::None.decoder_energy_per_bit_j(e), 0.0);
        assert!(
            FecScheme::K9.decoder_energy_per_bit_j(e) > FecScheme::K3.decoder_energy_per_bit_j(e)
        );
    }
}
