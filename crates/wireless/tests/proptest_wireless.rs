//! Property-based tests for the wireless substrate.

use dms_media::fgs::FgsEncoder;
use dms_media::trace_gen::VideoTraceGenerator;
use dms_sim::SimRng;
use dms_wireless::dvfs::DvfsCpu;
use dms_wireless::fec::FecScheme;
use dms_wireless::modulation::{db_to_linear, Modulation};
use dms_wireless::transceiver::{AdaptivePolicy, Transceiver};
use proptest::prelude::*;

proptest! {
    /// BER is monotonically non-increasing in SNR for every scheme and
    /// always within [0, 0.5].
    #[test]
    fn ber_monotone_and_bounded(snr_db in -10.0f64..40.0, step in 0.1f64..10.0) {
        for m in Modulation::ALL {
            let low = m.ber(db_to_linear(snr_db));
            let high = m.ber(db_to_linear(snr_db + step));
            prop_assert!((0.0..=0.5).contains(&low));
            prop_assert!(high <= low + 1e-15, "{m:?}: BER rose with SNR");
        }
    }

    /// required_gamma_b is the *least* SNR meeting the target: it meets
    /// it, and 20% less does not.
    #[test]
    fn required_gamma_is_tight(exponent in 2.0f64..7.0) {
        let target = 10f64.powf(-exponent);
        for m in Modulation::ALL {
            let g = m.required_gamma_b(target).expect("achievable target");
            prop_assert!(m.ber(g) <= target * 1.01);
            prop_assert!(m.ber(g * 0.8) > target);
        }
    }

    /// The adaptive policy's choice is optimal: no other feasible
    /// modulation at that channel state is cheaper.
    #[test]
    fn adaptive_choice_is_optimal(gain_db in 14.0f64..40.0, ber_exp in 3.0f64..7.0) {
        let radio = Transceiver::default_radio().expect("preset valid");
        let policy = AdaptivePolicy::new(10f64.powf(-ber_exp)).expect("valid");
        if let Some(choice) = policy.choose(&radio, gain_db) {
            for m in Modulation::ALL {
                if let Some(p) = policy.required_power_w(&radio, m, gain_db) {
                    prop_assert!(
                        choice.energy_j <= radio.energy_per_bit_j(m, p) + 1e-18,
                        "{m:?} beats the chosen {:?}",
                        choice.modulation
                    );
                }
            }
            prop_assert!(choice.tx_power_w <= radio.max_tx_power_w);
        }
    }

    /// FGS truncation is monotone in the budget: more bits never lower
    /// PSNR, and sent bits never exceed the budget (beyond the mandatory
    /// base layer) or the total.
    #[test]
    fn fgs_truncation_monotone(seed in 0u64..200, budget_frac in 0.0f64..1.2) {
        let generator = VideoTraceGenerator::cif_mpeg2().expect("preset valid");
        let encoder = FgsEncoder::streaming_default().expect("preset valid");
        let frame = encoder.encode(&generator, 1, &mut SimRng::new(seed)).remove(0);
        let budget = (frame.total_bits() as f64 * budget_frac) as u64;
        let (sent, psnr) = frame.truncate_to(budget);
        prop_assert!(sent >= frame.base_bits);
        prop_assert!(sent <= frame.total_bits());
        prop_assert!(sent <= budget.max(frame.base_bits));
        prop_assert!(psnr >= frame.base_psnr_db - 1e-12);
        let all_planes = frame.base_psnr_db + frame.plane_psnr_db.iter().sum::<f64>();
        prop_assert!(psnr <= all_planes + 1e-12);
        // Monotonicity against a larger budget.
        let (sent2, psnr2) = frame.truncate_to(budget.saturating_add(5_000));
        prop_assert!(sent2 >= sent);
        prop_assert!(psnr2 >= psnr - 1e-12);
    }

    /// DVFS: the slowest feasible point always meets the deadline, and
    /// no slower point does.
    #[test]
    fn slowest_feasible_is_tight(cycles in 1u64..2_000_000_000, deadline_ms in 1.0f64..2000.0) {
        let cpu = DvfsCpu::xscale().expect("preset valid");
        let deadline = deadline_ms / 1e3;
        match cpu.slowest_feasible(cycles, deadline) {
            Some(point) => {
                prop_assert!(cycles as f64 / point.frequency_hz <= deadline * (1.0 + 1e-12));
                // Any strictly slower point misses.
                for p in cpu.points() {
                    if p.frequency_hz < point.frequency_hz {
                        prop_assert!(cycles as f64 / p.frequency_hz > deadline);
                    }
                }
            }
            None => {
                let fastest = cpu.max_point();
                prop_assert!(cycles as f64 / fastest.frequency_hz > deadline);
            }
        }
    }

    /// FEC: stronger codes always cost more decoder work and more
    /// bandwidth never less.
    #[test]
    fn fec_order_is_consistent(_x in 0u8..1) {
        for w in FecScheme::ALL.windows(2) {
            prop_assert!(w[1].coding_gain_db() > w[0].coding_gain_db());
            prop_assert!(w[1].decoder_ops_per_bit() >= w[0].decoder_ops_per_bit());
            prop_assert!(w[1].expansion() >= w[0].expansion());
        }
    }
}
