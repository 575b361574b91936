//! Property-based tests for the media models.

use dms_media::fgs::{FgsEncoder, BIT_PLANES};
use dms_media::image::{ImageModel, QuantizerChoice};
use dms_media::stream::{ChannelModel, StreamConfig, StreamSim};
use dms_media::trace_gen::{FrameKind, VideoTraceGenerator};
use dms_sim::SimRng;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The stream simulator conserves packets for any valid
    /// configuration: delivered + lost + dropped = emitted.
    #[test]
    fn stream_conserves_packets(
        seed in 0u64..500,
        source_interval in 1u64..30,
        sink_interval in 1u64..30,
        channel_service in 1u64..30,
        tx_cap in 1usize..24,
        rx_cap in 1usize..24,
        loss in 0.0f64..0.4,
        retx in 0u32..4,
    ) {
        let cfg = StreamConfig {
            source_interval,
            packet_count: 400,
            tx_capacity: tx_cap,
            rx_capacity: rx_cap,
            sink_interval,
            channel_service,
            channel: ChannelModel {
                p_good_to_bad: 0.02,
                p_bad_to_good: 0.2,
                loss_good: loss * 0.2,
                loss_bad: loss,
                delay_ticks: 3,
            },
            max_retransmissions: retx,
        };
        let r = StreamSim::run(cfg, seed).expect("valid config");
        prop_assert_eq!(
            r.delivered + r.lost_channel + r.dropped_tx + r.dropped_rx,
            400,
            "packet conservation violated"
        );
        prop_assert!((0.0..=1.0).contains(&r.loss_rate()));
        prop_assert!(r.rx_occupancy_peak <= rx_cap as f64);
        if r.delivered > 0 {
            prop_assert!(r.mean_latency_ticks >= channel_service as f64);
        }
    }

    /// Video traces always have positive sizes, correct GOP typing and
    /// the configured length.
    #[test]
    fn traces_are_structurally_sound(seed in 0u64..300, count in 1usize..300) {
        let generator = VideoTraceGenerator::cif_mpeg2().expect("preset valid");
        let frames = generator.generate(count, &mut SimRng::new(seed));
        prop_assert_eq!(frames.len(), count);
        for (i, f) in frames.iter().enumerate() {
            prop_assert_eq!(f.index, i as u64);
            prop_assert!(f.bytes >= 1);
            // The preset's GOP is IBBPBBPBBPBB.
            let expected = match i % 12 {
                0 => FrameKind::I,
                3 | 6 | 9 => FrameKind::P,
                _ => FrameKind::B,
            };
            prop_assert_eq!(f.kind, expected);
        }
    }

    /// FGS layering conserves bits for arbitrary base fractions.
    #[test]
    fn fgs_layering_conserves_bits(
        seed in 0u64..200,
        base_fraction in 0.05f64..0.95,
        frames in 1usize..40,
    ) {
        let generator = VideoTraceGenerator::cif_mpeg2().expect("preset valid");
        let encoder =
            FgsEncoder::new(base_fraction, 30.0, 12.0).expect("fraction in (0,1)");
        let mut rng = SimRng::new(seed);
        let raw = generator.generate(frames, &mut rng);
        let mut rng2 = SimRng::new(seed);
        let coded = encoder.encode(&generator, frames, &mut rng2);
        prop_assert_eq!(raw.len(), coded.len());
        for (r, c) in raw.iter().zip(&coded) {
            prop_assert_eq!(c.total_bits(), r.bytes * 8, "bits must be conserved");
            prop_assert_eq!(c.plane_bits.len(), BIT_PLANES);
            prop_assert!(c.base_psnr_db > 0.0);
        }
    }

    /// Image rate–distortion: PSNR strictly increases with rate and
    /// strictly decreases with BER.
    #[test]
    fn image_psnr_monotone(bpp in 0.2f64..7.0, ber_exp in 2.0f64..8.0) {
        let image = ImageModel::new(128, 128, 2500.0).expect("valid");
        let q1 = QuantizerChoice::new(bpp).expect("positive");
        let q2 = QuantizerChoice::new(bpp + 0.5).expect("positive");
        let clean = |q| image.psnr_with_errors_db(q, 0.0);
        prop_assert!(clean(q2) > clean(q1));
        let ber = 10f64.powf(-ber_exp);
        prop_assert!(image.psnr_with_errors_db(q1, ber) <= clean(q1));
        prop_assert!(
            image.psnr_with_errors_db(q1, ber * 10.0) <= image.psnr_with_errors_db(q1, ber)
        );
    }
}
