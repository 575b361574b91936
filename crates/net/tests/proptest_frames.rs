//! Property-based tests for the wire protocol: the codec must be a
//! bijection on well-formed streams and a total function (error, not
//! panic) on everything else. The server driver must survive any offer
//! stream a peer can send.

use dms_net::{
    DriverConfig, Frame, FrameCodec, NetError, SessionDriver, MAX_PAYLOAD, PROTOCOL_VERSION,
};
use dms_serve::{
    AdmissionPolicy, CapacityModel, DegradeConfig, ServerConfig, SessionRequest, SessionTemplate,
};
use dms_sim::{JsonValue, RunLogReader, RunLogWriter};
use proptest::prelude::*;

fn any_u64() -> std::ops::RangeInclusive<u64> {
    0..=u64::MAX
}

fn any_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (0u16..=u16::MAX, any_u64(), any_u64()).prop_map(|(version, client_id, slots)| {
            Frame::Hello {
                version,
                client_id,
                slots,
            }
        }),
        (any_u64(), any_u64(), any_u64()).prop_map(|(id, arrival_slot, duration_slots)| {
            Frame::Offer {
                id,
                arrival_slot,
                duration_slots,
            }
        }),
        (any_u64(), any_u64()).prop_map(|(id, slot)| Frame::Admit { id, slot }),
        (any_u64(), any_u64()).prop_map(|(id, slot)| Frame::Reject { id, slot }),
        (any_u64(), any_u64(), any_u64()).prop_map(|(id, slot, bits)| Frame::Data {
            id,
            slot,
            bits
        }),
        any_u64().prop_map(|slot| Frame::Heartbeat { slot }),
        (0u8..=255).prop_map(|reason| Frame::Shutdown { reason }),
    ]
}

/// Offer durations a peer may send: short ones, any `u64`, and the
/// largest one.
fn any_duration() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..=4, any_u64(), Just(u64::MAX)]
}

proptest! {
    /// encode ∘ decode is the identity on every frame.
    #[test]
    fn round_trip(frame in any_frame()) {
        let mut bytes = Vec::new();
        frame.encode_into(&mut bytes);
        let decoded = Frame::decode(&bytes[4..]).expect("well-formed");
        prop_assert_eq!(decoded, frame);
    }

    /// A stream of frames survives arbitrary fragmentation: the codec
    /// reassembles the exact sequence no matter how the transport
    /// chops it up.
    #[test]
    fn codec_is_fragmentation_invariant(
        frames in proptest::collection::vec(any_frame(), 1..20),
        cuts in proptest::collection::vec(1usize..16, 1..40),
    ) {
        let mut wire = Vec::new();
        for f in &frames {
            f.encode_into(&mut wire);
        }
        let mut codec = FrameCodec::new();
        let mut decoded = Vec::new();
        let mut at = 0;
        let mut cut = 0;
        while at < wire.len() {
            let step = cuts[cut % cuts.len()].min(wire.len() - at);
            cut += 1;
            codec.push(&wire[at..at + step]);
            at += step;
            while let Some(f) = codec.next_frame().expect("well-formed stream") {
                decoded.push(f);
            }
        }
        prop_assert_eq!(decoded, frames);
        prop_assert_eq!(codec.pending(), 0);
    }

    /// Truncating a valid frame's payload is always an error, never a
    /// panic and never a bogus decode.
    #[test]
    fn truncation_is_rejected(frame in any_frame(), keep in 0usize..30) {
        let mut bytes = Vec::new();
        frame.encode_into(&mut bytes);
        let payload = bytes[4..].to_vec();
        if keep < payload.len() {
            prop_assert!(matches!(
                Frame::decode(&payload[..keep]),
                Err(NetError::Frame(_))
            ));
        }
    }

    /// Arbitrary bytes thrown at the decoder never panic; any decode
    /// that *succeeds* must re-encode to the same payload (no aliased
    /// interpretations).
    #[test]
    fn arbitrary_bytes_never_panic(payload in proptest::collection::vec(0u8..=255, 0..64)) {
        if let Ok(frame) = Frame::decode(&payload) {
            let mut bytes = Vec::new();
            frame.encode_into(&mut bytes);
            prop_assert_eq!(bytes[4..].to_vec(), payload);
        }
    }

    /// The streaming codec rejects oversized length prefixes outright
    /// instead of buffering towards them.
    #[test]
    fn oversized_lengths_fail_fast(len in (MAX_PAYLOAD + 1)..=u32::MAX) {
        let mut codec = FrameCodec::new();
        codec.push(&len.to_le_bytes());
        prop_assert!(matches!(
            codec.next_frame(),
            Err(NetError::Frame("oversized payload"))
        ));
    }

    /// Corrupting a single byte of a valid wire stream either still
    /// decodes (the flip hit a don't-care bit of an integer field) or
    /// errors — it never panics. Run against the *streaming* codec so
    /// the length prefix is in scope for corruption too.
    #[test]
    fn single_byte_corruption_never_panics(
        frame in any_frame(),
        at in 0usize..32,
        flip in 1u8..=255,
    ) {
        let mut wire = Vec::new();
        frame.encode_into(&mut wire);
        let at = at % wire.len();
        wire[at] ^= flip;
        let mut codec = FrameCodec::new();
        codec.push(&wire);
        // Drain until the codec errors, stalls, or empties — all fine.
        while let Ok(Some(_)) = codec.next_frame() {}
    }

    /// Any offer stream a peer may send in slot order — durations up
    /// to `u64::MAX`, arrivals past the horizon — drives the server to
    /// shutdown without a panic. Exactly the offers at or past the
    /// horizon are refused with a typed error, before the engine
    /// counts them. The summary ledger closes with nothing drained, and
    /// every decided offer gets exactly one verdict frame.
    #[test]
    fn hostile_offers_close_the_driver_ledger(
        horizon in 1u64..=64,
        steps in proptest::collection::vec((0u64..=3, any_duration()), 0..=64),
    ) {
        let template = SessionTemplate::streaming_default().expect("preset valid");
        let cfg = ServerConfig {
            capacity: CapacityModel {
                link_bits_per_slot: 4 * template.full_bits(),
                queue_frames: 64,
                occupancy_bound: 8.0,
            },
            policy: AdmissionPolicy::QueuePredictor,
            degrade: Some(DegradeConfig::default()),
            buffer_slots: 4,
            miss_slots: 2,
        };
        let mut arrival_slot = 0;
        let offers: Vec<SessionRequest> = steps
            .iter()
            .zip(0u64..)
            .map(|(&(gap, duration_slots), id)| {
                arrival_slot += gap;
                SessionRequest { id, arrival_slot, duration_slots }
            })
            .collect();
        let mut driver = SessionDriver::new(&cfg, template, horizon, DriverConfig::default())
            .expect("valid driver");
        let dir = std::env::temp_dir().join(format!("dms-net-ledger-{}", std::process::id()));
        driver.attach_run_log(RunLogWriter::create(&dir).expect("create run-log dir"));
        let mut out = Vec::new();
        let hello = Frame::Hello { version: PROTOCOL_VERSION, client_id: 1, slots: horizon };
        driver.on_frame(hello, &mut out).expect("hello");
        let mut accepted = 0u64;
        for req in &offers {
            let offer = Frame::Offer {
                id: req.id,
                arrival_slot: req.arrival_slot,
                duration_slots: req.duration_slots,
            };
            match driver.on_frame(offer, &mut out) {
                Ok(()) => accepted += 1,
                Err(NetError::Protocol("offer past the horizon")) => {
                    prop_assert!(req.arrival_slot >= horizon);
                }
                Err(e) => panic!("offer {}: {e}", req.id),
            }
        }
        driver.on_frame(Frame::Shutdown { reason: 0 }, &mut out).expect("shuts down");
        let verdicts = |admit: bool| {
            out.iter()
                .filter(|f| match f {
                    Frame::Admit { .. } => admit,
                    Frame::Reject { .. } => !admit,
                    _ => false,
                })
                .count() as u64
        };
        let scan = RunLogReader::open(&dir).and_then(|r| r.read_all()).expect("reads back");
        std::fs::remove_dir_all(&dir).expect("cleanup");
        prop_assert!(scan.clean_close);
        let summary = scan.records.last().expect("summary record");
        prop_assert_eq!(summary.get("kind").and_then(JsonValue::as_str), Some("summary"));
        let field = |key: &str| -> u64 {
            match summary.get("fields").and_then(|f| f.get(key)) {
                Some(&JsonValue::Uint(n)) => n,
                other => panic!("summary field {key}: {other:?}"),
            }
        };
        let offered = field("offered");
        let in_horizon = offers.iter().filter(|r| r.arrival_slot < horizon).count() as u64;
        prop_assert_eq!((offered, accepted), (in_horizon, in_horizon));
        prop_assert_eq!(field("drained"), 0);
        prop_assert_eq!(field("admitted") + field("rejected"), offered);
        prop_assert_eq!(verdicts(true), field("admitted"));
        prop_assert_eq!(verdicts(false), field("rejected"));
    }
}

#[test]
fn protocol_version_is_one() {
    // The version is wire-visible; bumping it is a compatibility
    // break and must be deliberate.
    assert_eq!(PROTOCOL_VERSION, 1);
}
