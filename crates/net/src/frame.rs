//! The wire protocol: one [`Frame`] enum, one binary encoding, one
//! incremental decoder — the single source of truth both sides of
//! every `dms-net` socket share.
//!
//! # Frame grammar
//!
//! Every frame is a little-endian length-prefixed record:
//!
//! ```text
//! [u32 payload_len][u8 tag][payload bytes…]
//! ```
//!
//! `payload_len` counts the tag byte plus the fixed-width body, so a
//! decoder can skip unknown *lengths* but never guesses: each tag has
//! exactly one legal payload length, anything else is
//! [`NetError::Frame`] (never a panic). Integers are little-endian;
//! there is no padding, no varints, no strings — offers and verdicts
//! are numbers all the way down, which is what keeps the loopback soak
//! byte-deterministic.
//!
//! The protocol is versioned through the [`Frame::Hello`] handshake
//! ([`PROTOCOL_VERSION`]), not through per-frame version bits: both
//! sides agree once, then every later frame is interpreted under that
//! version.

use crate::error::NetError;

/// Version of the wire grammar this crate implements. Bumped on any
/// incompatible layout change; [`Frame::Hello`] carries it.
pub const PROTOCOL_VERSION: u16 = 1;

/// Hard ceiling on `payload_len` — far above any legal frame (the
/// largest is 25 bytes), so a corrupt or hostile length prefix fails
/// fast instead of asking the codec to buffer gigabytes.
pub const MAX_PAYLOAD: u32 = 64;

const TAG_HELLO: u8 = 1;
const TAG_OFFER: u8 = 2;
const TAG_ADMIT: u8 = 3;
const TAG_REJECT: u8 = 4;
const TAG_DATA: u8 = 5;
// Tag 6 stays unassigned: an older peer may still send its layer-cap
// frame, which must decode as an unknown tag, never as another frame.
const TAG_HEARTBEAT: u8 = 7;
const TAG_SHUTDOWN: u8 = 8;

/// One protocol message. The enum is the protocol: encode/decode are
/// total over it and reject everything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame {
    /// Session handshake, first frame in both directions.
    Hello {
        /// [`PROTOCOL_VERSION`] of the sender.
        version: u16,
        /// Caller-chosen client identity (echoed by the server).
        client_id: u64,
        /// Slot horizon of the run both sides must agree on.
        slots: u64,
    },
    /// A session offered to the server's admission path.
    Offer {
        /// Session id, unique per client run.
        id: u64,
        /// Slot the offer arrives at (non-decreasing per connection).
        arrival_slot: u64,
        /// Service slots the session wants.
        duration_slots: u64,
    },
    /// First-offer admission verdict: admitted.
    Admit {
        /// Session id the verdict is for.
        id: u64,
        /// Slot the verdict was decided at.
        slot: u64,
    },
    /// First-offer admission verdict: rejected.
    Reject {
        /// Session id the verdict is for.
        id: u64,
        /// Slot the verdict was decided at.
        slot: u64,
    },
    /// Per-slot delivery telemetry (aggregate when `id` is 0).
    Data {
        /// Session id, or 0 for the whole-link aggregate.
        id: u64,
        /// Slot the bits were served in.
        slot: u64,
        /// Bits delivered.
        bits: u64,
    },
    /// Liveness beacon; also the lockstep carrier — a heartbeat's
    /// `slot` advances the receiver's slot cursor.
    Heartbeat {
        /// Sender's current slot.
        slot: u64,
    },
    /// Graceful end of stream. The initiator sends it, the server
    /// drains in-flight sessions and acks with its own `Shutdown`.
    Shutdown {
        /// 0 = drain (graceful), anything else names an error class.
        reason: u8,
    },
}

fn u16_at(b: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([b[at], b[at + 1]])
}

fn u32_at(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

fn u64_at(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes([
        b[at],
        b[at + 1],
        b[at + 2],
        b[at + 3],
        b[at + 4],
        b[at + 5],
        b[at + 6],
        b[at + 7],
    ])
}

impl Frame {
    /// Appends the frame's length-prefixed encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&0u32.to_le_bytes()); // length patched below
        match *self {
            Frame::Hello {
                version,
                client_id,
                slots,
            } => {
                out.push(TAG_HELLO);
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(&client_id.to_le_bytes());
                out.extend_from_slice(&slots.to_le_bytes());
            }
            Frame::Offer {
                id,
                arrival_slot,
                duration_slots,
            } => {
                out.push(TAG_OFFER);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&arrival_slot.to_le_bytes());
                out.extend_from_slice(&duration_slots.to_le_bytes());
            }
            Frame::Admit { id, slot } => {
                out.push(TAG_ADMIT);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&slot.to_le_bytes());
            }
            Frame::Reject { id, slot } => {
                out.push(TAG_REJECT);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&slot.to_le_bytes());
            }
            Frame::Data { id, slot, bits } => {
                out.push(TAG_DATA);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&slot.to_le_bytes());
                out.extend_from_slice(&bits.to_le_bytes());
            }
            Frame::Heartbeat { slot } => {
                out.push(TAG_HEARTBEAT);
                out.extend_from_slice(&slot.to_le_bytes());
            }
            Frame::Shutdown { reason } => {
                out.push(TAG_SHUTDOWN);
                out.push(reason);
            }
        }
        let payload_len = (out.len() - start - 4) as u32;
        out[start..start + 4].copy_from_slice(&payload_len.to_le_bytes());
    }

    /// Decodes one payload (tag byte + body, *without* the length
    /// prefix). Strict: every tag has exactly one legal body length.
    ///
    /// # Errors
    ///
    /// [`NetError::Frame`] naming the violated rule; never panics on
    /// any input.
    pub fn decode(payload: &[u8]) -> Result<Frame, NetError> {
        let (&tag, body) = payload
            .split_first()
            .ok_or(NetError::Frame("empty payload"))?;
        match tag {
            TAG_HELLO => {
                if body.len() != 18 {
                    return Err(NetError::Frame("hello length"));
                }
                Ok(Frame::Hello {
                    version: u16_at(body, 0),
                    client_id: u64_at(body, 2),
                    slots: u64_at(body, 10),
                })
            }
            TAG_OFFER => {
                if body.len() != 24 {
                    return Err(NetError::Frame("offer length"));
                }
                Ok(Frame::Offer {
                    id: u64_at(body, 0),
                    arrival_slot: u64_at(body, 8),
                    duration_slots: u64_at(body, 16),
                })
            }
            TAG_ADMIT => {
                if body.len() != 16 {
                    return Err(NetError::Frame("admit length"));
                }
                Ok(Frame::Admit {
                    id: u64_at(body, 0),
                    slot: u64_at(body, 8),
                })
            }
            TAG_REJECT => {
                if body.len() != 16 {
                    return Err(NetError::Frame("reject length"));
                }
                Ok(Frame::Reject {
                    id: u64_at(body, 0),
                    slot: u64_at(body, 8),
                })
            }
            TAG_DATA => {
                if body.len() != 24 {
                    return Err(NetError::Frame("data length"));
                }
                Ok(Frame::Data {
                    id: u64_at(body, 0),
                    slot: u64_at(body, 8),
                    bits: u64_at(body, 16),
                })
            }
            TAG_HEARTBEAT => {
                if body.len() != 8 {
                    return Err(NetError::Frame("heartbeat length"));
                }
                Ok(Frame::Heartbeat {
                    slot: u64_at(body, 0),
                })
            }
            TAG_SHUTDOWN => {
                if body.len() != 1 {
                    return Err(NetError::Frame("shutdown length"));
                }
                Ok(Frame::Shutdown { reason: body[0] })
            }
            _ => Err(NetError::Frame("unknown tag")),
        }
    }
}

/// Incremental frame decoder: push arbitrary byte chunks in, pull
/// whole frames out. Tolerates any fragmentation the transport
/// produces (byte-at-a-time included); rejects corrupt input with
/// [`NetError::Frame`] without panicking and without consuming bytes
/// past the bad frame.
#[derive(Debug, Default)]
pub struct FrameCodec {
    buf: Vec<u8>,
    /// Read cursor into `buf`; consumed bytes are compacted away once
    /// the cursor passes half the buffer.
    at: usize,
}

impl FrameCodec {
    /// A fresh, empty codec.
    #[must_use]
    pub fn new() -> Self {
        FrameCodec::default()
    }

    /// Appends raw transport bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded.
    ///
    /// Test access: `codec_reassembles_byte_at_a_time` and the codec
    /// proptests check that buffering stays bounded through it.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len() - self.at
    }

    /// Decodes the next complete frame, if one is buffered.
    ///
    /// # Errors
    ///
    /// [`NetError::Frame`] on a corrupt length prefix or payload; the
    /// stream is unrecoverable after an error (framing is lost).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, NetError> {
        let avail = &self.buf[self.at..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32_at(avail, 0);
        if len > MAX_PAYLOAD {
            return Err(NetError::Frame("oversized payload"));
        }
        let len = len as usize;
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let frame = Frame::decode(&avail[4..4 + len])?;
        self.at += 4 + len;
        if self.at > self.buf.len() / 2 {
            self.buf.drain(..self.at);
            self.at = 0;
        }
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                version: PROTOCOL_VERSION,
                client_id: 7,
                slots: 700,
            },
            Frame::Offer {
                id: 42,
                arrival_slot: 3,
                duration_slots: 150,
            },
            Frame::Admit { id: 42, slot: 3 },
            Frame::Reject { id: 43, slot: 4 },
            Frame::Data {
                id: 0,
                slot: 5,
                bits: 123_456,
            },
            Frame::Heartbeat { slot: 9 },
            Frame::Shutdown { reason: 0 },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for frame in sample_frames() {
            let mut bytes = Vec::new();
            frame.encode_into(&mut bytes);
            let decoded = Frame::decode(&bytes[4..]).expect("round trip");
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn codec_reassembles_byte_at_a_time() {
        let frames = sample_frames();
        let mut wire = Vec::new();
        for f in &frames {
            f.encode_into(&mut wire);
        }
        let mut codec = FrameCodec::new();
        let mut decoded = Vec::new();
        for &b in &wire {
            codec.push(&[b]);
            while let Some(f) = codec.next_frame().expect("well-formed stream") {
                decoded.push(f);
            }
        }
        assert_eq!(decoded, frames);
        assert_eq!(codec.pending(), 0);
    }

    #[test]
    fn truncated_payload_is_an_error_not_a_panic() {
        let mut bytes = Vec::new();
        Frame::Heartbeat { slot: 1 }.encode_into(&mut bytes);
        // Claim the full length but deliver a short body to decode().
        assert!(matches!(
            Frame::decode(&bytes[4..bytes.len() - 1]),
            Err(NetError::Frame(_))
        ));
        // Empty payload.
        assert!(matches!(Frame::decode(&[]), Err(NetError::Frame(_))));
    }

    #[test]
    fn unknown_tag_and_oversized_length_are_rejected() {
        assert!(matches!(
            Frame::decode(&[99, 0, 0, 0, 0, 0, 0, 0, 0]),
            Err(NetError::Frame("unknown tag"))
        ));
        let mut codec = FrameCodec::new();
        codec.push(&u32::MAX.to_le_bytes());
        assert!(matches!(
            codec.next_frame(),
            Err(NetError::Frame("oversized payload"))
        ));
    }

    /// Tag 6 once carried a layer-cap frame; a peer that still sends
    /// one gets a typed error, not a frame.
    #[test]
    fn retired_tag_six_is_an_unknown_tag() {
        let mut payload = vec![6u8];
        payload.extend_from_slice(&6u64.to_le_bytes());
        payload.extend_from_slice(&2u32.to_le_bytes());
        assert!(matches!(
            Frame::decode(&payload),
            Err(NetError::Frame("unknown tag"))
        ));
        let mut codec = FrameCodec::new();
        codec.push(&(payload.len() as u32).to_le_bytes());
        codec.push(&payload);
        assert!(matches!(
            codec.next_frame(),
            Err(NetError::Frame("unknown tag"))
        ));
    }
}
