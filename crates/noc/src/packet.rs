//! Packets and flits.
//!
//! "Packets are transmitted instead of words. Since the destination
//! address of a packet is encoded as part of the packet header, address
//! lines like in buses become superfluous" (§3.2). A [`Packet`] is
//! segmented into flits — a head flit carrying the route, body flits,
//! and a tail flit releasing wormhole resources. Packet size is itself a
//! design parameter (§3.3, experiment E4): the header overhead favours
//! large packets, link blocking favours small ones.

use crate::error::NocError;
use crate::topology::TileId;

/// The role of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlitKind {
    /// Opens the wormhole; carries routing information.
    Head,
    /// Payload.
    Body,
    /// Closes the wormhole.
    Tail,
    /// A single-flit packet (head and tail at once).
    HeadTail,
}

/// One flit of an in-flight packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flit {
    /// The owning packet's id.
    pub packet_id: u64,
    /// Role within the packet.
    pub kind: FlitKind,
    /// Destination tile (replicated from the head for simple modelling).
    pub dst: TileId,
    /// Cycle at which the packet was created at its source.
    pub created_cycle: u64,
}

impl Flit {
    /// Whether this flit opens a packet.
    #[must_use]
    pub fn is_head(&self) -> bool {
        matches!(self.kind, FlitKind::Head | FlitKind::HeadTail)
    }

    /// Whether this flit closes a packet.
    #[must_use]
    pub fn is_tail(&self) -> bool {
        matches!(self.kind, FlitKind::Tail | FlitKind::HeadTail)
    }
}

/// A packet before flit segmentation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Packet {
    /// Unique id.
    pub id: u64,
    /// Source tile.
    pub src: TileId,
    /// Destination tile.
    pub dst: TileId,
    /// Payload size in bytes (the header travels in the head flit).
    pub payload_bytes: u64,
    /// Cycle at which the packet was created.
    pub created_cycle: u64,
}

impl Packet {
    /// Number of flits this packet occupies for a given flit width,
    /// including `header_bytes` of header carried in the head flit.
    ///
    /// Always at least one.
    ///
    /// # Panics
    ///
    /// Panics if `flit_bytes` is zero.
    #[must_use]
    pub fn flit_count(&self, flit_bytes: u64, header_bytes: u64) -> usize {
        assert!(flit_bytes > 0, "flit width must be positive");
        let total = self.payload_bytes + header_bytes;
        (total.div_ceil(flit_bytes)).max(1) as usize
    }

    /// Segments the packet into flits.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidParameter`] if `flit_bytes` is zero.
    pub fn into_flits(self, flit_bytes: u64, header_bytes: u64) -> Result<Vec<Flit>, NocError> {
        if flit_bytes == 0 {
            return Err(NocError::InvalidParameter("flit_bytes"));
        }
        let n = self.flit_count(flit_bytes, header_bytes);
        let mut flits = Vec::with_capacity(n);
        for i in 0..n {
            let kind = match (i, n) {
                (0, 1) => FlitKind::HeadTail,
                (0, _) => FlitKind::Head,
                (i, n) if i == n - 1 => FlitKind::Tail,
                _ => FlitKind::Body,
            };
            flits.push(Flit {
                packet_id: self.id,
                kind,
                dst: self.dst,
                created_cycle: self.created_cycle,
            });
        }
        Ok(flits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(payload: u64) -> Packet {
        Packet {
            id: 1,
            src: TileId(0),
            dst: TileId(3),
            payload_bytes: payload,
            created_cycle: 0,
        }
    }

    #[test]
    fn flit_count_rounds_up() {
        let p = packet(100);
        assert_eq!(p.flit_count(32, 4), 4); // 104 bytes / 32 = 3.25 → 4
        assert_eq!(p.flit_count(104, 0), 1);
        assert_eq!(packet(0).flit_count(32, 0), 1); // at least one flit
    }

    #[test]
    fn segmentation_roles() {
        let flits = packet(100).into_flits(32, 4).expect("valid width");
        assert_eq!(flits.len(), 4);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[1].kind, FlitKind::Body);
        assert_eq!(flits[2].kind, FlitKind::Body);
        assert_eq!(flits[3].kind, FlitKind::Tail);
        assert!(flits[0].is_head() && !flits[0].is_tail());
        assert!(flits[3].is_tail() && !flits[3].is_head());
    }

    #[test]
    fn single_flit_packet_is_headtail() {
        let flits = packet(8).into_flits(32, 4).expect("valid width");
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind, FlitKind::HeadTail);
        assert!(flits[0].is_head() && flits[0].is_tail());
    }

    #[test]
    fn zero_flit_width_is_rejected() {
        assert!(packet(10).into_flits(0, 4).is_err());
    }

    #[test]
    fn flits_inherit_packet_identity() {
        let flits = packet(64).into_flits(16, 4).expect("valid width");
        for f in &flits {
            assert_eq!(f.packet_id, 1);
            assert_eq!(f.dst, TileId(3));
        }
    }
}
