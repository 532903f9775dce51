//! Packet descriptors.
//!
//! Packets carry no payload bytes — only sizes and identity — because
//! nothing in the CEIO data path depends on payload *content*; carrying
//! real buffers would only slow the simulation. The applications that do
//! care about content (the KV store) synthesize it from the packet
//! identity deterministically.

use crate::flow::FlowId;
use ceio_sim::Time;

/// Globally unique packet identifier (dense, allocated by the generator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketId(pub u64);

/// One packet in flight through the I/O system.
#[derive(Debug, Clone, Copy)]
pub struct Packet {
    /// Unique identity.
    pub id: PacketId,
    /// Owning flow.
    pub flow: FlowId,
    /// Packet size in bytes (headers + payload) as seen by DMA.
    pub bytes: u64,
    /// Message this packet belongs to (per-flow counter).
    pub msg_id: u64,
    /// Index of this packet within its message.
    pub msg_seq: u32,
    /// Whether this is the last packet of its message. For CPU-bypass flows
    /// this is the RDMA write-with-immediate analogue: the only packet that
    /// raises a completion visible to the driver (§4.1).
    pub msg_last: bool,
    /// Instant the sender emitted the packet.
    pub sent_at: Time,
    /// Instant the packet arrived at the receiver NIC (set by the ingress
    /// link; `Time::MAX` until then).
    pub arrived_nic: Time,
    /// ECN congestion-experienced mark (set by switches/receiver policy).
    pub ecn: bool,
}

impl Packet {
    /// Wire-level ordering key within a flow: (message, sequence).
    #[inline]
    pub fn order_key(&self) -> (u64, u32) {
        (self.msg_id, self.msg_seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(msg_id: u64, msg_seq: u32) -> Packet {
        Packet {
            id: PacketId(0),
            flow: FlowId(0),
            bytes: 512,
            msg_id,
            msg_seq,
            msg_last: false,
            sent_at: Time::ZERO,
            arrived_nic: Time::MAX,
            ecn: false,
        }
    }

    #[test]
    fn order_key_sorts_by_message_then_seq() {
        let a = pkt(1, 7);
        let b = pkt(2, 0);
        let c = pkt(1, 8);
        assert!(a.order_key() < c.order_key());
        assert!(c.order_key() < b.order_key());
    }
}
