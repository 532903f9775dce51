//! Flow identity and specification.

use ceio_sim::{Bandwidth, Time};

/// Flow identifier (dense per experiment; doubles as the RMT match key and
/// the RX queue index for flow-per-queue setups).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u32);

/// The two I/O flow classes of §2.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowClass {
    /// DDIO-accelerated, CPU-polled flows (RPC, NF processing, databases):
    /// NIC → LLC → CPU.
    CpuInvolved,
    /// RDMA-accelerated flows with minimal CPU involvement (DFS transfers,
    /// AI data exchange): NIC → LLC → DRAM.
    CpuBypass,
}

/// Static description of one flow.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Identity.
    pub id: FlowId,
    /// CPU-involved or CPU-bypass.
    pub class: FlowClass,
    /// Packet size in bytes (headers + payload).
    pub packet_bytes: u64,
    /// Message length in packets. CPU-involved RPC traffic is typically 1–4
    /// packets per message; CPU-bypass transfers are hundreds (§4.1 relies
    /// on this asymmetry).
    pub msg_packets: u32,
    /// Demanded sending rate before congestion control (open-loop offered
    /// load); the DCTCP controller modulates below this.
    pub demand: Bandwidth,
    /// When the flow starts.
    pub start: Time,
    /// When the flow stops (exclusive); `Time::MAX` for "runs forever".
    pub stop: Time,
}

impl FlowSpec {
    /// Convenience constructor for an always-on flow starting at zero.
    pub fn new(
        id: u32,
        class: FlowClass,
        packet_bytes: u64,
        msg_packets: u32,
        demand: Bandwidth,
    ) -> FlowSpec {
        FlowSpec {
            id: FlowId(id),
            class,
            packet_bytes,
            msg_packets,
            demand,
            start: Time::ZERO,
            stop: Time::MAX,
        }
    }

    /// Message size in bytes.
    pub fn msg_bytes(&self) -> u64 {
        self.packet_bytes * self.msg_packets as u64
    }

    /// Whether the flow is active at `now`.
    pub fn active_at(&self, now: Time) -> bool {
        now >= self.start && now < self.stop
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activity_window() {
        let mut f = FlowSpec::new(0, FlowClass::CpuInvolved, 512, 1, Bandwidth::gbps(25));
        f.start = Time(100);
        f.stop = Time(200);
        assert!(!f.active_at(Time(99)));
        assert!(f.active_at(Time(100)));
        assert!(f.active_at(Time(199)));
        assert!(!f.active_at(Time(200)));
    }

    #[test]
    fn msg_bytes() {
        let f = FlowSpec::new(0, FlowClass::CpuBypass, 1024, 256, Bandwidth::gbps(25));
        assert_eq!(f.msg_bytes(), 256 * 1024);
    }
}
