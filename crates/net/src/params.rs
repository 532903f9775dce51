//! Network parameters, defaulted to the paper's 200 Gbps testbed (§2.3).

use ceio_sim::{Bandwidth, Duration};

/// Configuration of the network substrate.
#[derive(Debug, Clone)]
pub struct NetParams {
    /// Receiver link capacity shared by all flows.
    pub link_bandwidth: Bandwidth,
    /// One-way base network delay (ToR-scale datacenter path).
    pub base_delay: Duration,
    /// Per-packet Ethernet overhead on the wire beyond the packet bytes
    /// (preamble 8 + FCS 4 + IFG 12 = 24 B).
    pub wire_overhead: u64,
    /// MTU used for message segmentation.
    pub mtu: u64,
    /// Round-trip estimate used as the DCTCP update window.
    pub rtt: Duration,
}

impl Default for NetParams {
    fn default() -> Self {
        NetParams {
            link_bandwidth: Bandwidth::gbps(200),
            base_delay: Duration::micros(2),
            wire_overhead: 24,
            mtu: 1500,
            rtt: Duration::micros(20),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_rate_packet_interval_matches_paper() {
        // §1: 1024 B packets at 200 Gbps arrive every ~41.8 ns (payload
        // only; the wire adds overhead).
        let p = NetParams::default();
        let t = p.link_bandwidth.transfer_time(1024);
        assert!(t.as_nanos() >= 41 && t.as_nanos() <= 42);
    }
}
