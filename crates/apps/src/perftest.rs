//! perftest equivalents: `ib_write_bw` and `ib_write_lat` (§6.1, §6.3).
//!
//! The Mellanox perftest tools measure the raw RDMA datapath: one flow,
//! RDMA writes of a configured size, no application processing. Fig. 11
//! compares CEIO's fast and slow paths against `ib_write_bw`; Table 3
//! compares latency against `ib_write_lat`. These constructors produce the
//! matching [`FlowSpec`]s; [`SinkApp`] is the no-op consumer both use.

use ceio_cpu::{AppWork, Application};
use ceio_net::{FlowClass, FlowSpec, Packet};
use ceio_sim::{Bandwidth, Duration};

/// A consumer that does nothing with the payload (perftest's data sink).
#[derive(Debug, Default)]
pub struct SinkApp {
    received: u64,
    bytes: u64,
}

impl SinkApp {
    /// A fresh sink.
    pub fn new() -> SinkApp {
        SinkApp::default()
    }

    /// Packets absorbed.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Packet bytes absorbed.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Application for SinkApp {
    fn name(&self) -> &str {
        "perftest-sink"
    }

    fn process(&mut self, pkt: &Packet) -> AppWork {
        self.received += 1;
        self.bytes += pkt.bytes;
        AppWork::compute(Duration::nanos(5))
    }
}

/// `ib_write_bw`-style flow: one CPU-bypass flow of back-to-back RDMA
/// writes of `msg_bytes`, demanding `demand` (typically the link rate).
/// Messages above the MTU segment into MTU-sized packets.
pub fn write_bw_flow(id: u32, msg_bytes: u64, mtu: u64, demand: Bandwidth) -> FlowSpec {
    let pkt = msg_bytes.min(mtu).max(1);
    let packets = msg_bytes.div_ceil(pkt).max(1) as u32;
    FlowSpec::new(id, FlowClass::CpuBypass, pkt, packets, demand)
}

/// `ib_write_lat`-style flow: ping-pong single writes of `msg_bytes` at a
/// deliberately low rate so each write observes an unloaded path.
pub fn write_lat_flow(id: u32, msg_bytes: u64, mtu: u64) -> FlowSpec {
    let pkt = msg_bytes.min(mtu).max(1);
    let packets = msg_bytes.div_ceil(pkt).max(1) as u32;
    // ~100k writes/sec keeps successive measurements independent.
    let demand = Bandwidth::bytes_per_sec(msg_bytes.max(64) * 100_000);
    FlowSpec::new(id, FlowClass::CpuBypass, pkt, packets, demand)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_writes_are_single_packets() {
        let f = write_bw_flow(0, 512, 1500, Bandwidth::gbps(200));
        assert_eq!(f.packet_bytes, 512);
        assert_eq!(f.msg_packets, 1);
        assert_eq!(f.class, FlowClass::CpuBypass);
    }

    #[test]
    fn large_writes_segment_at_mtu() {
        let f = write_bw_flow(0, 65_536, 1500, Bandwidth::gbps(200));
        assert_eq!(f.packet_bytes, 1500);
        assert_eq!(f.msg_packets, 44); // ceil(65536/1500)
        assert!(f.msg_bytes() >= 65_536);
    }

    #[test]
    fn lat_flow_is_slow_paced() {
        let f = write_lat_flow(0, 4096, 1500);
        // 4 KB * 100k/s = ~3.3 Gbps << line rate.
        assert!(f.demand < Bandwidth::gbps(5));
    }

    #[test]
    fn sink_counts() {
        use ceio_net::{FlowId, PacketId};
        use ceio_sim::Time;
        let mut s = SinkApp::new();
        s.process(&Packet {
            id: PacketId(0),
            flow: FlowId(0),
            bytes: 1500,
            msg_id: 0,
            msg_seq: 0,
            msg_last: true,
            sent_at: Time::ZERO,
            arrived_nic: Time::ZERO,
            ecn: false,
        });
        assert_eq!(s.received(), 1);
        assert_eq!(s.bytes(), 1500);
    }
}
