//! Full-duplex PCIe link: one FIFO serialization server per direction plus
//! a fixed propagation delay.

use crate::params::PcieParams;
use crate::tlp;
use ceio_sim::{Duration, Time};

/// Transfer direction over the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// NIC → host (inbound DMA writes, read completions to host).
    ToHost,
    /// Host → NIC (doorbells, DMA read requests, descriptor fetches).
    ToNic,
}

/// Per-direction statistics.
#[derive(Debug, Default, Clone)]
pub struct LinkStats {
    /// Payload bytes moved.
    pub payload_bytes: u64,
    /// Wire bytes moved (payload + TLP overhead).
    pub wire_bytes: u64,
    /// Transfers performed.
    pub transfers: u64,
}

#[derive(Debug, Default)]
struct DirState {
    busy_until: Time,
    stats: LinkStats,
}

/// The PCIe link between NIC and host.
#[derive(Debug)]
pub struct PcieLink {
    params: PcieParams,
    to_host: DirState,
    to_nic: DirState,
}

impl PcieLink {
    /// A link with the given parameters, idle at time zero.
    pub fn new(params: PcieParams) -> PcieLink {
        PcieLink {
            params,
            to_host: DirState::default(),
            to_nic: DirState::default(),
        }
    }

    /// The configuration of this link.
    #[inline]
    pub fn params(&self) -> &PcieParams {
        &self.params
    }

    fn dir_mut(&mut self, d: Direction) -> &mut DirState {
        match d {
            Direction::ToHost => &mut self.to_host,
            Direction::ToNic => &mut self.to_nic,
        }
    }

    /// Serialize `payload` bytes in direction `d` starting no earlier than
    /// `now`; returns the arrival instant at the far side (serialization
    /// complete + propagation).
    pub fn transfer(&mut self, now: Time, d: Direction, payload: u64) -> Time {
        let wire = tlp::wire_bytes(
            payload,
            self.params.max_payload_size,
            self.params.tlp_overhead,
        );
        let ser = self.params.bandwidth.transfer_time(wire);
        let prop = self.params.propagation;
        let dir = self.dir_mut(d);
        let start = dir.busy_until.max(now);
        dir.busy_until = start + ser;
        dir.stats.payload_bytes += payload;
        dir.stats.wire_bytes += wire;
        dir.stats.transfers += 1;
        dir.busy_until + prop
    }

    /// Serialization backlog in direction `d` relative to `now`.
    pub fn backlog(&self, now: Time, d: Direction) -> Duration {
        let dir = match d {
            Direction::ToHost => &self.to_host,
            Direction::ToNic => &self.to_nic,
        };
        dir.busy_until.since(now)
    }

    /// Read-only statistics for direction `d`.
    pub fn stats(&self, d: Direction) -> &LinkStats {
        match d {
            Direction::ToHost => &self.to_host.stats,
            Direction::ToNic => &self.to_nic.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> PcieLink {
        PcieLink::new(PcieParams::default())
    }

    #[test]
    fn transfer_includes_serialization_and_propagation() {
        let mut l = link();
        let arrive = l.transfer(Time(0), Direction::ToHost, 2048);
        let wire = tlp::wire_bytes(2048, 256, 24);
        let expect = Time(0) + l.params().bandwidth.transfer_time(wire) + l.params().propagation;
        assert_eq!(arrive, expect);
    }

    #[test]
    fn directions_are_independent() {
        let mut l = link();
        let a = l.transfer(Time(0), Direction::ToHost, 1 << 20);
        let b = l.transfer(Time(0), Direction::ToNic, 64);
        // The huge inbound transfer must not delay the doorbell.
        assert!(b < a);
        assert_eq!(l.stats(Direction::ToNic).transfers, 1);
        assert_eq!(l.stats(Direction::ToHost).transfers, 1);
    }

    #[test]
    fn same_direction_serializes_fifo() {
        let mut l = link();
        let a = l.transfer(Time(0), Direction::ToHost, 4096);
        let b = l.transfer(Time(0), Direction::ToHost, 4096);
        assert!(b > a);
        // Exactly one extra serialization interval apart.
        let wire = tlp::wire_bytes(4096, 256, 24);
        assert_eq!(b.since(a), l.params().bandwidth.transfer_time(wire));
    }

    #[test]
    fn backlog_tracks_busy_time() {
        let mut l = link();
        assert_eq!(l.backlog(Time(0), Direction::ToHost), Duration::ZERO);
        l.transfer(Time(0), Direction::ToHost, 1 << 20);
        assert!(l.backlog(Time(0), Direction::ToHost) > Duration::ZERO);
    }

    #[test]
    fn wire_bytes_accounted() {
        let mut l = link();
        l.transfer(Time(0), Direction::ToHost, 2048);
        let s = l.stats(Direction::ToHost);
        assert_eq!(s.payload_bytes, 2048);
        assert_eq!(s.wire_bytes, 2048 + 8 * 24);
    }
}
