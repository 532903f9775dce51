//! The shared receiver link.
//!
//! All senders' packets serialize through the receiver's 200 Gbps port
//! before reaching the NIC. This is what caps aggregate ingress at line
//! rate and creates queueing during bursts. A bounded port queue models
//! the switch's egress buffer toward the receiver; overflow there is a
//! network drop (distinct from host-side drops).

use crate::params::NetParams;
use ceio_sim::{Duration, Time};

/// Ingress link statistics.
#[derive(Debug, Default, Clone)]
pub struct IngressStats {
    /// Packets admitted to the port queue.
    pub admitted: u64,
    /// Packets dropped at the port queue (switch buffer overflow).
    pub dropped: u64,
    /// Wire bytes delivered.
    pub bytes: u64,
    /// Packets ECN-marked by the port (queue above marking threshold).
    pub ecn_marked: u64,
}

/// The shared link into the receiver NIC.
#[derive(Debug)]
pub struct IngressLink {
    params: NetParams,
    busy_until: Time,
    /// Queue capacity expressed as serialization backlog.
    max_backlog: Duration,
    /// ECN marking threshold expressed as backlog (DCTCP-style shallow K).
    mark_threshold: Duration,
    stats: IngressStats,
}

/// Outcome of offering one packet to the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngressOutcome {
    /// Packet will arrive at the NIC at the given instant; `marked` is the
    /// ECN congestion-experienced bit.
    Delivered {
        /// Arrival instant at the receiver NIC.
        arrival: Time,
        /// ECN mark applied by the port.
        marked: bool,
    },
    /// Switch buffer overflow: the packet never reaches the NIC.
    Dropped,
}

impl IngressLink {
    /// A link with default buffering: 100 µs of backlog capacity and a
    /// DCTCP-style shallow marking threshold of 8 µs (~65 KB at 200 Gbps,
    /// around the K=65 packets guidance for DCTCP at high speed).
    pub fn new(params: NetParams) -> IngressLink {
        IngressLink {
            params,
            busy_until: Time::ZERO,
            max_backlog: Duration::micros(100),
            mark_threshold: Duration::micros(8),
            stats: IngressStats::default(),
        }
    }

    /// Override buffer capacity and marking threshold (tests/scenarios).
    pub fn with_queue(mut self, max_backlog: Duration, mark_threshold: Duration) -> IngressLink {
        self.max_backlog = max_backlog;
        self.mark_threshold = mark_threshold;
        self
    }

    /// The network parameters of this link.
    #[inline]
    pub fn params(&self) -> &NetParams {
        &self.params
    }

    /// Offer a packet of `bytes` emitted by a sender at `sent_at`.
    pub fn offer(&mut self, sent_at: Time, bytes: u64) -> IngressOutcome {
        // Sender-side propagation to the port.
        let at_port = sent_at + self.params.base_delay;
        let backlog = self.busy_until.since(at_port);
        if backlog > self.max_backlog {
            self.stats.dropped += 1;
            return IngressOutcome::Dropped;
        }
        let marked = backlog > self.mark_threshold;
        if marked {
            self.stats.ecn_marked += 1;
        }
        let wire = bytes + self.params.wire_overhead;
        let start = self.busy_until.max(at_port);
        self.busy_until = start + self.params.link_bandwidth.transfer_time(wire);
        self.stats.admitted += 1;
        self.stats.bytes += wire;
        IngressOutcome::Delivered {
            arrival: self.busy_until,
            marked,
        }
    }

    /// Current serialization backlog relative to `now`.
    pub fn backlog(&self, now: Time) -> Duration {
        self.busy_until.since(now)
    }

    /// Read-only statistics.
    #[inline]
    pub fn stats(&self) -> &IngressStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> IngressLink {
        IngressLink::new(NetParams::default())
    }

    #[test]
    fn delivery_includes_delay_and_serialization() {
        let mut l = link();
        match l.offer(Time(0), 1024) {
            IngressOutcome::Delivered { arrival, marked } => {
                // base_delay 2 µs + (1024+24) B at 200 Gbps ≈ 42 ns.
                assert!(arrival >= Time(2_000));
                assert!(arrival <= Time(2_100), "{arrival}");
                assert!(!marked);
            }
            IngressOutcome::Dropped => panic!("unexpected drop"),
        }
    }

    #[test]
    fn aggregate_rate_capped_at_line_rate() {
        let mut l = link();
        // Offer 2x line rate for 100 µs: deliveries spread to line rate.
        let mut last_arrival = Time::ZERO;
        let gap = 20; // 1024 B every 20 ns = ~400 Gbps offered
        for i in 0..2_000u64 {
            if let IngressOutcome::Delivered { arrival, .. } = l.offer(Time(i * gap), 1024) {
                last_arrival = last_arrival.max(arrival);
            }
        }
        let delivered = l.stats().admitted;
        let span = last_arrival.since(Time(2_000)); // first arrival epoch
        let rate_bps = l.stats().bytes as f64 * 8.0 / span.as_secs_f64();
        assert!(rate_bps <= 201e9, "rate {rate_bps}");
        assert!(delivered > 0);
    }

    #[test]
    fn overload_marks_then_drops() {
        let mut l = link();
        let mut marked = 0;
        let mut dropped = 0;
        // Sustained 4x overload.
        for i in 0..100_000u64 {
            match l.offer(Time(i * 10), 1024) {
                IngressOutcome::Delivered { marked: m, .. } => {
                    if m {
                        marked += 1;
                    }
                }
                IngressOutcome::Dropped => dropped += 1,
            }
        }
        assert!(marked > 0, "should ECN-mark under overload");
        assert!(
            dropped > 0,
            "should eventually drop under sustained overload"
        );
        assert_eq!(l.stats().dropped, dropped);
    }

    #[test]
    fn no_marks_below_threshold() {
        let mut l = link();
        // Offer at half line rate: no queue, no marks.
        for i in 0..10_000u64 {
            l.offer(Time(i * 100), 1024);
        }
        assert_eq!(l.stats().ecn_marked, 0);
    }
}
