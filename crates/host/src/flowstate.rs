//! Per-flow runtime state inside the host machine.
//!
//! Each flow owns a sender (generator + DCTCP) and a receive path: the
//! flow's [`SwRing`], which sequences its arrivals, holds its RX-ring
//! descriptors and parked slow-path packets, and delivers in arrival order
//! (§4.2).

use crate::swring::{ReadyPkt, SwRing};
use ceio_net::{Dctcp, FlowClass, FlowSpec, TrafficGen};
use ceio_sim::{Histogram, Time, TimerToken};

/// Per-flow counters exported to reports.
#[derive(Debug, Default, Clone)]
pub struct FlowCounters {
    /// Packets delivered to the application.
    pub consumed_pkts: u64,
    /// Bytes delivered to the application.
    pub consumed_bytes: u64,
    /// Packets that travelled the slow path.
    pub slow_pkts: u64,
    /// Packets dropped (all causes).
    pub dropped: u64,
    /// Completed messages delivered.
    pub msgs_completed: u64,
}

/// All runtime state of one flow.
#[derive(Debug)]
pub struct FlowState {
    /// Static specification.
    pub spec: FlowSpec,
    /// Sender-side congestion controller.
    pub cca: Dctcp,
    /// Sender-side traffic generator.
    pub gen: TrafficGen,
    /// Index of the host core serving this flow.
    pub core: usize,
    /// This flow's position in its core's service list (the lazy retain
    /// moves it when it compacts the list).
    pub(crate) list_pos: usize,
    /// Receive queue (RSS shard) this flow's fast path lands on.
    pub queue: usize,
    /// Whether the sender is still emitting.
    pub active: bool,
    /// Emission-chain epoch: an `Emit` event carrying a stale epoch is
    /// ignored, so demand retargeting can restart the chain without
    /// duplicating it.
    pub emit_epoch: u64,
    /// Token of the queued next `Emit` of the current chain, if any;
    /// cancelled on demand retargets and teardown so dead chain links
    /// never occupy the event queue. The epoch check stays as
    /// defense-in-depth.
    pub emit_timer: Option<TimerToken>,
    /// The flow's receive path (the §4.2 software ring).
    pub ring: SwRing,
    /// End-to-end latency (send → app delivery) histogram.
    pub latency: Histogram,
    /// Counters.
    pub counters: FlowCounters,
    /// Packets fully accounted for (delivered, dropped, or discarded).
    /// Unlike `counters`, never reset: `gen.emitted() - accounted` is the
    /// number of packets still somewhere in the pipeline, which keeps the
    /// serving core polling until the flow truly drains.
    pub accounted: u64,
}

impl FlowState {
    /// Fresh state for a starting flow.
    pub fn new(
        spec: FlowSpec,
        cca: Dctcp,
        gen: TrafficGen,
        core: usize,
        list_pos: usize,
        queue: usize,
        ring_capacity: u32,
    ) -> FlowState {
        FlowState {
            spec,
            cca,
            gen,
            core,
            list_pos,
            queue,
            active: true,
            emit_epoch: 0,
            emit_timer: None,
            ring: SwRing::new(ring_capacity),
            latency: Histogram::new(),
            counters: FlowCounters::default(),
            accounted: 0,
        }
    }

    /// Count one of this flow's packets as dropped and, when `loss`, signal
    /// it to the sender's congestion controller (the flow's half of
    /// `HostState::account_drop`).
    #[inline]
    pub(crate) fn note_drop(&mut self, now: Time, loss: bool) {
        self.counters.dropped += 1;
        self.accounted += 1;
        if loss {
            self.cca.on_loss(now);
        }
    }

    /// Whether this flow class is CPU-bypass.
    #[inline]
    pub fn is_bypass(&self) -> bool {
        self.spec.class == FlowClass::CpuBypass
    }

    /// Connection teardown: clear all undelivered backlog. Appends the
    /// ready packets (whose host buffers the caller must free) to
    /// `drained` and returns the total bytes parked in on-NIC memory (to
    /// discard there). Packets still in DMA flight retire stale.
    pub fn teardown_backlog(&mut self, drained: &mut Vec<ReadyPkt>) -> u64 {
        let before = drained.len();
        let (parked_pkts, parked_bytes) = self.ring.teardown(drained);
        self.accounted += (drained.len() - before) as u64 + parked_pkts;
        parked_bytes
    }

    /// Whether any work could still appear for this flow (used to decide
    /// when an inactive flow's core may stop polling). Includes packets
    /// still in the network/DMA pipeline, which no local queue shows yet.
    pub fn has_pending_work(&self) -> bool {
        self.ring.has_pending() || self.gen.emitted() > self.accounted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceio_mem::BufferId;
    use ceio_net::{FlowClass, FlowId, Packet, PacketId};
    use ceio_sim::{Bandwidth, Duration, Rng};

    fn mk_flow(class: FlowClass) -> FlowState {
        let spec = FlowSpec::new(0, class, 512, 4, Bandwidth::gbps(25));
        let gen = TrafficGen::new(
            spec.clone(),
            ceio_net::generator::Pacing::Cbr,
            Rng::seed_from_u64(1),
            0,
        );
        let cca = Dctcp::new(spec.demand, Duration::micros(20));
        FlowState::new(spec, cca, gen, 0, 0, 0, 64)
    }

    fn pkt(id: u64) -> Packet {
        Packet {
            id: PacketId(id),
            flow: FlowId(0),
            bytes: 512,
            msg_id: 0,
            msg_seq: 0,
            msg_last: false,
            sent_at: Time::ZERO,
            arrived_nic: Time::ZERO,
            ecn: false,
        }
    }

    #[test]
    fn pending_work_detection() {
        let mut f = mk_flow(FlowClass::CpuInvolved);
        assert!(!f.has_pending_work());
        let seq = f.ring.reserve_fast().expect("descriptor free");
        assert!(f.has_pending_work(), "a packet in DMA flight");
        let rp = ReadyPkt {
            pkt: pkt(seq),
            buf: BufferId(seq),
            ready: Time::ZERO,
            via_slow: false,
        };
        assert!(!f.ring.retire(seq, rp));
        assert!(f.has_pending_work(), "a ready packet");
        f.ring.take_deliverable(Time::ZERO, 8, &mut Vec::new());
        assert!(!f.has_pending_work());
    }

    #[test]
    fn teardown_accounts_ready_and_parked_backlog() {
        let mut f = mk_flow(FlowClass::CpuInvolved);
        let seq = f.ring.reserve_fast().expect("descriptor free");
        let rp = ReadyPkt {
            pkt: pkt(seq),
            buf: BufferId(seq),
            ready: Time::ZERO,
            via_slow: false,
        };
        assert!(!f.ring.retire(seq, rp));
        f.ring.park_slow(pkt(1), Time::ZERO);
        f.ring.park_slow(pkt(2), Time::ZERO);
        let mut drained = Vec::new();
        assert_eq!(f.teardown_backlog(&mut drained), 1024);
        assert_eq!((drained.len(), f.accounted), (1, 3));
        assert!(!f.ring.has_pending());
    }
}
