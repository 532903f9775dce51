//! Per-flow runtime state inside the host machine.
//!
//! Each flow owns a sender (generator + DCTCP), a host RX ring, a slow-path
//! queue in on-NIC memory, and an **ordered delivery buffer**: packets are
//! stamped with a per-flow NIC-arrival sequence number and the driver only
//! releases the next-in-sequence packet to the application — the software
//! ring contract of §4.2 without per-packet sorting (in-order arrivals pop
//! in O(1); a gap simply waits).
//!
//! The delivery buffer is a [`ReadyRing`]: sequence numbers are dense and
//! delivery only ever takes the lowest, so slot `i` simply holds sequence
//! `base + i`. Retiring a packet writes its slot and delivering pops the
//! front — no ordered map, and no allocation once the ring has grown to
//! the flow's widest reorder window.

use ceio_mem::BufferId;
use ceio_net::{Dctcp, FlowClass, FlowSpec, Packet, TrafficGen};
use ceio_sim::{Histogram, Time, TimerToken};
use std::collections::VecDeque;

/// A packet retired into host memory, awaiting in-order delivery.
#[derive(Debug, Clone, Copy)]
pub struct ReadyPkt {
    /// The packet.
    pub pkt: Packet,
    /// Host I/O buffer holding it (LLC residency key).
    pub buf: BufferId,
    /// Instant the data became readable by the CPU.
    pub ready: Time,
    /// Whether the packet travelled the slow path.
    pub via_slow: bool,
}

/// A packet parked in on-NIC memory (slow path), awaiting drain.
#[derive(Debug, Clone, Copy)]
pub struct SlowPkt {
    /// The packet.
    pub pkt: Packet,
    /// Per-flow NIC-arrival sequence number.
    pub nic_seq: u64,
    /// Instant the on-NIC memory write completes (drainable after this).
    pub ready_at_nic: Time,
}

/// A flow's ordered delivery buffer: slot `i` holds the packet with
/// sequence number `base + i`, or `None` while that packet is still in
/// flight (a gap). `base` is the next sequence to deliver, so the
/// deliverable prefix starts at the front.
#[derive(Debug, Default)]
pub struct ReadyRing {
    slots: VecDeque<Option<ReadyPkt>>,
    base: u64,
    len: usize,
}

impl ReadyRing {
    /// Sequence number of the front slot (the next one to deliver).
    #[inline]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Number of packets present.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no packet is present (gaps do not count).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packet with sequence `seq`, if present.
    #[inline]
    pub fn get(&self, seq: u64) -> Option<&ReadyPkt> {
        let i = usize::try_from(seq.checked_sub(self.base)?).ok()?;
        self.slots.get(i)?.as_ref()
    }

    /// Place packet `seq`, which must not lie below `base` (stale packets
    /// are filtered by [`FlowState::is_stale`] first) and must be absent.
    pub(crate) fn insert(&mut self, seq: u64, rp: ReadyPkt) {
        debug_assert!(
            seq >= self.base,
            "invariant: stale packets never enter the ring"
        );
        let i = (seq - self.base) as usize;
        // Packets almost always land one past the end; grow slot by slot.
        while self.slots.len() <= i {
            self.slots.push_back(None);
        }
        debug_assert!(
            self.slots[i].is_none(),
            "invariant: sequence numbers are unique"
        );
        self.slots[i] = Some(rp);
        self.len += 1;
    }

    /// The front packet, if present (`None` on an empty ring or a gap).
    #[inline]
    pub fn front(&self) -> Option<&ReadyPkt> {
        self.slots.front()?.as_ref()
    }

    /// Remove the front packet and advance `base` past it; `None` (and no
    /// change) when the front is a gap or the ring is empty.
    pub(crate) fn pop_front(&mut self) -> Option<ReadyPkt> {
        let rp = self.slots.front().copied().flatten()?;
        self.slots.pop_front();
        self.base += 1;
        self.len -= 1;
        Some(rp)
    }

    /// The lowest-sequence packet present, with its sequence number.
    pub fn first(&self) -> Option<(u64, &ReadyPkt)> {
        if self.len == 0 {
            return None;
        }
        self.slots
            .iter()
            .zip(self.base..)
            .find_map(|(slot, seq)| slot.as_ref().map(|rp| (seq, rp)))
    }

    /// Append every present packet to `out` in sequence order, empty the
    /// ring and restart it at `base` (teardown skips the pointer forward).
    pub(crate) fn drain_into(&mut self, out: &mut Vec<ReadyPkt>, base: u64) {
        out.extend(self.slots.drain(..).flatten());
        self.base = base;
        self.len = 0;
    }
}

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
    /// Next NIC-arrival sequence number to assign.
    pub nic_seq_next: u64,
    /// Next sequence number the driver will deliver.
    pub next_deliver_seq: u64,
    /// Next sequence number the boundary scan will examine (everything
    /// below is known-contiguous in `ready` or already delivered).
    scan_next: u64,
    /// Exclusive upper bound of message-complete delivery (one past the
    /// last in-order `msg_last` packet seen by the scan).
    msg_boundary: u64,
    /// Retired packets by sequence number (ordered delivery buffer); its
    /// base always equals `next_deliver_seq`.
    pub ready: ReadyRing,
    /// Host RX ring occupancy (entries retired, not yet consumed).
    pub ring_occupancy: u32,
    /// Descriptors reserved for packets in DMA flight toward the ring.
    pub ring_inflight: u32,
    /// Host ring capacity (from config; copied here for hot-path checks).
    pub ring_capacity: u32,
    /// Slow-path packets parked in on-NIC memory, FIFO.
    pub slow_queue: VecDeque<SlowPkt>,
    /// Slow-path packets currently in DMA-read flight toward the host.
    pub slow_fetch_inflight: u32,
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
            nic_seq_next: 0,
            next_deliver_seq: 0,
            scan_next: 0,
            msg_boundary: 0,
            ready: ReadyRing::default(),
            ring_occupancy: 0,
            ring_inflight: 0,
            ring_capacity,
            slow_queue: VecDeque::new(),
            slow_fetch_inflight: 0,
            latency: Histogram::new(),
            counters: FlowCounters::default(),
            accounted: 0,
        }
    }

    /// Assign the next NIC-arrival sequence number.
    #[inline]
    pub fn take_seq(&mut self) -> u64 {
        let s = self.nic_seq_next;
        self.nic_seq_next += 1;
        s
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

    /// Free host-ring descriptors (capacity minus retired minus in-flight).
    #[inline]
    pub fn ring_free(&self) -> u32 {
        self.ring_capacity
            .saturating_sub(self.ring_occupancy)
            .saturating_sub(self.ring_inflight)
    }

    /// Host-ring entries outstanding (retired + in flight).
    #[inline]
    pub fn ring_outstanding(&self) -> u32 {
        self.ring_occupancy + self.ring_inflight
    }

    /// Whether this flow class is CPU-bypass.
    #[inline]
    pub fn is_bypass(&self) -> bool {
        self.spec.class == FlowClass::CpuBypass
    }

    /// Collect the deliverable batch at `now`: the in-sequence prefix of
    /// `ready` whose data is readable, at most `max` packets.
    ///
    /// Delivery is per-packet for both flow classes — LineFS-style bypass
    /// consumers pipeline on arriving data. The write-with-immediate
    /// message granularity matters to *credit visibility*, which the CEIO
    /// policy models through the `msgs` count of its batch-consumed hook,
    /// not to buffer recycling.
    ///
    /// Appends the packets removed from the buffer to `out`, in delivery
    /// order (the caller owns and reuses `out`).
    pub fn take_deliverable(&mut self, now: Time, max: usize, out: &mut Vec<ReadyPkt>) {
        // Advance the boundary scan over the contiguous in-order prefix.
        // Packets are inserted into `ready` at the instant they become
        // readable, so a present entry is always readable at a later poll.
        while let Some(rp) = self.ready.get(self.scan_next) {
            if rp.pkt.msg_last {
                self.msg_boundary = self.scan_next + 1;
            }
            self.scan_next += 1;
        }
        let limit = self.scan_next;

        let mut taken = 0;
        while taken < max && self.next_deliver_seq < limit {
            match self.ready.front() {
                Some(rp) if rp.ready <= now => {
                    let rp = *rp;
                    self.ready.pop_front();
                    self.next_deliver_seq += 1;
                    // Slow-path packets never held a fast-ring descriptor.
                    if !rp.via_slow {
                        debug_assert!(self.ring_occupancy > 0);
                        self.ring_occupancy = self.ring_occupancy.saturating_sub(1);
                    }
                    out.push(rp);
                    taken += 1;
                }
                _ => break,
            }
        }
    }

    /// Connection teardown: clear all undelivered backlog. Appends the
    /// ready packets (whose host buffers the caller must free) to
    /// `drained` and returns the total bytes parked in on-NIC memory (to
    /// discard there). Packets still in DMA flight are skipped on arrival
    /// because their sequence numbers fall below the advanced delivery
    /// pointer.
    pub fn teardown_backlog(&mut self, drained: &mut Vec<ReadyPkt>) -> u64 {
        self.accounted += self.ready.len() as u64 + self.slow_queue.len() as u64;
        self.ready.drain_into(drained, self.nic_seq_next);
        self.next_deliver_seq = self.nic_seq_next;
        self.scan_next = self.nic_seq_next;
        self.msg_boundary = self.nic_seq_next;
        self.ring_occupancy = 0;
        let parked: u64 = self.slow_queue.iter().map(|sp| sp.pkt.bytes).sum();
        self.slow_queue.clear();
        parked
    }

    /// Whether a retired packet belongs to backlog discarded at teardown.
    #[inline]
    pub fn is_stale(&self, nic_seq: u64) -> bool {
        nic_seq < self.next_deliver_seq
    }

    /// Whether any work could still appear for this flow (used to decide
    /// when an inactive flow's core may stop polling). Includes packets
    /// still in the network/DMA pipeline, which no local queue shows yet.
    pub fn has_pending_work(&self) -> bool {
        !self.ready.is_empty()
            || !self.slow_queue.is_empty()
            || self.ring_inflight > 0
            || self.slow_fetch_inflight > 0
            || self.gen.emitted() > self.accounted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceio_net::{FlowClass, FlowId, PacketId};
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

    fn ready_pkt(seq: u64, msg_id: u64, msg_seq: u32, msg_last: bool, ready: Time) -> ReadyPkt {
        ReadyPkt {
            pkt: Packet {
                id: PacketId(seq),
                flow: FlowId(0),
                bytes: 512,
                msg_id,
                msg_seq,
                msg_last,
                sent_at: Time::ZERO,
                arrived_nic: Time::ZERO,
                ecn: false,
            },
            buf: BufferId(seq),
            ready,
            via_slow: false,
        }
    }

    fn insert(f: &mut FlowState, rp: ReadyPkt) {
        let seq = rp.pkt.id.0;
        f.ready.insert(seq, rp);
        f.ring_occupancy += 1;
    }

    /// `take_deliverable` into a fresh batch.
    fn take(f: &mut FlowState, now: Time, max: usize) -> Vec<ReadyPkt> {
        let mut out = Vec::new();
        f.take_deliverable(now, max, &mut out);
        out
    }

    #[test]
    fn delivers_in_sequence_prefix_only() {
        let mut f = mk_flow(FlowClass::CpuInvolved);
        insert(&mut f, ready_pkt(0, 0, 0, false, Time(10)));
        insert(&mut f, ready_pkt(2, 0, 2, false, Time(10))); // gap at 1
        let got = take(&mut f, Time(100), 16);
        assert_eq!(got.len(), 1);
        assert_eq!(f.next_deliver_seq, 1);
        // Fill the gap: both deliverable now.
        insert(&mut f, ready_pkt(1, 0, 1, false, Time(20)));
        let got = take(&mut f, Time(100), 16);
        assert_eq!(got.len(), 2);
        assert_eq!(f.next_deliver_seq, 3);
    }

    #[test]
    fn not_ready_packets_wait() {
        let mut f = mk_flow(FlowClass::CpuInvolved);
        insert(&mut f, ready_pkt(0, 0, 0, false, Time(1_000)));
        assert!(take(&mut f, Time(10), 16).is_empty());
        assert_eq!(take(&mut f, Time(1_000), 16).len(), 1);
    }

    #[test]
    fn batch_size_respected() {
        let mut f = mk_flow(FlowClass::CpuInvolved);
        for i in 0..40 {
            insert(&mut f, ready_pkt(i, 0, i as u32, false, Time(0)));
        }
        assert_eq!(take(&mut f, Time(1), 32).len(), 32);
        assert_eq!(take(&mut f, Time(1), 32).len(), 8);
    }

    #[test]
    fn bypass_delivers_per_packet_like_involved() {
        // Delivery is per-packet for both classes (LineFS pipelines on
        // arriving data); message boundaries matter to credit visibility
        // (policy-level), not delivery.
        let mut f = mk_flow(FlowClass::CpuBypass);
        for i in 0..3 {
            insert(&mut f, ready_pkt(i, 0, i as u32, false, Time(0)));
        }
        assert_eq!(take(&mut f, Time(1), 16).len(), 3);
        insert(&mut f, ready_pkt(3, 0, 3, true, Time(0)));
        let got = take(&mut f, Time(1), 16);
        assert_eq!(got.len(), 1);
        assert!(got[0].pkt.msg_last);
    }

    #[test]
    fn ring_accounting() {
        let mut f = mk_flow(FlowClass::CpuInvolved);
        assert_eq!(f.ring_free(), 64);
        f.ring_inflight = 4;
        insert(&mut f, ready_pkt(0, 0, 0, false, Time(0)));
        assert_eq!(f.ring_free(), 64 - 4 - 1);
        assert_eq!(f.ring_outstanding(), 5);
        take(&mut f, Time(1), 1);
        assert_eq!(f.ring_occupancy, 0);
    }

    #[test]
    fn seq_assignment_monotonic() {
        let mut f = mk_flow(FlowClass::CpuInvolved);
        assert_eq!(f.take_seq(), 0);
        assert_eq!(f.take_seq(), 1);
        assert_eq!(f.nic_seq_next, 2);
    }

    #[test]
    fn pending_work_detection() {
        let mut f = mk_flow(FlowClass::CpuInvolved);
        assert!(!f.has_pending_work());
        f.slow_fetch_inflight = 1;
        assert!(f.has_pending_work());
        f.slow_fetch_inflight = 0;
        insert(&mut f, ready_pkt(0, 0, 0, false, Time(0)));
        assert!(f.has_pending_work());
    }

    fn seqs(v: &[ReadyPkt]) -> Vec<u64> {
        v.iter().map(|rp| rp.pkt.id.0).collect()
    }

    #[test]
    fn ready_ring_tracks_gaps_and_its_base() {
        let mut f = mk_flow(FlowClass::CpuInvolved);
        for _ in 0..6 {
            f.take_seq();
        }
        // Out of order, with gaps at 0 and 3.
        for seq in [4, 2, 1, 5] {
            insert(&mut f, ready_pkt(seq, 0, 0, false, Time(0)));
        }
        assert_eq!(f.ready.len(), 4);
        assert!(f.ready.front().is_none(), "0 is a gap");
        assert_eq!(f.ready.first().map(|(seq, _)| seq), Some(1));
        assert!(take(&mut f, Time(1), 16).is_empty());
        insert(&mut f, ready_pkt(0, 0, 0, false, Time(0)));
        assert_eq!(seqs(&take(&mut f, Time(1), 16)), vec![0, 1, 2]);
        assert_eq!((f.ready.base(), f.next_deliver_seq), (3, 3));
        assert_eq!(f.ready.get(4).map(|rp| rp.pkt.id.0), Some(4));
        assert!(f.ready.get(2).is_none() && f.ready.get(3).is_none());
        // Teardown drains what is present, in order, and skips the base
        // past everything assigned; the gap's packet arrives stale.
        let mut drained = Vec::new();
        f.teardown_backlog(&mut drained);
        assert_eq!(seqs(&drained), vec![4, 5]);
        assert_eq!((f.ready.base(), f.next_deliver_seq), (6, 6));
        assert!(f.ready.is_empty() && f.ready.first().is_none());
        assert!(f.is_stale(3));
        assert!(!f.is_stale(6));
        insert(&mut f, ready_pkt(7, 0, 0, false, Time(0)));
        assert_eq!(f.ready.first().map(|(seq, _)| seq), Some(7));
    }

    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The delivery buffer as it was before the ring: an ordered map with
    /// the same boundary scan, delivery loop and teardown.
    #[derive(Default)]
    struct MapModel {
        ready: BTreeMap<u64, ReadyPkt>,
        next_deliver_seq: u64,
        scan_next: u64,
        nic_seq_next: u64,
        accounted: u64,
    }

    impl MapModel {
        fn take(&mut self, now: Time, max: usize) -> Vec<ReadyPkt> {
            while self.ready.contains_key(&self.scan_next) {
                self.scan_next += 1;
            }
            let mut out = Vec::new();
            while out.len() < max && self.next_deliver_seq < self.scan_next {
                match self.ready.get(&self.next_deliver_seq) {
                    Some(rp) if rp.ready <= now => {
                        out.push(*rp);
                        self.ready.remove(&self.next_deliver_seq);
                        self.next_deliver_seq += 1;
                    }
                    _ => break,
                }
            }
            out
        }

        fn teardown(&mut self) -> Vec<ReadyPkt> {
            let drained: Vec<ReadyPkt> = self.ready.values().copied().collect();
            self.accounted += drained.len() as u64;
            self.ready.clear();
            self.next_deliver_seq = self.nic_seq_next;
            self.scan_next = self.nic_seq_next;
            drained
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// The NIC assigns the next sequence number (packet in flight).
        Assign,
        /// An in-flight packet (picked by index) retires, readable after
        /// the given delay.
        Retire(usize, u64),
        /// Time advances.
        Advance(u64),
        /// A driver poll takes at most this many packets.
        Take(usize),
        /// Connection teardown.
        Teardown,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => Just(Op::Assign),
            4 => (0usize..64, 0u64..4).prop_map(|(i, d)| Op::Retire(i, d)),
            1 => (1u64..4).prop_map(Op::Advance),
            2 => (1usize..8).prop_map(Op::Take),
            1 => Just(Op::Teardown),
        ]
    }

    proptest! {
        /// Arbitrary retire orders, gaps, partial batches, readiness
        /// delays, teardowns and stale arrivals: the ring delivers exactly
        /// what the ordered map delivered, and its base tracks
        /// `next_deliver_seq`.
        #[test]
        fn ready_ring_matches_ordered_map(ops in prop::collection::vec(op_strategy(), 1..300)) {
            let mut f = mk_flow(FlowClass::CpuInvolved);
            let mut m = MapModel::default();
            let mut in_flight: Vec<u64> = Vec::new();
            let mut now = Time(0);
            for op in &ops {
                match *op {
                    Op::Assign => {
                        in_flight.push(f.take_seq());
                        m.nic_seq_next += 1;
                    }
                    Op::Retire(i, delay) => {
                        if in_flight.is_empty() {
                            continue;
                        }
                        let seq = in_flight.swap_remove(i % in_flight.len());
                        let stale = seq < m.next_deliver_seq;
                        prop_assert_eq!(f.is_stale(seq), stale);
                        if stale {
                            f.accounted += 1;
                            m.accounted += 1;
                        } else {
                            let rp = ready_pkt(seq, 0, 0, false, Time(now.0 + delay));
                            insert(&mut f, rp);
                            m.ready.insert(seq, rp);
                        }
                    }
                    Op::Advance(d) => now = Time(now.0 + d),
                    Op::Take(max) => {
                        prop_assert_eq!(seqs(&take(&mut f, now, max)), seqs(&m.take(now, max)));
                    }
                    Op::Teardown => {
                        let mut drained = Vec::new();
                        f.teardown_backlog(&mut drained);
                        prop_assert_eq!(seqs(&drained), seqs(&m.teardown()));
                        prop_assert_eq!(f.ring_occupancy, 0);
                    }
                }
                prop_assert_eq!(f.next_deliver_seq, m.next_deliver_seq);
                prop_assert_eq!(f.ready.base(), f.next_deliver_seq);
                prop_assert_eq!(f.accounted, m.accounted);
                prop_assert_eq!(f.ready.len(), m.ready.len());
                prop_assert_eq!(f.ready.is_empty(), m.ready.is_empty());
                prop_assert_eq!(
                    f.ready.first().map(|(seq, rp)| (seq, rp.pkt.id.0)),
                    m.ready.first_key_value().map(|(&seq, rp)| (seq, rp.pkt.id.0))
                );
                prop_assert_eq!(f.ready.front().map(|rp| rp.pkt.id.0), m.ready.get(&m.next_deliver_seq).map(|rp| rp.pkt.id.0));
                for seq in 0..m.nic_seq_next + 2 {
                    prop_assert_eq!(f.ready.get(seq).map(|rp| rp.pkt.id.0), m.ready.get(&seq).map(|rp| rp.pkt.id.0));
                }
                prop_assert_eq!(u64::from(f.ring_occupancy), m.ready.len() as u64);
            }
        }
    }
}
