//! The CEIO software ring (§4.2, Fig. 7): one flow's whole receive path.
//!
//! Two producers feed one ordered consumer. At NIC receive every packet of
//! the flow takes the next per-flow arrival sequence number, either with a
//! host RX-ring descriptor ([`SwRing::reserve_fast`], the fast path) or
//! parked in on-NIC memory ([`SwRing::park_slow`], the slow path). Parked
//! packets are not in host memory yet: the driver fetches them across PCIe
//! ([`SwRing::take_fetch_batch`], handed back in order on a read fault by
//! [`SwRing::return_fetch`]), and both paths land through the same
//! [`SwRing::retire`]. The driver then hands the application only the
//! next-in-sequence packet ([`SwRing::take_deliverable`]), so order holds
//! across path transitions with no per-packet sorting.
//!
//! The delivery buffer is indexed by sequence number: slot `i` holds
//! sequence `base + i`, where `base` is the next sequence to deliver. A
//! slot is a *hole* while its packet is still in flight, *ready* once it
//! retired, or *aborted* when a fast-path packet was dropped before it
//! retired (DMA retry budget, failover head-drop). [`SwRing::abort_fast`]
//! releases the packet's descriptor and its sequence number together: the
//! front skips an aborted slot, so a dropped packet never blocks the ones
//! behind it. The front is never left on an aborted slot.
//!
//! Only fast-path packets hold RX-ring descriptors, from reservation until
//! delivery; fetched slow-path packets sit in driver-posted buffers, so
//! delivering one releases nothing. That is the `via_slow` rule the model
//! checker in `crates/audit/tests/model_swring.rs` pins, over every
//! operation below, on this very type.

use ceio_mem::BufferId;
use ceio_net::Packet;
use ceio_sim::Time;
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

/// One delivery-buffer slot.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// The packet is still in flight.
    Hole,
    /// The packet retired and awaits delivery.
    Ready(ReadyPkt),
    /// The packet was dropped before it retired; delivery skips it.
    Aborted,
}

/// A flow's software ring: arrival sequencing, RX-ring descriptors, the
/// on-NIC parking queue, slow-path fetches and ordered delivery.
///
/// ```
/// use ceio_host::{ReadyPkt, SwRing};
/// # use ceio_mem::BufferId;
/// # use ceio_net::{FlowId, Packet, PacketId};
/// # use ceio_sim::Time;
/// # let pkt = |id| Packet { id: PacketId(id), flow: FlowId(0), bytes: 512, msg_id: 0,
/// #     msg_seq: 0, msg_last: false, sent_at: Time::ZERO, arrived_nic: Time::ZERO, ecn: false };
/// # let ready = |id, via_slow| ReadyPkt { pkt: pkt(id), buf: BufferId(id), ready: Time::ZERO, via_slow };
/// let mut ring = SwRing::new(4);
/// let a = ring.reserve_fast().unwrap(); // #0: descriptor reserved, DMA in flight
/// ring.park_slow(pkt(1), Time::ZERO); //   #1: parked in on-NIC memory
/// let c = ring.reserve_fast().unwrap(); // #2
/// assert!(!ring.retire(c, ready(2, false)));
/// assert!(!ring.retire(a, ready(0, false)));
///
/// // #0 is deliverable; #2 waits behind the parked #1 (§4.2 ordering).
/// let mut out = Vec::new();
/// ring.take_deliverable(Time::ZERO, 32, &mut out);
/// assert_eq!(out.len(), 1);
///
/// let mut batch = Vec::new();
/// ring.take_fetch_batch(Time::ZERO, 32, &mut batch); // DMA read issued
/// assert!(!ring.retire(batch[0].nic_seq, ready(1, true))); // and landed
/// ring.take_deliverable(Time::ZERO, 32, &mut out);
/// assert_eq!(out.iter().map(|rp| rp.pkt.id.0).collect::<Vec<_>>(), [0, 1, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct SwRing {
    /// Delivery buffer: slot `i` holds sequence `base + i`.
    slots: VecDeque<Slot>,
    /// Next sequence number to deliver.
    base: u64,
    /// Next sequence number to assign.
    next_seq: u64,
    /// Ready slots.
    ready: usize,
    /// Fast-path packets retired and not yet delivered.
    occupancy: u32,
    /// Fast-path descriptors reserved for packets not yet retired.
    inflight: u32,
    /// RX-ring descriptors.
    capacity: u32,
    /// Slow-path packets parked in on-NIC memory, in arrival order.
    parked: VecDeque<SlowPkt>,
    /// Slow-path packets taken for a fetch and not yet retired.
    fetching: u32,
}

impl SwRing {
    /// An empty ring with `capacity` RX-ring descriptors.
    pub fn new(capacity: u32) -> SwRing {
        SwRing {
            slots: VecDeque::new(),
            base: 0,
            next_seq: 0,
            ready: 0,
            occupancy: 0,
            inflight: 0,
            capacity,
            parked: VecDeque::new(),
            fetching: 0,
        }
    }

    #[inline]
    fn assign_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Fast-path producer: reserve a descriptor for an arriving packet and
    /// assign its sequence number; `None` (and no change) when every
    /// descriptor is taken.
    #[inline]
    pub fn reserve_fast(&mut self) -> Option<u64> {
        if self.free() == 0 {
            return None;
        }
        self.inflight += 1;
        Some(self.assign_seq())
    }

    /// Slow-path producer: park an arriving packet in on-NIC memory,
    /// drainable from `ready_at_nic`; returns its sequence number. The
    /// on-NIC store is elastic, so parking never refuses.
    pub fn park_slow(&mut self, pkt: Packet, ready_at_nic: Time) -> u64 {
        let nic_seq = self.assign_seq();
        self.parked.push_back(SlowPkt {
            pkt,
            nic_seq,
            ready_at_nic,
        });
        nic_seq
    }

    /// Take up to `max` parked packets drainable at `now`, oldest first,
    /// into `out` for one DMA read; returns their total bytes. They count
    /// as fetching until they retire or go back through
    /// [`SwRing::return_fetch`].
    pub fn take_fetch_batch(&mut self, now: Time, max: usize, out: &mut Vec<SlowPkt>) -> u64 {
        let mut bytes = 0;
        let mut taken = 0;
        while taken < max {
            match self.parked.front() {
                Some(sp) if sp.ready_at_nic <= now => {
                    bytes += sp.pkt.bytes;
                    out.extend(self.parked.pop_front());
                    taken += 1;
                }
                _ => break,
            }
        }
        self.fetching += taken as u32;
        bytes
    }

    /// A DMA read of a batch taken by [`SwRing::take_fetch_batch`] failed:
    /// park the batch again at the head, in order (emptying `batch`).
    pub fn return_fetch(&mut self, batch: &mut Vec<SlowPkt>) {
        self.fetching = self.fetching.saturating_sub(batch.len() as u32);
        for sp in batch.drain(..).rev() {
            self.parked.push_front(sp);
        }
    }

    /// A packet with sequence `seq` landed in host memory (either path, by
    /// `rp.via_slow`): its descriptor or fetch completes and it becomes
    /// deliverable. Returns `true` when the packet is stale — its backlog
    /// was discarded by a teardown after it left the NIC — in which case
    /// the ring keeps nothing and the caller frees its buffer.
    #[must_use = "a stale packet's buffer must be freed by the caller"]
    #[inline]
    pub fn retire(&mut self, seq: u64, rp: ReadyPkt) -> bool {
        if rp.via_slow {
            self.fetching = self.fetching.saturating_sub(1);
        } else {
            self.inflight = self.inflight.saturating_sub(1);
        }
        if self.is_stale(seq) {
            return true;
        }
        if !rp.via_slow {
            self.occupancy += 1;
        }
        *self.slot_mut(seq) = Slot::Ready(rp);
        self.ready += 1;
        false
    }

    /// A fast-path packet with sequence `seq` was dropped before it
    /// retired: release its descriptor *and* its sequence number, so the
    /// packets behind it are not blocked.
    pub fn abort_fast(&mut self, seq: u64) {
        self.inflight = self.inflight.saturating_sub(1);
        if !self.is_stale(seq) {
            *self.slot_mut(seq) = Slot::Aborted;
            self.skip_aborted();
        }
    }

    /// The slot of sequence `seq` (at or past `base`), growing the buffer
    /// with holes up to it.
    fn slot_mut(&mut self, seq: u64) -> &mut Slot {
        let i = (seq - self.base) as usize;
        // Packets almost always land one past the end; grow slot by slot.
        while self.slots.len() <= i {
            self.slots.push_back(Slot::Hole);
        }
        debug_assert!(
            matches!(self.slots[i], Slot::Hole),
            "invariant: sequence numbers are unique"
        );
        &mut self.slots[i]
    }

    /// Advance the front past aborted slots.
    #[inline]
    fn skip_aborted(&mut self) {
        while let Some(Slot::Aborted) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
    }

    /// Ordered consumer: append to `out` the in-sequence prefix of packets
    /// readable at `now`, at most `max`. Delivering a fast-path packet
    /// frees its descriptor; a slow-path one held none.
    pub fn take_deliverable(&mut self, now: Time, max: usize, out: &mut Vec<ReadyPkt>) {
        let mut taken = 0;
        while taken < max {
            let rp = match self.slots.front() {
                Some(Slot::Ready(rp)) if rp.ready <= now => *rp,
                _ => break,
            };
            self.slots.pop_front();
            self.base += 1;
            self.ready -= 1;
            if !rp.via_slow {
                self.occupancy = self.occupancy.saturating_sub(1);
            }
            out.push(rp);
            taken += 1;
            self.skip_aborted();
        }
    }

    /// Connection teardown: append every ready packet to `drained` (the
    /// caller frees their buffers), discard the parked ones, and move the
    /// delivery pointer past every assigned sequence, so packets still in
    /// flight retire stale. Returns the parked packets' count and bytes
    /// (to discard in on-NIC memory).
    pub fn teardown(&mut self, drained: &mut Vec<ReadyPkt>) -> (u64, u64) {
        drained.extend(self.slots.drain(..).filter_map(|slot| match slot {
            Slot::Ready(rp) => Some(rp),
            Slot::Hole | Slot::Aborted => None,
        }));
        self.base = self.next_seq;
        self.ready = 0;
        self.occupancy = 0;
        let pkts = self.parked.len() as u64;
        let bytes = self.parked.iter().map(|sp| sp.pkt.bytes).sum();
        self.parked.clear();
        (pkts, bytes)
    }

    /// Whether a packet with sequence `seq` belongs to backlog discarded at
    /// teardown.
    #[inline]
    fn is_stale(&self, seq: u64) -> bool {
        seq < self.base
    }

    /// Next sequence number to deliver (the delivery pointer).
    #[inline]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Sequence numbers assigned so far (packets that reached the NIC and
    /// were steered to either path).
    #[inline]
    pub fn arrivals(&self) -> u64 {
        self.next_seq
    }

    /// Retired packets awaiting delivery.
    #[inline]
    pub fn ready_len(&self) -> usize {
        self.ready
    }

    /// Slow-path packets parked in on-NIC memory.
    #[inline]
    pub fn parked_len(&self) -> usize {
        self.parked.len()
    }

    /// The parked packets, in arrival order.
    pub fn parked(&self) -> impl Iterator<Item = &SlowPkt> {
        self.parked.iter()
    }

    /// Whether the oldest parked packet is drainable at `now`.
    #[inline]
    pub fn slow_drainable(&self, now: Time) -> bool {
        self.parked.front().is_some_and(|sp| sp.ready_at_nic <= now)
    }

    /// Slow-path packets in DMA-read flight toward the host.
    #[inline]
    pub fn fetching(&self) -> u32 {
        self.fetching
    }

    /// Fast-path descriptors reserved for packets not yet retired.
    #[inline]
    pub fn inflight(&self) -> u32 {
        self.inflight
    }

    /// Fast-path packets retired and not yet delivered.
    #[inline]
    pub fn occupancy(&self) -> u32 {
        self.occupancy
    }

    /// RX-ring descriptors.
    #[inline]
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Descriptors held (retired plus in flight).
    #[inline]
    pub fn outstanding(&self) -> u32 {
        self.occupancy + self.inflight
    }

    /// Free descriptors.
    #[inline]
    pub fn free(&self) -> u32 {
        self.capacity.saturating_sub(self.outstanding())
    }

    /// Whether packets wait in the ring: ready or parked. A flow without
    /// any gives a driver poll nothing to do.
    #[inline]
    pub fn has_queued(&self) -> bool {
        self.ready > 0 || !self.parked.is_empty()
    }

    /// Whether anything is still in the ring or on its way into it.
    pub fn has_pending(&self) -> bool {
        self.has_queued() || self.inflight > 0 || self.fetching > 0
    }

    /// Whether the delivery front is a hole while ready packets wait
    /// behind it.
    pub fn blocked_by_hole(&self) -> bool {
        self.ready > 0 && matches!(self.slots.front(), Some(Slot::Hole))
    }

    /// The packet with sequence `seq`, if ready.
    #[cfg(test)]
    fn get(&self, seq: u64) -> Option<&ReadyPkt> {
        let i = usize::try_from(seq.checked_sub(self.base)?).ok()?;
        match self.slots.get(i)? {
            Slot::Ready(rp) => Some(rp),
            Slot::Hole | Slot::Aborted => None,
        }
    }

    /// The lowest-sequence ready packet, with its sequence number.
    pub fn first(&self) -> Option<(u64, &ReadyPkt)> {
        if self.ready == 0 {
            return None;
        }
        self.slots
            .iter()
            .zip(self.base..)
            .find_map(|(slot, seq)| match slot {
                Slot::Ready(rp) => Some((seq, rp)),
                Slot::Hole | Slot::Aborted => None,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceio_net::{FlowId, PacketId};

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

    /// A packet whose id is its sequence number.
    fn ready_pkt(seq: u64, ready: Time, via_slow: bool) -> ReadyPkt {
        ReadyPkt {
            pkt: pkt(seq),
            buf: BufferId(seq),
            ready,
            via_slow,
        }
    }

    /// Reserve `n` fast descriptors; their sequence numbers.
    fn reserve(r: &mut SwRing, n: usize) -> Vec<u64> {
        (0..n)
            .map(|_| r.reserve_fast().expect("descriptor free"))
            .collect()
    }

    fn retire_fast(r: &mut SwRing, seq: u64, ready: Time) {
        assert!(!r.retire(seq, ready_pkt(seq, ready, false)));
    }

    fn take(r: &mut SwRing, now: Time, max: usize) -> Vec<u64> {
        let mut out = Vec::new();
        r.take_deliverable(now, max, &mut out);
        out.iter().map(|rp| rp.pkt.id.0).collect()
    }

    #[test]
    fn delivers_in_sequence_prefix_only() {
        let mut r = SwRing::new(64);
        reserve(&mut r, 3);
        retire_fast(&mut r, 0, Time(10));
        retire_fast(&mut r, 2, Time(10)); // hole at 1
        assert_eq!(take(&mut r, Time(100), 16), [0]);
        assert!(r.blocked_by_hole());
        retire_fast(&mut r, 1, Time(20));
        assert_eq!(take(&mut r, Time(100), 16), [1, 2]);
        assert_eq!(r.base(), 3);
    }

    #[test]
    fn not_ready_packets_wait_and_batches_are_bounded() {
        let mut r = SwRing::new(64);
        reserve(&mut r, 1);
        retire_fast(&mut r, 0, Time(1_000));
        assert!(take(&mut r, Time(10), 16).is_empty());
        assert_eq!(take(&mut r, Time(1_000), 16), [0]);
        for seq in reserve(&mut r, 40) {
            retire_fast(&mut r, seq, Time::ZERO);
        }
        assert_eq!(take(&mut r, Time(1), 32).len(), 32);
        assert_eq!(take(&mut r, Time(1), 32).len(), 8);
    }

    #[test]
    fn descriptors_are_held_from_reservation_to_fast_delivery_only() {
        let mut r = SwRing::new(4);
        reserve(&mut r, 3);
        retire_fast(&mut r, 0, Time::ZERO);
        assert_eq!((r.occupancy(), r.inflight(), r.free()), (1, 2, 1));
        reserve(&mut r, 1);
        assert_eq!(r.reserve_fast(), None, "refused exactly at capacity");
        assert_eq!(r.arrivals(), 4, "a refusal assigns no sequence number");
        // A slow packet holds no descriptor, before or after delivery.
        r.park_slow(pkt(4), Time::ZERO);
        assert_eq!(r.free(), 0);
        assert_eq!(take(&mut r, Time::ZERO, 8), [0]);
        assert_eq!((r.outstanding(), r.free()), (3, 1));
    }

    #[test]
    fn fetch_faults_repark_in_order_and_fetched_packets_deliver_in_order() {
        let mut r = SwRing::new(4);
        for id in 0..3 {
            r.park_slow(pkt(id), Time(5));
        }
        let mut batch = Vec::new();
        assert_eq!(
            r.take_fetch_batch(Time(4), 8, &mut batch),
            0,
            "not drainable yet"
        );
        assert_eq!(r.take_fetch_batch(Time(5), 2, &mut batch), 1024);
        assert_eq!((r.parked_len(), r.fetching()), (1, 2));
        r.return_fetch(&mut batch);
        assert!(batch.is_empty());
        let order: Vec<u64> = r.parked().map(|sp| sp.nic_seq).collect();
        assert_eq!(order, [0, 1, 2]);
        assert_eq!(r.fetching(), 0);
        r.take_fetch_batch(Time(5), 8, &mut batch);
        for sp in batch.drain(..).rev() {
            assert!(!r.retire(sp.nic_seq, ready_pkt(sp.nic_seq, Time(9), true)));
        }
        assert_eq!(take(&mut r, Time(9), 8), [0, 1, 2]);
        assert!(!r.has_pending());
    }

    #[test]
    fn an_aborted_packet_gives_up_its_sequence_number() {
        let mut r = SwRing::new(8);
        reserve(&mut r, 5);
        retire_fast(&mut r, 1, Time::ZERO);
        retire_fast(&mut r, 4, Time::ZERO);
        // Aborting a middle packet leaves the front blocked on 0.
        r.abort_fast(2);
        assert!(take(&mut r, Time::ZERO, 8).is_empty());
        // Aborting the front releases 0; delivery runs up to the hole at 3.
        r.abort_fast(0);
        assert_eq!(take(&mut r, Time::ZERO, 8), [1]);
        assert_eq!(r.base(), 3, "the front skipped the aborted 2");
        r.abort_fast(3);
        assert_eq!(r.base(), 4, "an abort at the front advances it at once");
        assert_eq!(take(&mut r, Time::ZERO, 8), [4]);
        assert_eq!((r.outstanding(), r.arrivals()), (0, 5));
        assert!(!r.has_pending());
    }

    #[test]
    fn teardown_drains_ready_discards_parked_and_makes_flight_stale() {
        let mut r = SwRing::new(8);
        reserve(&mut r, 3);
        retire_fast(&mut r, 2, Time::ZERO);
        r.park_slow(pkt(3), Time::ZERO);
        let mut drained = Vec::new();
        assert_eq!(r.teardown(&mut drained), (1, 512));
        assert_eq!(drained.len(), 1);
        assert_eq!((r.base(), r.ready_len(), r.occupancy()), (4, 0, 0));
        // Still in flight: 0 retires stale, 1 is aborted stale.
        assert!(r.retire(0, ready_pkt(0, Time::ZERO, false)));
        r.abort_fast(1);
        assert_eq!((r.inflight(), r.base()), (0, 4));
        assert!(!r.has_pending());
    }

    #[test]
    fn accessors_track_gaps_and_the_base() {
        let mut r = SwRing::new(16);
        reserve(&mut r, 6);
        for seq in [4, 2, 1, 5] {
            retire_fast(&mut r, seq, Time::ZERO);
        }
        assert_eq!(r.ready_len(), 4);
        assert_eq!(r.first().map(|(seq, _)| seq), Some(1));
        assert!(take(&mut r, Time(1), 16).is_empty());
        retire_fast(&mut r, 0, Time::ZERO);
        assert_eq!(take(&mut r, Time(1), 16), [0, 1, 2]);
        assert_eq!(r.base(), 3);
        assert_eq!(r.get(4).map(|rp| rp.pkt.id.0), Some(4));
        assert!(r.get(2).is_none() && r.get(3).is_none());
    }

    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The delivery buffer as an ordered map with a boundary scan: what the
    /// ring replaced, extended with aborted sequence numbers the front
    /// skips.
    #[derive(Default)]
    struct MapModel {
        ready: BTreeMap<u64, ReadyPkt>,
        aborted: Vec<u64>,
        base: u64,
        next_seq: u64,
    }

    impl MapModel {
        fn skip_aborted(&mut self) {
            while self.aborted.contains(&self.base) {
                self.base += 1;
            }
        }

        fn take(&mut self, now: Time, max: usize) -> Vec<u64> {
            let mut out = Vec::new();
            while out.len() < max {
                match self.ready.get(&self.base) {
                    Some(rp) if rp.ready <= now => {
                        out.push(rp.pkt.id.0);
                        self.ready.remove(&self.base);
                        self.base += 1;
                        self.skip_aborted();
                    }
                    _ => break,
                }
            }
            out
        }

        fn teardown(&mut self) -> Vec<u64> {
            let drained = self.ready.keys().copied().collect();
            self.ready.clear();
            self.base = self.next_seq;
            drained
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// The NIC reserves a descriptor (packet in flight).
        Reserve,
        /// An in-flight packet (picked by index) retires, readable after
        /// the given delay.
        Retire(usize, u64),
        /// An in-flight packet (picked by index) is dropped.
        Abort(usize),
        /// Time advances.
        Advance(u64),
        /// A driver poll takes at most this many packets.
        Take(usize),
        /// Connection teardown.
        Teardown,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => Just(Op::Reserve),
            4 => (0usize..64, 0u64..4).prop_map(|(i, d)| Op::Retire(i, d)),
            1 => (0usize..64).prop_map(Op::Abort),
            1 => (1u64..4).prop_map(Op::Advance),
            2 => (1usize..8).prop_map(Op::Take),
            1 => Just(Op::Teardown),
        ]
    }

    proptest! {
        /// Arbitrary retire orders, aborts, gaps, partial batches,
        /// readiness delays, teardowns and stale arrivals: the ring
        /// delivers exactly what the ordered map delivers, and its
        /// accessors agree with the map.
        #[test]
        fn ready_ring_matches_ordered_map(ops in prop::collection::vec(op_strategy(), 1..300)) {
            let mut r = SwRing::new(u32::MAX);
            let mut m = MapModel::default();
            let mut in_flight: Vec<u64> = Vec::new();
            let mut now = Time(0);
            for op in &ops {
                match *op {
                    Op::Reserve => {
                        in_flight.extend(r.reserve_fast());
                        m.next_seq += 1;
                    }
                    Op::Retire(i, delay) => {
                        if in_flight.is_empty() {
                            continue;
                        }
                        let seq = in_flight.swap_remove(i % in_flight.len());
                        let rp = ready_pkt(seq, Time(now.0 + delay), false);
                        let stale = seq < m.base;
                        prop_assert_eq!(r.retire(seq, rp), stale);
                        if !stale {
                            m.ready.insert(seq, rp);
                        }
                    }
                    Op::Abort(i) => {
                        if in_flight.is_empty() {
                            continue;
                        }
                        let seq = in_flight.swap_remove(i % in_flight.len());
                        r.abort_fast(seq);
                        m.aborted.push(seq);
                        m.skip_aborted();
                    }
                    Op::Advance(d) => now = Time(now.0 + d),
                    Op::Take(max) => prop_assert_eq!(take(&mut r, now, max), m.take(now, max)),
                    Op::Teardown => {
                        let mut drained = Vec::new();
                        r.teardown(&mut drained);
                        let drained: Vec<u64> = drained.iter().map(|rp| rp.pkt.id.0).collect();
                        prop_assert_eq!(drained, m.teardown());
                        prop_assert_eq!(r.occupancy(), 0);
                    }
                }
                prop_assert_eq!(r.base(), m.base);
                prop_assert_eq!(r.ready_len(), m.ready.len());
                prop_assert_eq!(r.inflight() as usize, in_flight.len());
                prop_assert_eq!(
                    r.first().map(|(seq, rp)| (seq, rp.pkt.id.0)),
                    m.ready.first_key_value().map(|(&seq, rp)| (seq, rp.pkt.id.0))
                );
                prop_assert_eq!(
                    r.blocked_by_hole(),
                    !m.ready.is_empty() && !m.ready.contains_key(&m.base)
                );
                for seq in 0..m.next_seq + 2 {
                    prop_assert_eq!(r.get(seq).map(|rp| rp.pkt.id.0), m.ready.get(&seq).map(|rp| rp.pkt.id.0));
                }
                prop_assert_eq!(u64::from(r.occupancy()), m.ready.len() as u64);
            }
        }
    }
}
