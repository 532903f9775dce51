//! Fixed-capacity hardware descriptor ring.
//!
//! Producer/consumer semantics mirror real NIC rings: the producer (NIC
//! firmware or DMA engine) advances the tail as packets land; the consumer
//! (driver) advances the head as packets are handed to the application. A
//! full ring rejects pushes — the caller decides whether that is a drop
//! (legacy NIC, ShRing) or backpressure (CEIO slow path).

use std::collections::VecDeque;

/// Ring statistics.
#[derive(Debug, Default, Clone)]
pub struct RingStats {
    /// Configured capacity (descriptor count), so exported stats are
    /// self-describing: occupancy numbers can be judged without having to
    /// consult the ring that produced them.
    pub capacity: usize,
    /// Entries successfully pushed.
    pub pushed: u64,
    /// Pushes rejected because the ring was full.
    pub rejected: u64,
    /// Entries popped by the consumer.
    pub popped: u64,
    /// Occupancy high-water mark.
    pub peak_occupancy: usize,
}

/// A bounded FIFO descriptor ring.
#[derive(Debug)]
pub struct HwRing<T> {
    entries: VecDeque<T>,
    capacity: usize,
    stats: RingStats,
    /// Cumulative count of entries ever pushed; serves as the HW tail
    /// pointer in the SW-ring protocol of §4.2.
    tail_seq: u64,
    /// Cumulative count of entries ever popped; the HW head pointer.
    head_seq: u64,
}

impl<T> HwRing<T> {
    /// An empty ring holding at most `capacity` entries.
    ///
    /// The *logical* capacity is exactly `capacity`; only the *eager
    /// allocation* is clamped to 4096 slots so that simulations configured
    /// with huge rings (e.g. 1 M descriptors, common in scalability
    /// sweeps) do not reserve gigabytes up front. Rings that actually fill
    /// beyond 4096 entries grow on demand — pushes are never rejected by
    /// this clamp, only by `capacity` itself.
    pub fn new(capacity: usize) -> HwRing<T> {
        HwRing {
            entries: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            stats: RingStats {
                capacity,
                ..RingStats::default()
            },
            tail_seq: 0,
            head_seq: 0,
        }
    }

    /// Push an entry; returns it back if the ring is full.
    ///
    /// Bookkeeping (tail pointer, statistics) is updated strictly *after*
    /// the entry is stored, so a panic inside `VecDeque` growth (allocation
    /// failure) can never leave the pointers claiming an entry that was
    /// not actually enqueued.
    pub fn try_push(&mut self, item: T) -> Result<(), T> {
        if self.entries.len() >= self.capacity {
            self.stats.rejected += 1;
            return Err(item);
        }
        self.entries.push_back(item);
        self.tail_seq += 1;
        self.stats.pushed += 1;
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.entries.len());
        debug_assert!(
            self.entries.len() <= self.capacity,
            "HwRing occupancy exceeded capacity"
        );
        debug_assert!(self.head_seq <= self.tail_seq, "head_seq passed tail_seq");
        Ok(())
    }

    /// Pop the oldest entry.
    pub fn pop(&mut self) -> Option<T> {
        let item = self.entries.pop_front()?;
        self.head_seq += 1;
        self.stats.popped += 1;
        debug_assert!(self.head_seq <= self.tail_seq, "head_seq passed tail_seq");
        Some(item)
    }

    /// Peek the oldest entry without consuming it.
    pub fn peek(&self) -> Option<&T> {
        self.entries.front()
    }

    /// Current occupancy.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ring is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the ring is full.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Configured capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Free slots remaining.
    #[inline]
    pub fn free(&self) -> usize {
        self.capacity - self.entries.len()
    }

    /// Occupancy as a fraction of capacity.
    pub fn occupancy_fraction(&self) -> f64 {
        if self.capacity == 0 {
            return 0.0;
        }
        self.entries.len() as f64 / self.capacity as f64
    }

    /// Cumulative producer (tail) pointer.
    #[inline]
    pub fn tail_seq(&self) -> u64 {
        self.tail_seq
    }

    /// Cumulative consumer (head) pointer.
    #[inline]
    pub fn head_seq(&self) -> u64 {
        self.head_seq
    }

    /// Read-only statistics.
    #[inline]
    pub fn stats(&self) -> &RingStats {
        &self.stats
    }

    /// Drain all entries (used when tearing down a flow).
    pub fn drain_all(&mut self) -> Vec<T> {
        let drained: Vec<T> = self.entries.drain(..).collect();
        self.head_seq += drained.len() as u64;
        self.stats.popped += drained.len() as u64;
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut r = HwRing::new(4);
        for i in 0..4 {
            r.try_push(i).unwrap();
        }
        assert_eq!(r.pop(), Some(0));
        assert_eq!(r.pop(), Some(1));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn full_ring_rejects_and_returns_item() {
        let mut r = HwRing::new(2);
        r.try_push("a").unwrap();
        r.try_push("b").unwrap();
        assert_eq!(r.try_push("c"), Err("c"));
        assert!(r.is_full());
        assert_eq!(r.stats().rejected, 1);
    }

    #[test]
    fn pointers_are_cumulative() {
        let mut r = HwRing::new(2);
        r.try_push(1).unwrap();
        r.try_push(2).unwrap();
        r.pop();
        r.try_push(3).unwrap();
        assert_eq!(r.tail_seq(), 3);
        assert_eq!(r.head_seq(), 1);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut r = HwRing::new(2);
        r.try_push(7).unwrap();
        assert_eq!(r.peek(), Some(&7));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn occupancy_fraction_and_free() {
        let mut r = HwRing::new(4);
        r.try_push(0).unwrap();
        assert_eq!(r.free(), 3);
        assert!((r.occupancy_fraction() - 0.25).abs() < 1e-12);
        let empty: HwRing<u8> = HwRing::new(0);
        assert_eq!(empty.occupancy_fraction(), 0.0);
    }

    #[test]
    fn drain_all_advances_head() {
        let mut r = HwRing::new(4);
        for i in 0..3 {
            r.try_push(i).unwrap();
        }
        let drained = r.drain_all();
        assert_eq!(drained, vec![0, 1, 2]);
        assert_eq!(r.head_seq(), 3);
        assert!(r.is_empty());
    }

    #[test]
    fn drain_all_on_empty_ring_is_inert() {
        let mut r: HwRing<u8> = HwRing::new(4);
        assert!(r.drain_all().is_empty());
        assert_eq!(r.head_seq(), 0);
        assert_eq!(r.tail_seq(), 0);
        assert_eq!(r.stats().popped, 0);
        // A second drain of the same ring is equally inert.
        assert!(r.drain_all().is_empty());
        assert_eq!(r.stats().popped, 0);
    }

    #[test]
    fn drain_all_stats_and_seq_stay_consistent() {
        let mut r = HwRing::new(2);
        r.try_push(1).unwrap();
        r.try_push(2).unwrap();
        // A rejected push must not perturb the pointers the drain settles.
        assert_eq!(r.try_push(3), Err(3));
        assert_eq!(r.pop(), Some(1));
        let drained = r.drain_all();
        assert_eq!(drained, vec![2]);
        // popped counts both the pop and the drain; head catches tail.
        assert_eq!(r.stats().popped, 2);
        assert_eq!(r.stats().pushed, 2);
        assert_eq!(r.stats().rejected, 1);
        assert_eq!(r.head_seq(), r.tail_seq());
        assert_eq!(r.head_seq(), 2);
        // The ring remains usable: seqs keep accumulating across the drain.
        r.try_push(4).unwrap();
        assert_eq!(r.tail_seq(), 3);
        assert_eq!(r.pop(), Some(4));
        assert_eq!(r.head_seq(), 3);
        assert_eq!(r.stats().peak_occupancy, 2);
    }

    #[test]
    fn stats_carry_capacity() {
        let r: HwRing<u8> = HwRing::new(128);
        assert_eq!(r.stats().capacity, 128);
        // The 4096 clamp bounds pre-allocation only: a huge ring still
        // reports (and enforces) its full logical capacity.
        let big: HwRing<u8> = HwRing::new(1 << 20);
        assert_eq!(big.stats().capacity, 1 << 20);
        assert_eq!(big.capacity(), 1 << 20);
    }

    #[test]
    fn logical_capacity_exceeds_prealloc_clamp() {
        let mut r = HwRing::new(5000);
        for i in 0..5000 {
            assert!(r.try_push(i).is_ok(), "push {i} rejected below capacity");
        }
        assert_eq!(r.try_push(5000), Err(5000));
        assert_eq!(r.len(), 5000);
    }

    #[test]
    fn peak_occupancy_tracked() {
        let mut r = HwRing::new(8);
        for i in 0..5 {
            r.try_push(i).unwrap();
        }
        r.pop();
        r.pop();
        assert_eq!(r.stats().peak_occupancy, 5);
    }
}
