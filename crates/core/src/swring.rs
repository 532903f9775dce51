//! The CEIO software ring (§4.2, Fig. 7).
//!
//! A two-producer / one-consumer abstraction that unifies the fast-path
//! (host memory) and slow-path (on-NIC memory) hardware rings behind one
//! ordered reception interface. Producers stamp entries with a global
//! arrival sequence at push time; the consumer only ever receives entries
//! in that order, so applications never see reordering across path
//! transitions and no per-packet sorting is needed.
//!
//! Slow-path entries are *not in host memory yet*: before delivery the
//! driver must DMA-read them across PCIe. [`SwRing::async_recv`] models the
//! non-blocking API — it returns whatever is deliverable now and *issues*
//! fetches for the slow entries at the head, which become deliverable after
//! [`SwRing::fetch_complete`] (the DMA completion). The blocking `recv()`
//! of §5 is the same state machine with the caller spinning on
//! `fetch_complete` before retrying.
//!
//! This type is the standalone, reusable realization of the paper's driver
//! data structure (used directly by the perftest-style examples and the
//! property-test suite); inside the full host simulation the same contract
//! is enforced by the machine's per-flow ordered delivery buffer, where
//! fetch completions are real simulated DMA events.

use ceio_sim::Time;
use ceio_telemetry::{TraceEvent, TraceKind, TraceRing};
use std::collections::VecDeque;

/// Where an entry's payload currently resides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Location {
    /// In host memory: deliverable.
    HostReady,
    /// Parked in on-NIC memory: must be fetched first.
    OnNic,
    /// DMA read in flight.
    Fetching,
}

#[derive(Debug, Clone)]
struct Entry<T> {
    item: T,
    loc: Location,
    /// Whether the entry travelled the slow path. Fetched slow entries
    /// become `HostReady` but never held an RX-ring descriptor, so their
    /// delivery must not release fast-path capacity (the bounded model
    /// checker in `crates/audit/tests` caught exactly that confusion).
    via_slow: bool,
}

/// Result of one `async_recv()` call.
#[derive(Debug)]
pub struct RecvOutcome<T> {
    /// Entries delivered to the application, in arrival order.
    pub delivered: Vec<T>,
    /// Slow-path entries whose DMA fetch was issued by this call; they
    /// become deliverable after the matching [`SwRing::fetch_complete`].
    pub fetch_issued: usize,
}

/// The software ring.
///
/// ```
/// use ceio_core::SwRing;
///
/// let mut ring: SwRing<u32> = SwRing::new(4, 32);
/// ring.push_fast(1).unwrap();
/// ring.push_slow(2); // parked in on-NIC memory
/// ring.push_fast(3).unwrap();
///
/// // Non-blocking receive: #1 is deliverable, #2 needs a DMA fetch, and
/// // #3 must wait behind it (ordering across path transitions, S4.2).
/// let out = ring.async_recv(32);
/// assert_eq!(out.delivered, vec![1]);
/// assert_eq!(out.fetch_issued, 1);
///
/// ring.fetch_complete(1); // the DMA read landed
/// assert_eq!(ring.async_recv(32).delivered, vec![2, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct SwRing<T> {
    entries: VecDeque<Entry<T>>,
    fast_capacity: usize,
    fast_occupancy: usize,
    fetch_batch: usize,
    next_seq: u64,
    delivered_seq: u64,
    /// Total entries that travelled the slow path (statistics).
    slow_total: u64,
    tracer: Option<TraceRing>,
    /// Trace clock: the ring is clockless, stamped by callers via
    /// [`SwRing::set_trace_now`].
    trace_now: Time,
}

impl<T> SwRing<T> {
    /// A ring whose fast path holds at most `fast_capacity` undelivered
    /// entries (the HW RX ring size) and whose driver fetches at most
    /// `fetch_batch` slow entries per `async_recv`.
    pub fn new(fast_capacity: usize, fetch_batch: usize) -> SwRing<T> {
        SwRing {
            entries: VecDeque::new(),
            fast_capacity,
            fast_occupancy: 0,
            fetch_batch: fetch_batch.max(1),
            next_seq: 0,
            delivered_seq: 0,
            slow_total: 0,
            tracer: None,
            trace_now: Time::ZERO,
        }
    }

    /// Arm event recording into a fresh drop-oldest ring of `cap` events.
    pub fn arm_trace(&mut self, cap: usize) {
        self.tracer = Some(TraceRing::new(cap));
    }

    /// Stamp the simulated clock used for subsequent trace events.
    #[inline]
    pub fn set_trace_now(&mut self, now: Time) {
        self.trace_now = now;
    }

    /// Drain recorded events (and the dropped count), if armed.
    pub fn trace_take(&mut self) -> (Vec<TraceEvent>, u64) {
        match self.tracer.as_mut() {
            Some(r) => {
                let evs = r.events();
                let dropped = r.dropped();
                r.clear();
                (evs, dropped)
            }
            None => (Vec::new(), 0),
        }
    }

    #[inline]
    fn trace(&mut self, kind: TraceKind, value: u64) {
        if let Some(r) = self.tracer.as_mut() {
            r.push(TraceEvent {
                at: self.trace_now,
                // The standalone ring is flow-agnostic (one ring per app).
                flow: None,
                kind,
                value,
            });
        }
    }

    /// Producer 1: a packet retired into the host ring (fast path).
    /// Returns its arrival sequence, or the item back if the HW ring is
    /// full (the caller drops or degrades it).
    #[must_use = "a full HW ring returns the item back; dropping it silently loses the packet"]
    pub fn push_fast(&mut self, item: T) -> Result<u64, T> {
        if self.fast_occupancy >= self.fast_capacity {
            return Err(item);
        }
        self.fast_occupancy += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push_back(Entry {
            item,
            loc: Location::HostReady,
            via_slow: false,
        });
        Ok(seq)
    }

    /// Producer 2: a packet parked in on-NIC memory (slow path). Elastic:
    /// never rejects (backed by 16 GB of device DRAM).
    #[must_use = "returns the entry's arrival sequence"]
    pub fn push_slow(&mut self, item: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.slow_total += 1;
        self.trace(TraceKind::SlowPark, 1);
        self.entries.push_back(Entry {
            item,
            loc: Location::OnNic,
            via_slow: true,
        });
        seq
    }

    /// Non-blocking reception: deliver up to `max` in-order host-resident
    /// entries and issue DMA fetches for the slow-path entries now at the
    /// head (up to the fetch batch), without waiting for them.
    pub fn async_recv(&mut self, max: usize) -> RecvOutcome<T> {
        let mut delivered = Vec::new();
        let (mut fast_delivered, mut slow_delivered) = (0u64, 0u64);
        while delivered.len() < max {
            match self.entries.front() {
                Some(e) if e.loc == Location::HostReady => {
                    let e = self
                        .entries
                        .pop_front()
                        .expect("invariant: front() was Some on this iteration");
                    // Only fast-path entries occupy HW RX-ring descriptors;
                    // fetched slow entries are driver-posted buffers, so
                    // delivering one must not release fast-path capacity.
                    if !e.via_slow {
                        debug_assert!(self.fast_occupancy > 0);
                        self.fast_occupancy = self.fast_occupancy.saturating_sub(1);
                    }
                    if e.via_slow {
                        slow_delivered += 1;
                    } else {
                        fast_delivered += 1;
                    }
                    self.delivered_seq += 1;
                    delivered.push(e.item);
                }
                _ => break,
            }
        }
        // Issue fetches for the leading slow entries (skip ones already
        // fetching) so the next call can deliver them.
        let mut fetch_issued = 0;
        for e in self.entries.iter_mut() {
            match e.loc {
                Location::HostReady => break,
                Location::Fetching => continue,
                Location::OnNic => {
                    if fetch_issued >= self.fetch_batch {
                        break;
                    }
                    e.loc = Location::Fetching;
                    fetch_issued += 1;
                }
            }
        }
        if fast_delivered > 0 {
            self.trace(TraceKind::Delivery, fast_delivered);
        }
        if slow_delivered > 0 {
            self.trace(TraceKind::SlowDrain, slow_delivered);
        }
        if fetch_issued > 0 {
            self.trace(TraceKind::SlowFetch, fetch_issued as u64);
        }
        RecvOutcome {
            delivered,
            fetch_issued,
        }
    }

    /// DMA completion: the oldest `n` in-flight fetches landed in host
    /// memory. (Fast-path occupancy is unaffected — fetched buffers are
    /// driver-posted, not RX-ring descriptors.)
    pub fn fetch_complete(&mut self, n: usize) {
        let mut left = n;
        for e in self.entries.iter_mut() {
            if left == 0 {
                break;
            }
            if e.loc == Location::Fetching {
                e.loc = Location::HostReady;
                left -= 1;
            }
        }
        debug_assert!(left == 0, "completed more fetches than issued");
    }

    /// Undelivered entries (all paths).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Undelivered fast-path entries currently occupying the HW ring.
    #[must_use]
    pub fn fast_occupancy(&self) -> usize {
        self.fast_occupancy
    }

    /// Entries still on the NIC (not yet fetching).
    #[must_use]
    pub fn on_nic(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.loc == Location::OnNic)
            .count()
    }

    /// Entries with fetches in flight.
    #[must_use]
    pub fn fetching(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.loc == Location::Fetching)
            .count()
    }

    /// Total entries that ever travelled the slow path.
    #[must_use]
    pub fn slow_total(&self) -> u64 {
        self.slow_total
    }

    /// Entries delivered so far.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.delivered_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_only_delivers_in_order() {
        let mut r = SwRing::new(8, 4);
        for i in 0..5 {
            r.push_fast(i).unwrap();
        }
        let out = r.async_recv(16);
        assert_eq!(out.delivered, vec![0, 1, 2, 3, 4]);
        assert_eq!(out.fetch_issued, 0);
        assert!(r.is_empty());
    }

    #[test]
    fn fast_capacity_enforced() {
        let mut r = SwRing::new(2, 4);
        r.push_fast(0).unwrap();
        r.push_fast(1).unwrap();
        assert_eq!(r.push_fast(2), Err(2));
        r.async_recv(1);
        assert!(r.push_fast(2).is_ok());
    }

    #[test]
    fn slow_entries_block_until_fetched() {
        let mut r = SwRing::new(8, 4);
        r.push_fast(0).unwrap();
        let _ = r.push_slow(1);
        r.push_fast(2).unwrap(); // arrives after the slow entry

        let out = r.async_recv(16);
        assert_eq!(out.delivered, vec![0], "must stop at the slow entry");
        assert_eq!(out.fetch_issued, 1);

        // Fetch not complete yet: entry 2 must NOT jump the queue.
        let out = r.async_recv(16);
        assert!(out.delivered.is_empty());
        assert_eq!(out.fetch_issued, 0, "no duplicate fetches");

        r.fetch_complete(1);
        let out = r.async_recv(16);
        assert_eq!(out.delivered, vec![1, 2], "order preserved across paths");
    }

    #[test]
    fn figure7_scenario() {
        // Fig. 7: 4 credits remain; message packets #1-#4 go fast, #17,#18
        // (per the figure's buffer ids) land slow, later #19,#20 slow too;
        // once drained, the fast path resumes with #5-#8.
        let mut r = SwRing::new(4, 32);
        for i in 1..=4 {
            r.push_fast(i).unwrap();
        }
        let _ = r.push_slow(17);
        let _ = r.push_slow(18);
        let out = r.async_recv(32);
        assert_eq!(out.delivered, vec![1, 2, 3, 4]);
        assert_eq!(out.fetch_issued, 2);
        let _ = r.push_slow(19);
        let _ = r.push_slow(20);
        r.fetch_complete(2);
        let out = r.async_recv(32);
        assert_eq!(out.delivered, vec![17, 18]);
        assert_eq!(out.fetch_issued, 2, "drain continues");
        r.fetch_complete(2);
        // Fast path re-enabled after drain.
        for i in 5..=8 {
            r.push_fast(i).unwrap();
        }
        let out = r.async_recv(32);
        assert_eq!(out.delivered, vec![19, 20, 5, 6, 7, 8]);
    }

    #[test]
    fn fetch_batch_limits_inflight_reads() {
        let mut r = SwRing::new(4, 2);
        for i in 0..5 {
            let _ = r.push_slow(i);
        }
        assert_eq!(r.async_recv(16).fetch_issued, 2);
        assert_eq!(r.fetching(), 2);
        assert_eq!(r.on_nic(), 3);
        r.fetch_complete(2);
        let out = r.async_recv(16);
        assert_eq!(out.delivered, vec![0, 1]);
        assert_eq!(out.fetch_issued, 2);
    }

    #[test]
    fn max_delivery_respected() {
        let mut r = SwRing::new(64, 4);
        for i in 0..10 {
            r.push_fast(i).unwrap();
        }
        assert_eq!(r.async_recv(3).delivered, vec![0, 1, 2]);
        assert_eq!(r.async_recv(3).delivered, vec![3, 4, 5]);
        assert_eq!(r.delivered(), 6);
    }

    #[test]
    fn counters_track_paths() {
        let mut r = SwRing::new(8, 4);
        r.push_fast(0).unwrap();
        let _ = r.push_slow(1);
        assert_eq!(r.slow_total(), 1);
        assert_eq!(r.fast_occupancy(), 1);
        assert_eq!(r.len(), 2);
    }
}
