//! Deterministic future-event list.
//!
//! Events are keyed by `(time, sequence)`: the sequence number makes
//! simultaneous events pop in insertion order, which is what makes
//! whole-simulation replays bit-identical — two events scheduled for the same
//! nanosecond always dispatch in the order they were scheduled.
//!
//! The queue is a **calendar**: one ring of fixed-width time buckets
//! spanning the near future, a far tier for keys beyond that span, and a
//! sorted `ready` run holding the bucket being dispatched. Each key
//! carries its `Copy` payload inline, so an event is written once when it
//! is scheduled and moved once more when its bucket drains; there is no
//! payload slab and no cascade. Cancellation needs no handle into the
//! structure either: a [`TimerToken`] is the event's own `(time, seq)`
//! key, and a cancelled key is simply skipped when it surfaces. The binary
//! heap the queue once used is kept as a test-only oracle
//! (`crates/sim/tests/oracle/queue.rs`), and a property test pins the two
//! to identical pop order and cancel outcomes.

use crate::time::{Duration, Time};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// An event with its scheduled dispatch time.
#[derive(Debug, Clone)]
pub struct EventEntry<E> {
    /// Dispatch instant.
    pub at: Time,
    seq: u64,
    /// The event payload.
    pub event: E,
}

impl<E> PartialEq for EventEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for EventEntry<E> {}

/// Handle to a cancellable scheduled event: its `(time, seq)` dispatch key.
///
/// Returned by [`EventQueue::schedule_cancellable_at`]; pass it back to
/// [`EventQueue::cancel`] to drop the event before it dispatches. Once the
/// event dispatches (or is cancelled) the token goes stale and further
/// `cancel` calls return `false`. Tokens order as their events dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TimerToken {
    at: Time,
    seq: u64,
}

/// A pending event: its dispatch key and its payload, stored inline.
#[derive(Debug, Clone, Copy)]
struct Key<E> {
    at: Time,
    seq: u64,
    event: E,
}

impl<E> Key<E> {
    #[inline]
    fn token(&self) -> TimerToken {
        TimerToken {
            at: self.at,
            seq: self.seq,
        }
    }
}

// Keys order by dispatch key alone; the payload never breaks a tie
// because `seq` is unique.
impl<E> PartialEq for Key<E> {
    fn eq(&self, other: &Self) -> bool {
        self.token() == other.token()
    }
}
impl<E> Eq for Key<E> {}
impl<E> PartialOrd for Key<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Key<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.token().cmp(&other.token())
    }
}

/// Log2 of the bucket width: each bucket holds 16 ns of dispatch times.
const BUCKET_BITS: u32 = 4;
/// Buckets in the calendar ring; with 16 ns buckets it spans 32.8 µs,
/// which holds all but a few hundred of the delays any paper workload
/// schedules.
const BUCKETS: usize = 2048;
/// Mask of a bucket number's slot in the ring.
const SLOT_MASK: u64 = BUCKETS as u64 - 1;
/// Occupancy bitmap words: one bit per bucket.
const WORDS: usize = BUCKETS / 64;
/// End-of-list marker of a bucket's node chain and of the free list.
const NIL: u32 = u32::MAX;

/// The bucket number of a dispatch time.
#[inline]
fn bucket(at: Time) -> u64 {
    at.0 >> BUCKET_BITS
}

/// A key in a bucket's chain, linked to the bucket's older keys (or, while
/// free, to the next free node).
#[derive(Debug, Clone, Copy)]
struct Node<E> {
    key: Key<E>,
    next: u32,
}

/// Calendar queue over absolute nanosecond times.
///
/// With `cur` the bucket number of the last bucket drained:
///
/// * `ready[head..]` holds every key of buckets `<= cur`, sorted by
///   `(at, seq)`, so the earliest pops off the front and a burst of
///   same-time keys scheduled into the drained bucket appends;
/// * the ring holds the keys of buckets `cur + 1 ..= cur + BUCKETS`, bucket
///   `b` in slot `b % BUCKETS` (distinct slots, since the window is one ring
///   long; slot `cur % BUCKETS` is the drained one, free for `cur +
///   BUCKETS`);
/// * `far` holds the rest, earliest first.
///
/// A key is therefore pushed once: into `ready` if its bucket is already
/// drained, else into the ring, else into `far`. Only far keys move again,
/// once, when the advancing window reaches them. Draining a bucket moves
/// its chain into `ready` and sorts it, which restores same-time FIFO order
/// and orders the distinct nanoseconds of the bucket.
///
/// Bucket chains are linked lists of nodes in one shared slab with an
/// intrusive free list: the calendar's memory is a single high-water mark
/// (the most keys ever in the ring), so once it is reached scheduling and
/// popping never allocate, however bursts move between buckets.
#[derive(Debug)]
struct Calendar<E> {
    /// Newest node of each bucket's chain ([`NIL`] when empty).
    heads: Vec<u32>,
    nodes: Vec<Node<E>>,
    /// Head of the free-node list.
    free: u32,
    /// Per-slot occupancy bitmap, and a summary bit per non-zero word.
    occupied: [u64; WORDS],
    summary: u64,
    /// Bucket number of the last drained bucket.
    cur: u64,
    /// Keys of drained buckets, earliest first from `head` on.
    ready: Vec<Key<E>>,
    head: usize,
    /// Keys beyond the ring's window.
    far: BinaryHeap<Reverse<Key<E>>>,
}

impl<E: Copy> Calendar<E> {
    fn new() -> Self {
        Calendar {
            heads: vec![NIL; BUCKETS],
            nodes: Vec::new(),
            free: NIL,
            occupied: [0; WORDS],
            summary: 0,
            cur: 0,
            ready: Vec::new(),
            head: 0,
            far: BinaryHeap::new(),
        }
    }

    fn push(&mut self, key: Key<E>) {
        let b = bucket(key.at);
        if b <= self.cur {
            // Already drained: merge into the sorted ready run. A new key
            // has the largest seq, so it sorts after any same-time key.
            let pos = self.head + self.ready[self.head..].partition_point(|k| *k < key);
            self.ready.insert(pos, key);
        } else if b - self.cur <= BUCKETS as u64 {
            let slot = (b & SLOT_MASK) as usize;
            let node = Node {
                key,
                next: self.heads[slot],
            };
            let n = if self.free == NIL {
                debug_assert!(self.nodes.len() < NIL as usize, "invariant: node slab full");
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            } else {
                let n = self.free;
                self.free = self.nodes[n as usize].next;
                self.nodes[n as usize] = node;
                n
            };
            self.heads[slot] = n;
            self.occupied[slot / 64] |= 1 << (slot % 64);
            self.summary |= 1 << (slot / 64);
        } else {
            self.far.push(Reverse(key));
        }
    }

    /// Bucket number of the earliest occupied ring slot, if any: the first
    /// set bit at or after `cur + 1`'s slot, wrapping around the ring.
    #[inline]
    fn next_occupied(&self) -> Option<u64> {
        let start = ((self.cur + 1) & SLOT_MASK) as usize;
        let w = start / 64;
        let here = self.occupied[w] & (!0u64 << (start % 64));
        let slot = if here != 0 {
            w * 64 + here.trailing_zeros() as usize
        } else {
            let later = self.summary & ((!0u64 << w) << 1);
            let w = match (later, self.summary) {
                (0, 0) => return None,
                (0, all) => all.trailing_zeros(),
                (later, _) => later.trailing_zeros(),
            } as usize;
            w * 64 + self.occupied[w].trailing_zeros() as usize
        };
        Some(self.cur + 1 + ((slot as u64).wrapping_sub(start as u64) & SLOT_MASK))
    }

    /// Refill the empty `ready` run with the earliest bucket, pulling in
    /// the far keys the advanced window now covers. Returns `false` when
    /// the calendar is empty.
    fn refill(&mut self) -> bool {
        debug_assert_eq!(self.head, self.ready.len());
        self.ready.clear();
        self.head = 0;
        // Ring keys all precede far keys, so the far tier is consulted only
        // once the ring is empty.
        let next = match (self.next_occupied(), self.far.peek()) {
            (Some(b), _) => b,
            (None, Some(Reverse(k))) => bucket(k.at),
            (None, None) => return false,
        };
        self.cur = next;
        let slot = (next & SLOT_MASK) as usize;
        let mut n = std::mem::replace(&mut self.heads[slot], NIL);
        self.occupied[slot / 64] &= !(1 << (slot % 64));
        if self.occupied[slot / 64] == 0 {
            self.summary &= !(1 << (slot / 64));
        }
        // The chain runs newest first, i.e. by descending seq, so sorting
        // the run by `(at, seq)` is an insertion sort on `at` alone: a key
        // moves before every newer key at the same or a later time. Newer
        // keys are mostly earlier ones (a handler's follow-up lands before
        // timers set up earlier), so most keys append.
        while n != NIL {
            let node = &mut self.nodes[n as usize];
            let key = node.key;
            let next = std::mem::replace(&mut node.next, self.free);
            self.free = n;
            n = next;
            let mut i = self.ready.len();
            self.ready.push(key);
            while i > 0 && self.ready[i - 1].at >= key.at {
                self.ready[i] = self.ready[i - 1];
                i -= 1;
            }
            self.ready[i] = key;
        }
        let end = self.cur + BUCKETS as u64;
        while let Some(k) = self.far.peek().map(|r| r.0).filter(|k| bucket(k.at) <= end) {
            self.far.pop();
            self.push(k);
        }
        true
    }
}

/// The future-event list of a simulation.
///
/// `E` is the model's event payload type; it is `Copy` because the queue
/// stores it inline in its keys. The queue tracks the current simulated
/// time; popping an event advances the clock to its dispatch time.
#[derive(Debug)]
pub struct EventQueue<E> {
    cal: Calendar<E>,
    /// Cancelled keys not yet passed by a dispatch, ascending.
    cancelled: Vec<TimerToken>,
    /// Smallest key that can still be pending: just past the last
    /// dispatched key (dispatched keys only ever increase).
    floor: TimerToken,
    now: Time,
    /// Seq of the next scheduled event: also the count scheduled so far.
    next_seq: u64,
    dispatched_total: u64,
    cancelled_total: u64,
    live: usize,
    peak_live: usize,
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Copy> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            cal: Calendar::new(),
            cancelled: Vec::new(),
            floor: TimerToken {
                at: Time::ZERO,
                seq: 0,
            },
            now: Time::ZERO,
            next_seq: 0,
            dispatched_total: 0,
            cancelled_total: 0,
            live: 0,
            peak_live: 0,
        }
    }

    /// The current simulated time (the dispatch time of the last popped
    /// event, or zero before the first pop).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    fn schedule_key(&mut self, at: Time, event: E) -> TimerToken {
        debug_assert!(
            at >= self.now,
            "scheduled event in the past: at={at} now={}",
            self.now
        );
        let key = Key {
            at: at.max(self.now),
            seq: self.next_seq,
            event,
        };
        self.next_seq += 1;
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        self.cal.push(key);
        key.token()
    }

    /// Schedule `event` at absolute instant `at`.
    ///
    /// Scheduling in the past is a model bug; the event is clamped to `now`
    /// so causality is preserved, and debug builds panic to flag the bug.
    pub fn schedule_at(&mut self, at: Time, event: E) {
        self.schedule_key(at, event);
    }

    /// Schedule `event` after a relative delay from now.
    #[inline]
    pub fn schedule_in(&mut self, delay: Duration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedule `event` at `at` and return a [`TimerToken`] that can cancel
    /// it any time before it dispatches.
    pub fn schedule_cancellable_at(&mut self, at: Time, event: E) -> TimerToken {
        self.schedule_key(at, event)
    }

    /// Cancellable variant of [`EventQueue::schedule_in`].
    #[inline]
    pub fn schedule_cancellable_in(&mut self, delay: Duration, event: E) -> TimerToken {
        self.schedule_cancellable_at(self.now + delay, event)
    }

    /// Cancel a pending event. Returns `true` if the event was still
    /// pending (and is now dropped), `false` if it already dispatched or
    /// was already cancelled. The key stays queued and is skipped when it
    /// surfaces.
    ///
    /// A token is pending iff it is at or above the dispatch floor and not
    /// in the cancelled set. Only *dispatched* keys are monotone: a skipped
    /// cancelled key does not move the clock, so later events may dispatch
    /// before it, and its cancelled record must outlive the skip until a
    /// dispatch passes it.
    pub fn cancel(&mut self, token: TimerToken) -> bool {
        if token < self.floor || token.seq >= self.next_seq {
            return false;
        }
        match self.cancelled.binary_search(&token) {
            Ok(_) => false,
            Err(pos) => {
                self.cancelled.insert(pos, token);
                self.live -= 1;
                self.cancelled_total += 1;
                true
            }
        }
    }

    /// Remove and return the earliest uncancelled key.
    #[inline]
    fn pop_key(&mut self) -> Option<Key<E>> {
        loop {
            let Some(&key) = self.cal.ready.get(self.cal.head) else {
                if self.cal.refill() {
                    continue;
                }
                return None;
            };
            self.cal.head += 1;
            if self.cancelled.is_empty() || self.cancelled.binary_search(&key.token()).is_err() {
                return Some(key);
            }
        }
    }

    /// Dispatch a popped key, advancing the clock and the floor, and
    /// retiring the cancelled records the dispatch passes.
    #[inline]
    fn dispatch(&mut self, key: Key<E>) -> EventEntry<E> {
        debug_assert!(key.at >= self.now, "event queue went backwards");
        self.now = key.at;
        self.floor = TimerToken {
            at: key.at,
            seq: key.seq + 1,
        };
        if self.cancelled.first().is_some_and(|c| *c < self.floor) {
            let passed = self.cancelled.partition_point(|c| *c < self.floor);
            self.cancelled.drain(..passed);
        }
        self.dispatched_total += 1;
        self.live -= 1;
        EventEntry {
            at: key.at,
            seq: key.seq,
            event: key.event,
        }
    }

    /// Pop the earliest event, advancing the clock to its dispatch time.
    pub fn pop(&mut self) -> Option<EventEntry<E>> {
        let key = self.pop_key()?;
        Some(self.dispatch(key))
    }

    /// Pop the earliest event only if it dispatches strictly before
    /// `horizon`. Events at or beyond the horizon stay queued and the clock
    /// does not move. This is the single-pop primitive the run loop uses
    /// instead of a separate peek-then-pop.
    #[inline]
    pub fn pop_before(&mut self, horizon: Time) -> Option<EventEntry<E>> {
        let key = self.pop_key()?;
        if key.at >= horizon {
            // Still the earliest key: it goes back on the front of the run.
            self.cal.head -= 1;
            return None;
        }
        Some(self.dispatch(key))
    }

    /// Dispatch time of the next event without popping it.
    ///
    /// Needs `&mut self`: cancelled entries at the front are discarded so
    /// the reported time always belongs to a live event.
    pub fn peek_time(&mut self) -> Option<Time> {
        let key = self.pop_key()?;
        self.cal.head -= 1;
        Some(key.at)
    }

    /// Number of pending (live, uncancelled) events.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total events ever scheduled (for run diagnostics).
    #[inline]
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Total events dispatched (popped) so far.
    #[inline]
    pub fn dispatched_total(&self) -> u64 {
        self.dispatched_total
    }

    /// Total timers cancelled before dispatch.
    #[inline]
    pub fn cancelled_total(&self) -> u64 {
        self.cancelled_total
    }

    /// High-water mark of pending events over the queue's lifetime.
    #[inline]
    pub fn peak_pending(&self) -> usize {
        self.peak_live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(Time(30), "c");
        q.schedule_at(Time(10), "a");
        q.schedule_at(Time(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(Time(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_to_dispatch_time() {
        let mut q = EventQueue::new();
        q.schedule_at(Time(42), ());
        assert_eq!(q.now(), Time::ZERO);
        q.pop();
        assert_eq!(q.now(), Time(42));
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(Time(100), 1u8);
        q.pop();
        q.schedule_in(Duration::nanos(5), 2u8);
        let e = q.pop().unwrap();
        assert_eq!(e.at, Time(105));
    }

    #[test]
    fn peek_does_not_advance_clock() {
        let mut q = EventQueue::new();
        q.schedule_at(Time(9), ());
        assert_eq!(q.peek_time(), Some(Time(9)));
        assert_eq!(q.now(), Time::ZERO);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduled event in the past")]
    fn scheduling_in_the_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule_at(Time(10), ());
        q.pop();
        q.schedule_at(Time(5), ());
    }

    #[test]
    fn counters_track_len_and_total() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_at(Time(1), ());
        q.schedule_at(Time(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
    }

    /// Times within one bucket, across the ring and deep into the far
    /// tier, scheduled shuffled, pop sorted.
    #[test]
    fn ring_and_far_times_pop_sorted() {
        let times = [
            1u64,
            15,
            16,
            17,
            2047,
            2048,
            32_767,
            32_768,
            32_784,
            1 << 18,
            (1 << 18) + 1,
            1 << 30,
            1 << 45,
            (1 << 45) + 12345,
            u64::MAX / 2,
            u64::MAX - 1,
        ];
        let mut q = EventQueue::new();
        // Deliberately interleaved insertion order.
        for (i, &t) in times.iter().enumerate().rev() {
            q.schedule_at(Time(t), i);
        }
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.at.0)).collect();
        let mut want = times.to_vec();
        want.sort_unstable();
        assert_eq!(popped, want);
    }

    /// Keys whose ring slot lies below the cursor's (the window wrapped
    /// around the ring) are still found, in order, and a far key pulled
    /// in by the advancing window lands before later ring keys.
    #[test]
    fn ring_wraps_and_far_keys_merge_in_order() {
        let span = (BUCKETS as u64) << BUCKET_BITS;
        let mut q = EventQueue::new();
        q.schedule_at(Time(span - 20), "a");
        q.schedule_at(Time(span + 40), "far");
        assert_eq!(q.pop().map(|e| e.event), Some("a"));
        // Slot of `span + 10` wraps below the cursor's slot.
        q.schedule_at(Time(span + 10), "wrapped");
        q.schedule_at(Time(span + 60), "after");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["wrapped", "far", "after"]);
    }

    #[test]
    fn cancel_drops_pending_event() {
        let mut q = EventQueue::new();
        q.schedule_at(Time(10), "keep");
        let tok = q.schedule_cancellable_at(Time(5), "drop");
        assert_eq!(q.len(), 2);
        assert!(q.cancel(tok));
        assert_eq!(q.len(), 1);
        assert_eq!(q.cancelled_total(), 1);
        // Cancelled event neither dispatches nor advances the clock early.
        let e = q.pop().unwrap();
        assert_eq!((e.at, e.event), (Time(10), "keep"));
        assert!(q.pop().is_none());
        // Double-cancel and post-dispatch cancel are inert.
        assert!(!q.cancel(tok));
    }

    #[test]
    fn cancel_after_dispatch_is_stale() {
        let mut q = EventQueue::new();
        let tok = q.schedule_cancellable_at(Time(1), ());
        assert!(q.pop().is_some());
        assert!(!q.cancel(tok));
        // Slot reuse must not resurrect the old token.
        let _tok2 = q.schedule_cancellable_at(Time(2), ());
        assert!(!q.cancel(tok));
        assert_eq!(q.len(), 1);
    }

    /// A skipped cancelled key does not move the clock, so an event
    /// scheduled afterwards can dispatch *before* it; re-cancelling the
    /// skipped key must still report it as already cancelled.
    #[test]
    fn recancel_after_skip_and_earlier_dispatch_is_stale() {
        let mut q = EventQueue::new();
        let a = q.schedule_cancellable_at(Time(591_704_827), "a");
        // 1. Cancel A.
        assert!(q.cancel(a));
        // 2. Popping skips A; the queue is empty and the clock holds at 0.
        assert!(q.pop().is_none());
        assert_eq!(q.now(), Time::ZERO);
        // 3. Schedule B at 0 and dispatch it: B precedes A.
        q.schedule_at(Time::ZERO, "b");
        assert_eq!(q.pop().map(|e| (e.at, e.event)), Some((Time::ZERO, "b")));
        // 4. A is still cancelled, not pending again.
        assert!(!q.cancel(a));
        assert_eq!(q.cancelled_total(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn peek_skips_cancelled_front() {
        let mut q = EventQueue::new();
        let tok = q.schedule_cancellable_at(Time(3), 0);
        q.schedule_at(Time(8), 1);
        assert!(q.cancel(tok));
        assert_eq!(q.peek_time(), Some(Time(8)));
        assert_eq!(q.pop_before(Time(8)), None);
        assert_eq!(q.now(), Time::ZERO);
        assert_eq!(q.pop().map(|e| e.event), Some(1));
    }

    #[test]
    fn pop_before_honors_horizon() {
        let mut q = EventQueue::new();
        q.schedule_at(Time(10), "a");
        q.schedule_at(Time(20), "b");
        assert_eq!(q.pop_before(Time(10)), None);
        assert_eq!(q.now(), Time::ZERO);
        let e = q.pop_before(Time(15)).unwrap();
        assert_eq!((e.at, e.event), (Time(10), "a"));
        assert_eq!(q.pop_before(Time(15)), None);
        assert_eq!(q.now(), Time(10));
    }

    #[test]
    fn dispatch_and_peak_counters() {
        let mut q = EventQueue::new();
        q.schedule_at(Time(1), ());
        q.schedule_at(Time(2), ());
        q.schedule_at(Time(3), ());
        assert_eq!(q.peak_pending(), 3);
        q.pop();
        q.pop();
        assert_eq!(q.dispatched_total(), 2);
        assert_eq!(q.peak_pending(), 3);
        q.schedule_at(Time(9), ());
        assert_eq!(q.peak_pending(), 3);
    }
}
