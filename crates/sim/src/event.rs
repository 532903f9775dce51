//! Deterministic future-event list.
//!
//! Events are keyed by `(time, sequence)`: the sequence number makes
//! simultaneous events pop in insertion order, which is what makes
//! whole-simulation replays bit-identical — two events scheduled for the same
//! nanosecond always dispatch in the order they were scheduled.
//!
//! Internally the queue is split in two:
//!
//! * a **generational slab** holding the event payloads, so the priority
//!   structure only ever moves 24-byte `(time, seq, slot)` keys and so a
//!   scheduled event can be cancelled in O(1) through a [`TimerToken`]
//!   (cancellation frees the payload immediately; the orphaned key is
//!   lazily skipped when it surfaces);
//! * a **hierarchical timing wheel** (64-slot radix per level, 11 levels
//!   covering the full `u64` nanosecond range) ordering the keys with O(1)
//!   amortised push/pop. The binary heap it replaced is kept as a test-only
//!   oracle (`crates/sim/tests/oracle/queue.rs`), and a property test pins
//!   the two to identical pop order and cancel outcomes.

use crate::time::{Duration, Time};
use std::collections::VecDeque;

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

/// Handle to a cancellable scheduled event.
///
/// Returned by [`EventQueue::schedule_cancellable_at`]; pass it back to
/// [`EventQueue::cancel`] to drop the event in O(1) before it dispatches.
/// Tokens are generational: once the event dispatches (or is cancelled) the
/// token goes stale and further `cancel` calls return `false`, even if the
/// underlying slot has been reused by a newer event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerToken {
    idx: u32,
    gen: u32,
}

/// Priority key: everything the wheel needs to order an event. The payload
/// stays in the slab; `idx` points at its slot.
#[derive(Debug, Clone, Copy)]
struct Key {
    at: Time,
    seq: u64,
    idx: u32,
}

/// Bits per wheel level: 64 slots each.
const LEVEL_BITS: u32 = 6;
/// Slots per wheel level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Levels needed so `LEVELS * LEVEL_BITS >= 64`: the wheel spans the whole
/// `u64` nanosecond timeline with no overflow list.
const LEVELS: usize = 11;
/// End-of-chain marker of a bucket's chunk list.
const NIL: u32 = u32::MAX;
/// Keys per chunk of a bucket's chain.
const CHUNK_KEYS: usize = 16;

/// Mask of the low `bits` bits, saturating at the full word.
#[inline]
fn low_mask(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// A run of up to [`CHUNK_KEYS`] keys of one bucket, chained to the
/// bucket's older chunks.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    keys: [Key; CHUNK_KEYS],
    len: u32,
    /// Next (older) chunk of the same bucket, or [`NIL`].
    next: u32,
}

/// Hierarchical timing wheel over absolute nanosecond times.
///
/// Level `l` buckets keys by bits `[6l, 6(l+1))` of their dispatch time.
/// A key lands on the level of its *highest bit differing from the wheel
/// cursor*, so level 0 slots each hold exactly one nanosecond and draining a
/// slot (sorted by `seq`) preserves same-time FIFO order. Popping re-anchors
/// the cursor to the drained window's base before rescanning, so slots whose
/// index is below the old cursor position are still found after a
/// higher-level bucket is redistributed.
///
/// Each bucket is a chain of fixed-size chunks drawn from one shared slab,
/// and a drained chunk returns to the slab at once. Keys of a bucket stay
/// contiguous in runs of [`CHUNK_KEYS`], while the wheel's memory is a
/// single high-water mark (roughly the most keys ever pending, in chunks)
/// rather than one per bucket: once the slab has grown to it, scheduling
/// and popping never allocate, however bursts move between buckets.
#[derive(Debug)]
struct Wheel {
    /// Newest chunk of each of the `LEVELS * SLOTS` buckets, row-major by
    /// level ([`NIL`] when empty).
    heads: Vec<u32>,
    /// Slab of chunks; freed chunks are listed in `free`.
    chunks: Vec<Chunk>,
    free: Vec<u32>,
    /// Per-level slot occupancy bitmap.
    occupied: [u64; LEVELS],
    /// Cursor: all wheel-resident keys have `at.0 > cur`; keys at or before
    /// the cursor live in `ready`.
    cur: u64,
    /// Imminent keys in dispatch order (ascending `(at, seq)`).
    ready: VecDeque<Key>,
    /// Scratch for sorting a drained level-0 slot by `seq`.
    slot_keys: Vec<Key>,
}

impl Wheel {
    fn new() -> Self {
        Wheel {
            heads: vec![NIL; LEVELS * SLOTS],
            chunks: Vec::new(),
            free: Vec::new(),
            occupied: [0; LEVELS],
            cur: 0,
            ready: VecDeque::new(),
            slot_keys: Vec::new(),
        }
    }

    fn push(&mut self, key: Key) {
        let at = key.at.0;
        if at <= self.cur {
            // Already inside the drained window: merge into the sorted ready
            // run. Same-time keys sort after existing ones (their seq is
            // larger), preserving FIFO.
            let pos = self
                .ready
                .partition_point(|k| (k.at, k.seq) <= (key.at, key.seq));
            self.ready.insert(pos, key);
            return;
        }
        let diff = at ^ self.cur;
        let level = ((63 - diff.leading_zeros()) / LEVEL_BITS) as usize;
        let slot = ((at >> (LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        let b = level * SLOTS + slot;
        let mut c = self.heads[b];
        if c == NIL || self.chunks[c as usize].len as usize == CHUNK_KEYS {
            c = self.alloc_chunk(c);
            self.heads[b] = c;
        }
        let chunk = &mut self.chunks[c as usize];
        chunk.keys[chunk.len as usize] = key;
        chunk.len += 1;
        self.occupied[level] |= 1u64 << slot;
    }

    /// An empty chunk chained in front of `next`.
    fn alloc_chunk(&mut self, next: u32) -> u32 {
        match self.free.pop() {
            Some(c) => {
                let chunk = &mut self.chunks[c as usize];
                chunk.len = 0;
                chunk.next = next;
                c
            }
            None => {
                let blank = Key {
                    at: Time::ZERO,
                    seq: 0,
                    idx: 0,
                };
                self.chunks.push(Chunk {
                    keys: [blank; CHUNK_KEYS],
                    len: 0,
                    next,
                });
                // Room for every chunk to be free at once, so frees never
                // grow the free list.
                self.free.reserve(self.chunks.len());
                (self.chunks.len() - 1) as u32
            }
        }
    }

    /// Refill `ready` from the wheel until it holds the minimum key (or the
    /// wheel is empty). Amortised O(1): every key cascades down at most
    /// `LEVELS - 1` times over its lifetime.
    fn advance(&mut self) {
        while self.ready.is_empty() {
            if self.occupied[0] != 0 {
                // Lowest occupied level-0 slot is the earliest nanosecond:
                // drain it in seq order.
                let slot = self.occupied[0].trailing_zeros() as usize;
                self.occupied[0] &= !(1u64 << slot);
                let mut c = std::mem::replace(&mut self.heads[slot], NIL);
                while c != NIL {
                    let chunk = &self.chunks[c as usize];
                    self.slot_keys
                        .extend_from_slice(&chunk.keys[..chunk.len as usize]);
                    self.free.push(c);
                    c = chunk.next;
                }
                self.slot_keys.sort_unstable_by_key(|k| k.seq);
                debug_assert!(self.slot_keys.windows(2).all(|w| w[0].at == w[1].at));
                if let Some(first) = self.slot_keys.first() {
                    self.cur = first.at.0;
                }
                self.ready.extend(self.slot_keys.drain(..));
                return;
            }
            let Some(level) = (1..LEVELS).find(|&l| self.occupied[l] != 0) else {
                return; // wheel empty
            };
            // Redistribute the earliest occupied bucket one level down,
            // re-anchoring the cursor to the bucket's window base first so
            // the re-pushed keys spread over the full child range. Keys
            // agree with the cursor on this level's bits, so none lands
            // back in this bucket. Each chunk is freed before its keys are
            // re-pushed, so the next chunk they need can be that one.
            let slot = self.occupied[level].trailing_zeros() as usize;
            self.occupied[level] &= !(1u64 << slot);
            let mut c = std::mem::replace(&mut self.heads[level * SLOTS + slot], NIL);
            let lb = LEVEL_BITS * level as u32;
            self.cur = (self.cur & !low_mask(lb + LEVEL_BITS)) | ((slot as u64) << lb);
            while c != NIL {
                let Chunk { keys, len, next } = self.chunks[c as usize];
                self.free.push(c);
                for &key in &keys[..len as usize] {
                    debug_assert!(key.at.0 >= self.cur);
                    self.push(key);
                }
                c = next;
            }
        }
    }

    // `peek`, `pop` and `EventQueue::clean_peek` are `#[inline]`: left to
    // the compiler they stayed out-of-line calls in the once-per-event
    // `pop_before`, and `mixed_q4_dynamic` in `benchmark/` ran slower in
    // 10 of 10 pairs.
    #[inline]
    fn peek(&mut self) -> Option<&Key> {
        self.advance();
        self.ready.front()
    }

    #[inline]
    fn pop(&mut self) -> Option<Key> {
        self.advance();
        self.ready.pop_front()
    }
}

/// One payload slot of the generational slab.
#[derive(Debug)]
struct Slot<E> {
    /// Bumped on every free; stale [`TimerToken`]s fail the generation check.
    gen: u32,
    /// Seq of the current occupant; orphaned keys fail the seq check.
    seq: u64,
    event: Option<E>,
}

/// The future-event list of a simulation.
///
/// `E` is the model's event payload type. The queue tracks the current
/// simulated time; popping an event advances the clock to its dispatch time.
#[derive(Debug)]
pub struct EventQueue<E> {
    wheel: Box<Wheel>,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    now: Time,
    next_seq: u64,
    scheduled_total: u64,
    dispatched_total: u64,
    cancelled_total: u64,
    live: usize,
    peak_live: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            wheel: Box::new(Wheel::new()),
            slots: Vec::new(),
            free: Vec::new(),
            now: Time::ZERO,
            next_seq: 0,
            scheduled_total: 0,
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

    fn alloc(&mut self, seq: u64, event: E) -> u32 {
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            slot.seq = seq;
            slot.event = Some(event);
            idx
        } else {
            debug_assert!(self.slots.len() < u32::MAX as usize, "invariant: slab full");
            self.slots.push(Slot {
                gen: 0,
                seq,
                event: Some(event),
            });
            (self.slots.len() - 1) as u32
        }
    }

    fn release(&mut self, idx: u32) {
        let slot = &mut self.slots[idx as usize];
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(idx);
        self.live -= 1;
    }

    fn schedule_key(&mut self, at: Time, event: E) -> Key {
        debug_assert!(
            at >= self.now,
            "scheduled event in the past: at={at} now={}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        let idx = self.alloc(seq, event);
        let key = Key { at, seq, idx };
        self.wheel.push(key);
        key
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
    /// it in O(1) any time before it dispatches.
    pub fn schedule_cancellable_at(&mut self, at: Time, event: E) -> TimerToken {
        let key = self.schedule_key(at, event);
        TimerToken {
            idx: key.idx,
            gen: self.slots[key.idx as usize].gen,
        }
    }

    /// Cancellable variant of [`EventQueue::schedule_in`].
    #[inline]
    pub fn schedule_cancellable_in(&mut self, delay: Duration, event: E) -> TimerToken {
        self.schedule_cancellable_at(self.now + delay, event)
    }

    /// Cancel a pending event in O(1). Returns `true` if the event was still
    /// pending (and is now dropped), `false` if it already dispatched, was
    /// already cancelled, or the token is stale. The payload is freed
    /// immediately; the wheel's orphaned key is skipped lazily on pop.
    pub fn cancel(&mut self, token: TimerToken) -> bool {
        let Some(slot) = self.slots.get_mut(token.idx as usize) else {
            return false;
        };
        if slot.gen != token.gen || slot.event.is_none() {
            return false;
        }
        slot.event = None;
        self.release(token.idx);
        self.cancelled_total += 1;
        true
    }

    /// Whether the key still references a live (uncancelled) payload.
    #[inline]
    fn is_live(&self, key: Key) -> bool {
        let slot = &self.slots[key.idx as usize];
        slot.seq == key.seq && slot.event.is_some()
    }

    /// Take the payload of a known-live key, advancing the clock.
    fn dispatch(&mut self, key: Key) -> EventEntry<E> {
        debug_assert!(key.at >= self.now, "event queue went backwards");
        let event = self.slots[key.idx as usize]
            .event
            .take()
            .expect("invariant: dispatching a live key");
        self.release(key.idx);
        self.now = key.at;
        self.dispatched_total += 1;
        EventEntry {
            at: key.at,
            seq: key.seq,
            event,
        }
    }

    /// Discard cancelled keys at the front, returning the minimum live key
    /// without removing it.
    #[inline]
    fn clean_peek(&mut self) -> Option<Key> {
        loop {
            let key = *self.wheel.peek()?;
            if self.is_live(key) {
                return Some(key);
            }
            self.wheel.pop();
        }
    }

    /// Pop the earliest event, advancing the clock to its dispatch time.
    pub fn pop(&mut self) -> Option<EventEntry<E>> {
        loop {
            let key = self.wheel.pop()?;
            if self.is_live(key) {
                return Some(self.dispatch(key));
            }
        }
    }

    /// Pop the earliest event only if it dispatches strictly before
    /// `horizon`. Events at or beyond the horizon stay queued and the clock
    /// does not move. This is the single-pop primitive the run loop uses
    /// instead of a separate peek-then-pop.
    pub fn pop_before(&mut self, horizon: Time) -> Option<EventEntry<E>> {
        let key = self.clean_peek()?;
        if key.at >= horizon {
            return None;
        }
        self.wheel.pop();
        Some(self.dispatch(key))
    }

    /// Dispatch time of the next event without popping it.
    ///
    /// Needs `&mut self`: cancelled entries at the front are lazily discarded
    /// so the reported time always belongs to a live event.
    pub fn peek_time(&mut self) -> Option<Time> {
        self.clean_peek().map(|k| k.at)
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
        self.scheduled_total
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

    /// Times spanning every wheel level, scheduled shuffled, pop sorted.
    #[test]
    fn cross_level_times_pop_sorted() {
        let times = [
            1u64,
            63,
            64,
            65,
            127,
            128,
            4095,
            4096,
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

    /// Regression: after a higher-level bucket redistributes, level-0 slots
    /// with indices *below* the old cursor's slot index must still be found
    /// (the cursor re-anchors to the new window base).
    #[test]
    fn redistribution_reaches_low_slot_indices() {
        let mut q = EventQueue::new();
        // 70 -> level-0 slot 6 of window [64,128); 130 -> slot 2 of [128,192).
        q.schedule_at(Time(70), "a");
        q.schedule_at(Time(130), "b");
        assert_eq!(q.pop().map(|e| (e.at, e.event)), Some((Time(70), "a")));
        assert_eq!(q.pop().map(|e| (e.at, e.event)), Some((Time(130), "b")));
        assert!(q.pop().is_none());
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
