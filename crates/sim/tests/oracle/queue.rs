//! The event queue exactly as it was on its binary-heap backend, before
//! the heap was removed from the simulator: the generational payload slab,
//! O(1) cancellation through generational tokens, and a `BinaryHeap` of
//! earliest-first `(time, seq, slot)` keys.
//!
//! Test-only reference model. `queue_reference.rs` drives random
//! schedule/cancel/pop/peek traces through it and through
//! `ceio_sim::EventQueue` (the calendar queue) and requires identical pop
//! order, peeks and cancel outcomes. Apart from this header and the imports, the
//! code is unchanged except that the backend switch is gone: the heap is
//! the queue's only priority structure. Do not optimise it.

#![allow(dead_code)]

use ceio_sim::{Duration, Time};
use std::cmp::Ordering;
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

impl<E> PartialOrd for EventEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for EventEntry<E> {
    // Reverse ordering: earliest-first under a max-heap discipline.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

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

/// Priority key: everything the backend needs to order an event. The payload
/// stays in the slab; `idx` points at its slot.
#[derive(Debug, Clone, Copy)]
struct Key {
    at: Time,
    seq: u64,
    idx: u32,
}

/// [`Key`] with earliest-first ordering for the reference `BinaryHeap`.
#[derive(Debug, Clone, Copy)]
struct HeapKey(Key);

impl PartialEq for HeapKey {
    fn eq(&self, other: &Self) -> bool {
        self.0.at == other.0.at && self.0.seq == other.0.seq
    }
}
impl Eq for HeapKey {}
impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .0
            .at
            .cmp(&self.0.at)
            .then_with(|| other.0.seq.cmp(&self.0.seq))
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
    backend: BinaryHeap<HeapKey>,
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
            backend: BinaryHeap::new(),
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
        self.backend.push(HeapKey(key));
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
    /// immediately; the backend's orphaned key is skipped lazily on pop.
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
    fn clean_peek(&mut self) -> Option<Key> {
        loop {
            let key = self.backend.peek()?.0;
            if self.is_live(key) {
                return Some(key);
            }
            self.backend.pop();
        }
    }

    /// Pop the earliest event, advancing the clock to its dispatch time.
    pub fn pop(&mut self) -> Option<EventEntry<E>> {
        loop {
            let key = self.backend.pop()?.0;
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
        self.backend.pop();
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
