//! `EventQueue` (the calendar queue) against the binary-heap queue it
//! descends from.
//!
//! The calendar is a pure re-representation of the future-event list: for
//! any interleaving of scheduling (same-nanosecond FIFO bursts, offsets
//! within one bucket, across the ring and into the far tier), cancellation
//! races, pops, horizon-bounded pops and peeks, it must produce exactly the
//! dispatch trace of the reference in `oracle/` — every popped
//! `(time, payload)` in order, every peeked time, every cancel outcome and
//! the clock after each bounded pop.

mod oracle;

use ceio_sim::{Duration, EventQueue};
use oracle::queue::EventQueue as Reference;
use proptest::prelude::*;

/// One step of the exercise, applied identically to both queues.
#[derive(Debug, Clone)]
enum QueueOp {
    /// Schedule at `now + offset` (offset 0 = same-nanosecond burst).
    Schedule { offset: u64 },
    /// Schedule cancellable at `now + offset`, remembering the token.
    ScheduleCancellable { offset: u64 },
    /// Cancel the `pick % tokens.len()`-th remembered token (possibly
    /// already fired or already cancelled — a cancellation race).
    Cancel { pick: usize },
    /// Pop the next event.
    Pop,
    /// Pop the next event only if it is before `now + offset`
    /// (`offset` 0: never; the clock holds either way on a miss).
    PopBefore { offset: u64 },
    /// Read the next event's time; skips cancelled keys without
    /// dispatching anything.
    PeekTime,
}

/// Offsets biased toward 0 (same-ns FIFO bursts) and small values, with a
/// heavy tail that crosses the calendar's ring and reaches its far tier.
fn offset_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        4 => Just(0u64),
        4 => 1u64..64,
        2 => 64u64..4096,
        1 => 4096u64..(1 << 30),
        1 => (1u64 << 30)..(1 << 45),
    ]
}

fn queue_op_strategy() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        4 => offset_strategy().prop_map(|offset| QueueOp::Schedule { offset }),
        3 => offset_strategy().prop_map(|offset| QueueOp::ScheduleCancellable { offset }),
        2 => any::<usize>().prop_map(|pick| QueueOp::Cancel { pick }),
        3 => Just(QueueOp::Pop),
        2 => offset_strategy().prop_map(|offset| QueueOp::PopBefore { offset }),
        1 => Just(QueueOp::PeekTime),
    ]
}

/// Run `ops` against one queue, returning the observable trace: every
/// popped `(time, payload)`, every cancel outcome, every bounded-pop miss
/// with the clock it left, every peek with the pending count, then a full
/// drain.
/// A macro because the two queues share an API but no trait.
macro_rules! queue_trace {
    ($q:expr, $ops:expr) => {{
        let mut q = $q;
        let mut tokens = Vec::new();
        let mut trace: Vec<(u64, u64, bool)> = Vec::new();
        let mut next_payload = 0u64;
        for op in $ops {
            match op {
                QueueOp::Schedule { offset } => {
                    q.schedule_at(q.now() + Duration::nanos(*offset), next_payload);
                    next_payload += 1;
                }
                QueueOp::ScheduleCancellable { offset } => {
                    tokens.push(
                        q.schedule_cancellable_at(q.now() + Duration::nanos(*offset), next_payload),
                    );
                    next_payload += 1;
                }
                QueueOp::Cancel { pick } => {
                    if !tokens.is_empty() {
                        let tok = tokens[pick % tokens.len()];
                        trace.push((u64::MAX, u64::MAX, q.cancel(tok)));
                    }
                }
                QueueOp::Pop => {
                    if let Some(e) = q.pop() {
                        trace.push((e.at.0, e.event, true));
                    }
                }
                QueueOp::PopBefore { offset } => {
                    let horizon = q.now() + Duration::nanos(*offset);
                    match q.pop_before(horizon) {
                        Some(e) => trace.push((e.at.0, e.event, true)),
                        None => trace.push((q.now().0, u64::MAX, false)),
                    }
                }
                QueueOp::PeekTime => {
                    let t = q.peek_time().map_or(u64::MAX, |t| t.0);
                    trace.push((t, q.len() as u64, false));
                }
            }
        }
        while let Some(e) = q.pop() {
            trace.push((e.at.0, e.event, true));
        }
        assert!(q.is_empty());
        trace
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The calendar queue and the reference heap produce identical
    /// dispatch traces — same `(time, payload)` pop order, same cancel
    /// outcomes, same peeks and bounded-pop misses.
    #[test]
    fn calendar_matches_heap_reference(ops in prop::collection::vec(queue_op_strategy(), 1..120)) {
        let calendar = queue_trace!(EventQueue::<u64>::new(), &ops);
        let heap = queue_trace!(Reference::<u64>::new(), &ops);
        prop_assert_eq!(calendar, heap);
    }
}
