//! `IoLlc` against the map-based pool it replaced.
//!
//! The node slab, the shared id index and the intrusive recency list are a
//! pure re-representation: for any capacity and any trace the new pool must
//! make the same decisions as the reference in `oracle/` — the same
//! victims in the same order, the same hits and misses, every statistic
//! (eviction ages included), and the same occupancy, residents and
//! membership after every step. Ids are drawn from a small space so
//! re-inserts, hits, misses and consumes of evicted buffers all occur, and
//! buffer sizes reach past the whole capacity so the oversized edge (the
//! incoming buffer stays resident alone, over capacity) is exercised.

mod oracle;

use ceio_mem::{BufferId, IoLlc, LlcStats};
use proptest::prelude::*;

/// Ids are drawn from a small space so they are reused often.
const IDS: u64 = 40;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Lookup(u64),
    Consume(u64),
    Bypass(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Mostly a few buffers' worth of a small partition...
        3 => (0u64..IDS, 1u64..2048).prop_map(|(id, b)| Op::Insert(id, b)),
        // ...some larger than a whole small partition.
        1 => (0u64..IDS, 1u64..32_768).prop_map(|(id, b)| Op::Insert(id, b)),
        2 => (0u64..IDS).prop_map(Op::Lookup),
        2 => (0u64..IDS).prop_map(Op::Consume),
        1 => (1u64..4096).prop_map(Op::Bypass),
    ]
}

fn stats_fields(s: &LlcStats) -> [u64; 9] {
    [
        s.insertions,
        s.hits,
        s.misses,
        s.evictions,
        s.evicted_bytes,
        s.bypasses,
        s.over_capacity_events,
        s.app_evictions,
        s.eviction_age_sum,
    ]
}

/// Every observable of both pools must agree.
fn assert_same(new: &IoLlc, old: &oracle::pool::IoLlc, at: &Op) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        stats_fields(new.stats()),
        stats_fields(old.stats()),
        "stats at {:?}",
        at
    );
    prop_assert_eq!(new.occupancy(), old.occupancy(), "occupancy at {:?}", at);
    prop_assert_eq!(
        new.resident_count(),
        old.resident_count(),
        "residents at {:?}",
        at
    );
    for id in 0..IDS {
        prop_assert_eq!(
            new.contains(BufferId(id)),
            old.contains(BufferId(id)),
            "contains({}) at {:?}",
            id,
            at
        );
    }
    Ok(())
}

/// Apply one step to both pools and compare the step's own outcome.
fn step(
    new: &mut IoLlc,
    old: &mut oracle::pool::IoLlc,
    op: &Op,
    evicted: &mut Vec<BufferId>,
) -> Result<(), TestCaseError> {
    match *op {
        Op::Insert(id, bytes) => {
            evicted.clear();
            new.insert(BufferId(id), bytes, evicted);
            let mut want = Vec::new();
            old.insert(BufferId(id), bytes, &mut want);
            prop_assert_eq!(&*evicted, &want, "eviction order at {:?}", op);
        }
        Op::Lookup(id) => {
            prop_assert_eq!(
                new.lookup(BufferId(id)),
                old.lookup(BufferId(id)),
                "hit/miss at {:?}",
                op
            );
        }
        Op::Consume(id) => {
            new.consume(BufferId(id));
            old.consume(BufferId(id));
        }
        Op::Bypass(bytes) => {
            new.bypass(bytes);
            old.bypass(bytes);
        }
    }
    assert_same(new, old, op)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary capacities and traces: identical behaviour step by step.
    #[test]
    fn pool_matches_reference_model(
        capacity in 64u64..16_384,
        ops in prop::collection::vec(op_strategy(), 1..400)
    ) {
        let mut new = IoLlc::new(capacity);
        let mut old = oracle::pool::IoLlc::new(capacity);
        prop_assert_eq!(new.capacity(), old.capacity());
        // One buffer for the whole trace, as the memory controller keeps.
        let mut evicted = Vec::new();
        for op in &ops {
            step(&mut new, &mut old, op, &mut evicted)?;
        }
    }

    /// The host's own pattern over long runs: fresh ids inserted faster
    /// than a consumer reads and frees them, so slab nodes and index
    /// buckets are recycled thousands of times and the index grows.
    #[test]
    fn pool_matches_reference_over_producer_consumer_runs(
        capacity_bufs in 1u64..64,
        per_read in 1u64..4,
        lag in 0u64..96,
        reads in 200u64..1500,
    ) {
        let bytes = 2048;
        let mut new = IoLlc::new(capacity_bufs * bytes);
        let mut old = oracle::pool::IoLlc::new(capacity_bufs * bytes);
        let mut evicted = Vec::new();
        let mut next_id = 0u64;
        for read in 0..reads {
            for _ in 0..per_read {
                step(&mut new, &mut old, &Op::Insert(next_id, bytes), &mut evicted)?;
                next_id += 1;
            }
            let Some(id) = (read * per_read).checked_sub(lag) else {
                continue;
            };
            prop_assert_eq!(new.lookup(BufferId(id)), old.lookup(BufferId(id)), "hit/miss of {}", id);
            new.consume(BufferId(id));
            old.consume(BufferId(id));
            prop_assert_eq!(stats_fields(new.stats()), stats_fields(old.stats()));
            prop_assert_eq!(new.occupancy(), old.occupancy());
            prop_assert_eq!(new.resident_count(), old.resident_count());
        }
    }
}
