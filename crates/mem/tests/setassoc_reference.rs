//! `SetAssocLlc` against the map-based model it replaced.
//!
//! The slab-indexed layout and the antagonist FIFO are pure
//! re-representations: for any geometry and any trace the new model must
//! make the same decisions as the reference in `oracle/` — the same
//! victims in the same order, the same hits and misses, the same
//! statistics, and the same per-way occupancy after every step. Geometries
//! span 1..64 sets, every DDIO width and antagonist overlap, and
//! antagonist rates 0..8; buffers are 1..40 lines, often larger than the
//! whole DDIO partition, and ids collide so re-inserts, lookups and
//! consumes of resident and evicted buffers all occur.

mod oracle;

use ceio_mem::{BufferId, LlcStats, SetAssocLlc, SetAssocParams, LINE_BYTES};
use proptest::prelude::*;

/// Ids are drawn from a small space so they are reused often.
const IDS: u64 = 48;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Lookup(u64),
    Consume(u64),
    Bypass(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Sizes: 1..40 lines, plus a sub-line remainder half the time.
    prop_oneof![
        (0u64..IDS, 1u64..40, 0u64..2, 1u64..LINE_BYTES).prop_map(|(id, lines, partial, rem)| {
            Op::Insert(id, lines * LINE_BYTES - partial * rem)
        }),
        (0u64..IDS, 1u64..40).prop_map(|(id, lines)| Op::Insert(id, lines * LINE_BYTES)),
        (0u64..IDS).prop_map(Op::Lookup),
        (0u64..IDS).prop_map(Op::Consume),
        (1u64..4096).prop_map(Op::Bypass),
    ]
}

/// A valid geometry from raw draws: `1 <= ddio_ways <= total_ways`,
/// `app_overlap_ways <= ddio_ways`.
fn geometry(
    sets: usize,
    total_ways: usize,
    ddio: usize,
    overlap: usize,
    app: u32,
) -> SetAssocParams {
    let ddio_ways = 1 + ddio % total_ways;
    SetAssocParams {
        sets,
        total_ways,
        ddio_ways,
        app_lines_per_insert: app,
        app_overlap_ways: overlap % (ddio_ways + 1),
    }
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

/// Every observable of both models must agree.
fn assert_same(
    new: &SetAssocLlc,
    old: &oracle::setassoc::SetAssocLlc,
    at: &Op,
) -> Result<(), TestCaseError> {
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
    let (wn, wo) = (new.way_occupancy(), old.way_occupancy());
    prop_assert_eq!(wn.io_lines, wo.io_lines, "I/O lines per way at {:?}", at);
    prop_assert_eq!(
        wn.app_lines,
        wo.app_lines,
        "antagonist lines per way at {:?}",
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// Arbitrary geometries and traces: identical behaviour step by step.
    #[test]
    fn setassoc_matches_reference_model(
        sets in 1usize..64,
        total_ways in 1usize..=12,
        ddio in 0usize..12,
        overlap in 0usize..13,
        app in 0u32..8,
        ops in prop::collection::vec(op_strategy(), 1..300)
    ) {
        let p = geometry(sets, total_ways, ddio, overlap, app);
        let mut new = SetAssocLlc::new(p.clone());
        let mut old = oracle::setassoc::SetAssocLlc::new(p);
        prop_assert_eq!(new.capacity(), old.capacity());
        // One buffer for the whole trace, as the memory controller keeps.
        let mut evicted = Vec::new();
        for op in &ops {
            match *op {
                Op::Insert(id, bytes) => {
                    evicted.clear();
                    new.insert(BufferId(id), bytes, &mut evicted);
                    let want = old.insert(BufferId(id), bytes);
                    prop_assert_eq!(&evicted, &want, "eviction order at {:?}", op);
                }
                Op::Lookup(id) => {
                    prop_assert_eq!(new.lookup(BufferId(id)), old.lookup(BufferId(id)), "hit/miss at {:?}", op);
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
            assert_same(&new, &old, op)?;
        }
    }

    /// Long single-line insert streams on a tiny cache: the antagonist
    /// wraps its own ways many times and, with overlap, keeps trading DDIO
    /// ways with I/O buffers.
    #[test]
    fn antagonist_fifo_matches_reference_over_long_runs(
        sets in 1usize..4,
        total_ways in 2usize..=6,
        ddio in 0usize..6,
        overlap in 0usize..7,
        app in 1u32..8,
        ids in prop::collection::vec(0u64..IDS, 200..600)
    ) {
        let p = geometry(sets, total_ways, ddio, overlap, app);
        let mut new = SetAssocLlc::new(p.clone());
        let mut old = oracle::setassoc::SetAssocLlc::new(p);
        let mut evicted = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            let op = Op::Insert(id, LINE_BYTES);
            evicted.clear();
            new.insert(BufferId(id), LINE_BYTES, &mut evicted);
            prop_assert_eq!(&evicted, &old.insert(BufferId(id), LINE_BYTES), "eviction order at {:?}", op);
            if i % 3 == 0 {
                let probe = (id * 7 + 3) % IDS;
                prop_assert_eq!(new.lookup(BufferId(probe)), old.lookup(BufferId(probe)));
            }
            assert_same(&new, &old, &op)?;
        }
    }
}
