//! Observational equivalence of the two LLC models at the degenerate
//! geometry.
//!
//! With **1 set**, `ddio_bytes / 64` DDIO ways, the antagonist disabled,
//! and line-multiple buffer sizes, the set-associative model's
//! LRU-within-set over whole buffers degenerates to exactly the pool
//! model's "evict globally oldest until it fits, never the incoming
//! buffer" loop. Any arbitrary insert/lookup/consume trace must therefore
//! produce identical observable behaviour from both models: hit/miss
//! results, eviction sets, occupancy, residency, and the full statistics
//! block. This pins the refactor — the way model is a strict
//! generalisation of the seed pool, not a re-tuning of it.

use ceio_mem::{BufferId, IoLlc, SetAssocLlc, SetAssocParams, LINE_BYTES};
use proptest::prelude::*;

/// One step of a random trace over a small id space.
#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Lookup(u64),
    Consume(u64),
    Bypass(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Ids collide often (small space) so re-insert/refresh paths are hit;
    // sizes are 1..=8 lines, against a 16-line capacity.
    prop_oneof![
        (0u64..24, 1u64..=8).prop_map(|(id, lines)| Op::Insert(id, lines * LINE_BYTES)),
        (0u64..24).prop_map(Op::Lookup),
        (0u64..24).prop_map(Op::Consume),
        (1u64..=8).prop_map(|lines| Op::Bypass(lines * LINE_BYTES)),
    ]
}

/// Byte-equivalent degenerate geometry: 1 set whose DDIO ways hold exactly
/// `capacity_bytes`, antagonist off.
fn degenerate(capacity_bytes: u64) -> SetAssocLlc {
    SetAssocLlc::new(SetAssocParams {
        sets: 1,
        total_ways: (capacity_bytes / LINE_BYTES) as usize + 2,
        ddio_ways: (capacity_bytes / LINE_BYTES) as usize,
        app_lines_per_insert: 0,
        app_overlap_ways: 0,
    })
}

proptest! {
    /// Arbitrary traces observe no difference between the models.
    #[test]
    fn pool_and_setassoc_agree_on_arbitrary_traces(
        ops in prop::collection::vec(op_strategy(), 1..120)
    ) {
        let capacity = 16 * LINE_BYTES;
        let mut pool = IoLlc::new(capacity);
        let mut sa = degenerate(capacity);
        prop_assert_eq!(pool.capacity(), sa.capacity());
        for op in &ops {
            match *op {
                Op::Insert(id, bytes) => {
                    let (mut ep, mut es) = (Vec::new(), Vec::new());
                    pool.insert(BufferId(id), bytes, &mut ep);
                    sa.insert(BufferId(id), bytes, &mut es);
                    // Same victims; order may differ (the pool walks global
                    // LRU order, the way model evicts per line placed).
                    ep.sort();
                    es.sort();
                    prop_assert_eq!(ep, es, "evictions diverge at insert({id}, {bytes})");
                }
                Op::Lookup(id) => {
                    prop_assert_eq!(
                        pool.lookup(BufferId(id)),
                        sa.lookup(BufferId(id)),
                        "hit/miss diverges at lookup({id})"
                    );
                }
                Op::Consume(id) => {
                    pool.consume(BufferId(id));
                    sa.consume(BufferId(id));
                }
                Op::Bypass(bytes) => {
                    pool.bypass(bytes);
                    sa.bypass(bytes);
                }
            }
            prop_assert_eq!(pool.occupancy(), sa.occupancy());
            prop_assert_eq!(pool.resident_count(), sa.resident_count());
        }
        let (p, s) = (pool.stats(), sa.stats());
        prop_assert_eq!(p.insertions, s.insertions);
        prop_assert_eq!(p.hits, s.hits);
        prop_assert_eq!(p.misses, s.misses);
        prop_assert_eq!(p.evictions, s.evictions);
        prop_assert_eq!(p.evicted_bytes, s.evicted_bytes);
        prop_assert_eq!(p.bypasses, s.bypasses);
        prop_assert_eq!(p.over_capacity_events, s.over_capacity_events);
        prop_assert_eq!(p.eviction_age_sum, s.eviction_age_sum);
        prop_assert_eq!(p.app_evictions, 0u64);
        prop_assert_eq!(s.app_evictions, 0u64);
        for id in 0..24 {
            prop_assert_eq!(pool.contains(BufferId(id)), sa.contains(BufferId(id)));
        }
    }

    /// Oversized inserts flag over-capacity identically in both models.
    #[test]
    fn oversized_inserts_agree(extra_lines in 1u64..16) {
        let capacity = 8 * LINE_BYTES;
        let mut pool = IoLlc::new(capacity);
        let mut sa = degenerate(capacity);
        let bytes = capacity + extra_lines * LINE_BYTES;
        let (mut ep, mut es) = (Vec::new(), Vec::new());
        pool.insert(BufferId(1), bytes, &mut ep);
        sa.insert(BufferId(1), bytes, &mut es);
        prop_assert_eq!(ep, es);
        prop_assert_eq!(pool.stats().over_capacity_events, 1u64);
        prop_assert_eq!(sa.stats().over_capacity_events, 1u64);
        prop_assert_eq!(pool.occupancy(), sa.occupancy());
        prop_assert!(pool.contains(BufferId(1)) && sa.contains(BufferId(1)));
    }
}
