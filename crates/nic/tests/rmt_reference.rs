//! `RmtEngine` against the `BTreeMap`-keyed table it replaced.
//!
//! The `FlowMap` layout is a pure re-representation: for any default
//! action and any operation sequence the new table must answer like the
//! reference in `oracle/` — the same steered action, rewrite outcome, hit
//! count and poll delta for every operation, every `RmtStats` field, the
//! same installed flows in the same order, and the same action and hits for
//! every flow after every step. Flow ids come from a small space so
//! installs, rewrites, removals and re-installs of one flow all occur.

mod oracle;

use ceio_net::FlowId;
use ceio_nic::rmt::{RmtStats, SteerAction};
use ceio_nic::{QueueId, RmtEngine};
use proptest::prelude::*;

/// Flow ids are drawn from a small space so they are reused often.
const IDS: u32 = 24;

type Old = oracle::rmt::RmtEngine<FlowId>;

#[derive(Debug, Clone)]
enum Op {
    Install(u32, SteerAction),
    Remove(u32),
    /// The controller's rewrite: one `set_action` call on the new table,
    /// `action` then `set_action` when the action differs on the old one
    /// (the old `set_action` also counted a rewrite to the same action,
    /// which no caller made).
    SetAction(u32, SteerAction),
    Steer(u32),
    PollHits(u32),
}

/// Fast paths on four queues (so queue moves and same-queue rewrites
/// both occur), the slow path and drop.
fn action(code: u8) -> SteerAction {
    match code {
        0..=3 => SteerAction::FastPath {
            queue: QueueId(code as usize),
        },
        4 => SteerAction::SlowPath,
        _ => SteerAction::Drop,
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (0u32..IDS, 0u8..6).prop_map(|(id, a)| Op::Install(id, action(a))),
        1 => (0u32..IDS).prop_map(Op::Remove),
        3 => (0u32..IDS, 0u8..6).prop_map(|(id, a)| Op::SetAction(id, action(a))),
        4 => (0u32..IDS).prop_map(Op::Steer),
        1 => (0u32..IDS).prop_map(Op::PollHits),
    ]
}

fn stats_fields(s: &RmtStats) -> [u64; 6] {
    [
        s.matched,
        s.defaulted,
        s.updates,
        s.rewrites_to_slow,
        s.rewrites_to_fast,
        s.rewrites_queue_move,
    ]
}

/// Every observable of both tables must agree.
fn assert_same(new: &RmtEngine, old: &Old, at: &Op) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        stats_fields(new.stats()),
        stats_fields(old.stats()),
        "stats at {:?}",
        at
    );
    prop_assert_eq!(new.len(), old.len(), "len at {:?}", at);
    prop_assert_eq!(new.is_empty(), old.is_empty(), "is_empty at {:?}", at);
    let new_keys: Vec<FlowId> = new.keys().collect();
    let old_keys: Vec<FlowId> = old.keys().copied().collect();
    prop_assert_eq!(new_keys, old_keys, "keys at {:?}", at);
    for id in 0..IDS {
        let f = FlowId(id);
        prop_assert_eq!(new.action(&f), old.action(&f), "action({}) at {:?}", id, at);
        prop_assert_eq!(new.hits(&f), old.hits(&f), "hits({}) at {:?}", id, at);
    }
    Ok(())
}

/// Apply one operation to both tables and compare its own result.
fn step(new: &mut RmtEngine, old: &mut Old, op: &Op) -> Result<(), TestCaseError> {
    match *op {
        Op::Install(id, a) => {
            new.install(FlowId(id), a);
            old.install(FlowId(id), a);
        }
        Op::Remove(id) => {
            prop_assert_eq!(
                new.remove(&FlowId(id)),
                old.remove(&FlowId(id)),
                "at {:?}",
                op
            );
        }
        Op::SetAction(id, a) => {
            let f = FlowId(id);
            let want = match old.action(&f) {
                Some(prev) if prev != a && old.set_action(&f, a) => Some(prev),
                _ => None,
            };
            prop_assert_eq!(new.set_action(&f, a), want, "at {:?}", op);
        }
        Op::Steer(id) => {
            prop_assert_eq!(
                new.steer(&FlowId(id)),
                old.steer(&FlowId(id)),
                "at {:?}",
                op
            );
        }
        Op::PollHits(id) => {
            prop_assert_eq!(
                new.poll_hits(&FlowId(id)),
                old.poll_hits(&FlowId(id)),
                "at {:?}",
                op
            );
        }
    }
    assert_same(new, old, op)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary default actions and operation sequences: identical
    /// behaviour step by step.
    #[test]
    fn rmt_matches_reference_model(
        default in 0u8..6,
        ops in prop::collection::vec(op_strategy(), 1..300)
    ) {
        let mut new = RmtEngine::new(action(default));
        let mut old = Old::new(action(default));
        for op in &ops {
            step(&mut new, &mut old, op)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The controller's own pattern: every flow installed once on its RSS
    /// queue, then long runs of steered packets with periodic counter
    /// polls and rewrites between the paths.
    #[test]
    fn rmt_matches_reference_over_controller_runs(
        flows in 1u32..IDS,
        rounds in 1usize..16,
        codes in prop::collection::vec(0u8..6, 1..64),
        burst in 1u32..12,
    ) {
        let fast0 = action(0);
        let mut new = RmtEngine::new(fast0);
        let mut old = Old::new(fast0);
        for id in 0..flows {
            step(&mut new, &mut old, &Op::Install(id, action((id % 4) as u8)))?;
        }
        for round in 0..rounds {
            for id in 0..flows {
                for _ in 0..burst {
                    step(&mut new, &mut old, &Op::Steer(id))?;
                }
                step(&mut new, &mut old, &Op::PollHits(id))?;
                let code = codes[(round + id as usize) % codes.len()];
                step(&mut new, &mut old, &Op::SetAction(id, action(code)))?;
            }
        }
    }
}
