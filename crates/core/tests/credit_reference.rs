//! `CreditManager` against the map-based manager it replaced.
//!
//! The dense ledger (`FlowMap` tables, an ascending owed vector per flow,
//! repayment that stops once the release is spent) is a pure
//! re-representation of Algorithm 1: for any op trace the new manager
//! must make the same decisions as the reference in `oracle/` and expose
//! the same state after every step — every flow's credits, debt and
//! insufficient-set membership, the pool, the outstanding and total
//! counts, every `CreditStats` field, the live leases, conservation, each
//! op's return value, and the recorded trace events.
//!
//! Flow ids come from a small space so batches carry duplicates and
//! already-present ids, removed flows rejoin, and debts pile up: flows
//! spend most of their credits before newcomers arrive, so assignment
//! runs into the owe-the-shortfall branch and releases repay creditors.

mod oracle;

use ceio_core::credit::CreditStats;
use ceio_core::CreditManager;
use ceio_net::FlowId;
use ceio_sim::{Duration, Time};
use oracle::credit::{CreditManager as Reference, CreditStats as RefStats};
use proptest::prelude::*;

/// Flow ids are drawn from `0..IDS`.
const IDS: u32 = 12;

#[derive(Debug, Clone)]
enum Op {
    AddFlows(Vec<u32>),
    TryConsume(u32, u32),
    Release(u32, u64),
    ReleaseToPool(u32, u64),
    Reclaim(u32),
    Grant(u32, u64),
    GrantEvenly(Vec<u32>),
    RemoveFlow(u32),
    EnableLeases(u64),
    Advance(u64),
    ExpireLeases,
    InjectPool(u64),
    WithdrawPool(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let ids = || prop::collection::vec(0..IDS, 0..5);
    prop_oneof![
        3 => ids().prop_map(Op::AddFlows),
        4 => (0..IDS, 1u32..400).prop_map(|(f, n)| Op::TryConsume(f, n)),
        4 => (0..IDS, 0u64..300).prop_map(|(f, g)| Op::Release(f, g)),
        1 => (0..IDS, 0u64..100).prop_map(|(f, g)| Op::ReleaseToPool(f, g)),
        1 => (0..IDS).prop_map(Op::Reclaim),
        1 => (0..IDS, 0u64..200).prop_map(|(f, n)| Op::Grant(f, n)),
        1 => ids().prop_map(Op::GrantEvenly),
        1 => (0..IDS).prop_map(Op::RemoveFlow),
        1 => (1u64..500).prop_map(Op::EnableLeases),
        2 => (0u64..300).prop_map(Op::Advance),
        1 => Just(Op::ExpireLeases),
        1 => (0u64..200).prop_map(Op::InjectPool),
        1 => (0u64..200).prop_map(Op::WithdrawPool),
    ]
}

fn stats_fields(s: &CreditStats) -> [u64; 6] {
    [
        s.consumed,
        s.denied,
        s.debts_repaid,
        s.reclaims,
        s.lease_reclaims,
        s.stale_releases,
    ]
}

fn ref_stats_fields(s: &RefStats) -> [u64; 6] {
    [
        s.consumed,
        s.denied,
        s.debts_repaid,
        s.reclaims,
        s.lease_reclaims,
        s.stale_releases,
    ]
}

fn flows(ids: &[u32]) -> Vec<FlowId> {
    ids.iter().copied().map(FlowId).collect()
}

/// Apply `op` to both managers; the ops that return a value must return
/// the same one.
fn apply(
    new: &mut CreditManager,
    old: &mut Reference,
    now: &mut Time,
    op: &Op,
) -> Result<(), TestCaseError> {
    match op {
        Op::AddFlows(ids) => {
            new.add_flows(&flows(ids));
            old.add_flows(&flows(ids));
        }
        Op::TryConsume(f, n) => {
            for _ in 0..*n {
                prop_assert_eq!(new.try_consume(FlowId(*f)), old.try_consume(FlowId(*f)));
            }
        }
        Op::Release(f, g) => {
            new.release(FlowId(*f), *g);
            old.release(FlowId(*f), *g);
        }
        Op::ReleaseToPool(f, g) => {
            new.release_to_pool(FlowId(*f), *g);
            old.release_to_pool(FlowId(*f), *g);
        }
        Op::Reclaim(f) => prop_assert_eq!(new.reclaim(FlowId(*f)), old.reclaim(FlowId(*f))),
        Op::Grant(f, n) => prop_assert_eq!(new.grant(FlowId(*f), *n), old.grant(FlowId(*f), *n)),
        Op::GrantEvenly(ids) => {
            new.grant_evenly(&flows(ids));
            old.grant_evenly(&flows(ids));
        }
        Op::RemoveFlow(f) => {
            new.remove_flow(FlowId(*f));
            old.remove_flow(FlowId(*f));
        }
        Op::EnableLeases(ttl) => {
            // Arming replaces any earlier lease table in both.
            new.enable_leases(Duration::nanos(*ttl));
            old.enable_leases(Duration::nanos(*ttl));
            new.set_now(*now);
            old.set_now(*now);
        }
        Op::Advance(dt) => {
            *now += Duration::nanos(*dt);
            new.set_now(*now);
            old.set_now(*now);
            new.set_trace_now(*now);
            old.set_trace_now(*now);
        }
        Op::ExpireLeases => prop_assert_eq!(new.expire_leases(), old.expire_leases()),
        Op::InjectPool(n) => {
            new.inject_pool(*n);
            old.inject_pool(*n);
        }
        Op::WithdrawPool(n) => prop_assert_eq!(new.withdraw_pool(*n), old.withdraw_pool(*n)),
    }
    Ok(())
}

/// Every public observable of both managers must agree.
fn assert_same(new: &CreditManager, old: &Reference, at: &Op) -> Result<(), TestCaseError> {
    for f in (0..IDS).map(FlowId) {
        prop_assert_eq!(
            new.credits(f),
            old.credits(f),
            "credits({:?}) after {:?}",
            f,
            at
        );
        prop_assert_eq!(
            new.debt_of(f),
            old.debt_of(f),
            "debt_of({:?}) after {:?}",
            f,
            at
        );
        prop_assert_eq!(
            new.in_insufficient(f),
            old.in_insufficient(f),
            "in_insufficient({:?}) after {:?}",
            f,
            at
        );
    }
    prop_assert_eq!(new.free_pool(), old.free_pool(), "pool after {:?}", at);
    prop_assert_eq!(
        new.outstanding(),
        old.outstanding(),
        "outstanding after {:?}",
        at
    );
    prop_assert_eq!(new.total(), old.total(), "total after {:?}", at);
    prop_assert_eq!(
        new.flow_count(),
        old.flow_count(),
        "flow_count after {:?}",
        at
    );
    prop_assert_eq!(
        new.assigned_total(),
        old.assigned_total(),
        "assigned after {:?}",
        at
    );
    prop_assert_eq!(
        stats_fields(new.stats()),
        ref_stats_fields(old.stats()),
        "stats after {:?}",
        at
    );
    prop_assert_eq!(
        new.live_leases(),
        old.live_leases(),
        "live leases after {:?}",
        at
    );
    prop_assert_eq!(
        new.leases_enabled(),
        old.leases_enabled(),
        "leases armed after {:?}",
        at
    );
    prop_assert_eq!(new.conserved(), old.conserved(), "conserved after {:?}", at);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dense_ledger_matches_map_reference(
        total in 1u64..4000,
        ops in prop::collection::vec(op_strategy(), 1..120),
    ) {
        let mut new = CreditManager::new(total);
        let mut old = Reference::new(total);
        new.arm_trace(1 << 16);
        old.arm_trace(1 << 16);
        let mut now = Time::ZERO;
        for op in &ops {
            apply(&mut new, &mut old, &mut now, op)?;
            assert_same(&new, &old, op)?;
        }
        prop_assert_eq!(new.trace_take(), old.trace_take(), "recorded trace");
    }
}

/// The shape Fig. 12 drives: flows joining one at a time while earlier
/// ones hold most of their credits in flight, so each newcomer leaves a
/// long owed ledger behind, then releases repay it. Long ledgers are where
/// a release stops part-way, so the even spread's cut-off is exercised.
#[test]
fn sequential_joins_under_load_match_reference() {
    let mut new = CreditManager::new(3072);
    let mut old = Reference::new(3072);
    let mut now = Time::ZERO;
    for id in 0..200u32 {
        let f = FlowId(id);
        apply(&mut new, &mut old, &mut now, &Op::AddFlows(vec![id])).expect("same returns");
        apply(&mut new, &mut old, &mut now, &Op::TryConsume(id, 14)).expect("same returns");
        if id % 3 == 0 {
            let g = u64::from(id % 7) + 1;
            apply(&mut new, &mut old, &mut now, &Op::Release(id / 2, g)).expect("same returns");
        }
        assert_same(&new, &old, &Op::AddFlows(vec![id])).expect("managers agree");
        assert!(new.conserved(), "{f:?}");
    }
    assert!(
        (0..200).any(|i| new.debt_of(FlowId(i)) > 0),
        "debts must build up"
    );
    for id in 0..200u32 {
        apply(&mut new, &mut old, &mut now, &Op::Release(id, 9)).expect("same returns");
        assert_same(&new, &old, &Op::Release(id, 9)).expect("managers agree");
    }
}
