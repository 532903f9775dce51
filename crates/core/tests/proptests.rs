//! Property-based tests of CEIO's core data structures.
//!
//! * The credit manager conserves credits under *any* operation sequence
//!   (Eq. 1 is only a safety bound if no credit can ever be minted or
//!   leaked).
//! * The software ring (`ceio_host::SwRing`, each flow's receive path in
//!   the host machine) delivers in exact arrival order under any
//!   interleaving of fast reservations, out-of-order retires, slow
//!   parking, fetches, and receives.

use ceio_core::CreditManager;
use ceio_host::{ReadyPkt, SwRing};
use ceio_mem::BufferId;
use ceio_net::{FlowId, Packet, PacketId};
use ceio_sim::Time;
use proptest::prelude::*;

/// Operations against the credit manager.
#[derive(Debug, Clone)]
enum CreditOp {
    AddFlows(Vec<u8>),
    Remove(u8),
    Consume(u8, u8),
    Release(u8, u8),
    Reclaim(u8),
    Grant(u8, u16),
    GrantEvenly(Vec<u8>),
}

fn credit_op() -> impl Strategy<Value = CreditOp> {
    prop_oneof![
        prop::collection::vec(0u8..16, 1..4).prop_map(CreditOp::AddFlows),
        (0u8..16).prop_map(CreditOp::Remove),
        (0u8..16, 1u8..64).prop_map(|(f, n)| CreditOp::Consume(f, n)),
        (0u8..16, 1u8..64).prop_map(|(f, n)| CreditOp::Release(f, n)),
        (0u8..16).prop_map(CreditOp::Reclaim),
        (0u8..16, 0u16..512).prop_map(|(f, n)| CreditOp::Grant(f, n)),
        prop::collection::vec(0u8..16, 0..6).prop_map(CreditOp::GrantEvenly),
    ]
}

proptest! {
    /// Conservation invariant: Σ flow credits + pool + outstanding ==
    /// total, after any sequence of operations, and no counter ever
    /// exceeds the total.
    #[test]
    fn credit_manager_conserves(total in 1u64..5000, ops in prop::collection::vec(credit_op(), 1..200)) {
        let mut cm = CreditManager::new(total);
        for op in ops {
            match op {
                CreditOp::AddFlows(ids) => {
                    let ids: Vec<FlowId> = ids.into_iter().map(|i| FlowId(i as u32)).collect();
                    cm.add_flows(&ids);
                }
                CreditOp::Remove(f) => cm.remove_flow(FlowId(f as u32)),
                CreditOp::Consume(f, n) => {
                    for _ in 0..n {
                        let _ = cm.try_consume(FlowId(f as u32));
                    }
                }
                CreditOp::Release(f, n) => cm.release(FlowId(f as u32), n as u64),
                CreditOp::Reclaim(f) => {
                    let _ = cm.reclaim(FlowId(f as u32));
                }
                CreditOp::Grant(f, n) => {
                    let _ = cm.grant(FlowId(f as u32), n as u64);
                }
                CreditOp::GrantEvenly(ids) => {
                    let ids: Vec<FlowId> = ids.into_iter().map(|i| FlowId(i as u32)).collect();
                    cm.grant_evenly(&ids);
                }
            }
            prop_assert!(cm.conserved(), "conservation violated after an op");
            prop_assert!(cm.outstanding() <= total);
            prop_assert!(cm.free_pool() <= total);
        }
    }

    /// Outstanding credits exactly track successful consumes minus
    /// releases (clamped at zero), independent of reallocation noise.
    #[test]
    fn outstanding_tracks_consume_release(
        total in 64u64..4096,
        consumes in 0u64..256,
        releases in 0u64..256,
    ) {
        let mut cm = CreditManager::new(total);
        cm.add_flows(&[FlowId(1)]);
        let mut ok = 0u64;
        for _ in 0..consumes {
            if cm.try_consume(FlowId(1)) {
                ok += 1;
            }
        }
        prop_assert_eq!(cm.outstanding(), ok);
        cm.release(FlowId(1), releases);
        prop_assert_eq!(cm.outstanding(), ok.saturating_sub(releases));
        prop_assert!(cm.conserved());
    }
}

/// Operations against the software ring.
#[derive(Debug, Clone)]
enum RingOp {
    /// Reserve a fast-path descriptor (packet in DMA flight).
    PushFast,
    /// An in-flight fast-path packet (picked by index) retires.
    Retire(u8),
    PushSlow,
    /// Take a fetch batch of at most this many parked packets.
    Fetch(u8),
    /// A driver poll takes at most this many packets.
    Recv(u8),
    CompleteFetches,
}

fn ring_op() -> impl Strategy<Value = RingOp> {
    prop_oneof![
        3 => Just(RingOp::PushFast),
        3 => any::<u8>().prop_map(RingOp::Retire),
        2 => Just(RingOp::PushSlow),
        1 => (1u8..17).prop_map(RingOp::Fetch),
        3 => (1u8..64).prop_map(RingOp::Recv),
        2 => Just(RingOp::CompleteFetches),
    ]
}

/// A packet whose id is its arrival sequence number.
fn ring_pkt(seq: u64) -> Packet {
    Packet {
        id: PacketId(seq),
        flow: FlowId(0),
        bytes: 512,
        msg_id: 0,
        msg_seq: 0,
        msg_last: false,
        sent_at: Time::ZERO,
        arrived_nic: Time::ZERO,
        ecn: false,
    }
}

/// Land packet `seq` in host memory; the ring must accept it (no teardown
/// runs in these properties, so nothing is stale).
fn land(ring: &mut SwRing, seq: u64, via_slow: bool) {
    let rp = ReadyPkt {
        pkt: ring_pkt(seq),
        buf: BufferId(seq),
        ready: Time::ZERO,
        via_slow,
    };
    assert!(
        !ring.retire(seq, rp),
        "no teardown ran, so nothing is stale"
    );
}

/// Deliver everything deliverable; the delivered packet ids.
fn recv(ring: &mut SwRing, max: usize) -> Vec<u64> {
    let mut out = Vec::new();
    ring.take_deliverable(Time::ZERO, max, &mut out);
    out.iter().map(|rp| rp.pkt.id.0).collect()
}

/// Fetch every parked packet and land it with every fetch in flight.
fn fetch_and_land_all(ring: &mut SwRing, fetching: &mut Vec<u64>) {
    let mut batch = Vec::new();
    ring.take_fetch_batch(Time::ZERO, usize::MAX, &mut batch);
    fetching.extend(batch.iter().map(|sp| sp.nic_seq));
    for seq in fetching.drain(..) {
        land(ring, seq, true);
    }
}

proptest! {
    /// In-order delivery: under any interleaving of fast reservations,
    /// out-of-order retires, slow parking, fetches and receives, the ring
    /// hands back packets in exactly their arrival order, with no loss or
    /// duplication, and everything drains once all packets land.
    #[test]
    fn swring_delivers_in_push_order(ops in prop::collection::vec(ring_op(), 1..300)) {
        let mut ring = SwRing::new(4096);
        let mut in_flight: Vec<u64> = Vec::new();
        let mut fetching: Vec<u64> = Vec::new();
        let mut delivered: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                RingOp::PushFast => in_flight.extend(ring.reserve_fast()),
                RingOp::Retire(i) => {
                    if !in_flight.is_empty() {
                        let seq = in_flight.swap_remove(i as usize % in_flight.len());
                        land(&mut ring, seq, false);
                    }
                }
                RingOp::PushSlow => {
                    ring.park_slow(ring_pkt(ring.arrivals()), Time::ZERO);
                }
                RingOp::Fetch(max) => {
                    let mut batch = Vec::new();
                    ring.take_fetch_batch(Time::ZERO, max as usize, &mut batch);
                    fetching.extend(batch.iter().map(|sp| sp.nic_seq));
                }
                RingOp::Recv(max) => delivered.extend(recv(&mut ring, max as usize)),
                RingOp::CompleteFetches => {
                    for seq in fetching.drain(..) {
                        land(&mut ring, seq, true);
                    }
                }
            }
            // Conservation at every step: every sequence number assigned
            // is delivered, ready, parked or in flight, exactly once.
            prop_assert_eq!(ring.base(), delivered.len() as u64);
            prop_assert_eq!(
                delivered.len()
                    + ring.ready_len()
                    + ring.parked_len()
                    + ring.fetching() as usize
                    + ring.inflight() as usize,
                ring.arrivals() as usize,
                "delivered + ready + parked + in flight must equal arrivals"
            );
            prop_assert_eq!(ring.inflight() as usize, in_flight.len());
            prop_assert_eq!(ring.fetching() as usize, fetching.len());
        }
        // Drain: land everything in flight, fetch the rest, receive.
        for seq in in_flight.drain(..) {
            land(&mut ring, seq, false);
        }
        fetch_and_land_all(&mut ring, &mut fetching);
        delivered.extend(recv(&mut ring, usize::MAX));
        prop_assert!(!ring.has_pending(), "ring must drain fully");
        let want: Vec<u64> = (0..ring.arrivals()).collect();
        prop_assert_eq!(delivered, want, "no loss, no duplication, arrival order");
    }

    /// The fast ring's descriptor bound is never violated and
    /// `reserve_fast` fails exactly when the bound is reached.
    #[test]
    fn swring_fast_capacity_enforced(cap in 1u32..64, pushes in 1u32..200) {
        let mut ring = SwRing::new(cap);
        let mut accepted = 0;
        for _ in 0..pushes {
            if ring.reserve_fast().is_some() {
                accepted += 1;
            }
            prop_assert!(ring.outstanding() <= cap);
        }
        prop_assert_eq!(accepted, pushes.min(cap));
        prop_assert_eq!(ring.arrivals(), u64::from(accepted), "refusals take no sequence number");
    }

    /// Regression property for the occupancy confusion the bounded model
    /// checker caught: delivering *fetched slow* entries must not release
    /// fast-path capacity, because they never held an RX-ring descriptor.
    /// After delivering every fast and slow entry, the ring accepts
    /// exactly `cap` further fast reservations — never more.
    #[test]
    fn swring_slow_delivery_does_not_free_fast_slots(
        cap in 1u32..16,
        slow in 1u32..32,
        fast_before in 0u32..16,
    ) {
        let mut ring = SwRing::new(cap);
        let held: Vec<u64> = (0..fast_before).filter_map(|_| ring.reserve_fast()).collect();
        for seq in held {
            land(&mut ring, seq, false);
        }
        for _ in 0..slow {
            ring.park_slow(ring_pkt(ring.arrivals()), Time::ZERO);
        }
        fetch_and_land_all(&mut ring, &mut Vec::new());
        let delivered = recv(&mut ring, usize::MAX);
        prop_assert_eq!(delivered.len() as u64, ring.arrivals());
        prop_assert!(!ring.has_pending());
        // All fast entries were delivered too, so the full capacity — and
        // not one slot more — must now be available.
        let reaccepted = (0..cap + slow).filter_map(|_| ring.reserve_fast()).count();
        prop_assert_eq!(reaccepted, cap as usize, "freed slots must equal capacity exactly");
    }
}

/// Operations against the *leased* credit manager: the base alphabet plus
/// watchdog time advancement. Models a chaotic environment where lazy
/// releases can be lost (a consume with no matching release) or arrive
/// late (after the watchdog reclaimed the grant).
#[derive(Debug, Clone)]
enum LeasedOp {
    Base(CreditOp),
    /// Advance the lease clock by `ticks` nanoseconds and run the
    /// watchdog.
    AdvanceExpire(u8),
}

fn leased_op() -> impl Strategy<Value = LeasedOp> {
    prop_oneof![
        4 => credit_op().prop_map(LeasedOp::Base),
        1 => (1u8..200).prop_map(LeasedOp::AdvanceExpire),
    ]
}

proptest! {
    /// Lease safety under arbitrary chaos: whatever interleaving of
    /// consumes, (possibly stale) releases, reallocation, and watchdog
    /// sweeps occurs, Eq. 1 conservation holds, the lease ledger tracks
    /// `outstanding` exactly (leases are armed from birth, so every grant
    /// carries one), and a final watchdog sweep past every TTL returns
    /// *all* outstanding credits — lost releases can delay recycling but
    /// never strand credit.
    #[test]
    fn leased_credit_manager_conserves_and_reclaims(
        total in 1u64..2000,
        ttl in 1u64..100,
        ops in prop::collection::vec(leased_op(), 1..150),
    ) {
        use ceio_sim::{Duration, Time};
        let mut cm = CreditManager::new(total);
        cm.enable_leases(Duration::nanos(ttl));
        let mut now = 0u64;
        for op in ops {
            match op {
                LeasedOp::Base(CreditOp::AddFlows(ids)) => {
                    let ids: Vec<FlowId> = ids.into_iter().map(|i| FlowId(i as u32)).collect();
                    cm.add_flows(&ids);
                }
                LeasedOp::Base(CreditOp::Remove(f)) => cm.remove_flow(FlowId(f as u32)),
                LeasedOp::Base(CreditOp::Consume(f, n)) => {
                    for _ in 0..n {
                        let _ = cm.try_consume(FlowId(f as u32));
                    }
                }
                LeasedOp::Base(CreditOp::Release(f, n)) => cm.release(FlowId(f as u32), n as u64),
                LeasedOp::Base(CreditOp::Reclaim(f)) => {
                    let _ = cm.reclaim(FlowId(f as u32));
                }
                LeasedOp::Base(CreditOp::Grant(f, n)) => {
                    let _ = cm.grant(FlowId(f as u32), n as u64);
                }
                LeasedOp::Base(CreditOp::GrantEvenly(ids)) => {
                    let ids: Vec<FlowId> = ids.into_iter().map(|i| FlowId(i as u32)).collect();
                    cm.grant_evenly(&ids);
                }
                LeasedOp::AdvanceExpire(ticks) => {
                    now += ticks as u64;
                    cm.set_now(Time(now));
                    let _ = cm.expire_leases();
                }
            }
            prop_assert!(cm.conserved(), "conservation violated after an op");
            prop_assert_eq!(
                cm.live_leases(),
                cm.outstanding(),
                "armed-from-birth: every outstanding grant must hold a lease"
            );
        }
        // Final watchdog sweep past every possible TTL: nothing stays
        // stranded in `outstanding`, however many releases were lost.
        now += ttl + 1;
        cm.set_now(Time(now));
        let _ = cm.expire_leases();
        prop_assert_eq!(cm.outstanding(), 0, "watchdog must reclaim every lost grant");
        prop_assert!(cm.conserved());
        // Late (stale) releases after the sweep are dropped, never
        // double-credited.
        let pool = cm.free_pool();
        cm.release(FlowId(0), 5);
        prop_assert_eq!(cm.free_pool(), pool, "stale release must not mint credit");
        prop_assert!(cm.conserved());
    }
}
