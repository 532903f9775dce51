//! Property-based tests of the network substrate.

use ceio_net::generator::Pacing;
use ceio_net::ingress::{IngressLink, IngressOutcome};
use ceio_net::{Dctcp, FlowClass, FlowId, FlowMap, FlowSpec, NetParams, TrafficGen};
use ceio_sim::{Bandwidth, Duration, Rng, Time};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Feedback events fed to a DCTCP controller.
#[derive(Debug, Clone, Copy)]
enum Feedback {
    Ack(bool),
    Loss,
    Tick,
}

/// One operation on a per-flow table.
#[derive(Debug, Clone, Copy)]
enum MapOp {
    Insert(u32, u64),
    Remove(u32),
    Get(u32),
    GetMut(u32, u64),
}

/// Table operations over a small id space, so removals hit present ids,
/// leave holes, and later inserts refill them.
fn map_op() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        4 => (0u32..24, any::<u64>()).prop_map(|(id, v)| MapOp::Insert(id, v)),
        3 => (0u32..24).prop_map(MapOp::Remove),
        2 => (0u32..24).prop_map(MapOp::Get),
        2 => (0u32..24, any::<u64>()).prop_map(|(id, v)| MapOp::GetMut(id, v)),
    ]
}

fn feedback() -> impl Strategy<Value = Feedback> {
    prop_oneof![
        6 => any::<bool>().prop_map(Feedback::Ack),
        1 => Just(Feedback::Loss),
        2 => Just(Feedback::Tick),
    ]
}

proptest! {
    /// DCTCP's rate always stays within [min floor, demand] and alpha in
    /// [0, 1], for any feedback sequence.
    #[test]
    fn dctcp_rate_bounded(
        demand_gbps in 1u64..200,
        events in prop::collection::vec(feedback(), 1..500),
    ) {
        let demand = Bandwidth::gbps(demand_gbps);
        let mut cca = Dctcp::new(demand, Duration::micros(20));
        let mut t = Time::ZERO;
        for ev in events {
            t += Duration::micros(3);
            match ev {
                Feedback::Ack(m) => cca.on_feedback(t, m),
                Feedback::Loss => cca.on_loss(t),
                Feedback::Tick => cca.tick(t),
            }
            prop_assert!(cca.rate() <= demand, "rate above demand");
            prop_assert!(
                cca.rate().as_bytes_per_sec() > 0,
                "rate collapsed to zero without a pause"
            );
            prop_assert!((0.0..=1.0).contains(&cca.alpha()));
        }
    }

    /// set_demand(0) pauses; restoring demand resumes exactly at it.
    #[test]
    fn dctcp_pause_resume(demand_gbps in 1u64..200) {
        let demand = Bandwidth::gbps(demand_gbps);
        let mut cca = Dctcp::new(demand, Duration::micros(20));
        cca.set_demand(Bandwidth::bytes_per_sec(0));
        prop_assert!(cca.paused());
        prop_assert_eq!(cca.rate().as_bytes_per_sec(), 0);
        cca.set_demand(demand);
        prop_assert!(!cca.paused());
        prop_assert_eq!(cca.rate().as_bytes_per_sec(), demand.as_bytes_per_sec());
    }

    /// The generator's message framing is exact: for msg_packets = k, the
    /// sequence numbers cycle 0..k with msg_last on k-1, and msg_ids are
    /// consecutive.
    #[test]
    fn generator_message_framing(
        k in 1u32..100,
        pkt_bytes in 64u64..2048,
        n_msgs in 1u64..20,
    ) {
        let spec = FlowSpec::new(7, FlowClass::CpuBypass, pkt_bytes, k, Bandwidth::gbps(10));
        let mut g = TrafficGen::new(spec, Pacing::Cbr, Rng::seed_from_u64(1), 7);
        for msg in 0..n_msgs {
            for seq in 0..k {
                let p = g.emit(Time(msg * 1000 + seq as u64));
                prop_assert_eq!(p.msg_id, msg);
                prop_assert_eq!(p.msg_seq, seq);
                prop_assert_eq!(p.msg_last, seq == k - 1);
                prop_assert_eq!(p.bytes, pkt_bytes);
            }
        }
        prop_assert_eq!(g.emitted(), n_msgs * k as u64);
    }

    /// Ingress conservation and causality: every offer is either delivered
    /// or dropped; arrivals are monotone non-decreasing in offer order and
    /// never earlier than base delay + serialization.
    #[test]
    fn ingress_conserves_and_orders(
        offers in prop::collection::vec((0u64..100, 64u64..9000), 1..300),
    ) {
        let params = NetParams::default();
        let base = params.base_delay;
        let mut link = IngressLink::new(params);
        let mut t = Time::ZERO;
        let mut last_arrival = Time::ZERO;
        let mut delivered = 0u64;
        let mut dropped = 0u64;
        for (gap, bytes) in offers.iter().copied() {
            t += Duration::nanos(gap);
            match link.offer(t, bytes) {
                IngressOutcome::Delivered { arrival, .. } => {
                    prop_assert!(arrival >= t + base, "arrival violates base delay");
                    prop_assert!(arrival >= last_arrival, "link reordered packets");
                    last_arrival = arrival;
                    delivered += 1;
                }
                IngressOutcome::Dropped => dropped += 1,
            }
        }
        prop_assert_eq!(delivered + dropped, offers.len() as u64);
        prop_assert_eq!(link.stats().admitted, delivered);
        prop_assert_eq!(link.stats().dropped, dropped);
    }

    /// Scenario builders produce chronologically sorted events with unique
    /// flow ids across starts.
    #[test]
    fn scenario_builders_sorted_unique(
        phases in 1u32..5,
        phase_us in 100u64..5000,
    ) {
        use ceio_net::{Scenario, ScenarioEvent};
        let s = Scenario::dynamic_distribution(
            8, 2, phases, Duration::micros(phase_us), 512, 2048, 64, Bandwidth::gbps(200),
        );
        prop_assert!(s.events.windows(2).all(|w| w[0].0 <= w[1].0));
        let mut started: Vec<u32> = s
            .events
            .iter()
            .filter_map(|(_, e)| match e {
                ScenarioEvent::Start(f) => Some(f.id.0),
                _ => None,
            })
            .collect();
        let n = started.len();
        started.sort_unstable();
        started.dedup();
        prop_assert_eq!(started.len(), n, "duplicate flow id started");
    }

    /// `FlowMap` is observationally a `BTreeMap<FlowId, _>`: every
    /// operation returns what the ordered map returns, and after any
    /// sequence both hold the same entries, the same `len()`, and iterate
    /// in the same ascending id order.
    #[test]
    fn flow_map_matches_btreemap_oracle(ops in prop::collection::vec(map_op(), 0..200)) {
        let mut map: FlowMap<u64> = FlowMap::new();
        let mut oracle: BTreeMap<FlowId, u64> = BTreeMap::new();
        for op in ops {
            match op {
                MapOp::Insert(id, v) => {
                    prop_assert_eq!(map.insert(FlowId(id), v), oracle.insert(FlowId(id), v));
                }
                MapOp::Remove(id) => {
                    prop_assert_eq!(map.remove(&FlowId(id)), oracle.remove(&FlowId(id)));
                }
                MapOp::Get(id) => {
                    prop_assert_eq!(map.get(&FlowId(id)), oracle.get(&FlowId(id)));
                    prop_assert_eq!(
                        map.contains_key(&FlowId(id)),
                        oracle.contains_key(&FlowId(id))
                    );
                }
                MapOp::GetMut(id, v) => {
                    let a = map.get_mut(&FlowId(id)).map(|x| { *x ^= v; *x });
                    let b = oracle.get_mut(&FlowId(id)).map(|x| { *x ^= v; *x });
                    prop_assert_eq!(a, b);
                }
            }
            prop_assert_eq!(map.len(), oracle.len());
        }
        let got: Vec<(FlowId, u64)> = map.iter().map(|(k, v)| (k, *v)).collect();
        let want: Vec<(FlowId, u64)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(map.keys().collect::<Vec<_>>(), oracle.keys().copied().collect::<Vec<_>>());
        prop_assert_eq!(map.is_empty(), oracle.is_empty());
    }
}
