//! Golden pin for the many-flow path: a Fig. 12-style CEIO echo run with
//! 256 UD flows, 16 senders re-drawing their destination every 100 µs,
//! over 16 shared polling cores. Each core serves ~16 flows, most of them
//! idle at any instant, so this is the run that exercises the per-flow
//! tables and the driver-poll scan over idle flows.
//!
//! The golden file pins every report scalar and per-window series value
//! exactly (floats by their shortest round-trip representation) plus the
//! engine's dispatch count. It was captured before the dense flow tables
//! and the idle-skipping poll landed, so any drift means a hot-path change
//! altered observable behaviour. When a change is intentional, regenerate
//! with
//!
//! ```text
//! CEIO_GOLDEN_REGEN=1 cargo test --test many_flow_churn
//! ```
//!
//! and review the diff like any other code change.

mod common;

use ceio::apps::EchoApp;
use ceio::core::{CeioConfig, CeioPolicy};
use ceio::host::{run_to_report, HostConfig, Machine, RunReport};
use ceio::net::{FlowClass, FlowId, FlowSpec, Scenario};
use ceio::sim::{Bandwidth, Duration, Rng, Time};

/// Registered flows (QPs); all exist from t = 0.
const FLOWS: u32 = 256;
/// Concurrently active senders, and shared polling cores.
const ACTIVE: usize = 16;
/// Slot after which every active sender hops to a new destination.
const SLOT: Duration = Duration::micros(100);
const WARMUP: Duration = Duration::micros(500);
const MEASURE: Duration = Duration::micros(500);
const SEED: u64 = 0xCE10;

/// The destination-hopping scenario: each slot re-draws the active set
/// uniformly from `SEED`; flows leaving it drop to zero demand.
fn hopping_scenario(link: Bandwidth) -> Scenario {
    let per = link.scale(1, ACTIVE as u64);
    let idle = Bandwidth::bytes_per_sec(0);
    let mut s = Scenario::new();
    let mut rng = Rng::seed_from_u64(SEED);
    let mut active: Vec<u32> = (0..ACTIVE as u32).collect();
    for i in 0..FLOWS {
        let demand = if active.contains(&i) { per } else { idle };
        s.start_at(
            Time::ZERO,
            FlowSpec::new(i, FlowClass::CpuInvolved, 512, 1, demand),
        );
    }
    let horizon = Time::ZERO + WARMUP + MEASURE;
    let mut t = Time::ZERO + SLOT;
    while t < horizon {
        let mut next: Vec<u32> = Vec::with_capacity(ACTIVE);
        while next.len() < ACTIVE {
            let cand = rng.gen_range(FLOWS as u64) as u32;
            if !next.contains(&cand) {
                next.push(cand);
            }
        }
        for &old in active.iter().filter(|f| !next.contains(f)) {
            s.set_demand_at(t, FlowId(old), idle);
        }
        for &new in next.iter().filter(|f| !active.contains(f)) {
            s.set_demand_at(t, FlowId(new), per);
        }
        active = next;
        t += SLOT;
    }
    s.build()
}

/// Run the churn scenario once; returns the report and the number of
/// events the engine dispatched.
fn run_churn() -> (RunReport, u64) {
    let host = HostConfig {
        num_cores: Some(ACTIVE),
        sample_window: Duration::micros(50),
        seed: SEED,
        ..HostConfig::default()
    };
    let policy = CeioPolicy::new(CeioConfig {
        credit_total: host.credit_total(),
        ..CeioConfig::default()
    });
    let scenario = hopping_scenario(host.net.link_bandwidth);
    let mut sim = Machine::build(
        host,
        policy,
        scenario,
        Box::new(|_| Box::new(EchoApp::new())),
    );
    let report = run_to_report(&mut sim, WARMUP, MEASURE);
    (report, sim.events_processed())
}

#[test]
fn churn256_ceio_matches_golden_and_is_deterministic() {
    let (report, events) = run_churn();
    let actual = common::render(&report, events);
    assert!(
        report.involved_mpps > 0.0 && report.slow_path_pkts > 0,
        "the churn run must deliver on both paths"
    );
    let (again, again_events) = run_churn();
    assert_eq!(
        actual,
        common::render(&again, again_events),
        "two runs of the same configuration must agree byte-for-byte"
    );

    common::assert_matches_golden("churn256_ceio.txt", &actual, "the many-flow churn run");
}
