//! Golden pins for the many-flow path.
//!
//! * A Fig. 12-style CEIO echo run with 256 UD flows, 16 senders
//!   re-drawing their destination every 100 µs, over 16 shared polling
//!   cores. Each core serves ~16 flows, most of them idle at any instant,
//!   so this is the run that exercises the per-flow tables and the
//!   driver-poll scan over idle flows.
//! * A 256-flow turnover run: 64 flows live at a time, and every 40 µs the
//!   16 oldest leave (half by a scenario stop, half by reaching their
//!   spec's stop time) while 16 new ones join. A core keeps serving a
//!   stopped flow until its in-flight packets drain. It runs on 16 shared
//!   cores and on dedicated cores, where a new flow reuses the first core
//!   whose service list has emptied. This is the run that exercises
//!   teardown, the service-list pruning and core reuse.
//!
//! Each golden file pins every report scalar and per-window series value
//! exactly (floats by their shortest round-trip representation) plus the
//! engine's dispatch count. The hopping golden was captured before the
//! dense flow tables and the idle-skipping poll landed, the turnover
//! goldens before the busy-flow poll and the lazily pruned service lists,
//! so any drift means a hot-path change altered observable behaviour.
//! When a change is intentional, regenerate with
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

/// Registered flows (QPs) per run; the hopping run starts them all at
/// t = 0.
const FLOWS: u32 = 256;
/// Concurrently active senders, and shared polling cores.
const ACTIVE: usize = 16;
/// Slot after which every active sender hops to a new destination.
const SLOT: Duration = Duration::micros(100);
const WARMUP: Duration = Duration::micros(500);
const MEASURE: Duration = Duration::micros(500);
const SEED: u64 = 0xCE10;
/// Timers the hopping run cancels (one pending Emit per demand change).
const CHURN_CANCELLED: u64 = 133;

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

/// Flows live at once in the turnover run.
const LIVE: u32 = 64;
/// Flows leaving (and joining) at each turnover step.
const TURNOVER: u32 = 16;
/// Interval between turnover steps.
const TURN: Duration = Duration::micros(40);
const TURN_WARMUP: Duration = Duration::micros(300);
const TURN_MEASURE: Duration = Duration::micros(300);

/// Join instant of turnover flow `i`: the first `LIVE` at t = 0, then
/// `TURNOVER` more every `TURN`.
fn joins_at(i: u32) -> Time {
    if i < LIVE {
        Time::ZERO
    } else {
        Time::ZERO + TURN.saturating_mul(u64::from((i - LIVE) / TURNOVER + 1))
    }
}

/// The turnover scenario: flow `i` leaves when flow `i + LIVE` joins (the
/// last `LIVE` flows stay to the end). Even ids leave by a scenario stop,
/// odd ids by their spec's stop time, so both teardown paths run.
fn turnover_scenario(link: Bandwidth) -> Scenario {
    let per = link.scale(1, u64::from(LIVE));
    let mut s = Scenario::new();
    for i in 0..FLOWS {
        let mut spec = FlowSpec::new(i, FlowClass::CpuInvolved, 512, 1, per);
        let leaves = (i + LIVE < FLOWS).then(|| joins_at(i + LIVE));
        match leaves {
            Some(t) if i % 2 == 0 => {
                s.stop_at(t, FlowId(i));
            }
            Some(t) => spec.stop = t,
            None => {}
        }
        s.start_at(joins_at(i), spec);
    }
    s.build()
}

/// Build and run one CEIO echo machine; returns the report, the number of
/// events the engine dispatched, and the number of timers it cancelled.
fn run_ceio(
    num_cores: Option<usize>,
    scenario: impl FnOnce(Bandwidth) -> Scenario,
    warmup: Duration,
    measure: Duration,
) -> (RunReport, u64, u64) {
    let host = HostConfig {
        num_cores,
        sample_window: Duration::micros(50),
        seed: SEED,
        ..HostConfig::default()
    };
    let policy = CeioPolicy::new(CeioConfig {
        credit_total: host.credit_total(),
        ..CeioConfig::default()
    });
    let scenario = scenario(host.net.link_bandwidth);
    let mut sim = Machine::build(
        host,
        policy,
        scenario,
        Box::new(|_| Box::new(EchoApp::new())),
    );
    let report = run_to_report(&mut sim, warmup, measure);
    (report, sim.events_processed(), sim.queue.cancelled_total())
}

/// Run the hopping scenario once.
fn run_churn() -> (RunReport, u64, u64) {
    run_ceio(Some(ACTIVE), hopping_scenario, WARMUP, MEASURE)
}

/// Run the turnover scenario twice, require byte-identical renders, and
/// diff against `golden`.
fn check_turnover(num_cores: Option<usize>, golden: &str, what: &str) {
    let run = || {
        let (report, events, _) = run_ceio(num_cores, turnover_scenario, TURN_WARMUP, TURN_MEASURE);
        assert!(
            report.involved_mpps > 0.0 && report.slow_path_pkts > 0,
            "the turnover run must deliver on both paths"
        );
        common::render(&report, events)
    };
    let actual = run();
    assert_eq!(
        actual,
        run(),
        "two runs of the same configuration must agree byte-for-byte"
    );
    common::assert_matches_golden(golden, &actual, what);
}

#[test]
fn churn256_ceio_matches_golden_and_is_deterministic() {
    let (report, events, cancelled) = run_churn();
    let actual = common::render(&report, events);
    assert!(
        report.involved_mpps > 0.0 && report.slow_path_pkts > 0,
        "the churn run must deliver on both paths"
    );
    // Every demand retarget cancels the flow's pending Emit timer, so this
    // fault-free run exercises cancellation; the count is pinned next to
    // the dispatch count the golden holds.
    assert!(cancelled > 0, "the hopping run must cancel timers");
    assert_eq!(
        cancelled, CHURN_CANCELLED,
        "the hopping run's cancelled-timer count drifted"
    );
    let (again, again_events, _) = run_churn();
    assert_eq!(
        actual,
        common::render(&again, again_events),
        "two runs of the same configuration must agree byte-for-byte"
    );

    common::assert_matches_golden("churn256_ceio.txt", &actual, "the many-flow churn run");
}

#[test]
fn turnover256_shared_cores_match_golden_and_are_deterministic() {
    check_turnover(
        Some(ACTIVE),
        "turnover256_shared.txt",
        "the shared-core turnover run",
    );
}

#[test]
fn turnover256_dedicated_cores_match_golden_and_are_deterministic() {
    check_turnover(
        None,
        "turnover256_dedicated.txt",
        "the dedicated-core turnover run",
    );
}
