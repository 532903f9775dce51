//! End-to-end tests of the host machine with the unmanaged (baseline)
//! policy: packet lifecycle, determinism, overload behaviour, and the LLC
//! thrashing pathology the whole paper is about.

use ceio_cpu::{AppWork, Application};
use ceio_host::{
    run_to_report, AppFactory, DrainRequest, HostConfig, HostState, IoPolicy, Machine,
    SteerDecision, UnmanagedPolicy,
};
use ceio_net::{FlowClass, FlowId, FlowMap, FlowSpec, Packet, Scenario};
use ceio_sim::{Bandwidth, Duration, Time};

/// A minimal echo-style app: tiny fixed compute, zero-copy.
struct EchoApp;
impl Application for EchoApp {
    fn name(&self) -> &str {
        "echo"
    }
    fn process(&mut self, _pkt: &Packet) -> AppWork {
        AppWork::compute(Duration::nanos(30))
    }
}

fn echo_factory() -> AppFactory {
    Box::new(|_spec| Box::new(EchoApp))
}

fn single_flow_scenario(rate_gbps: u64, pkt_bytes: u64) -> Scenario {
    let mut s = Scenario::new();
    s.start_at(
        Time::ZERO,
        FlowSpec::new(
            0,
            FlowClass::CpuInvolved,
            pkt_bytes,
            1,
            Bandwidth::gbps(rate_gbps),
        ),
    );
    s.build()
}

#[test]
fn single_flow_delivers_at_offered_load() {
    // 5 Gbps of 1024 B packets ≈ 0.61 Mpps — far below any bottleneck.
    let sim_scenario = single_flow_scenario(5, 1024);
    let mut sim = Machine::build(
        HostConfig::default(),
        UnmanagedPolicy,
        sim_scenario,
        echo_factory(),
    );
    let report = run_to_report(&mut sim, Duration::millis(2), Duration::millis(5));
    let expect_mpps = 5e9 / 8.0 / 1024.0 / 1e6;
    assert!(
        (report.involved_mpps - expect_mpps).abs() / expect_mpps < 0.05,
        "delivered {} Mpps, expected ~{expect_mpps}",
        report.involved_mpps
    );
    assert_eq!(report.dropped, 0, "no drops at light load");
    assert!(report.llc_miss_rate < 0.02, "light load should hit in LLC");
}

#[test]
fn light_load_latency_is_microseconds() {
    let mut sim = Machine::build(
        HostConfig::default(),
        UnmanagedPolicy,
        single_flow_scenario(5, 1024),
        echo_factory(),
    );
    let report = run_to_report(&mut sim, Duration::millis(1), Duration::millis(4));
    // Path: 2 µs network + ~50 ns wire + ~700 ns PCIe+retire + poll + app.
    let p50 = report.involved_latency.p50();
    assert!(
        p50 > 2_000,
        "latency must include network delay, got {p50} ns"
    );
    assert!(
        p50 < 10_000,
        "light-load p50 should be µs-scale, got {p50} ns"
    );
    assert!(report.involved_latency.p999() < 50_000);
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut sim = Machine::build(
            HostConfig::default(),
            UnmanagedPolicy,
            single_flow_scenario(20, 512),
            echo_factory(),
        );
        let r = run_to_report(&mut sim, Duration::millis(1), Duration::millis(3));
        (
            r.involved_mpps.to_bits(),
            r.llc_miss_rate.to_bits(),
            r.involved_latency.p999(),
            r.dropped,
            sim.events_processed(),
        )
    };
    assert_eq!(run(), run(), "same seed must reproduce bit-identically");
}

#[test]
fn seed_changes_jitter_but_not_shape() {
    let run = |seed: u64| {
        let cfg = HostConfig {
            seed,
            ..HostConfig::default()
        };
        let mut sim = Machine::build(
            cfg,
            UnmanagedPolicy,
            single_flow_scenario(20, 512),
            echo_factory(),
        );
        run_to_report(&mut sim, Duration::millis(1), Duration::millis(3)).involved_mpps
    };
    let a = run(1);
    let b = run(2);
    assert_ne!(
        a.to_bits(),
        b.to_bits(),
        "different seeds should differ in detail"
    );
    assert!((a - b).abs() / a < 0.05, "but not in shape: {a} vs {b}");
}

/// A deliberately slow app to force a CPU bottleneck.
struct SlowApp;
impl Application for SlowApp {
    fn name(&self) -> &str {
        "slow"
    }
    fn process(&mut self, _: &Packet) -> AppWork {
        AppWork::compute(Duration::nanos(2_000))
    }
}

#[test]
fn cpu_bottleneck_triggers_backpressure_and_rate_control() {
    // 25 Gbps of 512 B packets = ~6.1 Mpps offered against a core that can
    // do at most 0.5 Mpps: the ring fills, drops occur, DCTCP backs off.
    let mut sim = Machine::build(
        HostConfig::default(),
        UnmanagedPolicy,
        single_flow_scenario(25, 512),
        Box::new(|_| Box::new(SlowApp)),
    );
    let report = run_to_report(&mut sim, Duration::millis(2), Duration::millis(5));
    assert!(
        report.involved_mpps < 0.6,
        "delivery capped by the CPU, got {}",
        report.involved_mpps
    );
    // The sender must have been pushed far below its demand by losses.
    let f = sim.model.st.flows.values().next().unwrap();
    assert!(
        f.cca.rate() < Bandwidth::gbps(25),
        "CCA should have reduced the rate"
    );
    assert!(
        f.cca.stats().loss_cuts > 0,
        "ring-full drops must signal loss"
    );
}

#[test]
fn llc_thrashing_under_saturation() {
    // Many fast flows against slow consumers: in-flight data far exceeds
    // the 6 MB DDIO partition, so the baseline thrashes (§2.2). Consumers
    // are slow enough that rings hold ~8 MB while credits of DCTCP keep
    // arrival high for the first windows.
    let mut s = Scenario::new();
    for i in 0..8 {
        s.start_at(
            Time::ZERO,
            FlowSpec::new(i, FlowClass::CpuInvolved, 2048, 1, Bandwidth::gbps(25)),
        );
    }
    let scenario = s.build();
    let cfg = HostConfig {
        ring_entries: 2048, // 8 flows x 2048 x 2 KB = 32 MB >> 6 MB DDIO
        ..HostConfig::default()
    };
    let mut sim = Machine::build(
        cfg,
        UnmanagedPolicy,
        scenario,
        Box::new(|_| Box::new(SlowApp)),
    );
    let report = run_to_report(&mut sim, Duration::millis(2), Duration::millis(5));
    assert!(
        report.llc_miss_rate > 0.5,
        "baseline should thrash, miss rate {}",
        report.llc_miss_rate
    );
}

#[test]
fn bypass_flow_streams_messages_and_counts_boundaries() {
    let mut s = Scenario::new();
    s.start_at(
        Time::ZERO,
        FlowSpec::new(0, FlowClass::CpuBypass, 1024, 64, Bandwidth::gbps(10)),
    );
    let mut sim = Machine::build(
        HostConfig::default(),
        UnmanagedPolicy,
        s.build(),
        echo_factory(),
    );
    let report = run_to_report(&mut sim, Duration::millis(1), Duration::millis(4));
    let f = sim.model.st.flows.values().next().unwrap();
    // Per-packet delivery (bypass consumers pipeline); message boundaries
    // are still counted for the policy's credit-visibility hook.
    assert!(f.counters.msgs_completed > 0);
    let implied = f.counters.consumed_pkts / 64;
    assert!(
        f.counters.msgs_completed.abs_diff(implied) <= 1,
        "msgs {} vs implied {implied}",
        f.counters.msgs_completed
    );
    assert!(report.bypass_gbps > 8.0, "got {}", report.bypass_gbps);
    assert_eq!(report.involved_mpps, 0.0);
}

#[test]
fn flow_stop_halts_emission_and_frees_core() {
    let mut s = Scenario::new();
    s.start_at(
        Time::ZERO,
        FlowSpec::new(0, FlowClass::CpuInvolved, 512, 1, Bandwidth::gbps(10)),
    );
    s.stop_at(Time::ZERO + Duration::millis(2), ceio_net::FlowId(0));
    let mut sim = Machine::build(
        HostConfig::default(),
        UnmanagedPolicy,
        s.build(),
        echo_factory(),
    );
    sim.run_until(Time::ZERO + Duration::millis(10), u64::MAX);
    // After stop + drain, the queue goes quiet except samples; the flow's
    // consumed count stops growing.
    let consumed_a = sim
        .model
        .st
        .flows
        .values()
        .next()
        .unwrap()
        .counters
        .consumed_pkts;
    sim.run_until(Time::ZERO + Duration::millis(12), u64::MAX);
    let consumed_b = sim
        .model
        .st
        .flows
        .values()
        .next()
        .unwrap()
        .counters
        .consumed_pkts;
    assert_eq!(consumed_a, consumed_b);
    assert!(consumed_a > 0);
}

#[test]
fn two_classes_coexist_and_are_accounted_separately() {
    let mut s = Scenario::new();
    s.start_at(
        Time::ZERO,
        FlowSpec::new(0, FlowClass::CpuInvolved, 512, 1, Bandwidth::gbps(5)),
    );
    s.start_at(
        Time::ZERO,
        FlowSpec::new(1, FlowClass::CpuBypass, 2048, 128, Bandwidth::gbps(20)),
    );
    let mut sim = Machine::build(
        HostConfig::default(),
        UnmanagedPolicy,
        s.build(),
        echo_factory(),
    );
    let report = run_to_report(&mut sim, Duration::millis(2), Duration::millis(5));
    assert!(report.involved_mpps > 0.5);
    assert!(report.bypass_gbps > 10.0);
    assert!(report.involved_latency.count() > 0);
    assert!(report.bypass_latency.count() > 0);
}

#[test]
fn report_rates_are_consistent_with_each_other() {
    let mut sim = Machine::build(
        HostConfig::default(),
        UnmanagedPolicy,
        single_flow_scenario(10, 1024),
        echo_factory(),
    );
    let report = run_to_report(&mut sim, Duration::millis(1), Duration::millis(4));
    // Gbps and Mpps must agree through the packet size.
    let implied_gbps = report.involved_mpps * 1e6 * 1024.0 * 8.0 / 1e9;
    assert!((implied_gbps - report.involved_gbps).abs() < 0.01);
    // Everything travelled the fast path under the unmanaged policy.
    assert_eq!(report.slow_path_pkts, 0);
    assert!((report.fast_path_gbps - report.total_gbps()).abs() < 0.01);
}

/// Counts `on_driver_poll` calls per flow. Flow 1 is steered entirely
/// onto the slow path, so the hook sees both kinds of pending work: ready
/// packets and parked ones.
#[derive(Default)]
struct PollCounter {
    calls: FlowMap<u64>,
}

impl IoPolicy for PollCounter {
    fn name(&self) -> &'static str {
        "poll-counter"
    }
    fn on_flow_start(&mut self, _: &mut HostState, _: Time, flow: FlowId) {
        self.calls.insert(flow, 0);
    }
    fn on_flow_stop(&mut self, _: &mut HostState, _: Time, _: FlowId) {}
    fn steer(&mut self, _: &mut HostState, _: Time, pkt: &Packet) -> SteerDecision {
        if pkt.flow == FlowId(1) {
            SteerDecision::SlowPath { mark: false }
        } else {
            SteerDecision::FastPath { mark: false }
        }
    }
    fn on_batch_consumed(&mut self, _: &mut HostState, _: Time, _: FlowId, _: u32, _: u32, _: u32) {
    }
    fn on_driver_poll(&mut self, _: &mut HostState, _: Time, flow: FlowId) -> DrainRequest {
        if let Some(n) = self.calls.get_mut(&flow) {
            *n += 1;
        }
        DrainRequest {
            fetch: 32,
            sync: false,
        }
    }
}

/// The `IoPolicy::on_driver_poll` contract: the hook runs only for flows
/// with ready or parked packets. Two polling cores share eight flows; six
/// of them never send, so every poll walks past idle flows.
#[test]
fn driver_poll_hook_never_sees_idle_flows() {
    let mut s = Scenario::new();
    for i in 0..8 {
        let demand = if i < 2 {
            Bandwidth::gbps(5)
        } else {
            Bandwidth::bytes_per_sec(0)
        };
        s.start_at(
            Time::ZERO,
            FlowSpec::new(i, FlowClass::CpuInvolved, 512, 1, demand),
        );
    }
    let cfg = HostConfig {
        num_cores: Some(2),
        ..HostConfig::default()
    };
    let mut sim = Machine::build(cfg, PollCounter::default(), s.build(), echo_factory());
    let report = run_to_report(&mut sim, Duration::micros(200), Duration::millis(1));
    let p = &sim.model.policy;
    assert!(
        report.slow_path_pkts > 0,
        "flow 1 must drain over the slow path"
    );
    assert!(p.calls[&FlowId(0)] > 0, "fast-path flow polled");
    assert!(p.calls[&FlowId(1)] > 0, "slow-path flow polled");
    for id in 2..8 {
        assert_eq!(p.calls[&FlowId(id)], 0, "idle flow {id} reached the hook");
    }
}
