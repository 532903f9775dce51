//! Behavioural tests of the machine's control features: demand
//! retargeting, shared polling cores, DMA pacing, and teardown cleanup.

use ceio_cpu::{AppWork, Application};
use ceio_host::{
    AppFactory, HostConfig, HostState, IoPolicy, Machine, SteerDecision, UnmanagedPolicy,
};
use ceio_net::{FlowClass, FlowId, FlowSpec, Packet, Scenario};
use ceio_sim::{Bandwidth, Duration, Time};

struct Cheap;
impl Application for Cheap {
    fn name(&self) -> &str {
        "cheap"
    }
    fn process(&mut self, _: &Packet) -> AppWork {
        AppWork::compute(Duration::nanos(30))
    }
}

fn cheap() -> AppFactory {
    Box::new(|_| Box::new(Cheap))
}

#[test]
fn set_demand_pauses_and_resumes_emission() {
    let mut s = Scenario::new();
    s.start_at(
        Time::ZERO,
        FlowSpec::new(0, FlowClass::CpuInvolved, 512, 1, Bandwidth::gbps(10)),
    );
    // Pause at 1 ms, resume at 2 ms.
    s.set_demand_at(
        Time::ZERO + Duration::millis(1),
        FlowId(0),
        Bandwidth::bytes_per_sec(0),
    );
    s.set_demand_at(
        Time::ZERO + Duration::millis(2),
        FlowId(0),
        Bandwidth::gbps(10),
    );
    let mut sim = Machine::build(HostConfig::default(), UnmanagedPolicy, s.build(), cheap());

    sim.run_until(Time::ZERO + Duration::millis(1), u64::MAX);
    let at_pause = sim.model.st.flows[&FlowId(0)].gen.emitted();
    assert!(at_pause > 1000, "flow must have been emitting");

    // During the pause only in-flight packets move; emission is frozen.
    sim.run_until(Time::ZERO + Duration::millis(2), u64::MAX);
    let during_pause = sim.model.st.flows[&FlowId(0)].gen.emitted();
    assert!(
        during_pause <= at_pause + 2,
        "paused flow kept emitting: {at_pause} -> {during_pause}"
    );

    // After resume, emission continues at the demanded rate.
    sim.run_until(Time::ZERO + Duration::millis(3), u64::MAX);
    let after_resume = sim.model.st.flows[&FlowId(0)].gen.emitted();
    let resumed = after_resume - during_pause;
    // 10 Gbps of 512 B ≈ 2.44 Mpps ≈ 2440 packets per ms.
    assert!(
        (2000..3000).contains(&resumed),
        "resumed at wrong rate: {resumed} pkts/ms"
    );
}

#[test]
fn retarget_does_not_duplicate_emission_chains() {
    // Many SetDemand events on one flow: the epoch guard must keep exactly
    // one live emission chain (a duplicate would double the rate).
    let mut s = Scenario::new();
    s.start_at(
        Time::ZERO,
        FlowSpec::new(0, FlowClass::CpuInvolved, 512, 1, Bandwidth::gbps(10)),
    );
    for k in 1..20u64 {
        s.set_demand_at(
            Time::ZERO + Duration::micros(50 * k),
            FlowId(0),
            Bandwidth::gbps(10),
        );
    }
    let mut sim = Machine::build(HostConfig::default(), UnmanagedPolicy, s.build(), cheap());
    sim.run_until(Time::ZERO + Duration::millis(2), u64::MAX);
    let emitted = sim.model.st.flows[&FlowId(0)].gen.emitted();
    // 2 ms at 2.44 Mpps ≈ 4880; duplicated chains would give ~2x per event.
    assert!(
        (4000..6000).contains(&emitted),
        "emission rate wrong under retargeting: {emitted}"
    );
}

#[test]
fn shared_cores_serve_many_flows_fairly() {
    let mut s = Scenario::new();
    for i in 0..12 {
        s.start_at(
            Time::ZERO,
            FlowSpec::new(i, FlowClass::CpuInvolved, 512, 1, Bandwidth::gbps(5)),
        );
    }
    let cfg = HostConfig {
        num_cores: Some(3),
        ..HostConfig::default()
    };
    let mut sim = Machine::build(cfg, UnmanagedPolicy, s.build(), cheap());
    sim.run_until(Time::ZERO + Duration::millis(3), u64::MAX);
    assert_eq!(sim.model.st.cores.len(), 3, "exactly the configured cores");
    let consumed: Vec<u64> = sim
        .model
        .st
        .flows
        .values()
        .map(|f| f.counters.consumed_pkts)
        .collect();
    let min = *consumed.iter().min().unwrap();
    let max = *consumed.iter().max().unwrap();
    assert!(min > 0, "every flow must be served");
    let spread = (max - min) as f64 / max as f64;
    assert!(spread < 0.2, "round-robin fairness: min {min} max {max}");
}

/// A policy that installs a hard DMA pace once.
struct PacedPolicy;
impl IoPolicy for PacedPolicy {
    fn name(&self) -> &'static str {
        "paced"
    }
    fn on_flow_start(&mut self, st: &mut HostState, _: Time, _: FlowId) {
        st.set_dma_pace(Some(Bandwidth::gbps(5)));
    }
    fn on_flow_stop(&mut self, _: &mut HostState, _: Time, _: FlowId) {}
    fn steer(&mut self, _: &mut HostState, _: Time, _: &Packet) -> SteerDecision {
        SteerDecision::FastPath { mark: false }
    }
    fn on_batch_consumed(&mut self, _: &mut HostState, _: Time, _: FlowId, _: u32, _: u32, _: u32) {
    }
}

#[test]
fn dma_pacing_throttles_delivery() {
    let mut s = Scenario::new();
    s.start_at(
        Time::ZERO,
        FlowSpec::new(0, FlowClass::CpuInvolved, 512, 1, Bandwidth::gbps(20)),
    );
    let mut sim = Machine::build(HostConfig::default(), PacedPolicy, s.build(), cheap());
    let report = ceio_host::run_to_report(&mut sim, Duration::millis(1), Duration::millis(4));
    // Offered 20 Gbps, DMA paced to 5 Gbps: delivery must respect the pace
    // (plus a little transient), and the excess must have been dropped at
    // the NIC staging buffer.
    assert!(
        report.involved_gbps < 6.0,
        "pace not enforced: {} Gbps",
        report.involved_gbps
    );
    assert!(report.dropped > 0, "excess must overflow NIC staging");
}

#[test]
fn teardown_frees_onboard_and_llc_residency() {
    // A bypass flow forced onto the slow path, then stopped mid-stream:
    // its on-NIC parking and host buffers must be freed.
    struct SlowSteer;
    impl IoPolicy for SlowSteer {
        fn name(&self) -> &'static str {
            "slow-steer"
        }
        fn on_flow_start(&mut self, _: &mut HostState, _: Time, _: FlowId) {}
        fn on_flow_stop(&mut self, _: &mut HostState, _: Time, _: FlowId) {}
        fn steer(&mut self, _: &mut HostState, _: Time, _: &Packet) -> SteerDecision {
            SteerDecision::SlowPath { mark: false }
        }
        fn on_batch_consumed(
            &mut self,
            _: &mut HostState,
            _: Time,
            _: FlowId,
            _: u32,
            _: u32,
            _: u32,
        ) {
        }
        // Never drain: everything stays parked until teardown.
    }
    let mut s = Scenario::new();
    s.start_at(
        Time::ZERO,
        FlowSpec::new(0, FlowClass::CpuBypass, 2048, 64, Bandwidth::gbps(20)),
    );
    s.stop_at(Time::ZERO + Duration::millis(1), FlowId(0));
    let mut sim = Machine::build(HostConfig::default(), SlowSteer, s.build(), cheap());
    sim.run_until(Time::ZERO + Duration::millis(3), u64::MAX);
    let st = &sim.model.st;
    assert!(st.onboard.stats().bytes_written > 0, "packets were parked");
    assert_eq!(
        st.onboard.occupancy(),
        0,
        "teardown must free on-NIC parking"
    );
    assert_eq!(
        st.memctrl.llc.occupancy(),
        0,
        "teardown must free LLC residency"
    );
}

#[test]
fn iio_backpressure_preserves_conservation() {
    // A tiny IIO buffer forces the stage/retire backpressure path (PCIe
    // credits held, NIC staging, drops at overflow): everything emitted is
    // still either delivered or counted dropped.
    let mut cfg = HostConfig::default();
    cfg.mem.iio_capacity_bytes = 4096; // two 2 KB packets
                                       // Slow retires make the staging buffer actually fill: DDIO off and a
                                       // starved memory system, so each retire queues on DRAM.
    cfg.mem.ddio_enabled = false;
    cfg.mem.dram_bandwidth = ceio_sim::Bandwidth::gibps(8);
    let mut s = Scenario::new();
    for i in 0..4 {
        let mut spec = FlowSpec::new(i, FlowClass::CpuInvolved, 2048, 1, Bandwidth::gbps(40));
        spec.stop = Time::ZERO + Duration::millis(1);
        s.start_at(Time::ZERO, spec);
    }
    let mut sim = Machine::build(cfg, UnmanagedPolicy, s.build(), cheap());
    sim.run_until(Time::ZERO + Duration::millis(6), u64::MAX);
    let st = &sim.model.st;
    let emitted: u64 = st.flows.values().map(|f| f.gen.emitted()).sum();
    let consumed: u64 = st.flows.values().map(|f| f.counters.consumed_pkts).sum();
    assert!(
        st.memctrl.iio.stats().rejected > 0,
        "IIO must have pushed back"
    );
    assert_eq!(emitted, consumed + st.dropped_total);
    assert!(consumed > 0);
}

/// Chaos-mode regression tests: before the DMA retry path existed, `pump`
/// matched `Err(_) => break` — a transient fault with no pending completion
/// would have wedged the staging queue forever. These tests pin the
/// recovery behaviour for every injected `DmaError` variant.
mod chaos {
    use super::*;
    use ceio_chaos::{FaultPlan, FaultSite};
    use ceio_host::DrainRequest;
    use ceio_net::Scenario;

    fn one_flow_scenario(stop_ms: u64) -> Scenario {
        let mut s = Scenario::new();
        let mut spec = FlowSpec::new(0, FlowClass::CpuInvolved, 512, 1, Bandwidth::gbps(10));
        spec.stop = Time::ZERO + Duration::millis(stop_ms);
        s.start_at(Time::ZERO, spec);
        s
    }

    #[test]
    fn transient_write_faults_are_retried_and_absorbed() {
        // A 5% write-fault rate: retries with backoff recover every issue
        // (eight consecutive faults at 5% is a ~4e-11 event), so nothing
        // is dropped by the retry path and throughput survives.
        let plan = FaultPlan::new(42).with_rate(FaultSite::DmaWriteFault, 0.05);
        let mut sim = Machine::build(
            HostConfig::default(),
            UnmanagedPolicy,
            one_flow_scenario(1).build(),
            cheap(),
        );
        sim.model.arm_chaos(&plan);
        sim.run_until(Time::ZERO + Duration::millis(6), u64::MAX);
        let st = &sim.model.st;
        let f = st.flows.values().next().unwrap();
        assert!(
            st.recovery.dma_write_retries > 0,
            "faults must have been injected and retried"
        );
        assert_eq!(
            st.recovery.dma_retry_drops, 0,
            "a 5% fault rate must never exhaust the retry budget"
        );
        assert!(st.recovery.dma_backoff_ns > 0, "backoff must be charged");
        assert!(f.counters.consumed_pkts > 0, "flow still makes progress");
        assert_eq!(f.gen.emitted(), f.counters.consumed_pkts + st.dropped_total);
    }

    #[test]
    fn persistent_write_faults_drop_but_never_wedge() {
        // Every write issue faults: after the retry budget, the head packet
        // is dropped with full loss accounting. The regression here is the
        // old `Err(_) => break`, which would have left `nic_pending`
        // wedged and violated packet conservation.
        let plan = FaultPlan::new(7).with_rate(FaultSite::DmaWriteFault, 1.0);
        let mut sim = Machine::build(
            HostConfig::default(),
            UnmanagedPolicy,
            one_flow_scenario(1).build(),
            cheap(),
        );
        sim.model.arm_chaos(&plan);
        sim.run_until(Time::ZERO + Duration::millis(20), u64::MAX);
        let st = &sim.model.st;
        let f = st.flows.values().next().unwrap();
        assert!(
            st.recovery.dma_retry_drops > 0,
            "exhausted retry budgets must surface as counted drops"
        );
        assert_eq!(f.counters.consumed_pkts, 0, "nothing can get through");
        assert_eq!(
            f.gen.emitted(),
            f.counters.consumed_pkts + st.dropped_total,
            "conservation must hold even under total DMA failure"
        );
    }

    #[test]
    fn read_faults_delay_but_never_lose_parked_packets() {
        // Slow-path steering with flaky DMA reads: fetches back off and
        // retry; parked packets are delayed, never dropped.
        struct SlowDrain;
        impl IoPolicy for SlowDrain {
            fn name(&self) -> &'static str {
                "slow-drain"
            }
            fn on_flow_start(&mut self, _: &mut HostState, _: Time, _: FlowId) {}
            fn on_flow_stop(&mut self, _: &mut HostState, _: Time, _: FlowId) {}
            fn steer(&mut self, _: &mut HostState, _: Time, _: &Packet) -> SteerDecision {
                SteerDecision::SlowPath { mark: false }
            }
            fn on_batch_consumed(
                &mut self,
                _: &mut HostState,
                _: Time,
                _: FlowId,
                _: u32,
                _: u32,
                _: u32,
            ) {
            }
            fn on_driver_poll(&mut self, _: &mut HostState, _: Time, _: FlowId) -> DrainRequest {
                DrainRequest {
                    fetch: 32,
                    sync: false,
                }
            }
        }
        let plan = FaultPlan::new(11)
            .with_rate(FaultSite::DmaReadFault, 0.2)
            .with_rate(FaultSite::DmaReadTimeout, 0.1);
        let mut sim = Machine::build(
            HostConfig::default(),
            SlowDrain,
            one_flow_scenario(1).build(),
            cheap(),
        );
        sim.model.arm_chaos(&plan);
        sim.run_until(Time::ZERO + Duration::millis(20), u64::MAX);
        let st = &sim.model.st;
        let f = st.flows.values().next().unwrap();
        assert!(
            st.recovery.dma_read_retries > 0,
            "read faults must have been retried"
        );
        assert!(f.counters.consumed_pkts > 0, "slow path still drains");
        assert_eq!(
            f.gen.emitted(),
            f.counters.consumed_pkts + st.dropped_total,
            "read faults may delay but never lose parked packets"
        );
    }

    #[test]
    fn consumer_pauses_defer_polls_without_loss() {
        let plan = FaultPlan::new(3).with_rate(FaultSite::ConsumerPause, 0.05);
        let mut sim = Machine::build(
            HostConfig::default(),
            UnmanagedPolicy,
            one_flow_scenario(1).build(),
            cheap(),
        );
        sim.model.arm_chaos(&plan);
        sim.run_until(Time::ZERO + Duration::millis(6), u64::MAX);
        let st = &sim.model.st;
        let f = st.flows.values().next().unwrap();
        assert!(st.recovery.consumer_pauses > 0, "pauses must inject");
        assert!(
            st.recovery.consumer_pause_ns > 0,
            "pause time must be accounted"
        );
        assert!(f.counters.consumed_pkts > 0, "delivery survives pauses");
        assert_eq!(f.gen.emitted(), f.counters.consumed_pkts + st.dropped_total);
    }

    #[test]
    fn identical_plans_reproduce_identical_runs() {
        let run = || {
            let plan = FaultPlan::new(99)
                .with_rate(FaultSite::DmaWriteFault, 0.1)
                .with_rate(FaultSite::ConsumerPause, 0.02);
            let mut sim = Machine::build(
                HostConfig::default(),
                UnmanagedPolicy,
                one_flow_scenario(1).build(),
                cheap(),
            );
            sim.model.arm_chaos(&plan);
            sim.run_until(Time::ZERO + Duration::millis(6), u64::MAX);
            let st = &sim.model.st;
            let f = st.flows.values().next().unwrap();
            (
                f.counters.consumed_pkts,
                st.dropped_total,
                st.recovery.dma_write_retries,
                st.recovery.dma_backoff_ns,
                st.recovery.consumer_pauses,
                sim.model.injected_faults(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "chaos runs must be bit-for-bit deterministic");
        assert!(a.5 > 0, "the plan must actually have injected faults");
    }

    #[test]
    fn snapshot_exports_recovery_and_chaos_counters() {
        // The telemetry funnel must surface the recovery machinery: a
        // faulty run's snapshot carries nonzero retry/injection counters.
        let plan = FaultPlan::new(21)
            .with_rate(FaultSite::DmaWriteFault, 0.1)
            .with_rate(FaultSite::ConsumerPause, 0.02);
        let mut sim = Machine::build(
            HostConfig::default(),
            UnmanagedPolicy,
            one_flow_scenario(1).build(),
            cheap(),
        );
        sim.model.arm_chaos(&plan);
        let end = Time::ZERO + Duration::millis(6);
        sim.run_until(end, u64::MAX);
        let snap = sim.model.snapshot(end);
        let counter = |name: &str| -> u64 {
            snap.metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("snapshot must export {name}"))
                .value
                .as_u64()
        };
        assert!(counter("ceio_recovery_dma_write_retries_total") > 0);
        assert!(counter("ceio_recovery_dma_backoff_ns_total") > 0);
        assert!(counter("ceio_recovery_consumer_pauses_total") > 0);
        assert!(counter("ceio_chaos_injected_total") > 0);
        assert!(counter("ceio_dma_write_faults_total") > 0);
        // Healthy sites stay at zero but are still present.
        assert_eq!(counter("ceio_recovery_dma_retry_drops_total"), 0);
        assert_eq!(counter("ceio_chaos_onboard_injected_rejections_total"), 0);
    }
}

#[test]
fn pcie_write_credit_exhaustion_backpressures_not_corrupts() {
    // One posted-write credit: DMA issues serialize one at a time; the
    // pipeline still conserves and delivers in order.
    let mut cfg = HostConfig::default();
    cfg.pcie.max_inflight_writes = 1;
    let mut s = Scenario::new();
    let mut spec = FlowSpec::new(0, FlowClass::CpuInvolved, 512, 1, Bandwidth::gbps(10));
    spec.stop = Time::ZERO + Duration::millis(1);
    s.start_at(Time::ZERO, spec);
    let mut sim = Machine::build(cfg, UnmanagedPolicy, s.build(), cheap());
    sim.run_until(Time::ZERO + Duration::millis(6), u64::MAX);
    let st = &sim.model.st;
    let f = st.flows.values().next().unwrap();
    assert!(st.dma.stats().write_stalls > 0, "credit limit must bind");
    assert_eq!(f.gen.emitted(), f.counters.consumed_pkts + st.dropped_total);
}
