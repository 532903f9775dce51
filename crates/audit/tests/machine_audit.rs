//! Integration tests of the audit layer threaded through the full host
//! machine: every simulated event is followed by a sweep of the registered
//! invariants (event-time monotonicity, ring occupancy, ordered delivery,
//! phase exclusivity, LLC/IIO occupancy) plus the policy's own checks
//! (credit conservation, no-overdraft, insufficient-set consistency for
//! CEIO).
//!
//! The auditor is armed per-machine via [`Machine::arm_audit`] rather than
//! the process-global `ceio_audit::set_enabled` so these tests stay safe
//! under the parallel test runner.

use ceio_chaos::FaultPlan;
use ceio_core::{CeioConfig, CeioPolicy};
use ceio_cpu::{AppWork, Application};
use ceio_host::{
    arm_chaos, run_to_report, AppFactory, HostConfig, IoPolicy, Machine, UnmanagedPolicy,
};
use ceio_net::{FlowClass, FlowId, FlowSpec, Packet, Scenario};
use ceio_sim::{Bandwidth, Duration, Time};

struct FixedApp(Duration);
impl Application for FixedApp {
    fn name(&self) -> &str {
        "fixed"
    }
    fn process(&mut self, _: &Packet) -> AppWork {
        AppWork::compute(self.0)
    }
}

fn app_factory(cost_ns: u64) -> AppFactory {
    Box::new(move |_| Box::new(FixedApp(Duration::nanos(cost_ns))))
}

/// Heavy contention: the scenario most likely to drive the machine through
/// slow-path transitions, reallocation, and eviction corners.
fn thrash_scenario() -> Scenario {
    let mut s = Scenario::new();
    for i in 0..8 {
        s.start_at(
            Time::ZERO,
            FlowSpec::new(i, FlowClass::CpuInvolved, 2048, 1, Bandwidth::gbps(25)),
        );
    }
    s.build()
}

/// Mixed classes so CPU-bypass flows exercise the bypass delivery path too.
fn mixed_scenario() -> Scenario {
    let mut s = Scenario::new();
    for i in 0..3 {
        s.start_at(
            Time::ZERO,
            FlowSpec::new(i, FlowClass::CpuInvolved, 2048, 1, Bandwidth::gbps(25)),
        );
    }
    for i in 3..6 {
        s.start_at(
            Time::ZERO,
            FlowSpec::new(i, FlowClass::CpuBypass, 2048, 512, Bandwidth::gbps(25)),
        );
    }
    s.build()
}

/// Many flows, few of them sending at once: every 50 µs the 8 senders
/// move to the next 8 of 64 flows. Idle flows lose their credits to the
/// controller, so a flow's first packets after it wakes park on the slow
/// path while its core's scan may already have marked it idle — the
/// hand-off the busy bits and service-list flags must get right.
fn hopping_scenario() -> Scenario {
    let per = Bandwidth::gbps(25);
    let idle = Bandwidth::bytes_per_sec(0);
    let mut s = Scenario::new();
    for i in 0..64u32 {
        let demand = if i < 8 { per } else { idle };
        s.start_at(
            Time::ZERO,
            FlowSpec::new(i, FlowClass::CpuInvolved, 1024, 1, demand),
        );
    }
    for step in 1..12u32 {
        let at = Time::ZERO + Duration::micros(50).saturating_mul(u64::from(step));
        for k in 0..8u32 {
            s.set_demand_at(at, FlowId((step - 1) * 8 % 64 + k), idle);
            s.set_demand_at(at, FlowId(step * 8 % 64 + k), per);
        }
    }
    s.build()
}

/// Flows that come and go: 48 flows, 12 live at once; every 40 µs the 4
/// oldest leave (even ids by a scenario stop, odd ids at their spec's stop
/// time) and 4 new ones join. A stopped flow stays listed until its
/// in-flight packets drain, so service lists shrink under the lazy retain
/// while other flows on them hold packets — the moves the list positions
/// and their busy bits must follow.
fn turnover_scenario() -> Scenario {
    let per = Bandwidth::gbps(25);
    let joins_at = |i: u32| Time::ZERO + Duration::micros(40).saturating_mul(u64::from(i / 4));
    let mut s = Scenario::new();
    for i in 0..48u32 {
        let mut spec = FlowSpec::new(i, FlowClass::CpuInvolved, 1024, 1, per);
        if i + 12 < 48 {
            let leaves = joins_at(i + 12);
            if i % 2 == 0 {
                s.stop_at(leaves, FlowId(i));
            } else {
                spec.stop = leaves;
            }
        }
        s.start_at(joins_at(i), spec);
    }
    s.build()
}

fn cfg() -> HostConfig {
    HostConfig {
        ring_entries: 2048,
        ..HostConfig::default()
    }
}

fn run_audited<P: IoPolicy>(policy: P, scenario: Scenario) -> ceio_audit::AuditReport {
    let mut sim = Machine::build(cfg(), policy, scenario, app_factory(2_000));
    sim.model.arm_audit();
    let _report = run_to_report(&mut sim, Duration::millis(1), Duration::millis(3));
    sim.model.audit_report().expect("auditor was armed")
}

#[test]
fn ceio_policy_audits_clean_under_thrash() {
    let host = cfg();
    let policy = CeioPolicy::new(CeioConfig {
        credit_total: host.credit_total(),
        ..CeioConfig::default()
    });
    let report = run_audited(policy, thrash_scenario());
    assert!(
        report.is_clean(),
        "CEIO run must satisfy every invariant:\n{report}"
    );
    assert!(
        report.events_checked > 10_000,
        "only {} events audited — the hook is not firing per event",
        report.events_checked
    );
}

#[test]
fn ceio_policy_audits_clean_on_mixed_classes() {
    let host = cfg();
    let policy = CeioPolicy::new(CeioConfig {
        credit_total: host.credit_total(),
        ..CeioConfig::default()
    });
    let report = run_audited(policy, mixed_scenario());
    assert!(report.is_clean(), "mixed-class run:\n{report}");
}

#[test]
fn ceio_policy_audits_clean_under_hopping_senders() {
    let host = HostConfig {
        num_cores: Some(4),
        ..cfg()
    };
    let policy = CeioPolicy::new(CeioConfig {
        credit_total: host.credit_total(),
        ..CeioConfig::default()
    });
    let mut sim = Machine::build(host, policy, hopping_scenario(), app_factory(200));
    sim.model.arm_audit();
    let report = run_to_report(&mut sim, Duration::micros(100), Duration::micros(500));
    assert!(
        report.slow_path_pkts > 0,
        "woken flows must start on the slow path"
    );
    let audit = sim.model.audit_report().expect("auditor was armed");
    assert!(audit.is_clean(), "hopping run:\n{audit}");
}

#[test]
fn ceio_policy_audits_clean_under_flow_turnover() {
    let host = HostConfig {
        num_cores: Some(4),
        ..cfg()
    };
    let policy = CeioPolicy::new(CeioConfig {
        credit_total: host.credit_total(),
        ..CeioConfig::default()
    });
    let mut sim = Machine::build(host, policy, turnover_scenario(), app_factory(200));
    sim.model.arm_audit();
    let _report = run_to_report(&mut sim, Duration::micros(100), Duration::micros(400));
    let audit = sim.model.audit_report().expect("auditor was armed");
    assert!(audit.is_clean(), "turnover run:\n{audit}");
    assert!(
        sim.model.st.flows.iter().filter(|(_, f)| !f.active).count() >= 24,
        "most flows must have left by the end of the run"
    );
}

/// A queue flap head-drops staged fast-path packets when it fails a queue
/// over. Each must give up its arrival sequence number with its
/// descriptor; a delivery front that stays a hole nothing in flight can
/// fill wedges its flow for good, and `no-orphan-hole` reports it.
#[test]
fn ceio_policy_audits_clean_across_a_queue_flap() {
    // The queue-failover experiment's host: four RSS queues whose
    // descriptor issue, not PCIe, binds, 16 KV-sized flows on the link.
    let mut host = HostConfig {
        ring_entries: 16384,
        num_queues: 4,
        ..HostConfig::default()
    };
    host.nic.queue_issue_gap = Duration::nanos(150);
    let policy = CeioPolicy::new(CeioConfig {
        credit_total: host.credit_total(),
        ..CeioConfig::default()
    });
    let mut s = Scenario::new();
    let per = host.net.link_bandwidth.scale(1, 16);
    for i in 0..16 {
        s.start_at(
            Time::ZERO,
            FlowSpec::new(i, FlowClass::CpuInvolved, 512, 1, per),
        );
    }
    let mut sim = Machine::build(host, policy, s.build(), app_factory(100));
    let plan = FaultPlan::parse("queue-flap", 42).expect("the canned plan parses");
    arm_chaos(&mut sim, &plan);
    sim.model.arm_audit();
    let report = run_to_report(&mut sim, Duration::millis(1), Duration::millis(2));
    let failover = &sim.model.st.failover;
    assert!(
        failover.head_dropped_pkts > 0,
        "the flap must head-drop staged packets: {failover:?}"
    );
    let audit = sim.model.audit_report().expect("auditor was armed");
    assert!(audit.is_clean(), "queue-flap run:\n{audit}");
    assert!(
        report.fast_path_gbps > 0.0,
        "the flows must keep delivering"
    );
}

#[test]
fn baseline_policy_audits_clean() {
    // The host-machine invariants (ordering, occupancy, monotone time) are
    // policy-independent; the unmanaged baseline must satisfy them too,
    // even while it thrashes the LLC.
    let report = run_audited(UnmanagedPolicy, thrash_scenario());
    assert!(report.is_clean(), "baseline run:\n{report}");
    assert!(report.events_checked > 0);
}

#[test]
fn unarmed_machine_carries_no_auditor() {
    // Zero-overhead default: without `arm_audit` (and without
    // `CEIO_AUDIT=1`, which the test environment does not set), the
    // machine runs with no auditor at all.
    let mut sim = Machine::build(
        cfg(),
        UnmanagedPolicy,
        thrash_scenario(),
        app_factory(2_000),
    );
    let _ = run_to_report(&mut sim, Duration::millis(1), Duration::millis(2));
    assert!(
        sim.model.audit_report().is_none(),
        "auditor must be off by default"
    );
}

/// A missed busy-bit set — a flow with queued packets whose bit is clear,
/// which the core poll's scan would skip as idle — must trip the
/// `poll-scan-hints` invariant after the very next event.
#[test]
fn missed_busy_bit_is_caught() {
    let host = cfg();
    let policy = CeioPolicy::new(CeioConfig {
        credit_total: host.credit_total(),
        ..CeioConfig::default()
    });
    let mut sim = Machine::build(host, policy, thrash_scenario(), app_factory(2_000));
    sim.model.arm_audit();
    sim.run_until(Time::ZERO + Duration::micros(200), u64::MAX);
    assert!(
        sim.model.audit_report().expect("armed").is_clean(),
        "the unmutated run must be clean"
    );
    let flow = sim
        .model
        .st
        .flows
        .iter()
        .find(|(_, f)| f.ring.has_queued())
        .map(|(id, _)| id)
        .expect("a thrashing run has queued packets");
    sim.model.st.clear_busy_for_tests(flow);
    assert!(sim.step(Time::MAX), "the run has pending events");
    let report = sim.model.audit_report().expect("armed");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant == "poll-scan-hints"),
        "the cleared busy bit went unnoticed:\n{report}"
    );
}
