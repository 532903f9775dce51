//! The trace, audit and fault hooks are always compiled and armed only at
//! runtime. These tests drive them through the umbrella crate on a short
//! CEIO KV run and pin both halves of that contract:
//!
//! * observation does not perturb: a run with a trace ring or the
//!   invariant auditor armed (and no fault plan) produces exactly the
//!   report of an unarmed run, while the drained trace actually carries
//!   the paper's credit and delivery events and the auditor actually
//!   checks every event;
//! * an armed fault plan does act: the canned `smoke` storm injects faults,
//!   drives DMA retries, keeps Eq. 1 credit conservation, and replays
//!   byte-identically.

use ceio::apps::{KvConfig, KvStore};
use ceio::chaos::FaultPlan;
use ceio::core::{CeioConfig, CeioPolicy};
use ceio::host::{arm_chaos, run_to_report, HostConfig, Machine, RunReport};
use ceio::net::{FlowClass, FlowSpec, Scenario};
use ceio::sim::{Bandwidth, Duration, Simulation, Time};

const FLOWS: u32 = 8;
const WARMUP: Duration = Duration::millis(1);
const MEASURE: Duration = Duration::millis(2);

/// Eight saturating 512 B KV flows on a CEIO host.
fn build() -> Simulation<Machine<CeioPolicy>> {
    let host = HostConfig {
        ring_entries: 16384,
        ..HostConfig::default()
    };
    let policy = CeioPolicy::new(CeioConfig {
        credit_total: host.credit_total(),
        ..CeioConfig::default()
    });
    let mut s = Scenario::new();
    let per = Bandwidth::gbps(200).scale(1, FLOWS as u64);
    for i in 0..FLOWS {
        s.start_at(
            Time::ZERO,
            FlowSpec::new(i, FlowClass::CpuInvolved, 512, 1, per),
        );
    }
    Machine::build(
        host,
        policy,
        s.build(),
        Box::new(|_| Box::new(KvStore::new(KvConfig::default()))),
    )
}

/// Every report scalar, histogram and series, plus the dispatch count.
fn render(report: &RunReport, sim: &Simulation<Machine<CeioPolicy>>) -> String {
    format!("{report:?}\nevents {}", sim.events_processed())
}

#[test]
fn armed_trace_does_not_perturb_the_run() {
    let mut plain = build();
    let plain_report = run_to_report(&mut plain, WARMUP, MEASURE);

    let mut traced = build();
    traced.model.arm_trace(1 << 16);
    let traced_report = run_to_report(&mut traced, WARMUP, MEASURE);

    assert_eq!(
        render(&plain_report, &plain),
        render(&traced_report, &traced),
        "arming a trace ring must leave the simulation byte-identical"
    );
    assert!(plain_report.involved_mpps > 0.0, "the run must deliver");

    let (events, _) = traced.model.trace_events();
    for name in ["credit-grant", "delivery"] {
        assert!(
            events.iter().any(|e| e.kind.label() == name),
            "the armed trace must record '{name}' events"
        );
    }
    let (unarmed, dropped) = plain.model.trace_events();
    assert!(
        unarmed.is_empty() && dropped == 0,
        "an unarmed run records nothing"
    );
}

#[test]
fn armed_auditor_checks_every_event_without_perturbing_the_run() {
    let mut plain = build();
    // Unarmed even when the process runs under `CEIO_AUDIT=1`.
    plain.model.auditor = None;
    let plain_report = run_to_report(&mut plain, WARMUP, MEASURE);

    let mut audited = build();
    audited.model.arm_audit();
    let audited_report = run_to_report(&mut audited, WARMUP, MEASURE);

    assert_eq!(
        render(&plain_report, &plain),
        render(&audited_report, &audited),
        "arming the auditor must leave the simulation byte-identical"
    );
    let audit = audited.model.audit_report().expect("auditor was armed");
    assert!(audit.is_clean(), "a CEIO KV run must be clean:\n{audit}");
    assert!(
        audit.events_checked > 10_000,
        "the armed auditor checked only {} events",
        audit.events_checked
    );
}

/// One run through the canned `smoke` plan.
fn smoke_run() -> (String, Simulation<Machine<CeioPolicy>>) {
    let plan = FaultPlan::parse("smoke", 1234).expect("canned plan parses");
    let mut sim = build();
    arm_chaos(&mut sim, &plan);
    let report = run_to_report(&mut sim, WARMUP, MEASURE);
    (render(&report, &sim), sim)
}

#[test]
fn armed_fault_plan_injects_recovers_and_replays() {
    let (a, sim) = smoke_run();
    assert!(sim.model.injected_faults() > 0, "the plan must inject");
    let rec = &sim.model.st.recovery;
    assert!(
        rec.dma_write_retries + rec.dma_read_retries > 0,
        "injected DMA faults must be retried"
    );
    assert!(
        sim.model.policy.credits.conserved(),
        "Eq. 1 must hold under the fault storm"
    );
    let (b, _) = smoke_run();
    assert_eq!(a, b, "same plan and seed must replay byte-for-byte");
}
