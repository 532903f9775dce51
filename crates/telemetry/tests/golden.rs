//! Golden-file tests: the two hand-written exporters (Prometheus text
//! exposition and Chrome trace-event JSON) are compared byte-for-byte
//! against checked-in reference documents.
//!
//! Both emitters are deterministic (insertion-ordered metrics, stable
//! tie-breaking in event merges), so any byte of drift is a real format
//! change. When a change is intentional, regenerate the references with
//!
//! ```text
//! CEIO_GOLDEN_REGEN=1 cargo test -p ceio-telemetry --test golden
//! ```
//!
//! and review the diff like any other code change.

use ceio_sim::{Histogram, Time};
use ceio_telemetry::{
    chrome_trace_json, json, merge_events, AuditSummary, SnapshotBuilder, TraceEvent, TraceKind,
};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compare `actual` against the golden file `name`, or rewrite the file
/// when `CEIO_GOLDEN_REGEN` is set.
fn check(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("CEIO_GOLDEN_REGEN").is_some() {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create golden dir");
        }
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {}: {e}\n\
             (run with CEIO_GOLDEN_REGEN=1 to create it)",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "{name} diverged from its golden file {}\n\
         (if the format change is intentional, regenerate with \
         CEIO_GOLDEN_REGEN=1 and review the diff)",
        path.display()
    );
}

/// A fixed snapshot exercising every metric shape the builder supports:
/// plain and labeled counters, gauges, a summary with quantiles, and an
/// attached audit outcome with one violation.
fn fixture_snapshot() -> ceio_telemetry::Snapshot {
    let mut b = SnapshotBuilder::new(Time(4_000_000));
    b.counter(
        "ceio_ingress_admitted_total",
        "Packets admitted at the NIC MAC.",
        1000,
    );
    b.counter(
        "ceio_ingress_dropped_total",
        "Packets dropped at ingress.",
        7,
    );
    b.counter_with(
        "ceio_core_packets_total",
        "Packets consumed per core.",
        &[("core", "0".to_string())],
        640,
    );
    b.counter_with(
        "ceio_core_packets_total",
        "Packets consumed per core.",
        &[("core", "1".to_string())],
        360,
    );
    b.gauge("ceio_llc_miss_rate", "LLC miss rate over the run.", 0.0625);
    b.counter(
        "ceio_sim_events_total",
        "Events dispatched by the simulation engine.",
        48_000,
    );
    b.gauge(
        "ceio_sim_queue_peak",
        "High-water mark of pending events in the engine queue.",
        1536.0,
    );
    b.counter(
        "ceio_sim_timers_cancelled_total",
        "Timers cancelled before dispatch via their TimerToken.",
        230,
    );
    b.gauge_with(
        "ceio_credit_assigned",
        "Credits currently assigned to a flow.",
        &[("flow", "3".to_string())],
        96.0,
    );
    let mut h = Histogram::new();
    for v in 1..=1000u64 {
        h.record(v * 100); // 100 ns .. 100 µs, uniform.
    }
    b.summary("ceio_fast_latency_ns", "Fast-path delivery latency.", &h);
    b.audit(AuditSummary {
        events_checked: 5000,
        invariants: vec![
            "credit-conservation".to_string(),
            "phase-exclusivity".to_string(),
        ],
        total_violations: 1,
        violations: vec!["t=1500ns phase-exclusivity: fast delivery during slow phase".to_string()],
    });
    b.finish()
}

/// A fixed event timeline: two recorder streams merged, covering instant
/// markers, a named slow-phase span, substrate (flow-less) DMA traffic,
/// and a drop.
fn fixture_events() -> (Vec<TraceEvent>, u64) {
    let ev = |at: u64, flow: Option<u32>, kind: TraceKind, value: u64| TraceEvent {
        at: Time(at),
        flow,
        kind,
        value,
    };
    let host = vec![
        ev(1_000, Some(0), TraceKind::CreditGrant, 1),
        ev(1_250, Some(0), TraceKind::DmaWriteComplete, 512),
        ev(2_000, Some(0), TraceKind::Delivery, 512),
        ev(3_000, Some(1), TraceKind::CreditDeny, 1),
        ev(3_000, Some(1), TraceKind::RuleRewriteSlow, 0),
        ev(3_000, Some(1), TraceKind::PhaseSlowEnter, 0),
        ev(3_500, Some(1), TraceKind::SlowPark, 512),
        ev(5_000, Some(1), TraceKind::SlowFetch, 8),
        ev(6_200, Some(1), TraceKind::SlowDrain, 512),
        ev(6_200, Some(1), TraceKind::PhaseSlowExit, 0),
        ev(6_200, Some(1), TraceKind::RuleRewriteFast, 2),
        ev(7_000, Some(2), TraceKind::Drop, 1500),
    ];
    let substrate = vec![
        ev(1_100, None, TraceKind::DmaWriteIssue, 512),
        ev(4_900, None, TraceKind::DmaReadIssue, 0),
        ev(5_950, None, TraceKind::DmaReadComplete, 4096),
        ev(3_400, None, TraceKind::OnboardWrite, 512),
    ];
    (merge_events(vec![host, substrate]), 2)
}

#[test]
fn prom_text_matches_golden() {
    check("snapshot.prom", &fixture_snapshot().to_prom_text());
}

#[test]
fn chrome_trace_matches_golden_and_validates() {
    let (events, dropped) = fixture_events();
    let doc = chrome_trace_json(&events, dropped);
    json::validate(&doc).expect("chrome trace JSON must parse");
    check("trace.json", &doc);
}

#[test]
fn merged_fixture_timeline_is_time_ordered() {
    let (events, _) = fixture_events();
    assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
    // The substrate onboard-write interleaves between the host stream's
    // 3 µs burst and the 3.5 µs park.
    let kinds: Vec<&str> = events.iter().map(|e| e.kind.label()).collect();
    let park = kinds
        .iter()
        .position(|k| *k == "slow-park")
        .expect("park present");
    let onboard = kinds
        .iter()
        .position(|k| *k == "onboard-write")
        .expect("onboard present");
    assert!(onboard < park, "merge must interleave recorder streams");
}
