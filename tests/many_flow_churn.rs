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

use ceio::apps::EchoApp;
use ceio::core::{CeioConfig, CeioPolicy};
use ceio::host::{run_to_report, HostConfig, Machine, RunReport};
use ceio::net::{FlowClass, FlowId, FlowSpec, Scenario};
use ceio::sim::{Bandwidth, Duration, Rng, Time, TimeSeries};
use std::fmt::Write as _;
use std::path::PathBuf;

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

fn render_series(out: &mut String, s: &TimeSeries) {
    let _ = writeln!(out, "series {}", s.name);
    for (at, v) in &s.points {
        let _ = writeln!(out, "  {} {v:?}", at.0);
    }
}

/// Every scalar and series of the report, one per line, exact.
fn render(r: &RunReport, events: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "policy {}", r.policy);
    let _ = writeln!(out, "events {events}");
    let _ = writeln!(out, "measured_ns {}", r.measured.as_nanos());
    for (name, v) in [
        ("involved_mpps", r.involved_mpps),
        ("involved_gbps", r.involved_gbps),
        ("bypass_gbps", r.bypass_gbps),
        ("bypass_mpps", r.bypass_mpps),
        ("llc_miss_rate", r.llc_miss_rate),
        ("fast_path_gbps", r.fast_path_gbps),
        ("slow_path_gbps", r.slow_path_gbps),
    ] {
        let _ = writeln!(out, "{name} {v:?}");
    }
    for (name, v) in [
        ("dropped", r.dropped),
        ("slow_path_pkts", r.slow_path_pkts),
        ("ordering_stalls", r.ordering_stalls),
    ] {
        let _ = writeln!(out, "{name} {v}");
    }
    for (name, h) in [
        ("involved_latency", &r.involved_latency),
        ("fast_latency", &r.fast_latency),
        ("slow_latency", &r.slow_latency),
    ] {
        let _ = writeln!(
            out,
            "{name} count={} p50={} p99={} p999={} max={} sum={}",
            h.count(),
            h.p50(),
            h.p99(),
            h.p999(),
            h.max(),
            h.sum()
        );
    }
    for s in [
        &r.involved_mpps_series,
        &r.bypass_gbps_series,
        &r.miss_series,
        &r.fast_gbps_series,
        &r.slow_gbps_series,
        &r.drops_series,
    ] {
        render_series(&mut out, s);
    }
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/churn256_ceio.txt")
}

#[test]
fn churn256_ceio_matches_golden_and_is_deterministic() {
    let (report, events) = run_churn();
    let actual = render(&report, events);
    assert!(
        report.involved_mpps > 0.0 && report.slow_path_pkts > 0,
        "the churn run must deliver on both paths"
    );
    let (again, again_events) = run_churn();
    assert_eq!(
        actual,
        render(&again, again_events),
        "two runs of the same configuration must agree byte-for-byte"
    );

    let path = golden_path();
    if std::env::var_os("CEIO_GOLDEN_REGEN").is_some() {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create golden dir");
        }
        std::fs::write(&path, &actual).expect("write golden file");
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
        "the many-flow churn run diverged from {}\n\
         (if the change is intentional, regenerate with CEIO_GOLDEN_REGEN=1 \
         and review the diff)",
        path.display()
    );
}
