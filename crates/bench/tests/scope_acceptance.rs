//! Acceptance contract of `ceio-scope`: a seed-pinned two-queue chaos run
//! with the flight recorder and an SLO armed must (a) reproduce its
//! time-series CSV byte-for-byte across independent simulations, (b) fire
//! at least one alert, and (c) render an HTML report carrying the
//! paper-figure charts. This is the library-level mirror of the
//! `scripts/check.sh` scope smoke (which drives the same path through the
//! `ceio-inspect` binary).

use ceio_bench::runner::PolicyKind;
use ceio_bench::workloads::{self, AppKind, Transport};
use ceio_chaos::FaultPlan;
use ceio_host::{Machine, DEFAULT_SCOPE_CAP};
use ceio_sim::Duration;
use ceio_telemetry::{render_html, SloRule};

fn scoped_run() -> (String, Vec<(String, u64, bool)>, String) {
    let plan = FaultPlan::parse("dma-flaky", 7).expect("canned plan");
    let mut host = workloads::contended_host(Transport::Dpdk);
    host.num_queues = 2;
    let link = host.net.link_bandwidth;
    let slos = SloRule::parse_spec("alert=load,when=goodput_gbps,above=0.0001,for=100us")
        .expect("valid SLO spec");
    let policy = PolicyKind::Ceio.build(&host);
    let mut sim = Machine::build(
        host,
        policy,
        workloads::involved_flows(8, 512, link),
        workloads::app_factory(AppKind::Kv),
    );
    ceio_host::arm_chaos(&mut sim, &plan);
    ceio_host::arm_scope(&mut sim, Duration::micros(20), DEFAULT_SCOPE_CAP, slos);
    ceio_host::run_to_report(&mut sim, Duration::millis(1), Duration::millis(3));
    let rec = sim.model.scope().expect("recorder stays armed after run");
    let charts = [
        rec.chart(
            "LLC I/O occupancy vs. DDIO capacity",
            "bytes",
            &["llc_occupancy_bytes", "ddio_capacity_bytes"],
        ),
        rec.chart(
            "Goodput over time",
            "Gbps",
            &["goodput_gbps", "fast_gbps", "slow_gbps"],
        ),
    ];
    let html = render_html("acceptance", &[], &rec.alert_states(), &charts);
    (rec.to_csv(), rec.alert_states(), html)
}

#[test]
fn two_queue_chaos_run_is_deterministic_fires_and_reports() {
    let (csv_a, alerts, html) = scoped_run();
    let (csv_b, _, _) = scoped_run();

    // (a) Byte-identical time series under identical seed+plan+config.
    assert_eq!(
        csv_a, csv_b,
        "seed-pinned two-queue chaos run must reproduce the scope CSV byte-for-byte"
    );
    let header = csv_a.lines().next().expect("CSV has a header");
    assert!(header.starts_with("t_ns,"), "{header}");
    for col in ["rxq_depth.q0", "rxq_depth.q1", "credit_outstanding.q1"] {
        assert!(header.contains(col), "missing per-queue column {col}");
    }
    assert!(
        csv_a.lines().count() > 50,
        "the run must sample many epochs"
    );

    // (b) The goodput SLO must fire at least once.
    let fired: u64 = alerts.iter().map(|(_, n, _)| n).sum();
    assert!(fired >= 1, "expected >=1 alert firing, got {alerts:?}");

    // (c) The report carries both paper figures as inline SVG.
    for needle in [
        "LLC I/O occupancy vs. DDIO capacity",
        "Goodput over time",
        "<svg",
    ] {
        assert!(html.contains(needle), "report HTML missing {needle:?}");
    }
}
