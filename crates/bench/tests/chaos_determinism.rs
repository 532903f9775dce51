//! Determinism contract of the fault-injection CLI surface: the same
//! `--seed`/`--fault-plan` flags must reproduce byte-identical artifacts
//! (the `ceio-trace` CSV and the `ceio-inspect` snapshot JSON), and a
//! malformed plan spec must be rejected at parse time — the CLIs turn
//! that `Err` into `exit(2)`.

use ceio_chaos::FaultPlan;

#[test]
fn malformed_fault_plan_specs_are_rejected() {
    // The CLIs validate the spec up front and exit 2 on any of these,
    // before a machine is built.
    for bad in [
        "",
        "no-such-site=0.5",
        "dma-write-fault=1.5",
        "dma-write-fault=abc",
        "dma-write-fault",
        "lease-ttl=12parsecs",
    ] {
        assert!(
            FaultPlan::parse(bad, 1).is_err(),
            "spec {bad:?} must be rejected"
        );
    }
    for good in FaultPlan::CANNED {
        assert!(
            FaultPlan::parse(good, 1).is_ok(),
            "canned {good} must parse"
        );
    }
    assert!(FaultPlan::parse("dma-write-fault=0.05,consumer-pause=10us", 1).is_ok());
}

mod armed {
    use super::*;
    use ceio_bench::runner::{run_one_with_plan, series_csv, PolicyKind};
    use ceio_bench::workloads::{self, AppKind, Transport};
    use ceio_sim::{Duration, Time};

    fn csv_for(seed: u64) -> String {
        let plan = FaultPlan::parse("smoke", seed).expect("canned plan");
        let host = workloads::contended_host(Transport::Dpdk);
        let link = host.net.link_bandwidth;
        let (report, _) = run_one_with_plan(
            host,
            PolicyKind::Ceio,
            workloads::involved_flows(8, 512, link),
            workloads::app_factory(AppKind::Kv),
            Duration::millis(1),
            Duration::millis(2),
            Some(&plan),
        );
        series_csv(&report)
    }

    #[test]
    fn identical_flags_emit_byte_identical_csv() {
        let a = csv_for(7);
        let b = csv_for(7);
        assert_eq!(a, b, "same seed+plan must reproduce the CSV byte-for-byte");
        assert!(a.lines().count() > 1, "the run must produce samples");
    }

    #[test]
    fn different_seeds_emit_different_faults() {
        // Not a strict requirement per-byte (a tiny run could coincide),
        // so compare the injected-fault counts, which the seed drives
        // directly.
        let count = |seed: u64| {
            let plan = FaultPlan::parse("dma-flaky", seed).expect("canned plan");
            let host = workloads::contended_host(Transport::Dpdk);
            let link = host.net.link_bandwidth;
            let (_, sim) = run_one_with_plan(
                host,
                PolicyKind::Ceio,
                workloads::involved_flows(8, 512, link),
                workloads::app_factory(AppKind::Kv),
                Duration::millis(1),
                Duration::millis(2),
                Some(&plan),
            );
            sim.model.injected_faults()
        };
        assert!(count(1) > 0, "the plan must inject");
        assert_ne!(
            count(1),
            count(2),
            "distinct seeds must draw distinct fault schedules"
        );
    }

    #[test]
    fn identical_flags_emit_byte_identical_metrics_snapshots() {
        let snapshot_for = || {
            let plan = FaultPlan::parse("smoke", 21).expect("canned plan");
            let host = workloads::contended_host(Transport::Dpdk);
            let link = host.net.link_bandwidth;
            let warmup = Duration::millis(1);
            let measure = Duration::millis(2);
            let (_, sim) = run_one_with_plan(
                host,
                PolicyKind::Ceio,
                workloads::involved_flows(8, 512, link),
                workloads::app_factory(AppKind::Kv),
                warmup,
                measure,
                Some(&plan),
            );
            sim.model
                .snapshot(Time::ZERO + warmup + measure)
                .to_prom_text()
        };
        let a = snapshot_for();
        let b = snapshot_for();
        assert_eq!(
            a, b,
            "same seed+plan must reproduce the metrics snapshot byte-for-byte"
        );
        assert!(
            a.contains("ceio_chaos_injected_total"),
            "an armed plan must export the injection counter"
        );
    }
}
