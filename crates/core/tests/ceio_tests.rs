//! End-to-end tests of the CEIO policy on the host machine: the behavioural
//! claims of §4 (zero LLC misses, no drops, slow-path degradation of bypass
//! flows, ordering under phase exclusivity) checked against the same
//! scenarios that thrash the unmanaged baseline.

use ceio_core::{CeioConfig, CeioPolicy};
use ceio_cpu::{AppWork, Application};
use ceio_host::{
    run_to_report, AppFactory, HostConfig, IoPolicy, Machine, RunReport, UnmanagedPolicy,
};
use ceio_net::{FlowClass, FlowSpec, Packet, Scenario};
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

/// The thrash scenario from the machine tests: 8 heavy flows, big rings,
/// slow consumers.
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

fn thrash_cfg() -> HostConfig {
    HostConfig {
        ring_entries: 2048,
        ..HostConfig::default()
    }
}

fn run_policy<P: IoPolicy>(
    cfg: HostConfig,
    policy: P,
    scenario: Scenario,
    cost_ns: u64,
) -> RunReport {
    let mut sim = Machine::build(cfg, policy, scenario, app_factory(cost_ns));
    run_to_report(&mut sim, Duration::millis(2), Duration::millis(5))
}

fn ceio_cfg(host: &HostConfig) -> CeioConfig {
    CeioConfig {
        credit_total: host.credit_total(),
        ..CeioConfig::default()
    }
}

#[test]
fn ceio_eliminates_llc_misses_where_baseline_thrashes() {
    let cfg = thrash_cfg();
    let base = run_policy(cfg.clone(), UnmanagedPolicy, thrash_scenario(), 2_000);
    let ceio = run_policy(
        cfg.clone(),
        CeioPolicy::new(ceio_cfg(&cfg)),
        thrash_scenario(),
        2_000,
    );
    // Fig. 9's headline: baseline ~88% miss, CEIO ~1%.
    assert!(
        base.llc_miss_rate > 0.5,
        "baseline miss {}",
        base.llc_miss_rate
    );
    assert!(
        ceio.llc_miss_rate < 0.05,
        "CEIO miss {}",
        ceio.llc_miss_rate
    );
}

#[test]
fn ceio_throughput_at_least_matches_baseline_under_contention() {
    let cfg = thrash_cfg();
    let base = run_policy(cfg.clone(), UnmanagedPolicy, thrash_scenario(), 2_000);
    let ceio = run_policy(
        cfg.clone(),
        CeioPolicy::new(ceio_cfg(&cfg)),
        thrash_scenario(),
        2_000,
    );
    assert!(
        ceio.involved_mpps >= base.involved_mpps * 0.95,
        "CEIO {} vs baseline {}",
        ceio.involved_mpps,
        base.involved_mpps
    );
}

#[test]
fn ceio_avoids_host_drops_via_elastic_buffering() {
    // Sustained overload: proactive marking converges arrival to the
    // consumption rate, so CEIO neither drops nor needs the slow path in
    // steady state, while the baseline drops continuously.
    let cfg = thrash_cfg();
    let base = run_policy(cfg.clone(), UnmanagedPolicy, thrash_scenario(), 2_000);
    let ceio = run_policy(
        cfg.clone(),
        CeioPolicy::new(ceio_cfg(&cfg)),
        thrash_scenario(),
        2_000,
    );
    assert!(base.dropped > 0, "baseline must be dropping under overload");
    assert_eq!(ceio.dropped, 0, "CEIO dropped {}", ceio.dropped);

    // A sudden burst (8 extra flows at once) outruns any end-to-end CCA
    // for a few RTTs: the elastic buffer must absorb that excess rather
    // than drop it (§4.2, Table 1).
    let mut s = Scenario::new();
    for i in 0..8 {
        s.start_at(
            Time::ZERO,
            FlowSpec::new(i, FlowClass::CpuInvolved, 2048, 1, Bandwidth::gbps(25)),
        );
    }
    for i in 8..16 {
        s.start_at(
            Time::ZERO + Duration::millis(4),
            FlowSpec::new(i, FlowClass::CpuInvolved, 2048, 1, Bandwidth::gbps(25)),
        );
    }
    let burst = run_policy(
        cfg.clone(),
        CeioPolicy::new(ceio_cfg(&cfg)),
        s.build(),
        2_000,
    );
    assert_eq!(burst.dropped, 0, "burst excess must not be dropped");
    assert!(
        burst.slow_path_pkts > 0,
        "burst excess must be elastically buffered"
    );
}

#[test]
fn ceio_latency_beats_baseline_under_contention() {
    let cfg = thrash_cfg();
    let base = run_policy(cfg.clone(), UnmanagedPolicy, thrash_scenario(), 2_000);
    let ceio = run_policy(
        cfg.clone(),
        CeioPolicy::new(ceio_cfg(&cfg)),
        thrash_scenario(),
        2_000,
    );
    assert!(
        ceio.involved_latency.p999() < base.involved_latency.p999(),
        "CEIO p999 {} vs baseline {}",
        ceio.involved_latency.p999(),
        base.involved_latency.p999()
    );
}

#[test]
fn phase_exclusivity_means_zero_ordering_stalls() {
    let cfg = thrash_cfg();
    let ceio = run_policy(
        cfg.clone(),
        CeioPolicy::new(ceio_cfg(&cfg)),
        thrash_scenario(),
        2_000,
    );
    assert_eq!(
        ceio.ordering_stalls, 0,
        "phase exclusivity must never leave a ready packet blocked by a gap"
    );
}

#[test]
fn light_load_stays_entirely_on_fast_path() {
    let cfg = HostConfig::default();
    let mut s = Scenario::new();
    s.start_at(
        Time::ZERO,
        FlowSpec::new(0, FlowClass::CpuInvolved, 1024, 1, Bandwidth::gbps(5)),
    );
    let ceio = run_policy(cfg.clone(), CeioPolicy::new(ceio_cfg(&cfg)), s.build(), 30);
    assert_eq!(ceio.slow_path_pkts, 0, "no slow path needed at light load");
    assert_eq!(ceio.dropped, 0);
    // Overhead check (Fig. 11): CEIO fast path ≈ unmanaged datapath.
    let mut s2 = Scenario::new();
    s2.start_at(
        Time::ZERO,
        FlowSpec::new(0, FlowClass::CpuInvolved, 1024, 1, Bandwidth::gbps(5)),
    );
    let base = run_policy(cfg, UnmanagedPolicy, s2.build(), 30);
    let ratio = ceio.involved_mpps / base.involved_mpps;
    assert!(
        (0.98..=1.02).contains(&ratio),
        "fast-path overhead ratio {ratio}"
    );
}

#[test]
fn bypass_flows_degrade_to_slow_path_in_mixed_workload() {
    // 4 involved + 4 bypass flows, all saturating: bypass flows hold
    // credits across whole messages (lazy release) and must end up on the
    // slow path far more than involved flows (§4.1's design goal).
    let cfg = thrash_cfg();
    let mut s = Scenario::new();
    for i in 0..4 {
        s.start_at(
            Time::ZERO,
            FlowSpec::new(i, FlowClass::CpuInvolved, 1024, 1, Bandwidth::gbps(25)),
        );
    }
    for i in 4..8 {
        s.start_at(
            Time::ZERO,
            FlowSpec::new(i, FlowClass::CpuBypass, 2048, 1024, Bandwidth::gbps(25)),
        );
    }
    let mut sim = Machine::build(
        cfg.clone(),
        CeioPolicy::new(ceio_cfg(&cfg)),
        s.build(),
        app_factory(200),
    );
    run_to_report(&mut sim, Duration::millis(2), Duration::millis(5));
    let st = &sim.model.st;
    let slow_share = |class: FlowClass| -> f64 {
        let (mut slow, mut total) = (0u64, 0u64);
        for f in st.flows.values().filter(|f| f.spec.class == class) {
            slow += f.counters.slow_pkts;
            total += f.ring.arrivals();
        }
        if total == 0 {
            0.0
        } else {
            slow as f64 / total as f64
        }
    };
    let involved_slow = slow_share(FlowClass::CpuInvolved);
    let bypass_slow = slow_share(FlowClass::CpuBypass);
    assert!(
        bypass_slow > involved_slow,
        "bypass flows must degrade more: involved {involved_slow:.3} vs bypass {bypass_slow:.3}"
    );
}

#[test]
fn credit_conservation_holds_through_a_full_run() {
    let cfg = thrash_cfg();
    let mut s = Scenario::new();
    for i in 0..6 {
        s.start_at(
            Time::ZERO,
            FlowSpec::new(i, FlowClass::CpuInvolved, 2048, 1, Bandwidth::gbps(25)),
        );
    }
    // Churn two flows mid-run to exercise stop/start credit paths.
    s.stop_at(Time::ZERO + Duration::millis(2), ceio_net::FlowId(0));
    s.start_at(
        Time::ZERO + Duration::millis(3),
        FlowSpec::new(10, FlowClass::CpuBypass, 2048, 128, Bandwidth::gbps(25)),
    );
    let mut sim = Machine::build(
        cfg.clone(),
        CeioPolicy::new(ceio_cfg(&cfg)),
        s.build(),
        app_factory(2_000),
    );
    run_to_report(&mut sim, Duration::millis(1), Duration::millis(5));
    assert!(
        sim.model.policy.credits.conserved(),
        "credits must be conserved across churn"
    );
    // In-flight credits are bounded by the LLC-derived total (Eq. 1).
    assert!(sim.model.policy.credits.outstanding() <= cfg.credit_total());
}

#[test]
fn ceio_run_is_deterministic() {
    let cfg = thrash_cfg();
    let run = || {
        let r = run_policy(
            cfg.clone(),
            CeioPolicy::new(ceio_cfg(&cfg)),
            thrash_scenario(),
            2_000,
        );
        (
            r.involved_mpps.to_bits(),
            r.llc_miss_rate.to_bits(),
            r.slow_path_pkts,
            r.involved_latency.p999(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn ablation_without_optimizations_is_worse_but_still_beats_baseline() {
    // Table 4's middle column: CEIO w/o fast/slow-path optimizations
    // (sync fetch, no reallocation) on a mixed workload.
    let cfg = thrash_cfg();
    let mk = |full: bool| {
        let mut s = Scenario::new();
        for i in 0..4 {
            s.start_at(
                Time::ZERO,
                FlowSpec::new(i, FlowClass::CpuInvolved, 1024, 1, Bandwidth::gbps(25)),
            );
        }
        for i in 4..8 {
            s.start_at(
                Time::ZERO,
                FlowSpec::new(i, FlowClass::CpuBypass, 2048, 1024, Bandwidth::gbps(25)),
            );
        }
        let ceio_conf = if full {
            ceio_cfg(&cfg)
        } else {
            ceio_cfg(&cfg).without_optimizations()
        };
        run_policy(cfg.clone(), CeioPolicy::new(ceio_conf), s.build(), 200)
    };
    let full = mk(true);
    let without = mk(false);
    // In this small scenario the gap can be within run-to-run jitter; the
    // quantitative comparison is Table 4's job. Here we only require that
    // the optimizations never *hurt* beyond noise.
    assert!(
        full.involved_mpps >= without.involved_mpps * 0.95,
        "optimizations must not hurt: full {} vs w/o {}",
        full.involved_mpps,
        without.involved_mpps
    );
}

#[test]
fn exhausted_elastic_store_degrades_to_drop_mode_and_recovers() {
    // A deliberately tiny on-NIC store plus zero credits forces every
    // packet onto the slow path until the store fills: the controller must
    // enter degraded (drop-fallback) mode instead of parking into a full
    // store, and — once the backlog drains after the sender stops — leave
    // it again through the calm-poll hysteresis.
    let mut cfg = thrash_cfg();
    cfg.nic.onboard_capacity = 8 * 1024; // four packets of 2 KB
    let ceio_conf = CeioConfig {
        credit_total: 0, // everything slow: the store is the only path
        ..ceio_cfg(&cfg)
    };
    let mut s = Scenario::new();
    let mut spec = FlowSpec::new(0, FlowClass::CpuInvolved, 2048, 1, Bandwidth::gbps(50));
    spec.stop = Time::ZERO + Duration::millis(4);
    s.start_at(Time::ZERO, spec);
    let mut sim = Machine::build(cfg, CeioPolicy::new(ceio_conf), s.build(), app_factory(500));
    sim.run_until(Time::ZERO + Duration::millis(8), u64::MAX);
    let policy = &sim.model.policy;
    let st = &sim.model.st;
    assert!(
        policy.stats().degraded_entries > 0,
        "a full store must trip degraded mode"
    );
    assert!(
        policy.stats().degraded_exits > 0,
        "the drained store must re-enable elastic buffering"
    );
    assert!(
        !policy.degraded(),
        "the controller must be back to normal once traffic ends"
    );
    assert!(
        st.dropped_total > 0,
        "degraded mode drops, like legacy DDIO"
    );
    let f = st.flows.values().next().unwrap();
    assert!(f.counters.consumed_pkts > 0, "delivery must continue");
    assert!(policy.credits.conserved(), "Eq. 1 must survive degradation");
    assert_eq!(
        f.gen.emitted(),
        f.counters.consumed_pkts + st.dropped_total,
        "every packet is delivered or counted dropped"
    );
}

mod chaos {
    use super::*;
    use ceio_chaos::{FaultPlan, FaultSite};
    use ceio_net::Scenario;

    fn one_flow(stop_ms: u64) -> Scenario {
        let mut s = Scenario::new();
        let mut spec = FlowSpec::new(0, FlowClass::CpuInvolved, 2048, 1, Bandwidth::gbps(25));
        spec.stop = Time::ZERO + Duration::millis(stop_ms);
        s.start_at(Time::ZERO, spec);
        s
    }

    #[test]
    fn lost_releases_are_reclaimed_by_the_lease_watchdog() {
        // 30% of lazy credit releases vanish on the NIC-host path. Without
        // leases the flow would bleed credits until fully degraded; the
        // watchdog reclaims every lost grant at TTL expiry, so the flow
        // keeps consuming fast-path credits and Eq. 1 holds throughout.
        let cfg = thrash_cfg();
        let plan = FaultPlan::new(21).with_rate(FaultSite::CreditReleaseLoss, 0.3);
        let mut sim = Machine::build(
            cfg.clone(),
            CeioPolicy::new(ceio_cfg(&cfg)),
            one_flow(4).build(),
            app_factory(500),
        );
        sim.model.arm_chaos(&plan);
        sim.run_until(Time::ZERO + Duration::millis(8), u64::MAX);
        let cm = &sim.model.policy.credits;
        assert!(cm.leases_enabled(), "the plan's TTL must arm leases");
        assert!(
            cm.stats().lease_reclaims > 0,
            "lost releases must be recovered by the watchdog"
        );
        assert!(cm.conserved(), "Eq. 1 must hold under release loss");
        let f = sim.model.st.flows.values().next().unwrap();
        assert!(
            f.counters.consumed_pkts > 1000,
            "recovered credits keep the fast path alive: {}",
            f.counters.consumed_pkts
        );
    }

    #[test]
    fn delayed_releases_do_not_double_credit() {
        // Releases delayed past the lease TTL race the watchdog: the
        // reclaim wins and the late release must be dropped as stale, not
        // credited a second time. A short TTL makes the race frequent.
        let cfg = thrash_cfg();
        let plan = FaultPlan::new(5)
            .with_rate(FaultSite::CreditReleaseDelay, 0.5)
            .with_lease_ttl(Some(ceio_sim::Duration::micros(30)));
        let mut sim = Machine::build(
            cfg.clone(),
            CeioPolicy::new(ceio_cfg(&cfg)),
            one_flow(4).build(),
            app_factory(500),
        );
        sim.model.arm_chaos(&plan);
        sim.run_until(Time::ZERO + Duration::millis(8), u64::MAX);
        let cm = &sim.model.policy.credits;
        assert!(
            cm.conserved(),
            "delay/reclaim races must never mint credits"
        );
        assert!(
            cm.outstanding() <= cm.total(),
            "no overdraft under delayed releases"
        );
        let stats = sim.model.policy.chaos_stats().expect("chaos must be armed");
        assert!(
            stats.at(FaultSite::CreditReleaseDelay) > 0,
            "delays must actually have been injected"
        );
    }

    #[test]
    fn rmt_install_delays_charge_the_arm_core() {
        let cfg = thrash_cfg();
        let run = |plan: Option<FaultPlan>| {
            let ceio_conf = CeioConfig {
                // Tight credits force frequent fast<->slow rewrites.
                credit_total: 4,
                ..ceio_cfg(&cfg)
            };
            let mut sim = Machine::build(
                cfg.clone(),
                CeioPolicy::new(ceio_conf),
                one_flow(2).build(),
                app_factory(500),
            );
            if let Some(p) = plan.as_ref() {
                sim.model.arm_chaos(p);
            }
            sim.run_until(Time::ZERO + Duration::millis(4), u64::MAX);
            (
                sim.model.st.nic_arm.stats().busy_ns,
                sim.model.policy.stats().rule_rewrites,
            )
        };
        let (busy_clean, rewrites_clean) = run(None);
        let (busy_chaos, _) = run(Some(
            FaultPlan::new(9).with_rate(FaultSite::RmtInstallDelay, 1.0),
        ));
        assert!(rewrites_clean > 0, "the workload must rewrite rules");
        assert!(
            busy_chaos > busy_clean,
            "injected RMT delays must show up as ARM-core busy time: \
             clean {busy_clean} vs chaos {busy_chaos}"
        );
    }

    #[test]
    fn full_canned_storm_preserves_invariants() {
        // Every fault site at once (the "smoke" canned plan): the run must
        // stay conserved, keep delivering, and report recovery activity.
        let cfg = thrash_cfg();
        let plan = FaultPlan::canned("smoke", 1234).expect("smoke plan exists");
        let mut sim = Machine::build(
            cfg.clone(),
            CeioPolicy::new(ceio_cfg(&cfg)),
            one_flow(4).build(),
            app_factory(500),
        );
        sim.model.arm_chaos(&plan);
        sim.run_until(Time::ZERO + Duration::millis(10), u64::MAX);
        assert!(
            sim.model.injected_faults() > 0,
            "the smoke plan must inject something"
        );
        assert!(
            sim.model.policy.credits.conserved(),
            "Eq. 1 under the storm"
        );
        let f = sim.model.st.flows.values().next().unwrap();
        assert!(f.counters.consumed_pkts > 0, "the pipeline must survive");
    }
}
