//! Ablations of CEIO's design choices beyond the paper's Table 4 column:
//!
//! * **Async vs sync slow-path access** (§4.2): with all traffic forced
//!   onto the slow path, `async_recv()`'s overlap should beat blocking
//!   `recv()` throughput.
//! * **Phase exclusivity on/off** (§4.2): disabling it lets fast-path
//!   packets overtake parked slow-path ones; the machine counts the
//!   resulting ordering stalls (must be zero when enabled).
//! * **Credit sizing** (Eq. 1): credits at 0.5×/1×/2×/4× of the
//!   LLC-derived total show that under-sizing wastes fast-path capacity
//!   while over-sizing reintroduces LLC misses — Eq. 1 is the knee.
//! * **MPQ vs lazy credit release** (§4.1's rejected design): PIAS-style
//!   priority decay demotes long-lived CPU-involved flows off the fast
//!   path just like DFS transfers; CEIO's lazy release keeps continuously
//!   consumed flows fast without any priority machinery.

use crate::runner::run_jobs;
use crate::table::{self, Table};
use crate::workloads::{self, AppKind, Transport};
use ceio_baselines::OraclePolicy;
use ceio_core::{CeioConfig, CeioPolicy, MpqConfig, MpqPolicy};
use ceio_host::{run_to_report, Machine, RunReport};

fn run_ceio_with(
    cfg_mod: impl FnOnce(CeioConfig) -> CeioConfig,
    scenario: ceio_net::Scenario,
    host: ceio_host::HostConfig,
    app: AppKind,
    spans: workloads::Spans,
    label: &str,
) -> RunReport {
    let ceio = cfg_mod(CeioConfig {
        credit_total: host.credit_total(),
        ..CeioConfig::default()
    });
    let mut sim = Machine::build(
        host,
        CeioPolicy::new(ceio),
        scenario,
        workloads::app_factory(app),
    );
    let mut r = run_to_report(&mut sim, spans.warmup, spans.measure);
    r.policy = label.to_string();
    r
}

/// Run the ablation suite and return the formatted report.
pub fn run(quick: bool, jobs: usize) -> String {
    let sp = workloads::spans(quick);
    let host = workloads::contended_host(Transport::Dpdk);
    let link = host.net.link_bandwidth;

    // (a) async vs sync slow-path drain: all-slow echo (zero credits).
    let variants = [
        (true, "slow path, async_recv"),
        (false, "slow path, sync recv"),
    ];
    let pair = run_jobs(jobs, &variants, |&(async_fetch, label)| {
        run_ceio_with(
            |c| CeioConfig {
                credit_total: 0,
                async_fetch,
                ..c
            },
            workloads::involved_flows(1, 1024, link),
            host.clone(),
            AppKind::Echo,
            sp,
            label,
        )
    });

    let mut out = String::new();
    let mut t = Table::new(
        "Ablation A — slow-path access mode (single 1024B echo flow, credits=0)",
        &["variant", "Gbps", "Mpps", "p999(us)"],
    );
    for r in &pair {
        t.row(vec![
            r.policy.clone(),
            table::f(r.total_gbps(), 1),
            table::f(r.total_mpps(), 2),
            table::us(r.involved_latency.p999()),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');

    // (b) phase exclusivity on/off: 8 overloaded KV flows cycle between
    // the paths, so disabling exclusivity lets fast packets overtake
    // parked slow ones and delivery stalls on sequence gaps.
    let variants = [
        (true, "phase exclusivity ON"),
        (false, "phase exclusivity OFF"),
    ];
    let pair = run_jobs(jobs, &variants, |&(phase_exclusivity, label)| {
        run_ceio_with(
            |c| CeioConfig {
                phase_exclusivity,
                ..c
            },
            workloads::involved_flows(8, 512, link),
            host.clone(),
            AppKind::Kv,
            sp,
            label,
        )
    });
    let mut t = Table::new(
        "Ablation B — phase exclusivity (8 saturating KV flows)",
        &["variant", "involved Mpps", "ordering stalls", "p999(us)"],
    );
    for r in &pair {
        t.row(vec![
            r.policy.clone(),
            table::f(r.involved_mpps, 2),
            r.ordering_stalls.to_string(),
            table::us(r.involved_latency.p999()),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');

    // (c) credit sizing around Eq. 1.
    let eq1 = host.credit_total();
    let factors = [
        (eq1 / 2, "0.5x"),
        (eq1, "1.0x (Eq.1)"),
        (eq1 * 2, "2x"),
        (eq1 * 4, "4x"),
    ];
    let sized = run_jobs(jobs, &factors, |&(credits, label)| {
        // 2048 B packets fill their whole buffer, making Eq. 1 tight, and
        // two shared cores keep the CPU overloaded so outstanding data
        // actually reaches whatever bound the credits allow.
        let host = ceio_host::HostConfig {
            num_cores: Some(2),
            ..host.clone()
        };
        run_ceio_with(
            |c| CeioConfig {
                credit_total: credits,
                ..c
            },
            workloads::involved_flows(8, 2048, link),
            host,
            AppKind::Kv,
            sp,
            label,
        )
    });
    let mut t = Table::new(
        "Ablation C — credit total vs Eq. 1 (8 KV flows, 2048B)",
        &["credits", "Mpps", "miss%", "slow-path pkts"],
    );
    for r in &sized {
        t.row(vec![
            r.policy.clone(),
            table::f(r.involved_mpps, 2),
            table::f(r.llc_miss_rate * 100.0, 1),
            r.slow_path_pkts.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');

    // (d) MPQ vs lazy credit release (§4.1): continuous RPC flows are
    // long-lived — PIAS-style byte-count decay demotes them alongside the
    // DFS tenant, while CEIO's lazy release never does.
    let mixed = || workloads::mixed_flows(4, 4, 512, link);
    let pair = run_jobs(jobs, &[false, true], |&mpq| {
        if !mpq {
            return run_ceio_with(
                |c| c,
                mixed(),
                host.clone(),
                AppKind::Mixed,
                sp,
                "CEIO (lazy release)",
            );
        }
        let cfg = MpqConfig {
            credit_total: host.credit_total(),
            ..MpqConfig::default()
        };
        let mut sim = Machine::build(
            host.clone(),
            MpqPolicy::new(cfg),
            mixed(),
            workloads::app_factory(AppKind::Mixed),
        );
        let mut r = run_to_report(&mut sim, sp.warmup, sp.measure);
        r.policy = "MPQ (PIAS-style)".to_string();
        r
    });
    let mut t = Table::new(
        "Ablation D — lazy credit release vs Multiple Priority Queues (4:4 mixed)",
        &[
            "variant",
            "involved Mpps",
            "involved p999(us)",
            "slow-path pkts",
        ],
    );
    for r in &pair {
        t.row(vec![
            r.policy.clone(),
            table::f(r.involved_mpps, 2),
            table::us(r.involved_latency.p999()),
            r.slow_path_pkts.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');

    // (e) Inference vs oracle: how much of the ideal (ground-truth
    // class-based steering) does CEIO's behavioural inference recover?
    let pair = run_jobs(jobs, &[false, true], |&oracle| {
        if !oracle {
            return run_ceio_with(
                |c| c,
                mixed(),
                host.clone(),
                AppKind::Mixed,
                sp,
                "CEIO (inferred)",
            );
        }
        let cfg = CeioConfig {
            credit_total: host.credit_total(),
            ..CeioConfig::default()
        };
        let mut sim = Machine::build(
            host.clone(),
            OraclePolicy::new(cfg),
            mixed(),
            workloads::app_factory(AppKind::Mixed),
        );
        let mut r = run_to_report(&mut sim, sp.warmup, sp.measure);
        r.policy = "Oracle (ground truth)".to_string();
        r
    });
    let mut t = Table::new(
        "Ablation E — behavioural inference vs ground-truth oracle (4:4 mixed)",
        &["variant", "involved Mpps", "bypass Gbps", "miss%"],
    );
    for r in &pair {
        t.row(vec![
            r.policy.clone(),
            table::f(r.involved_mpps, 2),
            table::f(r.bypass_gbps, 1),
            table::f(r.llc_miss_rate * 100.0, 1),
        ]);
    }
    out.push_str(&t.render());
    out
}
