//! Figure 11: single-flow throughput of CEIO's fast path and slow path
//! against `ib_write_bw`, varying message size.
//!
//! Paper shape to reproduce: the fast path tracks `ib_write_bw` (credit
//! control overhead is negligible); the slow path approaches the fast path
//! once messages exceed 4 KB, with the gap staying under ~22%.

use crate::runner::{run_jobs, run_one, PolicyKind};
use crate::table::{self, Table};
use crate::workloads::{self, AppKind};
use ceio_apps::write_bw_flow;
use ceio_host::HostConfig;
use ceio_net::Scenario;
use ceio_sim::Time;

const SIZES: [u64; 7] = [64, 256, 512, 1024, 4096, 16384, 65536];

fn scenario(msg_bytes: u64, host: &HostConfig) -> Scenario {
    let mut s = Scenario::new();
    s.start_at(
        Time::ZERO,
        write_bw_flow(0, msg_bytes, host.net.mtu, host.net.link_bandwidth),
    );
    s.build()
}

/// Run Figure 11 and return the formatted report.
pub fn run(quick: bool, jobs: usize) -> String {
    let spans = workloads::spans(quick);
    let sizes: &[u64] = if quick { &SIZES[..4] } else { &SIZES };
    let variants = [
        ("ib_write_bw", PolicyKind::Baseline),
        ("CEIO fast path", PolicyKind::Ceio),
        ("CEIO slow path", PolicyKind::CeioSlowOnly),
    ];

    let points: Vec<(u64, PolicyKind)> = sizes
        .iter()
        .flat_map(|&size| variants.map(|(_, kind)| (size, kind)))
        .collect();
    let reports = run_jobs(jobs, &points, |&(size, kind)| {
        let host = HostConfig::default();
        let scen = scenario(size, &host);
        run_one(
            host,
            kind,
            scen,
            workloads::app_factory(AppKind::Sink),
            spans.warmup,
            spans.measure,
        )
    });

    let mut t = Table::new(
        "Figure 11 — single-flow throughput vs message size (Gbps)",
        &[
            "msg size",
            "ib_write_bw",
            "CEIO fast",
            "CEIO slow",
            "fast/bw",
            "slow/fast gap",
        ],
    );
    for (i, &size) in sizes.iter().enumerate() {
        let bw = reports[i * 3].total_gbps();
        let fast = reports[i * 3 + 1].total_gbps();
        let slow = reports[i * 3 + 2].total_gbps();
        let gap = if fast > 0.0 {
            format!("{:.0}%", (1.0 - slow / fast) * 100.0)
        } else {
            "-".to_string()
        };
        t.row(vec![
            if size >= 1024 {
                format!("{}KB", size / 1024)
            } else {
                format!("{size}B")
            },
            table::f(bw, 1),
            table::f(fast, 1),
            table::f(slow, 1),
            table::speedup(fast, bw),
            gap,
        ]);
    }
    t.render()
}
