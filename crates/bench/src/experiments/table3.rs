//! Table 3: latency (µs) of RDMA write vs CEIO fast path vs CEIO slow
//! path at 64 B / 1024 B / 4096 B, perftest `ib_write_lat` style.
//!
//! Paper shape to reproduce: CEIO adds a modest 1.10–1.48× latency over a
//! raw RDMA write; the slow path is slower than the fast path, and the gap
//! grows with message size (onboard-memory traversal).

use crate::runner::{run_jobs, run_one, PolicyKind};
use crate::table::{self, Table};
use crate::workloads::{self, AppKind};
use ceio_apps::write_lat_flow;
use ceio_host::{HostConfig, RunReport};
use ceio_net::Scenario;
use ceio_sim::{Duration, Time};

const SIZES: [u64; 3] = [64, 1024, 4096];

fn scenario(msg_bytes: u64, host: &HostConfig) -> Scenario {
    let mut s = Scenario::new();
    s.start_at(Time::ZERO, write_lat_flow(0, msg_bytes, host.net.mtu));
    s.build()
}

fn lat_host() -> HostConfig {
    let mut host = HostConfig::default();
    // ib_write_lat runs back-to-back servers; use a one-hop 500 ns wire so
    // absolute numbers land in the paper's low-microsecond regime.
    host.net.base_delay = Duration::nanos(500);
    host
}

/// Run Table 3 and return the formatted report.
pub fn run(quick: bool, jobs: usize) -> String {
    let spans = workloads::spans(quick);
    let variants = [
        ("RDMA write", PolicyKind::Baseline),
        ("Fast path", PolicyKind::Ceio),
        ("Slow path", PolicyKind::CeioSlowOnly),
    ];
    let points: Vec<(u64, PolicyKind)> = SIZES
        .iter()
        .flat_map(|&size| variants.map(|(_, kind)| (size, kind)))
        .collect();
    let reports = run_jobs(jobs, &points, |&(size, kind)| {
        let host = lat_host();
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
        "Table 3 — ib_write_lat-style latency (us, median)",
        &[
            "size",
            "RDMA write",
            "Fast path",
            "fast/rdma",
            "Slow path",
            "slow/rdma",
        ],
    );
    for (i, &size) in SIZES.iter().enumerate() {
        let p50 = |r: &RunReport| r.bypass_latency.p50();
        let rdma = p50(&reports[i * 3]);
        let fast = p50(&reports[i * 3 + 1]);
        let slow = p50(&reports[i * 3 + 2]);
        let ratio = |x: u64| {
            if rdma == 0 {
                "-".to_string()
            } else {
                format!("{:.2}x", x as f64 / rdma as f64)
            }
        };
        t.row(vec![
            format!("{size}B"),
            table::us(rdma),
            table::us(fast),
            ratio(fast),
            table::us(slow),
            ratio(slow),
        ]);
    }
    t.render()
}
