//! §6.3 "Scenarios where CEIO's benefits are limited":
//!
//! 1. **Low memory pressure** — 64 B packets with VxLAN decapsulation and a
//!    small buffer footprint: everything fits in the LLC, every method
//!    performs the same (<5% miss; the paper reports ~89 Mpps for all).
//! 2. **Large packets** — 9000 B jumbo-frame echo: per-packet overheads
//!    amortize, the system reaches line rate even with a ~48% miss rate,
//!    so LLC management buys nothing.

use crate::runner::{run_jobs, run_one, PolicyKind};
use crate::table::{self, Table};
use crate::workloads::{self, AppKind};
use ceio_host::HostConfig;

/// Run the limited-benefit scenarios and return the formatted report.
pub fn run(quick: bool, jobs: usize) -> String {
    let spans = workloads::spans(quick);
    let points: Vec<(bool, PolicyKind)> = [false, true]
        .into_iter()
        .flat_map(|jumbo| PolicyKind::COMPETITORS.map(|kind| (jumbo, kind)))
        .collect();
    let reports = run_jobs(jobs, &points, |&(jumbo, kind)| {
        let (host, bytes, app) = if jumbo {
            // (2) 9000 B jumbo echo at line rate.
            let mut host = HostConfig {
                ring_entries: 16384,
                buf_bytes: 9216,
                ..HostConfig::default()
            };
            host.net.mtu = 9000;
            (host, 9000, AppKind::Echo)
        } else {
            // (1) 64 B VxLAN decap, small footprint: 2k buffers/flow = 1 MB
            // total.
            let host = HostConfig {
                ring_entries: 2048,
                ..HostConfig::default()
            };
            (host, 64, AppKind::Vxlan)
        };
        let link = host.net.link_bandwidth;
        run_one(
            host,
            kind,
            workloads::involved_flows(8, bytes, link),
            workloads::app_factory(app),
            spans.warmup,
            spans.measure,
        )
    });

    let mut t = Table::new(
        "S6.3 limited-benefit scenarios — all methods converge",
        &["scenario", "policy", "Mpps", "Gbps", "miss%", "line-rate?"],
    );
    let scenarios = [
        ("64B VxLAN decap (low pressure)", 0),
        ("9000B jumbo echo", 4),
    ];
    for (label, off) in scenarios {
        for r in &reports[off..off + 4] {
            let line = r.total_gbps() > 0.9 * 200.0;
            t.row(vec![
                label.to_string(),
                r.policy.clone(),
                table::f(r.total_mpps(), 1),
                table::f(r.total_gbps(), 1),
                table::f(r.llc_miss_rate * 100.0, 1),
                if line { "yes" } else { "no" }.to_string(),
            ]);
        }
        t.separator();
    }
    t.render()
}
