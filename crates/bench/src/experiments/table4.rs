//! Table 4: throughput (Mpps) of CPU-involved flows on mixed I/O flows at
//! ratios 3:1 / 1:1 / 1:3 (CPU-involved : CPU-bypass, 8 flows total),
//! comparing Baseline, CEIO without fast/slow-path optimizations, and full
//! CEIO.
//!
//! Paper shape to reproduce: the involved-dominant case benefits most from
//! credit reallocation (1.53× → 1.94×); the bypass-dominant case benefits
//! most from the ring + async-access optimizations (1.16× → 1.71×); full
//! CEIO beats the unoptimized variant at every ratio.

use crate::runner::{run_jobs, run_one, PolicyKind};
use crate::table::{self, Table};
use crate::workloads::{self, AppKind, Transport};

const RATIOS: [(u32, u32, &str); 3] = [(6, 2, "3:1"), (4, 4, "1:1"), (2, 6, "1:3")];

/// Run Table 4 and return the formatted report.
pub fn run(quick: bool, jobs: usize) -> String {
    let spans = workloads::spans(quick);
    let policies = [
        PolicyKind::Baseline,
        PolicyKind::CeioNoOpt,
        PolicyKind::Ceio,
    ];
    let points: Vec<(u32, u32, PolicyKind)> = RATIOS
        .iter()
        .flat_map(|&(inv, byp, _)| policies.map(|kind| (inv, byp, kind)))
        .collect();
    let reports = run_jobs(jobs, &points, |&(inv, byp, kind)| {
        let host = workloads::contended_host(Transport::Dpdk);
        let link = host.net.link_bandwidth;
        run_one(
            host,
            kind,
            workloads::mixed_flows(inv, byp, 512, link),
            workloads::app_factory(AppKind::Mixed),
            spans.warmup,
            spans.measure,
        )
    });

    let mut t = Table::new(
        "Table 4 — CPU-involved throughput (Mpps) on mixed I/O flows",
        &[
            "ratio",
            "Baseline",
            "CEIO w/o opt",
            "(speedup)",
            "CEIO",
            "(speedup)",
        ],
    );
    for (i, &(_, _, label)) in RATIOS.iter().enumerate() {
        let base = reports[i * 3].involved_mpps;
        let noopt = reports[i * 3 + 1].involved_mpps;
        let full = reports[i * 3 + 2].involved_mpps;
        t.row(vec![
            label.to_string(),
            table::f(base, 3),
            table::f(noopt, 3),
            table::speedup(noopt, base),
            table::f(full, 3),
            table::speedup(full, base),
        ]);
    }
    t.render()
}
