//! Figure 9: throughput and LLC miss rate under static network conditions,
//! varying packet size (128–1024 B), for the three datapaths —
//! eRPC (DPDK), eRPC (RDMA), LineFS (RDMA) — across
//! Baseline / HostCC / ShRing / CEIO.
//!
//! Paper shape to reproduce: CEIO reduces the miss rate from ~88% to ~1%
//! and wins throughput at small packets (up to ~1.5× over HostCC); ShRing's
//! miss rate matches CEIO's but its throughput trails (CCA triggers);
//! gains shrink as packet size grows (§6.3).

use crate::runner::{run_jobs, run_one, PolicyKind};
use crate::table::{self, Table};
use crate::workloads::{self, AppKind, Transport};
use ceio_net::FlowClass;

const SIZES: [u64; 4] = [128, 256, 512, 1024];

struct Datapath {
    label: &'static str,
    transport: Transport,
    app: AppKind,
    class: FlowClass,
}

const DATAPATHS: [Datapath; 3] = [
    Datapath {
        label: "eRPC (DPDK)",
        transport: Transport::Dpdk,
        app: AppKind::Kv,
        class: FlowClass::CpuInvolved,
    },
    Datapath {
        label: "eRPC (RDMA)",
        transport: Transport::Rdma,
        app: AppKind::Kv,
        class: FlowClass::CpuInvolved,
    },
    Datapath {
        label: "LineFS (RDMA)",
        transport: Transport::Rdma,
        app: AppKind::LineFs,
        class: FlowClass::CpuBypass,
    },
];

/// Run Figure 9 and return the formatted report.
pub fn run(quick: bool, jobs: usize) -> String {
    let spans = workloads::spans(quick);
    let sizes: &[u64] = if quick { &SIZES[2..3] } else { &SIZES };

    let points: Vec<(&Datapath, u64, PolicyKind)> = DATAPATHS
        .iter()
        .flat_map(|dp| {
            sizes
                .iter()
                .flat_map(move |&size| PolicyKind::COMPETITORS.map(|kind| (dp, size, kind)))
        })
        .collect();
    let reports = run_jobs(jobs, &points, |&(dp, size, kind)| {
        let host = workloads::contended_host(dp.transport);
        let link = host.net.link_bandwidth;
        let scenario = match dp.class {
            FlowClass::CpuInvolved => workloads::involved_flows(8, size, link),
            // LineFS streams a 16 GB file in 1 MB chunks (§6.1),
            // segmented at the swept packet size.
            FlowClass::CpuBypass => workloads::bypass_flows(8, size, 1 << 20, link),
        };
        run_one(
            host,
            kind,
            scenario,
            workloads::app_factory(dp.app),
            spans.warmup,
            spans.measure,
        )
    });

    let mut t = Table::new(
        "Figure 9 — static throughput and LLC miss rate vs packet size",
        &[
            "datapath",
            "pkt(B)",
            "policy",
            "Mpps",
            "Gbps",
            "miss%",
            "drops",
            "vs Baseline",
        ],
    );
    let mut idx = 0;
    for dp in &DATAPATHS {
        for &size in sizes {
            let group = &reports[idx..idx + 4];
            idx += 4;
            let base_mpps = group[0].total_mpps();
            for r in group {
                t.row(vec![
                    dp.label.to_string(),
                    size.to_string(),
                    r.policy.clone(),
                    table::f(r.total_mpps(), 2),
                    table::f(r.total_gbps(), 1),
                    table::f(r.llc_miss_rate * 100.0, 1),
                    r.dropped.to_string(),
                    table::speedup(r.total_mpps(), base_mpps),
                ]);
            }
            t.separator();
        }
    }
    t.render()
}
