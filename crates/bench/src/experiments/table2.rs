//! Table 2: P99 and P99.9 latency (µs) under the 512 B echo workload, for
//! the three datapaths × Baseline / HostCC / ShRing / CEIO.
//!
//! Paper shape to reproduce: every optimization cuts tails versus the
//! baseline; ShRing beats HostCC; CEIO gives the deepest reductions
//! (2.0–4.7× at P99/P99.9).

use crate::runner::{run_jobs, run_one, PolicyKind};
use crate::table::{self, Table};
use crate::workloads::{self, AppKind, Transport};
use ceio_host::RunReport;
use ceio_net::FlowClass;
use ceio_sim::Histogram;

/// Datapaths of the table: transport + flow class + consumer.
struct Datapath {
    label: &'static str,
    transport: Transport,
    class: FlowClass,
    app: AppKind,
}

// Substitution note: the paper's 512 B echo server saturates its testbed
// CPUs; this model's echo consumer is far cheaper than the modeled host
// path, so the equivalent pressure point is the 512 B KV RPC under
// saturation — same packet size, same flow class, same contention.
const DATAPATHS: [Datapath; 3] = [
    Datapath {
        label: "eRPC (DPDK)",
        transport: Transport::Dpdk,
        class: FlowClass::CpuInvolved,
        app: AppKind::Kv,
    },
    Datapath {
        label: "eRPC (RDMA)",
        transport: Transport::Rdma,
        class: FlowClass::CpuInvolved,
        app: AppKind::Kv,
    },
    Datapath {
        label: "LineFS",
        transport: Transport::Rdma,
        class: FlowClass::CpuBypass,
        app: AppKind::LineFs,
    },
];

/// Run Table 2 and return the formatted report.
pub fn run(quick: bool, jobs: usize) -> String {
    let spans = workloads::spans(quick);
    let points: Vec<(&Datapath, PolicyKind)> = DATAPATHS
        .iter()
        .flat_map(|dp| PolicyKind::COMPETITORS.map(|kind| (dp, kind)))
        .collect();
    let reports = run_jobs(jobs, &points, |&(dp, kind)| {
        let host = workloads::contended_host(dp.transport);
        let link = host.net.link_bandwidth;
        let scenario = match dp.class {
            FlowClass::CpuInvolved => workloads::involved_flows(8, 512, link),
            // LineFS: 512 B messages, write-with-immediate per message.
            FlowClass::CpuBypass => workloads::bypass_flows(8, 512, 512, link),
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
        "Table 2 — P99 / P99.9 latency (us), 512B RPC under saturation (echo-workload substitution, see module docs)",
        &["datapath", "policy", "P99", "P99 vs base", "P99.9", "P99.9 vs base"],
    );
    let mut idx = 0;
    for dp in &DATAPATHS {
        let group = &reports[idx..idx + 4];
        idx += 4;
        let lat = |r: &RunReport| -> Histogram {
            match dp.class {
                FlowClass::CpuInvolved => r.involved_latency.clone(),
                FlowClass::CpuBypass => r.bypass_latency.clone(),
            }
        };
        // Single-pass tail extraction: one CDF walk per histogram instead
        // of one per percentile accessor.
        let tails = |h: &Histogram| -> (u64, u64) {
            let q = h.quantiles(&[0.99, 0.999]);
            (q[0], q[1])
        };
        let (b99, b999) = tails(&lat(&group[0]));
        for r in group {
            let (p99, p999) = tails(&lat(r));
            let red = |x: u64, b: u64| -> String {
                if x == 0 {
                    "-".to_string()
                } else {
                    format!("down {:.2}x", b as f64 / x as f64)
                }
            };
            t.row(vec![
                dp.label.to_string(),
                r.policy.clone(),
                table::us(p99),
                red(p99, b99),
                table::us(p999),
                red(p999, b999),
            ]);
        }
        t.separator();
    }
    t.render()
}
