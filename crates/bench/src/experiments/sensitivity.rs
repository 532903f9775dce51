//! Sensitivity analysis (extension beyond the paper's figures): how CEIO's
//! benefit scales with the scarcity of the resource it manages.
//!
//! * **DDIO partition size**: the paper evaluates one cache (6 MB DDIO of
//!   a 12 MB LLC). Sweeping the partition shows the gain growing as the
//!   cache gets scarcer relative to in-flight data — and vanishing once
//!   the partition holds the whole working set (the §6.3 low-pressure
//!   result, reached from the other direction).
//! * **DRAM effective bandwidth**: misses are only expensive if DRAM can
//!   contend; sweeping it separates CEIO's two benefit channels (miss
//!   *latency* avoided vs DRAM *bandwidth* freed).
//! * **Future NIC hardware** (§6.3/§6.4 future work): CEIO inside the NIC
//!   pipeline with SRAM-class elastic storage — no internal-PCIe-switch
//!   penalty, near-zero control-core cost — projected by re-parameterizing
//!   the model, quantifying how far the slow path's residual penalty is
//!   implementation-bound.

use crate::runner::{run_jobs, run_one, PolicyKind};
use crate::table::{self, Table};
use crate::workloads::{self, AppKind, Transport};
use ceio_host::{HostConfig, RunReport};
use ceio_sim::{Bandwidth, Duration};

/// The baseline and then CEIO on `host` under 8 saturating KV flows.
fn base_and_ceio(host: HostConfig, spans: workloads::Spans) -> (RunReport, RunReport) {
    let link = host.net.link_bandwidth;
    let run = |kind| {
        run_one(
            host.clone(),
            kind,
            workloads::involved_flows(8, 512, link),
            workloads::app_factory(AppKind::Kv),
            spans.warmup,
            spans.measure,
        )
    };
    (run(PolicyKind::Baseline), run(PolicyKind::Ceio))
}

/// Run the sensitivity sweeps and return the formatted report.
pub fn run(quick: bool, jobs: usize) -> String {
    let spans = workloads::spans(quick);
    let mut out = String::new();

    // (1) DDIO partition sweep at fixed workload.
    let ddio_sizes: &[(u64, &str)] = &[
        (1 << 20, "1 MB"),
        (2 << 20, "2 MB"),
        (6 << 20, "6 MB (paper)"),
        (12 << 20, "12 MB"),
        (48 << 20, "48 MB"),
    ];
    let pairs = run_jobs(jobs, ddio_sizes, |&(bytes, _)| {
        let mut host = workloads::contended_host(Transport::Dpdk);
        host.mem.ddio_bytes = bytes;
        base_and_ceio(host, spans)
    });
    let mut t = Table::new(
        "Sensitivity 1 — DDIO partition size (8 KV flows, 512B)",
        &[
            "DDIO",
            "base Mpps",
            "base miss%",
            "CEIO Mpps",
            "CEIO miss%",
            "speedup",
        ],
    );
    for ((base, ceio), &(_, label)) in pairs.iter().zip(ddio_sizes) {
        t.row(vec![
            label.to_string(),
            table::f(base.involved_mpps, 2),
            table::f(base.llc_miss_rate * 100.0, 1),
            table::f(ceio.involved_mpps, 2),
            table::f(ceio.llc_miss_rate * 100.0, 1),
            table::speedup(ceio.involved_mpps, base.involved_mpps),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');

    // (2) DRAM effective-bandwidth sweep.
    let dram_bw: &[(u64, &str)] = &[
        (16, "16 GB/s"),
        (32, "32 GB/s"),
        (64, "64 GB/s (default)"),
        (128, "128 GB/s"),
    ];
    let pairs = run_jobs(jobs, dram_bw, |&(g, _)| {
        let mut host = workloads::contended_host(Transport::Dpdk);
        host.mem.dram_bandwidth = Bandwidth::gibps(g);
        base_and_ceio(host, spans)
    });
    let mut t = Table::new(
        "Sensitivity 2 — DRAM effective bandwidth (8 KV flows, 512B)",
        &["DRAM", "base Mpps", "CEIO Mpps", "speedup"],
    );
    for ((base, ceio), &(_, label)) in pairs.iter().zip(dram_bw) {
        t.row(vec![
            label.to_string(),
            table::f(base.involved_mpps, 2),
            table::f(ceio.involved_mpps, 2),
            table::speedup(ceio.involved_mpps, base.involved_mpps),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');

    // (3) Future-hardware projection: DPA pipeline + SRAM elastic store.
    // Single-flow slow path (the Fig. 11 stress case, 512 B messages) on
    // today's BF-3 parameters vs the projected hardware.
    let variants: &[(&str, u64, u64, u64)] = &[
        // (label, onboard GB/s, onboard latency ns, arm table-update ns)
        ("BlueField-3 (today)", 60, 200, 150),
        ("DPA + onboard SRAM", 100, 40, 10),
        ("CXL CPU-attached SRAM", 150, 20, 10),
    ];
    let runs = run_jobs(jobs, variants, |&(_, gbps, lat_ns, arm_ns)| {
        let mut host = HostConfig::default();
        host.nic.onboard_bandwidth = Bandwidth::gibps(gbps);
        host.nic.onboard_base_latency = Duration::nanos(lat_ns);
        host.nic.arm_table_update = Duration::nanos(arm_ns);
        let link = host.net.link_bandwidth;
        run_one(
            host,
            PolicyKind::CeioSlowOnly,
            workloads::involved_flows(1, 512, link),
            workloads::app_factory(AppKind::Sink),
            spans.warmup,
            spans.measure,
        )
    });
    let mut t = Table::new(
        "Sensitivity 3 — slow path on future NIC hardware (single 512B flow, credits=0)",
        &["hardware", "slow-path Gbps", "p999(us)"],
    );
    for (r, &(label, _, _, _)) in runs.iter().zip(variants) {
        t.row(vec![
            label.to_string(),
            table::f(r.total_gbps(), 1),
            table::us(r.involved_latency.p999()),
        ]);
    }
    out.push_str(&t.render());
    out
}
