//! Queue scaling: aggregate receive throughput as the NIC shards the
//! NIC→LLC data path over N RSS receive queues.
//!
//! The single-queue pipeline serializes descriptor issue: with a non-zero
//! per-descriptor issue gap (`NicParams::queue_issue_gap`, modelling the
//! doorbell/descriptor-fetch pipeline of one queue) a lone queue caps out
//! at `1/gap` packets per second regardless of PCIe or LLC headroom.
//! Sharding the Fig. 4 contention workload over N queues multiplies the
//! issue slots while the substrate — PCIe link budget, IIO admission,
//! DDIO credits (hierarchically partitioned at N > 1) — stays shared, so
//! aggregate fast-path throughput must rise monotonically from N = 1
//! until the link, the CPU, or the credit budget binds instead.

use crate::runner::{run_jobs, run_one, PolicyKind};
use crate::table::{self, Table};
use crate::workloads::{self, AppKind, Transport};
use ceio_host::{HostConfig, RunReport};
use ceio_sim::Duration;

/// Queue counts swept (the paper's testbed NICs expose up to 8 queues per
/// port at this scale).
pub const QUEUE_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Per-descriptor issue gap making one queue's doorbell pipeline the
/// bottleneck at 512 B packets (≈ 6.7 M descriptors/s per queue).
pub const ISSUE_GAP: Duration = Duration::nanos(150);

/// The contended host of Fig. 4, resharded over `n` receive queues with
/// the descriptor-issue gap enabled.
pub fn sharded_host(n: usize) -> HostConfig {
    let mut host = workloads::contended_host(Transport::Dpdk);
    host.num_queues = n;
    host.nic.queue_issue_gap = ISSUE_GAP;
    host
}

/// Run one policy across the queue sweep, `jobs` runs at a time; returns
/// `(N, report)` pairs in sweep order.
pub fn scaling_reports(quick: bool, kind: PolicyKind, jobs: usize) -> Vec<(usize, RunReport)> {
    let spans = workloads::spans(quick);
    let reports = run_jobs(jobs, &QUEUE_COUNTS, |&n| {
        let host = sharded_host(n);
        let link = host.net.link_bandwidth;
        run_one(
            host,
            kind,
            workloads::involved_flows(16, 512, link),
            workloads::app_factory(AppKind::Kv),
            spans.warmup,
            spans.measure,
        )
    });
    QUEUE_COUNTS.into_iter().zip(reports).collect()
}

/// Run the queue-scaling sweep and return the formatted report.
pub fn run(quick: bool, jobs: usize) -> String {
    let mut t = Table::new(
        "Queue scaling — 16 KV flows, 150 ns issue gap (aggregate throughput by RSS queue count)",
        &[
            "policy",
            "queues",
            "involved Mpps",
            "fast Gbps",
            "slow Gbps",
            "P99",
            "drops",
        ],
    );
    for kind in [PolicyKind::Baseline, PolicyKind::Ceio] {
        for (n, r) in scaling_reports(quick, kind, jobs) {
            let p99 = r.involved_latency.quantiles(&[0.99])[0];
            t.row(vec![
                r.policy.clone(),
                n.to_string(),
                table::f(r.involved_mpps, 2),
                table::f(r.fast_path_gbps, 2),
                table::f(r.slow_path_gbps, 2),
                table::us(p99),
                r.dropped.to_string(),
            ]);
        }
        t.separator();
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tentpole acceptance check: under the Fig. 4 contention with a
    /// descriptor-issue-bound NIC, CEIO's aggregate fast-path throughput
    /// rises monotonically from 1 to 4 queues.
    #[test]
    fn ceio_fast_path_scales_monotonically_to_four_queues() {
        let reports = scaling_reports(true, PolicyKind::Ceio, 2);
        let by_n: Vec<(usize, f64)> = reports
            .iter()
            .filter(|(n, _)| *n <= 4)
            .map(|(n, r)| (*n, r.fast_path_gbps))
            .collect();
        assert_eq!(by_n.len(), 3);
        for w in by_n.windows(2) {
            assert!(
                w[1].1 > w[0].1,
                "fast-path throughput must grow with queues: {:?}",
                by_n
            );
        }
    }
}
