//! DDIO-ways sweep: how much of the LLC the NIC may write to, and who
//! degrades when the partition shrinks.
//!
//! The paper's testbed pins DDIO at its default 2-of-11 to 6-of-12 way
//! window (§4.1); here we sweep the set-associative model's `ddio_ways`
//! across {2, 4, 6, 8} on a 16 MiB / 12-way LLC under 8 KV flows at 70%
//! of line rate — enough to overload the unmanaged baseline's
//! miss-degraded consume rate, but within what a managed datapath
//! sustains — with the application antagonist streaming through the
//! non-DDIO ways. The baseline overruns whatever partition it is given,
//! so its miss rate climbs monotonically as ways shrink (most visible
//! from a cold start, before FIFO consume order locks onto the LRU
//! eviction order); CEIO derives its credit budget from the partition
//! size (Eq. 1 against the DDIO partition, not the whole LLC), so its
//! working set tracks the shrink and fast-path goodput stays flat.
//!
//! Results land in `BENCH_ddio.json` in the working directory so the
//! ddio-smoke CI lane can archive the trajectory run over run.

use crate::runner::{run_jobs, run_one, PolicyKind};
use crate::table::{self, Table};
use crate::workloads::{self, AppKind, Transport};
use ceio_host::{HostConfig, RunReport};
use ceio_mem::LlcModelKind;
use ceio_sim::Duration;
use std::fmt::Write as _;

/// DDIO way counts swept (of the 12-way LLC the defaults model).
pub const WAY_SWEEP: [u32; 4] = [2, 4, 6, 8];

/// The Fig. 4 contention host on the set-associative LLC with `w` of the
/// 12 ways granted to DDIO and the application antagonist streaming
/// through the remaining ways.
pub fn way_host(w: u32) -> HostConfig {
    let mut host = workloads::contended_host(Transport::Dpdk);
    host.mem.llc_model = LlcModelKind::SetAssoc;
    host.mem.ddio_ways = w;
    // A 16 MiB / 12-way LLC (server-class) rather than the default
    // 12 MiB: the per-way partition grows to 1.33 MiB, giving Eq. 1's
    // credit budget headroom above the in-flight working set so the
    // narrow-partition sweep points measure way-conflict behavior, not
    // credit starvation.
    host.mem.llc_total_bytes = 16 << 20;
    host
}

/// Run one policy across the way sweep, `jobs` runs at a time; returns
/// `(ways, report)` pairs in sweep order.
///
/// `cold` starts the measurement at t = 0 with no warmup: under
/// sustained overload the unmanaged baseline's FIFO consume order chases
/// the LRU eviction order, so its *steady-state* miss rate saturates
/// near 1.0 for every partition width — the width-dependent signal is
/// how many buffers the partition absorbs before thrashing begins, which
/// only a cold start exposes. Warmed-up runs show the steady state.
pub fn sweep_reports(
    quick: bool,
    kind: PolicyKind,
    cold: bool,
    jobs: usize,
) -> Vec<(u32, RunReport)> {
    let spans = workloads::spans(quick);
    let warmup = if cold {
        Duration::nanos(0)
    } else {
        spans.warmup
    };
    let reports = run_jobs(jobs, &WAY_SWEEP, |&w| {
        let host = way_host(w);
        let link = host.net.link_bandwidth;
        run_one(
            host,
            kind,
            workloads::involved_flows(8, 512, link.scale(7, 10)),
            workloads::app_factory(AppKind::Kv),
            warmup,
            spans.measure,
        )
    });
    WAY_SWEEP.into_iter().zip(reports).collect()
}

/// Run the DDIO-ways sweep, write `BENCH_ddio.json`, and return the
/// formatted report.
pub fn run(quick: bool, jobs: usize) -> String {
    let mut t = Table::new(
        "DDIO ways — 8 KV flows at 70% line rate on the set-associative LLC (miss rate and goodput by partition width)",
        &[
            "policy",
            "ways",
            "miss rate",
            "involved Mpps",
            "fast Gbps",
            "P99",
            "drops",
        ],
    );
    let mut rows = String::new();
    for kind in [PolicyKind::Baseline, PolicyKind::HostCc, PolicyKind::Ceio] {
        for (w, r) in sweep_reports(quick, kind, false, jobs) {
            let p99 = r.involved_latency.quantiles(&[0.99])[0];
            t.row(vec![
                r.policy.clone(),
                w.to_string(),
                table::f(r.llc_miss_rate, 3),
                table::f(r.involved_mpps, 2),
                table::f(r.fast_path_gbps, 2),
                table::us(p99),
                r.dropped.to_string(),
            ]);
            if !rows.is_empty() {
                rows.push_str(",\n");
            }
            let _ = write!(
                rows,
                "    {{\"policy\": \"{}\", \"ddio_ways\": {}, \"miss_rate\": {:.4}, \
                 \"fast_gbps\": {:.3}, \"involved_mpps\": {:.3}, \"drops\": {}}}",
                r.policy, w, r.llc_miss_rate, r.fast_path_gbps, r.involved_mpps, r.dropped,
            );
        }
        t.separator();
    }
    let mut report = t.render();

    // Cold-start absorption: measure the unmanaged baseline from t = 0 so
    // the hits it scores before the partition first overflows are visible
    // — the direct analogue of the paper's premature-eviction argument.
    let mut cold = Table::new(
        "Cold-start absorption — unmanaged baseline measured from t = 0 (wider partitions absorb more before thrashing)",
        &["policy", "ways", "miss rate", "involved Mpps"],
    );
    let mut cold_rows = String::new();
    for (w, r) in sweep_reports(quick, PolicyKind::Baseline, true, jobs) {
        cold.row(vec![
            r.policy.clone(),
            w.to_string(),
            table::f(r.llc_miss_rate, 3),
            table::f(r.involved_mpps, 2),
        ]);
        if !cold_rows.is_empty() {
            cold_rows.push_str(",\n");
        }
        let _ = write!(
            cold_rows,
            "    {{\"policy\": \"{}\", \"ddio_ways\": {}, \"miss_rate\": {:.4}}}",
            r.policy, w, r.llc_miss_rate,
        );
    }
    report.push('\n');
    report.push_str(&cold.render());

    let json = format!(
        "{{\n  \"experiment\": \"ddio\",\n  \"mode\": \"{}\",\n  \"way_sweep\": [2, 4, 6, 8],\n  \
         \"rows\": [\n{rows}\n  ],\n  \"cold_start_rows\": [\n{cold_rows}\n  ]\n}}\n",
        if quick { "quick" } else { "full" },
    );
    if let Err(e) = std::fs::write("BENCH_ddio.json", &json) {
        let _ = writeln!(report, "  warning: could not write BENCH_ddio.json: {e}");
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tentpole acceptance check: the unmanaged baseline's miss rate
    /// must degrade strictly monotonically as the DDIO partition shrinks
    /// from 8 ways to 2 — the overrun pathology scales with how little
    /// of the LLC the NIC is allowed to overrun. Measured from a cold
    /// start, where the partition's absorption capacity is visible.
    #[test]
    fn baseline_miss_rate_degrades_as_ways_shrink() {
        let by_ways: Vec<(u32, f64)> = sweep_reports(true, PolicyKind::Baseline, true, 2)
            .iter()
            .map(|(w, r)| (*w, r.llc_miss_rate))
            .collect();
        assert_eq!(by_ways.len(), WAY_SWEEP.len());
        for pair in by_ways.windows(2) {
            assert!(
                pair[0].1 > pair[1].1,
                "baseline miss rate must fall as ways grow: {:?}",
                by_ways
            );
        }
    }

    /// CEIO sizes its credit budget to the partition, so its fast-path
    /// goodput stays within 5% of its best across the whole sweep.
    #[test]
    fn ceio_goodput_is_flat_across_the_sweep() {
        let gbps: Vec<f64> = sweep_reports(true, PolicyKind::Ceio, false, 2)
            .iter()
            .map(|(_, r)| r.fast_path_gbps)
            .collect();
        let best = gbps.iter().copied().fold(f64::MIN, f64::max);
        assert!(best > 0.0, "CEIO must move traffic: {:?}", gbps);
        for g in &gbps {
            assert!(
                *g >= best * 0.95,
                "CEIO fast-path goodput must stay within 5% of its best \
                 across the way sweep: {:?}",
                gbps
            );
        }
    }
}
