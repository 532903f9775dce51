//! Figure 4 (motivation): I/O performance of the existing methods —
//! Baseline, HostCC, ShRing — under (a) dynamic flow distribution and
//! (b) network burst, against the *expected* performance computed from the
//! per-core throughput with sufficient LLC.
//!
//! Paper shape to reproduce: both methods improve on the baseline in
//! steady state, but fall well short of expected right after each phase
//! change — HostCC from slow response (up to 1.9× below expected), ShRing
//! from CCA-forced rate reduction (up to 1.6×).

use crate::runner::{run_jobs, run_one, PolicyKind};
use crate::table::{self, Table};
use crate::workloads::{self, AppKind, Transport};
use ceio_host::{HostConfig, RunReport};
use ceio_sim::Duration;

/// Phase length at simulation scale (paper: 10 s).
pub fn phase(quick: bool) -> Duration {
    if quick {
        Duration::millis(2)
    } else {
        Duration::millis(5)
    }
}

/// Measure the per-core CPU-involved throughput with effectively infinite
/// LLC — the paper's "expected performance" unit.
pub fn sufficient_llc_per_core_mpps(quick: bool) -> f64 {
    let mut host = workloads::contended_host(Transport::Dpdk);
    host.mem.ddio_bytes = 1 << 30; // LLC never overflows
    let link = host.net.link_bandwidth;
    let spans = workloads::spans(quick);
    let r = run_one(
        host,
        PolicyKind::Baseline,
        workloads::involved_flows(1, 512, link.scale(1, 4)),
        workloads::app_factory(AppKind::Kv),
        spans.warmup,
        spans.measure,
    );
    r.involved_mpps
}

/// Involved-flow count per phase for the two scenarios.
fn involved_counts(burst: bool, phases: u32) -> Vec<u32> {
    (0..=phases)
        .map(|p| if burst { 8 + 2 * p } else { 8 - 2 * p })
        .collect()
}

/// Run `policies` through the dynamic-distribution (or, with `burst`, the
/// network-burst) scenario on `host`, `jobs` runs at a time; returns the
/// reports in policy order, the involved-flow count per phase, and the
/// phase length.
pub(crate) fn run_scenario(
    quick: bool,
    burst: bool,
    host: &HostConfig,
    policies: &[PolicyKind],
    jobs: usize,
) -> (Vec<RunReport>, Vec<u32>, Duration) {
    let ph = phase(quick);
    let phases = 3;
    let link = host.net.link_bandwidth;
    let reports = run_jobs(jobs, policies, |&kind| {
        let scenario = if burst {
            workloads::network_burst(ph, phases, link)
        } else {
            workloads::dynamic_distribution(ph, phases, link)
        };
        run_one(
            host.clone(),
            kind,
            scenario,
            workloads::app_factory(AppKind::Mixed),
            Duration::millis(1),
            ph.saturating_mul(phases as u64 + 1),
        )
    });
    (reports, involved_counts(burst, phases), ph)
}

/// Per-phase mean of the involved-Mpps time series.
pub fn phase_means(r: &RunReport, phase: Duration, phases: u32) -> Vec<f64> {
    let mut out = Vec::new();
    for p in 0..=phases {
        // Phase p spans [p*phase, (p+1)*phase) relative to warmup end.
        let start_ms = p as f64 * phase.as_secs_f64() * 1e3;
        let end_ms = (p + 1) as f64 * phase.as_secs_f64() * 1e3;
        let vals: Vec<f64> = r
            .involved_mpps_series
            .points
            .iter()
            .filter(|(t, _)| {
                let ms = t.as_millis_f64();
                ms > start_ms && ms <= end_ms
            })
            .map(|&(_, v)| v)
            .collect();
        let mean = if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        out.push(mean);
    }
    out
}

fn report_one(
    title: &str,
    reports: &[RunReport],
    counts: &[u32],
    ph: Duration,
    per_core: f64,
    host: &HostConfig,
) -> String {
    let phases = counts.len() as u32 - 1;
    let mut headers: Vec<String> = vec!["policy".into()];
    for (p, c) in counts.iter().enumerate() {
        headers.push(format!("phase{p} ({c} flows)"));
    }
    headers.push("worst vs expected".into());
    let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(title, &hdr_refs);

    // Expected: involved_count x per-core throughput, capped by line rate.
    let line_mpps = host.net.link_bandwidth.as_bytes_per_sec() as f64 / 512.0 / 1e6;
    let expected: Vec<f64> = counts
        .iter()
        .map(|&c| (c as f64 * per_core).min(line_mpps))
        .collect();
    let mut row = vec!["Expected".to_string()];
    row.extend(expected.iter().map(|&e| table::f(e, 2)));
    row.push("-".to_string());
    t.row(row);
    t.separator();

    for r in reports {
        let means = phase_means(r, ph, phases);
        let worst = means
            .iter()
            .zip(&expected)
            .map(|(&m, &e)| if m > 0.0 { e / m } else { f64::INFINITY })
            .fold(0.0f64, f64::max);
        let mut row = vec![r.policy.clone()];
        row.extend(means.iter().map(|&m| table::f(m, 2)));
        row.push(format!("{worst:.2}x below"));
        t.row(row);
    }
    t.render()
}

/// Run Figure 4 and return the formatted report.
pub fn run(quick: bool, jobs: usize) -> String {
    let per_core = sufficient_llc_per_core_mpps(quick);
    let host = workloads::contended_host(Transport::Dpdk);
    let policies = [PolicyKind::Baseline, PolicyKind::HostCc, PolicyKind::ShRing];

    let (dyn_reports, dyn_counts, ph) = run_scenario(quick, false, &host, &policies, jobs);
    let (burst_reports, burst_counts, _) = run_scenario(quick, true, &host, &policies, jobs);

    let mut out = String::new();
    out.push_str(&format!(
        "per-core throughput with sufficient LLC: {per_core:.2} Mpps\n\n"
    ));
    out.push_str(&report_one(
        "Figure 4a — dynamic flow distribution (CPU-involved Mpps per phase)",
        &dyn_reports,
        &dyn_counts,
        ph,
        per_core,
        &host,
    ));
    out.push('\n');
    out.push_str(&report_one(
        "Figure 4b — network burst (CPU-involved Mpps per phase)",
        &burst_reports,
        &burst_counts,
        ph,
        per_core,
        &host,
    ));
    out
}
