//! Figure 10: I/O performance under dynamic network conditions with CEIO
//! included — the same two scenarios as Figure 4.
//!
//! Paper shape to reproduce: CEIO avoids both limitations, achieving up to
//! 2.0× (dynamic distribution) and 2.9× (burst) over the best prior method
//! in the phases where their limitations bite, and tracks expected
//! performance closely throughout.

use crate::experiments::fig04;
use crate::runner::PolicyKind;
use crate::table::{self, Table};
use crate::workloads::{self, Transport};
use ceio_host::RunReport;
use ceio_sim::Duration;

fn run_scenario(quick: bool, burst: bool, jobs: usize) -> (Vec<RunReport>, Vec<u32>, Duration) {
    let mut host = workloads::contended_host(Transport::Dpdk);
    // Fine-grained sampling so the transition windows right after each
    // phase change — where slow response and fixed buffering bite — are
    // visible, not averaged away.
    host.sample_window = ceio_sim::Duration::micros(100);
    fig04::run_scenario(quick, burst, &host, &PolicyKind::COMPETITORS, jobs)
}

/// Mean of the involved-Mpps series over the first `window_ms` after each
/// phase change — the transient the paper's headline gaps live in.
fn transition_mean(r: &RunReport, ph: Duration, phases: u32, window_ms: f64) -> f64 {
    let mut vals = Vec::new();
    for p in 1..=phases {
        let start_ms = p as f64 * ph.as_secs_f64() * 1e3;
        let end_ms = start_ms + window_ms;
        vals.extend(
            r.involved_mpps_series
                .points
                .iter()
                .filter(|(t, _)| {
                    let ms = t.as_millis_f64();
                    ms > start_ms && ms <= end_ms
                })
                .map(|&(_, v)| v),
        );
    }
    if vals.is_empty() {
        0.0
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

fn report_one(title: &str, reports: &[RunReport], counts: &[u32], ph: Duration) -> String {
    let phases = counts.len() as u32 - 1;
    let mut headers: Vec<String> = vec!["policy".into()];
    for (p, c) in counts.iter().enumerate() {
        headers.push(format!("phase{p} ({c} flows)"));
    }
    headers.push("transition (first 500us)".into());
    headers.push("overall Mpps".into());
    headers.push("CEIO speedup".into());
    let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(title, &hdr_refs);

    let ceio_overall = reports
        .iter()
        .find(|r| r.policy == "CEIO")
        .map(|r| r.involved_mpps)
        .unwrap_or(0.0);
    for r in reports {
        let means = fig04::phase_means(r, ph, phases);
        let mut row = vec![r.policy.clone()];
        row.extend(means.iter().map(|&m| table::f(m, 2)));
        row.push(table::f(transition_mean(r, ph, phases, 0.5), 2));
        row.push(table::f(r.involved_mpps, 2));
        row.push(table::speedup(ceio_overall, r.involved_mpps));
        t.row(row);
    }
    t.render()
}

/// Run Figure 10 and return the formatted report.
pub fn run(quick: bool, jobs: usize) -> String {
    let (dyn_reports, dyn_counts, ph) = run_scenario(quick, false, jobs);
    let (burst_reports, burst_counts, _) = run_scenario(quick, true, jobs);
    let mut out = String::new();
    out.push_str(&report_one(
        "Figure 10a — dynamic flow distribution with CEIO (CPU-involved Mpps)",
        &dyn_reports,
        &dyn_counts,
        ph,
    ));
    out.push('\n');
    out.push_str(&report_one(
        "Figure 10b — network burst with CEIO (CPU-involved Mpps)",
        &burst_reports,
        &burst_counts,
        ph,
    ));
    out
}
