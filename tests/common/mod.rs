//! Golden-file helpers shared by the root tests that pin whole runs.

use ceio::host::RunReport;
use ceio::sim::TimeSeries;
use std::fmt::Write as _;
use std::path::PathBuf;

fn render_series(out: &mut String, s: &TimeSeries) {
    let _ = writeln!(out, "series {}", s.name);
    for (at, v) in &s.points {
        let _ = writeln!(out, "  {} {v:?}", at.0);
    }
}

/// Every scalar and series of the report, one per line, exact (floats by
/// their shortest round-trip representation).
pub fn render(r: &RunReport, events: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "policy {}", r.policy);
    let _ = writeln!(out, "events {events}");
    let _ = writeln!(out, "measured_ns {}", r.measured.as_nanos());
    for (name, v) in [
        ("involved_mpps", r.involved_mpps),
        ("involved_gbps", r.involved_gbps),
        ("bypass_gbps", r.bypass_gbps),
        ("bypass_mpps", r.bypass_mpps),
        ("llc_miss_rate", r.llc_miss_rate),
        ("fast_path_gbps", r.fast_path_gbps),
        ("slow_path_gbps", r.slow_path_gbps),
    ] {
        let _ = writeln!(out, "{name} {v:?}");
    }
    for (name, v) in [
        ("dropped", r.dropped),
        ("slow_path_pkts", r.slow_path_pkts),
        ("ordering_stalls", r.ordering_stalls),
    ] {
        let _ = writeln!(out, "{name} {v}");
    }
    for (name, h) in [
        ("involved_latency", &r.involved_latency),
        ("fast_latency", &r.fast_latency),
        ("slow_latency", &r.slow_latency),
    ] {
        let _ = writeln!(
            out,
            "{name} count={} p50={} p99={} p999={} max={} sum={}",
            h.count(),
            h.p50(),
            h.p99(),
            h.p999(),
            h.max(),
            h.sum()
        );
    }
    for s in [
        &r.involved_mpps_series,
        &r.bypass_gbps_series,
        &r.miss_series,
        &r.fast_gbps_series,
        &r.slow_gbps_series,
        &r.drops_series,
    ] {
        render_series(&mut out, s);
    }
    out
}

/// Compare `actual` with `tests/golden/<file>`, or write it there when
/// `CEIO_GOLDEN_REGEN` is set. `what` names the run in the failure message.
pub fn assert_matches_golden(file: &str, actual: &str, what: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var_os("CEIO_GOLDEN_REGEN").is_some() {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create golden dir");
        }
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {}: {e}\n\
             (run with CEIO_GOLDEN_REGEN=1 to create it)",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "{what} diverged from {}\n\
         (if the change is intentional, regenerate with CEIO_GOLDEN_REGEN=1 \
         and review the diff)",
        path.display()
    );
}
