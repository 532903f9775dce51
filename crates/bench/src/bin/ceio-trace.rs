//! `ceio-trace` — run one scenario and dump its measurement time series as
//! CSV (for plotting the Fig. 4/10-style curves).
//!
//! ```text
//! ceio-trace [--policy baseline|hostcc|shring|ceio] \
//!            [--scenario kv|mixed|dynamic|burst]    \
//!            [--millis N] [--warmup-ms N] [--out FILE] \
//!            [--seed N] [--fault-plan SPEC] [--queues N] \
//!            [--llc-model pool|setassoc] [--ddio-ways N] \
//!            [--scope-interval DUR] [--slo SPEC] [--scope-out FILE]
//! ```
//!
//! Columns: `t_ms, involved_mpps, bypass_gbps, llc_miss_rate, fast_gbps,
//! slow_gbps, drops`.
//!
//! `--fault-plan` accepts a canned plan name (`smoke`, `credit-storm`,
//! `dma-flaky`, `nic-pressure`) or a comma-separated `key=value` spec
//! (`dma-write-fault=0.05,consumer-pause=10us`). A malformed spec exits 2.
//! `--seed` seeds both the host RNG (traffic arrivals) and the injection
//! RNG; two invocations with the same flags emit byte-identical CSV.
//!
//! `--llc-model` selects the LLC model backing the memory controller
//! (`pool` is the seed default; `setassoc` is the way-partitioned
//! set-associative model). `--ddio-ways` sets the DDIO-reachable way
//! count (§4.1: 6 of 12) — the credit pool re-derives from it under
//! `setassoc`. A way count the geometry cannot hold exits 2.
//!
//! `--scope-interval` (a sim duration such as `50us`) arms the flight
//! recorder at that sampling epoch; `--slo` arms SLO rules
//! (`alert=<name>,when=<series>,above|below=<thr>,for=<dur>`, `;`-separated,
//! repeatable) and implies recording at the default 50 µs epoch when no
//! interval is given. When the recorder is armed, its wide-format
//! time-series CSV is written to `--scope-out` (default
//! `ceio-scope.csv`) alongside the measurement CSV, and fired alerts are
//! listed on stderr. `--scope-out` without `--scope-interval` or `--slo`
//! would write nothing and exits 2.
//!
//! The shared flags are parsed by `ceio_bench::cli::RunSpec`: a malformed
//! or missing value exits 2 with a one-line reason naming the flag. An
//! output file that cannot be written exits 1 with a one-line reason.

use ceio_bench::cli::{exit_status, flag_value, write_output, RunSpec, DEFAULT_SCOPE_INTERVAL};
use ceio_bench::runner::{run_one_scoped, series_csv, ScopeOptions};
use ceio_bench::workloads;
use ceio_host::DEFAULT_SCOPE_CAP;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = None;
    let mut scope_out = None;
    let spec = RunSpec::parse(args.iter().map(String::as_str), 10, |flag, value| {
        match flag {
            "--out" => out = Some(flag_value(flag, value)?),
            "--scope-out" => scope_out = Some(flag_value(flag, value)?),
            _ => return Ok(false),
        }
        Ok(true)
    })
    .and_then(|spec| match scope_out {
        Some(_) if !spec.scoped() => Err(
            "--scope-out needs --scope-interval or --slo: without them no scope series is recorded"
                .to_string(),
        ),
        _ => Ok(spec),
    });
    exit_status(spec, |spec| {
        run(spec, out, scope_out.unwrap_or("ceio-scope.csv"))
    })
}

fn run(spec: RunSpec, out: Option<&str>, scope_out: &str) -> Result<(), String> {
    let (scen, app) = spec.workload();
    let scoped = spec.scoped();
    // When SLO rules are armed, also arm the event trace so alert fires
    // are minable from the trace as `slo-alert` events — and so we can
    // tell when the drop-oldest ring evicted any.
    let mine_alerts = !spec.slos.is_empty();
    let scope = scoped.then(|| ScopeOptions {
        interval: spec.scope_interval.unwrap_or(DEFAULT_SCOPE_INTERVAL),
        cap: DEFAULT_SCOPE_CAP,
        slos: spec.slos.clone(),
        trace_cap: mine_alerts.then_some(1 << 16),
    });
    let (report, mut sim) = run_one_scoped(
        spec.host.clone(),
        spec.policy,
        scen,
        workloads::app_factory(app),
        spec.warmup(),
        spec.measure(),
        spec.plan.as_ref(),
        scope,
    );
    sim.model.set_run_label(&spec.plan_label);

    if scoped {
        if let Some(rec) = sim.model.scope() {
            write_output(scope_out, &rec.to_csv())?;
            eprintln!(
                "{scope_out}: {} scope epochs across {} series written",
                rec.samples(),
                rec.all_series().len()
            );
            for (alert, fired, active) in rec.alert_states() {
                if fired > 0 {
                    eprintln!(
                        "alert {alert}: fired {fired}x{}",
                        if active { " (still active)" } else { "" }
                    );
                }
            }
        }
        // Mine alert fires back out of the event trace. The ring drops
        // oldest-first when full, so a long busy run can silently lose
        // early `slo-alert` events — be loud about that.
        if mine_alerts {
            let (events, evicted) = sim.model.trace_events();
            let fires = events
                .iter()
                .filter(|e| e.kind == ceio_telemetry::TraceKind::SloAlert)
                .count();
            eprintln!("trace: {fires} slo-alert events recorded");
            if evicted > 0 {
                eprintln!(
                    "warning: trace ring evicted {evicted} events during the run; \
                     early slo-alert fires may be missing from the trace \
                     (the alert counts above remain exact)"
                );
            }
        }
    }

    let csv = series_csv(&report);
    let n = csv.lines().count().saturating_sub(1);
    match out {
        Some(path) => {
            write_output(path, &csv)?;
            eprintln!(
                "{path}: {n} samples of {} ({} scenario) written",
                report.policy,
                spec.scenario.name()
            );
        }
        None => print!("{csv}"),
    }
    Ok(())
}
