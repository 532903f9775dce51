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
//! (`dma-write-fault=0.05,consumer-pause=10us`); `--seed` fixes the
//! injection RNG so two invocations with the same flags emit
//! byte-identical CSV. A malformed spec exits 2.
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
//! listed on stderr. Malformed scope flags exit 2, like every other
//! malformed argument.

// CLI entry point: exiting with status 2 on a bad argument is the intended
// operator-facing behavior (the workspace denies `clippy::exit` for library
// code, where aborting the process is never acceptable).
#![allow(clippy::exit)]

use ceio_bench::runner::{run_one_scoped, series_csv, PolicyKind, ScopeOptions};
use ceio_bench::workloads::{self, AppKind, Transport};
use ceio_chaos::FaultPlan;
use ceio_host::DEFAULT_SCOPE_CAP;
use ceio_mem::LlcModelKind;
use ceio_sim::Duration;
use ceio_telemetry::{scope, SloRule};
use std::io::Write;

/// Parse a required numeric flag value; exit(2) with a diagnostic when the
/// value is missing or not a number.
fn parse_millis(flag: &str, value: Option<&String>) -> u64 {
    match value.map(|s| s.parse::<u64>()) {
        Some(Ok(v)) => v,
        Some(Err(_)) | None => {
            eprintln!(
                "{flag} requires a numeric value, got {:?}",
                value.map(String::as_str).unwrap_or("<missing>")
            );
            std::process::exit(2);
        }
    }
}

/// Parse `--queues`: a positive queue count; exit(2) on zero (no receive
/// queues leaves no data path) or a non-numeric value.
fn parse_queues(value: Option<&String>) -> usize {
    match value.map(|s| s.parse::<usize>()) {
        Some(Ok(v)) if v >= 1 => v,
        Some(Ok(_)) => {
            eprintln!("--queues must be >= 1 (zero receive queues leaves no data path)");
            std::process::exit(2);
        }
        Some(Err(_)) | None => {
            eprintln!(
                "--queues requires a positive integer, got {:?}",
                value.map(String::as_str).unwrap_or("<missing>")
            );
            std::process::exit(2);
        }
    }
}

/// Parse `--ddio-ways`: a positive DDIO way count; exit(2) on zero (a
/// zero-way partition leaves DMA nowhere to land) or a non-numeric value.
/// Geometry bounds (ways <= total ways) are checked by `validate` after
/// all flags are applied.
fn parse_ddio_ways(value: Option<&String>) -> u32 {
    match value.map(|s| s.parse::<u32>()) {
        Some(Ok(v)) if v >= 1 => v,
        Some(Ok(_)) => {
            eprintln!("--ddio-ways must be >= 1 (a zero-way DDIO partition leaves DMA nowhere)");
            std::process::exit(2);
        }
        Some(Err(_)) | None => {
            eprintln!(
                "--ddio-ways requires a positive integer, got {:?}",
                value.map(String::as_str).unwrap_or("<missing>")
            );
            std::process::exit(2);
        }
    }
}

/// Parse `--llc-model`: `pool` (seed default) or `setassoc`; exit(2) on
/// anything else.
fn parse_llc_model(value: Option<&String>) -> LlcModelKind {
    match value.map(String::as_str) {
        Some("pool") => LlcModelKind::Pool,
        Some("setassoc") => LlcModelKind::SetAssoc,
        Some(other) => {
            eprintln!("--llc-model must be pool or setassoc, got {other:?}");
            std::process::exit(2);
        }
        None => {
            eprintln!("--llc-model requires a model name (pool|setassoc)");
            std::process::exit(2);
        }
    }
}

/// Apply the LLC flags to the host config and re-validate the combined
/// geometry; exit(2) when the flags describe a cache the models cannot
/// represent (e.g. more DDIO ways than total ways).
fn apply_llc_flags(
    host: &mut ceio_host::HostConfig,
    ddio_ways: Option<u32>,
    llc_model: Option<LlcModelKind>,
) {
    if let Some(w) = ddio_ways {
        host.mem.ddio_ways = w;
    }
    if let Some(m) = llc_model {
        host.mem.llc_model = m;
    }
    if let Err(e) = host.validate() {
        eprintln!("--ddio-ways/--llc-model: {e}");
        std::process::exit(2);
    }
}

/// Parse a positive sim duration (`50us`, `1ms`, bare ns); exit(2) on a
/// malformed or zero value.
fn parse_scope_duration(flag: &str, value: Option<&String>) -> Duration {
    let Some(raw) = value else {
        eprintln!("{flag} requires a duration (e.g. 50us, 1ms)");
        std::process::exit(2);
    };
    match scope::parse_duration(raw) {
        Ok(d) if d > Duration::ZERO => d,
        Ok(_) => {
            eprintln!("{flag} must be positive");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("{flag} {raw:?}: {e}");
            std::process::exit(2);
        }
    }
}

/// Resolve `--seed`/`--fault-plan` into an armed plan, exiting 2 on a
/// malformed spec.
fn resolve_fault_plan(spec: Option<&String>, seed: u64) -> Option<FaultPlan> {
    let spec = spec?;
    match FaultPlan::parse(spec, seed) {
        Ok(p) => Some(p),
        Err(e) => {
            eprintln!("--fault-plan {spec:?}: {e}");
            std::process::exit(2);
        }
    }
}

struct Args {
    policy: PolicyKind,
    scenario: String,
    millis: u64,
    warmup_ms: u64,
    out: Option<String>,
    plan: Option<FaultPlan>,
    plan_label: String,
    queues: usize,
    ddio_ways: Option<u32>,
    llc_model: Option<LlcModelKind>,
    scope_interval: Option<Duration>,
    slos: Vec<SloRule>,
    scope_out: String,
}

fn parse_args() -> Args {
    let mut policy = PolicyKind::Ceio;
    let mut scenario = "kv".to_string();
    let mut millis = 10u64;
    let mut warmup_ms = 1u64;
    let mut out = None;
    let mut seed = 0u64;
    let mut plan_spec: Option<String> = None;
    let mut queues = 1usize;
    let mut ddio_ways: Option<u32> = None;
    let mut llc_model: Option<LlcModelKind> = None;
    let mut scope_interval: Option<Duration> = None;
    let mut slos: Vec<SloRule> = Vec::new();
    let mut scope_out = "ceio-scope.csv".to_string();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--policy" => {
                i += 1;
                policy = match args.get(i).map(|s| s.as_str()) {
                    Some("baseline") => PolicyKind::Baseline,
                    Some("hostcc") => PolicyKind::HostCc,
                    Some("shring") => PolicyKind::ShRing,
                    Some("ceio") | None => PolicyKind::Ceio,
                    Some(other) => {
                        eprintln!("unknown policy {other}");
                        std::process::exit(2);
                    }
                };
            }
            "--scenario" => {
                i += 1;
                scenario = args.get(i).cloned().unwrap_or_else(|| "kv".into());
            }
            "--millis" => {
                i += 1;
                millis = parse_millis("--millis", args.get(i)).max(2);
            }
            "--warmup-ms" => {
                i += 1;
                warmup_ms = parse_millis("--warmup-ms", args.get(i)).max(1);
            }
            "--out" => {
                i += 1;
                out = args.get(i).cloned();
            }
            "--seed" => {
                i += 1;
                seed = parse_millis("--seed", args.get(i));
            }
            "--fault-plan" => {
                i += 1;
                plan_spec = match args.get(i) {
                    Some(s) => Some(s.clone()),
                    None => {
                        eprintln!("--fault-plan requires a spec (canned name or key=value list)");
                        std::process::exit(2);
                    }
                };
            }
            "--queues" => {
                i += 1;
                queues = parse_queues(args.get(i));
            }
            "--ddio-ways" => {
                i += 1;
                ddio_ways = Some(parse_ddio_ways(args.get(i)));
            }
            "--llc-model" => {
                i += 1;
                llc_model = Some(parse_llc_model(args.get(i)));
            }
            "--scope-interval" => {
                i += 1;
                scope_interval = Some(parse_scope_duration("--scope-interval", args.get(i)));
            }
            "--slo" => {
                i += 1;
                let Some(spec) = args.get(i) else {
                    eprintln!("--slo requires a rule spec (alert=...,when=...,above=...,for=...)");
                    std::process::exit(2);
                };
                match SloRule::parse_spec(spec) {
                    Ok(mut rules) => slos.append(&mut rules),
                    Err(e) => {
                        eprintln!("--slo {spec:?}: {e}");
                        std::process::exit(2);
                    }
                }
            }
            "--scope-out" => {
                i += 1;
                scope_out = match args.get(i) {
                    Some(s) => s.clone(),
                    None => {
                        eprintln!("--scope-out requires a file path");
                        std::process::exit(2);
                    }
                };
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let plan = resolve_fault_plan(plan_spec.as_ref(), seed);
    let plan_label = plan_spec.unwrap_or_else(|| "none".to_string());
    Args {
        policy,
        scenario,
        millis,
        warmup_ms,
        out,
        plan,
        plan_label,
        queues,
        ddio_ways,
        llc_model,
        scope_interval,
        slos,
        scope_out,
    }
}

fn main() {
    let a = parse_args();
    let mut host = workloads::contended_host(Transport::Dpdk);
    host.sample_window = Duration::micros(100);
    host.num_queues = a.queues;
    apply_llc_flags(&mut host, a.ddio_ways, a.llc_model);
    let link = host.net.link_bandwidth;
    let phase = Duration::millis((a.millis / 4).max(1));
    let (scen, app) = match a.scenario.as_str() {
        "kv" => (workloads::involved_flows(8, 512, link), AppKind::Kv),
        "mixed" => (workloads::mixed_flows(4, 4, 512, link), AppKind::Mixed),
        "dynamic" => (
            workloads::dynamic_distribution(phase, 3, link),
            AppKind::Mixed,
        ),
        "burst" => (workloads::network_burst(phase, 3, link), AppKind::Mixed),
        other => {
            eprintln!("unknown scenario {other} (kv|mixed|dynamic|burst)");
            std::process::exit(2);
        }
    };
    let scoped = a.scope_interval.is_some() || !a.slos.is_empty();
    // When SLO rules are armed, also arm the event trace so alert fires
    // are minable from the trace as `slo-alert` events — and so we can
    // tell when the drop-oldest ring evicted any.
    let mine_alerts = !a.slos.is_empty();
    let scope = scoped.then(|| ScopeOptions {
        interval: a.scope_interval.unwrap_or(Duration::micros(50)),
        cap: DEFAULT_SCOPE_CAP,
        slos: a.slos.clone(),
        trace_cap: mine_alerts.then_some(1 << 16),
    });
    let (report, mut sim) = run_one_scoped(
        host,
        a.policy,
        scen,
        workloads::app_factory(app),
        Duration::millis(a.warmup_ms),
        Duration::millis(a.millis),
        a.plan.as_ref(),
        scope,
    );
    sim.model.set_run_label(&a.plan_label);

    if scoped {
        if let Some(rec) = sim.model.scope() {
            let mut f = std::fs::File::create(&a.scope_out).expect("create scope CSV file");
            f.write_all(rec.to_csv().as_bytes())
                .expect("write scope CSV");
            eprintln!(
                "{}: {} scope epochs across {} series written",
                a.scope_out,
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
        if !a.slos.is_empty() {
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
    match a.out {
        Some(path) => {
            let mut f = std::fs::File::create(&path).expect("create output file");
            f.write_all(csv.as_bytes()).expect("write CSV");
            eprintln!(
                "{}: {} samples of {} ({} scenario) written",
                path, n, report.policy, a.scenario
            );
        }
        None => print!("{csv}"),
    }
}
