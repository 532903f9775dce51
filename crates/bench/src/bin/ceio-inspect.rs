//! `ceio-inspect` — run one scenario with full observability armed and
//! export everything the telemetry layer records:
//!
//! * a Chrome trace-event JSON (open in Perfetto / `chrome://tracing`)
//!   with credit decisions, steering rewrites, slow-phase spans, DMA
//!   traffic, drops, and deliveries on per-flow tracks;
//! * a Prometheus text-exposition metrics snapshot aggregating every
//!   component's counters;
//! * a per-flow timeline summary on stdout: where each flow's packets
//!   spent their time, stage by stage (NIC queueing, DMA, retire, ring
//!   wait, slow-path residency).
//!
//! ```text
//! ceio-inspect [report|timeseries]                    \
//!              [--policy baseline|hostcc|shring|ceio] \
//!              [--scenario kv|mixed|dynamic|burst]    \
//!              [--millis N] [--warmup-ms N] [--ring N] \
//!              [--trace-out FILE] [--prom-out FILE]    \
//!              [--seed N] [--fault-plan SPEC] [--queues N] \
//!              [--llc-model pool|setassoc] [--ddio-ways N] \
//!              [--scope-interval DUR] [--slo SPEC] [--out FILE]
//! ```
//!
//! The optional leading mode selects the ceio-scope output: `report`
//! renders a self-contained HTML document (inline-SVG occupancy and
//! goodput charts, run metadata, SLO outcomes) and `timeseries` writes
//! the recorded gauges as wide CSV, both to `--out` (defaults:
//! `ceio-report.html` / `ceio-timeseries.csv`). Either mode — or passing
//! `--scope-interval`/`--slo` explicitly — arms the sim-time flight
//! recorder (default interval 50us). `--slo` takes `;`-separated
//! threshold+duration rules, e.g.
//! `alert=over,when=llc_occupancy_bytes,above=ddio_capacity_bytes,for=50us`;
//! a malformed spec or duration exits 2.
//!
//! `--llc-model pool|setassoc` selects the LLC model and `--ddio-ways N`
//! the DDIO-reachable way count (§4.1: 6 of 12); under `setassoc` the
//! credit pool re-derives from the way slice, and the export grows
//! per-way occupancy gauges. Impossible geometry (e.g. more DDIO ways
//! than total ways) exits 2.
//!
//! `--fault-plan` arms a deterministic fault-injection schedule (canned
//! name or `key=value` spec; see `ceio-chaos`) seeded by `--seed`, so a
//! faulty run's trace and metrics are exactly reproducible. A malformed
//! spec exits 2.
//!
//! Both exports are validated with the telemetry layer's own JSON checker
//! before they are written; an invalid document is a bug and exits 1.

// CLI entry point: exiting with status 2 on a bad argument (or 1 on an
// internal error) is the intended operator-facing behavior.
#![allow(clippy::exit)]

use ceio_bench::runner::PolicyKind;
use ceio_bench::workloads::{self, AppKind, Transport};
use ceio_chaos::FaultPlan;
use ceio_host::Machine;
use ceio_mem::LlcModelKind;
use ceio_sim::{Duration, Time};
use ceio_telemetry::{chrome_trace_json, json, render_html, scope, SloRule, Stage, TraceEvent};

/// ceio-scope output mode (the optional leading positional argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Classic inspection: trace + metrics + stdout breakdown only.
    Inspect,
    /// Also render the self-contained HTML report.
    Report,
    /// Also write the recorded scope gauges as wide CSV.
    Timeseries,
}

struct Args {
    mode: Mode,
    policy: PolicyKind,
    scenario: String,
    millis: u64,
    warmup_ms: u64,
    ring: usize,
    trace_out: String,
    prom_out: String,
    out: Option<String>,
    plan: Option<FaultPlan>,
    plan_label: String,
    queues: usize,
    ddio_ways: Option<u32>,
    llc_model: Option<LlcModelKind>,
    seed: u64,
    scope_interval: Option<Duration>,
    slos: Vec<SloRule>,
}

/// Parse a required numeric flag value; exit(2) when missing or malformed.
fn parse_num(flag: &str, value: Option<&String>) -> u64 {
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

/// Parse `--scope-interval`/`--slo for=` durations (ns/us/ms or bare ns),
/// exiting 2 on a malformed literal.
fn parse_scope_duration(flag: &str, value: Option<&String>) -> Duration {
    match value.map(|s| scope::parse_duration(s)) {
        Some(Ok(d)) if d > Duration::ZERO => d,
        Some(Ok(_)) => {
            eprintln!("{flag} must be a positive duration");
            std::process::exit(2);
        }
        Some(Err(e)) => {
            eprintln!("{flag}: {e}");
            std::process::exit(2);
        }
        None => {
            eprintln!("{flag} requires a duration (e.g. 50us, 1ms, 500ns)");
            std::process::exit(2);
        }
    }
}

fn parse_args() -> Args {
    let mut a = Args {
        mode: Mode::Inspect,
        policy: PolicyKind::Ceio,
        scenario: "kv".to_string(),
        millis: 3,
        warmup_ms: 1,
        ring: 1 << 16,
        trace_out: "ceio-inspect-trace.json".to_string(),
        prom_out: "ceio-inspect-metrics.prom".to_string(),
        out: None,
        plan: None,
        plan_label: "none".to_string(),
        queues: 1,
        ddio_ways: None,
        llc_model: None,
        seed: 0,
        scope_interval: None,
        slos: Vec::new(),
    };
    let mut seed = 0u64;
    let mut plan_spec: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    if let Some(first) = args.first() {
        match first.as_str() {
            "report" => {
                a.mode = Mode::Report;
                i = 1;
            }
            "timeseries" => {
                a.mode = Mode::Timeseries;
                i = 1;
            }
            _ => {}
        }
    }
    while i < args.len() {
        match args[i].as_str() {
            "--policy" => {
                i += 1;
                a.policy = match args.get(i).map(|s| s.as_str()) {
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
                a.scenario = args.get(i).cloned().unwrap_or_else(|| "kv".into());
            }
            "--millis" => {
                i += 1;
                a.millis = parse_num("--millis", args.get(i)).max(1);
            }
            "--warmup-ms" => {
                i += 1;
                a.warmup_ms = parse_num("--warmup-ms", args.get(i)).max(1);
            }
            "--ring" => {
                i += 1;
                a.ring = parse_num("--ring", args.get(i)).max(1) as usize;
            }
            "--trace-out" => {
                i += 1;
                a.trace_out = match args.get(i) {
                    Some(p) => p.clone(),
                    None => {
                        eprintln!("--trace-out requires a path");
                        std::process::exit(2);
                    }
                };
            }
            "--prom-out" => {
                i += 1;
                a.prom_out = match args.get(i) {
                    Some(p) => p.clone(),
                    None => {
                        eprintln!("--prom-out requires a path");
                        std::process::exit(2);
                    }
                };
            }
            "--seed" => {
                i += 1;
                seed = parse_num("--seed", args.get(i));
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
                a.queues = parse_queues(args.get(i));
            }
            "--ddio-ways" => {
                i += 1;
                a.ddio_ways = Some(parse_ddio_ways(args.get(i)));
            }
            "--llc-model" => {
                i += 1;
                a.llc_model = Some(parse_llc_model(args.get(i)));
            }
            "--out" => {
                i += 1;
                a.out = match args.get(i) {
                    Some(p) => Some(p.clone()),
                    None => {
                        eprintln!("--out requires a path");
                        std::process::exit(2);
                    }
                };
            }
            "--scope-interval" => {
                i += 1;
                a.scope_interval = Some(parse_scope_duration("--scope-interval", args.get(i)));
            }
            "--slo" => {
                i += 1;
                let spec = match args.get(i) {
                    Some(s) => s,
                    None => {
                        eprintln!("--slo requires a rule spec (see --help text in the module doc)");
                        std::process::exit(2);
                    }
                };
                match SloRule::parse_spec(spec) {
                    Ok(mut rules) => a.slos.append(&mut rules),
                    Err(e) => {
                        eprintln!("--slo {spec:?}: {e}");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    a.plan = resolve_fault_plan(plan_spec.as_ref(), seed);
    if let Some(spec) = plan_spec {
        a.plan_label = spec;
    }
    a.seed = seed;
    a
}

/// Write `content` to `path`, exiting 1 with a diagnostic on failure.
fn write_file(path: &str, content: &str) {
    if let Err(e) = std::fs::write(path, content) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// Validate a JSON document produced by our own emitters; a failure here
/// is an exporter bug and must be loud.
fn must_validate(what: &str, doc: &str) {
    if let Err(e) = json::validate(doc) {
        eprintln!("internal error: {what} emitted invalid JSON: {e}");
        std::process::exit(1);
    }
}

fn print_event_counts(events: &[TraceEvent], dropped: u64) {
    use std::collections::BTreeMap;
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    for e in events {
        *counts.entry(e.kind.label()).or_insert(0) += 1;
    }
    println!(
        "trace events ({} total, {} evicted by ring):",
        events.len(),
        dropped
    );
    for (label, n) in counts {
        println!("  {label:<22} {n}");
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

    let policy = a.policy.build(&host);
    let mut sim = Machine::build(host, policy, scen, workloads::app_factory(app));
    sim.model.arm_trace(a.ring);
    if let Some(plan) = a.plan.as_ref() {
        // The free function also arms the queue-health watchdog when the
        // plan carries a queue-level fault site.
        ceio_host::arm_chaos(&mut sim, plan);
    }
    sim.model.set_run_label(&a.plan_label);

    // Arm the flight recorder when a scope output mode or scope flag asks
    // for it (default epoch: 50 us of sim time).
    let scoped = a.mode != Mode::Inspect || a.scope_interval.is_some() || !a.slos.is_empty();
    if scoped {
        let interval = a.scope_interval.unwrap_or(Duration::micros(50));
        ceio_host::arm_scope(
            &mut sim,
            interval,
            ceio_host::DEFAULT_SCOPE_CAP,
            a.slos.clone(),
        );
    }

    let warmup = Duration::millis(a.warmup_ms);
    let measure = Duration::millis(a.millis);
    let report = ceio_host::run_to_report(&mut sim, warmup, measure);
    let end = Time::ZERO + warmup + measure;

    // Metrics snapshot: prom text to file, JSON validated as a self-check.
    let snap = sim.model.snapshot(end);
    must_validate("snapshot", &snap.to_json());
    write_file(&a.prom_out, &snap.to_prom_text());

    // Scope outputs (report / timeseries modes).
    match a.mode {
        Mode::Inspect => {}
        Mode::Timeseries => {
            let rec = sim
                .model
                .scope()
                .expect("invariant: timeseries mode armed the scope above");
            let path = a
                .out
                .clone()
                .unwrap_or_else(|| "ceio-timeseries.csv".into());
            write_file(&path, &rec.to_csv());
            eprintln!("wrote {path} ({} series)", rec.all_series().len());
        }
        Mode::Report => {
            let rec = sim
                .model
                .scope()
                .expect("invariant: report mode armed the scope above");
            let meta = vec![
                ("policy".to_string(), report.policy.clone()),
                ("scenario".to_string(), a.scenario.clone()),
                ("chaos seed".to_string(), a.seed.to_string()),
                ("queues".to_string(), a.queues.to_string()),
                ("fault plan".to_string(), a.plan_label.clone()),
                ("measured".to_string(), format!("{} ms", a.millis)),
                ("scope epochs".to_string(), rec.samples().to_string()),
            ];
            let charts = vec![
                rec.chart(
                    "LLC I/O occupancy vs. DDIO capacity",
                    "bytes",
                    &[
                        "llc_occupancy_bytes",
                        "ddio_capacity_bytes",
                        "iio_occupancy_bytes",
                    ],
                ),
                rec.chart(
                    "Goodput over time",
                    "Gbps",
                    &["goodput_gbps", "fast_gbps", "slow_gbps"],
                ),
                rec.chart(
                    "Drops and retries",
                    "per second",
                    &["drop_pps", "dma_retry_pps"],
                ),
            ];
            let html = render_html("ceio-scope report", &meta, &rec.alert_states(), &charts);
            let path = a.out.clone().unwrap_or_else(|| "ceio-report.html".into());
            write_file(&path, &html);
            eprintln!("wrote {path} ({} charts)", charts.len());
        }
    }

    // Chrome trace export.
    let (events, dropped) = sim.model.trace_events();
    let trace = chrome_trace_json(&events, dropped);
    must_validate("chrome trace", &trace);
    write_file(&a.trace_out, &trace);
    // Anyone mining slo-alert events out of the trace needs to know when
    // the drop-oldest ring overflowed: early fires are silently gone.
    if dropped > 0 && !a.slos.is_empty() {
        eprintln!(
            "warning: trace ring evicted {dropped} events during the run; early \
             slo-alert fires may be missing from {} (raise --ring; the \
             ceio_alert_* metrics remain exact)",
            a.trace_out
        );
    }

    // Stdout: run headline + per-flow timeline breakdown.
    println!(
        "{} / {}: {:.2} Gbps total ({:.2} fast, {:.2} slow), {} dropped, {} slow-path pkts",
        report.policy,
        a.scenario,
        report.total_gbps(),
        report.fast_path_gbps,
        report.slow_path_gbps,
        report.dropped,
        report.slow_path_pkts,
    );
    print_event_counts(&events, dropped);
    if let Some(bd) = sim.model.breakdown() {
        println!("path breakdown (ns per stage):");
        for stage in Stage::ALL {
            let h = bd.total.stage(stage);
            if h.count() > 0 {
                println!("  all flows  {:<14} {h}", stage.label());
            }
        }
        for (flow, pb) in &bd.per_flow {
            for stage in Stage::ALL {
                let h = pb.stage(stage);
                if h.count() > 0 {
                    println!("  flow {flow:<5} {:<14} {h}", stage.label());
                }
            }
        }
    }
    eprintln!(
        "wrote {} ({} events) and {}",
        a.trace_out,
        events.len(),
        a.prom_out
    );
}
