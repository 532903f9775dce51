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
//! `ceio-report.html` / `ceio-timeseries.csv`); without a mode nothing
//! writes `--out`, so passing it exits 2. Either mode — or passing
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
//! name or `key=value` spec; see `ceio-chaos`). A malformed spec exits 2.
//! `--seed` seeds both the host RNG and the fault plan, so a run's trace
//! and metrics are exactly reproducible from its flags.
//!
//! The trace is validated with the telemetry layer's own JSON checker
//! before it is written; an invalid document is a bug and exits 1.
//!
//! The shared flags are parsed by `ceio_bench::cli::RunSpec`: a malformed
//! or missing value (including `--ring 0`) exits 2 with a one-line reason
//! naming the flag. An output file that cannot be written exits 1 with a
//! one-line reason.

use ceio_bench::cli::{
    exit_status, flag_value, parse_positive, parse_scope_interval, parse_slos, write_output,
    RunSpec,
};
use ceio_bench::workloads;
use ceio_host::Machine;
use ceio_sim::{Duration, Time};
use ceio_telemetry::{chrome_trace_json, json, render_html, SloRule, Stage, TraceEvent};
use std::process::ExitCode;

/// Flight-recorder epoch when a scope mode or `--slo` arms the recorder
/// without `--scope-interval`.
const DEFAULT_SCOPE_INTERVAL: Duration = Duration::micros(50);

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

/// The flags only `ceio-inspect` takes.
struct Outputs<'a> {
    mode: Mode,
    ring: usize,
    trace_out: &'a str,
    prom_out: &'a str,
    out: Option<&'a str>,
    scope_interval: Option<Duration>,
    slos: Vec<SloRule>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut args = args.iter().map(String::as_str).peekable();
    let mode = match args.peek() {
        Some(&"report") => Mode::Report,
        Some(&"timeseries") => Mode::Timeseries,
        _ => Mode::Inspect,
    };
    if mode != Mode::Inspect {
        args.next();
    }
    let mut o = Outputs {
        mode,
        ring: 1 << 16,
        trace_out: "ceio-inspect-trace.json",
        prom_out: "ceio-inspect-metrics.prom",
        out: None,
        scope_interval: None,
        slos: Vec::new(),
    };
    let spec = RunSpec::parse(args, 3, |flag, value| {
        match flag {
            "--ring" => {
                o.ring = parse_positive(flag, value, "a zero-capacity ring records nothing")?
            }
            "--trace-out" => o.trace_out = flag_value(flag, value)?,
            "--prom-out" => o.prom_out = flag_value(flag, value)?,
            "--out" => o.out = Some(flag_value(flag, value)?),
            "--scope-interval" => o.scope_interval = Some(parse_scope_interval(value)?),
            "--slo" => o.slos.append(&mut parse_slos(value)?),
            _ => return Ok(false),
        }
        Ok(true)
    })
    .and_then(|spec| match (o.mode, o.out) {
        (Mode::Inspect, Some(_)) => Err(
            "--out needs the report or timeseries mode: plain inspection writes only \
             --trace-out and --prom-out"
                .to_string(),
        ),
        _ => Ok(spec),
    });
    exit_status(spec, |spec| run(spec, &o))
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

fn run(spec: RunSpec, o: &Outputs) -> Result<(), String> {
    let (scen, app) = spec.workload();
    let policy = spec.policy.build(&spec.host);
    let mut sim = Machine::build(spec.host.clone(), policy, scen, workloads::app_factory(app));
    sim.model.arm_trace(o.ring);
    if let Some(plan) = spec.plan.as_ref() {
        // The free function also arms the queue-health watchdog when the
        // plan carries a queue-level fault site.
        ceio_host::arm_chaos(&mut sim, plan);
    }
    sim.model.set_run_label(&spec.plan_label);

    // Arm the flight recorder when a scope output mode or scope flag asks
    // for it (default epoch: 50 us of sim time).
    if o.mode != Mode::Inspect || o.scope_interval.is_some() || !o.slos.is_empty() {
        ceio_host::arm_scope(
            &mut sim,
            o.scope_interval.unwrap_or(DEFAULT_SCOPE_INTERVAL),
            ceio_host::DEFAULT_SCOPE_CAP,
            o.slos.clone(),
        );
    }

    let report = ceio_host::run_to_report(&mut sim, spec.warmup(), spec.measure());
    let end = Time::ZERO + spec.warmup() + spec.measure();

    write_output(o.prom_out, &sim.model.snapshot(end).to_prom_text())?;

    // Scope outputs (report / timeseries modes).
    match o.mode {
        Mode::Inspect => {}
        Mode::Timeseries => {
            let rec = sim
                .model
                .scope()
                .expect("invariant: timeseries mode armed the scope above");
            let path = o.out.unwrap_or("ceio-timeseries.csv");
            write_output(path, &rec.to_csv())?;
            eprintln!("wrote {path} ({} series)", rec.all_series().len());
        }
        Mode::Report => {
            let rec = sim
                .model
                .scope()
                .expect("invariant: report mode armed the scope above");
            let meta = vec![
                ("policy".to_string(), report.policy.clone()),
                ("scenario".to_string(), spec.scenario.name().to_string()),
                ("seed".to_string(), spec.seed.to_string()),
                ("queues".to_string(), spec.host.num_queues.to_string()),
                ("fault plan".to_string(), spec.plan_label.clone()),
                ("measured".to_string(), format!("{} ms", spec.millis)),
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
            let path = o.out.unwrap_or("ceio-report.html");
            write_output(path, &html)?;
            eprintln!("wrote {path} ({} charts)", charts.len());
        }
    }

    // Chrome trace export.
    let (events, dropped) = sim.model.trace_events();
    let trace = chrome_trace_json(&events, dropped);
    // An invalid document is an exporter bug and must be loud.
    json::validate(&trace)
        .map_err(|e| format!("internal error: chrome trace emitted invalid JSON: {e}"))?;
    write_output(o.trace_out, &trace)?;
    // Anyone mining slo-alert events out of the trace needs to know when
    // the drop-oldest ring overflowed: early fires are silently gone.
    if dropped > 0 && !o.slos.is_empty() {
        eprintln!(
            "warning: trace ring evicted {dropped} events during the run; early \
             slo-alert fires may be missing from {} (raise --ring; the \
             ceio_alert_* metrics remain exact)",
            o.trace_out
        );
    }

    // Stdout: run headline + per-flow timeline breakdown.
    println!(
        "{} / {}: {:.2} Gbps total ({:.2} fast, {:.2} slow), {} dropped, {} slow-path pkts",
        report.policy,
        spec.scenario.name(),
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
        o.trace_out,
        events.len(),
        o.prom_out
    );
    Ok(())
}
