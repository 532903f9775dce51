//! One repetition of a workload, in each of the three ways the benchmark
//! drives the simulation, plus the checks every repetition must pass.
//!
//! * [`reference`] — one `run_to_report`, exactly as the experiments run;
//!   its digest is what the other two paths must reproduce.
//! * [`timed`] — the untraced path behind the end-to-end metrics: the
//!   measured span runs as [`SLICES`] equal sim-time slices, each timed
//!   from outside the simulation.
//! * [`traced`] — the per-layer path: a `Profiled` model times every
//!   handler call, bucketed by event kind.
//!
//! `run_until`'s horizon is exclusive and holds the clock, so neither
//! slicing nor the wrapper can reorder dispatch; the digest proves it.

use crate::workloads::{Sim, Workload};
use ceio_bench::runner::series_csv;
use ceio_bench::AnyPolicy;
use ceio_host::{run_to_report, Event, IoPolicy, Machine, RunReport};
use ceio_sim::{Duration, EventQueue, Model, Simulation, Time};
use std::collections::BTreeMap;
use std::time::Instant;

/// Equal sim-time slices the measured span is cut into.
pub const SLICES: u64 = 100;

/// Event kinds in bucket order: the `Event::label()` of each, and the
/// benchmark layer named after the host machine module that handles it.
/// `Watchdog` and `Scope` are scheduled only by fault plans and flight
/// recorders, which no workload arms, so only the first
/// [`REPORTED_KINDS`] are reported.
pub const KINDS: [(&str, &str); 11] = [
    ("Emit", "ingress.emit"),
    ("NicRx", "ingress.nic_rx"),
    ("HostArrive", "dma.host_arrive"),
    ("HostRetire", "dma.host_retire"),
    ("Pump", "dma.pump"),
    ("CorePoll", "consume.core_poll"),
    ("ScenarioStep", "control.scenario_step"),
    ("ControllerPoll", "control.controller_poll"),
    ("Sample", "measure.sample"),
    ("Watchdog", "control.watchdog"),
    ("Scope", "measure.scope"),
];

/// Kinds with per-layer metrics (the rest never fire in any workload).
pub const REPORTED_KINDS: usize = 9;

/// Bucket index of an event in [`KINDS`].
fn kind_of(event: &Event) -> usize {
    match event {
        Event::Emit { .. } => 0,
        Event::NicRx(_) => 1,
        Event::HostArrive(_) => 2,
        Event::HostRetire(_) => 3,
        Event::Pump(_) => 4,
        Event::CorePoll(_) => 5,
        Event::ScenarioStep(_) => 6,
        Event::ControllerPoll => 7,
        Event::Sample => 8,
        Event::Watchdog => 9,
        Event::Scope => 10,
    }
}

/// What every repetition reports, whichever path ran it.
#[derive(Debug, Clone)]
pub struct Checked {
    /// FNV-1a digest of the simulated output (see [`digest`]).
    pub digest: u64,
    /// Failed correctness checks, empty when the repetition is correct.
    pub failures: Vec<String>,
    /// Modelled-component counters from the end-of-run snapshot.
    pub counters: Counters,
}

/// Host cost of one untraced repetition.
#[derive(Debug, Clone)]
pub struct Timed {
    /// First dispatch to the end of the measured horizon.
    pub wall_s: f64,
    /// Host time of each measured slice, in order.
    pub slice_s: Vec<f64>,
    /// Output digest and checks.
    pub out: Checked,
}

/// Host cost of one traced repetition.
#[derive(Debug, Clone)]
pub struct Traced {
    /// First dispatch to the end of the horizon, tracing on.
    pub wall_s: f64,
    /// Dispatches per kind, in [`KINDS`] order.
    pub events: [u64; KINDS.len()],
    /// Host nanoseconds inside `Machine::handle` per kind.
    pub handler_ns: [u64; KINDS.len()],
    /// `Simulation::events_processed()` at the horizon.
    pub events_processed: u64,
    /// Output digest and checks.
    pub out: Checked,
}

impl Traced {
    /// Host time spent in handlers, summed over kinds.
    pub fn handler_s(&self) -> f64 {
        self.handler_ns.iter().sum::<u64>() as f64 * 1e-9
    }

    /// Engine self time: traced wall minus all handler time.
    pub fn engine_s(&self) -> f64 {
        self.wall_s - self.handler_s()
    }
}

/// Build the simulation and run it with one `run_to_report` call.
pub fn reference(w: &Workload, seed: u64) -> Checked {
    let mut sim = w.build(seed);
    let report = run_to_report(&mut sim, w.warmup, w.measure);
    let events = sim.events_processed();
    check(w, &sim.model, &report, events)
}

/// One untraced repetition, timed per slice.
pub fn timed(w: &Workload, seed: u64) -> Timed {
    let mut sim = w.build(seed);
    let start = Instant::now();
    let t_warm = Time::ZERO + w.warmup;
    sim.run_until(t_warm, u64::MAX);
    sim.model.st.reset_measurements(t_warm);
    let mut slice_s = Vec::with_capacity(SLICES as usize);
    let mut last = Instant::now();
    for i in 1..=SLICES {
        sim.run_until(t_warm + slice_end(w.measure, i), u64::MAX);
        let now = Instant::now();
        slice_s.push((now - last).as_secs_f64());
        last = now;
    }
    let wall_s = (last - start).as_secs_f64();
    let report = finish(&sim.model, w);
    let events = sim.events_processed();
    Timed {
        wall_s,
        slice_s,
        out: check(w, &sim.model, &report, events),
    }
}

/// Time set-up alone: config, scenario generation and `Machine::build`.
pub fn setup_only(w: &Workload, seed: u64) -> f64 {
    let t0 = Instant::now();
    let sim = w.build(seed);
    let s = t0.elapsed().as_secs_f64();
    drop(std::hint::black_box(sim));
    s
}

/// One traced repetition: every handler call timed and bucketed by kind.
pub fn traced(w: &Workload, seed: u64) -> Traced {
    let sim = w.build(seed);
    let mut sim = profiled(sim);
    let start = Instant::now();
    let t_warm = Time::ZERO + w.warmup;
    sim.run_until(t_warm, u64::MAX);
    sim.model.inner.st.reset_measurements(t_warm);
    sim.run_until(w.horizon(), u64::MAX);
    let wall_s = start.elapsed().as_secs_f64();
    let report = finish(&sim.model.inner, w);
    let events_processed = sim.events_processed();
    Traced {
        wall_s,
        events: sim.model.events,
        handler_ns: sim.model.handler_ns,
        events_processed,
        out: check(w, &sim.model.inner, &report, events_processed),
    }
}

/// End of slice `i` (1-based) of `measure`; slice [`SLICES`] ends exactly
/// at `measure`.
fn slice_end(measure: Duration, i: u64) -> Duration {
    Duration::nanos(measure.as_nanos() * i / SLICES)
}

/// The report `run_to_report` would return at the horizon.
fn finish(m: &Machine<AnyPolicy>, w: &Workload) -> RunReport {
    let name = m.policy.name();
    m.st.report(w.horizon(), name)
}

/// A machine whose every handler call is timed from outside the simulator
/// crates (which may not read the wall clock).
struct Profiled {
    inner: Machine<AnyPolicy>,
    events: [u64; KINDS.len()],
    handler_ns: [u64; KINDS.len()],
}

impl Model for Profiled {
    type Event = Event;

    fn handle(&mut self, at: Time, event: Event, queue: &mut EventQueue<Event>) {
        let k = kind_of(&event);
        let t0 = Instant::now();
        self.inner.handle(at, event, queue);
        self.handler_ns[k] += t0.elapsed().as_nanos() as u64;
        self.events[k] += 1;
    }
}

/// Move a freshly built simulation, seeded queue included, under a
/// `Profiled` model.
fn profiled(sim: Sim) -> Simulation<Profiled> {
    assert_eq!(
        sim.events_processed(),
        0,
        "invariant: profile before any dispatch"
    );
    let mut p = Simulation::new(Profiled {
        inner: sim.model,
        events: [0; KINDS.len()],
        handler_ns: [0; KINDS.len()],
    });
    p.queue = sim.queue;
    p
}

/// Every `Machine::snapshot` series at the horizon, by name, summed over
/// labels (e.g. over cores); gauges are truncated to integers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters(pub BTreeMap<String, u64>);

impl Counters {
    /// The value of `series`, or 0 if the snapshot lacks it.
    pub fn get(&self, series: &str) -> u64 {
        self.0.get(series).copied().unwrap_or(0)
    }
}

/// Read the counters and run every correctness check on a finished run.
fn check(w: &Workload, m: &Machine<AnyPolicy>, report: &RunReport, events: u64) -> Checked {
    let mut counters = Counters::default();
    for s in m.snapshot(w.horizon()).metrics {
        *counters.0.entry(s.name).or_default() += s.value.as_u64();
    }
    let mut failures = Vec::new();
    if w.is_ceio() && counters.get("ceio_credit_conserved") != 1 {
        failures.push("ceio_credit_conserved != 1 (Eq. 1 credit conservation broken)".to_string());
    }
    if counters.get("ceio_sim_events_total") != events {
        failures.push(format!(
            "ceio_sim_events_total = {} but the engine dispatched {events}",
            counters.get("ceio_sim_events_total")
        ));
    }
    if report.involved_mpps + report.bypass_gbps <= 0.0 {
        failures.push("nothing was delivered in the measured span".to_string());
    }
    Checked {
        digest: digest(report),
        failures,
        counters,
    }
}

/// FNV-1a over the report's time-series CSV plus its scalar outputs.
pub fn digest(r: &RunReport) -> u64 {
    let mut bytes = series_csv(r).into_bytes();
    for x in [r.involved_mpps, r.bypass_gbps, r.llc_miss_rate] {
        bytes.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    let [fast_p50, fast_p99] = quantiles(&r.fast_latency);
    let [slow_p50, slow_p99] = quantiles(&r.slow_latency);
    for n in [
        r.dropped,
        r.slow_path_pkts,
        fast_p50,
        fast_p99,
        slow_p50,
        slow_p99,
        r.ordering_stalls,
    ] {
        bytes.extend_from_slice(&n.to_le_bytes());
    }
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn quantiles(h: &ceio_sim::Histogram) -> [u64; 2] {
    let q = h.quantiles(&[0.5, 0.99]);
    [q[0], q[1]]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceio_net::FlowId;

    /// Buckets follow `Event::label()` (the slab-handle variants cannot be
    /// built outside the host crate; the traced tests cover them).
    #[test]
    fn buckets_follow_event_labels() {
        let events = [
            Event::Emit {
                flow: FlowId(0),
                epoch: 0,
            },
            Event::Pump(0),
            Event::CorePoll(0),
            Event::ScenarioStep(0),
            Event::ControllerPoll,
            Event::Sample,
            Event::Watchdog,
            Event::Scope,
        ];
        for e in events {
            assert_eq!(KINDS[kind_of(&e)].0, e.label());
        }
    }
}
