//! ceio-scope host integration: arming the flight recorder and sampling
//! the machine's gauges once per scope epoch.
//!
//! The recorder itself ([`FlightRecorder`]) lives in `ceio-telemetry`;
//! this module owns the host side: which gauges exist, how each one is
//! derived from [`HostState`], and the `Event::Scope` tick that drives
//! sampling in simulated time. Level gauges (occupancies, queue depths,
//! credit ledgers) are read directly; throughput-style gauges (goodput,
//! PCIe/DRAM utilization, drop/miss/retry rates) are windowed deltas of
//! lifetime totals, so each point describes *that epoch*, not the run so
//! far — the shape the paper's occupancy/goodput-over-time figures need.
//!
//! Like tracing, scope sampling is armed at runtime ([`arm_scope`]) and an
//! unarmed machine pays one pointer-width test per scope event (of which
//! there are none, since the tick is only scheduled when arming).

use crate::machine::{Event, HostState, Machine};
use crate::policy::IoPolicy;
use ceio_pcie::Direction;
use ceio_sim::{Duration, Simulation, Time};
use ceio_telemetry::{FlightRecorder, SloRule};

/// Default scope ring capacity: enough for a 10 ms run sampled every
/// 50 us with generous headroom, while bounding a forgotten long run.
pub const DEFAULT_SCOPE_CAP: usize = 4096;

/// Arm the flight recorder on a built (not yet run) simulation: register
/// every machine gauge plus the policy's own ([`IoPolicy::scope_register`]),
/// arm the SLO rules, and schedule the first `Event::Scope` tick one
/// interval in. Re-arming replaces the previous recorder.
pub fn arm_scope<P: IoPolicy>(
    sim: &mut Simulation<Machine<P>>,
    interval: Duration,
    cap: usize,
    slos: Vec<SloRule>,
) {
    let mut rec = FlightRecorder::new(interval, cap);
    scope_register(&mut rec, &sim.model.st);
    sim.model.policy.scope_register(&mut rec);
    rec.arm_slos(slos);
    let iv = rec.interval();
    let rearmed = sim.model.st.scope.replace(Box::new(rec)).is_some();
    // A replaced recorder's tick is already in flight; scheduling another
    // would double the sampling rate.
    if !rearmed {
        sim.queue.schedule_at(Time::ZERO + iv, Event::Scope);
    }
}

impl<P: IoPolicy> Machine<P> {
    /// The armed flight recorder, if any (report generation reads the
    /// recorded series after the run).
    pub fn scope(&self) -> Option<&FlightRecorder> {
        self.st.scope.as_deref()
    }

    /// Mutable recorder access (tests and post-run annotation).
    pub fn scope_mut(&mut self) -> Option<&mut FlightRecorder> {
        self.st.scope.as_deref_mut()
    }
}

/// Declare every machine-level gauge, fixing the CSV column order. The
/// keys registered here must each be recorded by [`scope_sample`] — the
/// `cargo xtask analyze` telemetry rule enforces that statically.
///
/// Registration is state-dependent: per-way LLC series exist only when
/// the built machine runs the set-associative model, so pool-model runs
/// (the golden-CSV default) keep their exact column set.
fn scope_register(rec: &mut FlightRecorder, st: &HostState) {
    let num_queues = st.rxq.len();
    rec.register(
        "llc_occupancy_bytes",
        "I/O-resident LLC occupancy in bytes (the paper's Fig. 3 signal).",
    );
    rec.register(
        "ddio_capacity_bytes",
        "DDIO way-partition capacity in bytes (the occupancy ceiling).",
    );
    rec.register(
        "iio_occupancy_bytes",
        "IIO write-buffer occupancy in bytes.",
    );
    rec.register_queue(
        "rxq_depth",
        "DMA issues pending on this receive queue (descriptors waiting).",
        num_queues,
    );
    rec.register_queue(
        "rxq_pending_bytes",
        "Bytes staged behind this receive queue's pending DMA issues.",
        num_queues,
    );
    rec.register_queue(
        "slow_backlog",
        "Packets parked on the slow path across this queue's flows.",
        num_queues,
    );
    rec.register(
        "pcie_util",
        "PCIe wire utilization over the epoch, both directions (0-1).",
    );
    rec.register(
        "dram_util",
        "DRAM bandwidth utilization over the epoch (0-1).",
    );
    rec.register(
        "dctcp_rate_gbps",
        "Aggregate DCTCP sending rate across active flows (Gbps).",
    );
    rec.register(
        "goodput_gbps",
        "Delivered goodput over the epoch, fast + slow path (Gbps).",
    );
    rec.register(
        "fast_gbps",
        "Fast-path delivered throughput over the epoch (Gbps).",
    );
    rec.register(
        "slow_gbps",
        "Slow-path delivered throughput over the epoch (Gbps).",
    );
    rec.register(
        "drop_pps",
        "Receive-path packet drops per second over the epoch.",
    );
    rec.register("llc_miss_ratio", "LLC miss ratio over the epoch (0-1).");
    rec.register(
        "dma_retry_pps",
        "DMA retry issues per second over the epoch.",
    );
    rec.register_queue(
        "queue_state",
        "Lifecycle state of this receive queue (0 Healthy … 4 Recovering).",
        num_queues,
    );
    rec.register(
        "failover_pps",
        "Watchdog state transitions per second (suspects + failures + recoveries).",
    );
    rec.register(
        "llc_over_capacity_bytes",
        "Bytes by which I/O occupancy exceeds the DDIO partition (0 when fitting).",
    );
    rec.register(
        "llc_eviction_age",
        "Mean recency age of buffers evicted this epoch (0 when none).",
    );
    rec.register(
        "llc_app_eviction_share",
        "Fraction of this epoch's evictions caused by the app antagonist (0-1).",
    );
    if let Some(ways) = st.memctrl.llc.way_occupancy() {
        rec.register_queue(
            "llc_way_io_lines",
            "Resident I/O cache lines in this LLC way.",
            ways.io_lines.len(),
        );
        rec.register_queue(
            "llc_way_app_lines",
            "Resident application cache lines in this LLC way.",
            ways.app_lines.len(),
        );
    }
}

/// Sample every machine-level gauge at `now`. Runs once per scope epoch
/// from the `Event::Scope` handler; the policy's own gauges are sampled
/// right after via [`IoPolicy::scope_sample`].
pub(crate) fn scope_sample(st: &HostState, now: Time, rec: &mut FlightRecorder) {
    rec.record(
        "llc_occupancy_bytes",
        now,
        st.memctrl.llc.occupancy() as f64,
    );
    rec.record("ddio_capacity_bytes", now, st.memctrl.llc.capacity() as f64);
    rec.record(
        "iio_occupancy_bytes",
        now,
        st.memctrl.iio.occupancy() as f64,
    );
    let mut backlog = vec![0u64; st.rxq.len()];
    for (id, f) in &st.flows {
        backlog[st.queue_of(id)] += f.ring.parked_len() as u64;
    }
    for (q, rxq) in st.rxq.iter().enumerate() {
        rec.record_queue("rxq_depth", q, now, rxq.pending_len() as f64);
        rec.record_queue("rxq_pending_bytes", q, now, rxq.pending_bytes() as f64);
        rec.record_queue("slow_backlog", q, now, backlog[q] as f64);
        rec.record_queue("queue_state", q, now, rxq.state().as_gauge() as f64);
    }
    // Utilizations: lifetime byte totals normalized by link capacity turn
    // into per-epoch fractions through the recorder's windowed delta.
    let wire = st.dma.link.stats(Direction::ToHost).wire_bytes
        + st.dma.link.stats(Direction::ToNic).wire_bytes;
    let pcie_cap = st.cfg.pcie.bandwidth.as_bytes_per_sec().max(1) as f64;
    rec.record_rate("pcie_util", now, wire as f64 / pcie_cap);
    let dram_cap = st.cfg.mem.dram_bandwidth.as_bytes_per_sec().max(1) as f64;
    rec.record_rate(
        "dram_util",
        now,
        st.memctrl.dram.stats().bytes_served as f64 / dram_cap,
    );
    let rate: f64 = st
        .flows
        .values()
        .filter(|f| f.active)
        .map(|f| f.cca.rate().as_gbps_f64())
        .sum();
    rec.record("dctcp_rate_gbps", now, rate);
    // Goodput in gigabits: the delta per second is directly Gbps.
    let fast_gb = st.meas.fast_path_bytes as f64 * 8.0 / 1e9;
    let slow_gb = st.meas.slow_path_bytes as f64 * 8.0 / 1e9;
    rec.record_rate("goodput_gbps", now, fast_gb + slow_gb);
    rec.record_rate("fast_gbps", now, fast_gb);
    rec.record_rate("slow_gbps", now, slow_gb);
    rec.record_rate("drop_pps", now, st.dropped_total as f64);
    let l = st.memctrl.llc.stats();
    rec.record_ratio("llc_miss_ratio", now, l.misses as f64, l.hits as f64);
    rec.record_rate(
        "dma_retry_pps",
        now,
        (st.recovery.dma_write_retries + st.recovery.dma_read_retries) as f64,
    );
    rec.record_rate(
        "failover_pps",
        now,
        (st.failover.suspects + st.failover.failures + st.failover.recoveries) as f64,
    );
    rec.record(
        "llc_over_capacity_bytes",
        now,
        st.memctrl.llc.over_capacity_bytes() as f64,
    );
    rec.record_mean(
        "llc_eviction_age",
        now,
        l.eviction_age_sum as f64,
        l.evictions as f64,
    );
    rec.record_ratio(
        "llc_app_eviction_share",
        now,
        l.app_evictions as f64,
        (l.evictions - l.app_evictions) as f64,
    );
    if let Some(ways) = st.memctrl.llc.way_occupancy() {
        for (way, (&io, &app)) in ways.io_lines.iter().zip(&ways.app_lines).enumerate() {
            rec.record_queue("llc_way_io_lines", way, now, io as f64);
            rec.record_queue("llc_way_app_lines", way, now, app as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HostConfig;
    use crate::machine::run_to_report;
    use crate::policy::UnmanagedPolicy;
    use ceio_cpu::{AppWork, Application};
    use ceio_net::{FlowClass, FlowSpec, Packet, Scenario};
    use ceio_sim::Bandwidth;

    struct Cheap;
    impl Application for Cheap {
        fn name(&self) -> &str {
            "cheap"
        }
        fn process(&mut self, _: &Packet) -> AppWork {
            AppWork::compute(Duration::nanos(30))
        }
    }

    fn sim_with_scope(slos: Vec<SloRule>) -> Simulation<Machine<UnmanagedPolicy>> {
        let mut s = Scenario::new();
        s.start_at(
            Time::ZERO,
            FlowSpec::new(1, FlowClass::CpuInvolved, 1500, 8, Bandwidth::gbps(20)),
        );
        let mut sim = Machine::build(
            HostConfig::default(),
            UnmanagedPolicy,
            s.build(),
            Box::new(|_| Box::new(Cheap)),
        );
        arm_scope(&mut sim, Duration::micros(20), 4096, slos);
        sim
    }

    #[test]
    fn armed_scope_samples_all_registered_gauges() {
        let mut sim = sim_with_scope(Vec::new());
        run_to_report(&mut sim, Duration::millis(1), Duration::millis(2));
        let rec = sim.model.scope().expect("invariant: armed above");
        assert!(
            rec.samples() > 100,
            "3ms at 20us spacing: {}",
            rec.samples()
        );
        for s in rec.all_series() {
            assert_eq!(
                s.points().count() as u64,
                rec.samples(),
                "gauge {} missed epochs",
                s.key
            );
        }
        let (_, occ) = rec
            .series("llc_occupancy_bytes")
            .and_then(|s| s.latest())
            .expect("invariant: sampled");
        assert!(occ >= 0.0);
        let cap = rec
            .series("ddio_capacity_bytes")
            .and_then(|s| s.latest())
            .expect("invariant: sampled")
            .1;
        assert!(cap > 0.0, "DDIO capacity must be reported");
        let good = rec
            .series("goodput_gbps")
            .and_then(|s| s.latest())
            .expect("invariant: sampled")
            .1;
        assert!(good > 0.0, "a loaded run must show goodput");
    }

    #[test]
    fn always_firing_slo_fires_and_exports() {
        let rules = SloRule::parse_spec("alert=load,when=goodput_gbps,above=0.0001,for=100us")
            .expect("invariant: well-formed");
        let mut sim = sim_with_scope(rules);
        run_to_report(&mut sim, Duration::millis(1), Duration::millis(2));
        let rec = sim.model.scope().expect("invariant: armed above");
        assert!(rec.total_fired() >= 1, "goodput SLO must fire under load");
        let snap = sim.model.snapshot(Time(3_000_000));
        let prom = snap.to_prom_text();
        assert!(
            prom.contains("ceio_alert_fired_total{alert=\"load\"}"),
            "{prom}"
        );
        assert!(prom.contains("ceio_scope_samples_total"), "{prom}");
    }

    /// Each SLO fire must also land in the event trace (as a
    /// `slo-alert` event) so alert onsets line up with the surrounding
    /// pipeline events in the chrome timeline.
    #[test]
    fn slo_fires_land_in_the_event_trace() {
        let rules = SloRule::parse_spec("alert=load,when=goodput_gbps,above=0.0001,for=100us")
            .expect("invariant: well-formed");
        let mut sim = sim_with_scope(rules);
        sim.model.arm_trace(1 << 20);
        run_to_report(&mut sim, Duration::millis(1), Duration::millis(2));
        let fired = sim
            .model
            .scope()
            .expect("invariant: armed above")
            .total_fired();
        assert!(fired >= 1, "goodput SLO must fire under load");
        let (evs, dropped) = sim.model.trace_events();
        assert_eq!(dropped, 0, "ring sized for the full run");
        let alerts = evs
            .iter()
            .filter(|e| e.kind == ceio_telemetry::TraceKind::SloAlert)
            .count() as u64;
        assert_eq!(
            alerts, fired,
            "every alert fire must emit one slo-alert trace event"
        );
    }

    #[test]
    fn rearm_replaces_without_doubling_ticks() {
        let mut sim = sim_with_scope(Vec::new());
        arm_scope(&mut sim, Duration::micros(20), 4096, Vec::new());
        run_to_report(&mut sim, Duration::millis(1), Duration::millis(1));
        let rec = sim.model.scope().expect("invariant: armed above");
        // 2ms at 20us spacing = ~100 epochs; a doubled tick would show ~200.
        assert!(
            rec.samples() <= 110,
            "tick doubled after re-arm: {} epochs",
            rec.samples()
        );
    }
}
