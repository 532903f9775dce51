//! The receive-host machine: composes all substrate models and dispatches
//! the full packet lifecycle of Fig. 2.
//!
//! Event flow per packet:
//!
//! ```text
//! Emit ─▶ (ingress link: serialize, ECN/drop) ─▶ NicRx
//!   NicRx: RMT/policy steer
//!     FastPath ─▶ [DMA credit + pacing] ─▶ HostArrive (IIO stage)
//!                   ─▶ HostRetire (LLC/DRAM retire) ─▶ flow.ring
//!     SlowPath ─▶ on-NIC memory ─▶ flow.ring, parked (await driver drain)
//!     Drop     ─▶ loss feedback to DCTCP
//!   CorePoll: driver poll hook (slow drain) + in-order batch delivery to
//!             the app, charging memory stalls, compute, copies
//! ```
//!
//! The machine is generic over the [`IoPolicy`]; the policy sees
//! [`HostState`] (everything except itself), which keeps borrows simple and
//! the plumbing identical across CEIO and the baselines.
//!
//! The event handlers live in per-subsystem child modules over this shared
//! state, so each dispatch arm is readable and testable on its own:
//!
//! * [`mod@ingress`] — sender emission and NIC receive/steer (`Emit`, `NicRx`);
//! * [`mod@dma`] — the NIC→host DMA pipeline (`Pump`, `HostArrive`,
//!   `HostRetire`);
//! * [`mod@consume`] — driver polls and application delivery (`CorePoll`);
//! * [`mod@control`] — scenario steps, flow lifecycle, the queue-health
//!   watchdog and failover (`ScenarioStep`, `Watchdog`), and chaos arming.
//!
//! Packet-carrying events hold a flow id (`NicRx`, whose packet waits in
//! [`HostState::on_wire`]) or a slab handle ([`DmaId`]) rather than
//! payloads, keeping `Event` small on the event queue's hot path (see
//! [`crate::slab`]).

pub(crate) mod consume;
pub(crate) mod control;
pub(crate) mod dma;
pub(crate) mod ingress;

pub(crate) use control::HostChaos;
pub use control::{arm_chaos, FailoverStats, WATCHDOG_INTERVAL};
pub use dma::RecoveryStats;

use crate::config::HostConfig;
use crate::flowstate::FlowState;
use crate::measure::{Measurements, RunReport};
use crate::policy::IoPolicy;
use crate::rxq::RxQueue;
use crate::service::ServiceList;
use crate::slab::{DmaId, DmaSlab};
use crate::swring::{ReadyPkt, SlowPkt};
use ceio_cpu::{Application, CpuCore};
use ceio_mem::{BufferId, MemoryController};
use ceio_net::generator::Pacing;
use ceio_net::{
    FlowClass, FlowId, FlowMap, FlowSpec, IngressLink, Packet, Scenario, ScenarioEvent,
};
use ceio_nic::{rss_queue, ArmCore, OnboardMemory, QueueId, RmtEngine, SteerAction};
use ceio_pcie::DmaEngine;
use ceio_sim::{Bandwidth, EventQueue, Histogram, Model, Rng, Simulation, Time};
use std::collections::VecDeque;

/// Machine events.
///
/// Size matters: the engine stores every queued event inline in its
/// calendar keys, so packet-carrying variants hold a flow id or a
/// generational slab handle ([`DmaId`]) instead of payloads — the whole
/// enum is a tag plus at most two machine words (pinned by a `size_of`
/// test).
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// Apply scenario event `idx`.
    ScenarioStep(usize),
    /// A flow's sender emits its next packet. `epoch` must match the
    /// flow's current emission epoch (stale chains are cancelled on a
    /// demand retarget; the epoch check stays as defense-in-depth).
    Emit {
        /// The emitting flow.
        flow: FlowId,
        /// Emission-chain epoch.
        epoch: u64,
    },
    /// A packet of this flow arrived at the NIC from the wire: the front
    /// of [`HostState::on_wire`].
    NicRx(FlowId),
    /// DMA-written data arrived at the host IIO buffer (descriptor
    /// interned in the DMA slab; it carries the issuing queue, because
    /// failover can remap `queue_of` between issue and completion and the
    /// credit must return to the channel that paid it).
    HostArrive(DmaId),
    /// The memory controller retired the data (readable by the CPU).
    HostRetire(DmaId),
    /// A core polls its flow's rings.
    CorePoll(usize),
    /// Periodic policy controller loop.
    ControllerPoll,
    /// Close a measurement window.
    Sample,
    /// Flight-recorder sampling epoch (see [`crate::scope`]); only
    /// scheduled while a recorder is armed.
    Scope,
    /// Retry pending DMA issues on one receive queue (pacing gap, retry
    /// backoff, or descriptor-issue gap elapsed).
    Pump(usize),
    /// Queue-health watchdog tick: inject queue-level faults, advance each
    /// receive queue's lifecycle state machine, and drive failover. Only
    /// scheduled when an armed fault plan carries a queue-level site (see
    /// [`arm_chaos`]), so fault-free schedules never see it.
    Watchdog,
}

impl Event {
    /// Short label naming the event variant (used by audit reports).
    pub fn label(&self) -> &'static str {
        match self {
            Event::ScenarioStep(_) => "ScenarioStep",
            Event::Emit { .. } => "Emit",
            Event::NicRx(_) => "NicRx",
            Event::HostArrive(_) => "HostArrive",
            Event::HostRetire(_) => "HostRetire",
            Event::CorePoll(_) => "CorePoll",
            Event::ControllerPoll => "ControllerPoll",
            Event::Sample => "Sample",
            Event::Scope => "Scope",
            Event::Pump(_) => "Pump",
            Event::Watchdog => "Watchdog",
        }
    }
}

/// Constructor for per-flow application consumers.
pub type AppFactory = Box<dyn FnMut(&FlowSpec) -> Box<dyn Application>>;

/// Mirror of the simulation engine's event-queue counters, copied into the
/// host state after every dispatched event (the telemetry snapshot reads
/// [`HostState`] and has no access to the `Simulation` that owns the
/// queue). Exported as `ceio_sim_*` metrics.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineStats {
    /// Events dispatched by the engine so far (`ceio_sim_events_total`).
    pub events_total: u64,
    /// High-water mark of pending events (`ceio_sim_queue_peak`).
    pub queue_peak: u64,
    /// Timers cancelled before dispatch
    /// (`ceio_sim_timers_cancelled_total`).
    pub timers_cancelled: u64,
}

/// Everything in the machine except the policy. Policies receive
/// `&mut HostState` in every hook.
pub struct HostState {
    /// Configuration of this host.
    pub cfg: HostConfig,
    /// Deterministic RNG (forked per flow).
    pub rng: Rng,
    /// All flows ever started (inactive ones retained for reporting),
    /// indexed by their dense id; iterates in ascending id order.
    pub flows: FlowMap<FlowState>,
    /// Per-flow applications, keyed like `flows`.
    pub apps: FlowMap<Box<dyn Application>>,
    app_factory: AppFactory,
    /// The shared receiver link.
    pub ingress: IngressLink,
    /// Packets the link admitted that have not reached the NIC yet, in
    /// admission order. Each has one `NicRx` event in flight, and those
    /// dispatch in the same order (DESIGN.md §25), so `NicRx` pops the
    /// front.
    pub(crate) on_wire: VecDeque<Packet>,
    /// The NIC's RMT steering engine (policies program it).
    pub rmt: RmtEngine,
    /// On-NIC elastic-buffer memory.
    pub onboard: OnboardMemory,
    /// On-NIC ARM control core (policies charge their work here).
    pub nic_arm: ArmCore,
    /// PCIe DMA engine and link.
    pub dma: DmaEngine,
    /// Host memory hierarchy.
    pub memctrl: MemoryController,
    /// Host CPU cores (index = core id).
    pub cores: Vec<CpuCore>,
    /// Per-core service lists: the flows each core polls, round-robin.
    /// Each flow sits at position [`FlowState::list_pos`] of its core's
    /// list, whose busy bit there is set wherever the flow's ring gains a
    /// ready or parked packet and cleared when a core poll's scan finds
    /// neither. A clear bit proves the flow idle, so the scan
    /// jumps past it without touching its [`FlowState`].
    pub(crate) core_flows: Vec<ServiceList>,
    core_rr: Vec<usize>,
    /// Per-core: the service list may hold an inactive flow, so the next
    /// poll must run its `retain`. Set on the flow's core when a flow stops
    /// emitting; the retain recomputes it.
    pub(crate) retain_due: Vec<bool>,
    flows_started: usize,
    flows_started_per_queue: Vec<usize>,
    poll_queued: Vec<bool>,
    /// Per-receive-queue DMA issue pipelines (RSS shards). Length is
    /// `cfg.num_queues`; index `q` is the queue `rss_queue` maps a flow to.
    pub rxq: Vec<RxQueue>,
    /// Failover indirection over the RSS hash: `queue_remap[h]` is the
    /// queue flows hashing to `h` are actually steered through. Identity
    /// while every queue is usable; rewritten to the healthy-queue mask by
    /// the watchdog on failure and restored on recovery.
    queue_remap: Vec<usize>,
    /// Arrivals parked until the IIO buffer has room, by descriptor handle.
    iio_pending: VecDeque<DmaId>,
    /// Slab interning in-flight DMA descriptors, so the DMA events are
    /// handle-sized on the event queue (see [`crate::slab`]).
    pub(crate) dmas: DmaSlab,
    /// Engine event-queue counters, mirrored per event for telemetry.
    pub engine: EngineStats,
    /// NIC→host DMA pacing rate installed by policies (HostCC throttling).
    pub dma_pace: Option<Bandwidth>,
    dma_pace_until: Time,
    next_buf_id: u64,
    scenario: Vec<(Time, ScenarioEvent)>,
    /// Live measurements.
    pub meas: Measurements,
    /// Packets dropped anywhere on the receive path.
    pub dropped_total: u64,
    /// Deliveries stalled by an ordering gap while later data was ready.
    pub ordering_stalls: u64,
    /// End-to-end latency of fast-path deliveries (post-warmup).
    pub fast_latency: Histogram,
    /// End-to-end latency of slow-path deliveries (post-warmup).
    pub slow_latency: Histogram,
    /// Fault-recovery counters (DMA retries, backoff, consumer pauses).
    pub recovery: RecoveryStats,
    /// Queue-failover counters (watchdog detections, re-steers, drains).
    pub failover: FailoverStats,
    read_attempts: u32,
    read_backoff_until: Time,
    /// Host-side chaos injector; `None` until [`Machine::arm_chaos`].
    pub(crate) chaos: Option<Box<HostChaos>>,
    /// Flight recorder; `None` until [`crate::scope::arm_scope`] arms it.
    pub(crate) scope: Option<Box<ceio_telemetry::FlightRecorder>>,
    /// Run label for archived-snapshot metadata: the fault-plan name or
    /// `"none"` (see `ceio_run_info` in [`crate::telemetry`]).
    pub(crate) run_label: String,
    pacing: Pacing,
    /// Event-trace recorder; `None` until [`Machine::arm_trace`] arms it.
    pub(crate) trace: Option<Box<crate::telemetry::HostTrace>>,
}

impl HostState {
    /// Allocate a fresh host I/O buffer id.
    fn alloc_buf(&mut self) -> BufferId {
        let id = BufferId(self.next_buf_id);
        self.next_buf_id += 1;
        id
    }

    /// The receive queue (RSS shard) a flow's packets are DMAed through:
    /// the flow's RSS hash bucket, indirected through the failover remap.
    /// Identity composition while every queue is usable.
    #[inline]
    pub fn queue_of(&self, flow: FlowId) -> usize {
        self.queue_remap[rss_queue(flow.0, self.rxq.len()).index()]
    }

    /// The flow's RSS home queue, ignoring any failover remap (where its
    /// credit partition lives, and where steering returns after recovery).
    #[inline]
    pub fn home_queue_of(&self, flow: FlowId) -> usize {
        rss_queue(flow.0, self.rxq.len()).index()
    }

    /// Per-queue staging budget: the NIC packet buffer is partitioned
    /// evenly across the receive queues (one shard each, as RSS hardware
    /// does), so one hot queue cannot starve the others of staging space.
    /// With one queue this is the whole buffer — the monolithic limit.
    #[inline]
    fn queue_staging_bytes(&self) -> u64 {
        self.cfg.nic_staging_bytes / self.rxq.len().max(1) as u64
    }

    /// Clear a flow's busy bit whatever its queues hold — the missed
    /// busy-bit set the audit layer must catch. Only compiled in test
    /// builds or under the `test-hooks` feature.
    #[cfg(any(test, feature = "test-hooks"))]
    pub fn clear_busy_for_tests(&mut self, flow: FlowId) {
        if let Some(f) = self.flows.get(&flow) {
            let list = &mut self.core_flows[f.core];
            if list.ids().get(f.list_pos) == Some(&flow) {
                list.clear_busy(f.list_pos);
            }
        }
    }

    /// Apply a controller-initiated ECN mark to a flow (receiver-side CCA
    /// trigger, as HostCC and CEIO's slow-path overload detection do).
    pub fn mark_flow(&mut self, now: Time, flow: FlowId) {
        if let Some(f) = self.flows.get_mut(&flow) {
            f.cca.on_feedback(now, true);
        }
    }

    /// Install or clear the NIC DMA pacing rate (HostCC's throttle knob).
    pub fn set_dma_pace(&mut self, pace: Option<Bandwidth>) {
        self.dma_pace = pace;
    }

    /// IIO buffer occupancy fraction (HostCC's congestion signal).
    pub fn iio_fraction(&self) -> f64 {
        self.memctrl.iio.occupancy_fraction()
    }

    /// Sum of host-ring outstanding entries across all flows (the ShRing
    /// shared-capacity view).
    pub fn total_ring_outstanding(&self) -> u64 {
        self.flows
            .values()
            .map(|f| f.ring.outstanding() as u64)
            .sum()
    }

    /// Ids of flows that are currently active (still emitting), ascending.
    pub fn active_flow_ids(&self) -> Vec<FlowId> {
        self.flows
            .iter()
            .filter(|(_, f)| f.active)
            .map(|(id, _)| id)
            .collect()
    }

    /// Slow-queue length of a flow (packets parked in on-NIC memory).
    pub fn slow_queue_len(&self, flow: FlowId) -> usize {
        self.flows
            .get(&flow)
            .map(|f| f.ring.parked_len())
            .unwrap_or(0)
    }

    /// Account one receive-path packet drop: run totals, window counters,
    /// trace, the owning flow's counters (if the flow still exists), and —
    /// when `loss` — congestion feedback to the sender. Callers layer any
    /// path-specific bookkeeping (ring slots, staging stats, policy hooks)
    /// on top.
    pub(crate) fn account_drop(&mut self, now: Time, flow: FlowId, bytes: u64, loss: bool) {
        self.count_drop(now, flow, bytes);
        if let Some(f) = self.flows.get_mut(&flow) {
            f.note_drop(now, loss);
        }
    }

    /// The machine-wide half of [`Self::account_drop`]: run totals, window
    /// counters and trace. A handler that already holds the flow's state
    /// calls [`FlowState::note_drop`] on it and then this, instead of
    /// probing the flow table again.
    pub(crate) fn count_drop(&mut self, now: Time, flow: FlowId, bytes: u64) {
        self.dropped_total += 1;
        self.meas.record_drop();
        self.trace_event(now, Some(flow.0), ceio_telemetry::TraceKind::Drop, bytes);
    }

    /// Reset all measurements at `now` (end of warmup).
    pub fn reset_measurements(&mut self, now: Time) {
        let s = self.memctrl.llc.stats();
        let (h, m) = (s.hits, s.misses);
        self.meas.reset(now, h, m);
        self.fast_latency.clear();
        self.slow_latency.clear();
        self.ordering_stalls = 0;
        self.dropped_total = 0;
        for f in self.flows.values_mut() {
            f.latency.clear();
            f.counters = Default::default();
        }
    }

    /// Build the final report for this run.
    pub fn report(&self, now: Time, policy: &str) -> RunReport {
        let measured = now.since(self.meas.started_at);
        let secs = measured.as_secs_f64().max(1e-12);
        let mut involved_latency = Histogram::new();
        let mut bypass_latency = Histogram::new();
        for f in self.flows.values() {
            match f.spec.class {
                FlowClass::CpuInvolved => involved_latency.merge(&f.latency),
                FlowClass::CpuBypass => bypass_latency.merge(&f.latency),
            }
        }
        let s = self.memctrl.llc.stats();
        let dh = s.hits - self.meas.hits_at_start;
        let dm = s.misses - self.meas.misses_at_start;
        let llc_miss_rate = if dh + dm == 0 {
            0.0
        } else {
            dm as f64 / (dh + dm) as f64
        };
        RunReport {
            policy: policy.to_string(),
            measured,
            involved_mpps: self.meas.total_involved_pkts as f64 / secs / 1e6,
            involved_gbps: self.meas.total_involved_bytes as f64 * 8.0 / secs / 1e9,
            bypass_gbps: self.meas.total_bypass_bytes as f64 * 8.0 / secs / 1e9,
            bypass_mpps: self.meas.total_bypass_pkts as f64 / secs / 1e6,
            llc_miss_rate,
            involved_latency,
            bypass_latency,
            dropped: self.dropped_total,
            slow_path_pkts: self.meas.slow_path_pkts,
            fast_path_gbps: self.meas.fast_path_bytes as f64 * 8.0 / secs / 1e9,
            slow_path_gbps: self.meas.slow_path_bytes as f64 * 8.0 / secs / 1e9,
            fast_latency: self.fast_latency.clone(),
            slow_latency: self.slow_latency.clone(),
            ordering_stalls: self.ordering_stalls,
            involved_mpps_series: self.meas.involved_mpps.clone(),
            bypass_gbps_series: self.meas.bypass_gbps.clone(),
            miss_series: self.meas.miss_rate.clone(),
            fast_gbps_series: self.meas.fast_gbps.clone(),
            slow_gbps_series: self.meas.slow_gbps.clone(),
            drops_series: self.meas.drops.clone(),
        }
    }
}

/// The machine: host state plus the policy under test.
pub struct Machine<P: IoPolicy> {
    /// All simulated state.
    pub st: HostState,
    /// The I/O management policy.
    pub policy: P,
    /// Scratch batch of packets leaving a flow's delivery buffer (a core
    /// poll's deliverable batch, or a teardown's discarded backlog);
    /// empty between events and reused so delivery never allocates.
    batch: Vec<ReadyPkt>,
    /// Scratch batch of a slow-path fetch, from the on-NIC queue to the
    /// scheduled host arrivals; empty between events, like `batch`.
    slow_batch: Vec<SlowPkt>,
    /// The invariant auditor, when audit mode is armed (see
    /// [`crate::audit`]). `None` costs one pointer-width test per event.
    pub auditor: Option<crate::audit::HostAuditor>,
}

impl<P: IoPolicy> Machine<P> {
    /// Build a machine and seed its event queue with the scenario,
    /// controller polls, and sampling; returns a ready-to-run simulation.
    ///
    /// `app_factory` constructs the application consuming each flow.
    pub fn build(
        cfg: HostConfig,
        policy: P,
        scenario: Scenario,
        app_factory: AppFactory,
    ) -> Simulation<Machine<P>> {
        cfg.validate()
            .expect("invariant: HostConfig passed to Machine::build must validate");
        let num_queues = cfg.num_queues;
        let mut rng = Rng::seed_from_u64(cfg.seed);
        let mut dma = DmaEngine::new(cfg.pcie.clone());
        dma.set_write_channels(num_queues);
        let st = HostState {
            rng: rng.fork(),
            flows: FlowMap::new(),
            apps: FlowMap::new(),
            app_factory,
            ingress: IngressLink::new(cfg.net.clone()),
            on_wire: VecDeque::new(),
            rmt: RmtEngine::new(SteerAction::FastPath {
                queue: QueueId::ZERO,
            }),
            onboard: OnboardMemory::new(
                cfg.nic.onboard_capacity,
                cfg.nic.onboard_bandwidth,
                cfg.nic.onboard_base_latency,
            ),
            nic_arm: ArmCore::new(),
            dma,
            memctrl: MemoryController::new(cfg.mem.clone()),
            cores: Vec::new(),
            core_flows: Vec::new(),
            core_rr: Vec::new(),
            retain_due: Vec::new(),
            flows_started: 0,
            flows_started_per_queue: vec![0; num_queues],
            poll_queued: Vec::new(),
            rxq: (0..num_queues).map(|_| RxQueue::new()).collect(),
            queue_remap: (0..num_queues).collect(),
            iio_pending: VecDeque::new(),
            dmas: DmaSlab::new(),
            engine: EngineStats::default(),
            dma_pace: None,
            dma_pace_until: Time::ZERO,
            next_buf_id: 0,
            scenario: scenario.events,
            meas: Measurements::new(cfg.sample_window),
            dropped_total: 0,
            ordering_stalls: 0,
            fast_latency: Histogram::new(),
            slow_latency: Histogram::new(),
            recovery: RecoveryStats::default(),
            failover: FailoverStats::default(),
            read_attempts: 0,
            read_backoff_until: Time::ZERO,
            chaos: None,
            scope: None,
            run_label: "none".to_string(),
            pacing: Pacing::Poisson,
            trace: None,
            cfg,
        };
        let mut sim = Simulation::new(Machine {
            st,
            policy,
            batch: Vec::new(),
            slow_batch: Vec::new(),
            // Arm the auditor at build time when the runtime switch is on
            // (`CEIO_AUDIT=1` or `ceio_audit::set_enabled(true)`); tests
            // can also arm it explicitly via [`Machine::arm_audit`].
            auditor: ceio_audit::enabled().then(crate::audit::HostAuditor::new),
        });
        for (idx, (at, _)) in sim.model.st.scenario.iter().enumerate() {
            sim.queue.schedule_at(*at, Event::ScenarioStep(idx));
        }
        if let Some(iv) = sim.model.policy.controller_interval() {
            sim.queue
                .schedule_at(Time::ZERO + iv, Event::ControllerPoll);
        }
        let w = sim.model.st.cfg.sample_window;
        sim.queue.schedule_at(Time::ZERO + w, Event::Sample);
        sim
    }

    /// Use CBR pacing instead of Poisson (latency-benchmark style runs).
    pub fn set_cbr_pacing(&mut self) {
        self.st.pacing = Pacing::Cbr;
    }

    /// Label this run for archived-snapshot metadata (the fault-plan name;
    /// surfaces as the `fault_plan` label of `ceio_run_info`).
    pub fn set_run_label(&mut self, label: &str) {
        self.st.run_label = label.to_string();
    }
}

/// Run a machine for `warmup`, reset measurements, run `measure` more, and
/// return the final report. This is the standard experiment entry point.
pub fn run_to_report<P: IoPolicy>(
    sim: &mut Simulation<Machine<P>>,
    warmup: ceio_sim::Duration,
    measure: ceio_sim::Duration,
) -> RunReport {
    let t_warm = Time::ZERO + warmup;
    sim.run_until(t_warm, u64::MAX);
    sim.model.st.reset_measurements(t_warm);
    let t_end = t_warm + measure;
    sim.run_until(t_end, u64::MAX);
    let name = sim.model.policy.name().to_string();
    sim.model.st.report(t_end, &name)
}

impl<P: IoPolicy> Machine<P> {
    /// Install the invariant auditor regardless of the global runtime
    /// switch (test harness entry point).
    pub fn arm_audit(&mut self) {
        self.auditor = Some(crate::audit::HostAuditor::new());
    }

    /// The audit report, if an auditor is armed.
    pub fn audit_report(&self) -> Option<ceio_audit::AuditReport> {
        self.auditor.as_ref().map(crate::audit::HostAuditor::report)
    }
}

impl<P: IoPolicy> Model for Machine<P> {
    type Event = Event;

    fn handle(&mut self, now: Time, event: Event, queue: &mut EventQueue<Event>) {
        // The label is computed only for an armed auditor, so the unarmed
        // path pays one `Option` test here and one after dispatch.
        let audit_label = self.auditor.as_ref().map(|_| event.label());
        match event {
            Event::ScenarioStep(idx) => self.scenario_step(now, idx, queue),
            Event::Emit { flow, epoch } => self.on_emit(now, flow, epoch, queue),
            Event::NicRx(pkt) => self.on_nic_rx(now, pkt, queue),
            Event::HostArrive(dma) => self.on_host_arrive(now, dma, queue),
            Event::HostRetire(dma) => self.on_host_retire(now, dma, queue),
            Event::CorePoll(core) => self.on_core_poll(now, core, queue),
            Event::ControllerPoll => {
                self.policy.on_controller_poll(&mut self.st, now);
                if let Some(iv) = self.policy.controller_interval() {
                    queue.schedule_in(iv, Event::ControllerPoll);
                }
            }
            Event::Sample => {
                let s = self.st.memctrl.llc.stats();
                let (h, m) = (s.hits, s.misses);
                self.st.meas.close_window(now, h, m);
                queue.schedule_in(self.st.cfg.sample_window, Event::Sample);
            }
            Event::Scope => {
                // Take the recorder out of the state so sampling can read
                // `st` immutably while the recorder is written.
                if let Some(mut rec) = self.st.scope.take() {
                    crate::scope::scope_sample(&self.st, now, &mut rec);
                    self.policy.scope_sample(&mut rec, now);
                    for fire in rec.end_epoch(now) {
                        self.st.trace_event(
                            now,
                            None,
                            ceio_telemetry::TraceKind::SloAlert,
                            fire.rule as u64,
                        );
                    }
                    let iv = rec.interval();
                    self.st.scope = Some(rec);
                    queue.schedule_in(iv, Event::Scope);
                }
            }
            Event::Pump(q) => {
                self.st.rxq[q].pump_timer = None;
                self.pump(queue, now, q);
            }
            Event::Watchdog => self.on_watchdog(now, queue),
        }
        // Mirror the engine counters for the telemetry snapshot (three u64
        // copies; the queue itself is invisible to `HostState` readers).
        self.st.engine.events_total = queue.dispatched_total();
        self.st.engine.queue_peak = queue.peak_pending() as u64;
        self.st.engine.timers_cancelled = queue.cancelled_total();
        if let (Some(aud), Some(label)) = (self.auditor.as_mut(), audit_label) {
            aud.after_event(now, label, &self.st, &self.policy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pin the heap-resident event size: the payload-slimming refactor
    /// holds only if `Event` stays a tag plus at most two machine words.
    /// The issue's ceiling is 64 bytes; the current layout is 16 (the
    /// `Emit` variant's tag+`FlowId` word plus its epoch word), asserted
    /// exactly so an accidental fat variant fails loudly.
    #[test]
    fn event_size_is_pinned() {
        assert!(std::mem::size_of::<Event>() <= 64);
        assert_eq!(std::mem::size_of::<Event>(), 16);
        assert!(std::mem::size_of::<Event>() <= 2 * std::mem::size_of::<usize>());
    }
}
