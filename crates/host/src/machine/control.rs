//! Control-plane handlers: scenario steps and flow lifecycle
//! (`ScenarioStep`), the queue-health watchdog and failover (`Watchdog`),
//! and chaos arming.
//!
//! Flow stop and demand retargeting cancel the flow's pending emission
//! timer (see [`crate::flowstate::FlowState::emit_timer`]), and failover
//! cancels a failed queue's pending pump wake — both through a
//! [`ceio_sim::TimerToken`] instead of letting stale events dispatch into
//! no-ops.

use crate::flowstate::FlowState;
use crate::policy::IoPolicy;
use crate::rxq::QueueState;
use ceio_chaos::{FaultInjector, FaultPlan, FaultSite};
use ceio_net::{Dctcp, FlowId, FlowSpec, ScenarioEvent, TrafficGen};
use ceio_nic::QueueId;
use ceio_sim::{Duration, EventQueue, Simulation, Time};
use ceio_telemetry::TraceKind;

use super::{Event, Machine};

/// Queue-failover statistics. Always compiled (and always zero without a
/// queue-level fault site armed, since the watchdog is only scheduled by
/// [`arm_chaos`] and healthy queues never trip it); exported through the
/// telemetry snapshot so failover experiments can assert detection,
/// re-steer, and recovery all ran.
#[derive(Debug, Default, Clone)]
pub struct FailoverStats {
    /// Watchdog ticks processed.
    pub watchdog_polls: u64,
    /// `Healthy → Suspect` transitions (no-progress ticks crossed the
    /// suspect threshold).
    pub suspects: u64,
    /// `Suspect → Healthy` transitions (progress resumed before the fail
    /// threshold — the watchdog was wrong).
    pub false_alarms: u64,
    /// `Suspect → Failed` transitions (queues declared dead).
    pub failures: u64,
    /// Flows whose RMT steering rule was rewritten off a failed queue (or
    /// back home on recovery); counted by the policy's re-steer hooks.
    pub flows_resteered: u64,
    /// Staged packets migrated off a failed queue into a healthy one.
    pub drained_pkts: u64,
    /// Staged packets head-dropped during failover because the target
    /// queue's staging partition could not absorb them.
    pub head_dropped_pkts: u64,
    /// `Recovering → Healthy` transitions (queues re-admitted for good).
    pub recoveries: u64,
}

/// Watchdog poll period. Coarse against the per-packet timescale (~100ns
/// inter-arrival at line rate) so per-tick fault draws stay cheap, fine
/// against fault durations (`queue_death` defaults to 120us ≈ 24 ticks).
pub const WATCHDOG_INTERVAL: Duration = Duration::micros(5);

/// Consecutive no-progress watchdog ticks before a queue turns `Suspect`.
const SUSPECT_TICKS: u32 = 2;

/// Consecutive no-progress ticks (total, from Healthy) before a `Suspect`
/// queue is declared `Failed` and failover runs.
const FAIL_TICKS: u32 = 4;

/// Watchdog ticks a `Failed` queue spends `Draining` before it re-enters
/// the steering mask as `Recovering` (lets the wedge and any in-flight
/// poison clear; 16 ticks = 80us covers the default `queue_stall` and
/// `link_flap` wedges with margin).
const DRAIN_TICKS: u32 = 16;

/// Idle watchdog ticks a `Recovering` queue must survive (when no traffic
/// arrives to prove progress) before it is confirmed `Healthy`.
const PROBE_TICKS: u32 = 2;

/// Host-side chaos state: the injector stream feeding consumer pauses and
/// retry-backoff jitter.
#[derive(Debug)]
pub(crate) struct HostChaos {
    pub(crate) injector: FaultInjector,
    /// One independent stream per receive queue (tags `rxq0..rxqN`), so a
    /// stall drawn for queue 2 never perturbs queue 5's schedule.
    pub(crate) queue_injectors: Vec<FaultInjector>,
    /// Link-wide stream (tag `link`): a flap wedges every queue at once.
    pub(crate) link_injector: FaultInjector,
}

impl<P: IoPolicy> Machine<P> {
    fn new_core(&mut self) -> usize {
        self.st.cores.push(ceio_cpu::CpuCore::new());
        self.st.core_flows.push(Default::default());
        self.st.core_rr.push(0);
        self.st.retain_due.push(false);
        self.st.poll_queued.push(false);
        self.st.cores.len() - 1
    }

    fn start_flow(&mut self, now: Time, spec: FlowSpec, queue: &mut EventQueue<Event>) {
        let q = self.st.queue_of(spec.id);
        let core = match self.st.cfg.num_cores {
            // Shared-core mode: k polling cores shared across flows. Cores
            // are partitioned queue-affine — each receive queue owns a
            // contiguous slice of the cores (IRQ-affinity style), and flows
            // round-robin within their queue's slice. With one queue the
            // slice is all k cores and this reduces exactly to the old
            // `flows_started % k` round-robin.
            Some(k) => {
                let k = k.max(1);
                while self.st.cores.len() < k {
                    self.new_core();
                }
                let n = self.st.rxq.len().max(1);
                let base = q * k / n;
                let width = ((q + 1) * k / n).saturating_sub(base).max(1);
                (base + self.st.flows_started_per_queue[q] % width).min(k - 1)
            }
            // Dedicated-core mode (§2.3): one core per flow, reusing cores
            // whose flow has finished and drained.
            None => match self.st.core_flows.iter().position(|f| f.is_empty()) {
                Some(i) => i,
                None => self.new_core(),
            },
        };
        self.st.flows_started += 1;
        self.st.flows_started_per_queue[q] += 1;
        let id = spec.id;
        let list_pos = self.st.core_flows[core].push(id);
        let gen = TrafficGen::new(
            spec.clone(),
            self.st.pacing,
            self.st.rng.fork(),
            id.0 as u64,
        );
        let cca = Dctcp::new(spec.demand, self.st.cfg.net.rtt);
        let app = (self.st.app_factory)(&spec);
        let ring_cap = self.st.cfg.ring_entries as u32;
        self.st.flows.insert(
            id,
            FlowState::new(spec, cca, gen, core, list_pos, q, ring_cap),
        );
        self.st.apps.insert(id, app);
        self.policy.on_flow_start(&mut self.st, now, id);
        let tok = queue.schedule_cancellable_at(now, Event::Emit { flow: id, epoch: 0 });
        if let Some(f) = self.st.flows.get_mut(&id) {
            f.emit_timer = Some(tok);
        }
        self.schedule_poll(queue, now, core);
    }

    fn stop_flow(&mut self, now: Time, id: FlowId, queue: &mut EventQueue<Event>) {
        // Connection teardown: undelivered backlog is freed, not processed
        // — the application never sees data of a closed connection, and
        // its buffers (host LLC residency, on-NIC parking) return at once.
        if let Some(f) = self.st.flows.get_mut(&id) {
            f.active = false;
            self.st.retain_due[f.core] = true;
            if let Some(tok) = f.emit_timer.take() {
                queue.cancel(tok);
            }
            let parked_bytes = f.teardown_backlog(&mut self.batch);
            for rp in self.batch.drain(..) {
                self.st.memctrl.consume(rp.buf);
            }
            self.st.onboard.discard(parked_bytes);
        }
        self.policy.on_flow_stop(&mut self.st, now, id);
    }

    pub(super) fn scenario_step(&mut self, now: Time, idx: usize, queue: &mut EventQueue<Event>) {
        let (_, ev) = self.st.scenario[idx].clone();
        match ev {
            ScenarioEvent::Start(spec) => self.start_flow(now, spec, queue),
            ScenarioEvent::Stop(id) => self.stop_flow(now, id, queue),
            ScenarioEvent::SetDemand(id, demand) => {
                if let Some(f) = self.st.flows.get_mut(&id) {
                    f.cca.set_demand(demand);
                    // Retarget: cancel the old chain outright (the epoch
                    // bump still guards a same-ns dispatch that beat us).
                    if let Some(tok) = f.emit_timer.take() {
                        queue.cancel(tok);
                    }
                    f.emit_epoch += 1;
                    let epoch = f.emit_epoch;
                    if f.active && !f.cca.paused() {
                        let tok =
                            queue.schedule_cancellable_at(now, Event::Emit { flow: id, epoch });
                        f.emit_timer = Some(tok);
                    }
                }
            }
        }
    }

    /// Recompute the failover remap from the current queue states: usable
    /// queues map to themselves, failed ones spread round-robin across the
    /// usable set (identity if nothing is usable — no failover possible).
    fn recompute_remap(&mut self) {
        let n = self.st.rxq.len();
        let usable: Vec<usize> = (0..n)
            .filter(|&i| self.st.rxq[i].state().usable())
            .collect();
        for i in 0..n {
            self.st.queue_remap[i] = if self.st.rxq[i].state().usable() || usable.is_empty() {
                i
            } else {
                usable[i % usable.len()]
            };
        }
    }

    /// Declare queue `q` failed: cancel its pending pump wake, re-steer its
    /// RSS bucket to the healthy mask, migrate its staged packets to the
    /// takeover queue (head-drop on target staging overflow, under the same
    /// loss accounting as the DMA retry limit), and let the policy
    /// quarantine its resources.
    fn fail_queue(&mut self, now: Time, q: usize, queue: &mut EventQueue<Event>) {
        // A dead queue's wake must not fire into its drained staging
        // queue; the staging migration below empties it, so the wake could
        // only ever no-op anyway (its one effect, clearing
        // `credit_blocked`, is moot — a queue is never failed while
        // credit-blocked, because credit stalls excuse it to the watchdog).
        if let Some(tok) = self.st.rxq[q].pump_timer.take() {
            queue.cancel(tok);
        }
        self.st.rxq[q].state = QueueState::Failed;
        self.st.rxq[q].stall_ticks = 0;
        self.st.rxq[q].drain_ticks = 0;
        self.st.rxq[q].write_attempts = 0;
        self.st.rxq[q].stats.failovers += 1;
        self.st.failover.failures += 1;
        self.st
            .trace_event(now, None, TraceKind::QueueFailed, q as u64);
        self.recompute_remap();
        let target = self.st.queue_remap[q];
        let budget = self.st.queue_staging_bytes();
        while let Some(mut pd) = self.st.rxq[q].pending.pop_front() {
            let bytes = pd.pkt.bytes;
            self.st.rxq[q].pending_bytes -= bytes;
            if target != q && self.st.rxq[target].pending_bytes() + bytes <= budget {
                pd.queue = target;
                self.st.rxq[target].push(pd);
                self.st.failover.drained_pkts += 1;
            } else {
                // Target partition full (or no healthy queue): head-drop
                // with full loss accounting so nothing is stranded.
                self.st.failover.head_dropped_pkts += 1;
                if let Some(f) = self.st.flows.get_mut(&pd.pkt.flow) {
                    f.ring.abort_fast(pd.nic_seq);
                }
                self.st.account_drop(now, pd.pkt.flow, pd.pkt.bytes, true);
                self.policy.on_fast_drop(&mut self.st, now, pd.pkt.flow);
            }
        }
        self.policy.on_queue_failed(&mut self.st, now, QueueId(q));
    }

    /// One watchdog tick: inject queue-level faults, advance every queue's
    /// lifecycle state machine, and re-pump whatever the tick unwedged or
    /// migrated. Only ever scheduled by [`arm_chaos`] when the plan
    /// carries a queue-level fault site.
    pub(super) fn on_watchdog(&mut self, now: Time, queue: &mut EventQueue<Event>) {
        self.st.failover.watchdog_polls += 1;

        // Phase 1 — fault injection: wedge queues per the armed plan. One
        // draw per site per queue per tick (ascending queue order), plus
        // one link-wide draw, all from independent tag-hashed streams.
        if let Some(ch) = self.st.chaos.as_mut() {
            let (stall, death, flap) = {
                let plan = ch.injector.plan();
                (plan.queue_stall, plan.queue_death, plan.link_flap)
            };
            let mut wedges: Vec<(usize, Duration, TraceKind)> = Vec::new();
            for (q, inj) in ch.queue_injectors.iter_mut().enumerate() {
                if inj.fire(FaultSite::QueueStall) {
                    wedges.push((q, stall, TraceKind::QueueStall));
                }
                if inj.fire(FaultSite::QueueDeath) {
                    wedges.push((q, death, TraceKind::QueueDeath));
                }
            }
            if ch.link_injector.fire(FaultSite::LinkFlap) {
                for q in 0..self.st.rxq.len() {
                    wedges.push((q, flap, TraceKind::LinkFlap));
                }
            }
            for (q, dur, kind) in wedges {
                let until = now + dur;
                self.st.rxq[q].wedged_until = self.st.rxq[q].wedged_until.max(until);
                // A wedge supersedes any earlier credit stall: the queue
                // must now be watched, not excused.
                self.st.rxq[q].credit_blocked = false;
                self.st.trace_event(now, None, kind, q as u64);
            }
        }

        // Phase 2 — per-queue state machine, ascending. "Stalled" means
        // work is pending, no issue happened since the last tick, and the
        // queue has no legitimate excuse (a scheduled pump wake-up or a
        // PCIe credit stall, both of which resolve without the watchdog).
        for q in 0..self.st.rxq.len() {
            let issued = self.st.rxq[q].stats.issued;
            let progressed = issued != self.st.rxq[q].issued_at_last_tick;
            self.st.rxq[q].issued_at_last_tick = issued;
            let pending = self.st.rxq[q].pending_len() > 0;
            let excused = self.st.rxq[q].credit_blocked || self.st.rxq[q].pump_timer.is_some();
            let stalled = pending && !progressed && !excused;
            match self.st.rxq[q].state {
                QueueState::Healthy => {
                    if stalled {
                        self.st.rxq[q].stall_ticks += 1;
                        if self.st.rxq[q].stall_ticks >= SUSPECT_TICKS {
                            self.st.rxq[q].state = QueueState::Suspect;
                            self.st.failover.suspects += 1;
                            self.st
                                .trace_event(now, None, TraceKind::QueueSuspect, q as u64);
                        }
                    } else {
                        self.st.rxq[q].stall_ticks = 0;
                    }
                }
                QueueState::Suspect => {
                    if stalled {
                        self.st.rxq[q].stall_ticks += 1;
                        if self.st.rxq[q].stall_ticks >= FAIL_TICKS {
                            self.fail_queue(now, q, queue);
                        }
                    } else {
                        self.st.rxq[q].state = QueueState::Healthy;
                        self.st.rxq[q].stall_ticks = 0;
                        self.st.failover.false_alarms += 1;
                    }
                }
                QueueState::Failed => {
                    self.st.rxq[q].state = QueueState::Draining;
                    self.st
                        .trace_event(now, None, TraceKind::QueueDrained, q as u64);
                }
                QueueState::Draining => {
                    self.st.rxq[q].drain_ticks += 1;
                    if self.st.rxq[q].drain_ticks >= DRAIN_TICKS {
                        self.st.rxq[q].state = QueueState::Recovering;
                        self.st.rxq[q].probe_ticks = 0;
                        self.st.rxq[q].stall_ticks = 0;
                        self.recompute_remap();
                        self.st
                            .trace_event(now, None, TraceKind::QueueRecovering, q as u64);
                        self.policy
                            .on_queue_recovered(&mut self.st, now, QueueId(q));
                    }
                }
                QueueState::Recovering => {
                    if stalled {
                        // Re-detection: straight back under suspicion.
                        self.st.rxq[q].state = QueueState::Suspect;
                        self.st.rxq[q].stall_ticks = SUSPECT_TICKS;
                        self.st.failover.suspects += 1;
                        self.st
                            .trace_event(now, None, TraceKind::QueueSuspect, q as u64);
                    } else if progressed {
                        self.st.rxq[q].state = QueueState::Healthy;
                        self.st.failover.recoveries += 1;
                        self.st
                            .trace_event(now, None, TraceKind::QueueRecovered, q as u64);
                    } else if !pending {
                        self.st.rxq[q].probe_ticks += 1;
                        if self.st.rxq[q].probe_ticks >= PROBE_TICKS {
                            self.st.rxq[q].state = QueueState::Healthy;
                            self.st.failover.recoveries += 1;
                            self.st
                                .trace_event(now, None, TraceKind::QueueRecovered, q as u64);
                        }
                    }
                }
            }
        }

        // Phase 3 — wake-ups: expired wedges and migrated packets do not
        // self-schedule, so the tick re-pumps everything pumpable.
        self.pump_all(queue, now);
        queue.schedule_in(WATCHDOG_INTERVAL, Event::Watchdog);
    }
}

impl<P: IoPolicy> Machine<P> {
    /// Arm deterministic fault injection across every substrate component
    /// and the policy. Each component receives an independent injector
    /// stream forked from the plan's seed (tag-hashed), so adding a fault
    /// site to one component never perturbs another's schedule.
    pub fn arm_chaos(&mut self, plan: &FaultPlan) {
        self.st.dma.arm_chaos(plan.injector("dma"));
        self.st.onboard.arm_chaos(plan.injector("onboard"));
        self.st.nic_arm.arm_chaos(plan.injector("arm"));
        let queue_injectors = (0..self.st.rxq.len())
            .map(|q| plan.injector(&format!("rxq{q}")))
            .collect();
        self.st.chaos = Some(Box::new(HostChaos {
            injector: plan.injector("host"),
            queue_injectors,
            link_injector: plan.injector("link"),
        }));
        self.policy.arm_chaos(&mut self.st, plan);
    }

    /// Total faults injected across all armed component streams (the
    /// policy reports its own through [`IoPolicy::fill_metrics`]).
    pub fn injected_faults(&self) -> u64 {
        let mut total = 0;
        if let Some(s) = self.st.dma.chaos_stats() {
            total += s.total();
        }
        if let Some(s) = self.st.onboard.chaos_stats() {
            total += s.total();
        }
        if let Some(s) = self.st.nic_arm.chaos_stats() {
            total += s.total();
        }
        if let Some(ch) = self.st.chaos.as_ref() {
            total += ch.injector.stats().total();
            total += ch.link_injector.stats().total();
            for inj in &ch.queue_injectors {
                total += inj.stats().total();
            }
        }
        total
    }
}

/// Arm deterministic fault injection on a built simulation: install the
/// per-component injector streams (see [`Machine::arm_chaos`]) and — iff
/// the plan carries a queue-level fault site — schedule the queue-health
/// watchdog that drives detection and failover. Plans without queue sites
/// never schedule a watchdog tick, so their event schedules are untouched.
pub fn arm_chaos<P: IoPolicy>(sim: &mut Simulation<Machine<P>>, plan: &FaultPlan) {
    sim.model.arm_chaos(plan);
    if plan.rate(FaultSite::QueueStall) > 0.0
        || plan.rate(FaultSite::QueueDeath) > 0.0
        || plan.rate(FaultSite::LinkFlap) > 0.0
    {
        sim.queue
            .schedule_at(Time::ZERO + WATCHDOG_INTERVAL, Event::Watchdog);
    }
}
