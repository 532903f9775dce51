//! The CEIO flow controller and elastic buffer manager, as an `IoPolicy`.
//!
//! Responsibilities, mapped to the paper:
//!
//! * **Steering** (§4.1, Fig. 6): on connection establishment a rule is
//!   offloaded to the RMT engine pointing at the fast path. Each arriving
//!   packet consumes a credit; when a flow's credits exhaust (or its host
//!   ring has no descriptors) the rule is rewritten to divert packets into
//!   on-NIC memory. Rule rewrites are charged to the ARM core.
//! * **Phase exclusivity** (§4.2): while any slow-path packet exists for a
//!   flow (parked or in fetch flight), *all* of its arrivals go to the slow
//!   path, so fast-path packets can never overtake earlier slow-path ones.
//!   The fast path resumes automatically once the drain finishes — the
//!   "pause, drain, re-enable" loop of §4.1 Q2.
//! * **Lazy credit release** (§4.1): credits return only in
//!   `on_batch_consumed` — the driver's head-pointer advance after a batch
//!   of messages. Polled RPC flows release continuously; huge-message
//!   bypass flows hold credits until their write-with-immediate analogue,
//!   which is precisely what degrades them to the slow path first.
//! * **Controller loop** (§4.1 Q2/Q3): the ARM cores poll steering
//!   counters, detect slow-path overload (production > consumption) and
//!   trigger the CCA, reclaim credits from inactive flows, re-grant them to
//!   active ones (Algorithm 1's pool), and round-robin re-activate inactive
//!   flows as the fairness backstop.

use crate::config::CeioConfig;
use crate::sharded::ShardedCredits;
use ceio_chaos::{FaultInjector, FaultSite};
use ceio_host::{DrainRequest, HostState, IoPolicy, SteerDecision};
use ceio_net::{FlowId, FlowMap, Packet};
use ceio_nic::{QueueId, SteerAction};
use ceio_sim::Time;
use ceio_telemetry::{merge_events, SnapshotBuilder, TraceEvent, TraceKind, TraceRing};

/// Per-flow controller bookkeeping.
#[derive(Debug, Clone)]
struct FlowCtl {
    /// Consumption count at the previous controller poll.
    consumed_at_last_poll: u64,
    /// Arrival count (NIC sequence) at the previous controller poll.
    arrivals_at_last_poll: u64,
    /// Slow-queue length at the previous controller poll.
    slow_len_at_last_poll: usize,
    /// Last instant the flow showed activity (arrival or consumption).
    last_activity: Time,
    /// Last instant a packet of this flow arrived at the NIC. Grants and
    /// reclaims key on arrivals: a flow draining residual backlog after
    /// its sender went quiet must not keep attracting credits.
    last_arrival: Time,
    /// Whether the controller has reclaimed this flow's credits.
    inactive: bool,
    /// Whether the controller classifies this flow as CPU-bypass-like
    /// (huge observed messages): its returning credits are reallocated to
    /// small-message flows instead (§4.1 Q3, the Table 4 mechanism).
    deprioritized: bool,
    /// Fast-path credits consumed but not yet driver-visible: the driver
    /// only observes completions at message boundaries (the RDMA
    /// write-with-immediate), so releases accumulate here until one passes
    /// (§4.1 lazy credit release).
    pending_release: u64,
}

/// CEIO statistics beyond the credit manager's.
#[derive(Debug, Default, Clone)]
pub struct CeioStats {
    /// Steering-rule rewrites (fast↔slow transitions).
    pub rule_rewrites: u64,
    /// CCA triggers due to slow-path overload.
    pub cca_triggers: u64,
    /// Inactive-flow reclaim events.
    pub reclaims: u64,
    /// Flows classified as bypass-like (credit reallocation events).
    pub deprioritized_marks: u64,
    /// Round-robin re-activations.
    pub rr_reactivations: u64,
    /// Entries into degraded (drop-fallback) mode.
    pub degraded_entries: u64,
    /// Exits from degraded mode (hysteretic recovery).
    pub degraded_exits: u64,
    /// Credits quiet queue partitions returned to the global pool.
    pub rebalance_returned: u64,
    /// Credits pressured queue partitions borrowed from the global pool.
    pub rebalance_borrowed: u64,
    /// Credits swept from failed queues' partitions into the global pool.
    pub quarantined_credits: u64,
    /// Credits refilled into recovered queues' partitions from the pool.
    pub restored_credits: u64,
}

/// Controller operating mode (graceful degradation, ROADMAP item: the
/// elastic store can become unusable — injected exhaustion or a genuinely
/// full device — and CEIO must fail *back to* legacy DDIO drop behaviour
/// rather than parking packets into a full store).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Normal operation: elastic buffering absorbs credit exhaustion.
    Normal,
    /// Drop-fallback: slow path unusable, behave like the legacy datapath.
    Degraded,
}

/// A lazy release parked in flight by an injected delay fault.
#[derive(Debug, Clone)]
struct DelayedRelease {
    at: Time,
    flow: FlowId,
    credits: u64,
    to_pool: bool,
}

/// Policy-side chaos state: the injector stream plus releases currently
/// delayed on the (simulated) NIC-host control path.
#[derive(Debug)]
struct PolicyChaos {
    injector: FaultInjector,
    delayed: Vec<DelayedRelease>,
}

/// The CEIO policy.
pub struct CeioPolicy {
    cfg: CeioConfig,
    /// The hierarchical credit ledger: one Eq. 1 partition per receive
    /// queue plus a global slack pool (public for experiment
    /// introspection). At `num_queues == 1` it degenerates to the flat
    /// single-queue manager.
    pub credits: ShardedCredits,
    /// Per-flow controller state, iterated in ascending flow id so every
    /// sweep of the control loop visits flows in the same (deterministic)
    /// order.
    ctl: FlowMap<FlowCtl>,
    rr_order: Vec<FlowId>,
    rr_cursor: usize,
    next_rr: Time,
    /// Scratch lists of the controller poll (flows swept, flows still
    /// active, flows to mark, flows to reclaim), reused so a poll does not
    /// allocate.
    poll_ids: Vec<FlowId>,
    poll_active: Vec<FlowId>,
    poll_mark: Vec<FlowId>,
    poll_reclaim: Vec<FlowId>,
    stats: CeioStats,
    mode: Mode,
    calm_polls: u32,
    rejections_at_last_poll: u64,
    chaos: Option<Box<PolicyChaos>>,
    /// Controller-level trace recorder (rule rewrites, phase
    /// transitions, lazy releases); `None` until armed.
    tracer: Option<TraceRing>,
}

impl CeioPolicy {
    /// A CEIO controller with the given configuration.
    ///
    /// Slow-path drain completions retire *uncached* (host machine policy:
    /// cold-path data goes straight to DRAM), so the full Eq. 1 credit
    /// total is available to the fast path and draining can never flush
    /// fast-path LLC residents (§4.1 Q2).
    pub fn new(cfg: CeioConfig) -> CeioPolicy {
        CeioPolicy {
            credits: ShardedCredits::new(cfg.credit_total, cfg.num_queues.max(1)),
            ctl: FlowMap::new(),
            rr_order: Vec::new(),
            rr_cursor: 0,
            next_rr: Time::ZERO + cfg.rr_reactivate_interval,
            poll_ids: Vec::new(),
            poll_active: Vec::new(),
            poll_mark: Vec::new(),
            poll_reclaim: Vec::new(),
            cfg,
            stats: CeioStats::default(),
            mode: Mode::Normal,
            calm_polls: 0,
            rejections_at_last_poll: 0,
            chaos: None,
            tracer: None,
        }
    }

    /// Whether the controller is in degraded (drop-fallback) mode.
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.mode == Mode::Degraded
    }

    /// Per-site injection counters of the policy's chaos stream (`None`
    /// until [`IoPolicy::arm_chaos`] arms it).
    #[must_use]
    pub fn chaos_stats(&self) -> Option<&ceio_chaos::ChaosStats> {
        self.chaos.as_ref().map(|ch| ch.injector.stats())
    }

    /// Controller statistics.
    pub fn stats(&self) -> &CeioStats {
        &self.stats
    }

    /// The configuration in force.
    pub fn config(&self) -> &CeioConfig {
        &self.cfg
    }

    /// Rewrite a flow's steering rule if it differs, charging the ARM core.
    /// An armed chaos plan may inject an RMT install delay: the table
    /// update takes extra ARM time (modelling a slow firmware path), which
    /// delays this and every later control-plane operation.
    fn sync_rule(&mut self, st: &mut HostState, now: Time, flow: FlowId, want: SteerAction) {
        if let Some(prev) = st.rmt.set_action(&flow, want) {
            st.nic_arm.execute(now, st.cfg.nic.arm_table_update);
            if let Some(ch) = self.chaos.as_mut() {
                if ch.injector.fire(FaultSite::RmtInstallDelay) {
                    let extra = ch.injector.plan().rmt_delay;
                    st.nic_arm.execute(now, extra);
                    if let Some(r) = self.tracer.as_mut() {
                        r.push(TraceEvent {
                            at: now,
                            flow: Some(flow.0),
                            kind: TraceKind::RmtDelay,
                            value: extra.as_nanos(),
                        });
                    }
                }
            }
            self.stats.rule_rewrites += 1;
            self.trace_rewrite(now, flow, prev, want);
        }
    }

    /// Enter degraded mode (idempotent).
    fn enter_degraded(&mut self, now: Time) {
        if self.mode == Mode::Degraded {
            return;
        }
        self.mode = Mode::Degraded;
        self.calm_polls = 0;
        self.stats.degraded_entries += 1;
        if let Some(r) = self.tracer.as_mut() {
            r.push(TraceEvent {
                at: now,
                flow: None,
                kind: TraceKind::DegradedEnter,
                value: 0,
            });
        }
    }

    /// Leave degraded mode (idempotent).
    fn exit_degraded(&mut self, now: Time) {
        if self.mode == Mode::Normal {
            return;
        }
        self.mode = Mode::Normal;
        self.calm_polls = 0;
        self.stats.degraded_exits += 1;
        if let Some(r) = self.tracer.as_mut() {
            r.push(TraceEvent {
                at: now,
                flow: None,
                kind: TraceKind::DegradedExit,
                value: 0,
            });
        }
    }

    /// Degraded-mode entry check: the elastic store is (nearly) full, or it
    /// rejected a write since the last check. `rejections_at_last_poll` is
    /// advanced only by the controller poll, so per-packet checks between
    /// polls all see the same baseline — cheap and deterministic.
    fn check_store_pressure(&mut self, st: &HostState, now: Time) {
        if self.mode == Mode::Degraded {
            return;
        }
        let cap = st.onboard.capacity().max(1);
        let frac = st.onboard.occupancy() as f64 / cap as f64;
        let rejected = st.onboard.stats().capacity_rejections > self.rejections_at_last_poll;
        if frac >= self.cfg.degraded_enter_fraction || rejected {
            self.enter_degraded(now);
        }
    }

    /// Deliver one lazy credit release, subject to chaos: the release may
    /// be lost on the NIC-host control path (the manager never hears of it;
    /// the lease watchdog reclaims the grants at TTL expiry) or delayed
    /// (parked until a later controller poll re-delivers it — by which time
    /// the leases may already have been reclaimed, in which case the stale
    /// release is dropped rather than double-credited).
    fn deliver_release(&mut self, now: Time, flow: FlowId, credits: u64, to_pool: bool) {
        if let Some(ch) = self.chaos.as_mut() {
            if ch.injector.fire(FaultSite::CreditReleaseLoss) {
                if let Some(r) = self.tracer.as_mut() {
                    r.push(TraceEvent {
                        at: now,
                        flow: Some(flow.0),
                        kind: TraceKind::CreditReleaseLost,
                        value: credits,
                    });
                }
                return;
            }
            if ch.injector.fire(FaultSite::CreditReleaseDelay) {
                let at = now + ch.injector.plan().release_delay;
                ch.delayed.push(DelayedRelease {
                    at,
                    flow,
                    credits,
                    to_pool,
                });
                if let Some(r) = self.tracer.as_mut() {
                    r.push(TraceEvent {
                        at: now,
                        flow: Some(flow.0),
                        kind: TraceKind::CreditReleaseDelayed,
                        value: credits,
                    });
                }
                return;
            }
        }
        if to_pool {
            self.credits.release_to_pool(flow, credits);
        } else {
            self.credits.release(flow, credits);
        }
    }

    /// Re-deliver delayed releases whose injected delay has elapsed.
    fn deliver_matured_releases(&mut self, now: Time) {
        let Some(ch) = self.chaos.as_mut() else {
            return;
        };
        if ch.delayed.is_empty() {
            return;
        }
        let mut due: Vec<DelayedRelease> = Vec::new();
        let mut i = 0;
        while i < ch.delayed.len() {
            if ch.delayed[i].at <= now {
                due.push(ch.delayed.swap_remove(i));
            } else {
                i += 1;
            }
        }
        for d in due {
            if d.to_pool {
                self.credits.release_to_pool(d.flow, d.credits);
            } else {
                self.credits.release(d.flow, d.credits);
            }
        }
    }

    /// Rewrite every fast-path steering rule whose queue no longer matches
    /// the machine's failover remap. Sweeps `ctl` in ascending flow-id
    /// order (the `FlowMap` iteration order), so the re-steer sequence —
    /// and with it the ARM-core charge timeline and RMT rewrite
    /// accounting — is fully deterministic for a given failure. Slow-path rules are untouched:
    /// their queue binding re-resolves when the fast path resumes.
    fn resteer_to_remap(&mut self, st: &mut HostState, now: Time) {
        let flows: Vec<FlowId> = self.ctl.keys().collect();
        for flow in flows {
            let desired = QueueId(st.queue_of(flow));
            if let Some(SteerAction::FastPath { queue }) = st.rmt.action(&flow) {
                if queue != desired {
                    self.sync_rule(st, now, flow, SteerAction::FastPath { queue: desired });
                    st.failover.flows_resteered += 1;
                    if let Some(r) = self.tracer.as_mut() {
                        r.push(TraceEvent {
                            at: now,
                            flow: Some(flow.0),
                            kind: TraceKind::FlowResteer,
                            value: desired.index() as u64,
                        });
                    }
                }
            }
        }
    }

    /// Record a rule rewrite — and, because the RMT rule *is* the phase
    /// under phase exclusivity, the matching slow-phase span edge.
    fn trace_rewrite(&mut self, now: Time, flow: FlowId, prev: SteerAction, want: SteerAction) {
        let Some(r) = self.tracer.as_mut() else {
            return;
        };
        let ev = |kind: TraceKind, value: u64| TraceEvent {
            at: now,
            flow: Some(flow.0),
            kind,
            value,
        };
        match want {
            SteerAction::SlowPath => {
                r.push(ev(TraceKind::RuleRewriteSlow, 0));
                if matches!(prev, SteerAction::FastPath { .. }) {
                    r.push(ev(TraceKind::PhaseSlowEnter, 0));
                }
            }
            SteerAction::FastPath { queue } => {
                r.push(ev(TraceKind::RuleRewriteFast, queue.index() as u64));
                if matches!(prev, SteerAction::SlowPath) {
                    r.push(ev(TraceKind::PhaseSlowExit, 0));
                }
            }
            SteerAction::Drop => {}
        }
    }
}

impl IoPolicy for CeioPolicy {
    fn name(&self) -> &'static str {
        "CEIO"
    }

    fn on_flow_start(&mut self, st: &mut HostState, now: Time, flow: FlowId) {
        // Connection establishment: offload the steering rule (fast path,
        // RSS-sharded onto a receive queue, through the failover remap)
        // and run Algorithm 1's assignment in that queue's credit
        // partition (the flow's RSS *home*, stable across failovers).
        let queue = QueueId(st.queue_of(flow));
        st.rmt.install(flow, SteerAction::FastPath { queue });
        st.nic_arm.execute(now, st.cfg.nic.arm_table_update);
        self.credits.add_flows(&[flow]);
        self.ctl.insert(
            flow,
            FlowCtl {
                consumed_at_last_poll: 0,
                arrivals_at_last_poll: 0,
                slow_len_at_last_poll: 0,
                last_activity: now,
                last_arrival: now,
                inactive: false,
                deprioritized: false,
                pending_release: 0,
            },
        );
        self.rr_order.push(flow);
    }

    fn on_flow_stop(&mut self, st: &mut HostState, now: Time, flow: FlowId) {
        self.credits.set_trace_now(now);
        st.rmt.remove(&flow);
        st.nic_arm.execute(now, st.cfg.nic.arm_table_update);
        // Assigned credits return to the pool; credits held by still
        // in-flight packets come back through `release` as they drain, and
        // any accumulated-but-unreleased completions flush now.
        if let Some(c) = self.ctl.get(&flow) {
            if c.pending_release > 0 {
                self.credits.release_to_pool(flow, c.pending_release);
            }
        }
        self.credits.remove_flow(flow);
        self.ctl.remove(&flow);
        self.rr_order.retain(|f| *f != flow);
        if self.rr_cursor >= self.rr_order.len() {
            self.rr_cursor = 0;
        }
    }

    fn steer(&mut self, st: &mut HostState, now: Time, pkt: &Packet) -> SteerDecision {
        self.credits.set_trace_now(now);
        self.credits.set_now(now);
        let flow = pkt.flow;
        // Count the hit on the RMT rule (the hardware datapath).
        st.rmt.steer(&flow);
        if let Some(c) = self.ctl.get_mut(&flow) {
            c.last_activity = now;
            c.last_arrival = now;
        }
        let (parked, slow_len, ring_free) = match st.flows.get(&flow) {
            Some(f) => (
                f.ring.parked_len() + f.ring.fetching() as usize,
                f.ring.parked_len(),
                f.ring.free(),
            ),
            None => return SteerDecision::Drop { loss: false },
        };
        // The RSS shard this flow's fast path lands on, through the
        // failover remap. Identity (and thus stable per flow) while every
        // queue is usable, so fault-free rule-rewrite counts are unchanged.
        let queue = QueueId(st.queue_of(flow));
        // Production outrunning slow-path consumption: echo congestion to
        // the sender's CCA, per packet, like a shallow-queue ECN marker
        // (§4.1 Q2). Without this the elastic buffer would just absorb an
        // unbounded standing queue.
        let mark = slow_len > self.cfg.slow_overload_threshold;
        // Graceful degradation: when the elastic store is (about to be)
        // unusable, parking would either fail outright or stand up an
        // undrainable queue. Fall back to the legacy drop-based DDIO
        // datapath — fast path while credits and descriptors last, loss
        // otherwise — until the controller's hysteresis re-enables the
        // slow path. Flows with parked slow-path packets keep their fast
        // path paused (phase exclusivity still holds), so their arrivals
        // drop rather than overtake the parked backlog.
        self.check_store_pressure(st, now);
        if self.mode == Mode::Degraded {
            if parked > 0 && self.cfg.phase_exclusivity {
                return SteerDecision::Drop { loss: true };
            }
            if ring_free > 0 && self.credits.try_consume(flow) {
                self.sync_rule(st, now, flow, SteerAction::FastPath { queue });
                return SteerDecision::FastPath { mark };
            }
            self.sync_rule(st, now, flow, SteerAction::Drop);
            return SteerDecision::Drop { loss: true };
        }
        // Phase exclusivity: the fast path stays paused while slow-path
        // packets exist, preserving order across the transition (§4.2).
        // The re-enable fires once the parked backlog is nearly drained
        // (under half a drain batch): a strict reach-zero exit is
        // unreachable under continuous arrivals (a new packet always lands
        // within the last fetch's round trip), and the sequence-ordered
        // delivery buffer bridges the few-packet overlap at no reordering
        // cost — that is precisely the SW ring's job.
        let exit_threshold = (self.cfg.drain_batch as usize / 2).max(1);
        if parked > exit_threshold && self.cfg.phase_exclusivity {
            self.sync_rule(st, now, flow, SteerAction::SlowPath);
            return SteerDecision::SlowPath { mark };
        }
        if ring_free > 0 && self.credits.try_consume(flow) {
            self.sync_rule(st, now, flow, SteerAction::FastPath { queue });
            // Proactive rate control (Table 1): echo congestion while the
            // flow's credits run low, so the sender converges to the
            // consumption rate *before* exhaustion degrades it. The
            // watermark adapts to the fair share so regulation engages
            // early enough at any flow count.
            let share = self.credits.total() / (self.ctl.len() as u64).max(1);
            let watermark = self.cfg.credit_low_watermark.max(share / 16);
            let low = self.credits.credits(flow) < watermark;
            SteerDecision::FastPath { mark: low }
        } else {
            // Credits exhausted (or no RX descriptor): elastic buffering
            // instead of a drop — no spurious CCA trigger (Table 1).
            self.sync_rule(st, now, flow, SteerAction::SlowPath);
            SteerDecision::SlowPath { mark }
        }
    }

    fn on_fast_drop(&mut self, _st: &mut HostState, _now: Time, flow: FlowId) {
        self.credits.set_trace_now(_now);
        // The dropped packet's credit must not leak.
        self.credits.release(flow, 1);
    }

    fn on_batch_consumed(
        &mut self,
        st: &mut HostState,
        now: Time,
        flow: FlowId,
        fast_pkts: u32,
        slow_pkts: u32,
        msgs: u32,
    ) {
        let _ = slow_pkts;
        self.credits.set_trace_now(now);
        // Lazy release (§4.1): credits return only when the driver sees a
        // completion — and for RDMA-style flows that is the
        // write-with-immediate at a *message* boundary. Consumed credits
        // accumulate until a message tail passes through the batch, which
        // is continuous for single-packet RPC messages and rare-and-bulky
        // for huge transfers — exactly the asymmetry that degrades
        // CPU-bypass flows to the slow path first. Credits of
        // deprioritized flows are diverted to the pool (§4.1 Q3).
        let pending = {
            let Some(c) = self.ctl.get_mut(&flow) else {
                // Torn-down flow: return credits straight to the pool.
                self.credits.release_to_pool(flow, fast_pkts as u64);
                return;
            };
            c.pending_release += fast_pkts as u64;
            if msgs == 0 {
                return;
            }
            std::mem::take(&mut c.pending_release)
        };
        if pending > 0 {
            let divert = self.cfg.reallocate
                && self
                    .ctl
                    .get(&flow)
                    .map(|c| c.deprioritized)
                    .unwrap_or(false);
            self.deliver_release(now, flow, pending, divert);
            st.nic_arm.execute(now, st.cfg.nic.arm_credit_op);
            if let Some(r) = self.tracer.as_mut() {
                r.push(TraceEvent {
                    at: now,
                    flow: Some(flow.0),
                    kind: TraceKind::CreditLazyRelease,
                    value: pending,
                });
            }
        }
        if let Some(c) = self.ctl.get_mut(&flow) {
            c.last_activity = now;
        }
    }

    fn on_driver_poll(&mut self, st: &mut HostState, now: Time, flow: FlowId) -> DrainRequest {
        let Some(f) = st.flows.get(&flow) else {
            return DrainRequest::NONE;
        };
        // Blocking recv() keeps a single DMA read outstanding; async_recv
        // pipelines up to one drain batch so drained-but-unconsumed data
        // stays within the credit reserve.
        if !self.cfg.async_fetch && f.ring.fetching() > 0 {
            return DrainRequest::NONE;
        }
        // Bound the fetch pipeline at two drain batches in flight per flow
        // (enough to cover the PCIe read round trip at line rate).
        if f.ring.fetching() >= 2 * self.cfg.drain_batch {
            return DrainRequest::NONE;
        }
        if f.ring.slow_drainable(now) {
            DrainRequest {
                fetch: self.cfg.drain_batch,
                sync: !self.cfg.async_fetch,
            }
        } else {
            DrainRequest::NONE
        }
    }

    fn on_slow_arrived(&mut self, _st: &mut HostState, now: Time, flow: FlowId, _pkts: u32) {
        if let Some(c) = self.ctl.get_mut(&flow) {
            c.last_activity = now;
        }
    }

    fn on_controller_poll(&mut self, st: &mut HostState, now: Time) {
        self.credits.set_trace_now(now);
        self.credits.set_now(now);
        // Recovery bookkeeping before the control loop proper: releases
        // whose injected delay elapsed arrive now, then the lease watchdog
        // reclaims any grant whose release never arrived at all.
        self.deliver_matured_releases(now);
        // Reclaim count is already folded into `CreditStats::lease_reclaims`.
        let _ = self.credits.expire_leases();
        let mut ids = std::mem::take(&mut self.poll_ids);
        ids.clear();
        ids.extend(self.ctl.keys());
        let mut active = std::mem::take(&mut self.poll_active);
        active.clear();
        let mut to_mark = std::mem::take(&mut self.poll_mark);
        to_mark.clear();
        let mut to_reclaim = std::mem::take(&mut self.poll_reclaim);
        to_reclaim.clear();
        for &flow in &ids {
            // Poll the steering counter (the hardware credit-consumption
            // signal the controller tracks, Fig. 6).
            let _hits = st.rmt.poll_hits(&flow);
            st.nic_arm.execute(now, st.cfg.nic.arm_credit_op);
            let Some(f) = st.flows.get(&flow) else {
                continue;
            };
            let c = self
                .ctl
                .get_mut(&flow)
                .expect("invariant: `ctl` has an entry for every flow in `st.flows`");
            let consumed = f.counters.consumed_pkts;
            let arrivals = f.ring.arrivals();
            if consumed > c.consumed_at_last_poll || arrivals > c.arrivals_at_last_poll {
                c.last_activity = now;
            }
            // Slow-path overload: production has outrun consumption — the
            // CCA trigger of §4.1 Q2.
            let slow_len = f.ring.parked_len();
            if slow_len > self.cfg.slow_overload_threshold && slow_len >= c.slow_len_at_last_poll {
                to_mark.push(flow);
            }
            // Message-size classification (§4.1 Q3, "network information
            // such as message size"): flows with huge observed messages
            // replenish credits rarely and in bulk — the CPU-bypass
            // signature. Their credits fund small-message flows instead.
            let est_msg_pkts = if let Some(per_msg) = f
                .counters
                .consumed_pkts
                .checked_div(f.counters.msgs_completed)
            {
                per_msg
            } else if f.counters.consumed_pkts > 2 * st.cfg.cpu.batch_size as u64 {
                // Many packets consumed, no message boundary yet: the
                // message is at least that large.
                f.counters.consumed_pkts
            } else {
                0 // not enough evidence
            };
            let bypass_like = est_msg_pkts > self.cfg.bypass_msg_threshold;
            if self.cfg.reallocate && bypass_like && !c.deprioritized {
                c.deprioritized = true;
                self.stats.deprioritized_marks += 1;
                to_reclaim.push(flow);
            } else if !bypass_like && c.deprioritized {
                c.deprioritized = false;
            }
            // Level-triggered inactivity on *arrivals*: as long as the
            // sender is quiet, every poll sweeps whatever credits have
            // accumulated (including late lazy releases) back to the pool.
            let arrival_idle = now.since(c.last_arrival);
            if self.cfg.reallocate {
                let quiet = arrival_idle > self.cfg.inactivity_timeout;
                if quiet && !c.inactive {
                    self.stats.reclaims += 1;
                }
                c.inactive = quiet;
                if quiet {
                    to_reclaim.push(flow);
                }
            }
            if !c.inactive && !c.deprioritized {
                active.push(flow);
            }
            c.consumed_at_last_poll = consumed;
            c.arrivals_at_last_poll = arrivals;
            c.slow_len_at_last_poll = slow_len;
        }
        for &flow in &to_mark {
            st.mark_flow(now, flow);
            self.stats.cca_triggers += 1;
        }
        if self.cfg.reallocate {
            for &flow in &to_reclaim {
                if self.credits.reclaim(flow) > 0 {
                    st.nic_arm.execute(now, st.cfg.nic.arm_credit_op);
                }
            }
            // Re-grant pooled credits to active flows (Algorithm 1's
            // reallocation of recycled credits). Priority is relative:
            // when every flow is deprioritized (e.g. a pure-DFS tenant),
            // the pool goes back to all of them evenly.
            if self.credits.free_pool() > 0 {
                // Ascending either way: both come from `ctl`'s id order.
                if active.is_empty() {
                    active.extend(self.ctl.keys());
                }
                self.credits.grant_evenly(&active);
            }
            // Round-robin re-activation backstop (§4.1 Q3 fairness).
            while now >= self.next_rr {
                self.next_rr += self.cfg.rr_reactivate_interval;
                if self.rr_order.is_empty() {
                    continue;
                }
                self.rr_cursor %= self.rr_order.len();
                let flow = self.rr_order[self.rr_cursor];
                self.rr_cursor = (self.rr_cursor + 1) % self.rr_order.len();
                if let Some(c) = self.ctl.get_mut(&flow) {
                    // Re-activate flows parked off the fast path — whether
                    // idle (credits reclaimed) or deprioritized — so every
                    // flow periodically regains fast-path access (§4.1 Q3
                    // fairness). Deprioritized flows keep their probe grant
                    // but stay classified (huge messages re-exhaust it).
                    if c.inactive || c.deprioritized {
                        c.inactive = false;
                        c.last_activity = now;
                        // A probe-sized grant: a genuinely fast-path flow
                        // keeps recycling it (lazy release), while a
                        // CPU-bypass flow exhausts it within one message
                        // and returns to the slow path.
                        let share = self.credits.total() / (self.ctl.len() as u64).max(1) / 4;
                        let _granted = self.credits.grant(flow, share.max(1));
                        self.stats.rr_reactivations += 1;
                        st.nic_arm.execute(now, st.cfg.nic.arm_credit_op);
                    }
                }
            }
        }
        // Hierarchical ledger rebalance (multi-queue only): quiet queue
        // partitions yield free slack above their base share to the global
        // pool; partitions that denied admissions since the last poll
        // borrow it back, bounded by demand and a 2x-base cap. Guarded so
        // the single-queue pipeline stays bit-identical to the flat ledger.
        if self.cfg.num_queues > 1 {
            let (returned, borrowed) = self.credits.rebalance();
            if returned + borrowed > 0 {
                self.stats.rebalance_returned += returned;
                self.stats.rebalance_borrowed += borrowed;
                st.nic_arm.execute(now, st.cfg.nic.arm_credit_op);
            }
        }
        // Degraded-mode hysteresis: entry is immediate (per-packet pressure
        // checks and the poll below), exit requires several consecutive
        // calm polls — store drained below the exit fraction and no new
        // rejections — so the mode cannot flap at the boundary.
        let rejections = st.onboard.stats().capacity_rejections;
        if self.mode == Mode::Degraded {
            let cap = st.onboard.capacity().max(1);
            let frac = st.onboard.occupancy() as f64 / cap as f64;
            let calm = frac <= self.cfg.degraded_exit_fraction
                && rejections == self.rejections_at_last_poll;
            if calm {
                self.calm_polls += 1;
                if self.calm_polls >= self.cfg.degraded_exit_polls {
                    self.exit_degraded(now);
                }
            } else {
                self.calm_polls = 0;
            }
        } else {
            self.check_store_pressure(st, now);
        }
        self.rejections_at_last_poll = rejections;
        self.poll_ids = ids;
        self.poll_active = active;
        self.poll_mark = to_mark;
        self.poll_reclaim = to_reclaim;
        debug_assert!(self.credits.conserved(), "credit conservation violated");
    }

    fn controller_interval(&self) -> Option<ceio_sim::Duration> {
        Some(self.cfg.controller_interval)
    }

    /// Queue failover (DESIGN.md §13): sweep the dead queue's free credits
    /// into the global pool — nothing new can be granted against a
    /// partition that cannot drain — and rewrite every displaced flow's
    /// RMT rule onto its takeover queue. Credits already outstanding on
    /// in-flight packets return through the normal lazy-release path.
    fn on_queue_failed(&mut self, st: &mut HostState, now: Time, queue: QueueId) {
        self.credits.set_trace_now(now);
        let moved = self.credits.quarantine_partition(queue.index());
        self.stats.quarantined_credits += moved;
        if moved > 0 {
            st.nic_arm.execute(now, st.cfg.nic.arm_credit_op);
        }
        self.resteer_to_remap(st, now);
        debug_assert!(self.credits.conserved(), "credit conservation violated");
    }

    /// Queue recovery: refill the partition back toward its base share
    /// from the global pool and steer its flows home.
    fn on_queue_recovered(&mut self, st: &mut HostState, now: Time, queue: QueueId) {
        self.credits.set_trace_now(now);
        let returned = self.credits.restore_partition(queue.index());
        self.stats.restored_credits += returned;
        if returned > 0 {
            st.nic_arm.execute(now, st.cfg.nic.arm_credit_op);
        }
        self.resteer_to_remap(st, now);
        debug_assert!(self.credits.conserved(), "credit conservation violated");
    }

    /// Arm the policy's chaos stream and — when the plan carries a lease
    /// TTL — the credit-lease watchdog that recovers lost releases.
    fn arm_chaos(&mut self, st: &mut HostState, plan: &ceio_chaos::FaultPlan) {
        let _ = st;
        if let Some(ttl) = plan.lease_ttl {
            self.credits.enable_leases(ttl);
        }
        self.chaos = Some(Box::new(PolicyChaos {
            injector: plan.injector("policy"),
            delayed: Vec::new(),
        }));
    }

    fn fill_metrics(&self, out: &mut SnapshotBuilder) {
        out.counter(
            "ceio_ctl_rule_rewrites_total",
            "Steering-rule rewrites performed by the controller.",
            self.stats.rule_rewrites,
        );
        out.counter(
            "ceio_ctl_cca_triggers_total",
            "CCA triggers due to slow-path overload.",
            self.stats.cca_triggers,
        );
        out.counter(
            "ceio_ctl_reclaims_total",
            "Inactive-flow credit reclaim events.",
            self.stats.reclaims,
        );
        out.counter(
            "ceio_ctl_deprioritized_marks_total",
            "Flows classified as bypass-like by the controller.",
            self.stats.deprioritized_marks,
        );
        out.counter(
            "ceio_ctl_rr_reactivations_total",
            "Round-robin fairness re-activations.",
            self.stats.rr_reactivations,
        );
        let cm = &self.credits;
        let cs = cm.stats();
        out.counter(
            "ceio_credit_consumed_total",
            "Successful credit consumptions (fast-path admissions).",
            cs.consumed,
        );
        out.counter(
            "ceio_credit_denied_total",
            "Denied credit consumptions (slow-path degradations).",
            cs.denied,
        );
        out.counter(
            "ceio_credit_debts_repaid_total",
            "Credits repaid through the owed ledger.",
            cs.debts_repaid,
        );
        out.counter(
            "ceio_credit_reclaims_total",
            "Credit reclaim operations.",
            cs.reclaims,
        );
        out.gauge(
            "ceio_credit_total",
            "Configured credit total (Eq. 1 budget).",
            cm.total() as f64,
        );
        out.gauge(
            "ceio_credit_free_pool",
            "Credits currently in the free pool.",
            cm.free_pool() as f64,
        );
        out.gauge(
            "ceio_credit_outstanding",
            "Credits held by in-flight packets.",
            cm.outstanding() as f64,
        );
        out.gauge(
            "ceio_credit_assigned",
            "Credits currently assigned to flows.",
            cm.assigned_total() as f64,
        );
        out.counter(
            "ceio_credit_lease_reclaims_total",
            "Credits reclaimed by the lease watchdog (lost releases).",
            cs.lease_reclaims,
        );
        out.counter(
            "ceio_credit_stale_releases_total",
            "Late releases dropped because their leases were reclaimed.",
            cs.stale_releases,
        );
        out.gauge(
            "ceio_credit_live_leases",
            "Grants currently covered by a live lease (0 when disarmed).",
            cm.live_leases() as f64,
        );
        out.gauge(
            "ceio_credit_conserved",
            "1 when Eq. 1 holds (assigned + pool + outstanding == total).",
            if cm.conserved() { 1.0 } else { 0.0 },
        );
        out.counter(
            "ceio_ctl_degraded_entries_total",
            "Entries into degraded (drop-fallback) mode.",
            self.stats.degraded_entries,
        );
        out.counter(
            "ceio_ctl_degraded_exits_total",
            "Hysteretic exits from degraded mode.",
            self.stats.degraded_exits,
        );
        out.counter(
            "ceio_ctl_rebalance_returned_total",
            "Credits quiet queue partitions returned to the global pool.",
            self.stats.rebalance_returned,
        );
        out.counter(
            "ceio_ctl_rebalance_borrowed_total",
            "Credits pressured queue partitions borrowed from the global pool.",
            self.stats.rebalance_borrowed,
        );
        out.counter(
            "ceio_credit_quarantined_total",
            "Credits swept from failed queues' partitions into the global pool.",
            self.stats.quarantined_credits,
        );
        out.counter(
            "ceio_credit_restored_total",
            "Credits refilled into recovered queues' partitions from the pool.",
            self.stats.restored_credits,
        );
        out.gauge(
            "ceio_credit_queues",
            "Receive-queue count the credit ledger is sharded over.",
            cm.num_queues() as f64,
        );
        out.gauge(
            "ceio_credit_global_free",
            "Slack credits parked in the hierarchical global pool.",
            cm.global_free() as f64,
        );
        for q in 0..cm.num_queues() {
            let Some(p) = cm.partition(q) else {
                continue;
            };
            let labels = [("queue", q.to_string())];
            out.gauge_with(
                "ceio_credit_partition_total",
                "Current Eq. 1 total of one queue's credit partition.",
                &labels,
                p.total() as f64,
            );
            out.gauge_with(
                "ceio_credit_partition_free",
                "Free pool of one queue's credit partition.",
                &labels,
                p.free_pool() as f64,
            );
            out.gauge_with(
                "ceio_credit_partition_outstanding",
                "In-flight credits of one queue's credit partition.",
                &labels,
                p.outstanding() as f64,
            );
            out.counter_with(
                "ceio_credit_partition_denied_total",
                "Denied admissions in one queue's credit partition.",
                &labels,
                p.stats().denied,
            );
        }
        out.gauge(
            "ceio_degraded_mode",
            "1 while the controller is in degraded (drop-fallback) mode.",
            if self.mode == Mode::Degraded {
                1.0
            } else {
                0.0
            },
        );
        if let Some(ch) = self.chaos.as_ref() {
            out.counter(
                "ceio_chaos_policy_injected_total",
                "Faults injected from the policy's chaos stream.",
                ch.injector.stats().total(),
            );
            out.gauge(
                "ceio_chaos_delayed_releases",
                "Credit releases currently parked by an injected delay.",
                ch.delayed.len() as f64,
            );
        }
    }

    /// Declare the credit-ledger gauges CEIO contributes to an armed
    /// flight recorder: outstanding/free credits per queue partition plus
    /// the global slack pool and live-lease count.
    fn scope_register(&self, rec: &mut ceio_telemetry::FlightRecorder) {
        rec.register(
            "credit_pool_free",
            "Slack credits parked in the hierarchical global pool.",
        );
        rec.register(
            "credit_leases",
            "Grants currently covered by a live lease (0 when disarmed).",
        );
        rec.register_queue(
            "credit_outstanding",
            "In-flight credits of this queue's partition.",
            self.credits.num_queues(),
        );
        rec.register_queue(
            "credit_free",
            "Free credits of this queue's partition (pool slack).",
            self.credits.num_queues(),
        );
    }

    fn scope_sample(&self, rec: &mut ceio_telemetry::FlightRecorder, now: ceio_sim::Time) {
        rec.record("credit_pool_free", now, self.credits.global_free() as f64);
        rec.record("credit_leases", now, self.credits.live_leases() as f64);
        for q in 0..self.credits.num_queues() {
            let Some(p) = self.credits.partition(q) else {
                continue;
            };
            rec.record_queue("credit_outstanding", q, now, p.outstanding() as f64);
            rec.record_queue("credit_free", q, now, p.free_pool() as f64);
        }
    }

    fn arm_trace(&mut self, cap: usize) {
        self.tracer = Some(TraceRing::new(cap));
        self.credits.arm_trace(cap);
    }

    fn take_trace(&mut self) -> (Vec<TraceEvent>, u64) {
        let mut parts: Vec<Vec<TraceEvent>> = Vec::new();
        let mut dropped = 0u64;
        if let Some(r) = self.tracer.as_mut() {
            parts.push(r.events());
            dropped += r.dropped();
            r.clear();
        }
        let (evs, d) = self.credits.trace_take();
        parts.push(evs);
        dropped += d;
        (merge_events(parts), dropped)
    }

    /// Audit the CEIO-internal ledgers (the state only this policy can
    /// see): Eq. 1 conservation, no-overdraft, and consistency of the
    /// insufficient set `I` with the owed-credit ledger.
    fn audit_check(
        &self,
        _st: &HostState,
        ctx: &ceio_audit::AuditCtx<'_>,
        sink: &mut ceio_audit::AuditSink,
    ) {
        let cm = &self.credits;
        if !cm.conserved() {
            sink.report(
                ctx,
                "credit-conservation",
                "Eq. 1 violated: assigned + pool + outstanding != total".to_string(),
                vec![
                    ("total", cm.total().to_string()),
                    ("assigned", cm.assigned_total().to_string()),
                    ("free_pool", cm.free_pool().to_string()),
                    ("outstanding", cm.outstanding().to_string()),
                ],
            );
        }
        if cm.outstanding() > cm.total() {
            sink.report(
                ctx,
                "no-overdraft",
                "credits held by in-flight packets exceed the configured total".to_string(),
                vec![
                    ("total", cm.total().to_string()),
                    ("outstanding", cm.outstanding().to_string()),
                ],
            );
        }
        for flow in self.ctl.keys() {
            let in_i = cm.in_insufficient(flow);
            let debt = cm.debt_of(flow);
            if in_i != (debt > 0) {
                sink.report(
                    ctx,
                    "insufficient-set-consistency",
                    format!(
                        "flow {}: insufficient-set membership disagrees with the owed ledger",
                        flow.0
                    ),
                    vec![
                        ("flow", flow.0.to_string()),
                        ("in_insufficient", in_i.to_string()),
                        ("debt", debt.to_string()),
                    ],
                );
            }
        }
    }
}
