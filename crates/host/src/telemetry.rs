//! Machine-level observability: the metrics registry funnel and the
//! event-trace recorder.
//!
//! Two export surfaces, per DESIGN.md §8:
//!
//! * [`Machine::snapshot`] — always available: one [`Snapshot`] gathering
//!   every component's `*Stats` struct (ingress, RMT, on-NIC memory, ARM
//!   core, DMA, LLC/IIO/DRAM, CPU cores), the machine's own counters and
//!   latency histograms, the policy's private metrics, and — when an
//!   auditor is armed — the invariant auditor's report.
//! * Event tracing — armed at runtime by [`Machine::arm_trace`]: a
//!   per-machine [`TraceRing`] plus a per-flow [`BreakdownSet`], fed by
//!   hooks in the event handlers. Until armed, [`HostState::trace_event`]
//!   and [`HostState::trace_stage`] cost one `Option` test each: no
//!   recorder allocation, no event construction.

use crate::machine::{HostState, Machine};
use crate::policy::IoPolicy;
use ceio_sim::{Duration, Time};
use ceio_telemetry::{
    merge_events, BreakdownSet, Snapshot, SnapshotBuilder, Stage, TraceEvent, TraceKind, TraceRing,
};

/// The machine's trace recorder: one merged event ring for machine-level
/// events plus the per-flow path breakdown. Boxed inside [`HostState`] so
/// an unarmed run carries a single null pointer.
#[derive(Debug)]
pub struct HostTrace {
    /// Machine-level event ring (drops, deliveries, stage transitions).
    pub ring: TraceRing,
    /// Per-flow latency breakdown histograms.
    pub breakdown: BreakdownSet,
    /// Ring capacity, reused when arming late-joining components.
    pub cap: usize,
}

impl HostTrace {
    /// Record one machine-level trace event.
    #[inline]
    pub(crate) fn event(&mut self, at: Time, flow: Option<u32>, kind: TraceKind, value: u64) {
        self.ring.push(TraceEvent {
            at,
            flow,
            kind,
            value,
        });
    }

    /// Record one path-stage duration into the breakdown.
    #[inline]
    pub(crate) fn stage(&mut self, flow: Option<u32>, stage: Stage, d: Duration) {
        self.breakdown.record(flow, stage, d);
    }
}

impl HostState {
    /// Record one machine-level trace event (no-op until armed).
    #[inline]
    pub(crate) fn trace_event(&mut self, at: Time, flow: Option<u32>, kind: TraceKind, value: u64) {
        if let Some(tr) = self.trace.as_mut() {
            tr.event(at, flow, kind, value);
        }
    }

    /// Record one path-stage duration into the breakdown (no-op until
    /// armed).
    #[inline]
    pub(crate) fn trace_stage(&mut self, flow: Option<u32>, stage: Stage, d: Duration) {
        if let Some(tr) = self.trace.as_mut() {
            tr.stage(flow, stage, d);
        }
    }
}

impl<P: IoPolicy> Machine<P> {
    /// Take a full metrics snapshot at `now`: every component's stats,
    /// the machine counters and latency summaries, the policy's own
    /// metrics, and (when armed) the audit outcome. Always available — tracing is not required.
    pub fn snapshot(&self, now: Time) -> Snapshot {
        let st = &self.st;
        let mut b = SnapshotBuilder::new(now);

        // Ingress link (wire-side admission).
        let ig = st.ingress.stats();
        b.counter(
            "ceio_ingress_admitted_total",
            "Packets admitted by the ingress port queue.",
            ig.admitted,
        );
        b.counter(
            "ceio_ingress_dropped_total",
            "Packets dropped at the ingress port queue.",
            ig.dropped,
        );
        b.counter(
            "ceio_ingress_bytes_total",
            "Wire bytes delivered by the ingress link.",
            ig.bytes,
        );
        b.counter(
            "ceio_ingress_ecn_marked_total",
            "Packets ECN-marked at the ingress port.",
            ig.ecn_marked,
        );

        // RMT steering engine.
        let rmt = st.rmt.stats();
        b.counter(
            "ceio_rmt_matched_total",
            "RMT lookups that matched an installed rule.",
            rmt.matched,
        );
        b.counter(
            "ceio_rmt_defaulted_total",
            "RMT lookups that fell through to the default action.",
            rmt.defaulted,
        );
        b.counter(
            "ceio_rmt_updates_total",
            "RMT rule-action rewrites performed.",
            rmt.updates,
        );
        b.counter(
            "ceio_rmt_rewrites_to_slow_total",
            "Rule rewrites that left the fast path.",
            rmt.rewrites_to_slow,
        );
        b.counter(
            "ceio_rmt_rewrites_to_fast_total",
            "Rule rewrites that restored the fast path.",
            rmt.rewrites_to_fast,
        );
        b.counter(
            "ceio_rmt_rewrites_queue_move_total",
            "Fast-to-fast rewrites that moved a flow to a different RX queue.",
            rmt.rewrites_queue_move,
        );
        b.gauge(
            "ceio_rmt_rules",
            "Steering rules currently installed.",
            st.rmt.len() as f64,
        );

        // On-NIC elastic memory.
        let ob = st.onboard.stats();
        b.counter(
            "ceio_onboard_bytes_written_total",
            "Bytes written into on-NIC elastic memory.",
            ob.bytes_written,
        );
        b.counter(
            "ceio_onboard_bytes_read_total",
            "Bytes drained out of on-NIC elastic memory.",
            ob.bytes_read,
        );
        b.counter(
            "ceio_onboard_capacity_rejections_total",
            "On-NIC writes refused for lack of capacity.",
            ob.capacity_rejections,
        );
        b.gauge(
            "ceio_onboard_peak_bytes",
            "On-NIC memory occupancy high-water mark.",
            ob.peak_bytes as f64,
        );
        b.gauge(
            "ceio_onboard_occupancy_bytes",
            "Bytes currently parked in on-NIC memory.",
            st.onboard.occupancy() as f64,
        );

        // NIC ARM control core.
        let arm = st.nic_arm.stats();
        b.counter(
            "ceio_arm_ops_total",
            "Control-plane operations executed on the NIC ARM core.",
            arm.ops,
        );
        b.counter(
            "ceio_arm_busy_ns_total",
            "Busy nanoseconds of the NIC ARM core.",
            arm.busy_ns,
        );

        // PCIe DMA engine.
        let dma = st.dma.stats();
        b.counter(
            "ceio_dma_writes_total",
            "Posted DMA writes issued NIC-to-host.",
            dma.writes,
        );
        b.counter(
            "ceio_dma_reads_total",
            "Non-posted DMA reads issued host-to-NIC.",
            dma.reads,
        );
        b.counter(
            "ceio_dma_write_stalls_total",
            "DMA writes stalled for lack of posted credits.",
            dma.write_stalls,
        );
        b.counter(
            "ceio_dma_read_stalls_total",
            "DMA reads stalled for lack of non-posted credits.",
            dma.read_stalls,
        );
        b.counter(
            "ceio_dma_write_faults_total",
            "Posted DMA writes that failed or timed out (injected faults).",
            dma.write_faults,
        );
        b.counter(
            "ceio_dma_read_faults_total",
            "DMA reads that failed or timed out (injected faults).",
            dma.read_faults,
        );

        // PCIe link serialization, per direction.
        for (dir, name) in [
            (ceio_pcie::Direction::ToHost, "to_host"),
            (ceio_pcie::Direction::ToNic, "to_nic"),
        ] {
            let ls = st.dma.link.stats(dir);
            let lbl = [("dir", name.to_string())];
            b.counter_with(
                "ceio_pcie_payload_bytes_total",
                "Payload bytes serialized over the PCIe link.",
                &lbl,
                ls.payload_bytes,
            );
            b.counter_with(
                "ceio_pcie_wire_bytes_total",
                "Wire bytes (payload plus TLP overhead) over the PCIe link.",
                &lbl,
                ls.wire_bytes,
            );
            b.counter_with(
                "ceio_pcie_transfers_total",
                "Transfers serialized over the PCIe link.",
                &lbl,
                ls.transfers,
            );
        }

        // Per-flow DCTCP rate control, aggregated over live flows
        // (counters of flows that already stopped are not included).
        let mut cca_ecn = 0u64;
        let mut cca_loss = 0u64;
        let mut cca_incr = 0u64;
        for f in st.flows.values() {
            let cs = f.cca.stats();
            cca_ecn += cs.ecn_reductions;
            cca_loss += cs.loss_cuts;
            cca_incr += cs.increases;
        }
        b.counter(
            "ceio_dctcp_ecn_reductions_total",
            "DCTCP multiplicative decreases driven by ECN, over live flows.",
            cca_ecn,
        );
        b.counter(
            "ceio_dctcp_loss_cuts_total",
            "DCTCP loss-driven rate cuts, over live flows.",
            cca_loss,
        );
        b.counter(
            "ceio_dctcp_increases_total",
            "DCTCP additive-increase windows, over live flows.",
            cca_incr,
        );

        // Fault-recovery machinery (DESIGN.md §9): retry/backoff and
        // consumer-pause absorption counters. All zero on a healthy run.
        b.counter(
            "ceio_recovery_dma_write_retries_total",
            "Transient DMA write failures absorbed by bounded retry.",
            st.recovery.dma_write_retries,
        );
        b.counter(
            "ceio_recovery_dma_read_retries_total",
            "Transient DMA read failures absorbed by bounded retry.",
            st.recovery.dma_read_retries,
        );
        b.counter(
            "ceio_recovery_dma_backoff_ns_total",
            "Nanoseconds spent in DMA retry backoff.",
            st.recovery.dma_backoff_ns,
        );
        b.counter(
            "ceio_recovery_dma_retry_drops_total",
            "Packets dropped after exhausting the DMA retry budget.",
            st.recovery.dma_retry_drops,
        );
        b.counter(
            "ceio_recovery_consumer_pauses_total",
            "Core polls deferred by an injected consumer pause.",
            st.recovery.consumer_pauses,
        );
        b.counter(
            "ceio_recovery_consumer_pause_ns_total",
            "Nanoseconds of injected consumer-pause deferral.",
            st.recovery.consumer_pause_ns,
        );

        // Queue failure domains (DESIGN.md §13): watchdog detection,
        // failover re-steer, and recovery counters. All zero unless a
        // queue-level fault site is armed — healthy queues never trip the
        // watchdog, and the watchdog is only scheduled under such a plan.
        b.counter(
            "ceio_failover_watchdog_polls_total",
            "Queue-health watchdog ticks processed.",
            st.failover.watchdog_polls,
        );
        b.counter(
            "ceio_failover_suspects_total",
            "Queues moved under suspicion by the watchdog.",
            st.failover.suspects,
        );
        b.counter(
            "ceio_failover_false_alarms_total",
            "Suspect queues that resumed progress before being failed.",
            st.failover.false_alarms,
        );
        b.counter(
            "ceio_failover_failures_total",
            "Queues declared failed by the watchdog.",
            st.failover.failures,
        );
        b.counter(
            "ceio_failover_flows_resteered_total",
            "Flow steering rules rewritten by failover (off and back).",
            st.failover.flows_resteered,
        );
        b.counter(
            "ceio_failover_drained_pkts_total",
            "Staged packets migrated off failed queues.",
            st.failover.drained_pkts,
        );
        b.counter(
            "ceio_failover_head_dropped_total",
            "Staged packets head-dropped during failover migration.",
            st.failover.head_dropped_pkts,
        );
        b.counter(
            "ceio_failover_recoveries_total",
            "Failed queues confirmed healthy again after probation.",
            st.failover.recoveries,
        );

        // Simulation engine (DESIGN.md §14): event-queue counters mirrored
        // into the host state after every dispatch, so schedule pressure
        // and timer-cancellation effectiveness are observable per run.
        b.counter(
            "ceio_sim_events_total",
            "Events dispatched by the simulation engine.",
            st.engine.events_total,
        );
        b.gauge(
            "ceio_sim_queue_peak",
            "High-water mark of pending events in the engine queue.",
            st.engine.queue_peak as f64,
        );
        b.counter(
            "ceio_sim_timers_cancelled_total",
            "Timers cancelled before dispatch via their TimerToken.",
            st.engine.timers_cancelled,
        );

        // Chaos injection counters: zero unless a fault plan is armed.
        b.counter(
            "ceio_chaos_onboard_injected_rejections_total",
            "On-NIC memory writes rejected by injected exhaustion.",
            ob.injected_rejections,
        );
        b.counter(
            "ceio_chaos_arm_injected_stall_ns_total",
            "NIC ARM core stall nanoseconds injected by the fault plan.",
            arm.injected_stall_ns,
        );
        b.counter(
            "ceio_chaos_injected_total",
            "Faults injected across every armed machine-level site.",
            self.injected_faults(),
        );

        // Host memory hierarchy: LLC (DDIO), IIO buffer, DRAM.
        let llc = st.memctrl.llc.stats();
        b.counter(
            "ceio_llc_insertions_total",
            "DMA insertions into the LLC I/O partition.",
            llc.insertions,
        );
        b.counter(
            "ceio_llc_hits_total",
            "CPU reads that hit the LLC.",
            llc.hits,
        );
        b.counter(
            "ceio_llc_misses_total",
            "CPU reads that missed the LLC.",
            llc.misses,
        );
        b.counter(
            "ceio_llc_evictions_total",
            "I/O buffers evicted before consumption.",
            llc.evictions,
        );
        b.counter(
            "ceio_llc_evicted_bytes_total",
            "Bytes evicted from the LLC I/O partition to DRAM.",
            llc.evicted_bytes,
        );
        b.gauge(
            "ceio_llc_miss_rate",
            "Lifetime LLC miss rate of CPU I/O reads.",
            llc.miss_rate(),
        );
        b.counter(
            "ceio_llc_bypass_total",
            "DMA writes routed around the LLC (DDIO disabled).",
            llc.bypasses,
        );
        b.counter(
            "ceio_llc_over_capacity_total",
            "Insertions that left I/O occupancy above the partition capacity.",
            llc.over_capacity_events,
        );
        b.counter(
            "ceio_llc_app_evictions_total",
            "I/O buffers evicted by the application antagonist stream.",
            llc.app_evictions,
        );
        b.counter(
            "ceio_llc_eviction_age_sum_total",
            "Summed recency age of eviction victims (mean = sum / evictions).",
            llc.eviction_age_sum,
        );
        if let Some(ways) = st.memctrl.llc.way_occupancy() {
            for (way, (&io, &app)) in ways.io_lines.iter().zip(&ways.app_lines).enumerate() {
                let label = [("way", way.to_string())];
                b.gauge_with(
                    "ceio_llc_way_io_lines",
                    "Resident I/O cache lines in one LLC way.",
                    &label,
                    io as f64,
                );
                b.gauge_with(
                    "ceio_llc_way_app_lines",
                    "Resident application cache lines in one LLC way.",
                    &label,
                    app as f64,
                );
            }
        }
        let iio = st.memctrl.iio.stats();
        b.counter(
            "ceio_iio_accepted_total",
            "DMA arrivals accepted by the IIO buffer.",
            iio.accepted,
        );
        b.counter(
            "ceio_iio_rejected_total",
            "DMA arrivals rejected by a full IIO buffer.",
            iio.rejected,
        );
        b.gauge(
            "ceio_iio_peak_bytes",
            "IIO buffer occupancy high-water mark.",
            iio.peak_bytes as f64,
        );
        let dram = st.memctrl.dram.stats();
        b.counter(
            "ceio_dram_bytes_served_total",
            "Bytes served by the DRAM bandwidth server.",
            dram.bytes_served,
        );
        b.counter(
            "ceio_dram_requests_total",
            "Requests served by the DRAM bandwidth server.",
            dram.requests,
        );
        b.gauge(
            "ceio_dram_mean_queueing_ns",
            "Mean DRAM queueing delay per request.",
            dram.mean_queueing().0 as f64,
        );
        b.counter(
            "ceio_dram_queueing_ns_total",
            "Summed DRAM queueing delay across requests.",
            dram.queueing_ns_sum,
        );

        // CPU cores (labeled per core).
        for (i, core) in st.cores.iter().enumerate() {
            let cs = core.stats();
            let lbl = [("core", i.to_string())];
            b.counter_with(
                "ceio_core_packets_total",
                "Packets fully processed by the core.",
                &lbl,
                cs.packets,
            );
            b.counter_with(
                "ceio_core_busy_ns_total",
                "Busy nanoseconds (compute plus memory stalls).",
                &lbl,
                cs.busy_ns,
            );
            b.counter_with(
                "ceio_core_empty_polls_total",
                "Polls that found no deliverable work.",
                &lbl,
                cs.empty_polls,
            );
            b.counter_with(
                "ceio_core_productive_polls_total",
                "Polls that delivered at least one packet.",
                &lbl,
                cs.productive_polls,
            );
        }

        // Receive queues (RSS shards of the NIC→host DMA pipeline),
        // labeled per queue. Emitted for every configuration — a
        // single-queue host exports one `queue="0"` series.
        b.gauge(
            "ceio_rx_queues",
            "Receive queues the NIC shards arrivals over (RSS).",
            st.rxq.len() as f64,
        );
        for (q, rxq) in st.rxq.iter().enumerate() {
            let lbl = [("queue", q.to_string())];
            b.counter_with(
                "ceio_rxq_enqueued_total",
                "Packets staged into this queue's DMA issue FIFO.",
                &lbl,
                rxq.stats.enqueued,
            );
            b.counter_with(
                "ceio_rxq_issued_total",
                "DMA writes issued from this queue.",
                &lbl,
                rxq.stats.issued,
            );
            b.counter_with(
                "ceio_rxq_staging_drops_total",
                "Packets dropped by this queue's staging partition overflow.",
                &lbl,
                rxq.stats.staging_drops,
            );
            b.gauge_with(
                "ceio_rxq_pending_bytes",
                "Bytes currently staged in this queue.",
                &lbl,
                rxq.pending_bytes() as f64,
            );
            b.gauge_with(
                "ceio_rxq_peak_pending_bytes",
                "Staging-byte high-water mark of this queue.",
                &lbl,
                rxq.stats.peak_pending_bytes as f64,
            );
            b.counter_with(
                "ceio_rxq_failovers_total",
                "Times the watchdog failed this queue over.",
                &lbl,
                rxq.stats.failovers,
            );
            b.gauge_with(
                "ceio_queue_state",
                "Lifecycle state of this queue (0 Healthy, 1 Suspect, 2 Failed, 3 Draining, 4 Recovering).",
                &lbl,
                rxq.state().as_gauge() as f64,
            );
        }

        // Machine-level counters and end-to-end latency summaries.
        b.counter(
            "ceio_dropped_total",
            "Packets dropped anywhere on the receive path.",
            st.dropped_total,
        );
        b.counter(
            "ceio_ordering_stalls_total",
            "Deliveries stalled by an ordering gap while later data was ready.",
            st.ordering_stalls,
        );
        b.counter(
            "ceio_fast_path_pkts_total",
            "Packets delivered via the fast path.",
            st.meas.fast_path_pkts,
        );
        b.counter(
            "ceio_slow_path_pkts_total",
            "Packets delivered via the slow path.",
            st.meas.slow_path_pkts,
        );
        b.summary(
            "ceio_fast_latency_ns",
            "End-to-end latency of fast-path deliveries.",
            &st.fast_latency,
        );
        b.summary(
            "ceio_slow_latency_ns",
            "End-to-end latency of slow-path deliveries.",
            &st.slow_latency,
        );

        // Path-stage breakdown (populated only while tracing is armed).
        if let Some(tr) = st.trace.as_ref() {
            for stage in Stage::ALL {
                b.summary_with(
                    "ceio_path_stage_ns",
                    "Per-stage latency breakdown of the NIC-to-app path.",
                    &[("stage", stage.label().to_string())],
                    tr.breakdown.total.stage(stage),
                );
            }
        }

        // Policy-private metrics (credits, controller state, ...).
        self.policy.fill_metrics(&mut b);

        // Flight-recorder state (sampling counters, SLO alerts), when a
        // recorder is armed (see crate::scope).
        if let Some(rec) = st.scope.as_deref() {
            rec.fill_metrics(&mut b);
        }

        // Run metadata, so archived snapshots from different runs stay
        // distinguishable (which seed, sharding, fault plan, and config
        // produced this document).
        b.gauge_with(
            "ceio_run_info",
            "Run metadata carried as labels; the value is always 1.",
            &[
                ("seed", st.cfg.seed.to_string()),
                ("queues", st.cfg.num_queues.to_string()),
                ("fault_plan", st.run_label.clone()),
                ("config", format!("{:016x}", st.cfg.fingerprint())),
            ],
            1.0,
        );

        // Audit outcome, when the auditor is armed.
        if let Some(rep) = self.audit_report() {
            b.counter(
                "ceio_audit_violations_total",
                "Invariant violations detected by the armed auditor.",
                rep.total_violations,
            );
            b.audit(ceio_telemetry::AuditSummary {
                events_checked: rep.events_checked,
                invariants: rep.invariants.iter().map(|s| s.to_string()).collect(),
                total_violations: rep.total_violations,
                violations: rep.violations.iter().map(|v| v.to_string()).collect(),
            });
        }

        b.finish()
    }
}

impl<P: IoPolicy> Machine<P> {
    /// Arm event tracing with a drop-oldest ring of `cap` events per
    /// recorder (machine, DMA engine, on-NIC memory, and the policy's own
    /// recorders). Idempotent: re-arming replaces the recorders.
    pub fn arm_trace(&mut self, cap: usize) {
        self.st.trace = Some(Box::new(HostTrace {
            ring: TraceRing::new(cap),
            breakdown: BreakdownSet::new(),
            cap,
        }));
        self.st.dma.arm_trace(cap);
        self.st.onboard.arm_trace(cap);
        self.policy.arm_trace(cap);
    }

    /// Drain all recorders into one time-ordered event stream. Returns
    /// the merged events plus the total number of records evicted by ring
    /// overflow across every recorder.
    pub fn trace_events(&mut self) -> (Vec<TraceEvent>, u64) {
        let mut parts: Vec<Vec<TraceEvent>> = Vec::new();
        let mut dropped = 0u64;
        if let Some(tr) = self.st.trace.as_mut() {
            parts.push(tr.ring.events());
            dropped += tr.ring.dropped();
            tr.ring.clear();
        }
        let (evs, d) = self.st.dma.trace_take();
        parts.push(evs);
        dropped += d;
        let (evs, d) = self.st.onboard.trace_take();
        parts.push(evs);
        dropped += d;
        let (evs, d) = self.policy.take_trace();
        parts.push(evs);
        dropped += d;
        (merge_events(parts), dropped)
    }

    /// The per-flow path breakdown, if tracing is armed.
    pub fn breakdown(&self) -> Option<&BreakdownSet> {
        self.st.trace.as_deref().map(|t| &t.breakdown)
    }
}
