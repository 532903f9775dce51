//! The I/O management policy interface.
//!
//! A policy is "the thing at the entrance of the I/O system" (§2.3's
//! insight): it sees every packet before DMA, owns the steering decision,
//! and reacts to host-side consumption. CEIO, HostCC, ShRing, and the
//! unmanaged legacy datapath are all implementations.

use crate::machine::HostState;
use ceio_net::{FlowId, Packet};
use ceio_sim::{Duration, Time};
use ceio_telemetry::{FlightRecorder, SnapshotBuilder, TraceEvent};

/// Steering decision for one packet at the NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SteerDecision {
    /// Legacy I/O: DMA toward the host ring.
    ///
    /// `mark` requests a receiver-side ECN mark (fed back to the sender's
    /// DCTCP), used by policies that trigger CCAs on host congestion.
    FastPath {
        /// Apply an ECN congestion mark to this packet's feedback.
        mark: bool,
    },
    /// Elastic buffering: park the packet in on-NIC memory.
    SlowPath {
        /// Apply an ECN congestion mark to this packet's feedback.
        mark: bool,
    },
    /// Refuse the packet.
    Drop {
        /// Whether the drop is visible to the sender as a loss (triggers a
        /// CCA rate cut). Silent drops model e.g. admission filtering.
        loss: bool,
    },
}

/// A slow-path drain order returned from the driver-poll hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DrainRequest {
    /// Number of slow-path packets to DMA-read toward the host now.
    pub fetch: u32,
    /// `true`: synchronous `recv()` semantics — the core stalls until the
    /// data lands. `false`: `async_recv()` semantics — reads overlap with
    /// fast-path processing (§4.2).
    pub sync: bool,
}

impl DrainRequest {
    /// "Nothing to drain."
    pub const NONE: DrainRequest = DrainRequest {
        fetch: 0,
        sync: false,
    };
}

/// The I/O management policy plugged into the host machine.
///
/// Every hook receives the machine state *except the policy itself* and the
/// current simulated time. Hooks that model on-NIC work should charge the
/// ARM core via `st.nic_arm` so control-plane cost is visible.
pub trait IoPolicy {
    /// Short name used in reports ("CEIO", "HostCC", "ShRing", "Baseline").
    fn name(&self) -> &'static str;

    /// A flow was established (connection setup): allocate control state,
    /// install steering rules.
    fn on_flow_start(&mut self, st: &mut HostState, now: Time, flow: FlowId);

    /// A flow terminated: release control state and credits.
    fn on_flow_stop(&mut self, st: &mut HostState, now: Time, flow: FlowId);

    /// A packet arrived at the NIC (after firmware RX): steer it.
    fn steer(&mut self, st: &mut HostState, now: Time, pkt: &Packet) -> SteerDecision;

    /// The driver finished delivering a batch to the application and
    /// advanced the head pointer: the lazy credit-release point (§4.1).
    /// `fast_pkts`/`slow_pkts` count the batch by path; `msgs` counts
    /// completed messages in the batch.
    fn on_batch_consumed(
        &mut self,
        st: &mut HostState,
        now: Time,
        flow: FlowId,
        fast_pkts: u32,
        slow_pkts: u32,
        msgs: u32,
    );

    /// A packet this policy steered to the fast path was dropped before its
    /// DMA was issued (RX descriptor exhaustion or NIC staging overflow).
    /// Credit-based policies refund the packet's credit here.
    fn on_fast_drop(&mut self, st: &mut HostState, now: Time, flow: FlowId) {
        let _ = (st, now, flow);
    }

    /// The driver polled this flow's rings (each `recv()`/`async_recv()`
    /// call): decide whether to drain the slow path.
    ///
    /// Invoked only for flows that had work when the poll reached them:
    /// packets retired into the flow's ring or parked on the NIC (when
    /// the poll delivers a batch, the hook runs after that batch left the
    /// ring). A core poll skips idle flows before
    /// reaching this hook, so an implementation must not rely on being
    /// called for them (to observe time passing, say); use the controller
    /// loop for that.
    fn on_driver_poll(&mut self, st: &mut HostState, now: Time, flow: FlowId) -> DrainRequest {
        let _ = (st, now, flow);
        DrainRequest::NONE
    }

    /// Drained slow-path packets landed in host memory (completion of a
    /// fetch issued by [`IoPolicy::on_driver_poll`]).
    fn on_slow_arrived(&mut self, st: &mut HostState, now: Time, flow: FlowId, pkts: u32) {
        let _ = (st, now, flow, pkts);
    }

    /// Periodic controller loop (ARM-core poll of steering counters and
    /// host congestion signals). Only called if
    /// [`IoPolicy::controller_interval`] returns `Some`.
    fn on_controller_poll(&mut self, st: &mut HostState, now: Time) {
        let _ = (st, now);
    }

    /// Controller polling period, or `None` for policies with no control
    /// loop (legacy).
    fn controller_interval(&self) -> Option<Duration> {
        None
    }

    /// The watchdog declared receive queue `queue` failed (see
    /// `Machine::on_watchdog`): quarantine its resources and re-steer its
    /// flows to the surviving mask. The default does nothing — queue-blind
    /// policies just keep steering through the machine's remap.
    fn on_queue_failed(&mut self, st: &mut HostState, now: Time, queue: ceio_nic::QueueId) {
        let _ = (st, now, queue);
    }

    /// A previously-failed queue re-entered the steering mask on probation:
    /// restore quarantined resources and steer its flows home. The default
    /// does nothing.
    fn on_queue_recovered(&mut self, st: &mut HostState, now: Time, queue: ceio_nic::QueueId) {
        let _ = (st, now, queue);
    }

    /// Contribute policy-private metrics (credit ledgers, controller
    /// state, software-ring depths) to a machine snapshot. The default
    /// contributes nothing.
    fn fill_metrics(&self, out: &mut SnapshotBuilder) {
        let _ = out;
    }

    /// Declare the policy's own flight-recorder gauges (credit ledgers,
    /// leases) when a scope is armed (see [`crate::scope::arm_scope`]).
    /// Every key registered here must be recorded by
    /// [`IoPolicy::scope_sample`]; the default declares nothing.
    fn scope_register(&self, rec: &mut FlightRecorder) {
        let _ = rec;
    }

    /// Record one scope epoch of policy-private gauges. Called once per
    /// `Event::Scope` tick, right after the machine gauges are sampled.
    /// The default records nothing.
    fn scope_sample(&self, rec: &mut FlightRecorder, now: Time) {
        let _ = (rec, now);
    }

    /// Arm the policy's own trace recorders (credit manager, software
    /// rings) with ring capacity `cap`. The default records nothing.
    fn arm_trace(&mut self, cap: usize) {
        let _ = cap;
    }

    /// Arm the policy's own fault-injection stream (a `ceio-chaos` plan):
    /// lost/delayed credit releases, RMT install delays, credit leases.
    /// Called by [`crate::machine::Machine::arm_chaos`]; the default
    /// injects nothing.
    fn arm_chaos(&mut self, st: &mut HostState, plan: &ceio_chaos::FaultPlan) {
        let _ = (st, plan);
    }

    /// Drain the policy's trace recorders: events plus the count evicted
    /// by ring overflow. The default recorded nothing.
    fn take_trace(&mut self) -> (Vec<TraceEvent>, u64) {
        (Vec::new(), 0)
    }

    /// Audit hook: verify policy-internal invariants — state the machine
    /// cannot see, such as the CEIO credit ledger — after a handled event,
    /// reporting violations into the shared `sink`. Called only while an
    /// auditor is armed; the default checks nothing.
    fn audit_check(
        &self,
        st: &HostState,
        ctx: &ceio_audit::AuditCtx<'_>,
        sink: &mut ceio_audit::AuditSink,
    ) {
        let _ = (st, ctx, sink);
    }
}

/// The unmanaged legacy datapath: everything to the fast path, no control
/// loop. This is the paper's "Baseline" and lives here (rather than in
/// `ceio-baselines`) because the machine's own tests need a trivial policy.
#[derive(Debug, Default, Clone)]
pub struct UnmanagedPolicy;

impl IoPolicy for UnmanagedPolicy {
    fn name(&self) -> &'static str {
        "Baseline"
    }
    fn on_flow_start(&mut self, _: &mut HostState, _: Time, _: FlowId) {}
    fn on_flow_stop(&mut self, _: &mut HostState, _: Time, _: FlowId) {}
    fn steer(&mut self, _: &mut HostState, _: Time, _: &Packet) -> SteerDecision {
        SteerDecision::FastPath { mark: false }
    }
    fn on_batch_consumed(&mut self, _: &mut HostState, _: Time, _: FlowId, _: u32, _: u32, _: u32) {
    }
}
