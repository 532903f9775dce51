//! Ingress handlers: sender emission (`Emit`) and NIC receive/steer
//! (`NicRx`).
//!
//! Emission is a self-rescheduling chain per flow, keyed by an epoch and —
//! since the timer overhaul — armed as a *cancellable* timer whose token
//! lives in [`crate::flowstate::FlowState::emit_timer`]: a demand retarget
//! or flow stop cancels the old chain through it instead of letting a stale
//! event dispatch and fizzle on the epoch check (which stays as
//! defense-in-depth for same-nanosecond races that dispatch before the
//! cancel runs).
//!
//! An admitted packet waits in [`super::HostState::on_wire`] and its
//! `NicRx` carries only the flow id, so the event stays two words on the
//! engine's hot path. The link serializes packets one after another, so
//! no arrival precedes the previous one, and the engine breaks ties in
//! scheduling order: `NicRx` events dispatch in admission order, and the
//! front of the FIFO is always the dispatching event's packet (DESIGN.md
//! §25).

use crate::policy::{IoPolicy, SteerDecision};
use crate::rxq::PendingDma;
use ceio_net::ingress::IngressOutcome;
use ceio_net::FlowId;
use ceio_sim::{EventQueue, Time};
use ceio_telemetry::TraceKind;

use super::{Event, Machine};

impl<P: IoPolicy> Machine<P> {
    pub(super) fn on_emit(
        &mut self,
        now: Time,
        id: FlowId,
        epoch: u64,
        queue: &mut EventQueue<Event>,
    ) {
        let Some(f) = self.st.flows.get_mut(&id) else {
            return;
        };
        if f.emit_epoch != epoch {
            return; // stale chain that dispatched before its cancel ran
        }
        // This dispatch consumed the chain's pending timer; every path
        // below either stores a fresh token or leaves the chain ended.
        f.emit_timer = None;
        if !f.active || now >= f.spec.stop {
            f.active = false;
            self.st.retain_due[f.core] = true;
            return;
        }
        if f.cca.paused() {
            return; // chain ends; SetDemand restarts it
        }
        f.cca.tick(now);
        let mut pkt = f.gen.emit(now);
        let rate = f.cca.rate();
        let next = f.gen.next_emission(now, rate);
        let dropped = match self.st.ingress.offer(now, pkt.bytes) {
            IngressOutcome::Delivered { arrival, marked } => {
                pkt.ecn = marked;
                pkt.arrived_nic = arrival;
                self.st.on_wire.push_back(pkt);
                queue.schedule_at(arrival, Event::NicRx(id));
                false
            }
            IngressOutcome::Dropped => {
                // Network drop, visible to the sender as loss.
                f.note_drop(now, true);
                true
            }
        };
        f.emit_timer = Some(queue.schedule_cancellable_at(next, Event::Emit { flow: id, epoch }));
        if dropped {
            self.st.count_drop(now, id, pkt.bytes);
        }
    }

    pub(super) fn on_nic_rx(&mut self, now: Time, flow: FlowId, queue: &mut EventQueue<Event>) {
        let pkt = self
            .st
            .on_wire
            .pop_front()
            .filter(|pkt| pkt.flow == flow)
            .expect("invariant: NicRx events dispatch in admission order, one per admitted packet");
        if !self.st.flows.contains_key(&pkt.flow) {
            self.st.account_drop(now, pkt.flow, pkt.bytes, false);
            return;
        }
        let decision = self.policy.steer(&mut self.st, now, &pkt);
        let fw = self.st.cfg.nic.firmware_per_packet;
        // Past the policy, each arm probes the flow's state once and does
        // its own accounting on that borrow.
        match decision {
            SteerDecision::FastPath { mark } => {
                // Read before the flow is borrowed: the feedback and the
                // ring check below change neither.
                let q = self.st.queue_of(pkt.flow);
                let staging_full =
                    self.st.rxq[q].pending_bytes() + pkt.bytes > self.st.queue_staging_bytes();
                let f = self
                    .st
                    .flows
                    .get_mut(&pkt.flow)
                    .expect("invariant: flow presence was checked earlier in this handler");
                f.cca.on_feedback(now, pkt.ecn || mark);
                let reserved = if staging_full {
                    None
                } else {
                    f.ring.reserve_fast()
                };
                let Some(nic_seq) = reserved else {
                    // No RX descriptor, or this queue's staging partition
                    // overflowed while its DMA pipeline is backpressured:
                    // the NIC must drop.
                    if f.ring.free() > 0 {
                        self.st.rxq[q].stats.staging_drops += 1;
                    }
                    f.note_drop(now, true);
                    self.st.count_drop(now, pkt.flow, pkt.bytes);
                    self.policy.on_fast_drop(&mut self.st, now, pkt.flow);
                    return;
                };
                let buf = self.st.alloc_buf();
                self.st.rxq[q].push(PendingDma {
                    pkt,
                    buf,
                    nic_seq,
                    via_slow: false,
                    queue: q,
                });
                self.pump(queue, now + fw, q);
            }
            SteerDecision::SlowPath { mark } => {
                let f = self
                    .st
                    .flows
                    .get_mut(&pkt.flow)
                    .expect("invariant: flow presence was checked earlier in this handler");
                f.cca.on_feedback(now, pkt.ecn || mark);
                match self.st.onboard.write(now + fw, pkt.bytes) {
                    Some(ready_at_nic) => {
                        f.ring.park_slow(pkt, ready_at_nic);
                        f.counters.slow_pkts += 1;
                        self.st.core_flows[f.core].set_busy(f.list_pos);
                        self.st
                            .trace_event(now, Some(pkt.flow.0), TraceKind::SlowPark, pkt.bytes);
                    }
                    None => {
                        f.note_drop(now, true);
                        self.st.count_drop(now, pkt.flow, pkt.bytes);
                    }
                }
            }
            SteerDecision::Drop { loss } => {
                self.st.account_drop(now, pkt.flow, pkt.bytes, loss);
            }
        }
    }
}
