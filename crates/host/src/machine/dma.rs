//! The NIC→host DMA pipeline: per-queue issue pumps (`Pump`), IIO staging
//! (`HostArrive`), and memory retirement (`HostRetire`).
//!
//! Pump wake-ups are cancellable timers: each receive queue keeps at most
//! one outstanding wake in [`crate::rxq::RxQueue::pump_timer`] (the same
//! dedup the machine previously tracked as a bool), and failover cancels a
//! dead queue's wake through its token instead of letting it fire into an
//! empty staging queue.
//!
//! `HostArrive`/`HostRetire` carry a [`DmaId`], keeping the events two
//! words on the engine's hot path. The descriptor is interned once, at
//! issue; `HostArrive` reads it in place, the IIO backlog parks the handle,
//! `HostRetire` reuses the same handle and redeems it.

use crate::policy::IoPolicy;
use crate::rxq::PendingDma;
use crate::slab::DmaId;
use crate::swring::ReadyPkt;
use ceio_pcie::DmaError;
use ceio_sim::{Duration, EventQueue, Time};
use ceio_telemetry::{Stage, TraceKind};

use super::{Event, HostState, Machine};

/// Fault-recovery statistics. Always zero unless a chaos plan is armed,
/// since the substrate never fails on its own;
/// exported through the telemetry snapshot so chaos experiments can assert
/// that recovery actually ran.
#[derive(Debug, Default, Clone)]
pub struct RecoveryStats {
    /// DMA write issues retried after a transient fault.
    pub dma_write_retries: u64,
    /// DMA read issues retried after a transient fault.
    pub dma_read_retries: u64,
    /// Total nanoseconds spent in retry backoff (both directions).
    pub dma_backoff_ns: u64,
    /// Packets dropped after exhausting the DMA write retry budget.
    pub dma_retry_drops: u64,
    /// Injected consumer (driver-poll) pauses taken.
    pub consumer_pauses: u64,
    /// Total nanoseconds of injected consumer pause.
    pub consumer_pause_ns: u64,
}

/// Retry budget for a single DMA write before the packet is dropped.
pub(super) const DMA_RETRY_LIMIT: u32 = 8;

/// Base backoff after the first failed DMA attempt (doubles per attempt,
/// capped at `base << 6`, plus deterministic jitter under chaos).
pub(super) const DMA_BACKOFF_BASE: Duration = Duration::nanos(100);

impl HostState {
    /// Backoff before retry attempt `attempt` (1-based) of a faulted DMA
    /// issue: exponential in the attempt count, capped, plus deterministic
    /// jitter drawn from the host chaos stream (so concurrent retriers
    /// desynchronise) and — for timeouts — the detection delay itself.
    pub(super) fn retry_backoff(&mut self, attempt: u32, timed_out: bool) -> Duration {
        let exp = attempt.saturating_sub(1).min(6);
        let mut backoff = Duration::nanos(DMA_BACKOFF_BASE.as_nanos() << exp);
        if let Some(ch) = self.chaos.as_mut() {
            if timed_out {
                backoff += ch.injector.plan().dma_timeout;
            }
            backoff += ch.injector.jitter(DMA_BACKOFF_BASE);
        }
        backoff
    }
}

impl<P: IoPolicy> Machine<P> {
    /// Arm queue `q`'s single outstanding pump wake at `at`, if none is
    /// pending. The token makes the wake cancellable by failover.
    fn schedule_pump_wake(&mut self, queue: &mut EventQueue<Event>, q: usize, at: Time) {
        if self.st.rxq[q].pump_timer.is_none() {
            self.st.rxq[q].pump_timer = Some(queue.schedule_cancellable_at(at, Event::Pump(q)));
        }
    }

    /// Issue as many pending DMA writes as queue `q`'s write channel,
    /// pacing, and retry backoff allow. Credit stalls wait for a completion
    /// on this channel; transient faults (injected by an armed chaos plan)
    /// are retried with exponential backoff up to [`DMA_RETRY_LIMIT`]
    /// attempts, after which the head packet is dropped with full loss
    /// accounting so the queue cannot wedge behind a poisoned issue.
    pub(super) fn pump(&mut self, queue: &mut EventQueue<Event>, now: Time, q: usize) {
        let issue_gap = self.st.cfg.nic.queue_issue_gap;
        self.st.rxq[q].credit_blocked = false;
        while let Some(front) = self.st.rxq[q].pending.front() {
            let bytes = front.pkt.bytes;
            let flow = front.pkt.flow;
            // Injected wedge gate (queue stall/death, link flap): nothing
            // issues, and the pump deliberately does not self-reschedule —
            // detecting and waking a wedged queue is the watchdog's job.
            if self.st.rxq[q].wedged_until > now {
                break;
            }
            // Retry-backoff gate (set after a transient DMA fault).
            if self.st.rxq[q].write_backoff_until > now {
                let at = self.st.rxq[q].write_backoff_until;
                self.schedule_pump_wake(queue, q, at);
                break;
            }
            // Pacing gate (HostCC throttle; link-wide, shared by queues).
            if self.st.dma_pace.is_some() && self.st.dma_pace_until > now {
                let at = self.st.dma_pace_until;
                self.schedule_pump_wake(queue, q, at);
                break;
            }
            // Descriptor-issue pipeline gate (per-queue serialization);
            // disabled when the configured gap is zero.
            if issue_gap > Duration::ZERO && self.st.rxq[q].next_issue_at > now {
                let at = self.st.rxq[q].next_issue_at;
                self.schedule_pump_wake(queue, q, at);
                break;
            }
            match self.st.dma.try_write_on(q, now, bytes) {
                Ok(arrival) => {
                    self.st.rxq[q].write_attempts = 0;
                    let mut pd = self.st.rxq[q]
                        .pending
                        .pop_front()
                        .expect("invariant: loop guard ensured queue staging is non-empty");
                    self.st.rxq[q].pending_bytes -= bytes;
                    self.st.rxq[q].stats.issued += 1;
                    if issue_gap > Duration::ZERO {
                        self.st.rxq[q].next_issue_at = now + issue_gap;
                    }
                    let flow = Some(pd.pkt.flow.0);
                    self.st
                        .trace_stage(flow, Stage::NicQueue, now.since(pd.pkt.arrived_nic));
                    self.st.trace_stage(flow, Stage::Dma, arrival.since(now));
                    if let Some(pace) = self.st.dma_pace {
                        let gap = pace.transfer_time(bytes);
                        self.st.dma_pace_until = self.st.dma_pace_until.max(now) + gap;
                    }
                    // The completion credit must return to the channel that
                    // paid it, whatever `queue_of` says by completion time.
                    pd.queue = q;
                    let did = self.st.dmas.intern(pd);
                    queue.schedule_at(arrival, Event::HostArrive(did));
                }
                // Credit stall: the issue retries when a completion frees a
                // credit (`on_host_arrive` re-pumps). Flagged so the
                // watchdog never mistakes an honest stall for a wedge.
                Err(DmaError::NoWriteCredit | DmaError::NoReadCredit) => {
                    self.st.rxq[q].credit_blocked = true;
                    break;
                }
                // Transient fault: bounded retry with exponential backoff.
                Err(
                    err @ (DmaError::WriteFault
                    | DmaError::WriteTimeout
                    | DmaError::ReadFault
                    | DmaError::ReadTimeout),
                ) => {
                    self.st.rxq[q].write_attempts += 1;
                    if self.st.rxq[q].write_attempts > DMA_RETRY_LIMIT {
                        // Retry budget exhausted: drop the head packet so
                        // the rest of the staging queue can make progress.
                        self.st.rxq[q].write_attempts = 0;
                        let pd = self.st.rxq[q]
                            .pending
                            .pop_front()
                            .expect("invariant: loop guard ensured queue staging is non-empty");
                        self.st.rxq[q].pending_bytes -= bytes;
                        self.st.recovery.dma_retry_drops += 1;
                        if let Some(f) = self.st.flows.get_mut(&pd.pkt.flow) {
                            f.ring.abort_fast(pd.nic_seq);
                        }
                        self.st.trace_event(
                            now,
                            Some(pd.pkt.flow.0),
                            TraceKind::DmaRetryDrop,
                            pd.pkt.bytes,
                        );
                        self.st.account_drop(now, pd.pkt.flow, pd.pkt.bytes, true);
                        self.policy.on_fast_drop(&mut self.st, now, pd.pkt.flow);
                        continue;
                    }
                    let timed_out = matches!(err, DmaError::WriteTimeout | DmaError::ReadTimeout);
                    let attempt = self.st.rxq[q].write_attempts;
                    let backoff = self.st.retry_backoff(attempt, timed_out);
                    self.st.recovery.dma_write_retries += 1;
                    self.st.recovery.dma_backoff_ns += backoff.as_nanos();
                    self.st.rxq[q].write_backoff_until = now + backoff;
                    self.st
                        .trace_event(now, Some(flow.0), TraceKind::DmaRetry, backoff.as_nanos());
                    let at = self.st.rxq[q].write_backoff_until;
                    self.schedule_pump_wake(queue, q, at);
                    break;
                }
            }
        }
    }

    /// Pump every receive queue, ascending. With one queue this is exactly
    /// one call to [`Machine::pump`] — the monolithic behaviour.
    pub(super) fn pump_all(&mut self, queue: &mut EventQueue<Event>, now: Time) {
        for q in 0..self.st.rxq.len() {
            self.pump(queue, now, q);
        }
    }

    /// Start retiring a staged arrival: return the write credit (fast
    /// path), charge the memory controller, and schedule the `HostRetire`
    /// on the same descriptor handle. Shared by the direct-arrival path and
    /// the IIO-backlog drain.
    fn begin_retire(&mut self, now: Time, did: DmaId, queue: &mut EventQueue<Event>) {
        let pd = *self.st.dmas.get(did);
        if !pd.via_slow {
            self.st.dma.complete_write_on(pd.queue);
            self.st.trace_event(
                now,
                Some(pd.pkt.flow.0),
                TraceKind::DmaWriteComplete,
                pd.pkt.bytes,
            );
        }
        // Slow-path drain completions retire uncached (straight to
        // DRAM): cold-path data must not flush fast-path LLC residents.
        let done = if pd.via_slow {
            self.st.memctrl.retire_uncached(now, pd.pkt.bytes)
        } else {
            let over_before = self.st.memctrl.llc.stats().over_capacity_events;
            let done = self.st.memctrl.retire(now, pd.buf, pd.pkt.bytes);
            if self.st.memctrl.llc.stats().over_capacity_events > over_before {
                self.st.trace_event(
                    now,
                    Some(pd.pkt.flow.0),
                    TraceKind::LlcOverCapacity,
                    self.st.memctrl.llc.over_capacity_bytes(),
                );
            }
            done
        };
        self.st
            .trace_stage(Some(pd.pkt.flow.0), Stage::Retire, done.since(now));
        queue.schedule_at(done, Event::HostRetire(did));
    }

    pub(super) fn on_host_arrive(&mut self, now: Time, did: DmaId, queue: &mut EventQueue<Event>) {
        if self.st.memctrl.stage(self.st.dmas.get(did).pkt.bytes) {
            self.begin_retire(now, did, queue);
            self.pump_all(queue, now);
        } else {
            self.st.iio_pending.push_back(did);
        }
    }

    pub(super) fn on_host_retire(&mut self, now: Time, did: DmaId, queue: &mut EventQueue<Event>) {
        let PendingDma {
            pkt,
            buf,
            nic_seq,
            via_slow,
            ..
        } = self
            .st
            .dmas
            .take(did)
            .expect("invariant: a DMA handle is redeemed once, by its HostRetire");
        self.st.memctrl.retire_done(pkt.bytes);

        let mut poll_core = None;
        if let Some(f) = self.st.flows.get_mut(&pkt.flow) {
            let rp = ReadyPkt {
                pkt,
                buf,
                ready: now,
                via_slow,
            };
            if f.ring.retire(nic_seq, rp) {
                // In-flight packet of a torn-down connection: free it.
                f.accounted += 1;
                self.st.memctrl.consume(buf);
            } else {
                self.st.core_flows[f.core].set_busy(f.list_pos);
                poll_core = Some(f.core);
            }
        } else {
            // Flow torn down: release the buffer.
            self.st.memctrl.consume(buf);
        }
        if via_slow {
            self.policy.on_slow_arrived(&mut self.st, now, pkt.flow, 1);
        }

        // IIO space freed at retire: admit parked arrivals.
        while let Some(&front) = self.st.iio_pending.front() {
            if self.st.memctrl.stage(self.st.dmas.get(front).pkt.bytes) {
                self.st.iio_pending.pop_front();
                self.begin_retire(now, front, queue);
            } else {
                break;
            }
        }
        self.pump_all(queue, now);
        if let Some(core) = poll_core {
            self.schedule_poll(queue, now, core);
        }
    }
}
