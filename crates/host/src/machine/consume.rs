//! Consumption handlers: driver polls and in-order application delivery
//! (`CorePoll`), plus the slow-path DMA-read fetch they drive.

use crate::policy::IoPolicy;
use crate::rxq::PendingDma;
use ceio_chaos::FaultSite;
use ceio_net::{FlowClass, FlowId};
use ceio_pcie::DmaError;
use ceio_sim::{EventQueue, Time};
use ceio_telemetry::{Stage, TraceKind};

use super::{Event, Machine};

impl<P: IoPolicy> Machine<P> {
    pub(super) fn schedule_poll(&mut self, queue: &mut EventQueue<Event>, at: Time, core: usize) {
        if !self.st.poll_queued[core] {
            self.st.poll_queued[core] = true;
            queue.schedule_at(at.max(queue.now()), Event::CorePoll(core));
        }
    }

    /// Execute a slow-path fetch of up to `fetch` packets for `flow` into
    /// `slow_batch`. Returns the host-arrival instant (the caller schedules
    /// the batch's `HostArrive` events), or `None` if nothing was fetched
    /// (the batch is then empty again).
    fn do_slow_fetch(&mut self, now: Time, flow: FlowId, fetch: u32) -> Option<Time> {
        // Retry-backoff gate: a transiently-faulted read is retried at the
        // next driver poll after the backoff elapses. Parked packets stay
        // parked — the slow path never drops on read faults.
        if self.st.read_backoff_until > now {
            return None;
        }
        let f = self.st.flows.get_mut(&flow)?;
        let total = f
            .ring
            .take_fetch_batch(now, fetch as usize, &mut self.slow_batch);
        if self.slow_batch.is_empty() {
            return None;
        }
        match self.st.dma.try_read_request(now) {
            Ok(at_nic) => {
                self.st.read_attempts = 0;
                let data_ready = self.st.onboard.read(at_nic, total);
                let at_host = self.st.dma.read_completion(data_ready, total);
                self.st.trace_event(
                    now,
                    Some(flow.0),
                    TraceKind::SlowFetch,
                    self.slow_batch.len() as u64,
                );
                for sp in &self.slow_batch {
                    self.st.trace_stage(
                        Some(flow.0),
                        Stage::SlowResidency,
                        now.since(sp.pkt.arrived_nic),
                    );
                }
                Some(at_host)
            }
            Err(err) => {
                // Transient fault: arm a retry backoff before the next
                // driver poll may reissue. Credit stalls simply wait for a
                // read completion; either way the batch returns to the
                // queue, in order, and nothing is lost.
                if err.is_transient_fault() {
                    self.st.read_attempts += 1;
                    let timed_out = matches!(err, DmaError::ReadTimeout | DmaError::WriteTimeout);
                    let attempt = self.st.read_attempts;
                    let backoff = self.st.retry_backoff(attempt, timed_out);
                    self.st.recovery.dma_read_retries += 1;
                    self.st.recovery.dma_backoff_ns += backoff.as_nanos();
                    self.st.read_backoff_until = now + backoff;
                    self.st
                        .trace_event(now, Some(flow.0), TraceKind::DmaRetry, backoff.as_nanos());
                }
                let f = self
                    .st
                    .flows
                    .get_mut(&flow)
                    .expect("invariant: flow presence was checked earlier in this handler");
                f.ring.return_fetch(&mut self.slow_batch);
                self.st.core_flows[f.core].set_busy(f.list_pos);
                None
            }
        }
    }

    /// Intern and schedule the host arrivals of the fetched slow-path batch
    /// (emptying `slow_batch`).
    fn schedule_slow_arrivals(&mut self, at_host: Time, queue: &mut EventQueue<Event>) {
        for sp in self.slow_batch.drain(..) {
            let buf = self.st.alloc_buf();
            let did = self.st.dmas.intern(PendingDma {
                pkt: sp.pkt,
                buf,
                nic_seq: sp.nic_seq,
                via_slow: true,
                queue: 0,
            });
            queue.schedule_at(at_host, Event::HostArrive(did));
        }
    }

    pub(super) fn on_core_poll(&mut self, now: Time, core: usize, queue: &mut EventQueue<Event>) {
        self.st.poll_queued[core] = false;
        // Injected consumer pause: the driver thread is descheduled for a
        // while (GC pause, noisy neighbour). The poll is deferred — rings
        // and the slow path back up, exercising the backpressure path.
        let pause = self.st.chaos.as_mut().and_then(|ch| {
            ch.injector
                .fire(FaultSite::ConsumerPause)
                .then(|| ch.injector.plan().consumer_pause)
        });
        if let Some(pause) = pause {
            self.st.recovery.consumer_pauses += 1;
            self.st.recovery.consumer_pause_ns += pause.as_nanos();
            self.st
                .trace_event(now, None, TraceKind::ConsumerPause, pause.as_nanos());
            self.schedule_poll(queue, now + pause, core);
            return;
        }
        // Drop finished-and-drained flows from this core's service list.
        // Only an inactive flow can leave it, so the retain runs only while
        // the list may hold one (`retain_due`, flagged when a listed flow
        // stops emitting) and notes whether one stays listed. It moves each
        // kept flow's busy bit along and records the flow's new position.
        if self.st.retain_due[core] {
            let flows = &mut self.st.flows;
            let mut inactive_listed = false;
            self.st.core_flows[core].retain(|id, pos| match flows.get_mut(&id) {
                Some(f) if f.active || f.has_pending_work() => {
                    inactive_listed |= !f.active;
                    f.list_pos = pos;
                    true
                }
                _ => false,
            });
            self.st.retain_due[core] = inactive_listed;
        }
        let n = self.st.core_flows[core].len();
        if n == 0 {
            return;
        }

        // Round-robin across the flows this core serves; the first flow
        // with deliverable work gets this poll's batch. Delivery always
        // precedes new slow-path fetches: a blocking recv() returns the
        // data that already landed before it issues (and waits on) another
        // DMA read, otherwise a busy slow path would starve the consumer.
        // The service list is indexed in place: nothing below starts or
        // retires flows, so it cannot change during the scan.
        //
        // Idle flows are never visited. An idle flow has nothing retired
        // into its ring and nothing parked on the NIC, so its iteration
        // would be a no-op — an empty batch, no gap stall, no drain request
        // from any in-tree policy, and a slow fetch that returns before
        // touching state — and passing it leaves the round-robin cursor and
        // every counter unchanged. A clear busy bit proves the flow idle,
        // so the scan jumps to the next set bit cyclically from `from`;
        // `left` counts the positions not yet passed since `start`, which
        // ends the scan once it comes round again. A set bit is only a
        // hint, checked below and cleared when the queues are empty.
        let start = self.st.core_rr[core] % n;
        let batch_size = self.st.cfg.cpu.batch_size;
        let mut selected: Option<(FlowId, FlowClass)> = None;
        let mut sync_stall: Option<Time> = None;
        let mut from = start;
        let mut left = n;
        while let Some(pos) = self.st.core_flows[core].next_busy(from) {
            let skipped = if pos >= from {
                pos - from
            } else {
                pos + n - from
            };
            if skipped >= left {
                break;
            }
            left -= skipped + 1;
            from = if pos + 1 == n { 0 } else { pos + 1 };
            let flow_id = self.st.core_flows[core].ids()[pos];
            let (gap_stall, class) = {
                let f =
                    self.st.flows.get_mut(&flow_id).expect(
                        "invariant: service lists hold only ids present in `self.st.flows`",
                    );
                if !f.ring.has_queued() {
                    self.st.core_flows[core].clear_busy(pos);
                    continue;
                }
                f.ring.take_deliverable(now, batch_size, &mut self.batch);
                let gap_stall = self.batch.is_empty()
                    && f.ring
                        .first()
                        .is_some_and(|(seq, rp)| seq != f.ring.base() && rp.ready <= now);
                (gap_stall, f.spec.class)
            };
            if !self.batch.is_empty() {
                // async_recv() overlap: kick the next slow-path fetch
                // while this batch is processed (§4.2).
                let drain = self.policy.on_driver_poll(&mut self.st, now, flow_id);
                if drain.fetch > 0 && !drain.sync {
                    if let Some(at_host) = self.do_slow_fetch(now, flow_id, drain.fetch) {
                        self.schedule_slow_arrivals(at_host, queue);
                    }
                }
                self.st.core_rr[core] = from;
                selected = Some((flow_id, class));
                break;
            }
            if gap_stall {
                self.st.ordering_stalls += 1;
            }
            // Nothing deliverable: drain the slow path (blocking recv()
            // stalls the core until the fetch lands).
            let drain = self.policy.on_driver_poll(&mut self.st, now, flow_id);
            if drain.fetch > 0 {
                if let Some(at_host) = self.do_slow_fetch(now, flow_id, drain.fetch) {
                    self.schedule_slow_arrivals(at_host, queue);
                    if drain.sync {
                        sync_stall = Some(at_host);
                        break;
                    }
                }
            }
        }

        let Some((flow_id, class)) = selected else {
            self.st.cores[core].count_poll(false);
            let next = match sync_stall {
                Some(t) => t.max(now + self.st.cfg.cpu.poll_interval),
                None => now + self.st.cfg.cpu.poll_interval,
            };
            self.schedule_poll(queue, next, core);
            return;
        };

        self.st.cores[core].count_poll(true);
        let mut t = now;
        let mut fast = 0u32;
        let mut slow = 0u32;
        let mut msgs = 0u32;
        // One probe each for the batch's flow, app and core: the loop
        // below borrows them alongside the other (disjoint) state fields.
        let st = &mut self.st;
        let app = st
            .apps
            .get_mut(&flow_id)
            .expect("invariant: every flow gets an app at Machine::build time");
        let f = st
            .flows
            .get_mut(&flow_id)
            .expect("invariant: flow presence was checked earlier in this handler");
        let cpu = &mut st.cores[core];
        for rp in self.batch.drain(..) {
            // DRAM traffic of the whole batch is issued at poll start (the
            // driver prefetches descriptors/buffers ahead of the consuming
            // loop); the core still stalls for whatever has not arrived by
            // the time it reaches this packet. Charging at `now` also keeps
            // the DRAM server timeline causal across concurrent events.
            //
            // A demand miss stalls the core for at least the DRAM load
            // latency — payload reads are not software-prefetched — plus
            // whatever queueing the shared DRAM server has not drained by
            // the time the core reaches this packet (§2.2's extra cycles).
            // Slow-path buffers were retired uncached and are read from
            // DRAM, without touching the DDIO partition's statistics. They
            // are *streamed*: the driver knows the exact addresses the DMA
            // read just filled and prefetches them, so only DRAM bandwidth
            // and queueing are charged, not the demand-miss latency floor.
            let mem_stall = if rp.via_slow {
                let ready = st.memctrl.read_uncached(now, rp.pkt.bytes);
                ready.since(t)
            } else {
                let read = st.memctrl.cpu_read(now, rp.buf, rp.pkt.bytes);
                if read.hit {
                    read.ready.since(t)
                } else {
                    read.ready.since(t).max(st.cfg.mem.dram_base_latency)
                }
            };
            let work = app.process(&rp.pkt);
            let mut dur = st.cfg.cpu.per_packet_overhead + mem_stall + work.cpu;
            if work.copy_bytes > 0 {
                st.memctrl.app_copy(now, work.copy_bytes);
                dur += st.cfg.copy_time(work.copy_bytes);
            }
            t = cpu.run(t, dur);
            st.memctrl.consume(rp.buf);
            cpu.count_packet();
            if rp.pkt.msg_last {
                msgs += 1;
            }
            let latency = t.since(rp.pkt.sent_at);
            let kind = if rp.via_slow {
                slow += 1;
                st.slow_latency.record_duration(latency);
                TraceKind::SlowDrain
            } else {
                fast += 1;
                st.fast_latency.record_duration(latency);
                TraceKind::Delivery
            };
            if let Some(tr) = st.trace.as_mut() {
                tr.stage(Some(flow_id.0), Stage::RingWait, now.since(rp.ready));
                tr.event(t, Some(flow_id.0), kind, rp.pkt.bytes);
            }
            st.meas.record_delivery(class, rp.pkt.bytes, rp.via_slow);
            f.latency.record_duration(latency);
            f.accounted += 1;
            f.counters.consumed_pkts += 1;
            f.counters.consumed_bytes += rp.pkt.bytes;
            if rp.pkt.msg_last {
                f.counters.msgs_completed += 1;
            }
        }
        // Head-pointer MMIO update closes the batch (lazy release point).
        t = self.st.cores[core].run(t, self.st.cfg.cpu.head_update);
        self.policy
            .on_batch_consumed(&mut self.st, t, flow_id, fast, slow, msgs);
        self.schedule_poll(queue, t, core);
    }
}
