//! The design alternative §4.1 considers and rejects: Multiple Priority
//! Queues (MPQ), PIAS-style, applied to the fast/slow-path decision.
//!
//! PIAS grants every new flow the highest priority and demotes it as its
//! byte count crosses thresholds — under the long-tail assumption that
//! short flows matter most. Mapped onto the I/O system: high-priority
//! flows take the fast path (within the LLC credit budget), demoted flows
//! take the slow path; idle flows age back to the top priority.
//!
//! The paper's critique, which this implementation makes measurable:
//! *CPU-involved flows are not always short* (continuous RPC streams,
//! video, overlay traffic). A long-lived RPC flow crosses the demotion
//! threshold just like a DFS transfer does, loses the fast path, and pays
//! the slow path's latency — while CEIO's lazy credit release keeps it
//! fast because its credits recycle continuously. Ablation D in
//! `ceio-bench` runs the two head to head.

use crate::credit::CreditManager;
use ceio_host::{DrainRequest, HostState, IoPolicy, SteerDecision};
use ceio_net::{FlowId, FlowMap, Packet};
use ceio_nic::{QueueId, SteerAction};
use ceio_sim::{Duration, Time};
use ceio_telemetry::SnapshotBuilder;

/// MPQ tuning.
#[derive(Debug, Clone)]
pub struct MpqConfig {
    /// Total fast-path admission budget (same Eq. 1 sizing as CEIO so the
    /// comparison isolates the *scheduling* policy).
    pub credit_total: u64,
    /// Demotion thresholds in bytes: a flow at priority `i` demotes to
    /// `i+1` after sending `thresholds[i]` bytes at that level. Flows past
    /// the last threshold sit in the lowest priority (slow path).
    pub thresholds: Vec<u64>,
    /// Priorities `0..fast_priorities` use the fast path; lower ones are
    /// steered to on-NIC memory.
    pub fast_priorities: usize,
    /// Idle period after which a flow ages back to the top priority
    /// (PIAS resets flows that go quiet).
    pub age_reset: Duration,
    /// Slow-path backlog above which arrivals are ECN-marked.
    pub slow_overload_threshold: usize,
    /// Fetch batch for slow-path drains.
    pub drain_batch: u32,
}

impl Default for MpqConfig {
    fn default() -> Self {
        MpqConfig {
            credit_total: (6 << 20) / 2048,
            // PIAS-style geometric thresholds: 64 KB, 512 KB, 4 MB.
            thresholds: vec![64 << 10, 512 << 10, 4 << 20],
            fast_priorities: 3,
            age_reset: Duration::millis(1),
            slow_overload_threshold: 32,
            drain_batch: 32,
        }
    }
}

#[derive(Debug, Clone)]
struct FlowPrio {
    priority: usize,
    bytes_at_level: u64,
    last_packet: Time,
}

/// MPQ statistics.
#[derive(Debug, Default, Clone)]
pub struct MpqStats {
    /// Priority demotions.
    pub demotions: u64,
    /// Idle-age resets back to top priority.
    pub resets: u64,
}

/// The MPQ policy.
pub struct MpqPolicy {
    cfg: MpqConfig,
    credits: CreditManager,
    flows: FlowMap<FlowPrio>,
    stats: MpqStats,
}

impl MpqPolicy {
    /// An MPQ scheduler with the given tuning.
    pub fn new(cfg: MpqConfig) -> MpqPolicy {
        MpqPolicy {
            credits: CreditManager::new(cfg.credit_total),
            flows: FlowMap::new(),
            cfg,
            stats: MpqStats::default(),
        }
    }

    /// Current priority of a flow (0 = highest).
    #[must_use]
    pub fn priority(&self, flow: FlowId) -> Option<usize> {
        self.flows.get(&flow).map(|f| f.priority)
    }

    /// Read-only statistics.
    pub fn stats(&self) -> &MpqStats {
        &self.stats
    }
}

impl IoPolicy for MpqPolicy {
    fn name(&self) -> &'static str {
        "MPQ"
    }

    fn on_flow_start(&mut self, st: &mut HostState, now: Time, flow: FlowId) {
        let queue = QueueId(st.flows.get(&flow).map(|f| f.core).unwrap_or(0));
        st.rmt.install(flow, SteerAction::FastPath { queue });
        st.nic_arm.execute(now, st.cfg.nic.arm_table_update);
        self.credits.add_flows(&[flow]);
        self.flows.insert(
            flow,
            FlowPrio {
                priority: 0,
                bytes_at_level: 0,
                last_packet: now,
            },
        );
    }

    fn on_flow_stop(&mut self, st: &mut HostState, now: Time, flow: FlowId) {
        st.rmt.remove(&flow);
        st.nic_arm.execute(now, st.cfg.nic.arm_table_update);
        self.credits.remove_flow(flow);
        self.flows.remove(&flow);
    }

    fn steer(&mut self, st: &mut HostState, now: Time, pkt: &Packet) -> SteerDecision {
        st.rmt.steer(&pkt.flow);
        let (slow_len, ring_free) = match st.flows.get(&pkt.flow) {
            Some(f) => (f.ring.parked_len(), f.ring.free()),
            None => return SteerDecision::Drop { loss: false },
        };
        let Some(p) = self.flows.get_mut(&pkt.flow) else {
            return SteerDecision::Drop { loss: false };
        };
        // Idle aging back to the top priority.
        if now.since(p.last_packet) > self.cfg.age_reset {
            if p.priority != 0 {
                self.stats.resets += 1;
            }
            p.priority = 0;
            p.bytes_at_level = 0;
        }
        p.last_packet = now;
        // Priority decay by bytes sent (PIAS).
        p.bytes_at_level += pkt.bytes;
        while p.priority < self.cfg.thresholds.len()
            && p.bytes_at_level >= self.cfg.thresholds[p.priority]
        {
            p.priority += 1;
            p.bytes_at_level = 0;
            self.stats.demotions += 1;
        }

        let mark = slow_len > self.cfg.slow_overload_threshold;
        let fast_eligible = p.priority < self.cfg.fast_priorities;
        if fast_eligible && ring_free > 0 && self.credits.try_consume(pkt.flow) {
            SteerDecision::FastPath { mark: false }
        } else {
            SteerDecision::SlowPath { mark }
        }
    }

    fn on_fast_drop(&mut self, _st: &mut HostState, _now: Time, flow: FlowId) {
        self.credits.release(flow, 1);
    }

    fn on_batch_consumed(
        &mut self,
        _st: &mut HostState,
        _now: Time,
        flow: FlowId,
        fast_pkts: u32,
        _slow_pkts: u32,
        _msgs: u32,
    ) {
        // MPQ has no lazy-release subtlety: credits return per batch.
        if fast_pkts > 0 {
            self.credits.release(flow, fast_pkts as u64);
        }
    }

    fn fill_metrics(&self, out: &mut SnapshotBuilder) {
        out.counter(
            "ceio_mpq_demotions_total",
            "PIAS priority demotions (byte thresholds crossed).",
            self.stats.demotions,
        );
        out.counter(
            "ceio_mpq_resets_total",
            "Idle-age resets back to the top priority.",
            self.stats.resets,
        );
    }

    fn on_driver_poll(&mut self, st: &mut HostState, now: Time, flow: FlowId) -> DrainRequest {
        let Some(f) = st.flows.get(&flow) else {
            return DrainRequest::NONE;
        };
        if f.ring.fetching() >= 2 * self.cfg.drain_batch {
            return DrainRequest::NONE;
        }
        if f.ring.slow_drainable(now) {
            DrainRequest {
                fetch: self.cfg.drain_batch,
                sync: false,
            }
        } else {
            DrainRequest::NONE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_are_geometric_by_default() {
        let c = MpqConfig::default();
        assert!(c.thresholds.windows(2).all(|w| w[1] > w[0]));
        assert_eq!(c.fast_priorities, c.thresholds.len());
    }

    #[test]
    fn policy_starts_every_flow_at_top_priority() {
        let p = MpqPolicy::new(MpqConfig::default());
        assert!(p.priority(FlowId(0)).is_none());
        assert_eq!(p.stats().demotions, 0);
    }
}
