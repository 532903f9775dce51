//! ShRing: networking with shared receive rings (Pismenny et al., OSDI'23).
//!
//! ShRing aggregates all flows' RX buffers into one shared ring sized
//! below the LLC, so in-flight I/O data can never exceed the cache and
//! DDIO never evicts unconsumed packets. The cost (§2.3): the budget is
//! *fixed*. As the ring approaches its capacity the only safety valves are
//! triggering the network CCA (ECN marks) and, at the hard limit, dropping
//! — so ingress rate is repeatedly forced down, and a newly-arrived flow
//! (e.g. a CPU-bypass tenant) consumes budget previously available to
//! CPU-involved flows, throttling them even though the LLC itself is fine.
//!
//! Model note: the paper's artifact implements an actual multi-consumer
//! shared ring; what its evaluation (and CEIO's critique) exercises is the
//! *shared fixed capacity* and its CCA coupling, which this policy
//! enforces exactly — as a global cap across the per-flow rings — while
//! leaving per-ring mechanics to the machine. The paper configures 4096
//! entries against a 12 MB LLC; with this model's explicit 6 MB DDIO
//! partition the same "ring < cache" sizing rule gives 2560 × 2 KB = 5 MB.

use ceio_host::{HostState, IoPolicy, SteerDecision};
use ceio_net::{FlowId, Packet};
use ceio_sim::Time;

/// ShRing tuning.
#[derive(Debug, Clone)]
pub struct ShRingConfig {
    /// Shared ring capacity in entries; `entries × buf_bytes` must stay
    /// below the DDIO-reachable LLC capacity for the scheme to work.
    pub entries: u64,
    /// Occupancy (entries) above which arrivals are ECN-marked to push
    /// senders off before the hard limit.
    pub mark_threshold: u64,
}

impl Default for ShRingConfig {
    fn default() -> Self {
        ShRingConfig {
            entries: 2560,
            mark_threshold: 2560 * 7 / 8,
        }
    }
}

/// ShRing statistics.
#[derive(Debug, Default, Clone)]
pub struct ShRingStats {
    /// Packets admitted unmarked.
    pub admitted: u64,
    /// Packets admitted with a CCA-triggering mark.
    pub marked: u64,
    /// Packets dropped at the hard capacity limit.
    pub dropped: u64,
}

/// The ShRing policy.
pub struct ShRingPolicy {
    cfg: ShRingConfig,
    stats: ShRingStats,
}

impl ShRingPolicy {
    /// A ShRing with the given sizing.
    pub fn new(cfg: ShRingConfig) -> ShRingPolicy {
        ShRingPolicy {
            cfg,
            stats: ShRingStats::default(),
        }
    }

    /// Read-only statistics.
    pub fn stats(&self) -> &ShRingStats {
        &self.stats
    }

    /// The configured capacity.
    pub fn config(&self) -> &ShRingConfig {
        &self.cfg
    }
}

impl IoPolicy for ShRingPolicy {
    fn name(&self) -> &'static str {
        "ShRing"
    }

    fn on_flow_start(&mut self, _: &mut HostState, _: Time, _: FlowId) {}
    fn on_flow_stop(&mut self, _: &mut HostState, _: Time, _: FlowId) {}

    fn steer(&mut self, st: &mut HostState, _now: Time, _pkt: &Packet) -> SteerDecision {
        let outstanding = st.total_ring_outstanding();
        if outstanding >= self.cfg.entries {
            // Shared ring exhausted: unavoidable loss, CCA via drop.
            self.stats.dropped += 1;
            SteerDecision::Drop { loss: true }
        } else if outstanding >= self.cfg.mark_threshold {
            // Near-full: trigger the CCA to avoid the loss (the frequent
            // trigger the paper blames for ShRing's slow ingress rate).
            self.stats.marked += 1;
            SteerDecision::FastPath { mark: true }
        } else {
            self.stats.admitted += 1;
            SteerDecision::FastPath { mark: false }
        }
    }

    fn on_batch_consumed(&mut self, _: &mut HostState, _: Time, _: FlowId, _: u32, _: u32, _: u32) {
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizing_stays_below_ddio_partition() {
        let c = ShRingConfig::default();
        assert!(c.entries * 2048 <= 6 << 20, "ring must fit the DDIO slice");
        assert!(c.mark_threshold < c.entries);
    }
}
