//! CEIO configuration and ablation switches.

use ceio_sim::Duration;

/// Configuration of the CEIO runtime.
#[derive(Debug, Clone)]
pub struct CeioConfig {
    /// Total credits, `C_total = Size_LLC / Size_buf` (Eq. 1), where
    /// `Size_LLC` is the *DDIO partition* of the selected LLC model: the
    /// raw byte slice for the pool, or `llc_total * ddio_ways/total_ways`
    /// for the way-partitioned model — so changing `ddio_ways` re-derives
    /// the credit pool (6 of 12 ways at 12 MiB and 2 KB buffers = 3072).
    /// Use `HostConfig::credit_total()` unless deliberately mis-sizing.
    pub credit_total: u64,
    /// Maximum slow-path packets fetched per driver poll (one DMA read).
    pub drain_batch: u32,
    /// `async_recv()` semantics for slow-path fetches (§4.2). `false`
    /// gives blocking `recv()` semantics — the Table 4 "w/o optimization"
    /// ablation.
    pub async_fetch: bool,
    /// Active-flow credit reallocation (§4.1 Q3). `false` disables
    /// recycling/reallocation — the other half of the Table 4 ablation.
    pub reallocate: bool,
    /// Controller polling period on the NIC ARM cores.
    pub controller_interval: Duration,
    /// A flow with no consumption or arrivals for this long is considered
    /// inactive and its credits are recycled (the paper's coarse 1 s timer
    /// backstops a faster drain-invoked detection; at simulation scale one
    /// knob covers both). Fast detection is what feeds the credit pool
    /// quickly enough to chase destination churn (Fig. 12).
    pub inactivity_timeout: Duration,
    /// Round-robin re-activation period for inactive flows (§4.1 Q3
    /// fairness backstop).
    pub rr_reactivate_interval: Duration,
    /// Phase exclusivity (§4.2): pause the fast path while slow-path
    /// packets exist so ordering is preserved by construction. Disabling
    /// this is an ablation that lets fast-path packets overtake parked
    /// slow-path ones; the machine counts the resulting ordering stalls.
    pub phase_exclusivity: bool,
    /// Remaining-credit level below which fast-path packets carry an ECN
    /// mark — the proactive "slow down before the cache fills" signal that
    /// distinguishes CEIO from reactive schemes (Table 1).
    pub credit_low_watermark: u64,
    /// Observed message size (packets per completed message) above which a
    /// flow is classified as CPU-bypass-like and deprioritized: its
    /// returning credits are reallocated to small-message flows (§4.1 Q3 —
    /// "higher priority based solely on network information, such as
    /// message size").
    pub bypass_msg_threshold: u64,
    /// Slow-path backlog (packets) above which CEIO judges production >
    /// consumption and echoes congestion to the sender's CCA — both as
    /// per-packet ECN marks on slow-path arrivals and as a controller-poll
    /// trigger (§4.1 Q2). Sized like a shallow DCTCP marking threshold.
    pub slow_overload_threshold: usize,
    /// On-NIC elastic-store occupancy fraction at which the controller
    /// enters *degraded mode*: the slow path is judged unusable (the store
    /// is about to reject writes) and CEIO falls back to the drop-based
    /// DDIO behaviour of the legacy datapath — fast path while credits
    /// last, drops otherwise — instead of parking into a full store.
    pub degraded_enter_fraction: f64,
    /// Occupancy fraction the store must fall back under before the
    /// controller *starts counting* calm polls toward leaving degraded
    /// mode (hysteresis: strictly below the enter threshold so the mode
    /// cannot flap at the boundary).
    pub degraded_exit_fraction: f64,
    /// Consecutive calm controller polls (occupancy under the exit
    /// fraction, no new store rejections) required to leave degraded mode.
    pub degraded_exit_polls: u32,
    /// Number of receive queues the flow-steering rules shard over (RSS).
    /// The credit ledger becomes hierarchical at `num_queues > 1`: one
    /// Eq. 1 partition per queue plus a global slack pool the controller
    /// rebalances each poll. `1` (the default) keeps the flat single-queue
    /// ledger and is bit-identical to the pre-sharding pipeline.
    pub num_queues: usize,
}

impl Default for CeioConfig {
    fn default() -> Self {
        CeioConfig {
            credit_total: (6 << 20) / 2048,
            drain_batch: 32,
            async_fetch: true,
            reallocate: true,
            controller_interval: Duration::micros(20),
            inactivity_timeout: Duration::micros(50),
            rr_reactivate_interval: Duration::micros(400),
            phase_exclusivity: true,
            credit_low_watermark: 64,
            bypass_msg_threshold: 64,
            slow_overload_threshold: 32,
            degraded_enter_fraction: 0.9,
            degraded_exit_fraction: 0.5,
            degraded_exit_polls: 3,
            num_queues: 1,
        }
    }
}

impl CeioConfig {
    /// The Table 4 "CEIO w/o optimization" variant: synchronous slow-path
    /// access and no credit reallocation.
    pub fn without_optimizations(mut self) -> CeioConfig {
        self.async_fetch = false;
        self.reallocate = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_flips_both_switches() {
        let c = CeioConfig::default().without_optimizations();
        assert!(!c.async_fetch);
        assert!(!c.reallocate);
        // Everything else untouched.
        assert_eq!(c.drain_batch, CeioConfig::default().drain_batch);
    }
}
