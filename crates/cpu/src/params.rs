//! CPU parameters, defaulted to the paper's Xeon Silver 4309Y cores pinned
//! one per flow, polling DPDK-style.

use ceio_sim::Duration;

/// Configuration of the CPU model.
#[derive(Debug, Clone)]
pub struct CpuParams {
    /// Per-packet driver overhead: descriptor parse, ring bookkeeping,
    /// buffer accounting. Paid per packet regardless of app.
    pub per_packet_overhead: Duration,
    /// Re-poll delay after an empty poll.
    pub poll_interval: Duration,
    /// Maximum packets taken per poll (DPDK burst).
    pub batch_size: usize,
    /// Cost of the head-pointer MMIO update after a batch completes.
    pub head_update: Duration,
}

impl Default for CpuParams {
    fn default() -> Self {
        CpuParams {
            per_packet_overhead: Duration::nanos(25),
            poll_interval: Duration::nanos(200),
            batch_size: 32,
            head_update: Duration::nanos(50),
        }
    }
}
