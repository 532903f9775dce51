//! NIC parameters, defaulted to a BlueField-3-class DPU.

use ceio_sim::{Bandwidth, Duration};

/// Configuration of the SmartNIC model.
#[derive(Debug, Clone)]
pub struct NicParams {
    /// Per-queue RX descriptor ring capacity (entries).
    pub ring_entries: usize,
    /// On-NIC memory capacity (BlueField-3 carries 16 GB, §3).
    pub onboard_capacity: u64,
    /// On-NIC memory bandwidth: BlueField-3 carries DDR5 at ~80 GB/s peak;
    /// ~60 GB/s effective under the mixed write+read drain pattern. Still
    /// below host DRAM and reached through the internal PCIe switch (§6.4).
    pub onboard_bandwidth: Bandwidth,
    /// Extra access latency through the BF-3 internal PCIe switch (§6.4).
    pub onboard_base_latency: Duration,
    /// Firmware per-packet RX processing cost (descriptor fetch, steering).
    pub firmware_per_packet: Duration,
    /// ARM-core cost of one steering-table update (match-action rewrite).
    pub arm_table_update: Duration,
    /// ARM-core cost of one credit bookkeeping operation.
    pub arm_credit_op: Duration,
    /// Interval at which the on-NIC cores poll steering counters (§4.1).
    pub arm_poll_interval: Duration,
    /// Minimum gap between successive DMA descriptor issues **on one RX
    /// queue** (descriptor fetch + doorbell serialization in the queue's
    /// issue pipeline). This is the resource that multi-queue receive
    /// scales: each queue owns an independent issue pipeline, so N queues
    /// issue N descriptors per gap where one queue issues one. `ZERO`
    /// (the default) disables the gate entirely, keeping the single-queue
    /// pipeline bit-identical to the pre-sharding model.
    pub queue_issue_gap: Duration,
}

impl Default for NicParams {
    fn default() -> Self {
        NicParams {
            ring_entries: 1024,
            onboard_capacity: 16 << 30,
            onboard_bandwidth: Bandwidth::gibps(60),
            onboard_base_latency: Duration::nanos(200),
            firmware_per_packet: Duration::nanos(10),
            arm_table_update: Duration::nanos(150),
            arm_credit_op: Duration::nanos(40),
            arm_poll_interval: Duration::micros(1),
            queue_issue_gap: Duration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn onboard_is_slower_than_typical_host_dram() {
        let p = NicParams::default();
        assert!(p.onboard_bandwidth < Bandwidth::gibps(160));
        assert!(p.onboard_base_latency > Duration::nanos(90));
    }
}
