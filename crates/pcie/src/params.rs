//! PCIe parameters, defaulted to the paper's testbed: PCIe 5.0 ×16 between a
//! BlueField-3 and the host (§2.3).

use ceio_sim::{Bandwidth, Duration};

/// Configuration of the PCIe interconnect model.
#[derive(Debug, Clone)]
pub struct PcieParams {
    /// Effective per-direction bandwidth after encoding/DLLP overheads.
    /// PCIe 5.0 ×16 raw is 64 GB/s; ~55 GB/s is the practical ceiling.
    pub bandwidth: Bandwidth,
    /// Max TLP payload size in bytes (typical x86 server: 256 B).
    pub max_payload_size: u64,
    /// Per-TLP header + framing overhead in bytes (TLP header, sequence,
    /// LCRC, framing ≈ 24 B).
    pub tlp_overhead: u64,
    /// One-way propagation/pipeline latency (switching, flit buffering).
    pub propagation: Duration,
    /// Maximum outstanding DMA writes (posted-write credits).
    pub max_inflight_writes: u32,
    /// Maximum outstanding DMA reads (non-posted credits).
    pub max_inflight_reads: u32,
    /// Latency of an MMIO register write (doorbell) as seen by the CPU.
    pub mmio_write: Duration,
    /// Latency of an MMIO register read as seen by the CPU.
    pub mmio_read: Duration,
}

impl Default for PcieParams {
    fn default() -> Self {
        PcieParams {
            bandwidth: Bandwidth::gibps(55),
            max_payload_size: 256,
            tlp_overhead: 24,
            propagation: Duration::nanos(350),
            max_inflight_writes: 256,
            max_inflight_reads: 64,
            mmio_write: Duration::nanos(100),
            mmio_read: Duration::nanos(400),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nic_to_cpu_round_trip_matches_cited_range() {
        // §3 cites up to 1000 ns for data traversal over PCIe; our one-way
        // propagation keeps a read round trip (2 propagations + MMIO) within
        // that order of magnitude.
        let p = PcieParams::default();
        let rt = p.propagation + p.propagation + p.mmio_write;
        assert!(rt.as_nanos() >= 700 && rt.as_nanos() <= 1100, "{rt}");
    }
}
