//! Whole-host configuration: one struct bundling every subsystem's
//! parameters plus the machine-level knobs experiments sweep.

use ceio_cpu::CpuParams;
use ceio_mem::MemParams;
use ceio_net::NetParams;
use ceio_nic::NicParams;
use ceio_pcie::PcieParams;
use ceio_sim::Duration;

/// Configuration of one simulated receive host.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Memory hierarchy parameters.
    pub mem: MemParams,
    /// PCIe parameters.
    pub pcie: PcieParams,
    /// NIC parameters.
    pub nic: NicParams,
    /// Network parameters.
    pub net: NetParams,
    /// CPU parameters.
    pub cpu: CpuParams,
    /// I/O buffer size (§4.1 uses 2 KB for a 1500 B MTU).
    pub buf_bytes: u64,
    /// Per-flow host RX ring capacity (descriptors).
    pub ring_entries: usize,
    /// NIC-internal staging capacity for packets awaiting DMA issue
    /// (MAC/packet buffer); overflow here is a drop.
    pub nic_staging_bytes: u64,
    /// Measurement window for time-series sampling.
    pub sample_window: Duration,
    /// Copy throughput of a core, expressed as ns per KiB copied
    /// (≈ 20 GB/s per core at the default 50 ns/KiB).
    pub copy_ns_per_kib: u64,
    /// Number of host cores serving flows. `None` dedicates one core per
    /// flow (the §2.3 setup); `Some(k)` shares `k` polling cores across all
    /// flows round-robin (the Fig. 12 thousands-of-flows setup).
    pub num_cores: Option<usize>,
    /// Number of receive queues the NIC shards arrivals over (RSS). Each
    /// queue owns an independent DMA issue pipeline and staging partition;
    /// `1` (the default) reproduces the single-queue pipeline exactly.
    /// Must be non-zero — [`HostConfig::validate`] rejects `0`.
    pub num_queues: usize,
    /// RNG seed for the whole run.
    pub seed: u64,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            mem: MemParams::default(),
            pcie: PcieParams::default(),
            nic: NicParams::default(),
            net: NetParams::default(),
            cpu: CpuParams::default(),
            buf_bytes: 2048,
            ring_entries: 1024,
            nic_staging_bytes: 256 << 10,
            sample_window: Duration::millis(1),
            copy_ns_per_kib: 50,
            num_cores: None,
            num_queues: 1,
            seed: 0xCE10,
        }
    }
}

impl HostConfig {
    /// The paper's credit total for this configuration (Eq. 1).
    pub fn credit_total(&self) -> u64 {
        self.mem.credit_total(self.buf_bytes)
    }

    /// Copy time on a core for `bytes` of memcpy.
    pub fn copy_time(&self, bytes: u64) -> Duration {
        Duration::nanos(bytes * self.copy_ns_per_kib / 1024)
    }

    /// A stable fingerprint of the full configuration (FNV-1a over its
    /// debug rendering). Two runs with different parameters get different
    /// fingerprints with overwhelming probability; the value is carried as
    /// the `config` label of `ceio_run_info` so archived snapshots stay
    /// attributable to the configuration that produced them.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in format!("{self:?}").bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Validate cross-field constraints. Returns a description of the
    /// first violation found, or `Ok(())`.
    ///
    /// A zero receive-queue count has no meaning (there would be no data
    /// path at all) and, silently clamped, would hide a caller bug — so it
    /// is rejected here and by the CLI flag parsers (`--queues 0` exits 2).
    pub fn validate(&self) -> Result<(), String> {
        if self.num_queues == 0 {
            return Err("num_queues must be >= 1 (zero receive queues leaves no data path)".into());
        }
        if self.ring_entries == 0 {
            return Err("ring_entries must be >= 1".into());
        }
        if self.buf_bytes == 0 {
            return Err("buf_bytes must be >= 1".into());
        }
        self.mem.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_credit_total_matches_eq1() {
        let c = HostConfig::default();
        assert_eq!(c.credit_total(), (6 << 20) / 2048);
    }

    #[test]
    fn validate_accepts_default_and_rejects_zero_queues() {
        let c = HostConfig::default();
        assert!(c.validate().is_ok());
        let bad = HostConfig {
            num_queues: 0,
            ..HostConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad_ring = HostConfig {
            ring_entries: 0,
            ..HostConfig::default()
        };
        assert!(bad_ring.validate().is_err());
        let bad_buf = HostConfig {
            buf_bytes: 0,
            ..HostConfig::default()
        };
        assert!(bad_buf.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_way_geometry() {
        let mut bad = HostConfig::default();
        bad.mem.ddio_ways = bad.mem.total_ways + 1;
        let err = bad.validate().expect_err("13 of 12 ways is nonsense");
        assert!(err.contains("ddio_ways"), "message names the field: {err}");
        let mut zero = HostConfig::default();
        zero.mem.ddio_ways = 0;
        assert!(zero.validate().is_err());
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        let a = HostConfig::default();
        let b = HostConfig {
            seed: a.seed + 1,
            ..HostConfig::default()
        };
        let c = HostConfig {
            num_queues: 4,
            ..HostConfig::default()
        };
        assert_eq!(a.fingerprint(), HostConfig::default().fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn copy_time_scales_linearly() {
        let c = HostConfig::default();
        assert_eq!(c.copy_time(1024), Duration::nanos(50));
        assert_eq!(c.copy_time(4096), Duration::nanos(200));
        assert_eq!(c.copy_time(0), Duration::ZERO);
    }
}
