//! Memory hierarchy parameters, defaulted to the paper's testbed (§2.3/§4.1):
//! Intel Xeon Silver 4309Y — 12 MB LLC, 6 of 12 ways reachable by DDIO,
//! DDR4-3200 on 8 channels, 2 KB I/O buffers.

use ceio_sim::{Bandwidth, Duration};

use crate::setassoc::{SetAssocParams, LINE_BYTES};

/// Which LLC model backs the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LlcModelKind {
    /// Seed flat LRU byte pool over the DDIO partition. The default —
    /// golden CSVs are pinned against this model.
    #[default]
    Pool,
    /// Way-partitioned set-associative model ([`crate::SetAssocLlc`]):
    /// S sets × `total_ways` ways of 64-byte lines, with a configurable
    /// DDIO slice and an application antagonist in the remaining ways.
    SetAssoc,
}

/// Configuration of the host memory hierarchy model.
#[derive(Debug, Clone)]
pub struct MemParams {
    /// Total LLC size in bytes (sets the set count of the set-associative
    /// model; reporting-only for the pool, whose I/O slice is `ddio_bytes`).
    pub llc_total_bytes: u64,
    /// DDIO-reachable LLC partition in bytes *for the pool model*. With
    /// 2 KB buffers this yields the paper's `C_total = 3000` credits
    /// (Eq. 1). The set-associative model derives its partition from
    /// `ddio_ways / total_ways` instead — see [`MemParams::ddio_partition_bytes`].
    pub ddio_bytes: u64,
    /// LLC hit load-to-use latency.
    pub llc_hit_latency: Duration,
    /// DRAM base load latency (unloaded).
    pub dram_base_latency: Duration,
    /// Aggregate DRAM bandwidth across all channels.
    pub dram_bandwidth: Bandwidth,
    /// IIO buffer capacity in bytes (PCIe write-pending staging).
    pub iio_capacity_bytes: u64,
    /// Whether DDIO is enabled (DMA writes allocate into the LLC). When
    /// false every DMA write bypasses the cache straight to DRAM, counted
    /// in `LlcStats::bypasses`.
    pub ddio_enabled: bool,
    /// LLC associativity: total ways per set (§4.1 testbed: 12).
    pub total_ways: u32,
    /// Ways per set reachable by DDIO (§4.1 testbed: 6 of 12).
    pub ddio_ways: u32,
    /// Which LLC model to build. `Pool` (default) preserves seed behaviour
    /// bit-for-bit; `SetAssoc` enables the way-partitioned model.
    pub llc_model: LlcModelKind,
    /// Set-associative model only: application antagonist line touches per
    /// I/O insertion (0 disables the antagonist entirely).
    pub app_lines_per_insert: u32,
    /// Set-associative model only: how many of the top DDIO ways the
    /// antagonist may also allocate into. 0 (default) keeps the application
    /// and I/O partitions disjoint.
    pub app_overlap_ways: u32,
}

impl Default for MemParams {
    fn default() -> Self {
        MemParams {
            llc_total_bytes: 12 << 20,
            // 6 of 12 ways for DDIO, as configured in §4.1.
            ddio_bytes: 6 << 20,
            llc_hit_latency: Duration::nanos(20),
            dram_base_latency: Duration::nanos(90),
            // 8 × DDR4-3200 is ≈204 GB/s peak, but the I/O path issues
            // scattered buffer-grain reads/writes (miss fills, DDIO
            // eviction writebacks, payload copies) whose effective
            // bandwidth is a fraction of peak — the "poor scalability of
            // concurrent DRAM accesses" of §2.2. 64 GB/s effective makes a
            // fully thrashing 200 Gbps receive path (writebacks + miss
            // fills ≈ 50 GB/s) saturate memory, which is what backs
            // pressure into the IIO buffer and produces HostCC's signal.
            dram_bandwidth: Bandwidth::gibps(64),
            // Typical IIO write-pending capacity is tens of KB; 128 KB keeps
            // the HostCC signal responsive without being instantaneous.
            iio_capacity_bytes: 128 << 10,
            ddio_enabled: true,
            total_ways: 12,
            ddio_ways: 6,
            llc_model: LlcModelKind::default(),
            app_lines_per_insert: 4,
            app_overlap_ways: 0,
        }
    }
}

impl MemParams {
    /// Bytes of LLC the DDIO partition spans under the selected model: the
    /// raw `ddio_bytes` slice for the pool, or the way-proportional slice
    /// `llc_total_bytes * ddio_ways / total_ways` for the set-associative
    /// model. This is the `Size_LLC` that enters Eq. 1, so changing
    /// `ddio_ways` re-derives the credit total automatically.
    pub fn ddio_partition_bytes(&self) -> u64 {
        match self.llc_model {
            LlcModelKind::Pool => self.ddio_bytes,
            LlcModelKind::SetAssoc => {
                (self.llc_total_bytes / u64::from(self.total_ways).max(1))
                    * u64::from(self.ddio_ways)
            }
        }
    }

    /// The paper's credit total for a given I/O buffer size (Eq. 1):
    /// `C_total = Size_LLC / Size_buf` over the DDIO partition of the
    /// selected model.
    pub fn credit_total(&self, buf_size: u64) -> u64 {
        self.ddio_partition_bytes() / buf_size.max(1)
    }

    /// Number of sets of the set-associative geometry
    /// (`llc_total_bytes / (total_ways * 64)`).
    pub fn sets(&self) -> u64 {
        self.llc_total_bytes / (u64::from(self.total_ways).max(1) * LINE_BYTES)
    }

    /// The set-associative construction parameters this config describes.
    pub fn set_assoc_params(&self) -> SetAssocParams {
        SetAssocParams {
            sets: self.sets() as usize,
            total_ways: self.total_ways as usize,
            ddio_ways: self.ddio_ways as usize,
            app_lines_per_insert: self.app_lines_per_insert,
            app_overlap_ways: self.app_overlap_ways as usize,
        }
    }

    /// Reject geometries the models cannot represent. Called from
    /// `HostConfig::validate`, and by the CLIs before building a machine.
    pub fn validate(&self) -> Result<(), String> {
        if self.total_ways == 0 {
            return Err("mem.total_ways must be >= 1".to_string());
        }
        if self.ddio_ways == 0 {
            return Err(
                "mem.ddio_ways must be >= 1 (disable DDIO with ddio_enabled instead)".to_string(),
            );
        }
        if self.ddio_ways > self.total_ways {
            return Err(format!(
                "mem.ddio_ways ({}) must be <= mem.total_ways ({})",
                self.ddio_ways, self.total_ways
            ));
        }
        if self.app_overlap_ways > self.ddio_ways {
            return Err(format!(
                "mem.app_overlap_ways ({}) must be <= mem.ddio_ways ({})",
                self.app_overlap_ways, self.ddio_ways
            ));
        }
        if self.llc_model == LlcModelKind::SetAssoc && self.sets() == 0 {
            return Err(format!(
                "mem.llc_total_bytes ({}) too small for {} ways of {}-byte lines",
                self.llc_total_bytes, self.total_ways, LINE_BYTES
            ));
        }
        // `SetAssocLlc` packs way indices into `u16` and slot indices
        // into `u32` codes.
        if self.llc_model == LlcModelKind::SetAssoc
            && (self.total_ways > u32::from(u16::MAX)
                || self.sets().saturating_mul(u64::from(self.total_ways))
                    >= u64::from(u32::MAX - 1))
        {
            return Err(format!(
                "mem: set-associative geometry too large ({} sets of {} ways; \
                 at most 65535 ways and 2^32 - 2 lines)",
                self.sets(),
                self.total_ways
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_credit_total() {
        // §4.1: 6 MB DDIO partition / 2 KB buffers = 3000 credits.
        let p = MemParams::default();
        assert_eq!(p.credit_total(2048), 3072); // 6 MiB vs paper's 6 MB: 3072
    }

    #[test]
    fn credit_total_guards_zero_buf() {
        let p = MemParams::default();
        assert_eq!(p.credit_total(0), p.ddio_bytes);
    }

    #[test]
    fn setassoc_partition_matches_pool_at_default_geometry() {
        // 12 MiB * 6/12 ways == the pool's 6 MiB slice: switching models at
        // the default geometry does not change Eq. 1's input.
        let pool = MemParams::default();
        let sa = MemParams {
            llc_model: LlcModelKind::SetAssoc,
            ..MemParams::default()
        };
        assert_eq!(pool.ddio_partition_bytes(), sa.ddio_partition_bytes());
        assert_eq!(sa.credit_total(2048), 3072);
    }

    #[test]
    fn credit_total_scales_with_ddio_ways() {
        let mk = |ways: u32| MemParams {
            llc_model: LlcModelKind::SetAssoc,
            ddio_ways: ways,
            ..MemParams::default()
        };
        // 12 MiB / 12 ways = 1 MiB per way; 2 KB buffers = 512 credits/way.
        assert_eq!(mk(2).credit_total(2048), 1024);
        assert_eq!(mk(4).credit_total(2048), 2048);
        assert_eq!(mk(6).credit_total(2048), 3072);
        assert_eq!(mk(8).credit_total(2048), 4096);
    }

    #[test]
    fn default_geometry_sets() {
        // 12 MiB / (12 ways * 64 B) = 16384 sets.
        assert_eq!(MemParams::default().sets(), 16384);
    }

    #[test]
    fn validate_rejects_nonsense_geometry() {
        let base = MemParams::default;
        assert!(base().validate().is_ok());
        let p = MemParams {
            ddio_ways: 0,
            ..base()
        };
        assert!(p.validate().is_err());
        let p = MemParams {
            ddio_ways: 13,
            ..base()
        };
        assert!(p.validate().is_err());
        let p = MemParams {
            total_ways: 0,
            ..base()
        };
        assert!(p.validate().is_err());
        let p = MemParams {
            app_overlap_ways: 7,
            ..base()
        };
        assert!(p.validate().is_err());
        let p = MemParams {
            llc_model: LlcModelKind::SetAssoc,
            llc_total_bytes: 64,
            ..base()
        };
        assert!(p.validate().is_err());
        let p = MemParams {
            llc_model: LlcModelKind::SetAssoc,
            llc_total_bytes: 1 << 40,
            ..base()
        };
        assert!(p.validate().is_err());
        let p = MemParams {
            llc_model: LlcModelKind::SetAssoc,
            total_ways: 70_000,
            ddio_ways: 6,
            llc_total_bytes: 1 << 30,
            ..base()
        };
        assert!(p.validate().is_err());
    }
}
