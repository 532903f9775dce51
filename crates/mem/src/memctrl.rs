//! The memory controller: single entry point tying IIO, LLC, and DRAM
//! together for the host machine.
//!
//! Responsibilities (Fig. 2, stage ③ plus the CPU-side accesses of stage ⑤):
//!
//! * Retire inbound DMA writes from the IIO buffer into the LLC (DDIO on)
//!   or DRAM (DDIO off), charging DRAM bandwidth for every DDIO eviction.
//! * Serve CPU reads of I/O buffers: LLC hit at hit latency, miss at DRAM
//!   latency including queueing.
//! * Serve application memory traffic (copies) through the same DRAM server
//!   so copies contend with miss fills, reproducing the LineFS copy-miss
//!   interaction of §6.4.

use crate::dram::Dram;
use crate::iio::IioBuffer;
use crate::llc::BufferId;
use crate::model::Llc;
use crate::params::MemParams;
use ceio_sim::Time;

/// Result of retiring one DMA write.
#[derive(Debug, Clone)]
pub struct DmaWriteOutcome {
    /// Instant the write is retired (descriptor can complete).
    pub completion: Time,
    /// Buffers evicted from the DDIO partition by this insertion.
    pub evicted: Vec<BufferId>,
    /// Whether the write could not be staged (IIO full). When `true` the
    /// DMA engine must retry; `completion` is meaningless.
    pub stalled: bool,
}

/// Result of one CPU read of an I/O buffer.
#[derive(Debug, Clone, Copy)]
pub struct CpuReadOutcome {
    /// Instant the data is available to the core.
    pub ready: Time,
    /// Whether the read hit in the LLC.
    pub hit: bool,
}

/// The host memory controller model.
#[derive(Debug)]
pub struct MemoryController {
    params: MemParams,
    /// The selected LLC model (public: policies inspect occupancy).
    pub llc: Llc,
    /// DRAM bandwidth server (public: experiments read stats).
    pub dram: Dram,
    /// IIO staging buffer (public: HostCC monitors occupancy).
    pub iio: IioBuffer,
    /// Evictions of the latest retire, reused across retires so a DMA
    /// write never allocates.
    evicted: Vec<BufferId>,
}

impl MemoryController {
    /// Build a controller from parameters.
    pub fn new(params: MemParams) -> MemoryController {
        MemoryController {
            llc: Llc::from_params(&params),
            dram: Dram::new(params.dram_bandwidth, params.dram_base_latency),
            iio: IioBuffer::new(params.iio_capacity_bytes),
            evicted: Vec::new(),
            params,
        }
    }

    /// The configuration this controller was built with.
    #[inline]
    pub fn params(&self) -> &MemParams {
        &self.params
    }

    /// Stage an inbound DMA write in the IIO buffer. Returns `false` when
    /// the buffer is full (the PCIe TLP cannot be accepted: backpressure).
    pub fn stage(&mut self, bytes: u64) -> bool {
        self.iio.try_push(bytes)
    }

    /// Retire a staged DMA write of `bytes` into buffer `id`, returning the
    /// retire instant.
    ///
    /// With DDIO enabled the data allocates into the LLC partition. When the
    /// partition is *not* overflowing, the write retires at LLC speed; when
    /// it evicts dirty I/O data, the retire is gated on the eviction
    /// writeback draining to DRAM — this is how LLC thrashing backs pressure
    /// into the IIO buffer (and from there into PCIe credits), producing the
    /// HostCC congestion signal *after* misses have already begun (§2.3).
    /// With DDIO disabled the write goes straight to DRAM.
    pub fn retire(&mut self, now: Time, id: BufferId, bytes: u64) -> Time {
        self.evicted.clear();
        if self.params.ddio_enabled {
            self.llc.insert(id, bytes, &mut self.evicted);
            let mut done = now + self.params.llc_hit_latency;
            for _ in 0..self.evicted.len() {
                done = done.max(self.dram.request(now, bytes));
            }
            done
        } else {
            self.llc.bypass(bytes);
            self.dram.request(now, bytes)
        }
    }

    /// The retire scheduled by [`MemoryController::retire`] completed: drain
    /// the staged bytes from the IIO buffer.
    pub fn retire_done(&mut self, bytes: u64) {
        self.iio.pop(bytes);
    }

    /// Retire a staged DMA write *without* DDIO allocation: the data goes
    /// straight to DRAM and never occupies the LLC's I/O partition. Used
    /// for slow-path drain completions — cold-path data fetched on demand
    /// and read once, which CEIO deliberately keeps out of the cache so
    /// draining cannot flush fast-path residents (§4.1 Q2).
    pub fn retire_uncached(&mut self, now: Time, bytes: u64) -> Time {
        self.dram.request(now, bytes)
    }

    /// CPU read of an uncached (slow-path) buffer: always served by DRAM,
    /// not counted against the DDIO partition's hit/miss statistics (it
    /// was never a cache resident).
    pub fn read_uncached(&mut self, now: Time, bytes: u64) -> Time {
        self.dram.request(now, bytes)
    }

    /// Convenience for tests and simple callers: stage + retire +
    /// retire-done in one step (no cross-event IIO occupancy).
    pub fn dma_write(&mut self, now: Time, id: BufferId, bytes: u64) -> DmaWriteOutcome {
        if !self.stage(bytes) {
            return DmaWriteOutcome {
                completion: now,
                evicted: Vec::new(),
                stalled: true,
            };
        }
        let completion = self.retire(now, id, bytes);
        self.retire_done(bytes);
        DmaWriteOutcome {
            completion,
            evicted: self.evicted.clone(),
            stalled: false,
        }
    }

    /// CPU read of buffer `id` (`bytes` long): LLC hit or DRAM miss fill.
    pub fn cpu_read(&mut self, now: Time, id: BufferId, bytes: u64) -> CpuReadOutcome {
        if self.params.ddio_enabled && self.llc.lookup(id) {
            CpuReadOutcome {
                ready: now + self.params.llc_hit_latency,
                hit: true,
            }
        } else {
            if !self.params.ddio_enabled {
                // Keep miss accounting meaningful with DDIO off.
                self.llc.lookup(id);
            }
            CpuReadOutcome {
                ready: self.dram.request(now, bytes),
                hit: false,
            }
        }
    }

    /// Application memory traffic of `bytes` (e.g. a payload copy): charged
    /// to DRAM bandwidth; returns completion.
    ///
    /// §6.4: copy destinations are usually not LLC-resident, so copies are
    /// modelled as DRAM traffic end-to-end.
    pub fn app_copy(&mut self, now: Time, bytes: u64) -> Time {
        self.dram.request(now, bytes)
    }

    /// The CPU finished consuming buffer `id`: free its LLC residency.
    pub fn consume(&mut self, id: BufferId) {
        self.llc.consume(id);
    }

    /// LLC miss rate observed so far.
    pub fn miss_rate(&self) -> f64 {
        self.llc.stats().miss_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceio_sim::Duration;

    fn ctrl() -> MemoryController {
        MemoryController::new(MemParams::default())
    }

    #[test]
    fn ddio_write_retires_at_llc_speed() {
        let mut c = ctrl();
        let out = c.dma_write(Time(0), BufferId(1), 2048);
        assert!(!out.stalled);
        assert!(out.evicted.is_empty());
        assert_eq!(out.completion, Time(0) + c.params().llc_hit_latency);
    }

    #[test]
    fn bypass_write_pays_dram() {
        let mut c = MemoryController::new(MemParams {
            ddio_enabled: false,
            ..MemParams::default()
        });
        let out = c.dma_write(Time(0), BufferId(1), 2048);
        assert!(out.completion >= Time(0) + c.params().dram_base_latency);
    }

    #[test]
    fn ddio_disabled_counts_bypasses_and_caches_nothing() {
        let mut c = MemoryController::new(MemParams {
            ddio_enabled: false,
            ..MemParams::default()
        });
        c.dma_write(Time(0), BufferId(1), 2048);
        c.dma_write(Time(1), BufferId(2), 2048);
        assert_eq!(c.llc.stats().bypasses, 2);
        assert_eq!(c.llc.stats().insertions, 0);
        assert_eq!(c.llc.occupancy(), 0);
        // The later CPU read records the compulsory miss.
        let r = c.cpu_read(Time(100), BufferId(1), 2048);
        assert!(!r.hit);
        assert_eq!(c.llc.stats().misses, 1);
    }

    #[test]
    fn read_hits_after_ddio_write() {
        let mut c = ctrl();
        c.dma_write(Time(0), BufferId(1), 2048);
        let r = c.cpu_read(Time(100), BufferId(1), 2048);
        assert!(r.hit);
        assert_eq!(r.ready, Time(100) + c.params().llc_hit_latency);
    }

    #[test]
    fn read_misses_after_eviction_and_pays_dram() {
        let mut c = MemoryController::new(MemParams {
            ddio_bytes: 2048, // single-buffer partition
            ..MemParams::default()
        });
        c.dma_write(Time(0), BufferId(1), 2048);
        let out = c.dma_write(Time(10), BufferId(2), 2048);
        assert_eq!(out.evicted, vec![BufferId(1)]);
        let r = c.cpu_read(Time(100), BufferId(1), 2048);
        assert!(!r.hit);
        assert!(r.ready >= Time(100) + c.params().dram_base_latency);
    }

    #[test]
    fn evictions_consume_dram_bandwidth() {
        let mut c = MemoryController::new(MemParams {
            ddio_bytes: 2048,
            ..MemParams::default()
        });
        c.dma_write(Time(0), BufferId(1), 2048);
        let before = c.dram.stats().bytes_served;
        c.dma_write(Time(0), BufferId(2), 2048); // evicts 1 -> writeback
        assert_eq!(c.dram.stats().bytes_served, before + 2048);
    }

    #[test]
    fn iio_full_stalls_dma() {
        let mut c = MemoryController::new(MemParams {
            iio_capacity_bytes: 1024,
            ..MemParams::default()
        });
        let out = c.dma_write(Time(0), BufferId(1), 2048);
        assert!(out.stalled);
        assert_eq!(c.iio.stats().rejected, 1);
    }

    #[test]
    fn consume_releases_llc_space() {
        let mut c = MemoryController::new(MemParams {
            ddio_bytes: 4096,
            ..MemParams::default()
        });
        c.dma_write(Time(0), BufferId(1), 2048);
        c.dma_write(Time(0), BufferId(2), 2048);
        c.consume(BufferId(1));
        let out = c.dma_write(Time(10), BufferId(3), 2048);
        assert!(
            out.evicted.is_empty(),
            "freed space should absorb the write"
        );
    }

    #[test]
    fn app_copy_contends_with_miss_fills() {
        let mut c = ctrl();
        let t1 = c.app_copy(Time(0), 1_000_000);
        // A miss fill right after the big copy queues behind it.
        let r = c.cpu_read(Time(0), BufferId(99), 2048);
        assert!(!r.hit);
        assert!(r.ready > t1 - Duration::nanos(1));
    }

    #[test]
    fn miss_rate_aggregates() {
        let mut c = ctrl();
        c.dma_write(Time(0), BufferId(1), 2048);
        c.cpu_read(Time(1), BufferId(1), 2048); // hit
        c.cpu_read(Time(2), BufferId(2), 2048); // miss (never written)
        assert!((c.miss_rate() - 0.5).abs() < 1e-12);
    }
}
