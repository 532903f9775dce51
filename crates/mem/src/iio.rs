//! The Integrated I/O (IIO) buffer.
//!
//! PCIe DMA writes land here (Fig. 2, stage ②) and the memory controller
//! drains them into the LLC or DRAM (stage ③). Two roles in the
//! reproduction:
//!
//! 1. **Backpressure**: when the buffer is full the PCIe DMA engine stalls —
//!    the §2.2 mechanism by which slow host-side draining exhausts PCIe
//!    credits and blocks CPU-bypass flows.
//! 2. **Congestion signal**: HostCC's kernel module monitors IIO occupancy;
//!    by the time occupancy is visibly elevated, the LLC is already
//!    thrashing — the "slow response" limitation (§2.3).

/// Statistics exported by the IIO buffer.
#[derive(Debug, Default, Clone)]
pub struct IioStats {
    /// Accepted pushes.
    pub accepted: u64,
    /// Rejected pushes (buffer full: PCIe stall).
    pub rejected: u64,
    /// High-water mark of occupancy in bytes.
    pub peak_bytes: u64,
}

/// Byte-accounted occupancy buffer between the PCIe DMA engine and the
/// memory controller.
#[derive(Debug)]
pub struct IioBuffer {
    capacity_bytes: u64,
    occupancy_bytes: u64,
    stats: IioStats,
}

impl IioBuffer {
    /// A buffer with the given capacity.
    pub fn new(capacity_bytes: u64) -> IioBuffer {
        IioBuffer {
            capacity_bytes,
            occupancy_bytes: 0,
            stats: IioStats::default(),
        }
    }

    /// Attempt to stage `bytes` of an inbound DMA write. Returns `false`
    /// (and counts a stall) when the buffer cannot hold them.
    pub fn try_push(&mut self, bytes: u64) -> bool {
        if self.occupancy_bytes + bytes > self.capacity_bytes {
            self.stats.rejected += 1;
            return false;
        }
        self.occupancy_bytes += bytes;
        self.stats.accepted += 1;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.occupancy_bytes);
        true
    }

    /// Drain `bytes` after the memory controller has retired them.
    pub fn pop(&mut self, bytes: u64) {
        debug_assert!(
            bytes <= self.occupancy_bytes,
            "IIO drain of {bytes} exceeds occupancy {}",
            self.occupancy_bytes
        );
        self.occupancy_bytes = self.occupancy_bytes.saturating_sub(bytes);
    }

    /// Current occupancy in bytes.
    #[inline]
    pub fn occupancy(&self) -> u64 {
        self.occupancy_bytes
    }

    /// Occupancy as a fraction of capacity, in `[0, 1]`.
    pub fn occupancy_fraction(&self) -> f64 {
        if self.capacity_bytes == 0 {
            return 0.0;
        }
        self.occupancy_bytes as f64 / self.capacity_bytes as f64
    }

    /// Configured capacity.
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.capacity_bytes
    }

    /// Read-only statistics.
    #[inline]
    pub fn stats(&self) -> &IioStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_until_capacity() {
        let mut iio = IioBuffer::new(4096);
        assert!(iio.try_push(2048));
        assert!(iio.try_push(2048));
        assert!(!iio.try_push(1));
        assert_eq!(iio.stats().accepted, 2);
        assert_eq!(iio.stats().rejected, 1);
    }

    #[test]
    fn pop_frees_space() {
        let mut iio = IioBuffer::new(2048);
        assert!(iio.try_push(2048));
        iio.pop(2048);
        assert!(iio.try_push(2048));
        assert_eq!(iio.occupancy(), 2048);
    }

    #[test]
    fn occupancy_fraction_tracks() {
        let mut iio = IioBuffer::new(1000);
        iio.try_push(250);
        assert!((iio.occupancy_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(IioBuffer::new(0).occupancy_fraction(), 0.0);
    }

    #[test]
    fn peak_high_water_mark() {
        let mut iio = IioBuffer::new(4096);
        iio.try_push(1000);
        iio.try_push(3000);
        iio.pop(4000);
        iio.try_push(100);
        assert_eq!(iio.stats().peak_bytes, 4000);
    }
}
