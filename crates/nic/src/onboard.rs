//! On-NIC memory: the elastic-buffer backing store.
//!
//! BlueField-3 exposes 16 GB of software-accessible onboard DRAM (§3). CEIO
//! parks slow-path packets here instead of dropping them. The model is a
//! bandwidth server (like host DRAM) with two BF-3-specific costs the paper
//! measures in §6.4: a base latency through the internal PCIe switch, and
//! lower sustained bandwidth than host DRAM. Byte-capacity accounting lets
//! experiments verify the elastic buffer never exceeds the device.

use ceio_chaos::{FaultInjector, FaultSite};
use ceio_sim::{Bandwidth, Duration, Time};
use ceio_telemetry::{TraceEvent, TraceKind, TraceRing};

/// On-NIC memory statistics.
#[derive(Debug, Default, Clone)]
pub struct OnboardStats {
    /// Bytes written into the elastic store.
    pub bytes_written: u64,
    /// Bytes read back out (drained to host).
    pub bytes_read: u64,
    /// Write attempts refused because capacity was exhausted.
    pub capacity_rejections: u64,
    /// Rejections injected by an armed chaos plan (a subset of
    /// `capacity_rejections`). Zero without chaos.
    pub injected_rejections: u64,
    /// Occupancy high-water mark in bytes.
    pub peak_bytes: u64,
}

/// The on-NIC DRAM model.
#[derive(Debug)]
pub struct OnboardMemory {
    capacity: u64,
    occupancy: u64,
    bandwidth: Bandwidth,
    base_latency: Duration,
    busy_until: Time,
    stats: OnboardStats,
    tracer: Option<TraceRing>,
    injector: Option<Box<FaultInjector>>,
}

impl OnboardMemory {
    /// A store with the given capacity, bandwidth, and access latency.
    pub fn new(capacity: u64, bandwidth: Bandwidth, base_latency: Duration) -> OnboardMemory {
        OnboardMemory {
            capacity,
            occupancy: 0,
            bandwidth,
            base_latency,
            busy_until: Time::ZERO,
            stats: OnboardStats::default(),
            tracer: None,
            injector: None,
        }
    }

    /// Arm deterministic fault injection (DRAM-store exhaustion).
    pub fn arm_chaos(&mut self, injector: FaultInjector) {
        self.injector = Some(Box::new(injector));
    }

    /// Per-site injection counters (empty when chaos is disarmed).
    pub fn chaos_stats(&self) -> Option<&ceio_chaos::ChaosStats> {
        self.injector.as_deref().map(FaultInjector::stats)
    }

    /// Arm event recording into a fresh drop-oldest ring of `cap` events.
    pub fn arm_trace(&mut self, cap: usize) {
        self.tracer = Some(TraceRing::new(cap));
    }

    /// Drain recorded events (and the dropped count), if armed.
    pub fn trace_take(&mut self) -> (Vec<TraceEvent>, u64) {
        match self.tracer.as_mut() {
            Some(r) => {
                let evs = r.events();
                let dropped = r.dropped();
                r.clear();
                (evs, dropped)
            }
            None => (Vec::new(), 0),
        }
    }

    #[inline]
    fn trace(&mut self, at: Time, kind: TraceKind, value: u64) {
        if let Some(r) = self.tracer.as_mut() {
            r.push(TraceEvent {
                at,
                flow: None,
                kind,
                value,
            });
        }
    }

    /// Stage `bytes` into the store at `now`. Returns the retire instant, or
    /// `None` if the store is out of capacity (the packet must be dropped —
    /// with 16 GB this only happens in adversarial tests).
    pub fn write(&mut self, now: Time, bytes: u64) -> Option<Time> {
        if let Some(inj) = self.injector.as_mut() {
            if inj.fire(FaultSite::OnboardExhaust) {
                // The store behaves as if the elastic region filled
                // mid-drain: refuse the write without mutating occupancy.
                self.stats.capacity_rejections += 1;
                self.stats.injected_rejections += 1;
                return None;
            }
        }
        if self.occupancy + bytes > self.capacity {
            self.stats.capacity_rejections += 1;
            return None;
        }
        self.occupancy += bytes;
        self.stats.bytes_written += bytes;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.occupancy);
        self.trace(now, TraceKind::OnboardWrite, bytes);
        Some(self.serve(now, bytes))
    }

    /// Read `bytes` back out (toward the host) at `now`; returns the instant
    /// the data is available at the NIC's DMA engine. Frees the capacity.
    pub fn read(&mut self, now: Time, bytes: u64) -> Time {
        debug_assert!(
            bytes <= self.occupancy,
            "onboard read of {bytes} exceeds occupancy {}",
            self.occupancy
        );
        self.occupancy = self.occupancy.saturating_sub(bytes);
        self.stats.bytes_read += bytes;
        self.trace(now, TraceKind::OnboardRead, bytes);
        self.serve(now, bytes)
    }

    fn serve(&mut self, now: Time, bytes: u64) -> Time {
        let start = self.busy_until.max(now);
        self.busy_until = start + self.bandwidth.transfer_time(bytes);
        self.busy_until + self.base_latency
    }

    /// Discard `bytes` without reading them out (flow teardown frees its
    /// parked packets; no data movement, so no bandwidth charge).
    pub fn discard(&mut self, bytes: u64) {
        debug_assert!(bytes <= self.occupancy, "onboard discard underflow");
        self.occupancy = self.occupancy.saturating_sub(bytes);
    }

    /// Bytes currently stored.
    #[inline]
    pub fn occupancy(&self) -> u64 {
        self.occupancy
    }

    /// Configured capacity.
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Read-only statistics.
    #[inline]
    pub fn stats(&self) -> &OnboardStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> OnboardMemory {
        // 36 GB/s, 200 ns switch penalty, tiny capacity for tests.
        OnboardMemory::new(8192, Bandwidth::gibps(36), Duration::nanos(200))
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut m = mem();
        let w = m.write(Time(0), 2048).unwrap();
        assert!(w >= Time(0) + Duration::nanos(200));
        assert_eq!(m.occupancy(), 2048);
        let r = m.read(w, 2048);
        assert!(r > w);
        assert_eq!(m.occupancy(), 0);
        assert_eq!(m.stats().bytes_read, 2048);
    }

    #[test]
    fn capacity_enforced() {
        let mut m = mem();
        assert!(m.write(Time(0), 8192).is_some());
        assert!(m.write(Time(0), 1).is_none());
        assert_eq!(m.stats().capacity_rejections, 1);
    }

    #[test]
    fn accesses_serialize_on_bandwidth() {
        let mut m = mem();
        let a = m.write(Time(0), 4096).unwrap();
        let b = m.write(Time(0), 4096).unwrap();
        assert!(b > a, "second access queues behind the first");
    }

    #[test]
    fn injected_exhaustion_rejects_without_state_change() {
        use ceio_chaos::FaultPlan;
        let mut m = mem();
        let plan = FaultPlan::new(3).with_rate(FaultSite::OnboardExhaust, 1.0);
        m.arm_chaos(plan.injector("onboard"));
        assert!(m.write(Time(0), 64).is_none());
        assert_eq!(m.occupancy(), 0);
        assert_eq!(m.stats().capacity_rejections, 1);
        assert_eq!(m.stats().injected_rejections, 1);
        assert_eq!(m.stats().bytes_written, 0);
        assert_eq!(
            m.chaos_stats()
                .expect("armed")
                .at(FaultSite::OnboardExhaust),
            1
        );
    }

    #[test]
    fn peak_occupancy_tracked() {
        let mut m = mem();
        m.write(Time(0), 4096);
        m.write(Time(0), 2048);
        m.read(Time(1000), 4096);
        assert_eq!(m.stats().peak_bytes, 6144);
        assert_eq!(m.occupancy(), 2048);
    }
}
