//! DRAM as a FIFO bandwidth server with base load latency.
//!
//! Every byte that moves to or from DRAM — DDIO evictions, CPU miss fills,
//! bypass DMA writes, application copies — serializes through this server.
//! Under load the queue grows and effective access latency rises beyond the
//! unloaded 90 ns, which is exactly the §2.2 mechanism by which LLC misses
//! slow *both* flow classes: CPU-involved flows stall on miss fills, and
//! CPU-bypass flows lose the memory bandwidth those fills consume.

use ceio_sim::{Bandwidth, Counter, Duration, Time};

/// Statistics exported by the DRAM model.
#[derive(Debug, Default, Clone)]
pub struct DramStats {
    /// Total bytes served (reads + writes).
    pub bytes_served: u64,
    /// Total requests served.
    pub requests: u64,
    /// Sum of queueing delays (ns) across requests, for mean-delay reporting.
    pub queueing_ns_sum: u64,
}

impl DramStats {
    /// Mean queueing delay per request.
    pub fn mean_queueing(&self) -> Duration {
        match self.queueing_ns_sum.checked_div(self.requests) {
            Some(mean) => Duration::nanos(mean),
            None => Duration::ZERO,
        }
    }
}

/// The DRAM bandwidth server.
#[derive(Debug)]
pub struct Dram {
    bandwidth: Bandwidth,
    base_latency: Duration,
    busy_until: Time,
    stats: DramStats,
    busy_accum: Counter,
}

impl Dram {
    /// A server with the given aggregate bandwidth and unloaded latency.
    pub fn new(bandwidth: Bandwidth, base_latency: Duration) -> Dram {
        Dram {
            bandwidth,
            base_latency,
            busy_until: Time::ZERO,
            stats: DramStats::default(),
            busy_accum: Counter::new(),
        }
    }

    /// Enqueue a transfer of `bytes` at time `now`; returns the completion
    /// instant (data available / write retired).
    ///
    /// FIFO service: the transfer starts when the channel frees up, occupies
    /// it for `bytes / bandwidth`, and the requester additionally pays the
    /// base load latency.
    pub fn request(&mut self, now: Time, bytes: u64) -> Time {
        let start = self.busy_until.max(now);
        let queueing = start.since(now);
        let service = self.bandwidth.transfer_time(bytes);
        self.busy_until = start + service;
        self.stats.bytes_served += bytes;
        self.stats.requests += 1;
        self.stats.queueing_ns_sum += queueing.as_nanos();
        self.busy_accum.add(service.as_nanos());
        self.busy_until + self.base_latency
    }

    /// Completion time the *next* request issued at `now` would see, without
    /// issuing it (used by admission decisions).
    pub fn probe(&self, now: Time, bytes: u64) -> Time {
        let start = self.busy_until.max(now);
        start + self.bandwidth.transfer_time(bytes) + self.base_latency
    }

    /// Instant at which the server becomes idle.
    #[inline]
    pub fn busy_until(&self) -> Time {
        self.busy_until
    }

    /// Current backlog relative to `now`.
    pub fn backlog(&self, now: Time) -> Duration {
        self.busy_until.since(now)
    }

    /// Fraction of `[window_start, now]` the server was busy, given the
    /// busy-time accumulated since the last call (coarse utilization).
    pub fn utilization_since(&mut self, window: Duration) -> f64 {
        let busy = self.busy_accum.take_delta();
        if window.as_nanos() == 0 {
            return 0.0;
        }
        (busy as f64 / window.as_nanos() as f64).min(1.0)
    }

    /// Read-only statistics.
    #[inline]
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        // 100 GB/s, 90 ns base latency: 1000 B serves in 10 ns.
        Dram::new(Bandwidth::gibps(100), Duration::nanos(90))
    }

    #[test]
    fn unloaded_request_pays_base_latency_plus_service() {
        let mut d = dram();
        let done = d.request(Time(0), 1000);
        assert_eq!(done, Time(10 + 90));
    }

    #[test]
    fn fifo_queueing_accumulates() {
        let mut d = dram();
        let a = d.request(Time(0), 1000);
        let b = d.request(Time(0), 1000);
        assert_eq!(a, Time(100));
        // Second request waits for the first's 10 ns of service.
        assert_eq!(b, Time(110));
        assert_eq!(d.stats().requests, 2);
        assert_eq!(d.stats().queueing_ns_sum, 10);
    }

    #[test]
    fn idle_gap_resets_queue() {
        let mut d = dram();
        d.request(Time(0), 1000);
        let done = d.request(Time(1_000), 1000);
        assert_eq!(done, Time(1_100));
        assert_eq!(d.backlog(Time(1_000)), Duration::nanos(10));
    }

    #[test]
    fn probe_does_not_mutate() {
        let d = dram();
        let p = d.probe(Time(0), 1000);
        assert_eq!(p, Time(100));
        assert_eq!(d.stats().requests, 0);
        assert_eq!(d.busy_until(), Time::ZERO);
    }

    #[test]
    fn sustained_overload_grows_backlog_linearly() {
        let mut d = dram();
        // Offer 2000 B every 10 ns = 200 GB/s against 100 GB/s capacity.
        for i in 0..100u64 {
            d.request(Time(i * 10), 2000);
        }
        // Each request adds 20 ns service but only 10 ns elapse: backlog
        // grows ~10 ns per request.
        let backlog = d.backlog(Time(990));
        assert!(backlog >= Duration::nanos(900), "backlog {backlog}");
    }

    #[test]
    fn mean_queueing_reported() {
        let mut d = dram();
        d.request(Time(0), 1000);
        d.request(Time(0), 1000);
        d.request(Time(0), 1000);
        // Delays: 0, 10, 20 -> mean 10.
        assert_eq!(d.stats().mean_queueing(), Duration::nanos(10));
    }
}
