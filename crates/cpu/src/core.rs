//! A polling CPU core's execution timeline.

use ceio_sim::{Duration, Time};

/// Per-core statistics.
#[derive(Debug, Default, Clone)]
pub struct CoreStats {
    /// Packets fully processed by this core.
    pub packets: u64,
    /// Busy nanoseconds (compute + charged memory stalls).
    pub busy_ns: u64,
    /// Polls that found no work.
    pub empty_polls: u64,
    /// Polls that found work.
    pub productive_polls: u64,
}

/// One host core, pinned to an I/O flow (or a ring set).
#[derive(Debug, Default)]
pub struct CpuCore {
    busy_until: Time,
    stats: CoreStats,
}

impl CpuCore {
    /// An idle core.
    pub fn new() -> CpuCore {
        CpuCore::default()
    }

    /// Charge `work` of execution starting no earlier than `start`; returns
    /// the completion instant. Used for both compute and memory-stall time
    /// (the core is equally unavailable during either).
    pub fn run(&mut self, start: Time, work: Duration) -> Time {
        let begin = self.busy_until.max(start);
        self.busy_until = begin + work;
        self.stats.busy_ns += work.as_nanos();
        self.busy_until
    }

    /// Record a completed packet.
    #[inline]
    pub fn count_packet(&mut self) {
        self.stats.packets += 1;
    }

    /// Record a poll outcome.
    #[inline]
    pub fn count_poll(&mut self, productive: bool) {
        if productive {
            self.stats.productive_polls += 1;
        } else {
            self.stats.empty_polls += 1;
        }
    }

    /// Instant the core becomes idle.
    #[inline]
    pub fn busy_until(&self) -> Time {
        self.busy_until
    }

    /// Busy fraction over an observation window.
    pub fn utilization(&self, window: Duration) -> f64 {
        if window.as_nanos() == 0 {
            return 0.0;
        }
        (self.stats.busy_ns as f64 / window.as_nanos() as f64).min(1.0)
    }

    /// Read-only statistics.
    #[inline]
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_serializes_on_the_core() {
        let mut c = CpuCore::new();
        let a = c.run(Time(0), Duration::nanos(100));
        let b = c.run(Time(50), Duration::nanos(100));
        assert_eq!(a, Time(100));
        assert_eq!(b, Time(200), "second batch waits for the first");
    }

    #[test]
    fn idle_time_not_charged() {
        let mut c = CpuCore::new();
        c.run(Time(0), Duration::nanos(10));
        c.run(Time(1_000), Duration::nanos(10));
        assert_eq!(c.stats().busy_ns, 20);
        assert_eq!(c.busy_until(), Time(1_010));
    }

    #[test]
    fn poll_accounting() {
        let mut c = CpuCore::new();
        c.count_poll(true);
        c.count_poll(false);
        c.count_poll(false);
        assert_eq!(c.stats().productive_polls, 1);
        assert_eq!(c.stats().empty_polls, 2);
    }

    #[test]
    fn utilization_clamped() {
        let mut c = CpuCore::new();
        c.run(Time(0), Duration::nanos(800));
        assert!((c.utilization(Duration::nanos(1_000)) - 0.8).abs() < 1e-12);
        assert_eq!(c.utilization(Duration::nanos(100)), 1.0);
        assert_eq!(c.utilization(Duration::ZERO), 0.0);
    }
}
