//! The on-NIC ARM core running the CEIO runtime.
//!
//! The paper implements the flow controller and elastic buffer manager on
//! the BlueField's ARMv8 cores (§5), arguing the per-operation work —
//! table lookups, register access, DMA posting — is light enough for even
//! wimpy on-path cores. We model the core as a busy-until server so that
//! control-plane work has a measurable (and, per Fig. 11, negligible) cost
//! rather than being assumed free.

use ceio_chaos::{FaultInjector, FaultSite};
use ceio_sim::{Duration, Time};

/// ARM-core statistics.
#[derive(Debug, Default, Clone)]
pub struct ArmStats {
    /// Operations executed.
    pub ops: u64,
    /// Total busy nanoseconds.
    pub busy_ns: u64,
    /// Stall nanoseconds injected by an armed chaos plan (included in
    /// `busy_ns`). Zero without chaos.
    pub injected_stall_ns: u64,
}

/// A single on-NIC control core.
#[derive(Debug)]
pub struct ArmCore {
    busy_until: Time,
    stats: ArmStats,
    injector: Option<Box<FaultInjector>>,
}

impl Default for ArmCore {
    fn default() -> Self {
        ArmCore::new()
    }
}

impl ArmCore {
    /// An idle core.
    pub fn new() -> ArmCore {
        ArmCore {
            busy_until: Time::ZERO,
            stats: ArmStats::default(),
            injector: None,
        }
    }

    /// Arm deterministic fault injection (core stalls).
    pub fn arm_chaos(&mut self, injector: FaultInjector) {
        self.injector = Some(Box::new(injector));
    }

    /// Per-site injection counters (empty when chaos is disarmed).
    pub fn chaos_stats(&self) -> Option<&ceio_chaos::ChaosStats> {
        self.injector.as_deref().map(FaultInjector::stats)
    }

    /// Execute one operation costing `cost`, starting no earlier than `now`
    /// and after any previous operation finishes. Returns the completion
    /// instant. An armed chaos plan may stall the core first (the stall is
    /// charged to the core's busy time, delaying this and all later ops).
    pub fn execute(&mut self, now: Time, mut cost: Duration) -> Time {
        if let Some(inj) = self.injector.as_mut() {
            if inj.fire(FaultSite::ArmStall) {
                let stall = inj.plan().arm_stall;
                self.stats.injected_stall_ns += stall.as_nanos();
                cost += stall;
            }
        }
        let start = self.busy_until.max(now);
        self.busy_until = start + cost;
        self.stats.ops += 1;
        self.stats.busy_ns += cost.as_nanos();
        self.busy_until
    }

    /// Instant the core becomes idle.
    #[inline]
    pub fn busy_until(&self) -> Time {
        self.busy_until
    }

    /// Utilization over an elapsed window (busy time / window), in `[0,1]`.
    pub fn utilization(&self, window: Duration) -> f64 {
        if window.as_nanos() == 0 {
            return 0.0;
        }
        (self.stats.busy_ns as f64 / window.as_nanos() as f64).min(1.0)
    }

    /// Read-only statistics.
    #[inline]
    pub fn stats(&self) -> &ArmStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operations_serialize() {
        let mut c = ArmCore::new();
        let a = c.execute(Time(0), Duration::nanos(40));
        let b = c.execute(Time(0), Duration::nanos(40));
        assert_eq!(a, Time(40));
        assert_eq!(b, Time(80));
        assert_eq!(c.stats().ops, 2);
    }

    #[test]
    fn idle_gaps_are_not_charged() {
        let mut c = ArmCore::new();
        c.execute(Time(0), Duration::nanos(10));
        let done = c.execute(Time(1_000), Duration::nanos(10));
        assert_eq!(done, Time(1_010));
        assert_eq!(c.stats().busy_ns, 20);
    }

    #[test]
    fn injected_stall_extends_busy_time() {
        use ceio_chaos::FaultPlan;
        let mut c = ArmCore::new();
        let plan = FaultPlan::new(5).with_rate(FaultSite::ArmStall, 1.0);
        let stall = plan.arm_stall;
        c.arm_chaos(plan.injector("arm"));
        let done = c.execute(Time(0), Duration::nanos(40));
        assert_eq!(done, Time(40) + stall);
        assert_eq!(c.stats().injected_stall_ns, stall.as_nanos());
        assert_eq!(c.stats().busy_ns, 40 + stall.as_nanos());
    }

    #[test]
    fn utilization_bounded() {
        let mut c = ArmCore::new();
        c.execute(Time(0), Duration::nanos(500));
        assert!((c.utilization(Duration::nanos(1_000)) - 0.5).abs() < 1e-12);
        assert_eq!(c.utilization(Duration::ZERO), 0.0);
        assert_eq!(c.utilization(Duration::nanos(100)), 1.0);
    }
}
