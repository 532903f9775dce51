//! The PCIe DMA engine: credit-limited outstanding transfers over a
//! [`PcieLink`].
//!
//! Writes (NIC→host packet uploads) are posted: they consume a write credit
//! when issued and release it when the host memory controller retires the
//! data. Reads (host→NIC slow-path fetches) are non-posted: a request TLP
//! travels to the NIC, the data is fetched there, and a completion travels
//! back. Credit exhaustion models the PCIe-credit starvation of §2.2.

use crate::link::{Direction, PcieLink};
use crate::params::PcieParams;
use ceio_chaos::{FaultInjector, FaultSite};
use ceio_sim::Time;
use ceio_telemetry::{TraceEvent, TraceKind, TraceRing};

/// Why a DMA could not be issued.
///
/// The credit variants are structural back-pressure (they resolve when
/// in-flight transactions retire); the fault/timeout variants are
/// link-level failures, only ever produced when a chaos [`FaultInjector`]
/// is armed — callers must retry them with backoff or surface them in
/// stats, never discard them silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaError {
    /// All posted-write credits are in flight.
    NoWriteCredit,
    /// All non-posted-read credits are in flight.
    NoReadCredit,
    /// A posted write failed at the link level (injected fault).
    WriteFault,
    /// A posted write timed out before the link accepted it (injected).
    WriteTimeout,
    /// A non-posted read request failed at the link level (injected).
    ReadFault,
    /// A non-posted read request timed out (injected).
    ReadTimeout,
}

impl DmaError {
    /// Credit exhaustion: resolves by itself when in-flight transactions
    /// retire, so the caller should wait for a completion, not back off.
    #[inline]
    pub fn is_credit_stall(self) -> bool {
        matches!(self, DmaError::NoWriteCredit | DmaError::NoReadCredit)
    }

    /// A transient link failure that warrants bounded retry with backoff.
    #[inline]
    pub fn is_transient_fault(self) -> bool {
        !self.is_credit_stall()
    }
}

impl std::fmt::Display for DmaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DmaError::NoWriteCredit => write!(f, "no PCIe write credits available"),
            DmaError::NoReadCredit => write!(f, "no PCIe read credits available"),
            DmaError::WriteFault => write!(f, "posted DMA write failed (injected link fault)"),
            DmaError::WriteTimeout => write!(f, "posted DMA write timed out (injected)"),
            DmaError::ReadFault => write!(f, "DMA read request failed (injected link fault)"),
            DmaError::ReadTimeout => write!(f, "DMA read request timed out (injected)"),
        }
    }
}

impl std::error::Error for DmaError {}

/// Engine statistics.
#[derive(Debug, Default, Clone)]
pub struct DmaStats {
    /// Writes issued.
    pub writes: u64,
    /// Reads issued.
    pub reads: u64,
    /// Write attempts rejected for lack of credits.
    pub write_stalls: u64,
    /// Read attempts rejected for lack of credits.
    pub read_stalls: u64,
    /// Injected write failures (faults + timeouts). Zero without chaos.
    pub write_faults: u64,
    /// Injected read failures (faults + timeouts). Zero without chaos.
    pub read_faults: u64,
}

/// The DMA engine. Owns the link; the host machine owns the engine.
///
/// The write side is multiplexed over **channels** — one per RX queue in a
/// multi-queue receive pipeline. All channels share the one physical link
/// (transfers still serialize on [`PcieLink`] wire occupancy and the
/// link-wide posted-credit budget); what a channel owns is its *slice* of
/// the posted-write credits, so one congested queue cannot starve the
/// descriptor issue of its siblings. With a single channel (the default)
/// the slice is the whole budget and the engine behaves exactly like the
/// pre-multiplexed model.
#[derive(Debug)]
pub struct DmaEngine {
    /// The underlying full-duplex link (public: stats & direct transfers).
    pub link: PcieLink,
    inflight_writes: u32,
    inflight_reads: u32,
    /// Outstanding posted writes per channel.
    chan_inflight: Vec<u32>,
    /// Per-channel posted-credit slice (`ceil(link budget / channels)`).
    chan_cap: u32,
    stats: DmaStats,
    tracer: Option<TraceRing>,
    injector: Option<Box<FaultInjector>>,
}

impl DmaEngine {
    /// An engine over a fresh link with the given parameters.
    pub fn new(params: PcieParams) -> DmaEngine {
        let cap = params.max_inflight_writes;
        DmaEngine {
            link: PcieLink::new(params),
            inflight_writes: 0,
            inflight_reads: 0,
            chan_inflight: vec![0],
            chan_cap: cap,
            stats: DmaStats::default(),
            tracer: None,
            injector: None,
        }
    }

    /// Partition the posted-write credit budget across `n` channels (one
    /// per RX queue). Each channel may keep at most `ceil(budget / n)`
    /// writes in flight; the link-wide budget stays enforced on top, so
    /// the slices over-subscribe gracefully rather than strand credits to
    /// rounding. Reconfiguring clears per-channel in-flight accounting —
    /// call it at build time, before any traffic.
    pub fn set_write_channels(&mut self, n: usize) {
        let n = n.max(1);
        debug_assert_eq!(
            self.inflight_writes, 0,
            "invariant: channel layout must not change under in-flight writes"
        );
        let budget = self.link.params().max_inflight_writes;
        self.chan_inflight = vec![0; n];
        self.chan_cap = budget.div_ceil(n as u32).max(1);
    }

    /// Number of write channels.
    #[inline]
    pub fn write_channels(&self) -> usize {
        self.chan_inflight.len()
    }

    /// Per-channel posted-credit slice.
    #[inline]
    pub fn channel_write_cap(&self) -> u32 {
        self.chan_cap
    }

    /// Arm deterministic fault injection on this engine.
    pub fn arm_chaos(&mut self, injector: FaultInjector) {
        self.injector = Some(Box::new(injector));
    }

    /// Per-site injection counters (empty when chaos is disarmed).
    pub fn chaos_stats(&self) -> Option<&ceio_chaos::ChaosStats> {
        self.injector.as_deref().map(FaultInjector::stats)
    }

    /// Evaluate the write-side fault sites for one issue attempt.
    #[inline]
    fn inject_write_fault(&mut self) -> Option<DmaError> {
        let inj = self.injector.as_mut()?;
        if inj.fire(FaultSite::DmaWriteFault) {
            return Some(DmaError::WriteFault);
        }
        if inj.fire(FaultSite::DmaWriteTimeout) {
            return Some(DmaError::WriteTimeout);
        }
        None
    }

    /// Evaluate the read-side fault sites for one issue attempt.
    #[inline]
    fn inject_read_fault(&mut self) -> Option<DmaError> {
        let inj = self.injector.as_mut()?;
        if inj.fire(FaultSite::DmaReadFault) {
            return Some(DmaError::ReadFault);
        }
        if inj.fire(FaultSite::DmaReadTimeout) {
            return Some(DmaError::ReadTimeout);
        }
        None
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
                // The engine sees payloads, not flows.
                flow: None,
                kind,
                value,
            });
        }
    }

    /// Issue a posted DMA write of `payload` bytes toward the host on
    /// channel 0 (the single-queue entry point).
    /// Returns the instant the data arrives at the host IIO buffer.
    pub fn try_write(&mut self, now: Time, payload: u64) -> Result<Time, DmaError> {
        self.try_write_on(0, now, payload)
    }

    /// Issue a posted DMA write of `payload` bytes toward the host on
    /// write channel `ch`. Fails with [`DmaError::NoWriteCredit`] when
    /// either the link-wide budget or the channel's slice is exhausted.
    pub fn try_write_on(&mut self, ch: usize, now: Time, payload: u64) -> Result<Time, DmaError> {
        debug_assert!(ch < self.chan_inflight.len(), "write channel out of range");
        let ch = ch.min(self.chan_inflight.len() - 1);
        if self.inflight_writes >= self.link.params().max_inflight_writes
            || self.chan_inflight[ch] >= self.chan_cap
        {
            self.stats.write_stalls += 1;
            self.trace(now, TraceKind::DmaWriteStall, payload);
            return Err(DmaError::NoWriteCredit);
        }
        if let Some(err) = self.inject_write_fault() {
            // The link rejected the transaction: no credit consumed.
            self.stats.write_faults += 1;
            self.trace(now, TraceKind::DmaFault, payload);
            return Err(err);
        }
        self.inflight_writes += 1;
        self.chan_inflight[ch] += 1;
        self.stats.writes += 1;
        self.trace(now, TraceKind::DmaWriteIssue, payload);
        Ok(self.link.transfer(now, Direction::ToHost, payload))
    }

    /// The host retired a previously issued channel-0 write: release its
    /// credit.
    pub fn complete_write(&mut self) {
        self.complete_write_on(0);
    }

    /// The host retired a previously issued write on channel `ch`:
    /// release its credit back to both the channel slice and the
    /// link-wide budget.
    pub fn complete_write_on(&mut self, ch: usize) {
        debug_assert!(ch < self.chan_inflight.len(), "write channel out of range");
        let ch = ch.min(self.chan_inflight.len() - 1);
        debug_assert!(self.inflight_writes > 0, "write completion underflow");
        debug_assert!(
            self.chan_inflight[ch] > 0,
            "write completion underflow on channel"
        );
        self.inflight_writes = self.inflight_writes.saturating_sub(1);
        self.chan_inflight[ch] = self.chan_inflight[ch].saturating_sub(1);
    }

    /// Issue a non-posted DMA read request (host→NIC). Returns the instant
    /// the request arrives at the NIC; the caller models the NIC-side fetch
    /// and then calls [`DmaEngine::read_completion`].
    pub fn try_read_request(&mut self, now: Time) -> Result<Time, DmaError> {
        if self.inflight_reads >= self.link.params().max_inflight_reads {
            self.stats.read_stalls += 1;
            self.trace(now, TraceKind::DmaReadStall, 0);
            return Err(DmaError::NoReadCredit);
        }
        if let Some(err) = self.inject_read_fault() {
            self.stats.read_faults += 1;
            self.trace(now, TraceKind::DmaFault, 0);
            return Err(err);
        }
        self.inflight_reads += 1;
        self.stats.reads += 1;
        self.trace(now, TraceKind::DmaReadIssue, 0);
        // A read request TLP carries no payload.
        Ok(self.link.transfer(now, Direction::ToNic, 0))
    }

    /// The NIC returns `payload` bytes of read completion starting at
    /// `nic_time`; returns the instant the data lands at the host and
    /// releases the read credit.
    pub fn read_completion(&mut self, nic_time: Time, payload: u64) -> Time {
        debug_assert!(self.inflight_reads > 0, "read completion underflow");
        self.inflight_reads = self.inflight_reads.saturating_sub(1);
        self.trace(nic_time, TraceKind::DmaReadComplete, payload);
        self.link.transfer(nic_time, Direction::ToHost, payload)
    }

    /// An MMIO doorbell write from CPU to NIC: returns the instant it is
    /// visible at the NIC (the CPU itself is only stalled `mmio_write`).
    pub fn doorbell(&mut self, now: Time) -> Time {
        self.link.transfer(now, Direction::ToNic, 8)
    }

    /// Outstanding posted writes.
    #[inline]
    pub fn inflight_writes(&self) -> u32 {
        self.inflight_writes
    }

    /// Outstanding posted writes on channel `ch` (0 when out of range).
    #[inline]
    pub fn inflight_writes_on(&self, ch: usize) -> u32 {
        self.chan_inflight.get(ch).copied().unwrap_or(0)
    }

    /// Outstanding non-posted reads.
    #[inline]
    pub fn inflight_reads(&self) -> u32 {
        self.inflight_reads
    }

    /// Read-only statistics.
    #[inline]
    pub fn stats(&self) -> &DmaStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(max_writes: u32, max_reads: u32) -> DmaEngine {
        DmaEngine::new(PcieParams {
            max_inflight_writes: max_writes,
            max_inflight_reads: max_reads,
            ..PcieParams::default()
        })
    }

    #[test]
    fn write_consumes_and_completion_releases_credit() {
        let mut e = engine(1, 1);
        assert!(e.try_write(Time(0), 2048).is_ok());
        assert_eq!(e.inflight_writes(), 1);
        assert_eq!(e.try_write(Time(0), 2048), Err(DmaError::NoWriteCredit));
        e.complete_write();
        assert!(e.try_write(Time(10_000), 2048).is_ok());
        assert_eq!(e.stats().write_stalls, 1);
    }

    #[test]
    fn read_round_trip_pays_both_directions() {
        let mut e = engine(8, 8);
        let at_nic = e.try_read_request(Time(0)).unwrap();
        assert!(at_nic >= Time(0) + e.link.params().propagation);
        let at_host = e.read_completion(at_nic, 2048);
        assert!(at_host > at_nic + e.link.params().propagation);
        assert_eq!(e.inflight_reads(), 0);
    }

    #[test]
    fn read_credits_enforced() {
        let mut e = engine(8, 2);
        e.try_read_request(Time(0)).unwrap();
        e.try_read_request(Time(0)).unwrap();
        assert_eq!(e.try_read_request(Time(0)), Err(DmaError::NoReadCredit));
        assert_eq!(e.stats().read_stalls, 1);
    }

    #[test]
    fn doorbell_travels_to_nic() {
        let mut e = engine(8, 8);
        let at_nic = e.doorbell(Time(0));
        assert!(at_nic >= Time(0) + e.link.params().propagation);
    }

    #[test]
    fn writes_serialize_on_shared_direction() {
        let mut e = engine(64, 8);
        let a = e.try_write(Time(0), 4096).unwrap();
        let b = e.try_write(Time(0), 4096).unwrap();
        assert!(b > a, "second write must queue behind the first");
    }

    #[test]
    fn single_channel_matches_unchanneled_behavior() {
        // The default engine is one channel whose slice is the whole
        // budget: try_write/complete_write are channel 0 and the stall
        // point is exactly the link-wide cap, as before multiplexing.
        let mut e = engine(2, 1);
        assert_eq!(e.write_channels(), 1);
        assert_eq!(e.channel_write_cap(), 2);
        assert!(e.try_write(Time(0), 64).is_ok());
        assert!(e.try_write_on(0, Time(0), 64).is_ok());
        assert_eq!(e.try_write(Time(0), 64), Err(DmaError::NoWriteCredit));
        assert_eq!(e.inflight_writes_on(0), 2);
        e.complete_write();
        e.complete_write_on(0);
        assert_eq!(e.inflight_writes(), 0);
        assert_eq!(e.inflight_writes_on(0), 0);
    }

    #[test]
    fn channel_slices_partition_the_write_budget() {
        let mut e = engine(4, 1);
        e.set_write_channels(2);
        assert_eq!(e.channel_write_cap(), 2);
        // Fill channel 0's slice: its third write stalls...
        assert!(e.try_write_on(0, Time(0), 64).is_ok());
        assert!(e.try_write_on(0, Time(0), 64).is_ok());
        assert_eq!(e.try_write_on(0, Time(0), 64), Err(DmaError::NoWriteCredit));
        // ...while channel 1 still issues from its own slice.
        assert!(e.try_write_on(1, Time(0), 64).is_ok());
        assert_eq!(e.inflight_writes(), 3);
        assert_eq!(e.inflight_writes_on(0), 2);
        assert_eq!(e.inflight_writes_on(1), 1);
        // Completion on channel 0 reopens only channel 0's slice.
        e.complete_write_on(0);
        assert!(e.try_write_on(0, Time(1_000), 64).is_ok());
        assert_eq!(e.stats().write_stalls, 1);
    }

    #[test]
    fn link_budget_caps_oversubscribed_slices() {
        // ceil(4/3) = 2 per channel: slices sum to 6, but the link-wide
        // budget of 4 still rules.
        let mut e = engine(4, 1);
        e.set_write_channels(3);
        assert_eq!(e.channel_write_cap(), 2);
        for ch in 0..2 {
            assert!(e.try_write_on(ch, Time(0), 64).is_ok());
            assert!(e.try_write_on(ch, Time(0), 64).is_ok());
        }
        assert_eq!(e.inflight_writes(), 4);
        assert_eq!(e.try_write_on(2, Time(0), 64), Err(DmaError::NoWriteCredit));
    }

    #[test]
    fn error_taxonomy_is_partitioned() {
        use DmaError::*;
        for e in [NoWriteCredit, NoReadCredit] {
            assert!(e.is_credit_stall() && !e.is_transient_fault());
        }
        for e in [WriteFault, WriteTimeout, ReadFault, ReadTimeout] {
            assert!(e.is_transient_fault() && !e.is_credit_stall());
            assert!(!e.to_string().is_empty());
        }
    }

    mod chaos {
        use super::*;
        use ceio_chaos::FaultPlan;

        #[test]
        fn injected_write_fault_consumes_no_credit_and_counts() {
            let mut e = engine(4, 4);
            let plan = FaultPlan::new(7).with_rate(FaultSite::DmaWriteFault, 1.0);
            e.arm_chaos(plan.injector("dma"));
            assert_eq!(e.try_write(Time(0), 2048), Err(DmaError::WriteFault));
            assert_eq!(e.inflight_writes(), 0, "fault must not leak a credit");
            assert_eq!(e.stats().write_faults, 1);
            assert_eq!(e.stats().writes, 0);
            let cs = e.chaos_stats().expect("armed");
            assert_eq!(cs.at(FaultSite::DmaWriteFault), 1);
        }

        #[test]
        fn injected_read_timeout_surfaces_as_error() {
            let mut e = engine(4, 4);
            let plan = FaultPlan::new(7).with_rate(FaultSite::DmaReadTimeout, 1.0);
            e.arm_chaos(plan.injector("dma"));
            assert_eq!(e.try_read_request(Time(0)), Err(DmaError::ReadTimeout));
            assert_eq!(e.inflight_reads(), 0);
            assert_eq!(e.stats().read_faults, 1);
        }

        #[test]
        fn fault_schedule_is_deterministic() {
            let plan = FaultPlan::new(99).with_rate(FaultSite::DmaWriteFault, 0.5);
            let run = || {
                let mut e = engine(1024, 8);
                e.arm_chaos(plan.injector("dma"));
                (0..256)
                    .map(|i| e.try_write(Time(i), 64).is_ok())
                    .collect::<Vec<bool>>()
            };
            assert_eq!(run(), run());
        }

        #[test]
        fn credit_stall_still_wins_over_injection() {
            // Exhaust credits first: the stall path must be unchanged by
            // an armed injector (no draw, no double counting).
            let mut e = engine(1, 8);
            let plan = FaultPlan::new(7);
            e.arm_chaos(plan.injector("dma"));
            assert!(e.try_write(Time(0), 64).is_ok());
            assert_eq!(e.try_write(Time(0), 64), Err(DmaError::NoWriteCredit));
            assert_eq!(e.stats().write_stalls, 1);
            assert_eq!(e.stats().write_faults, 0);
        }
    }
}
