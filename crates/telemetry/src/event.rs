//! Structured pipeline trace events and the bounded recording ring.
//!
//! A [`TraceEvent`] is one timestamped observation on the NIC→LLC path:
//! a credit decision, a steering-rule rewrite, a phase-exclusivity
//! transition, a DMA issue/completion, a slow-path movement, a drop, or a
//! delivery. Components record into a [`TraceRing`] — a bounded
//! **drop-oldest** buffer (a long run keeps the most recent window instead
//! of aborting or reallocating), with a dropped-record counter so exports
//! are honest about truncation.
//!
//! Recording is designed to be armed at runtime: components hold an
//! `Option<TraceRing>` that is `None` until armed, so an unarmed run costs
//! one pointer-width test per hook.

use ceio_sim::Time;
use std::collections::VecDeque;

/// What happened. Each variant maps to one named Chrome-trace event (see
/// [`crate::chrome`]); the taxonomy mirrors the paper's mechanisms —
/// §4.1 credits, §4.1/Fig. 6 steering, §4.2 phase exclusivity and the
/// slow-path drain — plus the transport substrate (DMA, drops, delivery).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// A packet consumed a credit and was admitted to the fast path.
    CreditGrant,
    /// A credit request was denied (the slow-path degradation trigger).
    CreditDeny,
    /// Lazy release at a message boundary (§4.1): `value` = credits
    /// returned by the driver's head-pointer advance.
    CreditLazyRelease,
    /// Returned credits repaid the owed ledger (`value` = amount repaid
    /// to creditors instead of the releasing flow).
    CreditOwed,
    /// An inactive flow's credits were reclaimed into the free pool
    /// (`value` = amount reclaimed).
    CreditReclaim,
    /// Pool credits were granted to a flow (re-activation / re-grant;
    /// `value` = amount granted).
    CreditPoolGrant,
    /// The lease watchdog reclaimed expired grants of a flow whose lazy
    /// release never arrived (`value` = credits reclaimed).
    CreditLeaseReclaim,
    /// An injected fault: a lazy credit-release message was lost in
    /// flight (`value` = credits that failed to return).
    CreditReleaseLost,
    /// An injected fault: a lazy credit-release message was delayed
    /// (`value` = credits held back; a matching late release follows).
    CreditReleaseDelayed,
    /// The flow's RMT rule was rewritten slow→fast (`value` = RX queue).
    RuleRewriteFast,
    /// The flow's RMT rule was rewritten fast→slow.
    RuleRewriteSlow,
    /// Phase exclusivity engaged for a flow: all arrivals divert to the
    /// slow path until the parked backlog drains (§4.2). Span begin.
    PhaseSlowEnter,
    /// Phase exclusivity released: the fast path resumes. Span end.
    PhaseSlowExit,
    /// A posted DMA write was issued NIC→host (`value` = payload bytes).
    DmaWriteIssue,
    /// A DMA write retired in host memory (`value` = payload bytes).
    DmaWriteComplete,
    /// A DMA write could not be issued: no posted-write credit.
    DmaWriteStall,
    /// A non-posted DMA read request was issued host→NIC.
    DmaReadIssue,
    /// A DMA read completion landed at the host (`value` = payload bytes).
    DmaReadComplete,
    /// A DMA read could not be issued: no non-posted-read credit.
    DmaReadStall,
    /// An injected DMA fault or timeout (`value` = payload bytes of the
    /// failed transaction).
    DmaFault,
    /// A failed DMA transaction was rescheduled with backoff
    /// (`value` = backoff nanoseconds).
    DmaRetry,
    /// A DMA transaction exhausted its retry budget and its packet was
    /// dropped (`value` = payload bytes).
    DmaRetryDrop,
    /// Bytes written into on-NIC elastic memory (`value` = bytes).
    OnboardWrite,
    /// Bytes read back out of on-NIC memory toward the host.
    OnboardRead,
    /// A packet was parked on the slow path (`value` = packet bytes).
    SlowPark,
    /// A slow-path fetch batch was issued (`value` = packets fetched).
    SlowFetch,
    /// A slow-path packet was delivered to the application
    /// (`value` = packet bytes).
    SlowDrain,
    /// A packet was dropped on the receive path (`value` = packet bytes).
    Drop,
    /// A fast-path packet was delivered to the application
    /// (`value` = packet bytes).
    Delivery,
    /// The policy entered degraded drop-mode (elastic buffering
    /// unavailable; plain drop-based DDIO). Span begin.
    DegradedEnter,
    /// The policy left degraded mode (hysteresis satisfied). Span end.
    DegradedExit,
    /// An injected host-consumer pause (`value` = pause nanoseconds).
    ConsumerPause,
    /// An injected NIC ARM-core stall (`value` = stall nanoseconds).
    ArmStall,
    /// An injected RMT rule-install delay (`value` = delay nanoseconds).
    RmtDelay,
    /// An armed SLO rule fired at this sampling epoch (`value` = the
    /// rule's index in the armed rule list; see [`crate::scope`]).
    SloAlert,
    /// An injected receive-queue stall (`value` = queue index).
    QueueStall,
    /// An injected receive-queue death (`value` = queue index).
    QueueDeath,
    /// An injected link flap wedging every receive queue (`value` = flap
    /// nanoseconds).
    LinkFlap,
    /// The watchdog marked a no-progress queue Suspect
    /// (`value` = queue index).
    QueueSuspect,
    /// The watchdog failed a queue over: flows re-steer, credits
    /// quarantine (`value` = queue index).
    QueueFailed,
    /// A failed queue's in-flight work finished draining
    /// (`value` = queue index).
    QueueDrained,
    /// A failed queue re-entered service probation (`value` = queue
    /// index).
    QueueRecovering,
    /// A recovering queue proved progress and returned to `Healthy`
    /// (`value` = queue index).
    QueueRecovered,
    /// One flow's RSS steering was rewritten off a failed queue (or back
    /// home on recovery); `value` = the target queue index.
    FlowResteer,
    /// A DMA retire left LLC I/O occupancy above the DDIO partition
    /// capacity (the buffer exceeded what the partition can absorb;
    /// `value` = excess bytes).
    LlcOverCapacity,
}

/// Chrome trace-event phase for a kind: instant, span begin, or span end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A point event (`"ph": "i"`).
    Instant,
    /// A duration-span open (`"ph": "B"`).
    Begin,
    /// A duration-span close (`"ph": "E"`).
    End,
}

impl TraceKind {
    /// Stable event name, as it appears in exported traces.
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::CreditGrant => "credit-grant",
            TraceKind::CreditDeny => "credit-deny",
            TraceKind::CreditLazyRelease => "credit-lazy-release",
            TraceKind::CreditOwed => "credit-owed",
            TraceKind::CreditReclaim => "credit-reclaim",
            TraceKind::CreditPoolGrant => "credit-pool-grant",
            TraceKind::CreditLeaseReclaim => "credit-lease-reclaim",
            TraceKind::CreditReleaseLost => "credit-release-lost",
            TraceKind::CreditReleaseDelayed => "credit-release-delayed",
            TraceKind::RuleRewriteFast => "rule-rewrite-fast",
            TraceKind::RuleRewriteSlow => "rule-rewrite-slow",
            // Enter/exit share one name so they form a single named span
            // in Perfetto's track view.
            TraceKind::PhaseSlowEnter => "slow-phase",
            TraceKind::PhaseSlowExit => "slow-phase",
            TraceKind::DmaWriteIssue => "dma-write-issue",
            TraceKind::DmaWriteComplete => "dma-write-complete",
            TraceKind::DmaWriteStall => "dma-write-stall",
            TraceKind::DmaReadIssue => "dma-read-issue",
            TraceKind::DmaReadComplete => "dma-read-complete",
            TraceKind::DmaReadStall => "dma-read-stall",
            TraceKind::DmaFault => "dma-fault",
            TraceKind::DmaRetry => "dma-retry",
            TraceKind::DmaRetryDrop => "dma-retry-drop",
            TraceKind::OnboardWrite => "onboard-write",
            TraceKind::OnboardRead => "onboard-read",
            TraceKind::SlowPark => "slow-park",
            TraceKind::SlowFetch => "slow-fetch",
            TraceKind::SlowDrain => "slow-drain",
            TraceKind::Drop => "drop",
            TraceKind::Delivery => "delivery",
            // Enter/exit share one name: a single named span in Perfetto.
            TraceKind::DegradedEnter => "degraded-mode",
            TraceKind::DegradedExit => "degraded-mode",
            TraceKind::ConsumerPause => "consumer-pause",
            TraceKind::ArmStall => "arm-stall",
            TraceKind::RmtDelay => "rmt-delay",
            TraceKind::SloAlert => "slo-alert",
            TraceKind::QueueStall => "queue-stall",
            TraceKind::QueueDeath => "queue-death",
            TraceKind::LinkFlap => "link-flap",
            TraceKind::QueueSuspect => "queue-suspect",
            TraceKind::QueueFailed => "queue-failed",
            TraceKind::QueueDrained => "queue-drained",
            TraceKind::QueueRecovering => "queue-recovering",
            TraceKind::QueueRecovered => "queue-recovered",
            TraceKind::FlowResteer => "flow-resteer",
            TraceKind::LlcOverCapacity => "llc-over-capacity",
        }
    }

    /// How this kind renders in a Chrome trace.
    pub fn phase(self) -> Phase {
        match self {
            TraceKind::PhaseSlowEnter | TraceKind::DegradedEnter => Phase::Begin,
            TraceKind::PhaseSlowExit | TraceKind::DegradedExit => Phase::End,
            _ => Phase::Instant,
        }
    }
}

/// One timestamped pipeline observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated instant of the observation.
    pub at: Time,
    /// The flow involved, if attributable (substrate components such as
    /// the DMA engine see payloads, not flows).
    pub flow: Option<u32>,
    /// What happened.
    pub kind: TraceKind,
    /// Kind-specific payload (bytes, credits, packets, queue index — see
    /// each [`TraceKind`] variant).
    pub value: u64,
}

/// A bounded drop-oldest ring of trace events.
///
/// The ring never grows past its capacity: pushing into a full ring evicts
/// the oldest record and counts it in [`TraceRing::dropped`]. Capacity is
/// allocated lazily on first push, so an armed-but-silent recorder costs a
/// few words.
#[derive(Debug, Clone)]
pub struct TraceRing {
    buf: VecDeque<TraceEvent>,
    cap: usize,
    dropped: u64,
}

impl TraceRing {
    /// A ring holding at most `cap` events (minimum 1).
    pub fn new(cap: usize) -> TraceRing {
        TraceRing {
            buf: VecDeque::new(),
            cap: cap.max(1),
            dropped: 0,
        }
    }

    /// Record one event, evicting the oldest if the ring is full.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() >= self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.buf.iter().copied().collect()
    }

    /// Number of events currently held.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events are held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Configured capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Records evicted because the ring was full.
    #[inline]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Discard all held events (the dropped counter is kept: truncation
    /// already happened and stays reportable).
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

/// Merge event streams from several recorders into one timeline, ordered
/// by timestamp (ties keep the input order: earlier parts first, and each
/// part's own order within — `sort_by_key` is stable).
pub fn merge_events(parts: Vec<Vec<TraceEvent>>) -> Vec<TraceEvent> {
    let mut all: Vec<TraceEvent> = parts.into_iter().flatten().collect();
    all.sort_by_key(|e| e.at);
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            at: Time(at),
            flow: Some(1),
            kind,
            value: 0,
        }
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut r = TraceRing::new(3);
        for i in 0..5u64 {
            r.push(ev(i, TraceKind::Delivery));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let held: Vec<u64> = r.events().iter().map(|e| e.at.0).collect();
        assert_eq!(held, vec![2, 3, 4], "oldest evicted first");
    }

    #[test]
    fn ring_capacity_floor_is_one() {
        let mut r = TraceRing::new(0);
        r.push(ev(1, TraceKind::Drop));
        r.push(ev(2, TraceKind::Drop));
        assert_eq!(r.len(), 1);
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.capacity(), 1);
    }

    #[test]
    fn merge_orders_by_time_stably() {
        let a = vec![ev(5, TraceKind::CreditGrant), ev(9, TraceKind::Drop)];
        let b = vec![ev(5, TraceKind::CreditDeny), ev(1, TraceKind::Delivery)];
        let m = merge_events(vec![a, b]);
        let kinds: Vec<TraceKind> = m.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TraceKind::Delivery,
                TraceKind::CreditGrant, // ties: part a before part b
                TraceKind::CreditDeny,
                TraceKind::Drop,
            ]
        );
    }

    #[test]
    fn clear_keeps_dropped_counter() {
        let mut r = TraceRing::new(1);
        r.push(ev(1, TraceKind::Drop));
        r.push(ev(2, TraceKind::Drop));
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn phase_mapping() {
        assert_eq!(TraceKind::PhaseSlowEnter.phase(), Phase::Begin);
        assert_eq!(TraceKind::PhaseSlowExit.phase(), Phase::End);
        assert_eq!(TraceKind::Delivery.phase(), Phase::Instant);
        assert_eq!(
            TraceKind::PhaseSlowEnter.label(),
            TraceKind::PhaseSlowExit.label()
        );
    }
}
