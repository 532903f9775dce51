//! Per-receive-queue pipeline state.
//!
//! The multi-queue (RSS) receive path shards the NIC→LLC data path into N
//! independent queues: each [`RxQueue`] owns its staging FIFO of packets
//! awaiting a DMA issue slot, its descriptor-issue pipeline gate
//! (`NicParams::queue_issue_gap`), its retry/backoff state, and its slice
//! of the PCIe write-credit budget (one [`ceio_pcie::DmaEngine`] write
//! channel per queue). The substrate behind the queues — the ingress link,
//! the PCIe link itself, the IIO/LLC admission, the on-NIC elastic store —
//! stays shared, exactly as in hardware.
//!
//! With one queue the struct holds precisely the fields the monolithic
//! machine held (`nic_pending`, `nic_pending_bytes`, the pump wake flag,
//! `write_attempts`, `write_backoff_until`), so the single-queue pipeline
//! is the old pipeline under a new name — bit-identical by construction.

use ceio_mem::BufferId;
use ceio_net::Packet;
use ceio_sim::{Time, TimerToken};
use std::collections::VecDeque;

/// A packet waiting in NIC staging for a DMA issue slot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingDma {
    pub(crate) pkt: Packet,
    pub(crate) buf: BufferId,
    pub(crate) nic_seq: u64,
    pub(crate) via_slow: bool,
    /// Receive queue whose write channel the DMA was (or will be) issued
    /// on. For staged entries this tracks the staging queue (failover
    /// migration updates it); for IIO-parked entries it names the channel
    /// owed the completion credit.
    pub(crate) queue: usize,
}

/// Per-queue counters exported through the telemetry snapshot with a
/// `queue="k"` label.
#[derive(Debug, Default, Clone)]
pub struct RxQueueStats {
    /// Packets enqueued into this queue's staging FIFO.
    pub enqueued: u64,
    /// DMA writes issued from this queue.
    pub issued: u64,
    /// Packets dropped because this queue's staging partition overflowed.
    pub staging_drops: u64,
    /// Staging-byte high-water mark.
    pub peak_pending_bytes: u64,
    /// Times the watchdog failed this queue over (Failed transitions).
    pub failovers: u64,
}

/// Lifecycle state of one receive queue, driven by the sim-time watchdog
/// (see `Machine::on_watchdog`): `Healthy → Suspect → Failed → Draining →
/// Recovering → Healthy`, with `Suspect → Healthy` (false alarm) and
/// `Recovering → Suspect` (re-detection) side edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueState {
    /// Making progress (or idle with nothing pending).
    #[default]
    Healthy,
    /// No-progress ticks observed; under suspicion but still steered to.
    Suspect,
    /// Declared dead this tick: flows re-steer, credits quarantine.
    Failed,
    /// Failed and waiting out the drain window before re-admission.
    Draining,
    /// Back in the steering mask on probation; progress (or idling
    /// empty) confirms recovery.
    Recovering,
}

impl QueueState {
    /// Numeric encoding for the `ceio_queue_state` gauge and scope series
    /// (0 = Healthy … 4 = Recovering).
    #[must_use]
    pub fn as_gauge(self) -> u8 {
        match self {
            QueueState::Healthy => 0,
            QueueState::Suspect => 1,
            QueueState::Failed => 2,
            QueueState::Draining => 3,
            QueueState::Recovering => 4,
        }
    }

    /// Whether flows may be steered onto this queue (the healthy-queue
    /// mask includes Suspect and Recovering: a queue leaves the mask only
    /// once actually failed, and re-enters it on probation).
    #[must_use]
    pub fn usable(self) -> bool {
        matches!(
            self,
            QueueState::Healthy | QueueState::Suspect | QueueState::Recovering
        )
    }
}

/// One receive queue's share of the NIC→host DMA pipeline.
#[derive(Debug)]
pub struct RxQueue {
    /// Packets staged for DMA issue, FIFO.
    pub(crate) pending: VecDeque<PendingDma>,
    /// Bytes currently staged.
    pub(crate) pending_bytes: u64,
    /// Token of the pending `Pump(q)` wake-up for this queue, if one is
    /// scheduled. Doubles as the dedup flag the machine previously kept as
    /// a bool, and lets failover cancel a dead queue's wake.
    pub(crate) pump_timer: Option<TimerToken>,
    /// Consecutive failed attempts of the head DMA write.
    pub(crate) write_attempts: u32,
    /// Retry-backoff gate: no issue before this instant.
    pub(crate) write_backoff_until: Time,
    /// Descriptor-issue pipeline gate: earliest instant this queue may
    /// issue its next descriptor (`queue_issue_gap` serialization). Stays
    /// at `Time::ZERO` forever when the gap is zero (the default), which
    /// disables the gate.
    pub(crate) next_issue_at: Time,
    /// Injected-fault wedge: the pump issues nothing before this instant
    /// and deliberately does not self-reschedule (the watchdog owns the
    /// wake-up). Stays `Time::ZERO` outside chaos runs.
    pub(crate) wedged_until: Time,
    /// Whether the last pump break was a PCIe credit stall (re-pumped by
    /// the next completion, so not a watchdog no-progress signal).
    pub(crate) credit_blocked: bool,
    /// Lifecycle state, driven by the watchdog.
    pub(crate) state: QueueState,
    /// Consecutive watchdog ticks without progress while work is pending.
    pub(crate) stall_ticks: u32,
    /// Watchdog ticks spent in `Draining` (drives the re-admission wait).
    pub(crate) drain_ticks: u32,
    /// Watchdog ticks spent idle in `Recovering` (confirms recovery when
    /// no traffic arrives to prove progress).
    pub(crate) probe_ticks: u32,
    /// `stats.issued` observed at the previous watchdog tick.
    pub(crate) issued_at_last_tick: u64,
    /// Exported counters.
    pub stats: RxQueueStats,
}

impl RxQueue {
    /// An empty queue pipeline.
    pub fn new() -> RxQueue {
        RxQueue {
            pending: VecDeque::new(),
            pending_bytes: 0,
            pump_timer: None,
            write_attempts: 0,
            write_backoff_until: Time::ZERO,
            next_issue_at: Time::ZERO,
            wedged_until: Time::ZERO,
            credit_blocked: false,
            state: QueueState::default(),
            stall_ticks: 0,
            drain_ticks: 0,
            probe_ticks: 0,
            issued_at_last_tick: 0,
            stats: RxQueueStats::default(),
        }
    }

    /// Packets currently staged.
    #[inline]
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Current lifecycle state.
    #[inline]
    #[must_use]
    pub fn state(&self) -> QueueState {
        self.state
    }

    /// Bytes currently staged.
    #[inline]
    #[must_use]
    pub fn pending_bytes(&self) -> u64 {
        self.pending_bytes
    }

    /// Stage a packet (caller has already checked the staging budget).
    pub(crate) fn push(&mut self, pd: PendingDma) {
        self.pending_bytes += pd.pkt.bytes;
        self.pending.push_back(pd);
        self.stats.enqueued += 1;
        self.stats.peak_pending_bytes = self.stats.peak_pending_bytes.max(self.pending_bytes);
    }
}

impl Default for RxQueue {
    fn default() -> Self {
        RxQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceio_net::{FlowId, PacketId};

    fn pkt(bytes: u64) -> Packet {
        Packet {
            id: PacketId(0),
            flow: FlowId(1),
            bytes,
            msg_id: 0,
            msg_seq: 0,
            msg_last: false,
            sent_at: Time::ZERO,
            arrived_nic: Time::ZERO,
            ecn: false,
        }
    }

    #[test]
    fn push_tracks_bytes_and_peak() {
        let mut q = RxQueue::new();
        for i in 0..3 {
            q.push(PendingDma {
                pkt: pkt(100),
                buf: BufferId(i),
                nic_seq: i,
                via_slow: false,
                queue: 0,
            });
        }
        assert_eq!(q.pending_len(), 3);
        assert_eq!(q.pending_bytes(), 300);
        assert_eq!(q.stats.enqueued, 3);
        assert_eq!(q.stats.peak_pending_bytes, 300);
        q.pending_bytes -= q.pending.pop_front().map(|pd| pd.pkt.bytes).unwrap_or(0);
        assert_eq!(q.pending_bytes(), 200);
        assert_eq!(q.stats.peak_pending_bytes, 300);
    }
}
