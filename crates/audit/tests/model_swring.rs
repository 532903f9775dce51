//! Bounded model checker for the CEIO software ring (§4.2, Fig. 7).
//!
//! The checked type is `ceio_host::SwRing`, each flow's receive path in
//! the host machine, so the ring checked here is the ring that produces
//! every figure. The checker exhaustively enumerates every operation
//! sequence, to a bounded depth, over the operations the machine performs
//! on it:
//!
//! ```text
//! { reserve, retire oldest, retire newest (out of order),
//!   abort oldest, abort newest, park, fetch, fetch fault, land,
//!   take(1), take(∞), teardown }
//! ```
//!
//! It runs each sequence against the ring *and* a naive reference model —
//! one record per arrival sequence number with its path and state, and
//! O(n) scans, too simple to be wrong — and checks after every operation:
//!
//! * **Ordering**: each delivered packet is the reference's next
//!   deliverable one, the delivery pointer is the reference's (aborted
//!   sequence numbers are skipped, never waited on), and a take that
//!   stops short leaves nothing deliverable behind.
//! * **Conservation**: ready, parked, fetching and in-flight counts equal
//!   the reference's; `retire` calls a packet stale exactly when a
//!   teardown discarded its backlog; teardown hands back exactly the ready
//!   packets and the parked count.
//! * **Occupancy**: `occupancy()` equals the undelivered fast-path packets
//!   that retired, descriptors held never exceed the capacity, and
//!   `reserve_fast` refuses exactly when they reach it. (The `via_slow`
//!   rule: delivering a fetched slow-path packet releases nothing.)
//! * **Phase accounting**: a fetch takes the oldest parked packets, at
//!   most the fetch batch; a fetch fault parks them again in order.
//! * **Liveness** (checked at every leaf): landing everything in flight,
//!   fetching and landing everything parked, and receiving drains the
//!   ring completely — every sequence number ends delivered, aborted or
//!   discarded.
//!
//! Operations with nothing to act on (retiring with nothing in flight,
//! say) are skipped: the sequence they would extend is the shorter one,
//! already explored. Violations are reported as structured
//! [`ceio_audit::Violation`]s via an [`AuditSink`], so a failure prints
//! the op sequence and a full state snapshot instead of a bare assert.

use ceio_audit::{AuditCtx, AuditSink};
use ceio_host::{ReadyPkt, SwRing};
use ceio_mem::BufferId;
use ceio_net::{FlowId, Packet, PacketId};
use ceio_sim::Time;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Reserve,
    RetireOldest,
    RetireNewest,
    AbortOldest,
    AbortNewest,
    Park,
    Fetch,
    FetchFault,
    Land,
    TakeOne,
    TakeAll,
    Teardown,
}

const FULL_ALPHABET: [Op; 12] = [
    Op::Reserve,
    Op::RetireOldest,
    Op::RetireNewest,
    Op::AbortOldest,
    Op::AbortNewest,
    Op::Park,
    Op::Fetch,
    Op::FetchFault,
    Op::Land,
    Op::TakeOne,
    Op::TakeAll,
    Op::Teardown,
];

/// Reduced alphabet for a deeper pass over the fine-grained interleavings
/// of the two producers, aborts and single-packet receives.
const CORE_ALPHABET: [Op; 7] = [
    Op::Reserve,
    Op::RetireNewest,
    Op::AbortOldest,
    Op::Park,
    Op::Fetch,
    Op::Land,
    Op::TakeOne,
];

/// Where one arrival sequence number's packet is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum St {
    /// Fast path, descriptor reserved, DMA in flight.
    InFlight,
    /// Slow path, parked in on-NIC memory.
    Parked,
    /// Slow path, DMA read in flight.
    Fetching,
    /// In host memory, awaiting delivery.
    Ready,
    Delivered,
    /// Dropped before it retired.
    Aborted,
    /// Backlog discarded by a teardown.
    Discarded,
}

/// The naive reference: one record per sequence number.
#[derive(Debug, Clone, Default)]
struct RefModel {
    /// `(via_slow, state)`, indexed by sequence number.
    recs: Vec<(bool, St)>,
    /// Delivery pointer set by the last teardown.
    torn: u64,
    /// Fast-path packets in flight, in reservation order.
    in_flight: Vec<u64>,
    /// Slow-path packets being fetched, in fetch order.
    fetching: Vec<u64>,
}

impl RefModel {
    fn count(&self, slow: Option<bool>, st: St) -> usize {
        self.recs
            .iter()
            .filter(|&&(s, x)| x == st && slow.is_none_or(|want| want == s))
            .count()
    }

    /// The next sequence number to deliver: the first at or past the
    /// teardown pointer that is neither delivered nor aborted.
    fn front(&self) -> u64 {
        (self.torn..self.recs.len() as u64)
            .find(|&seq| !matches!(self.recs[seq as usize].1, St::Delivered | St::Aborted))
            .unwrap_or(self.recs.len() as u64)
    }

    /// The front's packet, if it is deliverable now.
    fn deliverable(&self) -> Option<u64> {
        let seq = self.front();
        (self.recs.get(seq as usize).map(|r| r.1) == Some(St::Ready)).then_some(seq)
    }

    fn parked(&self) -> Vec<u64> {
        (0..self.recs.len() as u64)
            .filter(|&seq| self.recs[seq as usize].1 == St::Parked)
            .collect()
    }

    fn settled(&self) -> bool {
        self.recs
            .iter()
            .all(|r| matches!(r.1, St::Delivered | St::Aborted | St::Discarded))
    }
}

const BYTES: u64 = 512;

fn pkt(seq: u64) -> Packet {
    Packet {
        id: PacketId(seq),
        flow: FlowId(0),
        bytes: BYTES,
        msg_id: 0,
        msg_seq: 0,
        msg_last: false,
        sent_at: Time::ZERO,
        arrived_nic: Time::ZERO,
        ecn: false,
    }
}

struct Checker {
    sink: AuditSink,
    states: u64,
    cap: u32,
    fetch_batch: usize,
}

impl Checker {
    fn new(cap: u32, fetch_batch: usize) -> Checker {
        Checker {
            sink: AuditSink::with_capacity(8),
            states: 0,
            cap,
            fetch_batch,
        }
    }

    fn violate(
        &mut self,
        trace: &[Op],
        invariant: &'static str,
        detail: String,
        r: &SwRing,
        m: &RefModel,
    ) {
        let ctx = AuditCtx {
            event_index: trace.len() as u64,
            event_label: "model-step",
        };
        self.sink.report(
            &ctx,
            invariant,
            detail,
            vec![
                ("trace", format!("{trace:?}")),
                ("ring", format!("{r:?}")),
                ("reference", format!("{m:?}")),
            ],
        );
    }

    /// Invariants that must hold in every reachable state.
    fn check_state(&mut self, trace: &[Op], r: &SwRing, m: &RefModel) {
        self.states += 1;
        if r.base() != m.front() || r.arrivals() != m.recs.len() as u64 {
            self.violate(
                trace,
                "swring-ordering",
                format!(
                    "delivery pointer {} / arrivals {} != expected {} / {}",
                    r.base(),
                    r.arrivals(),
                    m.front(),
                    m.recs.len()
                ),
                r,
                m,
            );
        }
        let got = [
            r.ready_len(),
            r.parked_len(),
            r.fetching() as usize,
            r.inflight() as usize,
        ];
        let want = [
            m.count(None, St::Ready),
            m.count(None, St::Parked),
            m.count(None, St::Fetching),
            m.count(None, St::InFlight),
        ];
        if got != want {
            self.violate(
                trace,
                "swring-conservation",
                format!("ready/parked/fetching/in-flight {got:?} != expected {want:?}"),
                r,
                m,
            );
        }
        let ready_fast = m.count(Some(false), St::Ready) as u32;
        if r.occupancy() != ready_fast || r.outstanding() > self.cap {
            self.violate(
                trace,
                "swring-occupancy",
                format!(
                    "occupancy() {} (expected {ready_fast}), outstanding() {} of capacity {}",
                    r.occupancy(),
                    r.outstanding(),
                    self.cap
                ),
                r,
                m,
            );
        }
        let parked: Vec<u64> = r.parked().map(|sp| sp.nic_seq).collect();
        if parked != m.parked() {
            self.violate(
                trace,
                "swring-phase",
                format!(
                    "parked {parked:?} != expected {:?} (arrival order)",
                    m.parked()
                ),
                r,
                m,
            );
        }
    }

    /// Land packet `seq` (either path) in both models.
    fn land(&mut self, trace: &[Op], seq: u64, via_slow: bool, r: &mut SwRing, m: &mut RefModel) {
        let rp = ReadyPkt {
            pkt: pkt(seq),
            buf: BufferId(seq),
            ready: Time::ZERO,
            via_slow,
        };
        let stale = seq < m.torn;
        if r.retire(seq, rp) != stale {
            self.violate(
                trace,
                "swring-conservation",
                format!("retire({seq}) stale verdict != expected {stale}"),
                r,
                m,
            );
        }
        m.recs[seq as usize].1 = if stale { St::Discarded } else { St::Ready };
    }

    /// Whether `op` has something to act on.
    fn applicable(op: Op, m: &RefModel) -> bool {
        match op {
            Op::RetireOldest | Op::RetireNewest | Op::AbortOldest | Op::AbortNewest => {
                !m.in_flight.is_empty()
            }
            Op::Fetch | Op::FetchFault => m.recs.iter().any(|r| r.1 == St::Parked),
            Op::Land => !m.fetching.is_empty(),
            Op::Reserve | Op::Park | Op::TakeOne | Op::TakeAll | Op::Teardown => true,
        }
    }

    /// Apply one (applicable) operation to both models.
    fn apply(&mut self, trace: &[Op], op: Op, r: &mut SwRing, m: &mut RefModel) {
        let next = m.recs.len() as u64;
        match op {
            Op::Reserve => {
                let held = m.count(Some(false), St::Ready) + m.count(None, St::InFlight);
                let want_refuse = held == self.cap as usize;
                match r.reserve_fast() {
                    Some(seq) => {
                        if want_refuse || seq != next {
                            self.violate(
                                trace,
                                "swring-occupancy",
                                format!(
                                    "reserve_fast gave {seq} (expected {next}) with \
                                     {held} of {} descriptors held",
                                    self.cap
                                ),
                                r,
                                m,
                            );
                        }
                        m.recs.push((false, St::InFlight));
                        m.in_flight.push(seq);
                    }
                    None => {
                        if !want_refuse {
                            self.violate(
                                trace,
                                "swring-occupancy",
                                format!("reserve_fast refused with {held} of {} held", self.cap),
                                r,
                                m,
                            );
                        }
                    }
                }
            }
            Op::RetireOldest | Op::RetireNewest | Op::AbortOldest | Op::AbortNewest => {
                let i = match op {
                    Op::RetireOldest | Op::AbortOldest => 0,
                    _ => m.in_flight.len() - 1,
                };
                let seq = m.in_flight.remove(i);
                if matches!(op, Op::RetireOldest | Op::RetireNewest) {
                    self.land(trace, seq, false, r, m);
                } else {
                    r.abort_fast(seq);
                    m.recs[seq as usize].1 = St::Aborted;
                }
            }
            Op::Park => {
                let seq = r.park_slow(pkt(next), Time::ZERO);
                if seq != next {
                    self.violate(
                        trace,
                        "swring-ordering",
                        format!("park_slow gave {seq}, expected {next}"),
                        r,
                        m,
                    );
                }
                m.recs.push((true, St::Parked));
            }
            Op::Fetch | Op::FetchFault => {
                let mut batch = Vec::new();
                let bytes = r.take_fetch_batch(Time::ZERO, self.fetch_batch, &mut batch);
                let got: Vec<u64> = batch.iter().map(|sp| sp.nic_seq).collect();
                let mut want = m.parked();
                want.truncate(self.fetch_batch);
                if got != want || bytes != BYTES * got.len() as u64 {
                    self.violate(
                        trace,
                        "swring-phase",
                        format!("fetch took {got:?} ({bytes} B), expected the oldest {want:?}"),
                        r,
                        m,
                    );
                }
                if op == Op::FetchFault {
                    r.return_fetch(&mut batch);
                } else {
                    for &seq in &want {
                        m.recs[seq as usize].1 = St::Fetching;
                    }
                    m.fetching.extend(want);
                }
            }
            Op::Land => {
                let seq = m.fetching.remove(0);
                self.land(trace, seq, true, r, m);
            }
            Op::TakeOne | Op::TakeAll => {
                let max = if op == Op::TakeOne { 1 } else { usize::MAX };
                let mut out = Vec::new();
                r.take_deliverable(Time::ZERO, max, &mut out);
                for rp in &out {
                    let seq = rp.pkt.id.0;
                    let want = m.deliverable();
                    if want != Some(seq) || rp.via_slow != m.recs[seq as usize].0 {
                        self.violate(
                            trace,
                            "swring-ordering",
                            format!("delivered {seq} but arrival order expects {want:?}"),
                            r,
                            m,
                        );
                        return;
                    }
                    m.recs[seq as usize].1 = St::Delivered;
                }
                if out.len() < max {
                    if let Some(seq) = m.deliverable() {
                        self.violate(
                            trace,
                            "swring-ordering",
                            format!("take stopped short with {seq} deliverable"),
                            r,
                            m,
                        );
                    }
                }
            }
            Op::Teardown => {
                let mut drained = Vec::new();
                let (parked_pkts, parked_bytes) = r.teardown(&mut drained);
                let got: Vec<u64> = drained.iter().map(|rp| rp.pkt.id.0).collect();
                let want: Vec<u64> = (0..next)
                    .filter(|&seq| m.recs[seq as usize].1 == St::Ready)
                    .collect();
                let parked = m.count(None, St::Parked) as u64;
                if got != want || (parked_pkts, parked_bytes) != (parked, parked * BYTES) {
                    self.violate(
                        trace,
                        "swring-conservation",
                        format!(
                            "teardown drained {got:?} and {parked_pkts} parked; expected \
                             {want:?} and {parked}"
                        ),
                        r,
                        m,
                    );
                }
                for rec in &mut m.recs {
                    if matches!(rec.1, St::Ready | St::Parked) {
                        rec.1 = St::Discarded;
                    }
                }
                m.torn = next;
            }
        }
        self.check_state(trace, r, m);
    }

    /// Leaf check: everything in flight lands, everything parked is
    /// fetched and lands, and receiving drains the ring completely.
    fn check_liveness(&mut self, trace: &mut Vec<Op>, r: &mut SwRing, m: &mut RefModel) {
        let mut rounds = m.recs.len() + 2;
        while !m.settled() && rounds > 0 && self.sink.is_clean() {
            for op in [Op::RetireOldest, Op::Fetch, Op::Land, Op::TakeAll] {
                while Checker::applicable(op, m) && self.sink.is_clean() {
                    trace.push(op);
                    self.apply(trace, op, r, m);
                    trace.pop();
                    if op == Op::TakeAll {
                        break;
                    }
                }
            }
            rounds -= 1;
        }
        if !m.settled() || r.has_pending() {
            let left = m.recs.len() - m.count(None, St::Delivered);
            self.violate(
                trace,
                "swring-liveness",
                format!("drain stalled: {left} sequence numbers not delivered"),
                r,
                m,
            );
        }
    }

    /// DFS over all sequences up to `depth`.
    fn explore(
        &mut self,
        alphabet: &[Op],
        depth: usize,
        trace: &mut Vec<Op>,
        r: &SwRing,
        m: &RefModel,
    ) {
        if depth == 0 {
            self.check_liveness(trace, &mut r.clone(), &mut m.clone());
            return;
        }
        for &op in alphabet {
            if !self.sink.is_clean() {
                return; // first violation carries the full trace; stop early
            }
            if !Checker::applicable(op, m) {
                continue;
            }
            let mut r2 = r.clone();
            let mut m2 = m.clone();
            trace.push(op);
            self.apply(trace, op, &mut r2, &mut m2);
            self.explore(alphabet, depth - 1, trace, &r2, &m2);
            trace.pop();
        }
    }
}

fn run_checker(alphabet: &[Op], depth: usize, cap: u32, fetch_batch: usize) -> Checker {
    let mut c = Checker::new(cap, fetch_batch);
    let r = SwRing::new(cap);
    let m = RefModel::default();
    c.check_state(&[], &r, &m);
    c.explore(alphabet, depth, &mut Vec::new(), &r, &m);
    c
}

fn assert_clean(c: &Checker, min_states: u64) {
    assert!(
        c.sink.is_clean(),
        "model checker found {} violation(s):\n{}",
        c.sink.total(),
        c.sink
            .violations()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        c.states >= min_states,
        "explored only {} states (expected ≥ {min_states}) — did the bound shrink?",
        c.states
    );
}

#[test]
fn swring_exhaustive_full_alphabet_depth6() {
    // Every machine operation over a tiny ring (capacity 2, fetch batch
    // 1): the configuration that maximizes boundary collisions.
    let c = run_checker(&FULL_ALPHABET, 6, 2, 1);
    assert_clean(&c, 300_000);
}

#[test]
fn swring_exhaustive_core_alphabet_depth8() {
    // Deeper pass over the fine-grained interleavings with a batch of 2,
    // so partially landed fetch batches are reachable.
    let c = run_checker(&CORE_ALPHABET, 8, 2, 2);
    assert_clean(&c, 800_000);
}

#[test]
fn swring_exhaustive_wider_ring_depth5() {
    // A wider ring (capacity 3, batch 3) shifts every boundary; shallower
    // depth keeps the run fast.
    let c = run_checker(&FULL_ALPHABET, 5, 3, 3);
    assert_clean(&c, 40_000);
}

/// The checker itself must be able to fail: a reference model that claims
/// a different arrival order must be refuted by the ring within depth 3.
#[test]
fn swring_checker_detects_seeded_divergence() {
    let mut c = Checker::new(2, 1);
    let mut r = SwRing::new(2);
    let mut m = RefModel::default();
    c.apply(&[Op::Park], Op::Park, &mut r, &mut m);
    c.apply(&[Op::Park, Op::Reserve], Op::Reserve, &mut r, &mut m);
    assert!(c.sink.is_clean());
    // Mutate the reference to claim the fast packet arrived first.
    m.recs.swap(0, 1);
    m.in_flight = vec![0];
    c.check_state(&[Op::Park, Op::Reserve], &r, &m);
    assert!(
        c.sink.total() > 0,
        "seeded ordering divergence must be detected"
    );
    assert_eq!(c.sink.violations()[0].invariant, "swring-phase");
}
