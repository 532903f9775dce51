//! Machine-level invariant auditing, compiled into every build and armed
//! at run time: by `CEIO_AUDIT=1` (or `ceio_audit::set_enabled`) when a
//! machine is built, or per machine by `Machine::arm_audit`. An unarmed
//! machine holds `None` and allocates nothing for it.
//!
//! [`HostAuditor`] runs the machine's invariant catalog after every
//! simulation event and accumulates structured [`ceio_audit::Violation`]s
//! instead of panicking. Invariants checked here are the ones visible from
//! [`HostState`]:
//!
//! * **event-time-monotonic** — the discrete-event clock never runs
//!   backwards across handled events.
//! * **ring-occupancy** — per-flow host-ring outstanding entries (retired
//!   plus DMA-in-flight) never exceed the ring capacity.
//! * **delivery-order** — the per-flow delivery pointer is monotone and
//!   never outruns the arrival sequence; parked slow-path packets keep
//!   strictly increasing arrival order (FIFO through on-NIC memory).
//! * **phase-exclusivity** — no undelivered packet (host-ready or parked
//!   on the NIC) has an arrival sequence *below* the delivery pointer:
//!   that would mean a later packet overtook it, the exact reordering the
//!   §4.2 phase-exclusivity rule exists to prevent. The host-ready side is
//!   a ring indexed from its base, which *is* the delivery pointer.
//! * **no-orphan-hole** — when a flow's delivery front is a hole while
//!   ready packets wait behind it, something that can fill the hole must
//!   exist: a reserved descriptor in flight, a parked packet, or a fetch
//!   in flight. Otherwise the flow is wedged for good (a packet dropped
//!   before it retired kept its sequence number).
//! * **llc-io-occupancy** — DDIO-resident I/O bytes never exceed the
//!   reachable LLC partition capacity (what credit admission guarantees).
//! * **iio-occupancy** — staged bytes never exceed the IIO buffer.
//! * **poll-scan-hints** — the bookkeeping a core poll trusts to skip
//!   work is never stale in the unsafe direction: every listed flow
//!   records its own core and list position, every flow with ready or
//!   parked packets has the busy bit at that position set, and
//!   every core whose service list holds an inactive flow is flagged for
//!   a retain.
//!
//! Policy-internal invariants (the CEIO credit ledger) are checked through
//! the [`IoPolicy::audit_check`] hook, which shares this auditor's sink so
//! one report covers the whole machine.
//!
//! [`IoPolicy::audit_check`]: crate::policy::IoPolicy::audit_check

use crate::machine::HostState;
use crate::policy::IoPolicy;
use ceio_audit::{AuditCtx, AuditRegistry, AuditReport, AuditSink, FnInvariant, Invariant};
use ceio_net::FlowId;
use ceio_sim::Time;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Per-event auditor for the host machine. Construct with
/// [`HostAuditor::new`] (or arm via `Machine::arm_audit`) and feed it every
/// handled event; read the verdict with [`HostAuditor::report`].
#[derive(Debug)]
pub struct HostAuditor {
    registry: AuditRegistry<HostState>,
    /// Event timestamp shared with the monotonicity invariant (the
    /// registry only sees `HostState`, which carries no clock).
    now: Rc<Cell<Time>>,
}

impl Default for HostAuditor {
    fn default() -> Self {
        HostAuditor::new()
    }
}

impl HostAuditor {
    /// An auditor with the full machine invariant catalog registered.
    pub fn new() -> HostAuditor {
        let now = Rc::new(Cell::new(Time::ZERO));
        let mut registry: AuditRegistry<HostState> = AuditRegistry::new();

        // 1. Event-time monotonicity.
        let clock = Rc::clone(&now);
        let mut last: Option<Time> = None;
        registry.register(Box::new(FnInvariant::new(
            "event-time-monotonic",
            move |_st: &HostState| {
                let t = clock.get();
                let prev = last.replace(t);
                match prev {
                    Some(p) if t < p => Err((
                        "event clock ran backwards".to_string(),
                        vec![("prev_ns", format!("{p:?}")), ("now_ns", format!("{t:?}"))],
                    )),
                    _ => Ok(()),
                }
            },
        )));

        // 2. Host-ring occupancy bound.
        registry.register(Box::new(FnInvariant::new(
            "ring-occupancy",
            |st: &HostState| {
                for (id, f) in &st.flows {
                    if f.ring.outstanding() > f.ring.capacity() {
                        return Err((
                            format!("flow {} host-ring outstanding exceeds capacity", id.0),
                            vec![
                                ("flow", id.0.to_string()),
                                ("ring_occupancy", f.ring.occupancy().to_string()),
                                ("ring_inflight", f.ring.inflight().to_string()),
                                ("ring_capacity", f.ring.capacity().to_string()),
                            ],
                        ));
                    }
                }
                Ok(())
            },
        )));

        // 3. Delivery-order bookkeeping.
        registry.register(Box::new(DeliveryOrder {
            last_deliver: BTreeMap::new(),
        }));

        // 4. Phase exclusivity / no-overtake.
        registry.register(Box::new(FnInvariant::new(
            "phase-exclusivity",
            |st: &HostState| {
                for (id, f) in &st.flows {
                    let base = f.ring.base();
                    let min_ready = f.ring.first().map(|(seq, _)| seq);
                    let overtaken_ready = min_ready.is_some_and(|seq| seq < base);
                    let overtaken_slow = f.ring.parked().any(|sp| sp.nic_seq < base);
                    if overtaken_ready || overtaken_slow {
                        return Err((
                            format!(
                                "flow {}: undelivered packet behind the delivery pointer \
                                 (a later packet overtook it)",
                                id.0
                            ),
                            vec![
                                ("flow", id.0.to_string()),
                                ("next_deliver_seq", base.to_string()),
                                (
                                    "min_ready_seq",
                                    min_ready
                                        .map(|seq| seq.to_string())
                                        .unwrap_or_else(|| "-".into()),
                                ),
                                (
                                    "min_slow_seq",
                                    f.ring
                                        .parked()
                                        .next()
                                        .map(|sp| sp.nic_seq.to_string())
                                        .unwrap_or_else(|| "-".into()),
                                ),
                            ],
                        ));
                    }
                }
                Ok(())
            },
        )));

        // 5. No orphan hole: a hole at the delivery front can be filled.
        registry.register(Box::new(FnInvariant::new(
            "no-orphan-hole",
            |st: &HostState| {
                for (id, f) in &st.flows {
                    let r = &f.ring;
                    let can_fill = r.inflight() > 0 || r.parked_len() > 0 || r.fetching() > 0;
                    if r.blocked_by_hole() && !can_fill {
                        return Err((
                            format!(
                                "flow {}: delivery front {} is a hole nothing in flight can fill",
                                id.0,
                                r.base()
                            ),
                            vec![
                                ("flow", id.0.to_string()),
                                ("next_deliver_seq", r.base().to_string()),
                                ("ready", r.ready_len().to_string()),
                                ("arrivals", r.arrivals().to_string()),
                            ],
                        ));
                    }
                }
                Ok(())
            },
        )));

        // 6. LLC I/O occupancy within the DDIO-reachable partition.
        registry.register(Box::new(FnInvariant::new(
            "llc-io-occupancy",
            |st: &HostState| {
                let occ = st.memctrl.llc.occupancy();
                let cap = st.memctrl.llc.capacity();
                if occ > cap {
                    Err((
                        "LLC I/O occupancy exceeds the DDIO partition".to_string(),
                        vec![
                            ("occupancy_bytes", occ.to_string()),
                            ("capacity_bytes", cap.to_string()),
                        ],
                    ))
                } else {
                    Ok(())
                }
            },
        )));

        // 7. IIO staging occupancy.
        registry.register(Box::new(FnInvariant::new(
            "iio-occupancy",
            |st: &HostState| {
                let occ = st.memctrl.iio.occupancy();
                let cap = st.memctrl.iio.capacity();
                if occ > cap {
                    Err((
                        "IIO staging occupancy exceeds its buffer".to_string(),
                        vec![
                            ("occupancy_bytes", occ.to_string()),
                            ("capacity_bytes", cap.to_string()),
                        ],
                    ))
                } else {
                    Ok(())
                }
            },
        )));

        // 8. Core-poll scan hints (list positions, busy bits, retain flags).
        registry.register(Box::new(FnInvariant::new(
            "poll-scan-hints",
            |st: &HostState| {
                for (core, list) in st.core_flows.iter().enumerate() {
                    for (pos, id) in list.ids().iter().enumerate() {
                        let at = st.flows.get(id).map(|f| (f.core, f.list_pos));
                        if at != Some((core, pos)) {
                            return Err((
                                format!("flow {} is listed at core {core} position {pos}, but records {at:?}", id.0),
                                vec![
                                    ("flow", id.0.to_string()),
                                    ("core", core.to_string()),
                                    ("position", pos.to_string()),
                                ],
                            ));
                        }
                    }
                }
                for (id, f) in &st.flows {
                    let list = &st.core_flows[f.core];
                    let busy =
                        list.ids().get(f.list_pos) == Some(&id) && list.is_busy(f.list_pos);
                    if !busy && f.ring.has_queued() {
                        return Err((
                            format!("flow {} has queued packets but a clear busy bit", id.0),
                            vec![
                                ("flow", id.0.to_string()),
                                ("ready", f.ring.ready_len().to_string()),
                                ("slow_queue", f.ring.parked_len().to_string()),
                            ],
                        ));
                    }
                }
                for (core, list) in st.core_flows.iter().enumerate() {
                    let inactive = list
                        .ids()
                        .iter()
                        .find(|id| st.flows.get(id).is_none_or(|f| !f.active));
                    if let (Some(id), false) = (inactive, st.retain_due[core]) {
                        return Err((
                            format!("core {core} lists inactive flow {} unflagged", id.0),
                            vec![("core", core.to_string()), ("flow", id.0.to_string())],
                        ));
                    }
                }
                Ok(())
            },
        )));

        HostAuditor { registry, now }
    }

    /// Audit the machine after one handled event: run every registered
    /// machine invariant, then the policy's [`IoPolicy::audit_check`] hook.
    ///
    /// [`IoPolicy::audit_check`]: crate::policy::IoPolicy::audit_check
    #[inline(never)]
    pub fn after_event<P: IoPolicy + ?Sized>(
        &mut self,
        now: Time,
        label: &'static str,
        st: &HostState,
        policy: &P,
    ) {
        self.now.set(now);
        self.registry
            .check_event_with(label, st, |ctx, st, sink| policy.audit_check(st, ctx, sink));
    }

    /// Whether every check so far passed.
    pub fn is_clean(&self) -> bool {
        self.registry.is_clean()
    }

    /// Events audited so far.
    pub fn events_checked(&self) -> u64 {
        self.registry.events_checked()
    }

    /// The full structured report.
    pub fn report(&self) -> AuditReport {
        self.registry.report()
    }
}

/// Stateful delivery-order invariant: per-flow delivery pointers are
/// monotone, bounded by the arrival sequence, and parked slow-path packets
/// stay in strictly increasing arrival order.
struct DeliveryOrder {
    last_deliver: BTreeMap<FlowId, u64>,
}

impl Invariant<HostState> for DeliveryOrder {
    fn name(&self) -> &'static str {
        "delivery-order"
    }

    fn check(&mut self, ctx: &AuditCtx<'_>, st: &HostState, sink: &mut AuditSink) {
        for (id, f) in &st.flows {
            let base = f.ring.base();
            let prev = self.last_deliver.insert(id, base).unwrap_or(0);
            if base < prev {
                sink.report(
                    ctx,
                    self.name(),
                    format!("flow {}: delivery pointer moved backwards", id.0),
                    vec![
                        ("flow", id.0.to_string()),
                        ("prev", prev.to_string()),
                        ("next_deliver_seq", base.to_string()),
                    ],
                );
            }
            if base > f.ring.arrivals() {
                sink.report(
                    ctx,
                    self.name(),
                    format!("flow {}: delivery pointer beyond arrival sequence", id.0),
                    vec![
                        ("flow", id.0.to_string()),
                        ("next_deliver_seq", base.to_string()),
                        ("nic_seq_next", f.ring.arrivals().to_string()),
                    ],
                );
            }
            let mut last_slow: Option<u64> = None;
            for sp in f.ring.parked() {
                if let Some(prev_seq) = last_slow {
                    if sp.nic_seq <= prev_seq {
                        sink.report(
                            ctx,
                            self.name(),
                            format!("flow {}: slow queue out of arrival order", id.0),
                            vec![
                                ("flow", id.0.to_string()),
                                ("prev_seq", prev_seq.to_string()),
                                ("nic_seq", sp.nic_seq.to_string()),
                            ],
                        );
                        break;
                    }
                }
                last_slow = Some(sp.nic_seq);
            }
        }
        self.last_deliver.retain(|id, _| st.flows.contains_key(id));
    }
}
