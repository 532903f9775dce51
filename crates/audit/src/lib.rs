//! # ceio-audit — the invariant-audit layer
//!
//! CEIO's correctness rests on a small catalog of invariants the paper
//! states but the simulator (until now) only spot-checked:
//!
//! 1. **Credit conservation** (Eq. 1 / Algorithm 1): free + held + owed
//!    credits always sum to the configured total, so admitted I/O can
//!    never overflow the DDIO-reachable LLC partition.
//! 2. **No overdraft**: `try_consume` never succeeds when a flow holds
//!    zero credits.
//! 3. **SW-ring ordering** (§4.2): per-flow delivery order equals NIC
//!    arrival order, across fast/slow path transitions.
//! 4. **Phase exclusivity**: fast-path deliveries never interleave with an
//!    active slow-path drain of the same flow.
//! 5. **Ring occupancy**: hardware-ring occupancy ≤ capacity, with
//!    cumulative `head_seq ≤ tail_seq`.
//! 6. **LLC I/O occupancy**: DDIO-resident I/O bytes ≤ the reachable
//!    partition capacity.
//! 7. **Event-time monotonicity**: the discrete-event clock never runs
//!    backwards.
//!
//! This crate provides the *framework*: an [`Invariant`] trait, an
//! [`AuditRegistry`] that runs a set of invariants after every simulation
//! event and accumulates structured [`Violation`]s (event index, invariant
//! name, state snapshot) instead of panicking, and the global audit-mode
//! switch ([`enabled`]). The concrete invariant implementations live next
//! to the state they check (`ceio_host::audit` and `CeioPolicy`'s
//! `audit_check` in `ceio-core`, both compiled into every build); the
//! bounded model checkers that exhaustively verify the SW-ring and
//! credit-ledger state machines are in this crate's `tests/`.
//!
//! Audit mode is armed only at run time: by `CEIO_AUDIT=1` in the
//! environment or [`set_enabled`]`(true)` for every machine built
//! afterwards, or per machine by `Machine::arm_audit`. An unarmed machine
//! holds no auditor.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

// ---------------------------------------------------------------------------
// Runtime switch.
// ---------------------------------------------------------------------------

/// 0 = unknown (consult env), 1 = off, 2 = on.
static AUDIT_STATE: AtomicU8 = AtomicU8::new(0);

/// Whether audit mode is armed at runtime. Defaults to the `CEIO_AUDIT`
/// environment variable (`1`/`true`/`on` arm it); [`set_enabled`]
/// overrides. Cheap after first call (one relaxed atomic load).
pub fn enabled() -> bool {
    match AUDIT_STATE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            let on = std::env::var("CEIO_AUDIT")
                .map(|v| matches!(v.as_str(), "1" | "true" | "on"))
                .unwrap_or(false);
            AUDIT_STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
    }
}

/// Arm or disarm audit mode for this process (overrides `CEIO_AUDIT`).
pub fn set_enabled(on: bool) {
    AUDIT_STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Violations and reports.
// ---------------------------------------------------------------------------

/// One detected invariant violation: a structured record, not a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Index of the simulation event after which the check failed
    /// (0-based; `u64::MAX` when checked outside an event loop).
    pub event_index: u64,
    /// Short label of the event that was just handled (e.g. `"HostRetire"`).
    pub event_label: String,
    /// Name of the violated invariant (e.g. `"credit-conservation"`).
    pub invariant: &'static str,
    /// Human-readable description of what failed.
    pub detail: String,
    /// Key/value snapshot of the relevant state at violation time.
    pub snapshot: Vec<(&'static str, String)>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] violated after event #{} ({}): {}",
            self.invariant, self.event_index, self.event_label, self.detail
        )?;
        for (k, v) in &self.snapshot {
            write!(f, "\n    {k} = {v}")?;
        }
        Ok(())
    }
}

/// Context handed to invariants: which event was just handled.
#[derive(Debug, Clone, Copy)]
pub struct AuditCtx<'a> {
    /// Index of the event just handled (0-based).
    pub event_index: u64,
    /// Short label of that event.
    pub event_label: &'a str,
}

/// Sink invariants report into. Collects violations (bounded) and keeps
/// a total count even after the bound is hit.
#[derive(Debug)]
pub struct AuditSink {
    violations: Vec<Violation>,
    total: u64,
    cap: usize,
}

impl AuditSink {
    /// A sink retaining at most `cap` violation records (counting all).
    pub fn with_capacity(cap: usize) -> AuditSink {
        AuditSink {
            violations: Vec::new(),
            total: 0,
            cap,
        }
    }

    /// Record a violation.
    pub fn report(
        &mut self,
        ctx: &AuditCtx<'_>,
        invariant: &'static str,
        detail: String,
        snapshot: Vec<(&'static str, String)>,
    ) {
        self.total += 1;
        if self.violations.len() < self.cap {
            self.violations.push(Violation {
                event_index: ctx.event_index,
                event_label: ctx.event_label.to_string(),
                invariant,
                detail,
                snapshot,
            });
        }
    }

    /// Violations retained (up to the construction cap).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Total violations detected, including those beyond the retention cap.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Whether no violation was ever detected.
    pub fn is_clean(&self) -> bool {
        self.total == 0
    }
}

impl Default for AuditSink {
    /// A sink retaining up to 64 violation records.
    fn default() -> Self {
        AuditSink::with_capacity(64)
    }
}

// ---------------------------------------------------------------------------
// Invariant trait + registry.
// ---------------------------------------------------------------------------

/// One checkable invariant over a state type `S`.
///
/// Implementations may keep history (e.g. the last observed event time for
/// monotonicity checks) — `check` takes `&mut self`.
pub trait Invariant<S: ?Sized> {
    /// Stable, kebab-case name (used in reports and filtering).
    fn name(&self) -> &'static str;

    /// Inspect `state` after an event; report violations into `sink`.
    fn check(&mut self, ctx: &AuditCtx<'_>, state: &S, sink: &mut AuditSink);
}

/// An ordered set of invariants checked after every simulation event.
pub struct AuditRegistry<S: ?Sized> {
    invariants: Vec<Box<dyn Invariant<S>>>,
    sink: AuditSink,
    events_checked: u64,
}

impl<S: ?Sized> fmt::Debug for AuditRegistry<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AuditRegistry")
            .field("invariants", &self.invariants.len())
            .field("events_checked", &self.events_checked)
            .field("violations", &self.sink.total())
            .finish()
    }
}

impl<S: ?Sized> AuditRegistry<S> {
    /// An empty registry with the default violation-retention cap.
    pub fn new() -> AuditRegistry<S> {
        AuditRegistry {
            invariants: Vec::new(),
            sink: AuditSink::default(),
            events_checked: 0,
        }
    }

    /// Register an invariant (checked in registration order).
    pub fn register(&mut self, inv: Box<dyn Invariant<S>>) -> &mut Self {
        self.invariants.push(inv);
        self
    }

    /// Run every invariant against `state` after event `event_label`.
    pub fn check_event(&mut self, event_label: &str, state: &S) {
        self.check_event_with(event_label, state, |_, _, _| {});
    }

    /// Like [`AuditRegistry::check_event`], but additionally runs `extra`
    /// against the same context and sink — for checks that need state the
    /// registry cannot see (e.g. a policy's internal credit ledger, which
    /// lives next to the machine state rather than inside it).
    pub fn check_event_with<F>(&mut self, event_label: &str, state: &S, extra: F)
    where
        F: FnOnce(&AuditCtx<'_>, &S, &mut AuditSink),
    {
        let ctx = AuditCtx {
            event_index: self.events_checked,
            event_label,
        };
        for inv in &mut self.invariants {
            inv.check(&ctx, state, &mut self.sink);
        }
        extra(&ctx, state, &mut self.sink);
        self.events_checked += 1;
    }

    /// Events audited so far.
    pub fn events_checked(&self) -> u64 {
        self.events_checked
    }

    /// The violation sink (inspect / drain).
    pub fn sink(&self) -> &AuditSink {
        &self.sink
    }

    /// Whether every check so far passed.
    pub fn is_clean(&self) -> bool {
        self.sink.is_clean()
    }

    /// Render a full report.
    pub fn report(&self) -> AuditReport {
        AuditReport {
            events_checked: self.events_checked,
            invariants: self.invariants.iter().map(|i| i.name()).collect(),
            total_violations: self.sink.total(),
            violations: self.sink.violations().to_vec(),
        }
    }
}

impl<S: ?Sized> Default for AuditRegistry<S> {
    fn default() -> Self {
        Self::new()
    }
}

/// Summary of one audited run.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Events audited.
    pub events_checked: u64,
    /// Names of the registered invariants.
    pub invariants: Vec<&'static str>,
    /// Total violations (including any beyond the retention cap).
    pub total_violations: u64,
    /// Retained violation records.
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// Whether the audited run satisfied every invariant.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.total_violations == 0
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "audit: {} events checked against {} invariants — {}",
            self.events_checked,
            self.invariants.len(),
            if self.total_violations == 0 {
                "clean".to_string()
            } else {
                format!("{} VIOLATIONS", self.total_violations)
            }
        )?;
        for v in &self.violations {
            writeln!(f, "{v}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Helper: closure-backed invariant, for lightweight registrations.
// ---------------------------------------------------------------------------

/// An [`Invariant`] built from a closure returning `Err(detail, snapshot)`
/// on violation.
pub struct FnInvariant<S: ?Sized, F> {
    name: &'static str,
    f: F,
    _marker: std::marker::PhantomData<fn(&S)>,
}

/// Type alias for the check outcome of [`FnInvariant`] closures.
pub type CheckOutcome = Result<(), (String, Vec<(&'static str, String)>)>;

impl<S: ?Sized, F> FnInvariant<S, F>
where
    F: FnMut(&S) -> CheckOutcome,
{
    /// Wrap `f` as a named invariant.
    pub fn new(name: &'static str, f: F) -> FnInvariant<S, F> {
        FnInvariant {
            name,
            f,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<S: ?Sized, F> Invariant<S> for FnInvariant<S, F>
where
    F: FnMut(&S) -> CheckOutcome,
{
    fn name(&self) -> &'static str {
        self.name
    }

    fn check(&mut self, ctx: &AuditCtx<'_>, state: &S, sink: &mut AuditSink) {
        if let Err((detail, snapshot)) = (self.f)(state) {
            sink.report(ctx, self.name, detail, snapshot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_collects_structured_violations() {
        let mut reg: AuditRegistry<u32> = AuditRegistry::new();
        reg.register(Box::new(FnInvariant::new("small", |s: &u32| {
            if *s < 10 {
                Ok(())
            } else {
                Err((format!("{s} >= 10"), vec![("value", s.to_string())]))
            }
        })));
        reg.check_event("ok", &3);
        assert!(reg.is_clean());
        reg.check_event("boom", &42);
        assert_eq!(reg.sink().total(), 1);
        let v = &reg.sink().violations()[0];
        assert_eq!(v.invariant, "small");
        assert_eq!(v.event_index, 1);
        assert_eq!(v.event_label, "boom");
        assert_eq!(v.snapshot[0].1, "42");
        let text = reg.report().to_string();
        assert!(text.contains("1 VIOLATIONS"), "{text}");
    }

    #[test]
    fn sink_caps_retention_but_counts_all() {
        let mut sink = AuditSink::with_capacity(2);
        let ctx = AuditCtx {
            event_index: 0,
            event_label: "e",
        };
        for _ in 0..5 {
            sink.report(&ctx, "x", "d".into(), vec![]);
        }
        assert_eq!(sink.total(), 5);
        assert_eq!(sink.violations().len(), 2);
    }

    #[test]
    fn stateful_invariant_keeps_history() {
        struct Monotone {
            last: Option<u32>,
        }
        impl Invariant<u32> for Monotone {
            fn name(&self) -> &'static str {
                "monotone"
            }
            fn check(&mut self, ctx: &AuditCtx<'_>, s: &u32, sink: &mut AuditSink) {
                if let Some(prev) = self.last {
                    if *s < prev {
                        sink.report(
                            ctx,
                            self.name(),
                            format!("{s} < {prev}"),
                            vec![("prev", prev.to_string()), ("now", s.to_string())],
                        );
                    }
                }
                self.last = Some(*s);
            }
        }
        let mut reg: AuditRegistry<u32> = AuditRegistry::new();
        reg.register(Box::new(Monotone { last: None }));
        reg.check_event("a", &1);
        reg.check_event("b", &5);
        reg.check_event("c", &2);
        assert_eq!(reg.sink().total(), 1);
    }

    #[test]
    fn runtime_switch_overrides() {
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
