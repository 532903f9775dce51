//! CEIO reproduction — unified telemetry: metrics snapshots + pipeline
//! event tracing.
//!
//! Two pillars, matching the two things a DDIO-interaction reproduction
//! must be able to show:
//!
//! 1. **Metrics registry** ([`Snapshot`], [`SnapshotBuilder`]): one
//!    labeled, serializable aggregation point for every component's
//!    `*Stats` struct, exported as Prometheus text exposition
//!    ([`Snapshot::to_prom_text`]). Armed audit runs surface their
//!    [`AuditSummary`] here instead of dropping violations on the floor.
//!
//! 2. **Event tracing** ([`TraceEvent`], [`TraceRing`]): bounded
//!    drop-oldest recording of structured pipeline events (credits,
//!    steering rewrites, phase exclusivity, DMA, slow path, drops,
//!    deliveries), exported as Chrome trace-event JSON
//!    ([`chrome_trace_json`]) loadable in Perfetto. On top of the raw
//!    events, [`BreakdownSet`] splits per-flow latency into path stages.
//!
//! This crate deliberately depends only on `ceio-sim`, so every layer
//! (nic, pcie, host, core, bench) can use it without cycles. Recording is
//! opt-in at runtime: components hold an `Option<TraceRing>` that is
//! `None` until armed, so an unarmed hook costs one `Option` test.

#![warn(missing_docs)]

pub mod breakdown;
pub mod chrome;
pub mod event;
pub mod json;
pub mod scope;
pub mod snapshot;

pub use breakdown::{BreakdownSet, PathBreakdown, Stage};
pub use chrome::chrome_trace_json;
pub use event::{merge_events, Phase, TraceEvent, TraceKind, TraceRing};
pub use scope::{
    render_html, AlertFire, Chart, FlightRecorder, ScopeSeries, SloPredicate, SloRule,
};
pub use snapshot::{
    AuditSummary, Metric, MetricValue, Snapshot, SnapshotBuilder, SUMMARY_QUANTILES,
};
