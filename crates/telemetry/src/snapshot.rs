//! The unified metrics registry: one labeled, serializable snapshot.
//!
//! Every component of the simulated host keeps its own `*Stats` struct
//! (RMT, ARM, onboard memory, DMA, LLC, IIO, DRAM, CPU cores, ingress,
//! credits, controller). A [`Snapshot`] aggregates all of them — plus,
//! when armed, the audit report — behind one type
//! with one hand-written exporter, [`Snapshot::to_prom_text`]: Prometheus
//! text exposition (`# HELP` / `# TYPE` preambles, labeled samples,
//! summary quantiles), scrapeable or diffable.
//!
//! Serialization is hand-rolled because the workspace builds offline with
//! no serialization crate; the emitter is small, deterministic
//! (insertion-ordered), and covered by golden-file tests.

use crate::json::{escape, fmt_f64};
use ceio_sim::{Histogram, Time};
use std::fmt::Write as _;

/// The value of one metric sample.
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// Monotonic count.
    Counter(u64),
    /// Point-in-time level.
    Gauge(f64),
    /// Distribution summary: pre-computed quantiles plus sum and count
    /// (rendered as a Prometheus `summary`).
    Summary {
        /// `(q, value)` pairs in ascending `q` order.
        quantiles: Vec<(f64, u64)>,
        /// Sum of all recorded values.
        sum: u128,
        /// Number of recorded values.
        count: u64,
    },
}

impl MetricValue {
    fn type_name(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Summary { .. } => "summary",
        }
    }

    /// The sample as an integer: the count of a counter, a truncated
    /// gauge, or the observation count of a summary. Convenient for
    /// assertions and report scripts that don't care about the kind.
    pub fn as_u64(&self) -> u64 {
        match self {
            MetricValue::Counter(v) => *v,
            MetricValue::Gauge(v) => *v as u64,
            MetricValue::Summary { count, .. } => *count,
        }
    }
}

/// One metric sample: name, help text, labels, value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Prometheus-style metric name (`ceio_<component>_<what>[_total]`).
    pub name: String,
    /// One-line description (the `# HELP` text).
    pub help: &'static str,
    /// Label pairs, e.g. `[("flow", "3")]`.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: MetricValue,
}

/// Condensed audit outcome carried inside a snapshot (mirrors
/// `ceio_audit::AuditReport` without depending on that crate, keeping the
/// telemetry layer dependency-free for every other crate).
#[derive(Debug, Clone, Default)]
pub struct AuditSummary {
    /// Events the auditor inspected.
    pub events_checked: u64,
    /// Registered invariant names.
    pub invariants: Vec<String>,
    /// Total violations observed (including ones beyond the detail cap).
    pub total_violations: u64,
    /// Rendered violation records (possibly capped).
    pub violations: Vec<String>,
}

/// A complete, self-describing telemetry snapshot of one run.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Simulated instant the snapshot was taken.
    pub at: Time,
    /// All metric samples, in registration order.
    pub metrics: Vec<Metric>,
    /// Audit outcome, when an auditor was armed.
    pub audit: Option<AuditSummary>,
}

impl Snapshot {
    /// Render the snapshot in the Prometheus text exposition format.
    ///
    /// `# HELP`/`# TYPE` preambles are emitted once per metric name, at
    /// its first occurrence; samples keep registration order, so output
    /// is deterministic and golden-testable. Audit violations, if any,
    /// are appended as comment lines after the samples — armed runs
    /// surface them in every export instead of dropping them.
    pub fn to_prom_text(&self) -> String {
        let mut out = String::new();
        let mut seen: Vec<String> = Vec::new();
        for m in &self.metrics {
            let name = sanitize_metric_name(&m.name);
            if !seen.contains(&name) {
                seen.push(name.clone());
                let _ = writeln!(out, "# HELP {} {}", name, m.help);
                let _ = writeln!(out, "# TYPE {} {}", name, m.value.type_name());
            }
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{}{} {}", name, prom_labels(&m.labels, None), v);
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(
                        out,
                        "{}{} {}",
                        name,
                        prom_labels(&m.labels, None),
                        fmt_f64(*v)
                    );
                }
                MetricValue::Summary {
                    quantiles,
                    sum,
                    count,
                } => {
                    for (q, v) in quantiles {
                        let _ = writeln!(out, "{}{} {}", name, prom_labels(&m.labels, Some(*q)), v);
                    }
                    let _ = writeln!(out, "{}_sum{} {}", name, prom_labels(&m.labels, None), sum);
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        name,
                        prom_labels(&m.labels, None),
                        count
                    );
                }
            }
        }
        if let Some(a) = &self.audit {
            let _ = writeln!(
                out,
                "# audit: {} invariant(s) checked over {} event(s), {} violation(s)",
                a.invariants.len(),
                a.events_checked,
                a.total_violations
            );
            for v in &a.violations {
                for line in v.lines() {
                    let _ = writeln!(out, "# audit-violation: {line}");
                }
            }
        }
        out
    }
}

/// Coerce a metric name into the Prometheus exposition grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): every character outside that set becomes
/// `_`, and a name whose first character is a digit gains a `_` prefix.
/// Scrapers reject malformed names outright, so a snapshot carrying one
/// stray key (say, a flow tag with a dash) would otherwise poison the
/// whole export. The snapshot itself keeps the original name.
fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        match c {
            'a'..='z' | 'A'..='Z' | '_' | ':' => out.push(c),
            '0'..='9' => {
                if i == 0 {
                    out.push('_');
                }
                out.push(c);
            }
            _ => out.push('_'),
        }
    }
    out
}

/// Render a Prometheus label set, optionally with a `quantile` label.
fn prom_labels(labels: &[(String, String)], quantile: Option<f64>) -> String {
    if labels.is_empty() && quantile.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{}=\"{}\"", k, escape(v));
    }
    if let Some(q) = quantile {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "quantile=\"{}\"", fmt_f64(q));
    }
    out.push('}');
    out
}

/// Incremental [`Snapshot`] construction. Components contribute their
/// counters through one funnel; the builder owns naming discipline.
#[derive(Debug)]
pub struct SnapshotBuilder {
    snap: Snapshot,
}

/// Quantiles exported for every histogram summary.
pub const SUMMARY_QUANTILES: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

impl SnapshotBuilder {
    /// A builder for a snapshot taken at `at`.
    pub fn new(at: Time) -> SnapshotBuilder {
        SnapshotBuilder {
            snap: Snapshot {
                at,
                metrics: Vec::new(),
                audit: None,
            },
        }
    }

    /// Register an unlabeled counter.
    pub fn counter(&mut self, name: &str, help: &'static str, v: u64) {
        self.counter_with(name, help, &[], v);
    }

    /// Register a labeled counter.
    pub fn counter_with(
        &mut self,
        name: &str,
        help: &'static str,
        labels: &[(&str, String)],
        v: u64,
    ) {
        self.snap.metrics.push(Metric {
            name: name.to_string(),
            help,
            labels: own_labels(labels),
            value: MetricValue::Counter(v),
        });
    }

    /// Register an unlabeled gauge.
    pub fn gauge(&mut self, name: &str, help: &'static str, v: f64) {
        self.gauge_with(name, help, &[], v);
    }

    /// Register a labeled gauge.
    pub fn gauge_with(
        &mut self,
        name: &str,
        help: &'static str,
        labels: &[(&str, String)],
        v: f64,
    ) {
        self.snap.metrics.push(Metric {
            name: name.to_string(),
            help,
            labels: own_labels(labels),
            value: MetricValue::Gauge(v),
        });
    }

    /// Register a histogram as a summary (p50/p90/p99/p99.9 + sum/count),
    /// using the histogram's single-pass quantile scan.
    pub fn summary(&mut self, name: &str, help: &'static str, h: &Histogram) {
        self.summary_with(name, help, &[], h);
    }

    /// Register a labeled histogram summary.
    pub fn summary_with(
        &mut self,
        name: &str,
        help: &'static str,
        labels: &[(&str, String)],
        h: &Histogram,
    ) {
        let values = h.quantiles(&SUMMARY_QUANTILES);
        let quantiles = SUMMARY_QUANTILES.iter().copied().zip(values).collect();
        self.snap.metrics.push(Metric {
            name: name.to_string(),
            help,
            labels: own_labels(labels),
            value: MetricValue::Summary {
                quantiles,
                sum: h.sum(),
                count: h.count(),
            },
        });
    }

    /// Attach the audit outcome.
    pub fn audit(&mut self, a: AuditSummary) {
        self.snap.audit = Some(a);
    }

    /// Finish building.
    pub fn finish(self) -> Snapshot {
        self.snap
    }
}

fn own_labels(labels: &[(&str, String)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut b = SnapshotBuilder::new(Time(3_000_000));
        b.counter("ceio_dma_writes_total", "Writes issued.", 42);
        b.gauge_with(
            "ceio_flow_credits",
            "Credits currently assigned.",
            &[("flow", "3".to_string())],
            17.0,
        );
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v * 10);
        }
        b.summary("ceio_fast_latency_ns", "Fast-path delivery latency.", &h);
        b.finish()
    }

    #[test]
    fn prom_text_has_preambles_and_samples() {
        let text = sample().to_prom_text();
        assert!(text.contains("# HELP ceio_dma_writes_total Writes issued."));
        assert!(text.contains("# TYPE ceio_dma_writes_total counter"));
        assert!(text.contains("ceio_dma_writes_total 42"));
        assert!(text.contains("ceio_flow_credits{flow=\"3\"} 17"));
        assert!(text.contains("ceio_fast_latency_ns{quantile=\"0.5\"}"));
        assert!(text.contains("ceio_fast_latency_ns_count 100"));
    }

    #[test]
    fn audit_violations_surface_in_the_export() {
        let mut b = SnapshotBuilder::new(Time(0));
        b.counter("ceio_audit_violations_total", "Audit violations.", 2);
        b.audit(AuditSummary {
            events_checked: 9,
            invariants: vec!["credit-conservation".to_string()],
            total_violations: 2,
            violations: vec!["t=5ns credit-conservation: Eq. 1 violated".to_string()],
        });
        let s = b.finish();
        let text = s.to_prom_text();
        assert!(text.contains("# audit: 1 invariant(s) checked over 9 event(s), 2 violation(s)"));
        assert!(text.contains("# audit-violation: t=5ns credit-conservation"));
    }

    /// Golden pin of the prom exposition's escaping rules: per-queue
    /// labels render as `queue="k"`, label values escape quote, backslash,
    /// and newline, and metric names are coerced into the prom grammar
    /// (spaces/dots/dashes/percent → `_`, leading digit gains a `_`).
    /// Compares the whole rendering so any drift — reordering, added
    /// whitespace, changed escapes — fails loudly.
    #[test]
    fn prom_escaping_and_name_sanitization_golden() {
        let mut b = SnapshotBuilder::new(Time(0));
        b.counter_with(
            "ceio rx.drops-total",
            "Packets dropped.",
            &[("queue", "3".to_string())],
            7,
        );
        b.gauge_with(
            "9p%tile",
            "Name starts with a digit.",
            &[("path", "a\"b\\c\nd".to_string())],
            2.5,
        );
        let got = b.finish().to_prom_text();
        let want = concat!(
            "# HELP ceio_rx_drops_total Packets dropped.\n",
            "# TYPE ceio_rx_drops_total counter\n",
            "ceio_rx_drops_total{queue=\"3\"} 7\n",
            "# HELP _9p_tile Name starts with a digit.\n",
            "# TYPE _9p_tile gauge\n",
            "_9p_tile{path=\"a\\\"b\\\\c\\nd\"} 2.5\n",
        );
        assert_eq!(got, want);
    }

    /// Two distinct raw names that sanitize to the same prom name share
    /// one HELP/TYPE preamble — the dedup runs on the sanitized form, so
    /// the output never repeats a preamble for what scrapers consider a
    /// single metric family.
    #[test]
    fn preamble_dedup_uses_sanitized_names() {
        let mut b = SnapshotBuilder::new(Time(0));
        b.counter("ceio.x", "First.", 1);
        b.counter("ceio-x", "Second.", 2);
        let got = b.finish().to_prom_text();
        assert_eq!(got.matches("# HELP ceio_x").count(), 1);
        assert!(got.contains("ceio_x 1\n"));
        assert!(got.contains("ceio_x 2\n"));
    }

    #[test]
    fn empty_snapshot_exports_cleanly() {
        let s = SnapshotBuilder::new(Time(0)).finish();
        assert_eq!(s.to_prom_text(), "");
    }
}
