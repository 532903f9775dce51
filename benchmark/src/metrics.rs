//! Metric definitions and their derivation from repetitions.
//!
//! End-to-end metrics are host costs a user of the simulator sees, taken
//! with tracing off. Per-layer metrics come from a separate traced run:
//! host time per event kind, the engine's own share, and the modelled
//! components' counters that attribute a change in host time.

use crate::run::{Timed, Traced, KINDS, REPORTED_KINDS};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric and the share of the parent's median by which it
/// may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound, as a share of the parent's median.
    pub bound: f64,
}

/// The end-to-end metrics, as listed in `BENCHMARK.json`.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "slice_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "slice_ms_p90",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.2,
    },
];

/// A measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// Metric name.
    pub name: String,
    /// The number as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn value(name: impl Into<String>, value: f64, unit: &'static str) -> Value {
    Value {
        name: name.into(),
        value,
        unit,
    }
}

/// Median of `xs` (mean of the middle pair for an even count); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs`; 0 if empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// End-to-end metrics from the untraced repetitions of one run, the
/// set-up samples and the process's peak resident set.
///
/// Slice percentiles are taken within each repetition (100 slices, so 10
/// lie beyond the 90th percentile) and then the median over repetitions:
/// pooling all slices would let one repetition slowed by a noisy
/// neighbour fill the pooled tail.
pub fn end_to_end(reps: &[Timed], setups: &[f64], peak_rss_mib: f64) -> Vec<Value> {
    let over_reps = |f: &dyn Fn(&Timed) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let slice_ms = |r: &Timed, q: f64| quantile(&r.slice_s, q) * 1e3;
    let values = [
        over_reps(&|r| r.wall_s),
        over_reps(&|r| slice_ms(r, 0.5)),
        over_reps(&|r| slice_ms(r, 0.9)),
        median(setups),
        peak_rss_mib,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| value(m.name, v, m.unit))
        .collect()
}

/// The modelled-component counters: metric name, unit, and how it is
/// read from the snapshot series.
const COUNTERS: [(&str, &str, Read); 20] = [
    (
        "net.ingress_admitted",
        "count",
        Read::One("ceio_ingress_admitted_total"),
    ),
    (
        "net.ingress_dropped",
        "count",
        Read::One("ceio_ingress_dropped_total"),
    ),
    (
        "net.ecn_marked",
        "count",
        Read::One("ceio_ingress_ecn_marked_total"),
    ),
    (
        "nic.rmt_updates",
        "count",
        Read::One("ceio_rmt_updates_total"),
    ),
    (
        "nic.slow_path_share",
        "ratio",
        Read::Share("ceio_slow_path_pkts_total", "ceio_fast_path_pkts_total"),
    ),
    (
        "nic.onboard_bytes_written",
        "bytes",
        Read::One("ceio_onboard_bytes_written_total"),
    ),
    (
        "pcie.dma_writes",
        "count",
        Read::One("ceio_dma_writes_total"),
    ),
    (
        "pcie.dma_write_stalls",
        "count",
        Read::One("ceio_dma_write_stalls_total"),
    ),
    ("pcie.dma_reads", "count", Read::One("ceio_dma_reads_total")),
    ("mem.llc_hits", "count", Read::One("ceio_llc_hits_total")),
    (
        "mem.llc_misses",
        "count",
        Read::One("ceio_llc_misses_total"),
    ),
    (
        "mem.llc_hit_ratio",
        "ratio",
        Read::Share("ceio_llc_hits_total", "ceio_llc_misses_total"),
    ),
    (
        "mem.llc_evictions",
        "count",
        Read::One("ceio_llc_evictions_total"),
    ),
    (
        "mem.iio_rejected",
        "count",
        Read::One("ceio_iio_rejected_total"),
    ),
    (
        "mem.dram_requests",
        "count",
        Read::One("ceio_dram_requests_total"),
    ),
    ("cpu.packets", "count", Read::One("ceio_core_packets_total")),
    (
        "cpu.productive_poll_ratio",
        "ratio",
        Read::Share(
            "ceio_core_productive_polls_total",
            "ceio_core_empty_polls_total",
        ),
    ),
    ("host.dropped", "count", Read::One("ceio_dropped_total")),
    (
        "host.ordering_stalls",
        "count",
        Read::One("ceio_ordering_stalls_total"),
    ),
    ("sim.queue_peak", "count", Read::One("ceio_sim_queue_peak")),
];

/// How a counter metric is read from snapshot series.
#[derive(Clone, Copy)]
enum Read {
    /// One series as is.
    One(&'static str),
    /// `a / (a + b)`, 0 when both are 0.
    Share(&'static str, &'static str),
}

/// Per-layer metrics of one traced run: the median over traced
/// repetitions of each timing, the counters (identical in every
/// repetition of a deterministic run), and the tracing overhead against
/// the untraced repetitions interleaved with them.
pub fn per_layer(traced: &[Traced], untraced_walls: &[f64]) -> Vec<Value> {
    let med = |f: &dyn Fn(&Traced) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let mut out = Vec::new();
    for (k, (_, layer)) in KINDS[..REPORTED_KINDS].iter().enumerate() {
        let events = med(&|t| t.events[k] as f64);
        let self_ms = med(&|t| t.handler_ns[k] as f64 * 1e-6);
        let ns_per_event = med(&|t| per(t.handler_ns[k] as f64, t.events[k]));
        let share = med(&|t| t.handler_ns[k] as f64 * 1e-9 / t.handler_s());
        out.push(value(format!("{layer}.events"), events, "count"));
        out.push(value(format!("{layer}.self_ms"), self_ms, "ms"));
        out.push(value(format!("{layer}.ns_per_event"), ns_per_event, "ns"));
        out.push(value(format!("{layer}.share"), share, "ratio"));
    }
    let traced_wall = med(&|t| t.wall_s);
    out.push(value(
        "sim.engine_self_ms",
        med(&|t| t.engine_s() * 1e3),
        "ms",
    ));
    out.push(value(
        "sim.engine_ns_per_event",
        med(&|t| per(t.engine_s() * 1e9, t.events_processed)),
        "ns",
    ));
    out.push(value(
        "sim.events",
        med(&|t| t.events_processed as f64),
        "count",
    ));
    out.push(value(
        "sim.timers_cancelled",
        med(&|t| t.out.counters.get("ceio_sim_timers_cancelled_total") as f64),
        "count",
    ));
    out.push(value(
        "trace.overhead_ratio",
        traced_wall / median(untraced_walls),
        "ratio",
    ));
    for (name, unit, read) in COUNTERS {
        let v = med(&|t| {
            let c = &t.out.counters;
            match read {
                Read::One(s) => c.get(s) as f64,
                Read::Share(a, b) => {
                    let (a, b) = (c.get(a) as f64, c.get(b) as f64);
                    if a + b == 0.0 {
                        0.0
                    } else {
                        a / (a + b)
                    }
                }
            }
        });
        out.push(value(name, v, unit));
    }
    out
}

fn per(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}
