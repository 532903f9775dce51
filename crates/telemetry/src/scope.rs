//! `ceio-scope`: the sim-time flight recorder, SLO/alert engine, and
//! paper-figure report renderer.
//!
//! The CEIO paper argues with *time series* — LLC I/O occupancy climbing
//! past the DDIO capacity, goodput collapsing and recovering, slow-path
//! backlog draining under phase exclusivity — while the metrics registry
//! ([`crate::Snapshot`]) only captures end-of-run aggregates. This module
//! closes that gap with three pieces:
//!
//! 1. **[`FlightRecorder`]** — an epoch-driven sampler. The host machine
//!    schedules a scope tick every `interval` of *simulated* time; each
//!    tick records one point per registered gauge into a bounded
//!    drop-oldest ring (a long run keeps the most recent window, with an
//!    honest evicted-point counter). Gauges are either level samples
//!    ([`FlightRecorder::record`]), per-queue level samples
//!    ([`FlightRecorder::record_queue`]), or windowed deltas derived from
//!    lifetime totals ([`FlightRecorder::record_rate`],
//!    [`FlightRecorder::record_ratio`]). All bookkeeping is
//!    insertion-ordered or `BTreeMap`-keyed, so exports are deterministic
//!    and two identically-seeded processes emit byte-identical documents.
//!
//! 2. **[`SloRule`]** — declarative threshold+duration alerting evaluated
//!    in sim time. Rules parse from a `key=value` spec (the grammar the
//!    chaos fault plans use): `alert=llc-over,when=llc_occupancy_bytes,`
//!    `above=ddio_capacity_bytes,for=50us`. A rule whose predicate holds
//!    continuously for its `for=` duration fires once, stays `active`
//!    until the predicate clears, and is exported as
//!    `ceio_alert_fired_total`/`ceio_alert_active` samples.
//!
//! 3. **Reporting** — [`FlightRecorder::to_csv`] (wide, one column per
//!    gauge), snapshot integration via [`FlightRecorder::fill_metrics`]
//!    (bookkeeping and alert counters), and
//!    [`render_html`]: a self-contained HTML document with inline SVG
//!    charts (no external assets) reproducing the paper-style
//!    occupancy-over-time and goodput-over-time figures.

use crate::json::fmt_f64;
use crate::snapshot::SnapshotBuilder;
use ceio_sim::{Duration, Time};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;

/// One bounded, ring-buffered time series of a sampled gauge.
#[derive(Debug, Clone)]
pub struct ScopeSeries {
    /// Series key (CSV column header; per-queue keys are `base.qN`).
    pub key: String,
    /// One-line description, carried into chart legends and help text.
    pub help: &'static str,
    points: VecDeque<(Time, f64)>,
    cap: usize,
    dropped: u64,
}

impl ScopeSeries {
    fn new(key: String, help: &'static str, cap: usize) -> ScopeSeries {
        ScopeSeries {
            key,
            help,
            points: VecDeque::new(),
            cap: cap.max(1),
            dropped: 0,
        }
    }

    fn push(&mut self, at: Time, v: f64) {
        if self.points.len() >= self.cap {
            self.points.pop_front();
            self.dropped += 1;
        }
        self.points.push_back((at, v));
    }

    /// Samples currently held, oldest first.
    pub fn points(&self) -> impl Iterator<Item = (Time, f64)> + '_ {
        self.points.iter().copied()
    }

    /// The most recent sample, if any.
    pub fn latest(&self) -> Option<(Time, f64)> {
        self.points.back().copied()
    }

    /// Points evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Comparison threshold of an SLO predicate: a literal level or another
/// recorded series (compared point-for-point at each epoch).
#[derive(Debug, Clone, PartialEq)]
pub enum Threshold {
    /// A fixed literal level.
    Value(f64),
    /// The latest sample of another scope series.
    Series(String),
}

/// The breach condition of an [`SloRule`], evaluated once per epoch.
#[derive(Debug, Clone, PartialEq)]
pub enum SloPredicate {
    /// Breaching while the watched value exceeds the threshold.
    Above(Threshold),
    /// Breaching while the watched value is under the threshold.
    Below(Threshold),
    /// Breaching while the watched value does not change between epochs
    /// (a recovery counter staying silent under injected faults).
    Silent,
}

/// One declarative threshold+duration alert rule.
///
/// Grammar (rules separated by `;`, fields by `,`):
///
/// ```text
/// alert=<name>,when=<series>,above=<level|series>,for=<dur>
/// alert=<name>,when=<series>,below=<level|series>,for=<dur>
/// alert=<name>,when=<series>,silent,for=<dur>
/// ```
///
/// Durations use the chaos-plan grammar: `ns`, `us`, `ms` suffixes or
/// bare nanoseconds. `for=0` (the default) fires on the first breaching
/// epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct SloRule {
    /// Alert name, used as the `alert` label of the exported counters.
    pub alert: String,
    /// Key of the watched scope series.
    pub when: String,
    /// Breach condition.
    pub pred: SloPredicate,
    /// How long the predicate must hold continuously before firing.
    pub hold: Duration,
}

/// Parse a duration literal: `500ns`, `20us`, `1ms`, or bare nanoseconds
/// (the chaos fault-plan grammar).
pub fn parse_duration(s: &str) -> Result<Duration, String> {
    let (digits, mult) = if let Some(d) = s.strip_suffix("ns") {
        (d, 1u64)
    } else if let Some(d) = s.strip_suffix("us") {
        (d, 1_000)
    } else if let Some(d) = s.strip_suffix("ms") {
        (d, 1_000_000)
    } else {
        (s, 1)
    };
    match digits.parse::<u64>() {
        Ok(v) => Ok(Duration::nanos(v.saturating_mul(mult))),
        Err(_) => Err(format!("bad duration {s:?} (want e.g. 500ns, 20us, 1ms)")),
    }
}

fn parse_threshold(s: &str) -> Result<Threshold, String> {
    if s.is_empty() {
        return Err("empty threshold".to_string());
    }
    match s.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(Threshold::Value(v)),
        _ => Ok(Threshold::Series(s.to_string())),
    }
}

impl SloRule {
    /// Parse a whole `--slo` spec (one or more `;`-separated rules).
    pub fn parse_spec(spec: &str) -> Result<Vec<SloRule>, String> {
        let mut rules = Vec::new();
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            rules.push(SloRule::parse_one(part)?);
        }
        if rules.is_empty() {
            return Err("SLO spec contains no rules".to_string());
        }
        let mut names = BTreeSet::new();
        for r in &rules {
            if !names.insert(r.alert.clone()) {
                return Err(format!("duplicate alert name {:?}", r.alert));
            }
        }
        Ok(rules)
    }

    fn parse_one(part: &str) -> Result<SloRule, String> {
        let mut alert = None;
        let mut when = None;
        let mut pred: Option<SloPredicate> = None;
        let mut hold = Duration::ZERO;
        for field in part.split(',') {
            let field = field.trim();
            if field.is_empty() {
                continue;
            }
            let (key, value) = match field.split_once('=') {
                Some((k, v)) => (k.trim(), v.trim()),
                None => (field, ""),
            };
            let set_pred = |slot: &mut Option<SloPredicate>, p| {
                if slot.is_some() {
                    return Err(format!("rule {part:?}: more than one predicate"));
                }
                *slot = Some(p);
                Ok(())
            };
            match key {
                "alert" => alert = Some(value.to_string()),
                "when" => when = Some(value.to_string()),
                "above" => set_pred(&mut pred, SloPredicate::Above(parse_threshold(value)?))?,
                "below" => set_pred(&mut pred, SloPredicate::Below(parse_threshold(value)?))?,
                "silent" => set_pred(&mut pred, SloPredicate::Silent)?,
                "for" => hold = parse_duration(value)?,
                other => {
                    return Err(format!(
                        "rule {part:?}: unknown field {other:?} \
                         (want alert/when/above/below/silent/for)"
                    ))
                }
            }
        }
        let alert = alert.filter(|a| !a.is_empty()).ok_or_else(|| {
            format!("rule {part:?}: missing alert=<name> (names the exported counter)")
        })?;
        let when = when
            .filter(|w| !w.is_empty())
            .ok_or_else(|| format!("rule {part:?}: missing when=<series> (the watched gauge)"))?;
        let pred =
            pred.ok_or_else(|| format!("rule {part:?}: missing a predicate (above/below/silent)"))?;
        Ok(SloRule {
            alert,
            when,
            pred,
            hold,
        })
    }
}

/// Live evaluation state of one armed [`SloRule`].
#[derive(Debug, Clone)]
struct SloState {
    rule: SloRule,
    /// Start of the current uninterrupted breach, if any.
    breach_since: Option<Time>,
    /// Whether the alert is currently firing.
    active: bool,
    /// Lifetime fire count (breach held past `for=` transitions).
    fired: u64,
    /// Watched value at the previous epoch (for `silent`).
    last_value: Option<f64>,
}

/// One alert transition reported by [`FlightRecorder::end_epoch`] so the
/// host can emit a structured trace event at the firing instant.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertFire {
    /// Index of the rule in the armed rule list.
    pub rule: usize,
    /// Alert name.
    pub alert: String,
    /// Watched value at the firing epoch.
    pub value: f64,
}

/// The epoch-driven flight recorder: bounded time series of sampled
/// gauges plus the armed SLO rules evaluated against them.
#[derive(Debug)]
pub struct FlightRecorder {
    interval: Duration,
    cap: usize,
    series: Vec<ScopeSeries>,
    index: BTreeMap<String, usize>,
    /// Previous lifetime totals for windowed-delta gauges, keyed by the
    /// composed series key (numerator, denominator).
    last_totals: BTreeMap<String, (f64, f64)>,
    slos: Vec<SloState>,
    samples: u64,
}

impl FlightRecorder {
    /// A recorder sampling every `interval` of sim time, holding at most
    /// `cap` points per series (drop-oldest beyond that).
    pub fn new(interval: Duration, cap: usize) -> FlightRecorder {
        FlightRecorder {
            interval: Duration::nanos(interval.as_nanos().max(1)),
            cap: cap.max(1),
            series: Vec::new(),
            index: BTreeMap::new(),
            last_totals: BTreeMap::new(),
            slos: Vec::new(),
            samples: 0,
        }
    }

    /// The sampling interval.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Epochs sampled so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Arm SLO rules (replacing any armed before).
    pub fn arm_slos(&mut self, rules: Vec<SloRule>) {
        self.slos = rules
            .into_iter()
            .map(|rule| SloState {
                rule,
                breach_since: None,
                active: false,
                fired: 0,
                last_value: None,
            })
            .collect();
    }

    /// Declare a gauge up front, fixing its CSV column position. Idempotent;
    /// re-registering keeps the first help text.
    pub fn register(&mut self, key: &str, help: &'static str) {
        if !self.index.contains_key(key) {
            self.index.insert(key.to_string(), self.series.len());
            self.series
                .push(ScopeSeries::new(key.to_string(), help, self.cap));
        }
    }

    /// Declare one gauge per receive queue (`key.q0` .. `key.qN-1`).
    pub fn register_queue(&mut self, key: &str, help: &'static str, num_queues: usize) {
        for q in 0..num_queues.max(1) {
            self.register(&queue_key(key, q), help);
        }
    }

    fn series_mut(&mut self, key: &str, help: &'static str) -> &mut ScopeSeries {
        let idx = match self.index.get(key) {
            Some(&i) => i,
            None => {
                // Unregistered keys self-register (at the end of the column
                // order) rather than dropping data; the analyze gate keeps
                // registration and sampling in sync statically.
                self.index.insert(key.to_string(), self.series.len());
                self.series
                    .push(ScopeSeries::new(key.to_string(), help, self.cap));
                self.series.len() - 1
            }
        };
        &mut self.series[idx]
    }

    /// Record a level sample of gauge `key` at `now`.
    pub fn record(&mut self, key: &str, now: Time, v: f64) {
        self.series_mut(key, "").push(now, v);
    }

    /// Record a level sample of the per-queue gauge `key` for queue `q`.
    pub fn record_queue(&mut self, key: &str, q: usize, now: Time, v: f64) {
        self.record(&queue_key(key, q), now, v);
    }

    /// Record a windowed per-second rate derived from a lifetime total:
    /// the sampled value is `(total - previous_total) / interval_secs`.
    /// A total that shrank (measurement reset at warmup end) restarts the
    /// baseline, Prometheus `rate()` style. The first observation
    /// establishes the baseline and samples zero.
    pub fn record_rate(&mut self, key: &str, now: Time, total: f64) {
        let secs = self.interval.as_secs_f64();
        let last = self.last_totals.insert(key.to_string(), (total, 0.0));
        let delta = match last {
            Some((prev, _)) if total >= prev => total - prev,
            Some(_) => total, // counter reset
            None => 0.0,
        };
        self.record(key, now, delta / secs);
    }

    /// Record a windowed ratio of two lifetime totals: the sampled value
    /// is `Δnum / (Δnum + Δden)` over the epoch (zero when both deltas
    /// are zero). Used for e.g. the per-epoch LLC miss rate from lifetime
    /// hit/miss totals.
    pub fn record_ratio(&mut self, key: &str, now: Time, num_total: f64, den_total: f64) {
        let last = self
            .last_totals
            .insert(key.to_string(), (num_total, den_total));
        let (dn, dd) = match last {
            Some((pn, pd)) if num_total >= pn && den_total >= pd => {
                (num_total - pn, den_total - pd)
            }
            Some(_) => (num_total, den_total), // counter reset
            None => (0.0, 0.0),
        };
        let v = if dn + dd > 0.0 { dn / (dn + dd) } else { 0.0 };
        self.record(key, now, v);
    }

    /// Record a windowed mean of two lifetime totals: the sampled value is
    /// `Δsum / Δcount` over the epoch (zero when nothing happened). Used
    /// for e.g. the per-epoch mean eviction age from lifetime
    /// age-sum/eviction totals.
    pub fn record_mean(&mut self, key: &str, now: Time, sum_total: f64, count_total: f64) {
        let last = self
            .last_totals
            .insert(key.to_string(), (sum_total, count_total));
        let (ds, dc) = match last {
            Some((ps, pc)) if sum_total >= ps && count_total >= pc => {
                (sum_total - ps, count_total - pc)
            }
            Some(_) => (sum_total, count_total), // counter reset
            None => (0.0, 0.0),
        };
        let v = if dc > 0.0 { ds / dc } else { 0.0 };
        self.record(key, now, v);
    }

    fn latest_of(&self, key: &str) -> Option<f64> {
        self.index
            .get(key)
            .and_then(|&i| self.series[i].latest())
            .map(|(_, v)| v)
    }

    /// Close the sampling epoch at `now`: evaluate every armed SLO rule
    /// against the freshly recorded samples and return the alerts that
    /// transitioned to firing at this epoch.
    pub fn end_epoch(&mut self, now: Time) -> Vec<AlertFire> {
        self.samples += 1;
        let mut fires = Vec::new();
        for i in 0..self.slos.len() {
            let watched = self
                .index
                .get(&self.slos[i].rule.when)
                .and_then(|&s| self.series[s].latest())
                .map(|(_, v)| v);
            let threshold = match &self.slos[i].rule.pred {
                SloPredicate::Above(t) | SloPredicate::Below(t) => match t {
                    Threshold::Value(v) => Some(*v),
                    Threshold::Series(key) => self.latest_of(key),
                },
                SloPredicate::Silent => None,
            };
            let st = &mut self.slos[i];
            let breach = match (&st.rule.pred, watched) {
                (_, None) => false,
                (SloPredicate::Above(_), Some(v)) => threshold.is_some_and(|t| v > t),
                (SloPredicate::Below(_), Some(v)) => threshold.is_some_and(|t| v < t),
                (SloPredicate::Silent, Some(v)) => {
                    let unchanged = st.last_value.is_some_and(|prev| prev == v);
                    st.last_value = Some(v);
                    unchanged
                }
            };
            if breach {
                let since = *st.breach_since.get_or_insert(now);
                if !st.active && now.since(since) >= st.rule.hold {
                    st.active = true;
                    st.fired += 1;
                    fires.push(AlertFire {
                        rule: i,
                        alert: st.rule.alert.clone(),
                        value: watched.unwrap_or(0.0),
                    });
                }
            } else {
                st.breach_since = None;
                st.active = false;
            }
        }
        fires
    }

    /// Lifetime alert fires across every rule.
    pub fn total_fired(&self) -> u64 {
        self.slos.iter().map(|s| s.fired).sum()
    }

    /// `(alert name, fires, currently active)` per armed rule.
    pub fn alert_states(&self) -> Vec<(String, u64, bool)> {
        self.slos
            .iter()
            .map(|s| (s.rule.alert.clone(), s.fired, s.active))
            .collect()
    }

    /// All recorded series, in registration order.
    pub fn all_series(&self) -> &[ScopeSeries] {
        &self.series
    }

    /// Look up one series by key.
    pub fn series(&self, key: &str) -> Option<&ScopeSeries> {
        self.index.get(key).map(|&i| &self.series[i])
    }

    /// Points evicted across every series (ring-overflow truncation).
    pub fn points_dropped(&self) -> u64 {
        self.series.iter().map(|s| s.dropped).sum()
    }

    /// Contribute the recorder's state to a metrics snapshot: scope
    /// bookkeeping counters and per-alert `ceio_alert_*` samples.
    pub fn fill_metrics(&self, b: &mut SnapshotBuilder) {
        b.gauge(
            "ceio_scope_interval_ns",
            "Flight-recorder sampling interval in simulated nanoseconds.",
            self.interval.as_nanos() as f64,
        );
        b.counter(
            "ceio_scope_samples_total",
            "Sampling epochs recorded by the flight recorder.",
            self.samples,
        );
        b.gauge(
            "ceio_scope_series",
            "Time series the flight recorder is tracking.",
            self.series.len() as f64,
        );
        b.counter(
            "ceio_scope_points_dropped_total",
            "Scope samples evicted by ring-buffer overflow.",
            self.points_dropped(),
        );
        b.counter(
            "ceio_alerts_fired_total",
            "SLO alert fires across every armed rule.",
            self.total_fired(),
        );
        for s in &self.slos {
            let lbl = [("alert", s.rule.alert.clone())];
            b.counter_with(
                "ceio_alert_fired_total",
                "Times this SLO rule transitioned to firing.",
                &lbl,
                s.fired,
            );
            b.gauge_with(
                "ceio_alert_active",
                "Whether this SLO rule is currently firing (1) or not (0).",
                &lbl,
                if s.active { 1.0 } else { 0.0 },
            );
        }
    }

    /// Render every series as a wide CSV document: `t_ns` plus one column
    /// per gauge in registration order. Rows cover the union of sample
    /// instants; a series with no point at an instant leaves its cell
    /// empty. Output is deterministic (byte-identical across processes
    /// for identical runs).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t_ns");
        for s in &self.series {
            out.push(',');
            out.push_str(&s.key);
        }
        out.push('\n');
        let mut instants: BTreeSet<Time> = BTreeSet::new();
        for s in &self.series {
            instants.extend(s.points().map(|(t, _)| t));
        }
        // Per-series cursor: points are chronological, so one forward
        // sweep suffices (no per-cell search).
        let mut cursors: Vec<std::iter::Peekable<_>> =
            self.series.iter().map(|s| s.points().peekable()).collect();
        for t in instants {
            let _ = write!(out, "{}", t.nanos());
            for c in cursors.iter_mut() {
                out.push(',');
                if let Some(&(pt, v)) = c.peek() {
                    if pt == t {
                        out.push_str(&fmt_f64(v));
                        c.next();
                    }
                }
            }
            out.push('\n');
        }
        out
    }

    /// Assemble a chart over the given series keys (missing keys are
    /// skipped so report generation never fails on a sparse run).
    pub fn chart(&self, title: &str, y_label: &str, keys: &[&str]) -> Chart {
        Chart {
            title: title.to_string(),
            y_label: y_label.to_string(),
            series: keys
                .iter()
                .filter_map(|k| self.series(k))
                .map(|s| (s.key.clone(), s.points().collect()))
                .collect(),
        }
    }
}

/// Compose the per-queue variant of a series key.
fn queue_key(key: &str, q: usize) -> String {
    format!("{key}.q{q}")
}

/// One chart of the HTML report: a titled set of labeled curves sharing
/// axes.
#[derive(Debug, Clone)]
pub struct Chart {
    /// Chart heading.
    pub title: String,
    /// Y-axis label.
    pub y_label: String,
    /// `(label, points)` curves.
    pub series: Vec<(String, Vec<(Time, f64)>)>,
}

/// Escape text for embedding in HTML.
fn html_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// Curve palette (SVG stroke colors), cycled per chart.
const PALETTE: [&str; 6] = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf",
];

const SVG_W: f64 = 720.0;
const SVG_H: f64 = 260.0;
const MARGIN_L: f64 = 70.0;
const MARGIN_R: f64 = 16.0;
const MARGIN_T: f64 = 14.0;
const MARGIN_B: f64 = 34.0;

fn render_chart_svg(out: &mut String, chart: &Chart) {
    let (mut t_min, mut t_max) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut v_min, mut v_max) = (0.0f64, f64::NEG_INFINITY);
    for (_, pts) in &chart.series {
        for &(t, v) in pts {
            let tm = t.nanos() as f64 / 1e6; // milliseconds
            t_min = t_min.min(tm);
            t_max = t_max.max(tm);
            v_min = v_min.min(v);
            v_max = v_max.max(v);
        }
    }
    if !t_min.is_finite() || !v_max.is_finite() {
        out.push_str("<p class=\"empty\">no samples</p>\n");
        return;
    }
    if t_max <= t_min {
        t_max = t_min + 1.0;
    }
    if v_max <= v_min {
        v_max = v_min + 1.0;
    }
    v_max *= 1.05;
    let plot_w = SVG_W - MARGIN_L - MARGIN_R;
    let plot_h = SVG_H - MARGIN_T - MARGIN_B;
    let x = |tm: f64| MARGIN_L + (tm - t_min) / (t_max - t_min) * plot_w;
    let y = |v: f64| MARGIN_T + (1.0 - (v - v_min) / (v_max - v_min)) * plot_h;

    let _ = writeln!(
        out,
        "<svg viewBox=\"0 0 {SVG_W} {SVG_H}\" width=\"{SVG_W}\" height=\"{SVG_H}\" \
         role=\"img\" xmlns=\"http://www.w3.org/2000/svg\">"
    );
    // Plot frame.
    let _ = writeln!(
        out,
        "<rect x=\"{MARGIN_L}\" y=\"{MARGIN_T}\" width=\"{plot_w:.1}\" height=\"{plot_h:.1}\" \
         fill=\"none\" stroke=\"#999\"/>"
    );
    // Axis ticks and grid lines (5 x, 4 y).
    for i in 0..=4u32 {
        let f = f64::from(i) / 4.0;
        let tm = t_min + f * (t_max - t_min);
        let xp = x(tm);
        let _ = write!(
            out,
            "<line x1=\"{xp:.1}\" y1=\"{MARGIN_T}\" x2=\"{xp:.1}\" y2=\"{:.1}\" \
             stroke=\"#eee\"/>\n<text x=\"{xp:.1}\" y=\"{:.1}\" text-anchor=\"middle\" \
             font-size=\"10\">{tm:.2}</text>\n",
            MARGIN_T + plot_h,
            MARGIN_T + plot_h + 14.0,
        );
    }
    for i in 0..=3u32 {
        let f = f64::from(i) / 3.0;
        let v = v_min + f * (v_max - v_min);
        let yp = y(v);
        let _ = write!(
            out,
            "<line x1=\"{MARGIN_L}\" y1=\"{yp:.1}\" x2=\"{:.1}\" y2=\"{yp:.1}\" \
             stroke=\"#eee\"/>\n<text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\" \
             font-size=\"10\">{v:.2}</text>\n",
            MARGIN_L + plot_w,
            MARGIN_L - 6.0,
            yp + 3.0,
        );
    }
    // Axis labels.
    let _ = write!(
        out,
        "<text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"middle\" font-size=\"11\">t (ms)</text>\n\
         <text x=\"12\" y=\"{:.1}\" text-anchor=\"middle\" font-size=\"11\" \
         transform=\"rotate(-90 12 {:.1})\">{}</text>\n",
        MARGIN_L + plot_w / 2.0,
        SVG_H - 4.0,
        MARGIN_T + plot_h / 2.0,
        MARGIN_T + plot_h / 2.0,
        html_escape(&chart.y_label),
    );
    // Curves.
    for (i, (label, pts)) in chart.series.iter().enumerate() {
        let color = PALETTE[i % PALETTE.len()];
        let mut path = String::new();
        for &(t, v) in pts {
            if !path.is_empty() {
                path.push(' ');
            }
            let _ = write!(path, "{:.1},{:.1}", x(t.nanos() as f64 / 1e6), y(v));
        }
        let _ = writeln!(
            out,
            "<polyline points=\"{path}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"1.5\"/>"
        );
        // Legend row (top-right corner of the plot).
        let ly = MARGIN_T + 12.0 + 13.0 * i as f64;
        let _ = write!(
            out,
            "<line x1=\"{:.1}\" y1=\"{ly:.1}\" x2=\"{:.1}\" y2=\"{ly:.1}\" \
             stroke=\"{color}\" stroke-width=\"2\"/>\n<text x=\"{:.1}\" y=\"{:.1}\" \
             font-size=\"10\">{}</text>\n",
            MARGIN_L + plot_w - 150.0,
            MARGIN_L + plot_w - 132.0,
            MARGIN_L + plot_w - 128.0,
            ly + 3.0,
            html_escape(label),
        );
    }
    out.push_str("</svg>\n");
}

/// Render a self-contained HTML report: run metadata, alert outcomes, and
/// one inline-SVG chart per [`Chart`]. No external assets, scripts, or
/// stylesheets — the document opens offline and archives byte-stable.
pub fn render_html(
    title: &str,
    meta: &[(String, String)],
    alerts: &[(String, u64, bool)],
    charts: &[Chart],
) -> String {
    let mut out = String::with_capacity(16 * 1024);
    let _ = write!(
        out,
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
         <title>{}</title>\n<style>\nbody{{font-family:sans-serif;margin:2em;\
         max-width:780px}}\nh1{{font-size:1.4em}}h2{{font-size:1.1em;margin-top:1.6em}}\n\
         table{{border-collapse:collapse}}td,th{{border:1px solid #ccc;\
         padding:2px 8px;font-size:0.9em;text-align:left}}\n\
         .firing{{color:#d62728;font-weight:bold}}.quiet{{color:#2ca02c}}\n\
         .empty{{color:#999;font-style:italic}}\n</style>\n</head>\n<body>\n<h1>{}</h1>\n",
        html_escape(title),
        html_escape(title),
    );
    if !meta.is_empty() {
        out.push_str("<h2>Run</h2>\n<table>\n");
        for (k, v) in meta {
            let _ = writeln!(
                out,
                "<tr><th>{}</th><td>{}</td></tr>",
                html_escape(k),
                html_escape(v)
            );
        }
        out.push_str("</table>\n");
    }
    out.push_str("<h2>Alerts</h2>\n");
    if alerts.is_empty() {
        out.push_str("<p class=\"empty\">no SLO rules armed</p>\n");
    } else {
        out.push_str("<table>\n<tr><th>alert</th><th>fired</th><th>state</th></tr>\n");
        for (name, fired, active) in alerts {
            let (class, state) = if *active {
                ("firing", "FIRING")
            } else if *fired > 0 {
                ("quiet", "resolved")
            } else {
                ("quiet", "ok")
            };
            let _ = writeln!(
                out,
                "<tr><td>{}</td><td>{}</td><td class=\"{class}\">{state}</td></tr>",
                html_escape(name),
                fired,
            );
        }
        out.push_str("</table>\n");
    }
    for chart in charts {
        let _ = writeln!(out, "<h2>{}</h2>", html_escape(&chart.title));
        render_chart_svg(&mut out, chart);
    }
    out.push_str("</body>\n</html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec() -> FlightRecorder {
        FlightRecorder::new(Duration::micros(10), 1024)
    }

    #[test]
    fn record_and_ring_bound() {
        let mut r = FlightRecorder::new(Duration::micros(1), 3);
        r.register("g", "a gauge");
        for i in 0..5u64 {
            r.record("g", Time(i * 1000), i as f64);
        }
        let s = r.series("g").expect("invariant: registered above");
        assert_eq!(s.points().count(), 3);
        assert_eq!(s.dropped(), 2);
        assert_eq!(s.latest(), Some((Time(4000), 4.0)));
        assert_eq!(r.points_dropped(), 2);
    }

    #[test]
    fn rate_is_windowed_and_reset_safe() {
        let mut r = FlightRecorder::new(Duration::micros(10), 64);
        r.register("rate", "per-second");
        r.record_rate("rate", Time(10_000), 100.0);
        r.record_rate("rate", Time(20_000), 300.0);
        // Warmup reset: the total shrank; the new total is the delta.
        r.record_rate("rate", Time(30_000), 50.0);
        let pts: Vec<(Time, f64)> = r
            .series("rate")
            .expect("invariant: registered")
            .points()
            .collect();
        assert_eq!(pts[0].1, 0.0, "first sample establishes the baseline");
        assert!((pts[1].1 - 200.0 / 10e-6).abs() < 1.0);
        assert!((pts[2].1 - 50.0 / 10e-6).abs() < 1.0);
    }

    #[test]
    fn ratio_is_windowed() {
        let mut r = rec();
        r.register("miss", "miss ratio");
        r.record_ratio("miss", Time(10_000), 0.0, 0.0);
        r.record_ratio("miss", Time(20_000), 10.0, 30.0); // 10 misses, 30 hits
        r.record_ratio("miss", Time(30_000), 10.0, 30.0); // idle epoch
        let pts: Vec<(Time, f64)> = r
            .series("miss")
            .expect("invariant: registered")
            .points()
            .collect();
        assert_eq!(pts[0].1, 0.0);
        assert!((pts[1].1 - 0.25).abs() < 1e-12);
        assert_eq!(pts[2].1, 0.0, "no lookups: ratio reports zero");
    }

    #[test]
    fn queue_keys_compose() {
        let mut r = rec();
        r.register_queue("depth", "per-queue depth", 2);
        r.record_queue("depth", 0, Time(1), 3.0);
        r.record_queue("depth", 1, Time(1), 7.0);
        assert_eq!(
            r.series("depth.q0").and_then(ScopeSeries::latest),
            Some((Time(1), 3.0))
        );
        assert_eq!(
            r.series("depth.q1").and_then(ScopeSeries::latest),
            Some((Time(1), 7.0))
        );
    }

    #[test]
    fn slo_spec_parses() {
        let rules = SloRule::parse_spec(
            "alert=llc-over,when=llc_occupancy_bytes,above=ddio_capacity_bytes,for=50us;\
             alert=recovery-silent,when=dma_retry_pps,silent,for=1ms;\
             alert=goodput-floor,when=goodput_gbps,below=1.5",
        )
        .expect("invariant: spec above is well-formed");
        assert_eq!(rules.len(), 3);
        assert_eq!(
            rules[0].pred,
            SloPredicate::Above(Threshold::Series("ddio_capacity_bytes".to_string()))
        );
        assert_eq!(rules[0].hold, Duration::micros(50));
        assert_eq!(rules[1].pred, SloPredicate::Silent);
        assert_eq!(rules[2].pred, SloPredicate::Below(Threshold::Value(1.5)));
        assert_eq!(rules[2].hold, Duration::ZERO);
    }

    #[test]
    fn slo_spec_rejects_malformed() {
        for bad in [
            "",
            "when=x,above=1",                                // no alert name
            "alert=a,above=1",                               // no watched series
            "alert=a,when=x",                                // no predicate
            "alert=a,when=x,above=1,below=2",                // two predicates
            "alert=a,when=x,above=1,for=5xs",                // bad duration
            "alert=a,when=x,above=1,bogus=2",                // unknown field
            "alert=a,when=x,above=1;alert=a,when=y,above=2", // duplicate name
        ] {
            assert!(
                SloRule::parse_spec(bad).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn alert_fires_after_hold_and_resolves() {
        let mut r = FlightRecorder::new(Duration::micros(10), 64);
        r.register("v", "watched");
        r.arm_slos(
            SloRule::parse_spec("alert=high,when=v,above=5,for=20us")
                .expect("invariant: well-formed"),
        );
        // Breach must hold for 20us = 3 epochs at 10us spacing (t, t+10, t+20).
        let mut fired_at = None;
        for e in 0..6u64 {
            let now = Time((e + 1) * 10_000);
            r.record("v", now, if e < 4 { 9.0 } else { 1.0 });
            for f in r.end_epoch(now) {
                fired_at = Some((now, f));
            }
        }
        let (at, fire) = fired_at.expect("invariant: rule must fire");
        assert_eq!(
            at,
            Time(30_000),
            "fires at the first epoch with 20us of breach"
        );
        assert_eq!(fire.alert, "high");
        assert_eq!(r.total_fired(), 1);
        let states = r.alert_states();
        assert_eq!(
            states[0],
            ("high".to_string(), 1, false),
            "resolved after clear"
        );
    }

    #[test]
    fn alert_series_threshold_and_silent() {
        let mut r = FlightRecorder::new(Duration::micros(10), 64);
        r.register("occ", "occupancy");
        r.register("cap", "capacity");
        r.register("retries", "recovery counter");
        r.arm_slos(
            SloRule::parse_spec(
                "alert=over,when=occ,above=cap;alert=stuck,when=retries,silent,for=20us",
            )
            .expect("invariant: well-formed"),
        );
        for e in 0..5u64 {
            let now = Time((e + 1) * 10_000);
            r.record("occ", now, 10.0 + e as f64);
            r.record("cap", now, 12.0);
            r.record("retries", now, 7.0); // never changes: silent
            r.end_epoch(now);
        }
        let states = r.alert_states();
        // occ crosses cap (12.0) strictly at epoch 4 (value 13).
        assert_eq!(states[0].1, 1, "series-threshold rule fired");
        assert!(states[0].2, "still breaching at the end");
        assert_eq!(states[1].1, 1, "silent rule fired after its TTL");
    }

    #[test]
    fn csv_is_wide_and_deterministic() {
        let build = || {
            let mut r = rec();
            r.register("a", "");
            r.register("b", "");
            r.record("a", Time(1000), 1.5);
            r.record("b", Time(1000), 2.0);
            r.record("a", Time(2000), 3.0);
            r.to_csv()
        };
        let csv = build();
        assert_eq!(csv, "t_ns,a,b\n1000,1.5,2\n2000,3,\n");
        assert_eq!(csv, build(), "byte-identical across builds");
    }

    #[test]
    fn fill_metrics_exports_alerts_and_series() {
        let mut r = rec();
        r.register("g", "gauge");
        r.arm_slos(
            SloRule::parse_spec("alert=always,when=g,above=-1").expect("invariant: well-formed"),
        );
        r.record("g", Time(10_000), 5.0);
        r.end_epoch(Time(10_000));
        let mut b = SnapshotBuilder::new(Time(10_000));
        r.fill_metrics(&mut b);
        let snap = b.finish();
        let prom = snap.to_prom_text();
        assert!(prom.contains("ceio_scope_samples_total 1"), "{prom}");
        assert!(
            prom.contains("ceio_alert_fired_total{alert=\"always\"} 1"),
            "{prom}"
        );
        assert!(
            prom.contains("ceio_alert_active{alert=\"always\"} 1"),
            "{prom}"
        );
        assert!(prom.contains("ceio_alerts_fired_total 1"), "{prom}");
    }

    #[test]
    fn html_report_is_self_contained() {
        let mut r = rec();
        r.register("llc_occupancy_bytes", "occupancy");
        r.register("ddio_capacity_bytes", "capacity");
        for e in 0..8u64 {
            let now = Time((e + 1) * 10_000);
            r.record("llc_occupancy_bytes", now, 1000.0 + 100.0 * e as f64);
            r.record("ddio_capacity_bytes", now, 1500.0);
        }
        let chart = r.chart(
            "LLC I/O occupancy vs. DDIO capacity",
            "bytes",
            &["llc_occupancy_bytes", "ddio_capacity_bytes"],
        );
        let html = render_html(
            "ceio-scope report",
            &[("seed".to_string(), "42".to_string())],
            &[("over".to_string(), 2, true)],
            &[chart],
        );
        assert!(html.contains("<!DOCTYPE html>"));
        assert!(html.contains("<svg"), "chart must render inline SVG");
        assert!(html.contains("<polyline"), "curves must be present");
        assert!(html.contains("LLC I/O occupancy vs. DDIO capacity"));
        assert!(html.contains("FIRING"));
        assert!(!html.contains("<script"), "no scripts");
        assert!(
            !html.contains("http://") || html.contains("xmlns"),
            "no external fetches"
        );
        // Deterministic rendering.
        let chart2 = r.chart(
            "LLC I/O occupancy vs. DDIO capacity",
            "bytes",
            &["llc_occupancy_bytes", "ddio_capacity_bytes"],
        );
        let html2 = render_html(
            "ceio-scope report",
            &[("seed".to_string(), "42".to_string())],
            &[("over".to_string(), 2, true)],
            &[chart2],
        );
        assert_eq!(html, html2);
    }

    #[test]
    fn empty_chart_renders_placeholder() {
        let r = rec();
        let html = render_html("t", &[], &[], &[r.chart("empty", "y", &["missing"])]);
        assert!(html.contains("no samples"));
    }

    #[test]
    fn parse_duration_grammar() {
        assert_eq!(parse_duration("500ns"), Ok(Duration::nanos(500)));
        assert_eq!(parse_duration("20us"), Ok(Duration::micros(20)));
        assert_eq!(parse_duration("1ms"), Ok(Duration::millis(1)));
        assert_eq!(parse_duration("42"), Ok(Duration::nanos(42)));
        assert!(parse_duration("5s").is_err());
        assert!(parse_duration("ns").is_err());
    }
}
